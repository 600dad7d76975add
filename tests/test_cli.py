import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lya
from lya.cli import main
from lya.exactlin import Matrix, Subspace
from lya.lyalg import catalog
from lya.maps import LinMap
from lya.serialize import (algebra_from_dict, algebra_to_dict, load_json_file, map_to_dict,
                           save_json_file, subspace_to_dict)
from test_maps import rebased


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


def run_json(*argv):
    code, text = run_cli(*argv)
    return code, json.loads(text)


@pytest.fixture()
def sl2_file(tmp_path):
    path = tmp_path / "sl2.json"
    code, _ = run_cli("export", "sl2", "--out", str(path))
    assert code == 0
    return path


def test_export_round_trip(tmp_path):
    for name in ("sl2", "lts_sl2", "abelian3", "sl2_plus_ab1", "leibniz2"):
        path = tmp_path / f"{name}.json"
        code, report = run_json("export", name, "--out", str(path))
        assert code == 0
        reloaded = algebra_from_dict(load_json_file(path))
        original = catalog(name)
        assert reloaded.c == original.c and reloaded.d == original.d
        assert reloaded.labels == original.labels
        assert report["result"]["name"] == name


def test_export_abelian_has_empty_sections(tmp_path):
    path = tmp_path / "ab3.json"
    run_cli("export", "abelian3", "--out", str(path))
    data = load_json_file(path)
    assert data["binary"] == [] and data["ternary"] == []


def test_export_unknown_name_exits_2(tmp_path):
    code, report = run_json("export", "nope", "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "unknown catalog" in report["error"]


@pytest.mark.parametrize("name", ["abelian(3", "abelian3)", "abelian()", "abelian(3)\n"])
def test_export_malformed_abelian_name_exits_2_with_one_report(tmp_path, name):
    target = tmp_path / "x.json"
    code, text = run_cli("export", name, "--out", str(target))
    assert code == 2
    report = json.loads(text)  # exactly one JSON document on stdout
    assert report["verb"] == "export"
    assert report["error"] == f"unknown catalog name {name!r}"
    assert "result" not in report
    assert not target.exists()


def test_export_without_out_builds_no_algebra(monkeypatch):
    """A missing --out is reported before the catalog algebra is built:
    abelian(40) took seconds to build only to be refused."""
    import lya.cli

    calls = []
    monkeypatch.setattr(lya.cli, "catalog", lambda name: calls.append(name) or catalog(name))
    code, text = run_cli("export", "abelian(40)")
    assert code == 2
    assert calls == []
    assert json.loads(text) == {"error": "export needs --out FILE", "inputs": [], "tool": "lya",
                                "verb": "export", "version": lya.__version__}


def test_check_valid_algebra(sl2_file):
    code, report = run_json("check", str(sl2_file))
    assert code == 0
    assert report["result"]["passed"] is True
    assert report["inputs"][0]["path"] == str(sl2_file)
    assert len(report["inputs"][0]["sha256"]) == 64


def test_check_corrupted_sign_exits_1(sl2_file, tmp_path):
    data = load_json_file(sl2_file)
    # Flip the sign of the [e,f] coefficient.  The loader expands the
    # alternating symmetry, so LY1/LY2 stay intact; the flipped bracket is
    # inconsistent with the stored ternary tensor and LY5 is the first
    # identity to break ({h,e,[e,f]} = 4e while the right side gives -4e).
    data["binary"][0][2][2] = "-1"
    bad = tmp_path / "bad.json"
    save_json_file(bad, data)
    code, report = run_json("check", str(bad))
    assert code == 1
    assert report["result"]["passed"] is False
    tags = {f["axiom"] for f in report["result"]["failures"]}
    assert "LY1" not in tags and "LY2" not in tags
    assert report["result"]["failures"][0]["axiom"] == "LY5"


def test_check_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    code, report = run_json("check", str(bad))
    assert code == 2
    assert "line 1" in report["error"]


def test_check_non_utf8_input_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"dim": "\xff"}')
    code, report = run_json("check", str(bad))
    assert code == 2
    assert "UTF-8" in report["error"]


# aff2 ([e1, e2] = e1) with a stray ternary product {e1, e2, e2} = e2/5.  The
# common denominator 5 shows up squared in the LY6 residuals.
FAILING_ALGEBRA = ('{"dim": 2, "labels": ["e1", "e2"], "binary": [[0, 1, ["1", "0"]]], '
                   '"ternary": [[0, 1, 1, ["0", "1/5"]]]}\n')


def test_check_failing_input_stdout_is_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_text(FAILING_ALGEBRA, encoding="utf-8")
    code, text = run_cli("check", "bad.json")
    assert code == 1
    failures = [(f["axiom"], f["indices"], f["residual"])
                for f in json.loads(text)["result"]["failures"]]
    assert failures == [
        ("LY5", [0, 1, 0, 1], ["-1/5", "0"]),
        ("LY5", [0, 1, 1, 0], ["1/5", "0"]),
        ("LY5", [1, 0, 0, 1], ["1/5", "0"]),
        ("LY5", [1, 0, 1, 0], ["-1/5", "0"]),
        ("LY6", [0, 1, 0, 1, 1], ["0", "-1/25"]),
        ("LY6", [0, 1, 1, 0, 1], ["0", "1/25"]),
        ("LY6", [1, 0, 0, 1, 1], ["0", "1/25"]),
        ("LY6", [1, 0, 1, 0, 1], ["0", "-1/25"]),
    ]
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        "b9ff0042714fd0b6517bedb65ce0bfc3b479886f4943612240398eda5be40fa7"


@pytest.mark.parametrize("data", [
    {"dim": True},
    {"dim": 2, "binary": [[False, True, ["0", "0"]]]},
    {"dim": 2, "ternary": [[0, True, 0, ["0", "0"]]]},
])
def test_json_booleans_are_not_integers(tmp_path, data):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, report = run_json("check", str(path))
    assert code == 2
    assert report["verb"] == "check" and "integer" in report["error"]
    assert "result" not in report


def test_input_hash_describes_the_parsed_bytes(sl2_file, monkeypatch):
    """The file changes right after its first read: the reported hash and the
    parsed algebra must both describe the bytes of that one read."""
    original = sl2_file.read_bytes()
    swapped = []

    def swap_after(read):
        def wrapper(self, *args, **kwargs):
            out = read(self, *args, **kwargs)
            if self == sl2_file and not swapped:
                swapped.append(True)
                sl2_file.write_text('{"dim": 1}\n', encoding="utf-8")
            return out
        return wrapper

    monkeypatch.setattr(Path, "read_bytes", swap_after(Path.read_bytes))
    monkeypatch.setattr(Path, "read_text", swap_after(Path.read_text))
    code, report = run_json("der", str(sl2_file))
    assert swapped
    assert code == 0 and report["result"]["alg_dim"] == 3
    assert report["inputs"][0]["sha256"] == hashlib.sha256(original).hexdigest()


def test_der_dimension_report(tmp_path):
    path = tmp_path / "ab2.json"
    run_cli("export", "abelian2", "--out", str(path))
    code, report = run_json("der", str(path))
    assert code == 0
    assert report["result"]["dim"] == 4


def test_construct_from_lie(tmp_path, sl2_file):
    data = load_json_file(sl2_file)
    lie = {"dim": data["dim"], "labels": data["labels"], "binary": data["binary"]}
    lie_path = tmp_path / "lie.json"
    save_json_file(lie_path, lie)
    out_path = tmp_path / "constructed.json"
    code, report = run_json("construct", str(lie_path), "--from", "lie",
                            "--out", str(out_path))
    assert code == 0
    built = algebra_from_dict(load_json_file(out_path))
    assert built.c == catalog("sl2").c and built.d == catalog("sl2").d


def test_construct_from_leibniz(tmp_path):
    data = {"dim": 2, "labels": ["x", "z"], "product": [[0, 0, ["0", "1"]]]}
    path = tmp_path / "leibniz.json"
    save_json_file(path, data)
    code, report = run_json("construct", str(path), "--from", "leibniz")
    assert code == 0
    assert report["result"]["algebra"]["binary"] == []


def test_construct_rejects_non_jacobi(tmp_path):
    lie = {"dim": 3, "binary": [[0, 1, ["1", "0", "0"]], [0, 2, ["0", "1", "0"]]]}
    path = tmp_path / "bad_lie.json"
    save_json_file(path, lie)
    code, report = run_json("construct", str(path), "--from", "lie")
    assert code == 1
    assert "Jacobi" in report["error"]


def test_inner_verb(sl2_file):
    code, report = run_json("inner", str(sl2_file), "--g", "1,0,0", "--h", "0,1,0")
    assert code == 0
    assert report["result"]["map"]["matrix"] == [["2", "0", "0"], ["0", "-2", "0"], ["0", "0", "0"]]


def test_center_and_derived_verbs(tmp_path):
    path = tmp_path / "h3.json"
    run_cli("export", "h3", "--out", str(path))
    code, report = run_json("center", str(path))
    assert code == 0
    assert report["result"]["basis"] == [["0", "0", "1"]]
    code, report = run_json("derived", str(path))
    assert code == 0
    assert report["result"]["dim"] == 1 and report["result"]["perfect"] is False


def test_gder_with_named_maps(sl2_file):
    code, report = run_json("gder", str(sl2_file), "--theta", "id", "--vartheta", "id")
    assert code == 0
    assert report["result"]["dim"] == 3


def test_gder_rejects_non_automorphism(sl2_file):
    code, report = run_json("gder", str(sl2_file), "--theta", "neg")
    assert code == 1
    assert "homomorphism" in report["error"]


def test_quasi_exit_codes(sl2_file, tmp_path):
    good = tmp_path / "adh.json"
    save_json_file(good, {"dim": 3, "matrix": [["2", "0", "0"], ["0", "-2", "0"], ["0", "0", "0"]]})
    code, report = run_json("quasi", str(sl2_file), "--map", str(good))
    assert code == 0 and report["result"]["feasible"] is True
    bad = tmp_path / "e11.json"
    save_json_file(bad, {"dim": 3, "matrix": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]})
    code, report = run_json("quasi", str(sl2_file), "--map", str(bad))
    assert code == 1 and report["result"]["feasible"] is False


def test_stabilizer_verb(tmp_path):
    path = tmp_path / "sum.json"
    run_cli("export", "sl2_plus_ab1", "--out", str(path))
    sub = tmp_path / "block.json"
    save_json_file(sub, {"ambient": 4, "basis": [["1", "0", "0", "0"],
                                                 ["0", "1", "0", "0"],
                                                 ["0", "0", "1", "0"]]})
    code, report = run_json("stabilizer", str(path), "--theta", "id",
                            "--subspace", str(sub))
    assert code == 0
    assert report["result"]["dim"] == 4


def test_dhat_verb_clash(sl2_file, tmp_path):
    adh = tmp_path / "adh.json"
    save_json_file(adh, {"dim": 3, "matrix": [["2", "0", "0"], ["0", "-2", "0"], ["0", "0", "0"]]})
    code, report = run_json("dhat", str(sl2_file), "--map", str(adh))
    assert code == 1
    assert report["result"]["consistent"] is False
    assert report["result"]["clash"]["terms"]


def test_verify_single_prop(sl2_file, tmp_path):
    chev = tmp_path / "chev.json"
    save_json_file(chev, {"dim": 3, "matrix": [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "-1"]]})
    ident = tmp_path / "id.json"
    save_json_file(ident, {"dim": 3, "matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]})
    code, report = run_json("verify", "p31", str(sl2_file),
                            "--theta", str(chev), "--vartheta", str(ident))
    assert code == 0
    assert report["result"]["all_pass"] is True
    assert report["result"]["reports"][0]["prop"] == "P31"


def test_verify_all_with_config(sl2_file, tmp_path):
    config = {
        "checks": [
            {"prop": "p35", "label": "sl2-id", "theta": "id"},
            {"prop": "p33", "label": "sl2-chev",
             "theta": {"matrix": [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "-1"]]}},
        ]
    }
    cfg = tmp_path / "config.json"
    save_json_file(cfg, config)
    code, report = run_json("verify", "all", str(sl2_file), "--config", str(cfg))
    assert code == 0
    reports = report["result"]["reports"]
    assert [r["prop"] for r in reports] == ["P33", "P35"]
    assert reports[0]["hypotheses_met"] is False
    assert report["result"]["all_pass"] is True


def test_verify_suite_passes():
    code, report = run_json("verify", "suite")
    assert code == 0
    assert report["result"]["all_pass"] is True
    assert len(report["result"]["reports"]) >= 20


def test_missing_argument_exits_2(sl2_file):
    code, _ = run_cli("verify", "p36", str(sl2_file))
    assert code == 2


def test_byte_identical_reports(sl2_file):
    first = run_cli("der", str(sl2_file))
    second = run_cli("der", str(sl2_file))
    assert first == second


def test_out_flag_duplicates_report(sl2_file, tmp_path):
    out_file = tmp_path / "report.json"
    code, text = run_cli("der", str(sl2_file), "--out", str(out_file))
    assert code == 0
    assert out_file.read_text(encoding="utf-8") == text


# Map and subspace files for the pinned reports below.
PINNED_FILES = {
    "chev.json": {"dim": 3, "matrix": [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "-1"]]},
    "adh.json": {"dim": 3, "matrix": [["2", "0", "0"], ["0", "-2", "0"], ["0", "0", "0"]]},
    "e11.json": {"dim": 3, "matrix": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]},
    "half.json": {"dim": 3, "matrix": [["1/2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
    "line.json": {"ambient": 3, "basis": [["1", "0", "0"]]},
    "plane.json": {"ambient": 3, "basis": [["1", "0", "0"], ["0", "1", "0"]]},
    "block.json": {"ambient": 4, "basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                                           ["0", "0", "1", "0"]]},
}


def save_rebased_sum_files():
    """sl2_plus_ab1 in a seeded rational basis P, and in that basis: a
    derivation (ad h on sl2, zero on the line), a map that is not a
    quasi-derivation (the first matrix unit), the automorphism that is
    the Chevalley swap on sl2 and -1 on the line, and the subspaces
    span(e) and sl2.  A map f becomes P^-1 f P and a vector v becomes P^-1 v."""
    a, p, p_inv = rebased(catalog("sl2_plus_ab1"), 11)
    save_json_file("sum_rebased.json", algebra_to_dict(a))
    sl2 = [p_inv.col(i) for i in range(3)]
    save_json_file("sum_line.json", subspace_to_dict(Subspace.span(4, sl2[:1])))
    save_json_file("sum_block.json", subspace_to_dict(Subspace.span(4, sl2)))
    for name, rows in (("sum_der.json", [[2, 0, 0, 0], [0, -2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
                       ("sum_e11.json", [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
                       ("sum_chev.json", [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -1, 0],
                                          [0, 0, 0, -1]])):
        f = LinMap(4, p_inv.mul(Matrix.from_rows(rows)).mul(p))
        save_json_file(name, map_to_dict(f))


@pytest.mark.parametrize("argv,code,digest", [
    (("der", "sl2_plus_ab1.json"), 0,
     "c801dbf97e1b5ae2276badeded247f12bee50873467142c5ea44352022984aa4"),
    (("der", "lts_sl2.json"), 0,
     "6a09228cb8ebcc4ad52848693bff27148f60873fca483fb0c442694825a30d88"),
    (("gder", "sl2.json", "--theta", "chev.json"), 0,
     "5d93bba0500d8c9dbb1680d7e590c4484f99f051881906700353893f586a5e6b"),
    (("gder", "lts_sl2.json", "--theta", "neg", "--vartheta", "neg"), 0,
     "16747f612b6f488a2cf1898c9a53ba4954fdb0f02a1efbf199fd093e6e0ead22"),
    (("centroid", "sl2_plus_ab1.json"), 0,
     "0350f1b5c5869f1f2cc3329dd2947c529e887a37cad785a9321b5f05c45c5306"),
    (("quasi", "sl2.json", "--map", "adh.json"), 0,
     "997a46e3100cce1a3913eb1acf25ef9daa6ebf46afbdff3001324ab3cd31e435"),
    (("quasi", "sl2.json", "--map", "e11.json"), 1,
     "5d30957608482452091e37ed8774225c72c0b940bae50699a12d97a0f498a419"),
    (("stabilizer", "sl2.json", "--subspace", "line.json"), 0,
     "6bbcbb396c4db87412137269f2476e57c199426cb473de43b9f9241aec4d513d"),
    (("stabilizer", "sl2_plus_ab1.json", "--theta", "id", "--subspace", "block.json"), 0,
     "6d910fc860c10720bcf276da64e08f6b1c6c2822862e4dcd3c441441ee4f0ab5"),
    (("stabilizer", "sl2.json", "--theta", "chev.json", "--subspace", "line.json"), 1,
     "7450bd8c311469f1781439f1facae1feb2dd56fe3ee6a3a00f4a7f9641613963"),
    (("stabilizer", "sl2.json", "--subspace", "plane.json"), 1,
     "0317bf5104c9cdf4db192fb251b41d2af435445c1fdd638364a7c3a82cc20ec6"),
    (("verify", "p36", "sl2.json", "--theta", "chev.json", "--subspace", "line.json"), 0,
     "94e5b7d5b797ebab388352e29c7ac5fa82a6892c0ea07c60f210dd871032b7ec"),
    (("verify", "suite"), 0,
     "1be63bcfc6df1bbc6b390dab524c688dfa7f5ad1fc9aa5fdfa02c92ad3fe5708"),
    (("gder", "sl2.json", "--theta", "neg"), 1,
     "147d85f39edd363ee58841dfed099f2894fe063e6781139fd33443ba98d44022"),
    (("gder", "sl2.json", "--theta", "half.json"), 1,
     "eae9b9d2a5be5e895c699b374cc3baa1e476b6e01ec14be2066f02f6a83729ec"),
    (("gder", "lts_sl2.json", "--theta", "half.json"), 1,
     "1c2f0b66796b01fe3be3cdbf7b45c917dd4903813010fd1b47059bafbaa7c5b3"),
    (("der", "sum_rebased.json"), 0,
     "6ba97a51660c1b29c18f37a5f5d613a59bed5a8583121443f6e5dd254d8783a3"),
    (("centroid", "sum_rebased.json"), 0,
     "3bc576e7ae98614ad950360244917d79c5b74ad15e8d34b5a36c932faf879a05"),
    (("quasi", "sum_rebased.json", "--map", "sum_der.json"), 0,
     "c72bf8f664347b31856e56ec567963362461ea47f31215ff7de55853a04f67be"),
    (("quasi", "sum_rebased.json", "--map", "sum_e11.json"), 1,
     "f269cb312a343ed9d9d6572607eef01290ea41b5d70bb28083cd8474f5604927"),
    (("dhat", "sum_rebased.json", "--map", "sum_der.json"), 1,
     "f7b6956d0b71d7c8003f0c37569403361f15a8cc0dbafda5b7b0195878dc4332"),
    (("dhat", "sum_rebased.json", "--map", "sum_e11.json"), 1,
     "4612fd8f0aca4e950a619ab9de97d88b77cadfe8452981fb39e2bc4fe4cae73e"),
    (("dhat", "sum_rebased.json", "--map", "sum_der.json", "--theta", "sum_chev.json"), 1,
     "0ec35b70a347db7d1722879b3cf2eb14cc900d162142c4ec68f4337cf65e4209"),
    (("dhat", "sum_rebased.json", "--map", "sum_e11.json", "--theta", "sum_chev.json"), 1,
     "45ff81d5fd21af6dd0fab1768e2b5a6197a9efc7640675358870154f7a9d6da9"),
    (("gder", "sum_rebased.json", "--theta", "sum_chev.json"), 0,
     "6ade14b891d622ea2dc3bdb95c7cb438ff5d9db1472721915308256a89fb26c3"),
    (("gder", "sum_rebased.json", "--theta", "sum_chev.json", "--vartheta", "sum_chev.json"), 0,
     "d345cc46b3cef15b937b7bfd08a3a852f1cc216cf84cb2058507cd604f6df847"),
    (("center", "sl2_plus_ab1.json"), 0,
     "527ed1c5a0daf5fdbe63c4b762d559e32987570d2c2ab10ea4737c2a1a7b4676"),
    (("center", "sum_rebased.json"), 0,
     "683e342c60646f70638a8109604c1e106b54eb62277e16f4aeafd965651d6bcf"),
    (("derived", "sl2_plus_ab1.json"), 0,
     "8ae1da67636397416dd515a72097a484957f197eef74217fc4c4e4c5d89a7c9a"),
    (("derived", "sum_rebased.json"), 0,
     "bd7afde0cd0954175e93cceecafde8629d93d516f21a3c7ebf0270b623637ee0"),
    (("inner", "sl2_plus_ab1.json", "--g", "1,0,0,0", "--h", "0,1,0,0"), 0,
     "b4d8d4924dbf8f03ae3cf4d53daa9028dc26b3a7c1550fe4ba55792630678e96"),
    (("inner", "sum_rebased.json", "--g", "1,0,0,0", "--h", "0,1,0,0"), 0,
     "b94adb4d5da6e55af146f08ba5a9884928a32a15cf0259e4dfa03a179a8eb706"),
    (("verify", "p35", "sum_rebased.json", "--theta", "sum_chev.json"), 0,
     "8dca73e39c4319b8b2d4d955fcb22498518e7ec3e80bd17a67359a7931423339"),
    (("verify", "p36", "sum_rebased.json", "--theta", "sum_chev.json",
      "--subspace", "sum_block.json"), 0,
     "cfb97592d3adb94970cfcc41e8d1a020c3920dc71374e2a4c6c077e3152db26b"),
    # g and h are P^-1 e and P^-1 f, so the inner map is ad h on span(e).
    (("verify", "p37", "sum_rebased.json", "--theta", "id", "--subspace", "sum_line.json",
      "--g=-132/139,102/139,72/139,-84/139", "--h=-145/139,131/139,-22/139,5/278"), 0,
     "494490d0e557e4b45fd28a1b0856c9f6fa2e5e6d35f2bf59059b7d1c85ec3f8c"),
])
def test_solver_stdout_is_pinned(tmp_path, monkeypatch, argv, code, digest):
    """Exit code and stdout bytes of the solver verbs on exported catalog files
    and on sl2_plus_ab1 in a seeded rational basis."""
    monkeypatch.chdir(tmp_path)
    for name in ("sl2", "lts_sl2", "sl2_plus_ab1"):
        assert run_cli("export", name, "--out", f"{name}.json")[0] == 0
    for name, data in PINNED_FILES.items():
        save_json_file(name, data)
    save_rebased_sum_files()
    got_code, text = run_cli(*argv)
    assert got_code == code
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("argv", [("verify", "suite"), ("der", "sum_rebased.json")])
def test_stdout_is_the_same_under_any_hash_seed(tmp_path, argv):
    """Fresh processes with different string-hash seeds print the same bytes."""
    save_json_file(tmp_path / "sum_rebased.json",
                   algebra_to_dict(rebased(catalog("sl2_plus_ab1"), 11)[0]))
    src = str(Path(lya.__file__).resolve().parents[1])
    outputs = set()
    for seed in ("0", "1", "4242"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-m", "lya.cli", *argv], cwd=tmp_path, env=env,
                              capture_output=True, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


@pytest.mark.parametrize("verb,data,field", [
    (("check",), {"dim": 2, "binary": 5}, "'binary'"),
    (("check",), {"dim": 2, "binary": None}, "'binary'"),
    (("check",), {"dim": 2, "ternary": "x"}, "'ternary'"),
    (("der",), {"dim": 2, "ternary": {"0": 1}}, "'ternary'"),
    (("construct", "--from", "lie"), {"dim": 2, "binary": 5}, "'binary'"),
    (("construct", "--from", "leibniz"), {"dim": 2, "product": 3}, "'product'"),
    (("construct", "--from", "leibniz"), {"dim": 2, "product": None}, "'product'"),
])
def test_non_list_entry_fields_exit_2(tmp_path, verb, data, field):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, report = run_json(verb[0], str(path), *verb[1:])
    assert code == 2
    assert field in report["error"] and "list" in report["error"]
    assert "result" not in report


@pytest.mark.parametrize("check", [
    {"prop": "p35", "theta": {"file": 5}},
    {"prop": "p31", "vartheta": {"file": None}},
    {"prop": "p36", "subspace": {"file": ["line.json"]}},
])
def test_non_string_config_file_reference_exits_2(sl2_file, tmp_path, check):
    cfg = tmp_path / "config.json"
    save_json_file(cfg, {"checks": [check]})
    code, text = run_cli("verify", "all", str(sl2_file), "--config", str(cfg))
    assert code == 2
    report = json.loads(text)
    assert "'file' reference must be a string" in report["error"]
    assert "result" not in report


@pytest.mark.parametrize("argv", [
    ("der", "{sl2}"),
    ("check", "{sl2}"),
    ("construct", "{lie}", "--from", "lie"),
    ("export", "sl2"),
])
def test_unwritable_out_path_exits_2_with_one_report(sl2_file, tmp_path, argv):
    lie = tmp_path / "lie.json"
    data = load_json_file(sl2_file)
    save_json_file(lie, {"dim": data["dim"], "binary": data["binary"]})
    target = tmp_path / "missing" / "x.json"
    args = [a.format(sl2=sl2_file, lie=lie) for a in argv]
    code, text = run_cli(*args, "--out", str(target))
    assert code == 2
    report = json.loads(text)  # exactly one JSON document on stdout
    assert report["verb"] == argv[0]
    assert report["error"].startswith(f"cannot write {target}")
    assert "result" not in report
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ("quasi", "aff2.json", "--map", "map3.json"),
    ("dhat", "aff2.json", "--map", "map3.json"),
    ("stabilizer", "aff2.json", "--subspace", "line3.json"),
    ("verify", "p36", "aff2.json", "--subspace", "line3.json"),
])
def test_dimension_mismatch_exits_2(tmp_path, monkeypatch, argv):
    """A map or subspace of another dimension than the algebra is an input error."""
    monkeypatch.chdir(tmp_path)
    assert run_cli("export", "aff2", "--out", "aff2.json")[0] == 0
    save_json_file("map3.json", {"dim": 3, "matrix": [["1", "0", "0"], ["0", "1", "0"],
                                                      ["0", "0", "1"]]})
    save_json_file("line3.json", {"ambient": 3, "basis": [["1", "0", "0"]]})
    code, text = run_cli(*argv)
    assert code == 2
    report = json.loads(text)  # exactly one JSON document on stdout
    assert report["verb"] == argv[0]
    assert "dimension does not match the algebra" in report["error"]
    assert "result" not in report and "witness" not in report


BIG = "1" + "0" * 3999  # a 4000-digit integer, printable on its own


@pytest.mark.parametrize("argv,data", [
    (("construct", "big.json", "--from", "lie"), {"dim": 2, "binary": [[0, 1, [BIG, "0"]]]}),
    (("construct", "big.json", "--from", "leibniz"),
     {"dim": 2, "product": [[0, 1, [BIG, "0"]], [1, 0, ["-" + BIG, "0"]]]}),
    (("check", "big.json"),
     {"dim": 2, "binary": [[0, 1, [BIG, "0"]]], "ternary": [[0, 1, 0, [BIG, "0"]]]}),
])
def test_result_rationals_past_the_digit_limit_exit_2(tmp_path, monkeypatch, argv, data):
    """Products of a 4000-digit coefficient have 8000 digits, more than Python
    converts to a string; the verb ends in one error envelope."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not 4000 < limit < 8000:
        pytest.skip("needs an integer string conversion limit between 4000 and 8000 digits")
    monkeypatch.chdir(tmp_path)
    save_json_file("big.json", data)
    code, text = run_cli(*argv)
    assert code == 2
    report = json.loads(text)  # exactly one JSON document on stdout
    assert report["verb"] == argv[0]
    assert "too many digits to print" in report["error"]
    assert "result" not in report


def test_json_integer_past_the_digit_limit_exits_2(tmp_path):
    if not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
        pytest.skip("needs an integer string conversion limit below 5000 digits")
    path = tmp_path / "big.json"
    path.write_text('{"dim": 1' + "0" * 5000 + "}", encoding="utf-8")
    code, text = run_cli("check", str(path))
    assert code == 2
    report = json.loads(text)
    assert report["error"].startswith(f"cannot read {path}")
    assert "result" not in report


@pytest.mark.parametrize("argv,message", [
    (("der",), "the following arguments are required: algebra"),
    (("bogus", "x.json"), "invalid choice: 'bogus'"),
    ((), "the following arguments are required: verb"),
    (("der", "a.json", "--bogus"), "unrecognized arguments: --bogus"),
])
def test_usage_errors_exit_2_with_one_report(capsys, argv, message):
    """A usage error ends in the error report on stdout, with no verb parsed;
    the usage text stays on stderr."""
    code, text = run_cli(*argv)
    assert code == 2
    report = json.loads(text)  # exactly one JSON document on stdout
    assert message in report["error"]
    assert report["verb"] is None and report["inputs"] == []
    assert "result" not in report and "internal" not in report
    assert capsys.readouterr().err.startswith("usage: lya")


def test_help_is_unchanged(capsys):
    code, text = run_cli("--help")
    assert code == 0 and text == ""
    assert capsys.readouterr().out.startswith("usage: lya")


@pytest.mark.parametrize("argv,message", [
    (("der", "x.json", "--h"), "unrecognized arguments: --h"),
    (("der", "x.json", "--he"), "unrecognized arguments: --he"),
    (("gder", "x.json", "--the", "neg"), "unrecognized arguments: --the neg"),
    (("quasi", "x.json", "--ma", "id"), "the following arguments are required: --map"),
    (("--he", "der", "x.json"), "unrecognized arguments: --he"),
])
def test_abbreviated_options_are_usage_errors(capsys, argv, message):
    """No option is matched by a prefix: an abbreviation ends in the usage
    report, never in the help text or in the option it abbreviates."""
    code, text = run_cli(*argv)
    assert code == 2
    report = json.loads(text)
    assert message in report["error"] and report["verb"] is None
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: lya")


def test_own_h_options_and_verb_help_are_unchanged(sl2_file, capsys):
    """inner and verify still read their own --h; --help on a verb still prints its help."""
    code, report = run_json("inner", str(sl2_file), "--g", "1,0,0", "--h", "0,1,0")
    assert code == 0 and "result" in report
    code, report = run_json("verify", "p37", str(sl2_file), "--subspace", "full",
                            "--g", "1,0,0", "--h", "0,1,0")
    assert code in (0, 1) and len(report["result"]["reports"]) == 1
    capsys.readouterr()
    code, text = run_cli("der", "x.json", "--help")
    assert code == 0 and text == ""
    assert capsys.readouterr().out.startswith("usage: lya der")


def test_internal_check_failure_exits_1_with_the_internal_flag(sl2_file, monkeypatch):
    """A failed soundness re-check is reported in the error envelope, marked
    internal, never as a traceback."""
    from lya import derivations
    from lya.errors import InternalCheckError

    def unsound(*args):
        raise InternalCheckError("derivation solver produced an unsound basis element")

    monkeypatch.setattr(derivations, "_solve_twisted_space", unsound)
    code, report = run_json("der", str(sl2_file))
    assert code == 1
    assert report["internal"] is True and report["verb"] == "der"
    assert report["error"] == "derivation solver produced an unsound basis element"
    assert "result" not in report and len(report["inputs"]) == 1
    for argv in (("check", str(sl2_file)), ("der", "missing.json")):
        assert "internal" not in run_json(*argv)[1]
