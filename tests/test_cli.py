import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lya
from lya.exactlin import Matrix, Subspace
from lya.lyalg import catalog
from lya.serialize import (algebra_from_dict, algebra_to_dict, canonical_json, read_json_file,
                           map_to_dict, save_json_file, subspace_to_dict)
from reference import SUM_CHEVALLEY, rebased, run_cli


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
        reloaded = algebra_from_dict(read_json_file(path)[1])
        original = catalog(name)
        assert reloaded.c == original.c and reloaded.d == original.d
        assert reloaded.labels == original.labels
        assert report["result"]["name"] == name


def test_export_reports_the_sha256_of_the_written_file(tmp_path):
    path = tmp_path / "sl2.json"
    code, report = run_json("export", "sl2", "--out", str(path))
    assert code == 0
    assert report["result"]["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_export_abelian_has_empty_sections(tmp_path):
    path = tmp_path / "ab3.json"
    run_cli("export", "abelian3", "--out", str(path))
    data = read_json_file(path)[1]
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


@pytest.mark.parametrize("name", ["abelian(10001)", "abelian" + "9" * 5000],
                         ids=["abelian(10001)", "5000 digits"])
def test_export_oversized_abelian_exits_2_with_one_report(tmp_path, name):
    """An abelian(N) above the catalog's bound is refused before it is built,
    in-process and in a fresh process: one error report and exit 2, where a
    name of more than 4300 digits ended in a ValueError traceback."""
    target = tmp_path / "x.json"
    code, text = run_cli("export", name, "--out", str(target))
    proc = run_module(tmp_path, ["export", name, "--out", str(target)])
    assert (code, proc.returncode, proc.stderr) == (2, 2, b"")
    assert proc.stdout.decode("utf-8") == text
    report = json.loads(text)  # exactly one JSON document on stdout
    assert (report["verb"], report["error"]) == ("export", "abelian(N) takes N at most 10000")
    assert "result" not in report and not target.exists()


def test_export_without_out_builds_no_algebra(monkeypatch):
    """A missing --out is reported before the catalog algebra is built:
    abelian(40) took seconds to build only to be refused."""
    import lya.lyalg

    calls = []
    monkeypatch.setattr(lya.lyalg, "catalog", lambda name: calls.append(name) or catalog(name))
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
    data = read_json_file(sl2_file)[1]
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
    data = read_json_file(sl2_file)[1]
    lie = {"dim": data["dim"], "labels": data["labels"], "binary": data["binary"]}
    lie_path = tmp_path / "lie.json"
    save_json_file(lie_path, lie)
    out_path = tmp_path / "constructed.json"
    code, report = run_json("construct", str(lie_path), "--from", "lie",
                            "--out", str(out_path))
    assert code == 0
    built = algebra_from_dict(read_json_file(out_path)[1])
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
    sl2 = p_inv.transpose().entries[:3]
    save_json_file("sum_line.json", subspace_to_dict(Subspace.span(4, sl2[:1])))
    save_json_file("sum_block.json", subspace_to_dict(Subspace.span(4, sl2)))
    for name, rows in (("sum_der.json", [[2, 0, 0, 0], [0, -2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
                       ("sum_e11.json", [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
                       ("sum_chev.json", SUM_CHEVALLEY)):
        f = p_inv.mul(Matrix.from_rows(rows)).mul(p)
        save_json_file(name, map_to_dict(f))


# Input files byte for byte as `echo '<json>' > path` writes them (each
# report lists its inputs' paths and SHA-256), and the reports on them; the
# digests were taken as CI's console-script steps checked them.
CI_FILES = {
    "cfg/e_line.json": '{"ambient": 3, "basis": [["1", "0", "0"]]}',
    "cfg/checks.json": '{"checks": [{"prop": "p35", "label": "chevalley", "theta": {"matrix": '
                       '[["0", "1", "0"], ["1", "0", "0"], ["0", "0", "-1"]]}}, {"prop": "p37", '
                       '"label": "span(e)", "subspace": "e_line.json", "g": "1,0,0", '
                       '"h": "0,-1/2,0"}, {"prop": "p38", "label": "span(e)", "subspace": '
                       '{"file": "e_line.json"}, "g1": "-2,0,0", "g2": "0,1,0"}]}',
    "chev.json": '{"dim": 3, "matrix": [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "-1"]]}',
    "sl2_block.json": '{"ambient": 4, "basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"], '
                      '["0", "0", "1", "0"]]}',
    # The inner map that ("inner", "sl2.json", "--g", "1,0,0", "--h", "0,-1/2,0") prints.
    "d.json": '{"dim": 3, "matrix": [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]]}',
    # A rational basis vector, so each map's images of H carry a scale other than 1.
    "tilted.json": '{"ambient": 4, "basis": [["2", "0", "0", "1"]]}',
    "a1.json": '{"dim": 4, "matrix": [["0", "0", "0", "0"], ["0", "0", "0", "0"], '
               '["0", "0", "0", "0"], ["0", "0", "0", "1"]]}',
    # e -> e, f -> 0, h -> 0 has no companion pair on sl2.
    "e11.json": '{"dim": 3, "matrix": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]}',
    "leib3.json": '{"dim": 3, "labels": ["x", "y", "z"], "product": [[0, 0, ["0", "0", "1"]], '
                  '[0, 1, ["0", "0", "2"]], [1, 0, ["0", "0", "-1/2"]]]}',
    "notleib.json": '{"dim": 2, "labels": ["x", "z"], "product": [[0, 0, ["1", "0"]]]}',
    "sl2lie.json": '{"dim": 3, "labels": ["e", "f", "h"], "binary": [[0, 1, ["0", "0", "1"]], '
                   '[0, 2, ["-2", "0", "0"]], [1, 2, ["0", "2", "0"]]]}',
    "notjacobi.json": '{"dim": 3, "labels": ["x", "y", "z"], "binary": [[0, 1, ["1/2", "0", "0"]], '
                      '[0, 2, ["0", "2/3", "0"]], [1, 2, ["0", "0", "1/5"]]]}',
    # Each binary entry is read with its negated twin, so no file holds a
    # bracket that is not antisymmetric: the entry [1, 0, ...] is refused.
    "notanti.json": '{"dim": 2, "labels": ["x", "y"], "binary": [[1, 0, ["1", "0"]]]}',
    # LY1-LY4 and LY6 hold; the inner maps of the basis pairs (1, 2) and (2, 1)
    # are not derivations of the binary product.
    "ly5only.json": '{"dim": 3, "binary": [[1, 2, ["0", "0", "1"]]], '
                    '"ternary": [[1, 2, 2, ["-1", "0", "0"]]]}',
}
CI_CASES = [
    (("verify", "p33", "sl2_plus_ab1.json"), 0,
     "f95560489cae80002f81d11a3fe05d699bf8b6b882a9f57830ef259874833036"),
    (("verify", "t32", "h3.json"), 0,
     "64365e8938c6b71621ba752616bae9b5d13de26ff27cadaddd2d78c819e75f4c"),
    (("inner", "sl2.json", "--g", "1,0,0", "--h", "0,-1/2,0"), 0,
     "7923430ba0e7f72aaaee1d5cdc040505cbe1525ce73dc37a1658fbc8b28b8f6e"),
    # An unreadable input gets the error report on stdout and exit 2.
    (("der", "missing.json"), 2,
     "47f8b6289b0f76e33d6ef548c384b2e42e22ce79f1a1a30c999e635e96e7003e"),
    # cfg/e_line.json is named by two checks and read and listed once.
    (("verify", "all", "sl2.json", "--config", "cfg/checks.json"), 0,
     "0ca92e735fd4dce545c36818bbca34d3bbf1c377b47cadda904e1243c0ae9488"),
    (("verify", "p33", "sl2.json", "--theta", "chev.json"), 0,
     "c34f09919aad8d4e3b8b10e0a1e8c83c3c60529818a160712d7e8e7273c89d6b"),
    (("verify", "t32", "sl2.json", "--theta", "chev.json"), 0,
     "3a69804ef57691b782dfb878ee7b500f2e34cb0122e948090249f9a894de0118"),
    (("verify", "p31", "sl2.json", "--theta", "chev.json", "--vartheta", "chev.json"), 0,
     "819bf9567e8b4ff7f79d675c692714164d73bfbc7633d474f346c8b36f82cb71"),
    (("verify", "p37", "sl2.json", "--subspace", "cfg/e_line.json", "--g", "0,1,0",
      "--h", "0,0,1"), 0,
     "cb327cf0db84e3fba66ee430bcc8e78eb82b461fac6826d9800cf0baa58cd174"),
    (("verify", "p37", "sl2.json", "--subspace", "cfg/e_line.json", "--g", "1,0,0",
      "--h", "0,1,0"), 0,
     "92edc8cfcbcda90b56ca41004b1a2c5423ff1d845a153b2dd44fa3f2cf1ffb46"),
    (("stabilizer", "sl2_plus_ab1.json", "--subspace", "sl2_block.json"), 0,
     "27abc1aeb919e2125e12b93ea7fd64487bdddde4251c1f5b7e3d84c8aae74243"),
    (("verify", "p36", "sl2_plus_ab1.json", "--subspace", "sl2_block.json"), 0,
     "675a8c1407321a1d22195669fe47aa759caa33b09dd6782cf8445bc1447ba844"),
    (("verify", "p34", "sl2.json", "--theta", "id", "--map", "d.json"), 0,
     "b88d4dc23abf4004b2f31da9bf012c966f273963be3a01aa70005e2d7c5d1c10"),
    (("stabilizer", "sl2_plus_ab1.json", "--subspace", "tilted.json"), 0,
     "ca4cac952a44348f0996a78f834ff427b3c2324e995aa9255c72b03f379a1412"),
    # This one restricts a stabilizing map to H.
    (("verify", "p38", "sl2_plus_ab1.json", "--subspace", "tilted.json", "--g1", "0,0,0,1",
      "--g2", "2,0,0,1"), 0,
     "984eb5f6f9aba200553451ef9dfe0eca8c2218e777578e9c85638a45ffb6a693"),
    (("verify", "p38", "sl2.json", "--subspace", "cfg/e_line.json", "--g1", "0,0,0",
      "--g2", "0,0,0"), 0,
     "6ec177304af6290da467117c1339485883a98825f470d8cd1766406ca589a204"),
    # The report whose error reads "P31 takes no field 'subspace'".
    (("verify", "p31", "sl2.json", "--subspace", "full"), 2,
     "97d11e6d4385af64e6cdd046825586e0659237e1cb866b802a466f4dddf78ff0"),
    (("dhat", "sl2_plus_ab1.json", "--map", "a1.json"), 0,
     "07d83c29b9243a86a45854b21da8ac7e69e83bdea4717469eda10df07c9456b5"),
    (("dhat", "sl2_plus_ab1.json", "--map", "id"), 1,
     "70dfcfeb7c23e9f29982ff562740d0793e9b37873c110ad1a23836dfa78f1bfe"),
    (("quasi", "sl2_plus_ab1.json", "--map", "a1.json"), 0,
     "e0dc2bfaf4bc61cdd70ff82b59aefab9c6a5372ecd244632c0e4ff757f4f6d3c"),
    (("quasi", "sl2.json", "--map", "e11.json"), 1,
     "20d486d42bf8d80be5a1e3e85036bda51fa913b8182bde2bda1a9c2044d91190"),
    (("gder", "sl2.json", "--theta", "chev.json"), 0,
     "4cf9e0a4ea422c42bcbde23d49d249d6f1da242ea8393240b5af95f0ce555685"),
    (("construct", "leib3.json", "--from", "leibniz"), 0,
     "6cd8a0400b614dd87fc5ecebc0baa1285ed27ea602a1e3f3982417a57d13e944"),
    (("construct", "notleib.json", "--from", "leibniz"), 1,
     "a12f49cf85f662ca99f3e1d8aa4e816571133a4e8dc6f4ed013ab118111925c4"),
    (("construct", "sl2lie.json", "--from", "lie"), 0,
     "e7c3fe72c7aad4da992681ec2c96c323a72aa8b477bc434b85f87db1abe30f6d"),
    (("construct", "notjacobi.json", "--from", "lie"), 1,
     "ff471aede3b7c19d16bbe3fc23a7171018ca75acf3768529b07a49629ddf04d2"),
    (("construct", "notanti.json", "--from", "lie"), 2,
     "e3ca3f9ac27cb2f27c1bd6b78ad1317e855c410f20b6d3f185f336aa0c3e1dca"),
    (("check", "ly5only.json"), 1,
     "22a68222f7f04217945c1f107eff3731ff97fc7c57a754acba31339452c4dfdf"),
]


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
    # sum_chev.json is named twice and read and listed once.
    (("gder", "sum_rebased.json", "--theta", "sum_chev.json", "--vartheta", "sum_chev.json"), 0,
     "978fd99337ffbfa829585a628b8e968d80d35f4aee3829d3a2cbb3850ba2c239"),
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
    # The same, each vector after a space: a leading minus sign is no option.
    (("verify", "p37", "sum_rebased.json", "--theta", "id", "--subspace", "sum_line.json",
      "--g", "-132/139,102/139,72/139,-84/139", "--h", "-145/139,131/139,-22/139,5/278"), 0,
     "494490d0e557e4b45fd28a1b0856c9f6fa2e5e6d35f2bf59059b7d1c85ec3f8c"),
    # The integer map algebra of T32, P31, P33 and P34 on rational maps.
    (("verify", "t32", "sum_rebased.json", "--theta", "sum_chev.json"), 0,
     "f38244519e86aa3671aa0fc533dfc8f83f4bb31a67b9cc8f034d4c1cdd0ed52b"),
    (("verify", "t32", "sum_rebased.json", "--theta", "id"), 0,
     "bb299c1bd19b95b0349769b34919c7178992fcf1ae85479b681777bacb5a23a7"),
    # With sum_chev.json P33's hypotheses fail before any commutator.
    (("verify", "p33", "sum_rebased.json", "--theta", "id"), 0,
     "16835f77a95795c72b50daad53d29ab0c3dfc936d2002f841d4dab8f5e631f46"),
    (("verify", "p31", "sum_rebased.json", "--theta", "sum_chev.json", "--vartheta", "id"), 0,
     "de9166c39a4649251d7b7d58e10d25402e19b6e931ed074bffae6a31abde93d2"),
    (("verify", "p34", "sum_rebased.json", "--map", "sum_der.json"), 0,
     "6e9a9e9711b177d02c41f93cbc454a7bc4ef19688076f94e3a18f4cd6d815975"),
    (("stabilizer", "sum_rebased.json", "--theta", "sum_chev.json",
      "--subspace", "sum_block.json"), 0,
     "5ae4b2724d2843ecba3a9cb1d42637159e12adb13902acca23aa6cbc895f37d6"),
] + CI_CASES)
def test_solver_stdout_is_pinned(tmp_path, monkeypatch, argv, code, digest):
    """Exit code and stdout bytes of the solver verbs on exported catalog files
    and on sl2_plus_ab1 in a seeded rational basis, and of the CI_CASES on
    the CI_FILES."""
    monkeypatch.chdir(tmp_path)
    for name in ("sl2", "lts_sl2", "sl2_plus_ab1", "h3"):
        assert run_cli("export", name, "--out", f"{name}.json")[0] == 0
    if (argv, code, digest) in CI_CASES:
        for name, text in CI_FILES.items():
            Path(name).parent.mkdir(exist_ok=True)
            Path(name).write_bytes(f"{text}\n".encode())
    else:
        for name, data in PINNED_FILES.items():
            save_json_file(name, data)
        save_rebased_sum_files()
    got_code, text = run_cli(*argv)
    assert got_code == code
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


SRC = str(Path(lya.__file__).resolve().parents[1])


def run_module(cwd, argv, stdout=subprocess.PIPE, **env):
    """``python -m lya.cli`` in a fresh process, with src on its path."""
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "lya.cli", *argv], cwd=cwd, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, timeout=120, check=False)


@pytest.mark.parametrize("argv", [("verify", "suite"), ("der", "sum_rebased.json")])
def test_stdout_is_the_same_under_any_hash_seed(tmp_path, argv):
    """Fresh processes with different string-hash seeds print the same bytes."""
    save_json_file(tmp_path / "sum_rebased.json",
                   algebra_to_dict(rebased(catalog("sl2_plus_ab1"), 11)[0]))
    outputs = set()
    for seed in ("0", "1", "4242"):
        proc = run_module(tmp_path, argv, PYTHONHASHSEED=seed)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


@pytest.mark.parametrize("argv,code", [
    (("verify", "suite"), 0),
    (("dhat", "sl2_plus_ab1.json", "--map", "id"), 1),
    (("der",), 2),
])
def test_module_entry_point_prints_what_main_prints(tmp_path, monkeypatch, argv, code):
    """The process entry point (run) gives main's exit code and stdout bytes,
    and main called in-process freezes nothing."""
    monkeypatch.chdir(tmp_path)
    assert run_cli("export", "sl2_plus_ab1", "--out", "sl2_plus_ab1.json")[0] == 0
    proc = run_module(tmp_path, argv)
    assert proc.returncode == code, proc.stderr
    frozen = gc.get_freeze_count()
    assert run_cli(*argv) == (code, proc.stdout.decode("utf-8"))
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("argv,code", [
    (("verify", "suite"), 0),
    (("dhat", "sl2_plus_ab1.json", "--map", "id"), 1),
    (("der",), 2),
    (("der", "sl2_plus_ab1.json", "--out", "copy.json"), 0),
])
def test_module_entry_point_writes_all_of_stdout_to_a_file(tmp_path, monkeypatch, argv, code):
    """The process ends without interpreter teardown, yet a file on its
    stdout, and the copy --out writes, get every byte that main prints, and
    the process main's exit code; the test above checks a pipe."""
    monkeypatch.chdir(tmp_path)
    assert run_cli("export", "sl2_plus_ab1", "--out", "sl2_plus_ab1.json")[0] == 0
    with open(tmp_path / "stdout.json", "wb") as out:
        proc = run_module(tmp_path, argv, stdout=out)
    printed = (tmp_path / "stdout.json").read_text("utf-8")
    assert proc.returncode == code, proc.stderr
    if "--out" in argv:
        assert (tmp_path / "copy.json").read_text("utf-8") == printed
    assert run_cli(*argv) == (code, printed)


@pytest.mark.parametrize("argv", [("check", "sl2_plus_ab1.json"), ("verify", "suite"), ("der",)])
def test_a_closed_pipe_ends_the_process_with_exit_1_and_no_traceback(tmp_path, monkeypatch, argv):
    """A reader that closed the pipe before lya writes, as ``lya ... | true``
    may: a report, small or large, or a usage error ends with exit 1, as
    Python ends on a broken pipe, and with no traceback on stderr."""
    monkeypatch.chdir(tmp_path)
    assert run_cli("export", "sl2_plus_ab1", "--out", "sl2_plus_ab1.json")[0] == 0
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_module(tmp_path, argv, stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr and b"BrokenPipeError" not in proc.stderr


def test_importing_the_cli_loads_no_openssl_hashlib():
    """A fresh interpreter, without site hooks, imports lya.cli without hashlib."""
    code = (f"import sys; sys.path.insert(0, {SRC!r}); import lya.cli; "
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout == "[]\n"


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


def run_json_config(sl2_file, tmp_path, check):
    cfg = tmp_path / "config.json"
    save_json_file(cfg, {"checks": [check]})
    code, report = run_json("verify", "all", str(sl2_file), "--config", str(cfg))
    assert "result" not in report
    return code, report


def run_config(sl2_file, tmp_path, check):
    code, report = run_json_config(sl2_file, tmp_path, check)
    return code, report["error"]


@pytest.mark.parametrize("check", [
    {"prop": "p35", "theta": {"file": 5}},
    {"prop": "p31", "vartheta": {"file": None}},
    {"prop": "p36", "subspace": {"file": ["line.json"]}},
])
def test_non_string_config_file_reference_exits_2(sl2_file, tmp_path, check):
    code, error = run_config(sl2_file, tmp_path, check)
    assert code == 2
    assert "'file' reference must be a string" in error


def test_unknown_config_field_exits_2(sl2_file, tmp_path):
    """A misspelt key is refused, not dropped: P35 would otherwise run with
    theta = id and pass."""
    code, error = run_config(sl2_file, tmp_path, {"prop": "p35", "thetaa": "neg"})
    assert code == 2
    assert error == "checks[0]: unknown check field 'thetaa'"


@pytest.mark.parametrize("check,field", [
    ({"prop": "p35", "label": None}, "label"),
    ({"prop": "p37", "subspace": "full", "g": ["1", "0", "0"], "h": "0,1,0"}, "g"),
    ({"prop": "p37", "subspace": "full", "g": "1,0,0", "h": 0}, "h"),
    ({"prop": "p38", "subspace": "full", "g1": {"x": 1}, "g2": "0,1,0"}, "g1"),
    ({"prop": "p38", "subspace": "full", "g1": "1,0,0", "g2": True}, "g2"),
    ({"prop": 35}, "prop"),
])
def test_non_string_config_field_exits_2(sl2_file, tmp_path, check, field):
    code, error = run_config(sl2_file, tmp_path, check)
    assert code == 2
    assert error.startswith(f"checks[0]: check field {field!r} must be a string")


def test_config_error_names_its_entry(sl2_file, tmp_path):
    """An input error in a config names the entry it comes from; the same
    error from flags has no position."""
    cfg = tmp_path / "config.json"
    save_json_file(cfg, {"checks": [{"prop": "p35"}, {"prop": "t32", "label": "x"},
                                    {"prop": "p37", "subspace": "full", "g": 1, "h": "0,0,0"}]})
    code, report = run_json("verify", "all", str(sl2_file), "--config", str(cfg))
    assert code == 2
    assert report["error"] == "checks[2]: check field 'g' must be a string, got 1"
    save_json_file(cfg, {"checks": [{"prop": "p35"}, 7]})
    _, report = run_json("verify", "all", str(sl2_file), "--config", str(cfg))
    assert report["error"] == "checks[1]: each check needs at least a 'prop' field"
    code, report = run_json("verify", "p36", str(sl2_file), "--subspace", str(tmp_path / "no.json"))
    assert code == 2 and report["error"].startswith("cannot read ")


@pytest.mark.parametrize("argv,error", [
    (("verify", "p31", "sl2.json", "--subspace", "full"), "P31 takes no field 'subspace'"),
    (("verify", "p35", "sl2.json", "--vartheta", "chev.json"), "P35 takes no field 'vartheta'"),
    (("verify", "t32", "sl2.json", "--label", "x", "--g", "1,0,0"), "T32 takes no field 'g'"),
    (("verify", "p34", "sl2.json", "--map", "id", "--subspace", "zero"),
     "P34 takes no field 'subspace'"),
])
def test_field_the_check_does_not_take_exits_2(tmp_path, monkeypatch, argv, error):
    """A flag the check would ignore is refused before any file is read."""
    monkeypatch.chdir(tmp_path)
    run_cli("export", "sl2", "--out", "sl2.json")
    save_json_file("chev.json", SL2_FILES["chev"])
    code, report = run_json(*argv)
    assert (code, report["error"]) == (2, error)
    assert [item["path"] for item in report["inputs"]] == ["sl2.json"]


@pytest.mark.parametrize("check,error", [
    ({"prop": "p35", "vartheta": "neg"}, "checks[0]: P35 takes no field 'vartheta'"),
    ({"prop": "p35", "vartheta": "chev.json"}, "checks[0]: P35 takes no field 'vartheta'"),
    ({"prop": "p38", "label": "x", "subspace": "full", "g1": "0,0,1", "g2": "0,0,1", "h": "1,0,0"},
     "checks[0]: P38 takes no field 'h'"),
])
def test_config_field_the_check_does_not_take_exits_2(sl2_file, tmp_path, check, error):
    save_json_file(tmp_path / "chev.json", SL2_FILES["chev"])
    code, report = run_json_config(sl2_file, tmp_path, check)
    assert (code, report["error"]) == (2, error)
    assert len(report["inputs"]) == 2  # the algebra and the config only


@pytest.mark.parametrize("argv,error", [
    (("verify", "p39", "sl2.json", "--theta", "missing.json"), "unknown check 'P39'"),
    (("verify", "p37", "sl2.json", "--subspace", "missing.json"),
     "P37 needs a subspace and two elements"),
    (("verify", "p34", "sl2.json", "--theta", "missing.json"), "P34 needs a map"),
])
def test_check_fields_are_checked_before_any_file_is_read(tmp_path, monkeypatch, argv, error):
    """An unknown check or a missing field is the error, not the file that
    a reference names and that is not there."""
    monkeypatch.chdir(tmp_path)
    run_cli("export", "sl2", "--out", "sl2.json")
    code, report = run_json(*argv)
    assert (code, report["error"]) == (2, error)
    assert [item["path"] for item in report["inputs"]] == ["sl2.json"]


# Every check flag of verify, with a value it would accept.
VERIFY_CHECK_FLAGS = (("--label", "x"), ("--theta", "neg"), ("--vartheta", "neg"),
                      ("--subspace", "full"), ("--map", "id"), ("--g", "1,0,0"),
                      ("--h", "1,0,0"), ("--g1", "1,0,0"), ("--g2", "1,0,0"))


@pytest.mark.parametrize("argv,error", [
    (("verify", "suite", "sl2.json"), "verify suite takes no algebra file"),
    (("verify", "suite", "--config", "config.json"), "verify suite takes no --config"),
    *((("verify", "suite", flag, value), f"verify suite takes no {flag}")
      for flag, value in VERIFY_CHECK_FLAGS),
    *((("verify", "all", "sl2.json", "--config", "config.json", flag, value),
       f"verify all takes no {flag}") for flag, value in VERIFY_CHECK_FLAGS),
    (("verify", "p35", "sl2.json", "--config", "config.json"), "verify p35 takes no --config"),
])
def test_verify_refuses_what_it_would_not_read(tmp_path, monkeypatch, argv, error):
    """The suite reads no algebra, config or check flag, ``verify all``
    reads its checks from the config alone and one check reads no config:
    each extra input is refused before any file is read, so no run passes
    with an input it did not read."""
    monkeypatch.chdir(tmp_path)
    run_cli("export", "sl2", "--out", "sl2.json")
    save_json_file("config.json", {"checks": [{"prop": "p35"}]})
    code, report = run_json(*argv)
    assert (code, report.get("error"), report["inputs"]) == (2, error, [])


@pytest.mark.parametrize("check,error", [
    ({"prop": "p39"}, "checks[0]: unknown check 'P39'"),
    ({"prop": "p39", "theta": "missing.json"}, "checks[0]: unknown check 'P39'"),
    ({"prop": "p37", "subspace": "full"}, "checks[0]: P37 needs a subspace and two elements"),
    ({"prop": "p36", "theta": "missing.json"}, "checks[0]: P36 needs a subspace"),
])
def test_config_check_fields_are_checked_first(sl2_file, tmp_path, check, error):
    """A config entry's check errors name the entry, as its other input
    errors do, and come before any reference is read."""
    code, report = run_json_config(sl2_file, tmp_path, check)
    assert (code, report["error"]) == (2, error)
    assert len(report["inputs"]) == 2  # the algebra and the config only


def test_a_file_named_twice_is_read_and_listed_once(tmp_path, monkeypatch):
    """Each path string is read, parsed and listed in ``inputs`` once per
    invocation, from flags and from a config alike; another spelling of the
    path is another input."""
    from lya import serialize

    monkeypatch.chdir(tmp_path)
    run_cli("export", "sl2", "--out", "sl2.json")
    save_json_file("chev.json", SL2_FILES["chev"])
    save_json_file("line.json", SL2_FILES["line"])
    reads = []
    read = serialize.read_json_file
    monkeypatch.setattr(serialize, "read_json_file", lambda path: reads.append(path) or read(path))
    for vartheta, paths in (("chev.json", ["sl2.json", "chev.json"]),
                            ("./chev.json", ["sl2.json", "chev.json", "./chev.json"])):
        reads.clear()
        code, report = run_json("verify", "p31", "sl2.json", "--theta", "chev.json",
                                "--vartheta", vartheta)
        assert code == 0 and reads == paths
        assert [item["path"] for item in report["inputs"]] == paths
    reads.clear()
    save_json_file("config.json", {"checks": [
        {"prop": "p36", "subspace": "line.json", "theta": "chev.json"},
        {"prop": "p31", "theta": {"file": "chev.json"}, "vartheta": "chev.json"},
        {"prop": "p36", "subspace": {"file": "line.json"}}]})
    code, report = run_json("verify", "all", "sl2.json", "--config", "config.json")
    assert code == 0 and reads == ["sl2.json", "config.json", "chev.json", "line.json"]
    assert [item["path"] for item in report["inputs"]] == reads


SL2_FILES = {
    "chev": {"dim": 3, "matrix": [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "-1"]]},
    "ident": {"dim": 3, "matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
    "adh": {"dim": 3, "matrix": [["2", "0", "0"], ["0", "-2", "0"], ["0", "0", "0"]]},
    "line": {"ambient": 3, "basis": [["0", "0", "1"]]},
}
SL2_LITERALS = {"chev": "id", "ident": "id", "adh": "neg", "line": "full"}
# The check of each prop: reference fields name a file of SL2_FILES.
PROP_CHECKS = {
    "p31": {"theta": "chev", "vartheta": "ident"},
    "t32": {"theta": "chev"},
    "p33": {"theta": "chev"},
    "p34": {"theta": "ident", "map": "adh"},
    "p35": {"theta": "chev"},
    "p36": {"theta": "chev", "subspace": "line"},
    "p37": {"theta": "ident", "subspace": "line", "g": "0,0,1", "h": "-1/2,0,3"},
    "p38": {"theta": "chev", "subspace": "line", "g1": "0,0,1", "g2": "0,0,-2"},
}
VECTOR_FIELDS = ("g", "h", "g1", "g2")


@pytest.mark.parametrize("prop", sorted(PROP_CHECKS))
@pytest.mark.parametrize("style", ["literal", "path", "config-relative", "file", "inline"])
def test_flags_and_config_entry_give_the_same_check(tmp_path, monkeypatch, prop, style):
    """``verify <prop>`` with flags and ``verify all`` with a one-entry
    config give the same result bytes and hash the same input files.  The
    config's folder holds its own copies of the files, with other bytes, so
    a reference read from the wrong folder shows in the hashes."""
    monkeypatch.chdir(tmp_path)
    run_cli("export", "sl2", "--out", "sl2.json")
    Path("cfg").mkdir()
    for name, obj in SL2_FILES.items():
        save_json_file(f"{name}.json", obj)
        Path("cfg", f"{name}.json").write_text(json.dumps(obj, indent=1), encoding="utf-8")
    in_cfg = style in ("config-relative", "file", "inline")
    config = "cfg/config.json" if in_cfg else "config.json"
    argv, check = ["verify", prop, "sl2.json", "--label", "x"], {"prop": prop, "label": "x"}
    for key, value in PROP_CHECKS[prop].items():
        if key in VECTOR_FIELDS:
            flag, ref = value, value
        elif style == "literal":
            flag = ref = SL2_LITERALS[value]
        else:
            flag = f"cfg/{value}.json" if in_cfg else f"{value}.json"
            ref = {"file": f"{value}.json"} if style == "file" else f"{value}.json"
            if style == "inline":
                ref = {k: v for k, v in SL2_FILES[value].items() if k in ("matrix", "basis")}
        argv += [f"--{key}", flag]
        check[key] = ref
    save_json_file(config, {"checks": [check]})
    flag_code, by_flags = run_json(*argv)
    config_code, by_config = run_json("verify", "all", "sl2.json", "--config", config)
    assert (config_code, canonical_json(by_config["result"])) == \
        (flag_code, canonical_json(by_flags["result"]))
    assert by_config["inputs"][1]["path"] == config
    read_by_config = [by_config["inputs"][0]] + by_config["inputs"][2:]
    assert read_by_config == (by_flags["inputs"][:1] if style == "inline" else by_flags["inputs"])


EMPTY_REFERENCES = [
    (("verify", "p35", "sl2.json", "--theta", ""), "empty map reference"),
    (("gder", "sl2.json", "--theta", ""), "empty map reference"),
    (("verify", "all", "sl2.json", "--config", "config.json"), "checks[0]: empty map reference"),
    (("verify", "p36", "sl2.json", "--subspace", ""), "empty subspace reference"),
    (("stabilizer", "sl2.json", "--subspace", ""), "empty subspace reference"),
    (("gder", "sl2.json", "--vartheta", ""), "empty map reference"),
    (("stabilizer", "sl2.json", "--theta", "", "--subspace", "full"), "empty map reference"),
    (("quasi", "sl2.json", "--map", ""), "empty map reference"),
    (("dhat", "sl2.json", "--map", ""), "empty map reference"),
    (("dhat", "sl2.json", "--map", "id", "--theta", ""), "empty map reference"),
    (("verify", "p34", "sl2.json", "--map", ""), "empty map reference"),
    (("verify", "all", "sl2.json", "--config", "cfg/file.json"),
     "checks[1]: empty subspace reference"),
]


@pytest.mark.parametrize("argv,error", [pytest.param(*case, id=f"argv{k}")
                                        for k, case in enumerate(EMPTY_REFERENCES)])
def test_empty_reference_is_the_same_input_error_in_every_form(tmp_path, monkeypatch, argv,
                                                               error):
    """An empty reference names no file, as a flag, a config field or a
    config's ``{"file": ""}``: the error says so, and names no folder."""
    monkeypatch.chdir(tmp_path)
    run_cli("export", "sl2", "--out", "sl2.json")
    save_json_file("config.json", {"checks": [{"prop": "p35", "theta": ""}]})
    Path("cfg").mkdir()
    save_json_file("cfg/file.json", {"checks": [{"prop": "p35"},
                                                {"prop": "p36", "subspace": {"file": ""}}]})
    code, report = run_json(*argv)
    assert (code, report["error"]) == (2, error)
    assert report["inputs"][0]["path"] == "sl2.json" and len(report["inputs"]) <= 2


@pytest.mark.parametrize("argv", [
    ("der", "{sl2}"),
    ("check", "{sl2}"),
    ("construct", "{lie}", "--from", "lie"),
    ("export", "sl2"),
])
def test_unwritable_out_path_exits_2_with_one_report(sl2_file, tmp_path, argv):
    lie = tmp_path / "lie.json"
    data = read_json_file(sl2_file)[1]
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


@pytest.mark.parametrize("argv", [
    ("check", "deep.json"),
    ("gder", "sl2.json", "--theta", "deep.json"),
    ("verify", "all", "sl2.json", "--config", "deep.json"),
])
def test_deeply_nested_json_exits_2_with_one_report(tmp_path, argv):
    """An algebra file, a map file and a config nested past the interpreter's
    recursion limit each end in one error envelope, with no traceback."""
    assert run_cli("export", "sl2", "--out", str(tmp_path / "sl2.json"))[0] == 0
    (tmp_path / "deep.json").write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
    proc = run_module(tmp_path, argv)
    assert (proc.returncode, proc.stderr) == (2, b"")
    report = json.loads(proc.stdout)  # exactly one JSON document on stdout
    assert report["verb"] == argv[0]
    assert report["error"].startswith("cannot read deep.json: JSON nested too deeply")
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


@pytest.mark.parametrize("verb,usage,line", [
    ("construct", "usage: lya construct [-h] [--out OUT] --from {lie,leibniz} algebra\n",
     "--out OUT             also write the built algebra file"),
    ("export", "usage: lya export [-h] [--out OUT] name\n",
     "--out OUT   the algebra file to write (required)"),
])
def test_file_writing_verbs_still_show_out_in_help(capsys, verb, usage, line):
    """construct and export write their own file, not the report, under
    another name than --out's; their help still shows the option as --out OUT."""
    code, text = run_cli(verb, "--help")
    assert code == 0 and text == ""
    out = capsys.readouterr().out
    assert out.startswith(usage) and f"\n  {line}\n" in out


def test_negative_vectors_parse_after_a_space(sl2_file, capsys):
    """--g -1/2,0,0 reads as --g=-1/2,0,0 for every vector option; an option
    where the value should be, or a missing value, is still a usage error."""
    alg = str(sl2_file)
    for attached in (["inner", alg, "--g=-1/2,0,0", "--h=-1,1,0"],
                     ["verify", "p38", alg, "--subspace", "full", "--g1=-1,0,0", "--g2=0,-2,0"],
                     ["verify", "p37", alg, "--subspace", "full", "--g=-1,0,0", "--h=0,-1,0"]):
        spaced = [part for arg in attached for part in arg.split("=")]
        assert run_cli(*spaced) == run_cli(*attached)
        assert run_cli(*attached)[0] in (0, 1)
    for argv, message in (
            (("inner", alg, "--g", "--h", "0,1,0"), "argument --g: expected one"),
            (("inner", alg, "--g", "-1,0,0", "--h"), "argument --h: expected one"),
            (("inner", alg, "--h", "0,1,0", "--g", "-h"), "argument --g: expected one"),
            (("inner", alg, "--", "--g", "-1,0,0"), "required: --g, --h")):
        code, text = run_cli(*argv)
        assert code == 2 and message in json.loads(text)["error"], argv
    capsys.readouterr()


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
