"""The lazy package: ``import lya`` and ``import lya.cli`` run no layer, each
verb runs only the layers it uses, the first use of a layer is thread-safe,
and the parser that a verb's process builds prints what the full one does.

Every test that looks at which layers ran does so in a fresh interpreter,
because the test process itself has run them all.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lya
from lya import cli
from lya.errors import InputError

SRC = Path(lya.__file__).resolve().parents[1]


def _layers() -> tuple[str, ...]:
    """The layers the benchmark's tracer looks up in ``sys.modules``."""
    spec = importlib.util.spec_from_file_location("spans", SRC.parent / "lyabench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _layers()
# A layer has run when its module is a plain module again.
RAN = ("import sys\n"
       f"LAYERS = {LAYERS!r}\n"
       "def ran():\n"
       "    return sorted(n for n in LAYERS if type(sys.modules.get('lya.' + n)) is type(sys))\n")


def fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with src on its path."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return proc


@pytest.mark.parametrize("statement,registered", [
    ("import lya", [n for n in LAYERS if n != "cli"]),
    ("import lya.cli", list(LAYERS)),
])
def test_import_registers_every_layer_and_runs_none(statement, registered):
    """Each layer is in sys.modules and bound on lya, with nothing but the
    import system's attributes in its namespace."""
    code = RAN + statement + (
        "\nimport json, lya\n"
        "names = {n: sorted(type(sys).__getattribute__(sys.modules['lya.' + n], '__dict__'))\n"
        "         for n in LAYERS if 'lya.' + n in sys.modules}\n"
        "bound = all(getattr(lya, n) is sys.modules['lya.' + n] for n in names)\n"
        "print(json.dumps([ran(), names, bound]))\n")
    ran, names, bound = json.loads(fresh(code).stdout)
    assert sorted(names) == sorted(registered) and bound
    assert ran == (["cli"] if "cli" in registered else [])
    for layer, attrs in names.items():
        if layer != "cli":
            assert all(a.startswith("__") for a in attrs), (layer, attrs)


def _export(tmp_path: Path) -> str:
    path = tmp_path / "sl2.json"
    assert cli.main(["export", "sl2", "--out", str(path)], out=io.StringIO()) == 0
    return str(path)


# The layers each verb leaves unrun; it runs all the others.  The solvers
# read the structure layer only for the stabilizer's precondition and the
# hat map's guard, which an inconsistent hat map, like that of id on sl2,
# never reaches.
@pytest.mark.parametrize("argv,unused", [
    (["check"], {"maps", "derivations", "structure", "theorems"}),
    (["der"], {"structure", "theorems"}),
    (["gder", "--theta", "id"], {"structure", "theorems"}),
    (["centroid"], {"structure", "theorems"}),
    (["quasi", "--map", "id"], {"structure", "theorems"}),
    (["dhat", "--map", "id"], {"structure", "theorems"}),
    (["stabilizer", "--subspace", "full"], {"theorems"}),
])
def test_each_verb_runs_only_the_layers_it_uses(tmp_path, argv, unused):
    path = _export(tmp_path)
    full = [argv[0], path, *argv[1:]]
    code = RAN + ("import io, json, lya.cli\n"
                  f"code = lya.cli.main({full!r}, out=io.StringIO())\n"
                  "print(json.dumps([code, ran()]))\n")
    code, ran = json.loads(fresh(code).stdout)
    assert code in (0, 1)
    assert set(ran) == set(LAYERS) - unused, ran


# Eight threads read eight attributes at once, straight after ``import lya``:
# some from a layer, some re-exported from lya, several layers shared.  Each
# layer's code must run once, every read must see the finished module, and
# the modules must agree on the classes they share.
PROBE = """
import json, sys, threading
sys.setswitchinterval(1e-6)
import lya
runs = {}
for name in ("exactlin", "lyalg", "maps", "structure", "derivations", "theorems", "serialize"):
    loader = type(sys).__getattribute__(sys.modules["lya." + name], "__spec__").loader
    def counted(module, run=loader.exec_module, name=name):
        runs[name] = runs.get(name, 0) + 1
        run(module)
    loader.exec_module = counted
reads = [(lya.theorems, "verify_all"), (lya, "derivation_space"), (lya.maps, "LinMap"),
         (lya, "Matrix"), (lya.serialize, "canonical_json"), (lya.structure, "center"),
         (lya, "verify_all"), (lya.derivations, "DerSpace")]
barrier = threading.Barrier(len(reads), timeout=60)
errors = []
def read(owner, attr):
    try:
        barrier.wait()
        getattr(owner, attr)
    except Exception as exc:
        errors.append(repr(exc))
threads = [threading.Thread(target=read, args=pair) for pair in reads]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
alive = sum(t.is_alive() for t in threads)
shared = (lya.maps.Matrix is lya.exactlin.Matrix
          and lya.theorems.LinMap is lya.maps.LinMap is lya.derivations.LinMap)
print(json.dumps([errors, alive, runs, shared]))
"""


def test_first_use_from_eight_threads_runs_each_layer_once():
    for _ in range(20):
        errors, alive, runs, shared = json.loads(fresh(PROBE).stdout)
        assert errors == [] and alive == 0 and shared
        assert runs == {n: 1 for n in LAYERS if n != "cli"}


def test_layer_attributes_and_reexports_read_as_before():
    assert lya.Matrix is lya.exactlin.Matrix
    assert lya.verify_all is lya.theorems.verify_all
    assert {"Matrix", "derivation_space", "verify_all", "exactlin", "theorems"} <= set(dir(lya))
    assert set(lya.__all__) <= set(dir(lya))
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        lya.nope  # noqa: B018
    namespace = {}
    exec("from lya import *", namespace)
    assert namespace["centroid"] is lya.derivations.centroid


# Exit code and the digests of stdout and stderr of ``python -m lya.cli`` at
# 80 columns, as the parser that built every verb printed them, captured
# with Python 3.11; argparse's text may differ in other versions.
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
USAGE = {
    (): (2, "606d46fa7a7b5174313ee29e1be957826930cd7d811d00c6798e240ddeeb74e9",
         "29299da24565baf08c43a5e72c875e1458148831f35ce3eed8be708411d089e5"),
    ("--help",): (0, "76872e81c8f8133d7d6d8d4f825692c3f6e772f8b09e17f29091b29f0b3e9ee5", EMPTY),
    ("bogus",): (2, "91cf180557ac6e4188ab8116c13921a5457dbac33dcb754acb923a1037999256",
                 "29299da24565baf08c43a5e72c875e1458148831f35ce3eed8be708411d089e5"),
    ("der",): (2, "58787e38826b1dc815bff48a9f5fc7a23a53291e394397d75650fc3bc9942b81",
               "794d67f2c7352ea617f766349a51e7cfeab255a867f54dd11f38b4257e4b791d"),
    ("der", "x.json", "--bogus"): (
        2, "3d9b7a0c9e826607a7926cda3ba8f7086617f020abade94c68644cca8c08ca72",
        "29299da24565baf08c43a5e72c875e1458148831f35ce3eed8be708411d089e5"),
}
VERB_HELP = {
    "check": "90cf521187eb3d1714997d0508b42376bebf795b1996568695d31c1c5ace99a1",
    "construct": "8e8052cfd49e7ee7ffc92c3d9f037813bbd64c43d601d3b697f7abf43452dfa8",
    "der": "db25d63bf2ed5d7d729ab5b98c3d0a1c7e0653841b0ab1fa41899e02f2ed6adf",
    "gder": "eca14282f890b060286391472f6f9ed5f479bad9c701f94e6d1c6945488a4bea",
    "centroid": "19638d9659b19ddd9377078b7641bf5bc94ae5655d523e3652900e6cc3e71162",
    "center": "45dca94104a1533ddc75986e4ddc1603f6c3eba5e39798fda78ffaa7d3f14466",
    "derived": "b45a24823833568e0922a1ccc9709a0586e0cb54330ff1e91c85c9a32c0412fc",
    "inner": "35cf3b8ccbf07e3b18fcd278d4ec9812bccd0353d2d19b48a9c39b2ec3cc295a",
    "quasi": "dcd180f0b07286c7db7960ea2c238d95c2e338c28f0bcda7df7afd040fb03c1e",
    "stabilizer": "83dc0516bb6f4e470583fc2d579aee9a426d92636b5acdeec23203a17fffaa97",
    "dhat": "f092cd30713b8678e0a7f3d3a881e6d1c67f89a91d085c138bdaafb6fd1f5427",
    "verify": "aef8a18d305b187e43f582e5af1c37b5ecfd26f32972eaf6a7c41bf95bd5f0db",
    "export": "149c17aa793d7e61baa7f82b05378277db93ed17349afa88c77174ed015cd4f6",
}
USAGE.update({(verb, "--help"): (0, digest, EMPTY) for verb, digest in VERB_HELP.items()})


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the pinned usage text was captured with Python 3.11")
@pytest.mark.parametrize("argv", sorted(USAGE))
def test_usage_output_is_unchanged(tmp_path, argv):
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "lya.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, timeout=120, check=False)
    assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest(),
            hashlib.sha256(proc.stderr).hexdigest()) == USAGE[argv]


def _parse(parser, argv):
    """What parsing argv prints and how it ends."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ending = sorted(vars(parser.parse_args(argv)).items(), key=repr)
        except SystemExit as exc:
            ending = ("exit", exc.code)
        except InputError as exc:
            ending = ("error", str(exc))
    return out.getvalue(), err.getvalue(), repr(ending)


@pytest.mark.parametrize("verb", list(cli._VERBS))
def test_one_verb_parser_parses_and_prints_as_the_full_parser(monkeypatch, verb):
    """On every Python version: help, a missing or unknown argument, and a
    valid command line give the same text and result either way."""
    monkeypatch.setenv("COLUMNS", "80")
    cases = [[verb, "--help"], [verb], [verb, "a.json", "--bogus"], [verb, "a", "b", "c", "d"],
             [verb, "a.json", "--out", "o.json"]]
    for argv in cases:
        assert _parse(cli.build_parser(verb), argv) == _parse(cli.build_parser(), argv)
