"""The lazy package: ``import lya`` and ``import lya.cli`` run no layer, each
verb runs only the layers it uses, the first use of a layer is thread-safe,
the parser that a verb's process builds prints what the full one does, and
a plain command line is read as argparse reads it, without importing it.

Every test that looks at which layers ran does so in a fresh interpreter,
because the test process itself has run them all.
"""

import contextlib
import hashlib
import importlib.util
import io
import itertools
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


# The layers each command leaves unrun; it runs all the others.  In an
# argument, {alg} is an algebra file, {zero} a map file, {bad} a file of
# malformed JSON and {missing} a path with no file.  The solvers read the
# structure layer only for the stabilizer's precondition and the hat map's
# guard, which an inconsistent hat map, like that of id on sl2, never
# reaches.  The quasi-derivation solver takes its map as a matrix and
# certifies no twist, so it runs no maps layer.  P31, T32 and P33 read no
# structural subspace.  An input or
# usage error, and only that, runs no layer but serialize, which writes its
# report, and exits 2.
ERROR_UNUSED = set(LAYERS) - {"cli", "serialize"}


@pytest.mark.parametrize("argv,unused", [
    (["check", "{alg}"], {"maps", "derivations", "structure", "theorems"}),
    (["der", "{alg}"], {"structure", "theorems"}),
    (["gder", "{alg}", "--theta", "id"], {"structure", "theorems"}),
    (["centroid", "{alg}"], {"structure", "theorems"}),
    (["quasi", "{alg}", "--map", "id"], {"maps", "structure", "theorems"}),
    (["dhat", "{alg}", "--map", "id"], {"structure", "theorems"}),
    (["stabilizer", "{alg}", "--subspace", "full"], {"theorems"}),
    (["dhat", "{alg}", "--map", "{zero}"], {"theorems"}),
    (["verify", "p31", "{alg}"], {"structure"}),
    (["verify", "t32", "{alg}"], {"structure"}),
    (["verify", "p33", "{alg}"], {"structure"}),
    (["verify", "suite"], set()),
    (["bogus"], ERROR_UNUSED),
    (["der", "x.json", "--bogus"], ERROR_UNUSED),
    (["der", "{missing}"], ERROR_UNUSED),
    (["der", "{bad}"], ERROR_UNUSED),
])
def test_each_verb_runs_only_the_layers_it_uses(tmp_path, argv, unused):
    (tmp_path / "zero.json").write_text(json.dumps({"dim": 3, "matrix": [["0"] * 3] * 3}))
    (tmp_path / "bad.json").write_text('{"dim": 3,')
    files = {"alg": _export(tmp_path), "zero": tmp_path / "zero.json",
             "bad": tmp_path / "bad.json", "missing": tmp_path / "missing.json"}
    full = [arg.format(**files) for arg in argv]
    probe = RAN + ("import io, json, lya.cli\n"
                   f"code = lya.cli.main({full!r}, out=io.StringIO())\n"
                   "print(json.dumps([code, ran()]))\n")
    code, ran = json.loads(fresh(probe).stdout)
    assert code in ((2,) if unused == ERROR_UNUSED else (0, 1))
    assert set(ran) == set(LAYERS) - unused, ran


# Eight threads read eight attributes at once, straight after ``import lya``:
# some from a layer, some re-exported from lya, several layers shared.  Each
# layer's code must run once, every read must see the finished module, and
# every layer must reach the others through the registered module objects.
PROBE = """
import json, sys, threading
sys.setswitchinterval(1e-6)
import lya
runs = {}
names = ("exactlin", "lyalg", "maps", "structure", "derivations", "theorems", "serialize")
for name in names:
    loader = type(sys).__getattribute__(sys.modules["lya." + name], "__spec__").loader
    def counted(module, run=loader.exec_module, name=name):
        runs[name] = runs.get(name, 0) + 1
        run(module)
    loader.exec_module = counted
reads = [(lya.theorems, "verify_all"), (lya, "derivation_space"), (lya.maps, "AutCert"),
         (lya, "Matrix"), (lya.serialize, "canonical_json"), (lya.structure, "center"),
         (lya, "verify_all"), (lya, "catalog")]
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
reached = [value for name in names for value in vars(sys.modules["lya." + name]).values()
           if isinstance(value, type(sys)) and value.__name__.startswith("lya.")]
shared = len(reached) > len(names) and all(m is sys.modules[m.__name__] for m in reached)
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


def _alphabet(verb: str) -> list[str]:
    """Each option of the verb, alone and as --name=value, a plain value, a
    negative vector, --, -h, the empty string, an unknown option, each
    choice and an abbreviation."""
    arguments = cli._VERBS[verb][2]
    options = [flags[0] for flags, _ in arguments if flags[0].startswith("-")]
    choices = [c for _, kwargs in arguments for c in kwargs.get("choices", ())]
    return [*options, *(f"{o}=v" for o in options), "a.json", "-1/2", "--", "-h", "",
            "--bogus", *choices, "--ou"]


@pytest.mark.parametrize("verb", list(cli._VERBS))
def test_plain_reader_reads_as_the_full_parser(verb):
    """On every Python version: every line of up to four tokens after the
    verb that the plain reader takes gives the namespace that the full
    parser gives, after the vector values are attached as main attaches
    them."""
    parser = cli.build_parser()
    taken = 0
    for count in range(5):
        for tokens in itertools.product(_alphabet(verb), repeat=count):
            argv = cli._attach_vector_values([verb, *tokens])
            args = cli._plain_args(argv)
            if args is not None:
                taken += 1
                assert vars(args) == vars(parser.parse_args(argv)), argv
    assert taken > 0


@pytest.mark.parametrize("argv", [
    ["check", "in0/h5.json"], ["der", "in0/h5.json"], ["centroid", "in0/gl2.json"],
    ["gder", "in0/h5.json", "--theta", "in0/h5-theta.json"],
    ["quasi", "in0/gl2.json", "--map", "in0/gl2-known.json"],
    ["dhat", "in0/gl2.json", "--map", "in0/gl2-random.json"], ["verify", "suite"],
])
def test_plain_reader_takes_every_benchmark_command_line(argv):
    args = cli._plain_args(argv)
    assert args is not None and vars(args) == vars(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    [], [""], ["bogus"], ["--help"], ["der", "--help"], ["der", "-h"], ["der"],
    ["der", "a.json", "b.json"], ["der", "--out", "o.json", "a.json"],
    ["der", "a.json", "--out", "o.json", "b.json"], ["der", "a.json", "--out"],
    ["der", "a.json", "--out", "o.json", "--out", "p.json"], ["der", "a.json", "--bogus", "x"],
    ["der", "a.json", "--ou", "o.json"], ["der", "--", "a.json"], ["der", "-a.json"],
    ["der", "a.json", "--out", "-o.json"], ["inner", "a.json", "--g=-1/2", "--h", "1"],
    ["inner", "a.json", "--g", "1"], ["construct", "a.json", "--from", "lie2"],
    ["construct", "a.json"], ["verify"], ["verify", "suite", "a.json", "b.json"],
])
def test_plain_reader_leaves_every_other_line_to_argparse(argv):
    assert cli._plain_args(argv) is None


def test_a_verb_with_another_argument_keyword_goes_to_argparse(monkeypatch):
    """The reader reads only dest, choices, required and nargs="?"; a verb
    that uses any other keyword, or one of them otherwise, sends every one
    of its lines to argparse."""
    func, text, arguments = cli._VERBS["der"]
    for extra in [cli._arg("--n", type=int), cli._arg("--n", default="x"),
                  cli._arg("--n", action="store_true"), cli._arg("-n"), cli._arg("--n", "-m"),
                  cli._arg("--n", nargs="?"), cli._arg("rest", nargs="*")]:
        monkeypatch.setitem(cli._VERBS, "der", (func, text, [*arguments, extra]))
        assert cli._plain_args(["der", "a.json"]) is None, extra
    monkeypatch.setitem(cli._VERBS, "der", (func, text, arguments))
    assert vars(cli._plain_args(["der", "a.json"])) == {
        "verb": "der", "func": func, "out": None, "algebra": "a.json"}


# The modules that argparse imports and a plain command line does not.
PARSER_MODULES = ("argparse", "gettext", "locale")
# Run main on each argv given as JSON, in a fresh interpreter; print what
# each run printed and returned, and which of PARSER_MODULES were loaded
# after the import and after each run.
MAIN_RUNS = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import lya.cli
watched = json.loads(sys.argv[2])
results, loaded = [], [sorted(set(watched) & set(sys.modules))]
for argv in json.loads(sys.argv[3]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lya.cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
    loaded.append(sorted(set(watched) & set(sys.modules)))
print(json.dumps([results, loaded]))
"""


def _main_fresh(tmp_path: Path, *argvs: list[str]) -> list:
    """MAIN_RUNS in a fresh interpreter without site hooks, at 80 columns."""
    proc = subprocess.run([sys.executable, "-S", "-c", MAIN_RUNS, str(SRC),
                           json.dumps(PARSER_MODULES), json.dumps(argvs)],
                          cwd=tmp_path, env={**os.environ, "COLUMNS": "80"}, capture_output=True,
                          timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return json.loads(proc.stdout)


def test_plain_command_lines_import_no_argument_parser(tmp_path):
    """import lya.cli, a plain der and verify suite import none of
    argparse, gettext and locale."""
    results, loaded = _main_fresh(tmp_path, ["der", _export(tmp_path)], ["verify", "suite"])
    assert [code for code, _, _ in results] == [0, 0]
    assert loaded == [[], [], []]


@pytest.mark.parametrize("argv", [("--help",), ("der", "x.json", "--bogus")])
def test_help_and_usage_errors_still_import_argparse(tmp_path, argv):
    """Help and a usage error are read by argparse, which prints the text
    pinned in USAGE (taken with Python 3.11)."""
    [(code, out, err)], loaded = _main_fresh(tmp_path, list(argv))
    assert loaded[0] == [] and "argparse" in loaded[1]
    digests = [hashlib.sha256(text.encode()).hexdigest() for text in (out, err)]
    if sys.version_info[:2] == (3, 11):
        assert (code, *digests) == USAGE[argv]
