"""Fuzz the JSON loaders through the command line, in-process.

Every run must end in exit 0, 1 or 2 with exactly one canonical JSON envelope
on stdout, whatever the input files hold.  The examples are derandomized, so
the suite stays reproducible.  Dimensions stay at most 3 and integers small,
which keeps each run short; oversized inputs are a separate, open concern.
"""

import io
import itertools
import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from lya.cli import main  # noqa: E402
from lya.lyalg import CATALOG_NAMES, catalog  # noqa: E402
from lya.serialize import algebra_to_dict, canonical_json  # noqa: E402
from test_stored_form import compare_with_dense_loader  # noqa: E402

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                suppress_health_check=list(HealthCheck))

SMALL_CATALOG = [algebra_to_dict(catalog(name)) for name in CATALOG_NAMES
                 if catalog(name).dim <= 3]
KEYS = ("dim", "labels", "binary", "ternary", "product", "matrix", "ambient", "basis",
        "checks", "prop", "theta", "vartheta", "subspace", "map", "file", "g", "h", "g1", "g2")
PROPS = ("P31", "t32", "p33", "p34", "p35", "p36", "p37", "p38", "P99", "")
FILES = ("alg.json", "map.json", "sub.json", "config.json", "missing.json")

small_ints = st.integers(-2, 3)
rationals = st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4", " 5 ", "+2/3"])
scalars = st.one_of(
    rationals, small_ints,
    st.sampled_from(["1/0", "x", "", "1e3", "1.5", "0x1", "--1", "1//2"]),
    st.booleans(), st.none(), st.floats(), st.lists(small_ints, max_size=2))
json_values = st.recursive(
    st.none() | st.booleans() | small_ints | st.floats() | st.text(max_size=6) | rationals,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), inner,
                                     max_size=4)),
    max_leaves=12)


def mostly(valid, junk):
    """Draws from ``valid`` about four times in five, else from ``junk``."""
    return st.sampled_from([valid] * 4 + [junk]).flatmap(lambda strategy: strategy)


def coeffs(n):
    """Mostly a length-n list of rationals; sometimes a wrong length or junk."""
    return mostly(st.lists(rationals, min_size=n, max_size=n),
                  st.lists(scalars, max_size=n + 1) | json_values)


def entries(n, arity):
    """Mostly distinct well-formed entries [i, j, (k,) coeffs] with i < j."""
    slots = [(i, j) + rest for i, j in itertools.combinations(range(n), 2)
             for rest in itertools.product(range(n), repeat=arity - 2)]
    entry = st.tuples(st.sampled_from(slots), coeffs(n)).map(lambda e: [*e[0], e[1]])
    valid = (st.lists(entry, min_size=1, max_size=3, unique_by=lambda e: tuple(e[:-1]))
             if slots else st.just([]))
    index = st.integers(-1, n)
    loose = st.tuples(*([index] * arity), coeffs(n)).map(list)
    return mostly(valid, st.lists(loose | json_values, max_size=3))


def spoiled(obj):
    """The object as drawn, or with one key replaced by an arbitrary value."""
    return mostly(st.just(obj), st.builds(lambda key, value: {**obj, key: value},
                                          st.sampled_from(KEYS[:9]), json_values))


@st.composite
def algebra_objects(draw):
    if draw(st.booleans()):
        return draw(spoiled(draw(st.sampled_from(SMALL_CATALOG))))
    n = draw(st.integers(0, 3))
    obj = {"dim": n, "binary": draw(entries(n, 2)), "ternary": draw(entries(n, 3))}
    if draw(st.booleans()):
        obj["labels"] = draw(mostly(st.lists(st.text(max_size=2), min_size=n, max_size=n),
                                    json_values))
    return draw(spoiled(obj))


@st.composite
def leibniz_objects(draw):
    n = draw(st.integers(0, 3))
    return draw(spoiled({"dim": n, "product": draw(entries(n, 2))}))


@st.composite
def map_objects(draw, n):
    m = draw(mostly(st.just(n), st.integers(0, 3)))
    rows = mostly(st.lists(coeffs(m), min_size=m, max_size=m), json_values)
    return draw(spoiled({"dim": m, "matrix": draw(rows)}))


@st.composite
def subspace_objects(draw, n):
    m = draw(mostly(st.just(n), st.integers(0, 3)))
    basis = mostly(st.lists(coeffs(m), max_size=3), json_values)
    return draw(spoiled({"ambient": m, "basis": draw(basis)}))


def map_refs(n):
    return mostly(st.sampled_from(["id", "neg", "map.json"])
                  | st.builds(lambda rows: {"matrix": rows},
                              st.lists(coeffs(n), min_size=n, max_size=n)),
                  st.sampled_from(["missing.json", {"matrix": 1}])
                  | st.builds(lambda f: {"file": f}, st.sampled_from(FILES) | json_values)
                  | json_values)


def subspace_refs(n):
    return mostly(st.sampled_from(["full", "zero", "sub.json"])
                  | st.builds(lambda basis: {"basis": basis}, st.lists(coeffs(n), max_size=3)),
                  st.sampled_from(["missing.json", {"basis": 1}])
                  | st.builds(lambda f: {"file": f}, st.sampled_from(FILES) | json_values)
                  | json_values)


def vector_texts(n):
    return mostly(st.lists(rationals, min_size=n, max_size=n).map(",".join),
                  st.text(max_size=6) | json_values)


@st.composite
def config_objects(draw, n):
    checks = []
    for _ in range(draw(st.integers(0, 3))):
        check = {"prop": draw(mostly(st.sampled_from(PROPS), json_values))}
        for key, values in (("theta", map_refs(n)), ("vartheta", map_refs(n)),
                            ("map", map_refs(n)), ("subspace", subspace_refs(n)),
                            ("g", vector_texts(n)), ("h", vector_texts(n)),
                            ("g1", vector_texts(n)), ("g2", vector_texts(n)),
                            ("label", json_values)):
            if draw(st.booleans()):
                check[key] = draw(values)
        checks.append(draw(spoiled(check)))
    return draw(mostly(st.just({"checks": checks}), json_values))


def dim_of(obj):
    dim = obj.get("dim") if isinstance(obj, dict) else None
    return dim if isinstance(dim, int) and not isinstance(dim, bool) and 0 <= dim <= 3 else 2


def run(argv, files, usage_errors=False):
    """Write the files, run the CLI in-process, and check its single envelope.
    With ``usage_errors`` the argv may also fail to parse, which ends in an
    input error with no verb."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, obj in files.items():
            (root / name).write_text(json.dumps(obj), encoding="utf-8")
        args = [str(root / a) if a in FILES else a for a in argv]
        buf = io.StringIO()
        code = main(args, out=buf)
    text = buf.getvalue()
    assert code in (0, 1, 2)
    report = json.loads(text)  # exactly one JSON document
    assert text == canonical_json(report)
    assert report["tool"] == "lya"
    if usage_errors and report["verb"] is None:
        assert code == 2 and "error" in report
    else:
        assert report["verb"] == argv[0]
    assert ("error" in report) != ("result" in report)
    if code == 2:
        assert "error" in report
    if code == 0:
        assert "result" in report


@FUZZ
@given(json_values)
def test_arbitrary_json_values(value):
    for argv in (["check", "alg.json"], ["der", "alg.json"],
                 ["construct", "alg.json", "--from", "lie"],
                 ["construct", "alg.json", "--from", "leibniz"]):
        run(argv, {"alg.json": value})
    algebra = algebra_to_dict(catalog("sl2"))
    for argv in (["quasi", "alg.json", "--map", "map.json"],
                 ["stabilizer", "alg.json", "--subspace", "sub.json"],
                 ["verify", "all", "alg.json", "--config", "config.json"]):
        run(argv, {"alg.json": algebra, "map.json": value, "sub.json": value,
                   "config.json": value})


@FUZZ
@given(algebra_objects())
def test_algebra_files(obj):
    run(["check", "alg.json"], {"alg.json": obj})
    run(["der", "alg.json"], {"alg.json": obj})
    run(["construct", "alg.json", "--from", "lie"], {"alg.json": obj})


@FUZZ
@given(algebra_objects() | json_values)
def test_loader_matches_the_dense_reference(obj):
    """The algebra loader agrees with the dense loader it replaced on every
    drawn object: the same InputError message or the same tensors."""
    compare_with_dense_loader(obj)


@FUZZ
@given(leibniz_objects())
def test_leibniz_files(obj):
    run(["construct", "alg.json", "--from", "leibniz"], {"alg.json": obj})


@FUZZ
@given(st.data())
def test_map_and_subspace_files(data):
    algebra = data.draw(algebra_objects())
    n = dim_of(algebra)
    files = {"alg.json": algebra, "map.json": data.draw(map_objects(n)),
             "sub.json": data.draw(subspace_objects(n))}
    run(["quasi", "alg.json", "--map", data.draw(st.sampled_from(["map.json", "id", "neg"]))],
        files)
    run(["stabilizer", "alg.json", "--subspace",
         data.draw(st.sampled_from(["sub.json", "full", "zero"])),
         "--theta", data.draw(st.sampled_from(["id", "neg", "map.json"]))], files)


@FUZZ
@given(st.data())
def test_config_files(data):
    algebra = data.draw(mostly(st.sampled_from(SMALL_CATALOG), algebra_objects()))
    n = dim_of(algebra)
    files = {"alg.json": algebra, "map.json": data.draw(map_objects(n)),
             "sub.json": data.draw(subspace_objects(n)),
             "config.json": data.draw(config_objects(n))}
    run(["verify", "all", "alg.json", "--config", "config.json"], files)


VERBS = ("check", "construct", "der", "gder", "centroid", "center", "derived", "inner",
         "quasi", "stabilizer", "dhat", "verify", "export", "bogus", "")
# Option values, valid and not.  No --out (it would write outside the
# temporary directory) and no --help, which prints help to the real stdout
# and exits 0 without a report.  Its prefixes --h and --he are among the
# tokens: no option is matched by a prefix, so they are usage errors except
# where --h is the verb's own option (inner and verify).
OPTIONS = {"--map": ("id", "neg", "map.json", "missing.json"), "--theta": ("id", "map.json"),
           "--vartheta": ("neg", "sub.json"), "--subspace": ("full", "zero", "sub.json"),
           "--from": ("lie", "leibniz", "x"), "--config": ("config.json", "alg.json"),
           "--g": ("1,0,0", "0,1", "x"), "--label": ("a",), "--bogus": ("1",)}
OWN_OPTIONS = {"construct": "--from", "gder": "--theta --vartheta", "quasi": "--map",
               "stabilizer": "--theta --subspace", "dhat": "--map --theta",
               "verify": "--map --theta --vartheta --subspace --config --g --label"}
TOKENS = FILES + tuple(OPTIONS) + ("id", "sl2", "p34", "p35", "all", "suite", "1,0,0", "-x",
                                   "--h", "--he", "--", "")


@st.composite
def argument_lists(draw):
    """Mostly a verb, its algebra file and option pairs; else junk after the verb."""
    argv = [draw(st.sampled_from(VERBS))]
    if argv[0] == "verify":
        argv.append(draw(st.sampled_from(("p34", "p35", "p38", "all", "suite", "p99"))))
    argv.append(draw(mostly(st.just("alg.json"), st.sampled_from(TOKENS))))
    own = OWN_OPTIONS.get(argv[0], " ".join(sorted(OPTIONS))).split()
    options = mostly(st.sampled_from(own), st.sampled_from(sorted(OPTIONS)))
    for option in draw(st.lists(options, max_size=3, unique=True)):
        argv += [option, draw(st.sampled_from(OPTIONS[option]))]
    junk = st.lists(st.sampled_from(TOKENS), max_size=4).map(lambda rest: argv[:1] + rest)
    return draw(mostly(st.just(argv), junk))


@FUZZ
@given(argument_lists())
def test_argument_lists(argv):
    sl2 = algebra_to_dict(catalog("sl2"))
    files = {"alg.json": sl2, "map.json": {"dim": 3, "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
             "sub.json": {"ambient": 3, "basis": [["0", "0", "1"]]},
             "config.json": {"checks": [{"prop": "p35", "theta": "id"}]}}
    run(argv, files, usage_errors=True)
