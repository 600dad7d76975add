"""The value types are ``lya._record`` records, not dataclasses.

Each of the 10 types is held against a frozen dataclass twin built here with
the same fields and defaults: on instances from the catalog and the built-in
suite, ``repr``, ``==``, ``hash``, the refusal to set or delete an attribute
and the ``TypeError`` of a bad constructor call must come out the same.  The
types that store a cleared form print their views, as the dataclasses with
those view fields did.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lya
from lya.derivations import (DhatClash, PartialMap, QuasiWitness, dhat, derivation_space,
                             g_derivation_space, is_quasi_derivation)
from lya.exactlin import Matrix, Subspace
from lya.lyalg import CATALOG_NAMES, AxiomFailure, LYAlgebra, catalog, check_axioms
from lya.maps import AutCert, basis_maps, identity_cert
from lya.structure import center, derived_algebra
from lya.theorems import CheckSpec, PropReport, default_catalog_plan, default_catalog_reports
from reference import dense_form, leibniz_from_tensor

# The fields of each type in order, a (name, default) pair where the field
# has a default, written out here rather than read from the types.
FIELDS = {
    Matrix: ("rows", "cols", "form"),
    Subspace: ("echelon",),
    LYAlgebra: ("dim", "labels", "form"),
    AxiomFailure: ("axiom", "indices", "residual"),
    AutCert: ("map", "inverse"),
    QuasiWitness: ("dprime", "dprimeprime"),
    PartialMap: ("domain", "matrix_on_domain"),
    DhatClash: ("terms", "mismatch"),
    PropReport: ("prop_id", "instance", "hypotheses", "conclusion_holds", "witness", "details"),
    CheckSpec: ("prop", ("label", ""), ("theta", None), ("vartheta", None), ("subspace", None),
                ("map", None), ("g", None), ("h", None), ("g1", None), ("g2", None)),
}


def _names(cls):
    return [f if isinstance(f, str) else f[0] for f in FIELDS[cls]]


def _twin(cls):
    spec = [(f, object) if isinstance(f, str) else (f[0], object, dataclasses.field(default=f[1]))
            for f in FIELDS[cls]]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


TWINS = {cls: _twin(cls) for cls in FIELDS}
# LYAlgebra prints the dense c and d, as the dataclass with these fields did.
DENSE_LYALGEBRA = dataclasses.make_dataclass(
    "LYAlgebra", [(f, object) for f in ("dim", "labels", "c", "d")], frozen=True)


def _shown(cls, *names):
    """x as the dataclass with fields ``names``, read from x's views."""
    twin = dataclasses.make_dataclass(cls.__name__, [(f, object) for f in names], frozen=True)
    return lambda x: twin(*(getattr(x, n) for n in names))


# Matrix prints its Fraction entries, and Subspace its ambient dimension and
# Fraction basis, as the dataclasses with these fields did.
SHOWN = {Matrix: _shown(Matrix, "rows", "cols", "entries"),
         Subspace: _shown(Subspace, "ambient_dim", "basis")}


def _collect():
    """Instances of every type, from the catalog and the built-in suite."""
    found = {cls: [] for cls in FIELDS}

    def add(*values):
        for v in values:
            if v is not None and type(v) in found and v not in found[type(v)]:
                found[type(v)].append(v)

    for name in CATALOG_NAMES:
        a = catalog(name)
        add(a, *check_axioms(a.dim, a.form), center(a), derived_algebra(a))
        space = derivation_space(a)
        add(space, identity_cert(a))
        for f in basis_maps(space)[:2]:
            add(f, is_quasi_derivation(a, f))
            result = dhat(a, f, identity_cert(a))
            add(result)
            if isinstance(result, PartialMap):
                add(result.domain, result.matrix_on_domain)
    sl2 = catalog("sl2")
    bad_c = tuple(tuple(tuple(-x for x in v) if (i, j) == (0, 1) else v
                        for j, v in enumerate(row)) for i, row in enumerate(sl2.c))
    add(*check_axioms(sl2.dim, dense_form(bad_c, sl2.d))[:3])
    add(leibniz_from_tensor(("e", "f", "h"), sl2.c))
    for _, algebra, specs in default_catalog_plan():
        for spec in specs:
            add(spec, spec.subspace, spec.map)
            for cert in (spec.theta, spec.vartheta):
                add(cert, cert and cert.map, cert and cert.inverse)
            if spec.prop == "P31":
                add(g_derivation_space(algebra, spec.theta, spec.vartheta))
    add(*default_catalog_reports())
    return found


INSTANCES = _collect()


def _outcome(call):
    try:
        return "value", call()
    except (AttributeError, TypeError) as exc:
        # A frozen dataclass raises FrozenInstanceError, an AttributeError.
        kind = AttributeError if isinstance(exc, AttributeError) else type(exc)
        return kind, str(exc)


def test_every_type_has_instances():
    assert all(len(INSTANCES[cls]) >= 1 for cls in FIELDS), \
        [cls.__name__ for cls in FIELDS if not INSTANCES[cls]]
    assert sum(map(len, INSTANCES.values())) > 100


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_records_match_their_dataclass_twin(cls):
    twin, names = TWINS[cls], _names(cls)
    pairs = [(x, twin(*(getattr(x, n) for n in names))) for x in INSTANCES[cls]]
    for x, tx in pairs:
        if cls is LYAlgebra:
            # The form's dicts leave the twin unhashable; the algebra hashes
            # its form's entries.
            assert repr(x) == repr(DENSE_LYALGEBRA(x.dim, x.labels, x.c, x.d))
            assert _outcome(lambda: hash(tx))[0] is TypeError
            assert hash(x) == hash(cls(x.dim, x.labels, x.form))
        else:
            assert repr(x) == repr(SHOWN[cls](x) if cls in SHOWN else tx)
            assert _outcome(lambda: hash(x)) == _outcome(lambda: hash(tx))
        assert x.__eq__(tx) is NotImplemented and tx.__eq__(x) is NotImplemented
        assert x != tx and (x == object()) is False
        values = [getattr(x, n) for n in names]
        assert cls(*values) == x and cls(**dict(zip(names, values))) == x
        for attr in (names[0], names[-1], "unknown"):
            assert _outcome(lambda: setattr(x, attr, 0)) == _outcome(lambda: setattr(tx, attr, 0))
            assert _outcome(lambda: delattr(x, attr)) == _outcome(lambda: delattr(tx, attr))
        assert [getattr(x, n) for n in names] == values
    for (x, tx), (y, ty) in zip(pairs, pairs[1:] + pairs[:1]):
        assert (x == y) == (tx == ty) and (x != y) == (tx != ty)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_bad_constructor_calls_raise_the_dataclass_type_error(cls):
    twin, names = TWINS[cls], _names(cls)
    x = INSTANCES[cls][0]
    values = [getattr(x, n) for n in names]
    calls = [
        ((), {}),                                   # missing every required field
        (values[:1], {}),                           # missing the rest
        (values + [0], {}),                         # one positional too many
        (values, {names[0]: values[0]}),            # repeated by keyword
        (values, {"unknown": 0}),                   # unexpected keyword
        ((), {**dict(zip(names, values)), "unknown": 0}),
    ]
    for args, kwargs in calls:
        got = _outcome(lambda: cls(*args, **kwargs))
        want = _outcome(lambda: twin(*args, **kwargs))
        if got[0] == "value" and want[0] == "value":
            continue  # e.g. CheckSpec("P31"): the other fields have defaults
        assert got == want, (args, kwargs)


def test_defaults_and_the_stored_form():
    """Defaults fill the omitted fields; an algebra stores its form, not c
    and d."""
    spec = CheckSpec("P31")
    assert repr(spec) == repr(TWINS[CheckSpec]("P31"))
    assert (spec.label, spec.theta, spec.g2) == ("", None, None)
    a = catalog("sl2")
    assert "form" not in repr(a) and a.form[0] == 1
    assert set(vars(a)) == {"dim", "labels", "form"}
    with pytest.raises(TypeError, match="unexpected keyword argument 'c'"):
        LYAlgebra(a.dim, a.labels, a.form, c=a.c)


def test_flags_are_read_off_the_fields():
    """A report's hypotheses are met when each named one holds; the flag is
    not stored."""
    for report in INSTANCES[PropReport]:
        assert "hypotheses_met" not in vars(report)
        assert report.hypotheses_met == all(ok for _, ok in report.hypotheses)
    assert {r.hypotheses_met for r in INSTANCES[PropReport]} == {True, False}


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter: the value types cost no code generation at import."""
    src = str(Path(lya.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import sys; before = set(sys.modules); import lya.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)), "
            "sorted({'dataclasses', 'inspect'} & before))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]
