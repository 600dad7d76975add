"""The value types are ``lya._record`` records, not dataclasses.

Each of the 15 types is held against a frozen dataclass twin built here with
the same fields and defaults: on instances from the catalog and the built-in
suite, ``repr``, ``==``, ``hash``, the refusal to set or delete an attribute
and the ``TypeError`` of a bad constructor call must come out the same.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lya
from lya.derivations import (DerSpace, DhatClash, DhatResult, PartialMap, QuasiWitness, dhat,
                             derivation_space, g_derivation_space, is_quasi_derivation)
from lya.exactlin import Matrix, Subspace
from lya.lyalg import (CATALOG_NAMES, AxiomFailure, AxiomReport, LeibnizAlgebra, LYAlgebra,
                       catalog, check_axioms, leibniz2)
from lya.maps import AutCert, LinMap, identity_cert
from lya.structure import center, derived_algebra
from lya.theorems import CheckSpec, PropReport, default_catalog_plan, default_catalog_reports

# The fields of each type in order, a (name, default) pair where the field
# has a default, written out here rather than read from the types.
FIELDS = {
    Matrix: ("rows", "cols", "entries"),
    Subspace: ("ambient_dim", "basis"),
    LYAlgebra: ("dim", "labels", "c", "d"),
    LeibnizAlgebra: ("dim", "labels", "product"),
    AxiomFailure: ("axiom", "indices", "residual"),
    AxiomReport: ("passed", "failures"),
    LinMap: ("dim", "matrix"),
    AutCert: ("map", "inverse"),
    DerSpace: ("space", "theta", "vartheta"),
    QuasiWitness: ("dprime", "dprimeprime"),
    PartialMap: ("domain", "matrix_on_domain"),
    DhatClash: ("terms", "mismatch"),
    DhatResult: ("map", "clash"),
    PropReport: ("prop_id", "instance", "hypotheses_met", "hypotheses", "conclusion_holds",
                 "witness", "details"),
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


def _collect():
    """Instances of every type, from the catalog and the built-in suite."""
    found = {cls: [] for cls in FIELDS}

    def add(*values):
        for v in values:
            if v is not None and type(v) in found and v not in found[type(v)]:
                found[type(v)].append(v)

    for name in CATALOG_NAMES:
        a = catalog(name)
        add(a, check_axioms(a.dim, a.c, a.d), center(a), derived_algebra(a))
        space = derivation_space(a)
        add(space, space.space, identity_cert(a))
        for f in space.maps()[:2]:
            add(f, f.matrix, is_quasi_derivation(a, f))
            result = dhat(a, f, identity_cert(a))
            add(result, result.map, result.clash)
            if result.map is not None:
                add(result.map.domain, result.map.matrix_on_domain)
    sl2 = catalog("sl2")
    bad_c = tuple(tuple(tuple(-x for x in v) if (i, j) == (0, 1) else v
                        for j, v in enumerate(row)) for i, row in enumerate(sl2.c))
    report = check_axioms(sl2.dim, bad_c, sl2.d)
    add(report, *report.failures[:3])
    add(leibniz2())
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
        assert repr(x) == repr(tx)
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


def test_defaults_and_private_annotations():
    spec = CheckSpec("P31")
    assert repr(spec) == repr(TWINS[CheckSpec]("P31"))
    assert (spec.label, spec.theta, spec.g2) == ("", None, None)
    a = catalog("sl2")
    assert "_form" not in repr(a) and a._form[0] == 1
    with pytest.raises(TypeError, match="unexpected keyword argument '_form'"):
        LYAlgebra(a.dim, a.labels, a.c, a.d, _form=a._form)


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
