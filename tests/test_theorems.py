import itertools

import pytest

from lya.errors import InternalCheckError, MathError
from lya.exactlin import Subspace, coordinates, vunit, vzero
from lya.lyalg import catalog, check_axioms
from lya.maps import (
    LinMap,
    certify_automorphism,
    identity_cert,
)
from lya.derivations import derivation_space, g_derivation_space
from lya.theorems import (
    CheckSpec,
    PropReport,
    default_catalog_reports,
    extract_subalgebra,
    reports_pass,
    transported_bracket,
    verify_all,
    verify_p31,
    verify_p33,
    verify_p34,
    verify_p35,
    verify_p36,
    verify_p37,
    verify_p38,
    verify_t32,
)

E, F, H = 0, 1, 2


def chevalley_cert():
    return certify_automorphism(
        catalog("sl2"), LinMap.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, -1]]))


def certified_pairs():
    sl2 = catalog("sl2")
    lts = catalog("lts_sl2")
    ab3 = catalog("abelian3")
    chev = chevalley_cert()
    neg = certify_automorphism(lts, LinMap.identity(3).scale(-1))
    shear = certify_automorphism(ab3, LinMap.from_rows([[1, 2, 0], [0, 1, 0], [0, 0, 3]]))
    yield sl2, [identity_cert(sl2), chev]
    yield lts, [identity_cert(lts), neg]
    yield ab3, [identity_cert(ab3), shear]


def test_p31_passes_on_all_certified_pairs():
    for algebra, certs in certified_pairs():
        for theta, vartheta in itertools.product(certs, repeat=2):
            report = verify_p31(algebra, theta, vartheta)
            assert report.hypotheses_met
            assert report.conclusion_holds


def test_p31_dims_equal_on_trivial_pair():
    a = catalog("abelian3")
    r = verify_p31(a, identity_cert(a), identity_cert(a))
    assert r.details["paired_dim"] == r.details["target_dim"] == 9


def test_t32_on_sl2_with_chevalley():
    sl2 = catalog("sl2")
    r = verify_t32(sl2, chevalley_cert())
    assert r.conclusion_holds
    assert r.details["twisted_dim"] == r.details["plain_dim"] == 3


def test_t32_identity_twist_reduces_to_commutator_closure():
    for name in ("sl2", "abelian2", "h3"):
        a = catalog(name)
        assert verify_t32(a, identity_cert(a)).conclusion_holds


def test_transported_structure_constants_form_an_ly_algebra():
    sl2 = catalog("sl2")
    chev = chevalley_cert()
    space = g_derivation_space(sl2, chev, chev)
    maps = space.maps()
    k = space.dim

    def coords_of(f):
        return coordinates(space.space, f.flatten())

    c = tuple(tuple(coords_of(transported_bracket(chev, fa, fb)) for fb in maps)
              for fa in maps)
    d = tuple(
        tuple(
            tuple(coords_of(transported_bracket(
                chev, transported_bracket(chev, fa, fb), fc)) for fc in maps)
            for fb in maps)
        for fa in maps)
    assert all(v is not None for row in c for v in row)
    report = check_axioms(k, c, d)
    assert report.passed


def test_p33_holds_on_lts_with_negation():
    lts = catalog("lts_sl2")
    neg = certify_automorphism(lts, LinMap.identity(3).scale(-1))
    r = verify_p33(lts, neg)
    assert r.hypotheses_met and r.conclusion_holds
    assert "intersection_dim" in r.details


def test_p33_identity_reduces_to_commutator_closure():
    sl2 = catalog("sl2")
    r = verify_p33(sl2, identity_cert(sl2))
    assert r.hypotheses_met and r.conclusion_holds


def test_p33_chevalley_fails_commuting_hypothesis():
    sl2 = catalog("sl2")
    r = verify_p33(sl2, chevalley_cert())
    assert not r.hypotheses_met
    assert r.conclusion_holds is None
    assert dict(r.hypotheses)["theta commutes with both spaces"] is False
    assert "non_commuting_map" in r.details


def test_p34_commuting_derivation_trivially_passes():
    h3 = catalog("h3")
    d0 = derivation_space(h3).maps()[0]
    r = verify_p34(h3, d0, identity_cert(h3))
    assert r.hypotheses_met and r.conclusion_holds
    assert r.details["defect_is_zero"]


def test_p34_on_perfect_centerless_sl2():
    sl2 = catalog("sl2")
    cert = identity_cert(sl2)
    for d_map in derivation_space(sl2).maps():
        r = verify_p34(sl2, d_map, cert)
        # identity twist commutes with everything, so every premise holds
        assert r.hypotheses_met and r.conclusion_holds


def test_p34_premise_filter_with_chevalley():
    sl2 = catalog("sl2")
    chev = chevalley_cert()
    space = g_derivation_space(sl2, chev, identity_cert(sl2))
    for d_map in space.maps():
        r = verify_p34(sl2, d_map, chev)
        if r.hypotheses_met:
            assert r.conclusion_holds
            assert r.details["defect_is_zero"]


def counting_derived_algebra(monkeypatch, *modules):
    """Count derived_algebra calls through every named module's binding and
    through the one is_perfect uses."""
    from lya import structure

    calls = []
    exact = structure.derived_algebra

    def counted(algebra):
        calls.append(algebra)
        return exact(algebra)

    for module in (structure,) + modules:
        monkeypatch.setattr(module, "derived_algebra", counted)
    return calls


def test_p34_computes_the_derived_algebra_once(monkeypatch):
    """Perfectness and the containment read one derived algebra."""
    from lya import theorems

    for name in ("sl2", "h3"):
        a = catalog(name)
        d_map = derivation_space(a).maps()[0]
        calls = counting_derived_algebra(monkeypatch, theorems)
        r = verify_p34(a, d_map, identity_cert(a))
        monkeypatch.undo()
        assert r.hypotheses_met and r.conclusion_holds
        assert r.details["perfect"] is (name == "sl2")
        assert len(calls) == 1


def test_derived_verb_computes_the_derived_algebra_once(monkeypatch, tmp_path):
    import io
    import json

    from lya import cli

    path = tmp_path / "sl2.json"
    assert cli.main(["export", "sl2", "--out", str(path)], out=io.StringIO()) == 0
    calls = counting_derived_algebra(monkeypatch, cli)
    out = io.StringIO()
    assert cli.main(["derived", str(path)], out=out) == 0
    assert json.loads(out.getvalue())["result"]["perfect"] is True
    assert len(calls) == 1


def test_p34_rejects_non_derivation():
    sl2 = catalog("sl2")
    with pytest.raises(MathError):
        verify_p34(sl2, LinMap.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
                   identity_cert(sl2))


def test_p35_on_sl2_both_twists():
    sl2 = catalog("sl2")
    for cert in (identity_cert(sl2), chevalley_cert()):
        r = verify_p35(sl2, cert)
        assert r.conclusion_holds
        assert r.details["intersection_dim"] == 0
        assert r.details["centerless"]


def test_p35_abelian_everything_is_vacuous():
    a = catalog("abelian2")
    r = verify_p35(a, identity_cert(a))
    assert r.conclusion_holds
    assert r.details["intersection_dim"] == 4
    assert not r.details["centerless"]


def test_p35_nontrivial_intersection_on_direct_sum():
    a = catalog("sl2_plus_ab1")
    r = verify_p35(a, identity_cert(a))
    assert r.conclusion_holds
    assert r.details["intersection_dim"] == 1


def test_extract_full_space_returns_same_algebra():
    for name in ("sl2", "aff2"):
        a = catalog(name)
        b = extract_subalgebra(a, Subspace.full(a.dim))
        assert b.c == a.c and b.d == a.d and b.labels == a.labels


def test_extract_sl2_block_recovers_sl2():
    a = catalog("sl2_plus_ab1")
    block = Subspace.span(4, [vunit(4, 0), vunit(4, 1), vunit(4, 2)])
    b = extract_subalgebra(a, block)
    sl2 = catalog("sl2")
    assert b.c == sl2.c and b.d == sl2.d


def test_extract_nilpotent_line_is_abelian():
    a = catalog("sl2")
    b = extract_subalgebra(a, Subspace.span(3, [vunit(3, E)]))
    assert b.dim == 1
    assert all(x == 0 for x in b.c[0][0])


def test_extract_rejects_non_subalgebra():
    a = catalog("sl2")
    with pytest.raises(MathError):
        extract_subalgebra(a, Subspace.span(3, [vunit(3, E), vunit(3, F)]))


def test_p36_perfect_ideal_forces_equality():
    a = catalog("sl2_plus_ab1")
    block = Subspace.span(4, [vunit(4, 0), vunit(4, 1), vunit(4, 2)])
    r = verify_p36(a, identity_cert(a), block)
    assert r.conclusion_holds
    assert r.details["perfect_ideal"] and r.details["equal"]


def test_p36_abelian_block_containment_only():
    a = catalog("sl2_plus_ab1")
    block = Subspace.span(4, [vunit(4, 3)])
    r = verify_p36(a, identity_cert(a), block)
    assert r.conclusion_holds
    assert r.details["ideal"] and not r.details["perfect_ideal"]
    assert r.details["stab_dim"] <= r.details["full_dim"]


def test_p36_zero_subspace_trivial_equality():
    a = catalog("sl2")
    r = verify_p36(a, identity_cert(a), Subspace.zero(3))
    assert r.conclusion_holds
    assert r.details["equal"]


def test_p36_rejects_bad_preconditions():
    a = catalog("sl2")
    with pytest.raises(MathError):
        verify_p36(a, identity_cert(a), Subspace.span(3, [vunit(3, E), vunit(3, F)]))
    with pytest.raises(MathError):
        verify_p36(a, chevalley_cert(), Subspace.span(3, [vunit(3, E)]))


@pytest.mark.parametrize("verify,elements", [
    (verify_p36, ()),
    (verify_p37, (vunit(4, E), vunit(4, F))),
    (verify_p38, (vunit(4, E), vunit(4, F))),
])
def test_stabilizer_verifiers_check_their_preconditions_once(monkeypatch, verify, elements):
    import lya.derivations
    import lya.theorems

    a = catalog("sl2_plus_ab1")
    calls = []
    original = lya.derivations.is_subalgebra

    def counted(algebra, h):
        calls.append(h)
        return original(algebra, h)

    monkeypatch.setattr(lya.derivations, "is_subalgebra", counted)
    monkeypatch.setattr(lya.theorems, "is_subalgebra", counted)
    report = verify(a, identity_cert(a), Subspace.span(4, [vunit(4, E)]), *elements)
    assert report.details["stab_dim"] > 0  # the stabilizer was solved
    assert len(calls) == 1
    with pytest.raises(MathError, match="^subspace is not a subalgebra$"):
        verify(a, identity_cert(a), Subspace.span(4, [vunit(4, E), vunit(4, F)]), *elements)
    swap = certify_automorphism(a, LinMap.from_rows(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]))
    with pytest.raises(MathError, match="^automorphism does not stabilize the subspace$"):
        verify(a, swap, Subspace.span(4, [vunit(4, E)]), *elements)


def test_p37_sl2_line_instance():
    sl2 = catalog("sl2")
    r = verify_p37(sl2, identity_cert(sl2), Subspace.span(3, [vunit(3, E)]),
                   vunit(3, E), vunit(3, F))
    assert r.hypotheses_met
    assert r.conclusion_holds
    # the global hat system is inconsistent for the nonzero basis derivations
    assert any(not item["globally_consistent"] for item in r.details["per_map"])


def test_p37_zero_subspace_vacuous_pass():
    a = catalog("abelian2")
    r = verify_p37(a, identity_cert(a), Subspace.zero(2), vzero(2), vzero(2))
    assert r.hypotheses_met and r.conclusion_holds


def test_p37_abelian_full_subspace_hypothesis_fails():
    a = catalog("abelian2")
    r = verify_p37(a, identity_cert(a), Subspace.full(2), vunit(2, 0), vunit(2, 1))
    assert not r.hypotheses_met
    assert r.conclusion_holds is None


def test_p38_sl2_hypothesis_failure_records_survivors():
    sl2 = catalog("sl2")
    r = verify_p38(sl2, identity_cert(sl2), Subspace.span(3, [vunit(3, E)]),
                   vunit(3, E), vunit(3, F))
    assert not r.hypotheses_met
    assert r.conclusion_holds is None
    assert r.details["survivors"] == []


def test_p38_zero_subspace_vacuous_pass():
    a = catalog("abelian2")
    r = verify_p38(a, identity_cert(a), Subspace.zero(2), vzero(2), vzero(2))
    assert r.hypotheses_met and r.conclusion_holds
    assert len(r.details["survivor_results"]) == r.details["stab_dim"]


def test_verify_all_empty_config():
    assert verify_all(catalog("sl2"), []) == []


def test_verify_all_records_precondition_rejection():
    sl2 = catalog("sl2")
    corrupted = LinMap.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    reports = verify_all(sl2, [CheckSpec("P34", "bad-map", map=corrupted)])
    assert len(reports) == 1
    r = reports[0]
    assert not r.hypotheses_met and r.conclusion_holds is None
    assert "error" in r.details
    assert reports_pass(reports)


def test_verify_all_orders_reports_deterministically():
    sl2 = catalog("sl2")
    checks = [
        CheckSpec("P35", "b", theta=identity_cert(sl2)),
        CheckSpec("P33", "z", theta=identity_cert(sl2)),
        CheckSpec("P33", "a", theta=identity_cert(sl2)),
    ]
    reports = verify_all(sl2, checks)
    assert [(r.prop_id, r.instance) for r in reports] == [
        ("P33", "a"), ("P33", "z"), ("P35", "b")]


def test_default_catalog_reports_all_pass():
    reports = default_catalog_reports()
    assert reports_pass(reports)
    gated = [r for r in reports if not r.hypotheses_met]
    assert all(r.conclusion_holds is None for r in gated)
    assert any(r.prop_id == "P33" and "chevalley" in r.instance for r in gated)


def test_report_invariants_enforced_by_construction():
    with pytest.raises(InternalCheckError):
        PropReport("P31", "x", False, (), True, None, {})
    with pytest.raises(InternalCheckError):
        PropReport("P31", "x", True, (), False, None, {})
