import hashlib
import itertools
import math
import sys
from fractions import Fraction

import pytest

from lya import derivations, exactlin, lyalg, structure, theorems
from lya.errors import InputError, InternalCheckError, MathError
from lya.exactlin import Matrix, Subspace, coordinates, vunit, vzero
from lya.lyalg import catalog, check_axioms
from lya.maps import (
    basis_maps,
    certify_automorphism,
    compose,
    identity_cert,
)
from lya.derivations import derivation_space, g_derivation_space
from lya.theorems import (
    CheckSpec,
    PropReport,
    default_catalog_plan,
    default_catalog_reports,
    extract_subalgebra,
    reports_pass,
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
from reference import chevalley_cert, dense_form, neg_cert, rebased

E, F, H = 0, 1, 2


def certified_pairs():
    sl2 = catalog("sl2")
    lts = catalog("lts_sl2")
    ab3 = catalog("abelian3")
    chev = chevalley_cert()
    neg = neg_cert("lts_sl2")
    shear = certify_automorphism(ab3, Matrix.from_rows([[1, 2, 0], [0, 1, 0], [0, 0, 3]]))
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


def transported_bracket(theta, f, g):
    """The commutator pulled back through composition with the inverse
    twist, f θ⁻¹ g - g θ⁻¹ f, in map arithmetic."""
    inv = theta.inverse
    return compose(f, compose(inv, g)).sub(compose(g, compose(inv, f)))


def test_transported_structure_constants_form_an_ly_algebra():
    sl2 = catalog("sl2")
    chev = chevalley_cert()
    space = g_derivation_space(sl2, chev, chev)
    maps = basis_maps(space)
    k = space.dim

    def coords_of(f):
        return coordinates(space, f.flatten())

    c = tuple(tuple(coords_of(transported_bracket(chev, fa, fb)) for fb in maps)
              for fa in maps)
    d = tuple(
        tuple(
            tuple(coords_of(transported_bracket(
                chev, transported_bracket(chev, fa, fb), fc)) for fc in maps)
            for fb in maps)
        for fa in maps)
    assert all(v is not None for row in c for v in row)
    assert not check_axioms(k, dense_form(c, d))


def test_p33_holds_on_lts_with_negation():
    lts = catalog("lts_sl2")
    r = verify_p33(lts, neg_cert("lts_sl2"))
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
    d0 = basis_maps(derivation_space(h3))[0]
    r = verify_p34(h3, d0, identity_cert(h3))
    assert r.hypotheses_met and r.conclusion_holds
    assert r.details["defect_is_zero"]


def test_p34_on_perfect_centerless_sl2():
    sl2 = catalog("sl2")
    cert = identity_cert(sl2)
    for d_map in basis_maps(derivation_space(sl2)):
        r = verify_p34(sl2, d_map, cert)
        # identity twist commutes with everything, so every premise holds
        assert r.hypotheses_met and r.conclusion_holds


def test_p34_premise_filter_with_chevalley():
    sl2 = catalog("sl2")
    chev = chevalley_cert()
    space = g_derivation_space(sl2, chev, identity_cert(sl2))
    for d_map in basis_maps(space):
        r = verify_p34(sl2, d_map, chev)
        if r.hypotheses_met:
            assert r.conclusion_holds
            assert r.details["defect_is_zero"]


def counting_derived_algebra(monkeypatch):
    """Count derived_algebra calls, which every layer makes through the
    structure layer."""
    calls = []
    exact = structure.derived_algebra

    def counted(algebra):
        calls.append(algebra)
        return exact(algebra)

    monkeypatch.setattr(structure, "derived_algebra", counted)
    return calls


def test_p34_computes_the_derived_algebra_once(monkeypatch):
    """Perfectness and the containment read one derived algebra."""
    for name in ("sl2", "h3"):
        a = catalog(name)
        d_map = basis_maps(derivation_space(a))[0]
        calls = counting_derived_algebra(monkeypatch)
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
    calls = counting_derived_algebra(monkeypatch)
    out = io.StringIO()
    assert cli.main(["derived", str(path)], out=out) == 0
    assert json.loads(out.getvalue())["result"]["perfect"] is True
    assert len(calls) == 1


def test_p34_rejects_non_derivation():
    sl2 = catalog("sl2")
    with pytest.raises(MathError):
        verify_p34(sl2, Matrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
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
    a = catalog("sl2_plus_ab1")
    calls = []
    original = structure.is_subalgebra

    def counted(algebra, h):
        calls.append(h)
        return original(algebra, h)

    monkeypatch.setattr(structure, "is_subalgebra", counted)
    report = verify(a, identity_cert(a), Subspace.span(4, [vunit(4, E)]), *elements)
    assert report.details["stab_dim"] > 0  # the stabilizer was solved
    assert len(calls) == 1
    with pytest.raises(MathError, match="^subspace is not a subalgebra$"):
        verify(a, identity_cert(a), Subspace.span(4, [vunit(4, E), vunit(4, F)]), *elements)
    swap = certify_automorphism(a, Matrix.from_rows(
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
    corrupted = Matrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    reports = verify_all(sl2, [CheckSpec("P34", "bad-map", map=corrupted)])
    assert len(reports) == 1
    r = reports[0]
    assert not r.hypotheses_met and r.conclusion_holds is None
    assert "error" in r.details
    assert reports_pass(reports)


def test_verify_all_calls_the_verifier_the_module_holds(monkeypatch):
    """A wrapper set on a verifier's module attribute, as lyabench's tracer
    sets one, is the function a check runs."""
    calls = []
    verify = theorems.verify_p35
    monkeypatch.setattr(theorems, "verify_p35", lambda *args: calls.append(args) or verify(*args))
    sl2 = catalog("sl2")
    assert verify_all(sl2, [CheckSpec("P35", "x")]) == [verify_p35(sl2, identity_cert(sl2), "x")]
    assert len(calls) == 1


@pytest.mark.parametrize("spec,error", [
    (CheckSpec("P39"), "unknown check 'P39'"),
    (CheckSpec("P31", subspace=Subspace.full(3)), "P31 takes no field 'subspace'"),
    (CheckSpec("P35", "x", map=Matrix.identity(3)), "P35 takes no field 'map'"),
    (CheckSpec("P37", subspace=Subspace.full(3), g=vunit(3, E)),
     "P37 needs a subspace and two elements"),
])
def test_library_checks_are_held_to_the_command_line_rule(spec, error):
    """A CheckSpec built in code gets the input errors the command line
    gives for the same fields, from the same rule."""
    with pytest.raises(InputError) as exc:
        verify_all(catalog("sl2"), [spec])
    assert str(exc.value) == error


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
        PropReport("P31", "x", (("h", False),), True, None, {})
    with pytest.raises(InternalCheckError):
        PropReport("P31", "x", (), False, None, {})


@pytest.mark.parametrize("hypotheses", [(("h", False),), (("g", True), ("h", False))])
@pytest.mark.parametrize("conclusion", [True, False])
def test_conclusion_beside_a_failed_hypothesis_is_refused(hypotheses, conclusion):
    """Whether the hypotheses are met is read off the hypotheses themselves,
    so no report can claim a conclusion beside a failed one."""
    with pytest.raises(InternalCheckError, match="despite failed hypotheses"):
        PropReport("P31", "x", hypotheses, conclusion, {"w": 1}, {})
    report = PropReport("P31", "x", hypotheses, None, None, {})
    assert not report.hypotheses_met
    assert PropReport("P31", "x", (("g", True),), conclusion, {"w": 1}, {}).hypotheses_met


# -- the integer bracket algebra of T32 and P33 against Fraction references ------

def fraction_compose(f, g):
    """f after g in plain Fraction sums, independent of Matrix.mul."""
    n = f.rows
    a, b = f.entries, g.entries
    return Matrix.from_rows([[sum((a[i][t] * b[t][j] for t in range(n)), Fraction(0))
                              for j in range(n)] for i in range(n)], cols=n)


def fraction_commutator(f, g):
    return fraction_compose(f, g).sub(fraction_compose(g, f))


def fraction_contains(space, f, tested):
    """Membership by Fraction elimination (Subspace.reduce); records f."""
    tested.append(f.flatten())
    return not any(space.reduce(f.flatten()))


def reference_t32(algebra, theta, instance="", tested=None):
    """verify_t32 as it was written over Fraction products: every bracket,
    hom-property and membership test, in the same order.  The spaces come
    from ``derivations``, so a patched solver reaches both implementations."""
    tested = [] if tested is None else tested
    twisted = derivations.g_derivation_space(algebra, theta, theta)
    plain = derivations.derivation_space(algebra)
    inv = theta.inverse
    images = [fraction_compose(inv, f) for f in basis_maps(twisted)]
    lands = all(fraction_contains(plain, f, tested) for f in images)
    image_dim = Subspace.span(algebra.dim ** 2, [f.flatten() for f in images]).dim
    bijective = image_dim == twisted.dim == plain.dim

    def bracket(f, g):
        return fraction_compose(f, fraction_compose(inv, g)).sub(
            fraction_compose(g, fraction_compose(inv, f)))

    maps = basis_maps(twisted)
    closure_binary = hom_property = closure_ternary = True
    brackets = []
    for f, g in itertools.product(maps, repeat=2):
        br = bracket(f, g)
        brackets.append(br)
        if not fraction_contains(twisted, br, tested):
            closure_binary = False
        if fraction_compose(inv, br) != fraction_commutator(fraction_compose(inv, f),
                                                            fraction_compose(inv, g)):
            hom_property = False
    for br, h in itertools.product(brackets, maps):
        if not fraction_contains(twisted, bracket(br, h), tested):
            closure_ternary = False
    ok = lands and bijective and closure_binary and closure_ternary and hom_property
    witness = None if ok else {
        "lands": lands, "bijective": bijective, "closure_binary": closure_binary,
        "closure_ternary": closure_ternary, "hom_property": hom_property}
    return PropReport("T32", instance, (("theta certified", True),), ok, witness,
                      {"twisted_dim": twisted.dim, "plain_dim": plain.dim})


def reference_p33(algebra, theta, instance="", tested=None):
    """verify_p33 as it was written over Fraction products."""
    tested = [] if tested is None else tested
    plain = derivations.derivation_space(algebra)
    twisted = derivations.single_twist_space(algebra, theta)
    involutive = fraction_compose(theta.map, theta.map) == Matrix.identity(algebra.dim)
    bad_map = next((f for f in basis_maps(plain) + basis_maps(twisted)
                    if not fraction_commutator(theta.map, f).is_zero()), None)
    hypotheses = (("theta is involutive", involutive),
                  ("theta commutes with both spaces", bad_map is None))
    details = {"plain_dim": plain.dim, "twisted_dim": twisted.dim,
               "intersection_dim": exactlin.subspace_intersect(plain, twisted).dim}
    if not (involutive and bad_map is None):
        if bad_map is not None:
            details["non_commuting_map"] = [[str(x) for x in row] for row in bad_map.entries]
        return PropReport("P33", instance, hypotheses, None, None, details)
    spaces = {0: plain, 1: twisted}
    ok, witness = True, None
    for k, l in itertools.product((0, 1), repeat=2):
        for f in basis_maps(spaces[k]):
            for g in basis_maps(spaces[l]):
                br = fraction_commutator(f, g)
                if not fraction_contains(spaces[(k + l) % 2], br, tested):
                    ok = False
                    witness = {"k": k, "l": l,
                               "commutator": [[str(x) for x in row] for row in br.entries]}
    return PropReport("P33", instance, hypotheses, ok, witness, details)


def bracket_instances():
    """(algebra, theta, label) for every T32 and P33 check of the suite, h3
    with theta = id, and each of those after a seeded rational change of basis."""
    cases = []
    for _, algebra, checks in default_catalog_plan():
        cases += [(algebra, spec.theta, spec.label) for spec in checks
                  if spec.prop in ("T32", "P33")]
    h3 = catalog("h3")
    cases.append((h3, identity_cert(h3), "h3[theta=id]"))
    moved = []
    for seed, (algebra, theta, label) in enumerate(cases):
        other, p, p_inv = rebased(algebra, 100 + seed)
        conj = p_inv.mul(theta.map).mul(p)
        moved.append((other, certify_automorphism(other, conj), label + "[rebased]"))
    return cases + moved


def test_t32_and_p33_equal_their_fraction_references():
    """Full report equality, details and witnesses included, on every suite
    instance, on h3 with theta = id and after a rational change of basis."""
    seen = set()
    for algebra, theta, label in bracket_instances():
        assert verify_t32(algebra, theta, label) == reference_t32(algebra, theta, label)
        got = verify_p33(algebra, theta, label)
        assert got == reference_p33(algebra, theta, label)
        seen.add((got.hypotheses_met, got.conclusion_holds))
    assert (True, True) in seen and (False, None) in seen


def primitive(v):
    """The primitive integer vector on the positive ray of v."""
    den = math.lcm(*[Fraction(x).denominator for x in v])
    ints = [int(Fraction(x) * den) for x in v]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints) if g else tuple(ints)


def recorded_members(patch_calls_from):
    """Wrap the verifiers' membership test; returns the tested vectors."""
    seen = []
    member = exactlin._member

    def record(basis, w):
        seen.append(primitive(w))
        return member(basis, w)

    patch_calls_from(theorems, exactlin, "_member", record)
    return seen


def test_every_bracket_test_of_the_reference_still_runs(patch_calls_from):
    """The integer verifiers test the same pull-backs and brackets, up to a
    positive scale, in the same order as the references: for T32 the m
    pull-backs theta^-1 f, then m^2 binary and m^3 ternary brackets; for P33
    one commutator per ordered pair of each parity."""
    seen = recorded_members(patch_calls_from)
    for algebra, theta, label in bracket_instances():
        for verify, reference in ((verify_t32, reference_t32), (verify_p33, reference_p33)):
            tested = []
            reference(algebra, theta, label, tested)
            seen.clear()
            verify(algebra, theta, label)
            assert seen == [primitive(v) for v in tested]
    a = catalog("abelian2")
    seen.clear()
    verify_t32(a, identity_cert(a))
    assert len(seen) == 4 + 4 ** 2 + 4 ** 3


def corrupted(space, how):
    """A wrong space in place of a solved one: its last basis map dropped,
    or a matrix unit added."""
    n2 = space.ambient_dim
    vectors = space.basis[:-1] if how == "drop" else space.basis + (vunit(n2, 1),)
    return Subspace.span(n2, vectors)


def twists(name):
    """The identity, and the negated identity where it is an automorphism."""
    yield identity_cert(catalog(name))
    try:
        yield neg_cert(name)
    except MathError:
        pass


@pytest.mark.parametrize("how", ["drop", "add"])
def test_corrupted_twisted_spaces_give_the_reference_witness(patch_calls_from, how):
    """With the solved twisted space replaced by a wrong one, the failing
    reports, witness dicts included, equal the references'."""
    solve_pair = derivations.g_derivation_space
    solve_single = derivations.single_twist_space
    callers = (theorems, sys.modules[__name__])
    patch_calls_from(callers, derivations, "g_derivation_space",
                     lambda *args: corrupted(solve_pair(*args), how))
    patch_calls_from(callers, derivations, "single_twist_space",
                     lambda *args: corrupted(solve_single(*args), how))
    failed = set()
    for name in ("sl2", "abelian2", "h3", "lts_sl2"):
        a = catalog(name)
        for theta in twists(name):
            for verify, reference in ((verify_t32, reference_t32), (verify_p33, reference_p33)):
                got = verify(a, theta, name)
                assert got == reference(a, theta, name)
                if got.conclusion_holds is False:
                    failed.add(got.prop_id)
                    assert got.witness
    assert failed == {"T32", "P33"}


def test_t32_makes_a_linear_number_of_fraction_products(monkeypatch):
    """On abelian2 (m = 4 basis maps) T32 made 9m^2 + 4m^3 + m = 404
    Matrix.mul calls over Fraction products; the bracket algebra and the m
    pull-backs theta^-1 f now run on integer rows, with no Matrix.mul."""
    a = catalog("abelian2")
    theta = identity_cert(a)
    calls = []
    mul = Matrix.mul
    monkeypatch.setattr(Matrix, "mul", lambda self, other: calls.append(1) or mul(self, other))
    report = verify_t32(a, theta)
    assert report.conclusion_holds and report.details["twisted_dim"] == 4
    assert len(calls) == 0


# -- pinned reports of the failing branches ---------------------------------------
#
# The suite passes every check, so its digest never reaches the code that
# builds a failing hypothesis or a witness.  Each case below reaches one such
# branch, honestly where an instance exists and through a patched solver or
# oracle otherwise; its canonical report is pinned.

BRANCH_CASES = {}


def branch_case(digest):
    def register(case):
        BRANCH_CASES[case.__name__] = (case, digest)
        return case
    return register


def h3_scaled():
    """h3 with theta = diag(2, 1, 2), and a twisted derivation whose twist
    defect is not central."""
    h3 = catalog("h3")
    theta = certify_automorphism(h3, Matrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 2]]))
    return h3, theta, basis_maps(g_derivation_space(h3, theta, identity_cert(h3)))[1]


def sum_blocks():
    a = catalog("sl2_plus_ab1")
    return (a, identity_cert(a), Subspace.span(4, [vunit(4, 0), vunit(4, 1), vunit(4, 2)]),
            Subspace.span(4, [vunit(4, 3)]))


@branch_case("c3acaa2afa5597c0676656fe7fc99e0365f090cd00e87a3ae93006aafbe4206d")
def p31_paired_space_gains_a_map(patch):
    solve = derivations.g_derivation_space
    patch(g_derivation_space=lambda *args: corrupted(solve(*args), "add"))
    sl2 = catalog("sl2")
    return verify_p31(sl2, chevalley_cert(), identity_cert(sl2), "paired+1")


@branch_case("b3cf2f8d047bc31ab531fa00866e5e90ba2052cfaeca031f55848ee7326ecff5")
def p31_target_space_gains_a_map(patch):
    solve = derivations.single_twist_space
    patch(single_twist_space=lambda *args: corrupted(solve(*args), "add"))
    sl2 = catalog("sl2")
    return verify_p31(sl2, chevalley_cert(), identity_cert(sl2), "target+1")


@branch_case("b481608f49c115034dfa0c92a962a663a2ea317954330d522b0b3ff6815c2925")
def p33_theta_does_not_commute(patch):
    return verify_p33(catalog("sl2"), chevalley_cert(), "chevalley")


@branch_case("bf993f96ebd143588309e90b13433005e31ac3b11a9e699e718bd87d7fa12573")
def p34_defect_not_central(patch):
    h3, theta, d_map = h3_scaled()
    return verify_p34(h3, d_map, theta, "premise")


@branch_case("df6a261af4a6be5d8aba2091d9d1fd0c537dd36d9a1680b3fffb07f2eb81ac2c")
def p34_derived_vector_outside_the_kernel(patch):
    patch(center=lambda a: Subspace.full(a.dim),
          derived_algebra=lambda a: Subspace.span(3, [vunit(3, 0), vunit(3, 1)]))
    h3, theta, d_map = h3_scaled()
    return verify_p34(h3, d_map, theta, "vector")


@branch_case("c03d6a4d8b08d1069277478be3724b16afb3437b65e694138f46b4594bda38e1")
def p34_perfect_with_a_vector_outside_the_kernel(patch):
    patch(center=lambda a: Subspace.full(a.dim), derived_algebra=lambda a: Subspace.full(a.dim))
    h3, theta, d_map = h3_scaled()
    return verify_p34(h3, d_map, theta, "perfect vector")


@branch_case("f4125d23d7adf2017990f395cc3ff6c55d31d66498a8af05fa6d58386d4bb378")
def p34_perfect_with_a_nonzero_defect(patch):
    patch(center=lambda a: Subspace.full(a.dim), derived_algebra=lambda a: Subspace.full(a.dim),
          _images=lambda rows, s: [[0] * len(rows) for _ in range(s.dim)])
    h3, theta, d_map = h3_scaled()
    return verify_p34(h3, d_map, theta, "defect")


def stabilizer_branch(patch, how, block):
    solve = derivations._stabilizer_space
    patch(_stabilizer_space=lambda *args: corrupted(solve(*args), how))
    a, theta, sl2_block, ab_block = sum_blocks()
    h = sl2_block if block == "sl2" else ab_block
    return verify_p36(a, theta, h, f"{block} {how}")


@branch_case("6e2a5b797f2695a504b5bd9300a6ad9d61b5a9b27a630f56380303602e7dba25")
def p36_not_contained(patch):
    return stabilizer_branch(patch, "add", "ab")


@branch_case("807b932f15cddcc192ebb75546f9984be137d35a4037c6ecc4577aa90d924652")
def p36_perfect_but_unequal(patch):
    return stabilizer_branch(patch, "drop", "sl2")


@branch_case("d4e378fd2ed794203b863057e1bae1d898897ddd839f899dbd59020b25f8ea94")
def p36_perfect_and_not_contained(patch):
    return stabilizer_branch(patch, "add", "sl2")


@branch_case("5c4c3d8291434d346d57d06f500f92051dd046779696053b9ada372a96cfec66")
def p37_inner_map_escapes(patch):
    sl2 = catalog("sl2")
    return verify_p37(sl2, identity_cert(sl2), Subspace.span(3, [vunit(3, E)]),
                      vunit(3, F), vunit(3, H), "escape")


@branch_case("ff8546eed51a9f4ec72d6406cdb1064e4e9074feeace4251d5762726b3b32ff7")
def p37_singular_restriction(patch):
    a = catalog("abelian2")
    return verify_p37(a, identity_cert(a), Subspace.full(2), vunit(2, 0), vunit(2, 1), "singular")


@branch_case("32f4a8da9346847e70d999c11e8794ab01448a707c8a5bf5de475ae887895ba7")
def p37_value_outside_the_subspace(patch):
    values = lyalg._values
    patch(_values=lambda *args: [tuple(x + y for x, y in zip(v, vunit(3, H)))
                                 for v in values(*args)])
    sl2 = catalog("sl2")
    return verify_p37(sl2, identity_cert(sl2), Subspace.span(3, [vunit(3, E)]),
                      vunit(3, E), vunit(3, F), "outside")


@branch_case("f0abe48c2233b39e670c8918ac101eddf1ce74d5cae4dc12c67866bfde1ceada")
def p38_some_maps_survive(patch):
    a, theta, _, ab_block = sum_blocks()
    return verify_p38(a, theta, ab_block, vunit(4, 3), vunit(4, 0), "survivors")


@branch_case("00803e5b19078670a2e4fde4732f4517733d009b7c62dabdc90481fd0dfcb2ec")
def p38_restriction_is_no_quasi_derivation(patch):
    patch(is_quasi_derivation=lambda *args: None)
    a = catalog("abelian2")
    return verify_p38(a, identity_cert(a), Subspace.zero(2), vzero(2), vzero(2), "quasi")


@pytest.mark.parametrize("name", sorted(BRANCH_CASES))
def test_failing_branch_reports_are_pinned(patch_calls_from, name):
    """The canonical JSON of each failing-branch report, as the verifiers
    wrote it before they were simplified."""
    from lya.serialize import canonical_json, report_to_dict

    def patch(**names):
        """Each named function, in the layer that defines it, replaced for
        the verifiers' calls only."""
        for attr, value in names.items():
            owner = next(layer for layer in (exactlin, lyalg, structure, derivations)
                         if attr in vars(layer))
            patch_calls_from(theorems, owner, attr, value)

    case, digest = BRANCH_CASES[name]
    text = canonical_json(report_to_dict(case(patch)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("name,basis,labels", [
    ("sl2_plus_ab1", [(1, 0, 0, 0), (0, 0, 0, 1)], ("e", "a1")),
    ("sl2_plus_ab1", [(1, 0, 0, 0), (0, 0, 1, 1)], ("e", "b2")),
    ("abelian3", [(1, 1, 0), (0, 0, 1)], ("b1", "a3")),
    ("abelian3", [(1, 0, 1), (0, 1, 2)], ("b1", "b2")),
])
def test_extracted_labels_name_unit_rows_only(name, basis, labels):
    """A unit row keeps its basis label; any other row is b<position>."""
    a = catalog(name)
    h = Subspace.span(a.dim, [tuple(Fraction(x) for x in row) for row in basis])
    assert extract_subalgebra(a, h).labels == labels
