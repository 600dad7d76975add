import functools
import itertools
import random
import types
from fractions import Fraction

import pytest

from lya.derivations import (
    centroid,
    derivation_space,
    dhat,
    dhat_binary_rhs,
    dhat_ternary_rhs,
    g_derivation_space,
    is_quasi_derivation,
    require_stabilized_subalgebra,
    single_twist_space,
    stabilizer_derivations,
)
from lya.errors import InternalCheckError, MathError
from lya.exactlin import (Matrix, Subspace, invert, nullspace, rref, subspace_contains,
                          subspace_intersect, vadd, vscale, vunit)
from lya.lyalg import CATALOG_NAMES, bracket, catalog, direct_sum, triple
from lya.maps import certify_automorphism, identity_cert, inner_derivation
from lya.serialize import algebra_to_dict
from lya.structure import (
    center,
    derived_algebra,
    is_abelian_ideal,
    is_ideal,
    is_perfect,
    is_subalgebra,
)
from lya import exactlin, theorems
from lya.theorems import _extract_subalgebra, default_catalog_plan, verify_p35
from reference import (CHEVALLEY, SUM_CHEVALLEY, contraction_oracle_binary as bi,
                       contraction_oracle_ternary as tri, covariance_cases, from_tensors, gl2,
                       h5, quasi_reference, rand_map, rebased, stabilizer_reference, transported,
                       unflat, without_dense_tensors)

E, F, H = 0, 1, 2


def test_center_of_abelian_is_everything():
    a = catalog("abelian3")
    assert center(a) == Subspace.full(3)


def test_center_of_sl2_trivial():
    assert center(catalog("sl2")).dim == 0


def test_center_of_heisenberg_is_its_lie_center():
    a = catalog("h3")
    assert center(a) == Subspace.span(3, [vunit(3, 2)])


def test_center_of_direct_sum_is_abelian_block():
    a = catalog("sl2_plus_ab1")
    assert center(a) == Subspace.span(4, [vunit(4, 3)])


def test_center_middle_slot_consequence():
    for name in CATALOG_NAMES:
        a = catalog(name)
        z = center(a)
        for g in z.basis:
            for i in range(a.dim):
                for h in range(a.dim):
                    assert all(x == 0 for x in triple(a, vunit(a.dim, i), g, vunit(a.dim, h)))


def test_derived_algebra_abelian_trivial():
    assert derived_algebra(catalog("abelian2")).dim == 0


def test_derived_algebra_sl2_full():
    assert derived_algebra(catalog("sl2")) == Subspace.full(3)


def test_derived_algebra_heisenberg():
    assert derived_algebra(catalog("h3")) == Subspace.span(3, [vunit(3, 2)])


def test_derived_algebra_aff2():
    assert derived_algebra(catalog("aff2")) == Subspace.span(2, [vunit(2, 0)])


def test_perfectness():
    assert is_perfect(catalog("sl2"))
    assert not is_perfect(catalog("abelian1"))
    assert not is_perfect(catalog("aff2"))
    assert not is_perfect(catalog("sl2_plus_ab1"))


def test_full_space_is_subalgebra():
    for name in CATALOG_NAMES:
        a = catalog(name)
        assert is_subalgebra(a, Subspace.full(a.dim))


def test_nilpotent_line_is_subalgebra():
    a = catalog("sl2")
    assert is_subalgebra(a, Subspace.span(3, [vunit(3, E)]))


def test_e_f_plane_is_not_subalgebra():
    a = catalog("sl2")
    assert not is_subalgebra(a, Subspace.span(3, [vunit(3, E), vunit(3, F)]))


def test_trivial_and_full_ideals():
    for name in ("sl2", "aff2", "sl2_plus_ab1"):
        a = catalog(name)
        assert is_ideal(a, Subspace.zero(a.dim))
        assert is_ideal(a, Subspace.full(a.dim))


def test_sl2_block_is_ideal_of_sum():
    a = catalog("sl2_plus_ab1")
    block = Subspace.span(4, [vunit(4, 0), vunit(4, 1), vunit(4, 2)])
    assert is_ideal(a, block)


def test_nilpotent_line_is_not_ideal():
    a = catalog("sl2")
    assert not is_ideal(a, Subspace.span(3, [vunit(3, E)]))


def test_abelian_block_is_abelian_ideal():
    a = catalog("sl2_plus_ab1")
    block = Subspace.span(4, [vunit(4, 3)])
    assert is_ideal(a, block)
    assert is_abelian_ideal(a, block)


def test_zero_ideal_is_abelian():
    a = catalog("sl2")
    assert is_abelian_ideal(a, Subspace.zero(3))


def test_sl2_block_is_not_abelian_ideal():
    a = catalog("sl2_plus_ab1")
    block = Subspace.span(4, [vunit(4, 0), vunit(4, 1), vunit(4, 2)])
    assert not is_abelian_ideal(a, block)


def test_abelian_ideal_requires_ideal():
    a = catalog("sl2")
    with pytest.raises(MathError):
        is_abelian_ideal(a, Subspace.span(3, [vunit(3, E)]))


def test_center_is_abelian_ideal_everywhere():
    for name in CATALOG_NAMES:
        a = catalog(name)
        z = center(a)
        assert is_ideal(a, z)
        assert is_abelian_ideal(a, z)


def test_derived_algebra_is_subalgebra_everywhere():
    for name in CATALOG_NAMES:
        a = catalog(name)
        assert is_subalgebra(a, derived_algebra(a))


def test_derived_algebra_contains_all_products():
    a = catalog("sl2_plus_ab1")
    w = derived_algebra(a)
    for i in range(4):
        for j in range(4):
            assert subspace_contains(w, a.c[i][j])
            for k in range(4):
                assert subspace_contains(w, a.d[i][j][k])


# -- dense references -------------------------------------------------------
# The dense readers that the stored-form ones replaced, kept as references.
# They contract the Fraction tensors c and d with the test-local oracles.

def units(n):
    return [vunit(n, i) for i in range(n)]


def center_reference(a):
    n, c, d = a.dim, a.c, a.d
    rows = []
    for j in range(n):
        for l in range(n):
            rows.append(tuple(c[i][j][l] for i in range(n)))
    for j, k in itertools.product(range(n), repeat=2):
        for l in range(n):
            rows.append(tuple(d[i][j][k][l] for i in range(n)))
            rows.append(tuple(d[j][k][i][l] for i in range(n)))
    space = nullspace(Matrix(len(rows), n, (1, tuple(rows))))
    e = units(n)
    for g in space.basis:
        for j, k in itertools.product(range(n), repeat=2):
            assert not any(tri(d, e[j], g, e[k]))
    return space


def derived_algebra_reference(a):
    n = a.dim
    vectors = [a.c[i][j] for i in range(n) for j in range(i + 1, n)]
    vectors += [a.d[i][j][k] for i, j, k in itertools.product(range(n), repeat=3)]
    return Subspace.span(n, vectors)


def is_subalgebra_reference(a, h):
    for x, y in itertools.product(h.basis, repeat=2):
        if not h.contains_vector(bi(a.c, x, y)):
            return False
        for z in h.basis:
            if not h.contains_vector(tri(a.d, x, y, z)):
                return False
    return True


def is_ideal_reference(a, h):
    e = units(a.dim)
    for b in h.basis:
        for j in range(a.dim):
            if not h.contains_vector(bi(a.c, b, e[j])):
                return False
            for k in range(a.dim):
                if not h.contains_vector(tri(a.d, b, e[j], e[k])):
                    return False
    for b in h.basis:
        for j in range(a.dim):
            if not h.contains_vector(bi(a.c, e[j], b)):
                raise InternalCheckError("ideal fails the implied right-bracket containment")
            for k in range(a.dim):
                if not h.contains_vector(tri(a.d, e[j], b, e[k])):
                    raise InternalCheckError("ideal fails the implied middle-slot containment")
                if not h.contains_vector(tri(a.d, e[j], e[k], b)):
                    raise InternalCheckError("ideal fails the implied last-slot containment")
    return True


def is_abelian_ideal_reference(a, h):
    if not is_ideal_reference(a, h):
        raise MathError("subspace is not an ideal")
    e = units(a.dim)
    for x, y in itertools.product(h.basis, repeat=2):
        if any(bi(a.c, x, y)):
            return False
        for j in range(a.dim):
            if any(tri(a.d, e[j], x, y)):
                return False
    for x, y in itertools.product(h.basis, repeat=2):
        for j in range(a.dim):
            if any(tri(a.d, x, e[j], y)) or any(tri(a.d, x, y, e[j])):
                raise InternalCheckError("abelian ideal fails an implied vanishing")
    return True


def coordinates_in(h, v):
    """Coefficients of v over h's basis, by a solve independent of lya's."""
    coeffs = nullspace(Matrix(h.ambient_dim, h.dim + 1, (1, tuple(
        tuple(b[r] for b in h.basis) + (-v[r],) for r in range(h.ambient_dim)))))
    last = [x for x in coeffs.basis if x[-1]]
    assert last, "product outside the subalgebra"
    return tuple(x / last[0][-1] for x in last[0][:-1])


def extract_subalgebra_reference(a, h):
    c = [[coordinates_in(h, bi(a.c, x, y)) for y in h.basis] for x in h.basis]
    d = [[[coordinates_in(h, tri(a.d, x, y, z)) for z in h.basis] for y in h.basis]
          for x in h.basis]
    labels = [next((a.labels[i] for i in range(a.dim) if row == vunit(a.dim, i)), None)
              for row in h.basis]
    labels = [lab if lab is not None else f"b{t + 1}" for t, lab in enumerate(labels)]
    return from_tensors(labels, c, d)


def p35_reference(a, meet):
    """The verify_p35 conclusion after the meet is known: the last failing
    (map, basis triple) is the witness, as the dense loop overwrote it."""
    n, e = a.dim, units(a.dim)
    ok, witness = True, None
    for flat in meet.basis:
        f = unflat(n, flat)
        for g, h, i in itertools.product(range(n), repeat=3):
            if any(tri(a.d, e[g], e[h], f.mul_vec(e[i]))):
                ok = False
                witness = {"map": [[str(x) for x in row] for row in f.entries],
                           "indices": [g, h, i]}
    centerless = center_reference(a).dim == 0
    if centerless and meet.dim != 0:
        ok = False
        witness = witness or {"intersection_dim": meet.dim}
    return ok, witness, {"intersection_dim": meet.dim, "centerless": centerless}


def dhat_binary_rhs_reference(a, d_map, theta, g, h):
    val = vscale(2, d_map.mul_vec(bi(a.c, g, h)))
    val = vadd(val, bi(a.c, d_map.mul_vec(h), theta.mul_vec(g)))
    return vadd(val, bi(a.c, theta.mul_vec(h), d_map.mul_vec(g)))


def dhat_ternary_rhs_reference(a, d_map, theta, g, h, i):
    val = vscale(3, d_map.mul_vec(tri(a.d, g, h, i)))
    val = vadd(val, tri(a.d, d_map.mul_vec(g), theta.mul_vec(h), i))
    val = vadd(val, tri(a.d, g, d_map.mul_vec(h), theta.mul_vec(i)))
    return vadd(val, tri(a.d, theta.mul_vec(g), h, d_map.mul_vec(i)))


def algebra_to_dict_reference(a):
    n = a.dim
    binary = [[i, j, [str(x) for x in a.c[i][j]]]
              for i in range(n) for j in range(i + 1, n) if any(a.c[i][j])]
    ternary = [[i, j, k, [str(x) for x in a.d[i][j][k]]]
               for i in range(n) for j in range(i + 1, n) for k in range(n) if any(a.d[i][j][k])]
    return {"dim": n, "labels": list(a.labels), "binary": binary, "ternary": ternary}


def rand_vec(rng, n):
    return tuple(Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(n))


@functools.cache
def plan_subspaces():
    found = []
    for _, _, checks in default_catalog_plan():
        for spec in checks:
            if spec.subspace is not None and spec.subspace not in found:
                found.append(spec.subspace)
    return found


@functools.cache
def reference_cases():
    """(algebra, subspaces): the catalog with abelian0, aff2 + h3, h5 and gl2
    in the standard and a seeded rational basis, and sl2_plus_ab1 in one.
    The subspaces are the plan's of the right size, every coordinate block,
    the full and zero spaces, the center, the derived algebra and seeded
    random spans; in a rebased algebra, the plan's and the blocks are
    transported by P^-1."""
    rng = random.Random(1313)
    algebras = [(catalog(name), None) for name in ("abelian0",) + CATALOG_NAMES]
    algebras += [(direct_sum(catalog("aff2"), catalog("h3")), None), (h5(), None), (gl2(), None)]
    for base, seed in ((h5(), 3), (gl2(), 5), (catalog("sl2_plus_ab1"), 11)):
        rebased_alg, _, p_inv = rebased(base, seed)
        algebras.append((rebased_alg, p_inv))
    cases = []
    for a, to_basis in algebras:
        n = a.dim
        move = (lambda v: v) if to_basis is None else to_basis.mul_vec
        subspaces = [Subspace.full(n), Subspace.zero(n), center_reference(a),
                     derived_algebra_reference(a)]
        subspaces += [Subspace.span(n, [move(v) for v in s.basis])
                      for s in plan_subspaces() if s.ambient_dim == n]
        subspaces += [Subspace.span(n, [move(vunit(n, i)) for i in block])
                      for size in range(1, n) for block in itertools.combinations(range(n), size)]
        subspaces += [Subspace.span(n, [rand_vec(rng, n) for _ in range(rng.randint(1, n))])
                      for _ in range(3 if n else 0)]
        cases.append((a, subspaces))
    return cases


def test_structure_matches_the_dense_references():
    """The verdicts over the cases include every outcome, so that a dropped
    or misplaced condition changes one of them."""
    outcomes = set()
    for a, subspaces in reference_cases():
        assert center(a) == center_reference(a)
        assert derived_algebra(a) == derived_algebra_reference(a)
        assert algebra_to_dict(a) == algebra_to_dict_reference(a)
        for h in subspaces:
            sub = is_subalgebra(a, h)
            assert sub == is_subalgebra_reference(a, h)
            ideal = is_ideal(a, h)
            assert ideal == is_ideal_reference(a, h)
            abelian = False
            if ideal:
                abelian = is_abelian_ideal(a, h)
                assert abelian == is_abelian_ideal_reference(a, h)
            else:
                with pytest.raises(MathError):
                    is_abelian_ideal(a, h)
            if sub:
                assert _extract_subalgebra(a, h) == extract_subalgebra_reference(a, h)
            outcomes.add((sub, ideal, abelian))
    assert {(False, False, False), (True, False, False), (True, True, False),
            (True, True, True)} <= outcomes


def test_p35_matches_the_dense_loop(monkeypatch, patch_calls_from):
    """On the real meets and on seeded spans of maps put in the meet's place,
    so that the dense loop finds failing triples and its witness, the last
    one, is compared."""
    rng = random.Random(35)
    failing = 0
    for a, _ in reference_cases():
        n = a.dim
        report = verify_p35(a, identity_cert(a))
        meet = subspace_intersect(centroid(a), derivation_space(a).space)
        assert (report.conclusion_holds, report.witness, report.details) \
            == p35_reference(a, meet)
        for _ in range(3 if n else 0):
            flats = [rand_map(rng, n).flatten() for _ in range(rng.randint(0, 2))]
            flats += [vunit(n * n, rng.randrange(n * n)) for _ in range(rng.randint(1, 2))]
            meet = Subspace.span(n * n, flats)
            patch_calls_from(theorems, exactlin, "subspace_intersect", lambda *_, m=meet: m)
            report = verify_p35(a, identity_cert(a))
            monkeypatch.undo()
            want = p35_reference(a, meet)
            assert (report.conclusion_holds, report.witness, report.details) == want
            failing += isinstance(want[1], dict) and "indices" in want[1]
    assert failing > 20


def test_dhat_and_inner_match_the_dense_references():
    rng = random.Random(36)
    for a, _ in reference_cases():
        n = a.dim
        # The zero map's prescriptions all vanish, so its hat map is defined.
        zero_hat = dhat(a, Matrix.zero(n, n), identity_cert(a)).map
        assert zero_hat.domain == derived_algebra_reference(a)
        for _ in range(2 if n else 0):
            d_map, theta = rand_map(rng, n), rand_map(rng, n)
            g, h, i = (rand_vec(rng, n) for _ in range(3))
            assert dhat_binary_rhs(a, d_map, theta, g, h) \
                == dhat_binary_rhs_reference(a, d_map, theta, g, h)
            assert dhat_ternary_rhs(a, d_map, theta, g, h, i) \
                == dhat_ternary_rhs_reference(a, d_map, theta, g, h, i)
            cols = [tri(a.d, g, h, vunit(n, k)) for k in range(n)]
            assert inner_derivation(a, g, h) == Matrix.from_rows(cols).transpose()


# -- the dense tensors are never read ----------------------------------------

def stored_form_answers(a, twist, rng):
    """The answer of every reader and solver that once read c or d."""
    n = a.dim
    theta = certify_automorphism(a, twist) if twist else identity_cert(a)
    g, h, i = (rand_vec(rng, n) for _ in range(3))
    d_map = derivation_space(a).maps()[0]
    out = [theta, bracket(a, g, h), triple(a, g, h, i), inner_derivation(a, g, h), center(a),
           derived_algebra(a), algebra_to_dict(a)]
    for s in (Subspace.full(n), Subspace.zero(n), center(a), derived_algebra(a)):
        out += [is_subalgebra(a, s), is_ideal(a, s)]
        if is_ideal(a, s):
            out.append(is_abelian_ideal(a, s))
        if is_subalgebra(a, s):
            out.append(_extract_subalgebra(a, s))
    return out + [
        verify_p35(a, theta), dhat_binary_rhs(a, d_map, theta.map, g, h),
        dhat_ternary_rhs(a, d_map, theta.map, g, h, i), dhat(a, Matrix.zero(n, n), theta),
        dhat(a, d_map, theta), derivation_space(a), centroid(a),
        g_derivation_space(a, theta, theta), is_quasi_derivation(a, d_map)]


def test_products_are_read_from_the_stored_form_only(monkeypatch):
    rebased_sum, p, p_inv = rebased(catalog("sl2_plus_ab1"), 11)
    chev = p_inv.mul(Matrix.from_rows(SUM_CHEVALLEY)).mul(p)
    sl2_chev = Matrix.from_rows(CHEVALLEY)
    cases = ((rebased_sum, chev), (catalog("sl2"), sl2_chev), (catalog("sl2_plus_ab1"), None))
    want = [stored_form_answers(a, twist, random.Random(37)) for a, twist in cases]
    without_dense_tensors(monkeypatch)
    assert [stored_form_answers(a, twist, random.Random(37)) for a, twist in cases] == want
    with pytest.raises(AssertionError, match="dense tensor c"):
        rebased_sum.c


# -- basis covariance ----------------------------------------------------------

def test_structure_is_basis_covariant():
    """center(P.A) = P^-1 center(A), the same for the derived algebra, and
    the subalgebra and ideal verdicts on H equal those on P^-1 H, for
    rational P drawn by hypothesis."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    names = ("sl2", "h3", "aff2", "lts_sl2", "sl2_plus_ab1", "leibniz2", "abelian2")
    entries = st.fractions(min_value=-2, max_value=2, max_denominator=3)

    def cases(name):
        n = catalog(name).dim
        square = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
        vectors = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=n)
        return st.tuples(st.just(name), square, vectors)

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @hypothesis.given(st.sampled_from(names).flatmap(cases))
    def check(case):
        name, rows, span = case
        a = catalog(name)
        n = a.dim
        p = Matrix.from_rows(rows)
        p_inv = invert(p)
        hypothesis.assume(p_inv is not None)
        moved = transported(a, p, p_inv)

        def move(s):
            return Subspace.span(n, [p_inv.mul_vec(v) for v in s.basis])

        assert center(moved) == move(center(a))
        assert derived_algebra(moved) == move(derived_algebra(a))
        subspaces = [Subspace.span(n, span), center(a), derived_algebra(a)]
        subspaces += [s for s in plan_subspaces() if s.ambient_dim == n]
        for h in subspaces:
            assert is_subalgebra(moved, move(h)) == is_subalgebra(a, h)
            ideal = is_ideal(a, h)
            assert is_ideal(moved, move(h)) == ideal
            if ideal:
                assert is_abelian_ideal(moved, move(h)) == is_abelian_ideal(a, h)

    check()


def dense_prescriptions(a, d_map, theta):
    """Each product generator of ``a`` paired with its prescribed image from
    the dense reference formulas, in generator order."""
    n = a.dim
    dense = types.SimpleNamespace(c=a.c, d=a.d)
    u = [vunit(n, i) for i in range(n)]
    out = [(dense.c[i][j], dhat_binary_rhs_reference(dense, d_map, theta, u[i], u[j]))
           for i in range(n) for j in range(i + 1, n)]
    return out + [(dense.d[i][j][k],
                   dhat_ternary_rhs_reference(dense, d_map, theta, u[i], u[j], u[k]))
                  for i, j, k in itertools.product(range(n), repeat=3)]


def stabilized_subalgebras(a, theta):
    """The center, the derived algebra and the plan's subspaces of the right
    size that are subalgebras which theta maps into themselves."""
    found = []
    for h in [center(a), derived_algebra(a)] + [s for s in plan_subspaces()
                                               if s.ambient_dim == a.dim]:
        try:
            require_stabilized_subalgebra(a, theta, h)
        except MathError:
            continue
        if h not in found:
            found.append(h)
    return found


def test_stabilizer_hat_map_and_quasi_are_basis_covariant():
    """For rational P drawn by hypothesis, A' = P.A, f' = P^-1 f P for maps
    and H' = P^-1 H:
    - the stabilizer of H' for theta' is the conjugate of the reference
      stabilizer of H for theta;
    - the hat map of D' for theta' is consistent exactly when that of D for
      theta is and when the dense prescriptions of A' agree, and then it
      sends every product generator of A' to its dense prescribed image and
      P^-1 x to P^-1 D^(x);
    - D' is a quasi-derivation of A' exactly when D is one of A and the
      dense reference system of A' is solvable, and then on the products of
      A' the companions of D' are the conjugates of D's and the reference's.
    A consistently wrong identity stays covariant, so the dense references
    anchor each answer."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entries = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    seen = set()

    def draws(k):
        n = covariance_cases()[k][0].dim
        return st.tuples(st.just(k), st.lists(st.lists(entries, min_size=n, max_size=n),
                                              min_size=n, max_size=n))

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=20)
    @hypothesis.given(st.sampled_from(range(len(covariance_cases()))).flatmap(draws))
    def check(case):
        k, rows = case
        a, twists = covariance_cases()[k]
        n = a.dim
        p = Matrix.from_rows(rows)
        p_inv = invert(p)
        hypothesis.assume(p_inv is not None)
        moved = transported(a, p, p_inv)

        def conj(f):
            return p_inv.mul(f).mul(p)

        def pull(f, v):
            """f of A read in the basis of A': P^-1 f(P v)."""
            return p_inv.mul_vec(f.mul_vec(p.mul_vec(v)))

        maps = list(derivation_space(a).maps()[:2]) + [unflat(n, centroid(a).basis[0]),
                                                       rand_map(random.Random(k), n)]
        for twist in [Matrix.identity(n)] + twists:
            theta = certify_automorphism(a, twist)
            theta_moved = certify_automorphism(moved, conj(twist))
            twisted = single_twist_space(a, theta)
            for h in stabilized_subalgebras(a, theta):
                h_moved = Subspace.span(n, [p_inv.mul_vec(v) for v in h.basis])
                got = stabilizer_derivations(moved, theta_moved, h_moved)
                want = stabilizer_reference(a, twisted, h).basis
                assert got.space == Subspace.span(n * n, [
                    conj(unflat(n, flat)).flatten() for flat in want])
                seen.add(("stabilizer cut", got.dim < twisted.dim))
            for d_map in maps:
                base, got = dhat(a, d_map, theta), dhat(moved, conj(d_map), theta_moved)
                pairs = dense_prescriptions(moved, conj(d_map), conj(twist))
                gens = Matrix(len(pairs), n, (1, tuple(g for g, _ in pairs)))
                joined = Matrix(len(pairs), 2 * n, (1, tuple(g + y for g, y in pairs)))
                assert got.consistent == base.consistent == (rref(gens).rows == rref(joined).rows)
                seen.add(("dhat consistent", got.consistent))
                if got.consistent:
                    assert all(got.map.apply(g) == y for g, y in pairs if any(g))
                    assert all(got.map.apply(p_inv.mul_vec(x))
                               == p_inv.mul_vec(base.map.apply(x))
                               for x in base.map.domain.basis)
        u = [vunit(n, i) for i in range(n)]
        for d_map in maps:
            base, got = is_quasi_derivation(a, d_map), is_quasi_derivation(moved, conj(d_map))
            ref = quasi_reference(moved, conj(d_map))
            assert (got is None) == (base is None) == (ref is None)
            seen.add(("quasi feasible", got is not None))
            if got is not None:
                for i, j in itertools.product(range(n), repeat=2):
                    v = bracket(moved, u[i], u[j])
                    assert got.dprime.mul_vec(v) == pull(base.dprime, v) == ref.dprime.mul_vec(v)
                    for w in u:
                        v = triple(moved, u[i], u[j], w)
                        assert got.dprimeprime.mul_vec(v) == pull(base.dprimeprime, v) \
                            == ref.dprimeprime.mul_vec(v)

    check()
    assert seen == {(kind, flag) for kind in ("stabilizer cut", "dhat consistent", "quasi feasible")
                    for flag in (True, False)}
