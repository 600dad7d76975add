import functools
import itertools
import random
from fractions import Fraction

import pytest

from lya.derivations import derivation_space, g_derivation_space
from lya.errors import InputError, MathError
from lya.exactlin import Matrix, Subspace, invert, vadd, vec, vscale, vsub, vunit, vzero
from lya.lyalg import CATALOG_NAMES, LYAlgebra, binary_eval, catalog
from lya.maps import (
    AutCert,
    LinMap,
    _hom_defect,
    certify_automorphism,
    commutator,
    compose,
    inner_derivation,
    is_homomorphism,
    restrict_map,
    satisfies_derivation,
    satisfies_g_derivation,
)
from test_lyalg import contraction_oracle_ternary

E, F, H = 0, 1, 2


def ad(algebra, x):
    """Matrix of bracketing with x on the left, built column by column."""
    n = algebra.dim
    from lya.lyalg import bracket
    cols = [bracket(algebra, x, vunit(n, k)) for k in range(n)]
    return LinMap.from_columns(cols)


def chevalley_swap():
    # e <-> f, h -> -h in the catalog's (e, f, h) basis
    return LinMap.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, -1]])


def rand_vec(rng, n):
    return vec([Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n)])


def test_compose_identity():
    f = LinMap.from_rows([[1, 2], [3, 4]])
    assert compose(LinMap.identity(2), f) == f
    assert compose(f, LinMap.identity(2)) == f


def test_compose_with_inverse_is_identity():
    a = catalog("sl2")
    cert = certify_automorphism(a, chevalley_swap())
    assert compose(cert.map, cert.inverse) == LinMap.identity(3)
    assert compose(cert.inverse, cert.map) == LinMap.identity(3)


def test_compose_applies_right_factor_first():
    a = catalog("sl2")
    ad_h, ad_e = ad(a, vunit(3, H)), ad(a, vunit(3, E))
    rng = random.Random(3)
    v = rand_vec(rng, 3)
    assert compose(ad_h, ad_e).apply(v) == ad_h.apply(ad_e.apply(v))


def test_commutator_self_and_identity_vanish():
    f = LinMap.from_rows([[1, 2], [0, 1]])
    assert commutator(f, f).is_zero()
    assert commutator(LinMap.identity(2), f).is_zero()


def test_sl2_commutator_of_ad_maps():
    a = catalog("sl2")
    ad_e, ad_f, ad_h = (ad(a, vunit(3, i)) for i in (E, F, H))
    # ad[e,f] = ad h since ad is a Lie homomorphism
    assert commutator(ad_e, ad_f) == ad_h


def test_identity_is_homomorphism():
    for name in CATALOG_NAMES:
        a = catalog(name)
        assert is_homomorphism(a, LinMap.identity(a.dim))


def test_doubling_is_not_homomorphism_on_sl2():
    a = catalog("sl2")
    assert not is_homomorphism(a, LinMap.identity(3).scale(2))


def test_chevalley_swap_is_homomorphism():
    a = catalog("sl2")
    assert is_homomorphism(a, chevalley_swap())


def test_certify_identity():
    for name in CATALOG_NAMES:
        a = catalog(name)
        cert = certify_automorphism(a, LinMap.identity(a.dim))
        assert cert.inverse == LinMap.identity(a.dim)


def test_certify_negated_identity_on_lts():
    a = catalog("lts_sl2")
    cert = certify_automorphism(a, LinMap.identity(3).scale(-1))
    assert cert.inverse == LinMap.identity(3).scale(-1)


def test_negated_identity_rejected_on_sl2():
    a = catalog("sl2")
    with pytest.raises(MathError) as err:
        certify_automorphism(a, LinMap.identity(3).scale(-1))
    assert "homomorphism" in str(err.value)
    assert err.value.witness["kind"] == "binary"


def test_singular_map_rejected():
    a = catalog("abelian2")
    with pytest.raises(MathError) as err:
        certify_automorphism(a, LinMap.zero(2))
    assert "invertible" in str(err.value)


def test_inner_derivation_of_equal_arguments_vanishes():
    rng = random.Random(11)
    for name in ("sl2", "lts_sl2", "sl2_plus_ab1"):
        a = catalog(name)
        g = rand_vec(rng, a.dim)
        assert inner_derivation(a, g, g).is_zero()


def test_inner_derivation_abelian_zero():
    a = catalog("abelian3")
    assert inner_derivation(a, vunit(3, 0), vunit(3, 1)).is_zero()


def test_sl2_inner_e_f_is_ad_h():
    a = catalog("sl2")
    d_ef = inner_derivation(a, vunit(3, E), vunit(3, F))
    assert d_ef == ad(a, vunit(3, H))
    assert d_ef.apply(vunit(3, E)) == vec([2, 0, 0])
    assert d_ef.apply(vunit(3, F)) == vec([0, -2, 0])
    assert d_ef.apply(vunit(3, H)) == vzero(3)


def test_inner_derivations_pass_derivation_identities():
    rng = random.Random(12)
    for name in CATALOG_NAMES:
        a = catalog(name)
        if a.dim == 0:
            continue
        for _ in range(3):
            g, h = rand_vec(rng, a.dim), rand_vec(rng, a.dim)
            assert satisfies_derivation(a, inner_derivation(a, g, h))


def test_inner_derivation_bilinear():
    rng = random.Random(13)
    a = catalog("sl2_plus_ab1")
    u, v, w = (rand_vec(rng, 4) for _ in range(3))
    s, t = Fraction(3, 2), Fraction(-2)
    combo = vadd(vscale(s, u), vscale(t, v))
    lhs = inner_derivation(a, combo, w)
    rhs = inner_derivation(a, u, w).scale(s).add(inner_derivation(a, v, w).scale(t))
    assert lhs == rhs
    lhs2 = inner_derivation(a, w, combo)
    rhs2 = inner_derivation(a, w, u).scale(s).add(inner_derivation(a, w, v).scale(t))
    assert lhs2 == rhs2


def test_restrict_identity():
    s = Subspace.span(3, [[1, 0, 2], [0, 1, 1]])
    assert restrict_map(LinMap.identity(3), s) == LinMap.identity(2)


def test_restrict_inner_derivation_to_line():
    a = catalog("sl2")
    d_ef = inner_derivation(a, vunit(3, E), vunit(3, F))
    line = Subspace.span(3, [vunit(3, E)])
    assert restrict_map(d_ef, line) == LinMap.from_rows([[2]])


def test_restrict_non_invariant_rejected():
    a = catalog("sl2")
    d_ef = inner_derivation(a, vunit(3, E), vunit(3, F))
    plane = Subspace.span(3, [[1, 1, 0]])  # d_ef maps e+f to 2e-2f, outside
    with pytest.raises(MathError) as err:
        restrict_map(d_ef, plane)
    assert err.value.witness is not None


def test_restrict_respects_composition():
    a = catalog("sl2")
    h_line = Subspace.span(3, [vunit(3, H)])
    f1 = inner_derivation(a, vunit(3, E), vunit(3, F))  # kills h
    f2 = LinMap.identity(3).scale(3)
    left = restrict_map(compose(f1, f2), h_line)
    right = compose(restrict_map(f1, h_line), restrict_map(f2, h_line))
    assert left == right


def test_restrict_to_zero_subspace():
    f = LinMap.from_rows([[1, 2], [3, 4]])
    r = restrict_map(f, Subspace.zero(2))
    assert r.dim == 0


def test_dimension_mismatch_rejected():
    a = catalog("sl2")
    with pytest.raises(InputError):
        is_homomorphism(a, LinMap.identity(2))
    with pytest.raises(InputError):
        compose(LinMap.identity(2), LinMap.identity(3))


def test_unflatten_round_trip():
    f = LinMap.from_rows([[1, 2], [3, 4]])
    assert LinMap.unflatten(2, f.flatten()) == f


# Reference re-checks for satisfies_g_derivation and _hom_defect: direct
# evaluation basis tuple by basis tuple, each product of basis images
# contracted on its own in Fraction arithmetic.

def satisfies_g_derivation_reference(algebra, f, theta, vartheta):
    n = algebra.dim
    fi = [f.apply(vunit(n, i)) for i in range(n)]
    ti = [theta.apply(vunit(n, i)) for i in range(n)]
    vi = [vartheta.apply(vunit(n, i)) for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = f.apply(algebra.c[i][j])
            rhs = vadd(binary_eval(algebra.c, fi[i], ti[j]),
                       binary_eval(algebra.c, vi[i], fi[j]))
            if lhs != rhs:
                return False
    for i, j, k in itertools.product(range(n), repeat=3):
        lhs = f.apply(algebra.d[i][j][k])
        rhs = contraction_oracle_ternary(algebra.d, fi[i], ti[j], vi[k])
        rhs = vadd(rhs, contraction_oracle_ternary(algebra.d, vi[i], fi[j], ti[k]))
        rhs = vadd(rhs, contraction_oracle_ternary(algebra.d, ti[i], vi[j], fi[k]))
        if lhs != rhs:
            return False
    return True


def hom_defect_reference(algebra, f):
    n = algebra.dim
    images = [f.apply(vunit(n, i)) for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = f.apply(algebra.c[i][j])
            rhs = binary_eval(algebra.c, images[i], images[j])
            if lhs != rhs:
                return ("binary", (i, j), vsub(lhs, rhs))
    for i, j, k in itertools.product(range(n), repeat=3):
        lhs = f.apply(algebra.d[i][j][k])
        rhs = contraction_oracle_ternary(algebra.d, images[i], images[j], images[k])
        if lhs != rhs:
            return ("ternary", (i, j, k), vsub(lhs, rhs))
    return None


def rebased(a, seed):
    """``a`` in a seeded random rational basis P: products are P^-1 c(Pe_i, Pe_j)."""
    rng = random.Random(seed)
    n = a.dim
    while True:
        p = Matrix.from_rows([[Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))
                               for _ in range(n)] for _ in range(n)])
        p_inv = invert(p)
        if p_inv is not None:
            break
    cols = [p.col(i) for i in range(n)]
    c = [[p_inv.mul_vec(binary_eval(a.c, cols[i], cols[j])) for j in range(n)]
         for i in range(n)]
    d = [[[p_inv.mul_vec(contraction_oracle_ternary(a.d, cols[i], cols[j], cols[k])) for k in range(n)]
          for j in range(n)] for i in range(n)]
    return LYAlgebra.from_tensors(a.labels, c, d), p, p_inv


def rand_map(rng, n):
    return LinMap.from_rows([[Fraction(rng.randint(-3, 3), rng.choice([1, 2, 5]))
                              for _ in range(n)] for _ in range(n)])


def shifted(rng, f):
    """f with one seeded entry raised by 1/3."""
    n = f.dim
    rows = [list(r) for r in f.matrix.entries]
    rows[rng.randrange(n)][rng.randrange(n)] += Fraction(1, 3)
    return LinMap.from_rows(rows)


@functools.cache
def recheck_cases():
    """(algebra, twist pairs, maps) over the catalog and a rebased sum algebra.

    The twist pairs combine the identity, the negated identity and the
    Chevalley swap (transported into each basis where it fits), plus two
    random rational pairs.  The maps are every basis map of the derivation
    solver and of the twisted solver for each pair of automorphisms (as the
    reference recognizes them), each of those with one entry shifted by 1/3,
    two random rational maps, the zero map and the twists.
    """
    rng = random.Random(41)
    cases = []
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, -1]]
    algebras = [(catalog(name), None, None) for name in CATALOG_NAMES]
    algebras.append(rebased(catalog("sl2_plus_ab1"), seed=11))
    for a, p, p_inv in algebras:
        n = a.dim
        ident = LinMap.identity(n)
        twists = [ident, ident.scale(-1)]
        if n >= 3:
            chev = Matrix.from_rows([[swap[i][j] if max(i, j) < 3 else int(i == j)
                                      for j in range(n)] for i in range(n)])
            if p is not None:
                chev = p_inv.mul(chev).mul(p)
            twists.append(LinMap(n, chev))
        pairs = [(t, v) for t in twists for v in twists]
        pairs += [(rand_map(rng, n), rand_map(rng, n)) for _ in range(2)]
        solved = list(derivation_space(a).maps())
        for theta, vartheta in pairs:
            inverses = [invert(g.matrix) for g in (theta, vartheta)]
            if None not in inverses and all(hom_defect_reference(a, g) is None
                                            for g in (theta, vartheta)):
                certs = [AutCert(g, LinMap(n, inv)) for g, inv in zip((theta, vartheta), inverses)]
                solved += g_derivation_space(a, *certs).maps()
        solved = list(dict.fromkeys(solved))
        maps = solved + [shifted(rng, f) for f in solved]
        maps += [rand_map(rng, n) for _ in range(2)] + [LinMap.zero(n)]
        cases.append((a, pairs, maps + twists))
    return cases


def test_satisfies_g_derivation_matches_reference():
    outcomes = []
    for a, pairs, maps in recheck_cases():
        for theta, vartheta in pairs:
            for f in maps:
                got = satisfies_g_derivation(a, f, theta, vartheta)
                assert got == satisfies_g_derivation_reference(a, f, theta, vartheta)
                outcomes.append(got)
    assert outcomes.count(True) > 600 and outcomes.count(False) > 1000


def test_hom_defect_matches_reference():
    kinds = set()
    residual_dens = set()
    for a, pairs, maps in recheck_cases():
        for f in maps + [g for pair in pairs for g in pair]:
            got = _hom_defect(a, f)
            assert got == hom_defect_reference(a, f)
            kinds.add(None if got is None else got[0])
            if got is not None:
                residual_dens |= {x.denominator for x in got[2]}
    assert kinds == {None, "binary", "ternary"}
    assert max(residual_dens) > 1
