import functools
import itertools
import operator
import random
from fractions import Fraction

import pytest

from lya.errors import InternalCheckError, MathError
from lya.exactlin import (
    Matrix,
    Subspace,
    coordinates,
    nullspace,
    rank,
    rref,
    solve,
    subspace_contains,
    subspace_intersect,
    vadd,
    vis_zero,
    vscale,
    vunit,
    vzero,
)
from lya.lyalg import (
    CATALOG_NAMES,
    binary_eval,
    bracket,
    catalog,
    check_axioms,
    direct_sum,
    from_lie,
    triple,
)
from lya.maps import (
    LinMap,
    certify_automorphism,
    commutator,
    identity_cert,
    inner_derivation,
    satisfies_derivation,
    satisfies_g_derivation,
)
from lya import derivations
from lya.derivations import (
    DhatClash,
    DhatResult,
    PartialMap,
    QuasiWitness,
    centroid,
    derivation_space,
    dhat,
    dhat_binary_rhs,
    dhat_ternary_rhs,
    g_derivation_space,
    is_quasi_derivation,
    quasi_witness_satisfies,
    single_twist_space,
    stabilizer_derivations,
)
from lya.structure import derived_algebra
from test_lyalg import contraction_oracle_ternary
from test_maps import rand_map, rebased, shifted

E, F, H = 0, 1, 2

SOLVER_NAMES = ("abelian2", "sl2", "h3", "aff2", "lts_sl2", "sl2_plus_ab1", "leibniz2")


def chevalley_cert():
    return certify_automorphism(
        catalog("sl2"), LinMap.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, -1]]))


def neg_cert(name):
    a = catalog(name)
    return certify_automorphism(a, LinMap.identity(a.dim).scale(-1))


def probe_constraint_matrix(algebra, residual):
    """Oracle assembler: probe an identity linear in D with unit matrices.

    ``residual(D)`` returns the identity's defect for the map D as one flat
    list over all basis tuples.  Column p*n + q of the constraint matrix is
    the defect of the matrix unit E_pq, so the matrix's nullspace is the
    space of maps satisfying the identity.
    """
    n = algebra.dim
    columns = [residual(LinMap.unflatten(n, vunit(n * n, flat))) for flat in range(n * n)]
    rows = len(columns[0]) if columns else 0
    return Matrix(rows, n * n, tuple(
        tuple(columns[q][r] for q in range(n * n)) for r in range(rows)))


def twisted_residual(algebra, theta, vartheta):
    """Defect of the twisted identities, products through bracket/triple:

    D[x,y] - [Dx, θy] - [ϑx, Dy] on basis pairs and
    D{x,y,z} - {Dx, θy, ϑz} - {ϑx, Dy, θz} - {θx, ϑy, Dz} on basis triples.
    """
    n = algebra.dim
    units = [vunit(n, i) for i in range(n)]
    t = [theta.apply(u) for u in units]
    v = [vartheta.apply(u) for u in units]

    def residual(unit_map):
        du = [unit_map.apply(u) for u in units]
        out = []
        for i, j in itertools.product(range(n), repeat=2):
            defect = unit_map.apply(bracket(algebra, units[i], units[j]))
            defect = vadd(defect, vscale(-1, bracket(algebra, du[i], t[j])))
            defect = vadd(defect, vscale(-1, bracket(algebra, v[i], du[j])))
            out.extend(defect)
        for i, j, k in itertools.product(range(n), repeat=3):
            defect = unit_map.apply(triple(algebra, units[i], units[j], units[k]))
            defect = vadd(defect, vscale(-1, triple(algebra, du[i], t[j], v[k])))
            defect = vadd(defect, vscale(-1, triple(algebra, v[i], du[j], t[k])))
            defect = vadd(defect, vscale(-1, triple(algebra, t[i], v[j], du[k])))
            out.extend(defect)
        return out

    return residual


def centroid_residual(algebra):
    """Defect of D[x,y] = [Dx, y] and D{x,y,z} = {Dx, y, z} on basis tuples."""
    n = algebra.dim
    units = [vunit(n, i) for i in range(n)]

    def residual(unit_map):
        out = []
        for i, j in itertools.product(range(n), repeat=2):
            defect = unit_map.apply(bracket(algebra, units[i], units[j]))
            defect = vadd(defect, vscale(-1, bracket(algebra, unit_map.apply(units[i]),
                                                     units[j])))
            out.extend(defect)
        for i, j, k in itertools.product(range(n), repeat=3):
            defect = unit_map.apply(triple(algebra, units[i], units[j], units[k]))
            defect = vadd(defect, vscale(-1, triple(algebra, unit_map.apply(units[i]),
                                                    units[j], units[k])))
            out.extend(defect)
        return out

    return residual


def probe_lie_derivation_rows(algebra):
    """Oracle assembler: probe the binary Leibniz defect with unit matrices.

    Builds the constraint matrix column by column by evaluating
    D([e_i,e_j]) - [D e_i, e_j] - [e_i, D e_j] for D ranging over the unit
    matrices, with products computed through the public bracket function.
    """
    n = algebra.dim
    units = [vunit(n, i) for i in range(n)]

    def residual(unit_map):
        out = []
        for i, j in itertools.product(range(n), repeat=2):
            defect = unit_map.apply(algebra.c[i][j])
            defect = vadd(defect, vscale(-1, bracket(algebra, unit_map.apply(units[i]),
                                                     units[j])))
            defect = vadd(defect, vscale(-1, bracket(algebra, units[i],
                                                     unit_map.apply(units[j]))))
            out.extend(defect)
        return out

    return probe_constraint_matrix(algebra, residual)


def probe_twisted_space(algebra, theta, vartheta):
    return nullspace(probe_constraint_matrix(algebra, twisted_residual(algebra, theta, vartheta)))


def quasi_system_by_probing(algebra, d_map):
    """Oracle assembler for the companion system: probe each unknown entry.

    Returns (matrix, rhs) with unknowns ordered as (dprime, dprimeprime),
    assembled by plugging unit matrices into the companion side and reading
    the right-hand side off direct product evaluations.
    """
    n = algebra.dim
    units = [vunit(n, i) for i in range(n)]
    du = [d_map.apply(u) for u in units]
    pairs = list(itertools.product(range(n), repeat=2))
    triples = list(itertools.product(range(n), repeat=3))
    n_rows = (len(pairs) + len(triples)) * n
    columns = []
    for block, flat in itertools.product(range(2), range(n * n)):
        unit_map = LinMap.unflatten(n, vunit(n * n, flat))
        col = []
        for i, j in pairs:
            img = unit_map.apply(algebra.c[i][j]) if block == 0 else vzero(n)
            col.extend(img)
        for i, j, k in triples:
            img = unit_map.apply(algebra.d[i][j][k]) if block == 1 else vzero(n)
            col.extend(img)
        columns.append(col)
    rhs = []
    for i, j in pairs:
        rhs.extend(vadd(bracket(algebra, du[i], units[j]), bracket(algebra, units[i], du[j])))
    for i, j, k in triples:
        val = triple(algebra, du[i], units[j], units[k])
        val = vadd(val, triple(algebra, units[i], du[j], units[k]))
        val = vadd(val, triple(algebra, units[i], units[j], du[k]))
        rhs.extend(val)
    m = Matrix(n_rows, 2 * n * n, tuple(
        tuple(columns[q][r] for q in range(2 * n * n)) for r in range(n_rows)))
    return m, tuple(rhs)


def joint_quasi_projection(algebra):
    """Space of all maps admitting companions, via a joint nullspace.

    The defining equations are linear in (D, dprime, dprimeprime) together;
    projecting the joint kernel onto the D block yields every feasible D.
    """
    n = algebra.dim
    c, d = algebra.c, algebra.d
    unknowns = 3 * n * n

    def x_idx(p, q):
        return p * n + q

    rows = []
    for i, j in itertools.product(range(n), repeat=2):
        for l in range(n):
            row = [Fraction(0)] * unknowns
            for a in range(n):
                row[x_idx(a, i)] += c[a][j][l]
                row[x_idx(a, j)] += c[i][a][l]
                row[n * n + x_idx(l, a)] -= c[i][j][a]
            rows.append(tuple(row))
    for i, j, k in itertools.product(range(n), repeat=3):
        for l in range(n):
            row = [Fraction(0)] * unknowns
            for a in range(n):
                row[x_idx(a, i)] += d[a][j][k][l]
                row[x_idx(a, j)] += d[i][a][k][l]
                row[x_idx(a, k)] += d[i][j][a][l]
                row[2 * n * n + x_idx(l, a)] -= d[i][j][k][a]
            rows.append(tuple(row))
    ker = nullspace(Matrix(len(rows), unknowns, tuple(rows)))
    return Subspace.span(n * n, [k[: n * n] for k in ker.basis])


def test_duplicated_assemblers_agree():
    for name in SOLVER_NAMES:
        a = catalog(name)
        direct = derivation_space(a)
        twisted = g_derivation_space(a, identity_cert(a), identity_cert(a))
        assert direct.space == twisted.space


def test_derivation_space_matches_probe_oracle():
    for name in SOLVER_NAMES:
        a = catalog(name)
        ident = LinMap.identity(a.dim)
        assert probe_twisted_space(a, ident, ident) == derivation_space(a).space


TWISTS = {
    "chevalley": [[0, 1, 0], [1, 0, 0], [0, 0, -1]],
    "torus": [[2, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 1]],
    "torus4": [[2, 0, 0, 0], [0, Fraction(1, 2), 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]],
}


def twist_cert(name, twist):
    a = catalog(name)
    if twist == "id":
        return identity_cert(a)
    if twist == "neg":
        return neg_cert(name)
    return certify_automorphism(a, LinMap.from_rows(TWISTS[twist]))


# Mixed pairs with a nonzero ternary product and a nonzero twisted space
# tell the twist slots apart: swapping theta and vartheta in one term of the
# solver changes its answer on them.
@pytest.mark.parametrize("name,theta,vartheta", [
    ("sl2", "id", "id"),
    ("sl2", "chevalley", "chevalley"),
    ("sl2", "chevalley", "id"),
    ("sl2", "id", "chevalley"),
    ("sl2", "torus", "torus"),
    ("lts_sl2", "neg", "neg"),
    ("lts_sl2", "neg", "id"),
    ("lts_sl2", "id", "neg"),
    ("lts_sl2", "chevalley", "id"),
    ("lts_sl2", "id", "chevalley"),
    ("lts_sl2", "torus", "chevalley"),
    ("sl2_plus_ab1", "torus4", "id"),
    ("sl2_plus_ab1", "id", "torus4"),
    ("abelian2", "neg", "id"),
])
def test_g_derivation_space_matches_probe_oracle(name, theta, vartheta):
    a = catalog(name)
    t, v = twist_cert(name, theta), twist_cert(name, vartheta)
    space = g_derivation_space(a, t, v)
    assert probe_twisted_space(a, t.map, v.map) == space.space


def test_centroid_matches_probe_oracle():
    for name in SOLVER_NAMES + ("abelian3",):
        a = catalog(name)
        assert nullspace(probe_constraint_matrix(a, centroid_residual(a))) == centroid(a)


def test_derivation_dims_match_frozen_oracle_values():
    assert derivation_space(catalog("abelian2")).dim == 4
    assert derivation_space(catalog("sl2")).dim == 3
    assert derivation_space(catalog("h3")).dim == 6


def test_h3_dim_against_lie_derivation_probe():
    a = catalog("h3")
    # ternary tensor is zero, so the full solver sees binary constraints only
    probe = probe_lie_derivation_rows(a)
    assert nullspace(probe).dim == 6
    assert nullspace(probe) == derivation_space(a).space


def test_sl2_derivations_are_spanned_by_inner_maps():
    a = catalog("sl2")
    der = derivation_space(a)
    inner = Subspace.span(9, [
        inner_derivation(a, vunit(3, E), vunit(3, F)).flatten(),
        inner_derivation(a, vunit(3, H), vunit(3, E)).flatten(),
        inner_derivation(a, vunit(3, H), vunit(3, F)).flatten(),
    ])
    assert inner == der.space


def test_inner_derivations_lie_inside_derivation_space():
    for name in SOLVER_NAMES:
        a = catalog(name)
        der = derivation_space(a)
        for i in range(a.dim):
            for j in range(a.dim):
                d_ij = inner_derivation(a, vunit(a.dim, i), vunit(a.dim, j))
                assert der.contains(d_ij)


def test_derivations_closed_under_commutator():
    for name in SOLVER_NAMES:
        a = catalog(name)
        der = derivation_space(a)
        for f in der.maps():
            for g in der.maps():
                assert der.contains(commutator(f, g))


def test_derivation_space_soundness_recheck():
    for name in SOLVER_NAMES:
        a = catalog(name)
        for f in derivation_space(a).maps():
            assert satisfies_derivation(a, f)


def test_twisted_space_on_abelian_is_everything():
    a = catalog("abelian3")
    cert = certify_automorphism(a, LinMap.from_rows([[1, 1, 0], [0, 1, 0], [2, 0, 3]]))
    assert g_derivation_space(a, cert, cert).dim == 9
    assert single_twist_space(a, cert).dim == 9


def test_sl2_chevalley_double_twist_dim_matches_plain():
    sl2 = catalog("sl2")
    chev = chevalley_cert()
    assert g_derivation_space(sl2, chev, chev).dim == derivation_space(sl2).dim == 3


def test_single_twist_identity_is_plain_derivations():
    for name in ("sl2", "lts_sl2"):
        a = catalog(name)
        assert single_twist_space(a, identity_cert(a)).space == derivation_space(a).space


def test_lts_negation_twist_space_reverified():
    a = catalog("lts_sl2")
    cert = neg_cert("lts_sl2")
    both = g_derivation_space(a, cert, cert)
    assert both.dim == 3
    for f in both.maps():
        assert satisfies_g_derivation(a, f, cert.map, cert.map)
    single = single_twist_space(a, cert)
    for f in single.maps():
        assert satisfies_g_derivation(a, f, cert.map, LinMap.identity(3))


def test_twisted_space_closed_under_combinations():
    rng = random.Random(17)
    sl2 = catalog("sl2")
    chev = chevalley_cert()
    space = g_derivation_space(sl2, chev, chev)
    maps = space.maps()
    for _ in range(5):
        combo = LinMap.zero(3)
        for f in maps:
            combo = combo.add(f.scale(Fraction(rng.randint(-3, 3), rng.choice([1, 2]))))
        assert satisfies_g_derivation(sl2, combo, chev.map, chev.map)


def test_centroid_of_abelian_is_all_maps():
    assert centroid(catalog("abelian3")).dim == 9


def test_centroid_of_sl2_is_scalars():
    c = centroid(catalog("sl2"))
    assert c.dim == 1
    assert c.contains_vector(LinMap.identity(3).flatten())


def test_centroid_of_direct_sum_is_blockwise_scalars():
    c = centroid(catalog("sl2_plus_ab1"))
    assert c.dim == 2
    block1 = LinMap.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
    block2 = LinMap.from_rows([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]])
    assert c.contains_vector(block1.flatten())
    assert c.contains_vector(block2.flatten())


def test_quasi_accepts_derivations_everywhere():
    for name in SOLVER_NAMES:
        a = catalog(name)
        for d_map in derivation_space(a).maps():
            w = is_quasi_derivation(a, d_map)
            assert w is not None
            assert quasi_witness_satisfies(a, d_map, w)


def test_quasi_accepts_centroid_everywhere():
    for name in SOLVER_NAMES:
        a = catalog(name)
        for flat in centroid(a).basis:
            d_map = LinMap.unflatten(a.dim, flat)
            w = is_quasi_derivation(a, d_map)
            assert w is not None
            assert quasi_witness_satisfies(a, d_map, w)


def test_centroid_members_admit_the_forced_companion_pair():
    # summing the centroid identity over the two (resp. three) slots forces
    # the companions 2D and 3D
    from lya.derivations import QuasiWitness

    for name in ("sl2", "sl2_plus_ab1", "h3"):
        a = catalog(name)
        for flat in centroid(a).basis:
            d_map = LinMap.unflatten(a.dim, flat)
            forced = QuasiWitness(dprime=d_map.scale(2), dprimeprime=d_map.scale(3))
            assert quasi_witness_satisfies(a, d_map, forced)


def test_assembled_row_spaces_match_for_small_dims():
    # the constraint rows behind a solver span the annihilator of its space;
    # compare that row space with the probe's on every catalog algebra of
    # dimension at most 3, for the plain and the identity-twisted solver
    for name in ("abelian2", "sl2", "h3", "aff2", "lts_sl2", "leibniz2"):
        a = catalog(name)
        if a.dim > 3:
            continue
        n2 = a.dim ** 2
        probe = probe_constraint_matrix(
            a, twisted_residual(a, LinMap.identity(a.dim), LinMap.identity(a.dim)))
        probe_rows = Subspace.span(n2, probe.entries)
        for space in (derivation_space(a).space,
                      g_derivation_space(a, identity_cert(a), identity_cert(a)).space):
            annihilator = nullspace(Matrix(space.dim, n2, space.basis))
            assert probe_rows == annihilator


def test_quasi_feasible_set_is_strict_on_sl2():
    a = catalog("sl2")
    qder = joint_quasi_projection(a)
    assert qder.dim < 9
    # per-map feasibility agrees with the joint projection on all unit maps
    rejected = None
    for p in range(3):
        for q in range(3):
            unit_map = LinMap.unflatten(3, vunit(9, p * 3 + q))
            feasible = is_quasi_derivation(a, unit_map) is not None
            assert feasible == subspace_contains(qder, unit_map.flatten())
            if not feasible and rejected is None:
                rejected = unit_map
    assert rejected is not None
    # the rejection is certified by a rank gap in the probed companion system
    m, rhs = quasi_system_by_probing(a, rejected)
    aug = Matrix(m.rows, m.cols + 1,
                 tuple(row + (rhs[i],) for i, row in enumerate(m.entries)))
    assert rank(aug) > rank(m)


def test_quasi_probed_assembler_matches_solver_on_accepted_maps():
    a = catalog("sl2")
    d_map = derivation_space(a).maps()[0]
    m, rhs = quasi_system_by_probing(a, d_map)
    aug = Matrix(m.rows, m.cols + 1,
                 tuple(row + (rhs[i],) for i, row in enumerate(m.entries)))
    assert rank(aug) == rank(m)
    assert is_quasi_derivation(a, d_map) is not None


def test_stabilizer_full_and_zero_subspace_give_whole_twist_space():
    a = catalog("sl2")
    cert = identity_cert(a)
    der = single_twist_space(a, cert)
    assert stabilizer_derivations(a, cert, Subspace.full(3)).space == der.space
    assert stabilizer_derivations(a, cert, Subspace.zero(3)).space == der.space


def test_stabilizer_of_perfect_ideal_is_everything():
    a = catalog("sl2_plus_ab1")
    cert = identity_cert(a)
    block = Subspace.span(4, [vunit(4, 0), vunit(4, 1), vunit(4, 2)])
    stab = stabilizer_derivations(a, cert, block)
    assert stab.space == single_twist_space(a, cert).space


def test_stabilizer_rejects_non_subalgebra():
    a = catalog("sl2")
    with pytest.raises(MathError):
        stabilizer_derivations(a, identity_cert(a),
                               Subspace.span(3, [vunit(3, E), vunit(3, F)]))


def test_stabilizer_rejects_non_invariant_theta():
    a = catalog("sl2")
    chev = chevalley_cert()  # swaps e and f, so span{e} is not invariant
    with pytest.raises(MathError):
        stabilizer_derivations(a, chev, Subspace.span(3, [vunit(3, E)]))


def test_stabilizer_members_stabilize():
    a = catalog("sl2")
    cert = identity_cert(a)
    line = Subspace.span(3, [vunit(3, E)])
    stab = stabilizer_derivations(a, cert, line)
    assert 0 < stab.dim < derivation_space(a).dim + 1
    for f in stab.maps():
        assert line.contains_vector(f.apply(vunit(3, E)))


def test_dhat_abelian_has_empty_domain():
    a = catalog("abelian3")
    r = dhat(a, LinMap.from_rows([[1, 2, 0], [0, 1, 0], [0, 0, 5]]), identity_cert(a))
    assert r.consistent
    assert r.map.domain.dim == 0


def test_dhat_on_binary_only_algebra_returns_the_derivation():
    a = catalog("h3")
    cert = identity_cert(a)
    for d_map in derivation_space(a).maps():
        r = dhat(a, d_map, cert)
        assert r.consistent
        w = derived_algebra(a)
        for b in w.basis:
            assert r.map.apply(b) == d_map.apply(b)


def test_dhat_inconsistent_for_nonzero_derivation_of_sl2():
    a = catalog("sl2")
    ad_h = inner_derivation(a, vunit(3, E), vunit(3, F))
    r = dhat(a, ad_h, identity_cert(a))
    assert not r.consistent
    clash = r.clash
    assert clash is not None
    # re-verify the certificate from the raw tensors
    combo = vzero(3)
    rhs = vzero(3)
    for tag, coeff in clash.terms:
        if tag[0] == "binary":
            _, i, j = tag
            combo = vadd(combo, vscale(coeff, a.c[i][j]))
            rhs = vadd(rhs, vscale(coeff, dhat_binary_rhs(
                a, ad_h, LinMap.identity(3), vunit(3, i), vunit(3, j))))
        else:
            _, i, j, k = tag
            combo = vadd(combo, vscale(coeff, a.d[i][j][k]))
            rhs = vadd(rhs, vscale(coeff, dhat_ternary_rhs(
                a, ad_h, LinMap.identity(3), vunit(3, i), vunit(3, j), vunit(3, k))))
    assert combo == vzero(3)
    assert rhs == clash.mismatch
    assert rhs != vzero(3)


def test_dhat_binary_vs_ternary_forcing_on_sl2():
    # binary prescriptions alone pin the map to D, ternary ones to 4 D
    a = catalog("sl2")
    cert = identity_cert(a)
    ad_h = inner_derivation(a, vunit(3, E), vunit(3, F))
    units = [vunit(3, i) for i in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            prescribed = dhat_binary_rhs(a, ad_h, cert.map, units[i], units[j])
            assert prescribed == ad_h.apply(a.c[i][j])
    for i, j, k in itertools.product(range(3), repeat=3):
        prescribed = dhat_ternary_rhs(a, ad_h, cert.map, units[i], units[j], units[k])
        assert prescribed == vscale(4, ad_h.apply(a.d[i][j][k]))
    # the two forcings disagree on a nonzero product vector
    assert ad_h.apply(a.c[E][H]) != vscale(4, ad_h.apply(a.c[E][H]))


# Reference re-checks for the centroid and the quasi-derivation companions:
# direct evaluation basis tuple by basis tuple in Fraction arithmetic.

def centroid_recheck_reference(algebra, f):
    """The InternalCheckError message the centroid re-check gives f, or None."""
    n = algebra.dim
    c, d = algebra.c, algebra.d
    units = [vunit(n, i) for i in range(n)]
    fu = [f.apply(u) for u in units]
    for i, j in itertools.product(range(n), repeat=2):
        if binary_eval(c, units[i], fu[j]) != f.apply(c[i][j]):
            return "centroid member fails the right-slot identity"
    for i, j, k in itertools.product(range(n), repeat=3):
        want = f.apply(d[i][j][k])
        if contraction_oracle_ternary(d, units[i], fu[j], units[k]) != want:
            return "centroid member fails the middle-slot identity"
        if contraction_oracle_ternary(d, units[i], units[j], fu[k]) != want:
            return "centroid member fails the last-slot identity"
    return None


def quasi_witness_satisfies_reference(algebra, d_map, witness):
    n = algebra.dim
    c, d = algebra.c, algebra.d
    units = [vunit(n, i) for i in range(n)]
    du = [d_map.apply(u) for u in units]
    for i, j in itertools.product(range(n), repeat=2):
        lhs = vadd(binary_eval(c, du[i], units[j]), binary_eval(c, units[i], du[j]))
        if lhs != witness.dprime.apply(c[i][j]):
            return False
    for i, j, k in itertools.product(range(n), repeat=3):
        lhs = contraction_oracle_ternary(d, du[i], units[j], units[k])
        lhs = vadd(lhs, contraction_oracle_ternary(d, units[i], du[j], units[k]))
        lhs = vadd(lhs, contraction_oracle_ternary(d, units[i], units[j], du[k]))
        if lhs != witness.dprimeprime.apply(d[i][j][k]):
            return False
    return True


def recheck_algebras():
    return [catalog(name) for name in SOLVER_NAMES] + [rebased(catalog("sl2_plus_ab1"), 11)[0]]


def test_centroid_recheck_matches_reference(monkeypatch):
    # The solver's nullspace is replaced by the span of one chosen map, so
    # the re-check sees members that may fail any of its three identities.
    rng = random.Random(43)
    cases = []
    for a in recheck_algebras():
        members = [LinMap.unflatten(a.dim, flat) for flat in centroid(a).basis]
        candidates = members + [shifted(rng, f) for f in members]
        candidates += list(derivation_space(a).maps())[:3]
        candidates += [rand_map(rng, a.dim) for _ in range(3)]
        if a == catalog("lts_sl2"):
            # fails the middle and the last slot first at the same triple (0, 1, 1)
            candidates.append(LinMap.from_rows([[0, 2, 1], [0, 0, -1], [0, -1, 0]]))
        cases.append((a, candidates))
    messages = set()
    for a, candidates in cases:
        for f in candidates:
            if f.is_zero():
                continue
            monkeypatch.setattr(derivations, "nullspace",
                                lambda m, f=f: Subspace.span(f.dim ** 2, [f.flatten()]))
            want = centroid_recheck_reference(a, f)
            if want is None:
                centroid(a)
            else:
                with pytest.raises(InternalCheckError) as err:
                    centroid(a)
                assert str(err.value) == want
            messages.add(want)
    assert messages == {None, "centroid member fails the right-slot identity",
                        "centroid member fails the middle-slot identity",
                        "centroid member fails the last-slot identity"}


def test_quasi_witness_satisfies_matches_reference():
    rng = random.Random(44)
    outcomes = []
    for a in recheck_algebras():
        n = a.dim
        maps = list(derivation_space(a).maps())
        maps += [LinMap.unflatten(n, flat) for flat in centroid(a).basis]
        maps += [rand_map(rng, n) for _ in range(2)]
        for d_map in maps:
            solved = is_quasi_derivation(a, d_map)
            witnesses = [QuasiWitness(d_map.scale(2), d_map.scale(3)),
                         QuasiWitness(rand_map(rng, n), rand_map(rng, n)),
                         QuasiWitness(LinMap.zero(n), LinMap.zero(n))]
            if solved is not None:
                witnesses += [solved,
                              QuasiWitness(shifted(rng, solved.dprime), solved.dprimeprime),
                              QuasiWitness(solved.dprime, shifted(rng, solved.dprimeprime))]
            for w in witnesses:
                got = quasi_witness_satisfies(a, d_map, w)
                assert got == quasi_witness_satisfies_reference(a, d_map, w)
                outcomes.append(got)
    assert outcomes.count(True) > 50 and outcomes.count(False) > 100


def counting(counts, name, func):
    def wrapper(*args):
        counts[name] += 1
        return func(*args)
    return wrapper


def test_solvers_and_rechecks_reuse_the_stored_form(monkeypatch):
    """Solvers, re-checks and verifiers on a built algebra never rebuild its
    integer form; building an algebra makes it once."""
    from lya import lyalg, theorems

    sl2, (rebased_sum, _, _) = catalog("sl2"), rebased(catalog("sl2_plus_ab1"), 11)
    chev = LinMap.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, -1]])
    adh = LinMap.from_rows([[2, 0, 0], [0, -2, 0], [0, 0, 0]])
    counts = {"form": 0}
    monkeypatch.setattr(lyalg, "_cleared", counting(counts, "form", lyalg._cleared))
    for a in (sl2, rebased_sum):
        derivation_space(a)
        centroid(a)
    cert = certify_automorphism(sl2, chev)
    witness = is_quasi_derivation(sl2, adh)
    assert quasi_witness_satisfies(sl2, adh, witness)
    assert theorems.verify_t32(sl2, cert).conclusion_holds
    assert counts["form"] == 0
    lyalg.LYAlgebra.from_tensors(sl2.labels, sl2.c, sl2.d)
    assert counts["form"] == 1


def test_verify_suite_builds_the_form_once_per_algebra(monkeypatch):
    from lya import lyalg, theorems

    counts = {"form": 0, "check": 0}
    monkeypatch.setattr(lyalg, "_cleared", counting(counts, "form", lyalg._cleared))
    monkeypatch.setattr(lyalg, "check_axioms", counting(counts, "check", lyalg.check_axioms))
    lyalg.catalog.cache_clear()
    theorems.default_catalog_reports()
    assert 0 < counts["form"] == counts["check"] <= 10


def embed_block(f, offset, total):
    """f acting on the coordinates offset .. offset + f.dim - 1 of a total-dim space."""
    rows = [[0] * total for _ in range(total)]
    for p, row in enumerate(f.matrix.entries):
        for q, x in enumerate(row):
            rows[offset + p][offset + q] = x
    return LinMap.from_rows(rows)


@pytest.mark.parametrize("left,right", [
    (a, b) for a, b in itertools.combinations_with_replacement(CATALOG_NAMES, 2)
    if catalog(a).dim + catalog(b).dim <= 5])
def test_derivations_of_a_direct_sum_contain_the_summands(left, right):
    """der(A + B) contains der A + der B, acting block by block."""
    a, b = catalog(left), catalog(right)
    s = direct_sum(a, b)
    assert check_axioms(s.dim, s.c, s.d).passed
    space = derivation_space(s)
    for f in derivation_space(a).maps():
        assert space.contains(embed_block(f, 0, s.dim))
    for g in derivation_space(b).maps():
        assert space.contains(embed_block(g, a.dim, s.dim))


def test_verify_suite_solves_each_p36_twisted_space_once(monkeypatch):
    """One suite asks for twisted spaces 41 times but solves only its 11
    distinct (algebra, theta, vartheta) spaces, the plan's der(h3) included."""
    from lya import theorems

    counts = {"lookup": 0, "solve": 0}
    monkeypatch.setattr(derivations, "_twisted_space",
                        counting(counts, "lookup", derivations._twisted_space))
    monkeypatch.setattr(derivations, "_solve_twisted_space",
                        counting(counts, "solve", derivations._solve_twisted_space))
    theorems.default_catalog_reports()
    assert counts == {"lookup": 41, "solve": 11}


# The run-scoped solve cache: verify_all and default_catalog_reports solve
# each twisted space once; nothing else keeps a space.

def recording_solves(monkeypatch):
    """Record (algebra, theta, vartheta) of every real twisted solve."""
    solved = []
    solve = derivations._solve_twisted_space

    def wrapper(algebra, theta, vartheta, unsound):
        solved.append((algebra, theta, vartheta))
        return solve(algebra, theta, vartheta, unsound)
    monkeypatch.setattr(derivations, "_solve_twisted_space", wrapper)
    return solved


def fresh_space(algebra, theta, vartheta):
    """The twisted space through the public solvers, with no run open."""
    assert derivations._SOLVED.get() is None
    ident = LinMap.identity(algebra.dim)
    if theta == vartheta == ident:
        return derivation_space(algebra).space
    return g_derivation_space(algebra, certify_automorphism(algebra, theta),
                              certify_automorphism(algebra, vartheta)).space


def test_catalog_reports_equal_each_check_run_alone(monkeypatch):
    from lya import theorems

    served = []
    lookup = derivations._twisted_space

    def wrapper(algebra, theta, vartheta, unsound):
        space = lookup(algebra, theta, vartheta, unsound)
        served.append((algebra, theta, vartheta, space))
        return space
    monkeypatch.setattr(derivations, "_twisted_space", wrapper)
    cached = theorems.default_catalog_reports()
    monkeypatch.undo()
    alone = [theorems._run_check(algebra, spec)
             for _, algebra, checks in theorems.default_catalog_plan() for spec in checks]
    alone.sort(key=lambda r: (r.prop_id, r.instance))
    assert len(cached) == 28 and cached == alone
    for algebra, theta, vartheta, space in served:
        assert space == fresh_space(algebra, theta, vartheta)


def test_verify_all_in_a_rational_basis_matches_uncached_checks(monkeypatch):
    """sl2_plus_ab1 in a seeded rational basis, with the identity twist and
    the Chevalley swap plus negation on the abelian line, transported."""
    from lya import theorems

    a, p, p_inv = rebased(catalog("sl2_plus_ab1"), 11)
    swap = LinMap.from_rows([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    moved = certify_automorphism(a, LinMap(4, p_inv.mul(swap.matrix).mul(p)))
    twists = {"id": identity_cert(a), "moved": moved}
    block = Subspace.span(4, [p_inv.mul_vec(vunit(4, i)) for i in range(3)])
    checks = []
    for tname, theta in twists.items():
        checks += [theorems.CheckSpec("P31", f"{tname},{vname}", theta=theta, vartheta=vartheta)
                   for vname, vartheta in twists.items()]
        checks += [theorems.CheckSpec(prop, tname, theta=theta) for prop in ("T32", "P35")]
        checks.append(theorems.CheckSpec("P36", tname, theta=theta, subspace=block))
    solved = recording_solves(monkeypatch)
    cached = theorems.verify_all(a, checks)
    keys = set(solved)
    # (id, id), (id, moved), (moved, id) and (moved, moved): moved is an involution
    assert len(solved) == len(keys) == 4
    alone = sorted((theorems._run_check(a, spec) for spec in checks),
                   key=lambda r: (r.prop_id, r.instance))
    assert len(solved) == 4 + 16
    assert cached == alone
    assert all(r.conclusion_holds for r in cached)
    for key in keys:
        assert derivations._solve_twisted_space(*key, "") == fresh_space(*key)


def test_solves_outside_a_run_are_not_kept(monkeypatch):
    solved = recording_solves(monkeypatch)
    sl2, chev = catalog("sl2"), chevalley_cert()
    first = g_derivation_space(sl2, chev, chev)
    assert g_derivation_space(sl2, chev, chev) == first
    assert len(solved) == 2


def test_each_catalog_run_solves_its_spaces_afresh(monkeypatch):
    from lya import theorems

    solved = recording_solves(monkeypatch)
    first = theorems.default_catalog_reports()
    assert len(solved) == len(set(solved)) == 11
    assert derivations._SOLVED.get() is None
    assert theorems.default_catalog_reports() == first
    assert len(solved) == 22 and solved[11:] == solved[:11]
    assert derivations._SOLVED.get() is None


def test_each_space_is_rechecked_once_per_run(monkeypatch):
    """Every basis map of every distinct space meets satisfies_g_derivation
    once inside the solver, however often the checks ask for the space."""
    from lya import theorems

    rechecked, dims = [], {}
    solving = [False]
    solve, recheck = derivations._solve_twisted_space, derivations.satisfies_g_derivation

    def solve_wrapper(algebra, theta, vartheta, unsound):
        solving[0] = True
        try:
            space = solve(algebra, theta, vartheta, unsound)
        finally:
            solving[0] = False
        assert (algebra, theta, vartheta) not in dims
        dims[algebra, theta, vartheta] = space.dim
        return space

    def recheck_wrapper(algebra, f, theta, vartheta):
        if solving[0]:
            rechecked.append((algebra, theta, vartheta, f))
        return recheck(algebra, f, theta, vartheta)
    monkeypatch.setattr(derivations, "_solve_twisted_space", solve_wrapper)
    monkeypatch.setattr(derivations, "satisfies_g_derivation", recheck_wrapper)
    theorems.default_catalog_reports()
    assert len(dims) == 11
    assert len(rechecked) == len(set(rechecked)) == sum(dims.values()) > 11
    assert {call[:3] for call in rechecked} == {key for key, dim in dims.items() if dim}


@pytest.mark.parametrize("fault", ["solve", "recheck"])
def test_a_failed_solve_is_not_kept(monkeypatch, fault):
    """A solve that raises leaves nothing behind: the next call solves again."""
    sl2, chev = catalog("sl2"), chevalley_cert()
    if fault == "solve":
        def broken(matrix):
            raise InternalCheckError("nullspace failed")
        target = ("nullspace", broken)
    else:
        target = ("satisfies_g_derivation", lambda *args: False)
    solved = recording_solves(monkeypatch)
    with derivations._solve_cache():
        with monkeypatch.context() as patch:
            patch.setattr(derivations, *target)
            with pytest.raises(InternalCheckError):
                g_derivation_space(sl2, chev, chev)
        space = g_derivation_space(sl2, chev, chev)
        assert len(solved) == 2
        assert g_derivation_space(sl2, chev, chev) == space
        assert len(solved) == 2
    assert space.space == fresh_space(sl2, chev.map, chev.map)


def test_verify_p37_prepares_the_hat_map_once(monkeypatch):
    """The derived algebra, product generators and their kernel are shared
    by every stabilizing map's hat map within one P37 check."""
    from lya import theorems

    counts = {"derived": 0, "dhat": 0}
    monkeypatch.setattr(derivations, "derived_algebra",
                        counting(counts, "derived", derivations.derived_algebra))
    monkeypatch.setattr(theorems, "_dhat", counting(counts, "dhat", theorems._dhat))
    sl2 = catalog("sl2")
    report = theorems.verify_p37(sl2, identity_cert(sl2), Subspace.span(3, [vunit(3, E)]),
                                 vunit(3, E), vunit(3, F))
    assert counts["dhat"] == report.details["stab_dim"] >= 2
    assert counts["derived"] == 1


# References for the stabilizer, the quasi companions and the hat map: the
# wider systems these solvers used to build, kept here to pin their answers.

def stabilizer_reference(algebra, twisted, h):
    """n*n-wide membership rows for H, intersected with the twisted space."""
    n = algebra.dim
    red = [[Fraction(int(l == p)) for p in range(n)] for l in range(n)]
    for r, a in enumerate(h.pivots):
        for l in range(n):
            red[l][a] -= h.basis[r][l]
    rows = []
    for b in h.basis:
        for l in range(n):
            rows.append(tuple(red[l][p] * b[q] for p in range(n) for q in range(n)))
    if not rows:
        return twisted.space
    return subspace_intersect(twisted.space, nullspace(Matrix(len(rows), n * n, tuple(rows))))


def dense_identity_rows(tensor, arity, terms):
    """Rows of f(T(e_I)) - sum over terms of T(..., f e_{I_s}, ...) = 0, from
    the dense tensor: one row per ordered basis tuple I and coordinate l,
    zero rows included; entry (p, q) of f sits at column p*n + q.  Each term
    lists the basis images of a fixed map per slot, None where f goes."""
    n = len(tensor)
    units = [vunit(n, i) for i in range(n)]
    evaluate = binary_eval if arity == 2 else contraction_oracle_ternary
    base = {idx: functools.reduce(operator.getitem, idx, tensor)
            for idx in itertools.product(range(n), repeat=arity)}
    twisted = []
    for term in terms:
        entries = {idx: evaluate(tensor, *(units[i] if images is None else images[i]
                                           for i, images in zip(idx, term)))
                   for idx in base}
        twisted.append((term.index(None), entries))
    rows = []
    for idx, value in base.items():
        for l in range(n):
            row = [Fraction(0)] * (n * n)
            for a, x in enumerate(value):
                row[l * n + a] += x
            for s, entries in twisted:
                for a in range(n):
                    row[a * n + idx[s]] -= entries[idx[:s] + (a,) + idx[s + 1:]][l]
            rows.append(tuple(row))
    return rows


def quasi_reference(algebra, d_map):
    """Both companions from one system in 2*n*n unknowns, D' first."""
    n = algebra.dim
    c, d = algebra.c, algebra.d
    units = [vunit(n, i) for i in range(n)]
    du = [d_map.apply(u) for u in units]
    pad = (Fraction(0),) * (n * n)
    rows = [r + pad for r in dense_identity_rows(c, 2, [])]
    rows += [pad + r for r in dense_identity_rows(d, 3, [])]
    rhs = []
    for i, j in itertools.product(range(n), repeat=2):
        rhs.extend(vadd(binary_eval(c, du[i], units[j]), binary_eval(c, units[i], du[j])))
    for i, j, k in itertools.product(range(n), repeat=3):
        val = vadd(contraction_oracle_ternary(d, du[i], units[j], units[k]),
                   contraction_oracle_ternary(d, units[i], du[j], units[k]))
        rhs.extend(vadd(val, contraction_oracle_ternary(d, units[i], units[j], du[k])))
    solution = solve(Matrix(len(rows), 2 * n * n, tuple(rows)), rhs)
    if solution is None:
        return None
    return QuasiWitness(LinMap.unflatten(n, solution[: n * n]),
                        LinMap.unflatten(n, solution[n * n:]))


def dhat_reference(algebra, d_map, theta):
    """The n x m hat matrix from one nG x nm Kronecker system, or None."""
    n = algebra.dim
    w = derived_algebra(algebra)
    m = w.dim
    units = [vunit(n, i) for i in range(n)]
    gens = [(algebra.c[i][j], dhat_binary_rhs(algebra, d_map, theta.map, units[i], units[j]))
            for i in range(n) for j in range(i + 1, n)]
    gens += [(algebra.d[i][j][k],
              dhat_ternary_rhs(algebra, d_map, theta.map, units[i], units[j], units[k]))
             for i, j, k in itertools.product(range(n), repeat=3)]
    rows, rhs = [], []
    for gen, target in gens:
        coords = coordinates(w, gen)
        for l in range(n):
            row = [Fraction(0)] * (n * m)
            row[l * m:(l + 1) * m] = coords
            rows.append(tuple(row))
            rhs.append(target[l])
    solution = solve(Matrix(len(rows), n * m, tuple(rows)), rhs)
    if solution is None:
        return None
    return Matrix(n, m, tuple(tuple(solution[l * m + b] for b in range(m)) for l in range(n)))


def lie_algebra(n, brackets):
    """from_lie on the bracket [e_i, e_j] = sum of x e_l over (i, j, l, x)."""
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, j, l, x in brackets:
        c[i][j][l] += x
        c[j][i][l] -= x
    return from_lie(c)


def h5():
    """[x_i, y_i] = z on (x1, x2, y1, y2, z)."""
    return lie_algebra(5, [(0, 2, 4, 1), (1, 3, 4, 1)])


def gl2():
    """[E_ij, E_kl] = delta_jk E_il - delta_li E_kj on the units E_ij at 2i + j."""
    units = [(i, j) for i in range(2) for j in range(2)]
    brackets = []
    for (a, (i, j)), (b, (k, l)) in itertools.combinations(enumerate(units), 2):
        if j == k:
            brackets.append((a, b, 2 * i + l, 1))
        if l == i:
            brackets.append((a, b, 2 * k + j, -1))
    return lie_algebra(4, brackets)


# x_i -> y_i, y_i -> -x_i, z -> z on h5
H5_SWAP = [[0, 0, -1, 0, 0], [0, 0, 0, -1, 0], [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 1]]
# On gl2 (units E_ij at 2i + j): X -> -X^T and conjugation by diag(1, 2).
GL2_TWISTS = [[[-1, 0, 0, 0], [0, 0, -1, 0], [0, -1, 0, 0], [0, 0, 0, -1]],
              [[1, 0, 0, 0], [0, Fraction(1, 2), 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]]]


@functools.cache
def narrowed_cases():
    """(algebra, twists, subspaces) over the catalog, sl2_plus_ab1 in a seeded
    rational basis, h5 and gl2.  The subspaces are the full and zero spaces
    and every coordinate block (transported into the rebased basis) that is
    a subalgebra stabilized by the twist."""
    rebased_sum, _, p_inv = rebased(catalog("sl2_plus_ab1"), 11)
    extra = {"sl2": [chevalley_cert()], "lts_sl2": [neg_cert("lts_sl2")]}
    algebras = [(catalog(name), None, extra.get(name, [])) for name in CATALOG_NAMES]
    swap = LinMap.from_rows(H5_SWAP)
    algebras += [(rebased_sum, p_inv, []), (h5(), None, [certify_automorphism(h5(), swap)]),
                 (gl2(), None, [])]
    cases = []
    for a, to_basis, twists in algebras:
        n = a.dim
        for theta in [identity_cert(a)] + twists:
            subspaces = []
            for size in range(n + 1):
                for block in itertools.combinations(range(n), size):
                    units = [vunit(n, i) for i in block]
                    if to_basis is not None:
                        units = [to_basis.mul_vec(u) for u in units]
                    h = Subspace.span(n, units)
                    try:
                        derivations.require_stabilized_subalgebra(a, theta, h)
                    except MathError:
                        continue
                    subspaces.append(h)
            cases.append((a, theta, subspaces))
    return cases


def test_stabilizer_matches_rows_and_intersection_reference():
    seen = set()
    for a, theta, subspaces in narrowed_cases():
        twisted = single_twist_space(a, theta)
        for h in subspaces:
            got = derivations._stabilizer_space(a, twisted, h)
            assert got.space == stabilizer_reference(a, twisted, h)
            assert (got.theta, got.vartheta) == (twisted.theta, twisted.vartheta)
            seen.add((h.dim in (0, a.dim), got.dim < twisted.dim))
    # full, zero and proper blocks; proper blocks that do and do not cut the space down
    assert seen == {(True, False), (False, False), (False, True)}


def reference_maps(rng, a):
    """Derivation, centroid, zero and random maps of the algebra."""
    n = a.dim
    maps = list(derivation_space(a).maps())[:3]
    maps += [LinMap.unflatten(n, flat) for flat in centroid(a).basis[:2]]
    return maps + [LinMap.zero(n), rand_map(rng, n), rand_map(rng, n)]


@functools.cache
def transported_rhs_cases():
    """(algebra, automorphisms) over the catalog, two direct sums,
    sl2_plus_ab1 in a seeded rational basis, h5 and gl2.  Besides the
    identity: on sl2 the Chevalley swap and diag(-1, -1, 1), on h3 the
    order-4 map x -> y, y -> -x, z -> z, on lts_sl2 the negation, on the
    rebased sum the Chevalley swap with the line negated, and on h5 the swap
    x_i -> y_i, y_i -> -x_i."""
    rebased_sum, p, p_inv = rebased(catalog("sl2_plus_ab1"), 11)
    chev_line = Matrix.from_rows([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    twists = {
        "sl2": [[[0, 1, 0], [1, 0, 0], [0, 0, -1]], [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]],
        "h3": [[[0, -1, 0], [1, 0, 0], [0, 0, 1]]],
        "lts_sl2": [[[-1, 0, 0], [0, -1, 0], [0, 0, -1]]],
    }
    algebras = [(catalog(name), [LinMap.from_rows(t) for t in twists.get(name, [])])
                for name in CATALOG_NAMES]
    algebras += [(direct_sum(catalog(x), catalog(y)), [])
                 for x, y in (("aff2", "h3"), ("leibniz2", "lts_sl2"))]
    algebras += [(rebased_sum, [LinMap(4, p_inv.mul(chev_line).mul(p))]),
                 (h5(), [LinMap.from_rows(H5_SWAP)]),
                 (gl2(), [])]
    return [(a, [identity_cert(a)] + [certify_automorphism(a, t) for t in maps])
            for a, maps in algebras]


@functools.cache
def row_cases():
    """(algebra, automorphisms) for the constraint rows: the cases of
    :func:`transported_rhs_cases` and abelian0; the Chevalley swap and
    torus twists with denominators on sl2, lts_sl2 and sl2_plus_ab1; gl2
    with the twists above; and h5 and gl2 in seeded rational bases, with
    their twists transported (a map f becomes P^-1 f P)."""
    cases = list(transported_rhs_cases())
    cases.append((catalog("abelian0"), [identity_cert(catalog("abelian0"))]))
    for name, twists in (("sl2", ("chevalley", "torus")), ("lts_sl2", ("neg", "chevalley", "torus")),
                         ("sl2_plus_ab1", ("id", "torus4"))):
        cases.append((catalog(name), [twist_cert(name, t) for t in twists]))
    for a, twists, seed in ((gl2(), GL2_TWISTS, 5), (h5(), [H5_SWAP], 7)):
        cases.append((a, [identity_cert(a)] + [certify_automorphism(a, LinMap.from_rows(t))
                                               for t in twists]))
        b, p, p_inv = rebased(a, seed)
        cases.append((b, [identity_cert(b)] + [
            certify_automorphism(b, LinMap(b.dim, p_inv.mul(Matrix.from_rows(t)).mul(p)))
            for t in twists]))
    return cases


def test_identity_rows_match_the_dense_reference():
    """The rows built from the stored form are the dense reference's nonzero
    rows, in the same order, times one positive factor per call; the
    twisted spaces, for every ordered pair of twists, and the centroid are
    the nullspaces of the reference rows."""
    for a, certs in row_cases():
        n = a.dim
        units = [vunit(n, i) for i in range(n)]
        ident = Matrix.identity(n)
        systems = [([(None, ident)], [(None, ident, ident)], centroid(a))]
        for theta, vartheta in itertools.product(certs, repeat=2):
            t, v = theta.map.matrix, vartheta.map.matrix
            systems.append(([(None, t), (v, None)], [(None, t, v), (v, None, t), (t, v, None)],
                            g_derivation_space(a, theta, vartheta).space))
        for binary, ternary, space in systems:
            reference = []
            for arity, tensor, terms in ((2, a.c, binary), (3, a.d, ternary)):
                got = derivations._identity_rows(a, arity, terms)
                images = [tuple(None if m is None else [m.mul_vec(u) for u in units]
                                for m in term) for term in terms]
                want = [r for r in dense_identity_rows(tensor, arity, images) if any(r)]
                assert len(got) == len(want)
                if want:
                    j = next(j for j, x in enumerate(want[0]) if x)
                    factor = Fraction(got[0][j]) / want[0][j]
                    assert factor > 0
                    assert all(g == tuple(factor * x for x in w) for g, w in zip(got, want))
                    assert all(type(x) is int for g in got for x in g)
                reference += want
            assert space == nullspace(Matrix(len(reference), n * n, tuple(reference)))


def test_twisted_and_centroid_rows_make_no_dense_contraction(monkeypatch):
    """The derivation, twisted and centroid solves and their re-checks read
    the stored integer form only.  ternary_eval is gone, and binary_eval is
    bound only in lya.lyalg, where the raw tensor constructors use it; it
    gets a counting wrapper.  On h5 with theta the swap x_i -> y_i,
    y_i -> -x_i, the dense rows made 400 calls for the twisted solve alone."""
    import sys
    from lya import lyalg

    assert not hasattr(lyalg, "ternary_eval")
    a = h5()
    swap, ident = certify_automorphism(a, LinMap.from_rows(H5_SWAP)), identity_cert(a)
    counts = {"binary_eval": 0}
    original = lyalg.binary_eval
    wrapped = set()
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "lya" and getattr(module, "binary_eval", None) is original:
            monkeypatch.setattr(module, "binary_eval", counting(counts, "binary_eval", original))
            wrapped.add(module_name)
    assert wrapped == {"lya.lyalg"}
    h5()
    assert counts["binary_eval"] > 0
    counts["binary_eval"] = 0
    assert lyalg.bracket(a, vunit(5, 0), vunit(5, 2)) == vunit(5, 4)
    derivation_space(a)
    centroid(a)
    g_derivation_space(a, swap, ident)
    assert counts == {"binary_eval": 0}


def test_split_quasi_solve_matches_the_combined_system():
    """The reference also builds its right-hand sides basis tuple by basis
    tuple, so this pins the transported ones as well."""
    rng = random.Random(71)
    feasible = []
    for a, _ in transported_rhs_cases():
        for d_map in reference_maps(rng, a):
            got = is_quasi_derivation(a, d_map)
            assert got == quasi_reference(a, d_map)
            feasible.append(got is not None)
    assert feasible.count(True) > 20 and feasible.count(False) > 10


def test_row_by_row_dhat_matches_the_kronecker_system():
    rng = random.Random(72)
    outcomes = []
    for a, theta, _ in narrowed_cases():
        for d_map in reference_maps(rng, a):
            got = dhat(a, d_map, theta)
            want = dhat_reference(a, d_map, theta)
            if want is None:
                assert got.map is None and got.clash is not None
            else:
                assert got.map.matrix_on_domain == want
                assert got.map.domain == derived_algebra(a)
            outcomes.append((got.consistent, got.consistent and 0 < got.map.domain.dim < a.dim))
    assert {(True, True), (True, False), (False, False)} <= set(outcomes)


# The hat map as it stood with its prescribed images built basis tuple by
# basis tuple through the public per-tuple helpers, kept here to pin the
# images now transported on the stored integer form.

def dhat_rhs_tuplewise(algebra, d_map, theta):
    """Prescribed image of every product generator, in generator order."""
    n = algebra.dim
    units = [vunit(n, i) for i in range(n)]
    rhs = [dhat_binary_rhs(algebra, d_map, theta, units[i], units[j])
           for i in range(n) for j in range(i + 1, n)]
    rhs += [dhat_ternary_rhs(algebra, d_map, theta, units[i], units[j], units[k])
            for i, j, k in itertools.product(range(n), repeat=3)]
    return rhs


def dhat_tuplewise_reference(algebra, d_map, theta):
    n = algebra.dim
    w = derived_algebra(algebra)
    gens = [(("binary", i, j), algebra.c[i][j]) for i in range(n) for j in range(i + 1, n)]
    gens += [(("ternary", i, j, k), algebra.d[i][j][k])
             for i, j, k in itertools.product(range(n), repeat=3)]
    gen_matrix = Matrix(n, len(gens), tuple(
        tuple(gen_vec[row] for _, gen_vec in gens) for row in range(n)))
    kernel = nullspace(gen_matrix).basis
    rhs = dhat_rhs_tuplewise(algebra, d_map, theta.map)
    for lam in kernel:
        mismatch = vzero(n)
        for coeff, gen_rhs in zip(lam, rhs):
            if coeff != 0:
                mismatch = vadd(mismatch, vscale(coeff, gen_rhs))
        if not vis_zero(mismatch):
            terms = tuple((gens[r][0], lam[r]) for r in range(len(gens)) if lam[r] != 0)
            return DhatResult(map=None, clash=DhatClash(terms=terms, mismatch=mismatch))
    system = Matrix(len(gens), w.dim, tuple(coordinates(w, gen_vec) for _, gen_vec in gens))
    matrix_rows = [solve(system, [gen_rhs[l] for gen_rhs in rhs]) for l in range(n)]
    matrix = Matrix(n, w.dim, tuple(matrix_rows))
    return DhatResult(map=PartialMap(domain=w, matrix_on_domain=matrix), clash=None)


def test_transported_dhat_rhs_matches_the_tuplewise_reference():
    rng = random.Random(82)
    seen = set()
    for a, certs in transported_rhs_cases():
        products = derivations._dhat_products(a)
        for theta in certs:
            for d_map in reference_maps(rng, a):
                assert derivations._dhat_rhs(a, d_map, theta.map) == \
                    dhat_rhs_tuplewise(a, d_map, theta.map)
                got = derivations._dhat(a, products, d_map, theta)
                want = dhat_tuplewise_reference(a, d_map, theta)
                assert got == want
                seen.add((got.consistent, theta == identity_cert(a)))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_quasi_rechecks_the_witness_it_returns(monkeypatch, tmp_path):
    """A wrong companion from the solve ends in InternalCheckError in process,
    and in the CLI's error report with "internal": true and exit 1, instead
    of being returned or printed."""
    import io
    import json

    from lya.cli import main
    from lya.serialize import algebra_to_dict, map_to_dict, save_json_file

    sl2 = catalog("sl2")
    adh = LinMap.from_rows([[2, 0, 0], [0, -2, 0], [0, 0, 0]])
    assert is_quasi_derivation(sl2, adh) is not None
    exact = derivations._map_through

    def off_by_one(points, images, dim, codim):
        x = exact(points, images, dim, codim)
        if x is None:
            return None
        first = (x.entries[0][0] + 1,) + x.entries[0][1:]
        return Matrix(x.rows, x.cols, (first,) + x.entries[1:])

    monkeypatch.setattr(derivations, "_map_through", off_by_one)
    with pytest.raises(InternalCheckError, match="companion witness failed re-verification"):
        is_quasi_derivation(sl2, adh)
    save_json_file(tmp_path / "sl2.json", algebra_to_dict(sl2))
    save_json_file(tmp_path / "adh.json", map_to_dict(adh))
    out = io.StringIO()
    code = main(["quasi", str(tmp_path / "sl2.json"), "--map", str(tmp_path / "adh.json")],
                out=out)
    report = json.loads(out.getvalue())
    assert code == 1
    assert report["internal"] is True and report["verb"] == "quasi"
    assert report["error"] == "companion witness failed re-verification"
    assert "result" not in report and len(report["inputs"]) == 2


def test_quasi_solves_each_companion_with_one_narrow_elimination(monkeypatch):
    """On h5: two eliminations, one per companion, each of the n product
    coordinates plus the n image coordinates, and no constraint rows.  Only
    the basis tuples with i < j give rows: 10 pairs and 50 triples, where
    every ordered tuple gave 25 and 125."""
    from lya import exactlin

    a = h5()
    d_map = derivation_space(a).maps()[0]
    shapes = []

    def recording(m):
        shapes.append((m.rows, m.cols))
        return rref(m)

    def no_rows(*args):
        raise AssertionError("is_quasi_derivation assembled constraint rows")

    monkeypatch.setattr(exactlin, "rref", recording)
    monkeypatch.setattr(derivations, "_identity_rows", no_rows)
    assert is_quasi_derivation(a, d_map) is not None
    assert shapes == [(10, 2 * a.dim), (50, 2 * a.dim)]


def test_dhat_solves_the_hat_matrix_with_one_elimination(monkeypatch):
    """All n rows of the hat matrix come out of one rref, not one each."""
    from lya import exactlin

    a = h5()
    products = derivations._dhat_products(a)
    d_map = derivation_space(a).maps()[0]
    calls = []

    def recording(m):
        calls.append(m.cols)
        return rref(m)

    monkeypatch.setattr(exactlin, "rref", recording)
    got = derivations._dhat(a, products, d_map, identity_cert(a))
    assert got.consistent
    assert calls == [products[0].dim + a.dim]
