import functools
import itertools
import random
from fractions import Fraction

import pytest

from lya.errors import InputError, InternalCheckError, MathError
from lya.exactlin import (
    Matrix,
    Subspace,
    coordinates,
    invert,
    nullspace,
    rref,
    solve,
    subspace_contains,
    vadd,
    vscale,
    vunit,
    vzero,
)
from lya.lyalg import (
    CATALOG_NAMES,
    _vector_at,
    bracket,
    catalog,
    check_axioms,
    direct_sum,
    triple,
)
from lya.maps import (
    basis_maps,
    certify_automorphism,
    commutator,
    identity_cert,
    inner_derivation,
    satisfies_derivation,
    satisfies_g_derivation,
)
from lya import derivations, exactlin, maps, structure
from lya.derivations import (
    DhatClash,
    PartialMap,
    QuasiWitness,
    centroid,
    derivation_space,
    dhat,
    g_derivation_space,
    is_quasi_derivation,
    quasi_witness_satisfies,
    single_twist_space,
    stabilizer_derivations,
)
from lya.structure import derived_algebra
from reference import (CHEVALLEY, GL2_TWISTS, H5_SWAP, SUM_CHEVALLEY, chevalley_cert, clash_sums,
                       contraction_oracle_binary, contraction_oracle_ternary, covariance_cases,
                       dense_identity_rows, from_tensors, gl, gl2, h5, neg_cert,
                       prescribed_binary, prescribed_ternary, quasi_reference,
                       quasi_system_by_probing, rand_map, rebased, shifted, stabilizer_reference,
                       transported, unflat)

E, F, H = 0, 1, 2

SOLVER_NAMES = ("abelian2", "sl2", "h3", "aff2", "lts_sl2", "sl2_plus_ab1", "leibniz2")


def probe_constraint_matrix(algebra, residual):
    """Oracle assembler: probe an identity linear in D with unit matrices.

    ``residual(D)`` returns the identity's defect for the map D as one flat
    list over all basis tuples.  Column p*n + q of the constraint matrix is
    the defect of the matrix unit E_pq, so the matrix's nullspace is the
    space of maps satisfying the identity.
    """
    n = algebra.dim
    columns = [residual(unflat(n, vunit(n * n, flat))) for flat in range(n * n)]
    rows = len(columns[0]) if columns else 0
    return Matrix(rows, n * n, (1, tuple(
        tuple(columns[q][r] for q in range(n * n)) for r in range(rows))))


def twisted_residual(algebra, theta, vartheta):
    """Defect of the twisted identities, products through bracket/triple:

    D[x,y] - [Dx, θy] - [ϑx, Dy] on basis pairs and
    D{x,y,z} - {Dx, θy, ϑz} - {ϑx, Dy, θz} - {θx, ϑy, Dz} on basis triples.
    """
    n = algebra.dim
    units = [vunit(n, i) for i in range(n)]
    t = [theta.mul_vec(u) for u in units]
    v = [vartheta.mul_vec(u) for u in units]

    def residual(unit_map):
        du = [unit_map.mul_vec(u) for u in units]
        out = []
        for i, j in itertools.product(range(n), repeat=2):
            defect = unit_map.mul_vec(bracket(algebra, units[i], units[j]))
            defect = vadd(defect, vscale(-1, bracket(algebra, du[i], t[j])))
            defect = vadd(defect, vscale(-1, bracket(algebra, v[i], du[j])))
            out.extend(defect)
        for i, j, k in itertools.product(range(n), repeat=3):
            defect = unit_map.mul_vec(triple(algebra, units[i], units[j], units[k]))
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
            defect = unit_map.mul_vec(bracket(algebra, units[i], units[j]))
            defect = vadd(defect, vscale(-1, bracket(algebra, unit_map.mul_vec(units[i]),
                                                     units[j])))
            out.extend(defect)
        for i, j, k in itertools.product(range(n), repeat=3):
            defect = unit_map.mul_vec(triple(algebra, units[i], units[j], units[k]))
            defect = vadd(defect, vscale(-1, triple(algebra, unit_map.mul_vec(units[i]),
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
    n, c = algebra.dim, algebra.c
    units = [vunit(n, i) for i in range(n)]

    def residual(unit_map):
        out = []
        for i, j in itertools.product(range(n), repeat=2):
            defect = unit_map.mul_vec(c[i][j])
            defect = vadd(defect, vscale(-1, bracket(algebra, unit_map.mul_vec(units[i]),
                                                     units[j])))
            defect = vadd(defect, vscale(-1, bracket(algebra, units[i],
                                                     unit_map.mul_vec(units[j]))))
            out.extend(defect)
        return out

    return probe_constraint_matrix(algebra, residual)


def probe_twisted_space(algebra, theta, vartheta):
    return nullspace(probe_constraint_matrix(algebra, twisted_residual(algebra, theta, vartheta)))


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
    ker = nullspace(Matrix(len(rows), unknowns, (1, tuple(rows))))
    return Subspace.span(n * n, [k[: n * n] for k in ker.basis])


def test_duplicated_assemblers_agree():
    for name in SOLVER_NAMES:
        a = catalog(name)
        direct = derivation_space(a)
        twisted = g_derivation_space(a, identity_cert(a), identity_cert(a))
        assert direct == twisted


def test_derivation_space_matches_probe_oracle():
    for name in SOLVER_NAMES:
        a = catalog(name)
        ident = Matrix.identity(a.dim)
        assert probe_twisted_space(a, ident, ident) == derivation_space(a)


TWISTS = {
    "chevalley": CHEVALLEY,
    "torus": [[2, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 1]],
    "torus4": [[2, 0, 0, 0], [0, Fraction(1, 2), 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]],
}


def twist_cert(name, twist):
    a = catalog(name)
    if twist == "id":
        return identity_cert(a)
    if twist == "neg":
        return neg_cert(name)
    return certify_automorphism(a, Matrix.from_rows(TWISTS[twist]))


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
    assert probe_twisted_space(a, t.map, v.map) == space


def test_centroid_matches_probe_oracle():
    for name in SOLVER_NAMES + ("abelian3",):
        a = catalog(name)
        assert nullspace(probe_constraint_matrix(a, centroid_residual(a))) == centroid(a)


def stage_cases():
    """(algebra, θ, ϑ, dimension after the binary stage, answer dimension)
    for solves in which the ternary stage cuts the binary stage's space."""
    gl2_twist = Matrix.from_rows(GL2_TWISTS[0])
    return {"lts_sl2": (catalog("lts_sl2"), Matrix.identity(3), Matrix.identity(3), 9, 3),
            "gl2 (θ, id)": (gl2(), gl2_twist, Matrix.identity(4), 2, 1)}


@pytest.mark.parametrize("case", ["lts_sl2", "gl2 (θ, id)"])
def test_the_ternary_stage_cuts_the_binary_space_as_the_probe_oracle(case, patch_calls_from):
    """lts_sl2 has no binary product, so its binary stage keeps all nine
    maps and the ternary stage cuts them to Der, of dimension three.  On gl2
    twisted by (X -> -X^T, id) the binary stage keeps two maps and the
    ternary stage one.  Each stage is one kernel, and the answer is the
    probe oracle's space, which solves both identities at once."""
    a, theta, vartheta, binary_dim, dim = stage_cases()[case]
    kernels = []
    solve = exactlin._kernel_space

    def recording(cols, rows):
        kernels.append(solve(cols, rows))
        return kernels[-1]

    patch_calls_from(derivations, exactlin, "_kernel_space", recording)
    space = g_derivation_space(a, certify_automorphism(a, theta), certify_automorphism(a, vartheta))
    assert [(k.ambient_dim, k.dim) for k in kernels] == [(a.dim ** 2, binary_dim), (binary_dim, dim)]
    assert space.dim == dim
    assert space == probe_twisted_space(a, theta, vartheta)


def test_derivation_dims_match_frozen_oracle_values():
    assert derivation_space(catalog("abelian2")).dim == 4
    assert derivation_space(catalog("sl2")).dim == 3
    assert derivation_space(catalog("h3")).dim == 6


def test_h3_dim_against_lie_derivation_probe():
    a = catalog("h3")
    # ternary tensor is zero, so the full solver sees binary constraints only
    probe = probe_lie_derivation_rows(a)
    assert nullspace(probe).dim == 6
    assert nullspace(probe) == derivation_space(a)


def test_sl2_derivations_are_spanned_by_inner_maps():
    a = catalog("sl2")
    der = derivation_space(a)
    inner = Subspace.span(9, [
        inner_derivation(a, vunit(3, E), vunit(3, F)).flatten(),
        inner_derivation(a, vunit(3, H), vunit(3, E)).flatten(),
        inner_derivation(a, vunit(3, H), vunit(3, F)).flatten(),
    ])
    assert inner == der


def test_inner_derivations_lie_inside_derivation_space():
    for name in SOLVER_NAMES:
        a = catalog(name)
        der = derivation_space(a)
        for i in range(a.dim):
            for j in range(a.dim):
                d_ij = inner_derivation(a, vunit(a.dim, i), vunit(a.dim, j))
                assert der.contains_vector(d_ij.flatten())


def test_derivations_closed_under_commutator():
    for name in SOLVER_NAMES:
        a = catalog(name)
        der = derivation_space(a)
        for f in basis_maps(der):
            for g in basis_maps(der):
                assert der.contains_vector(commutator(f, g).flatten())


def test_derivation_space_soundness_recheck():
    for name in SOLVER_NAMES:
        a = catalog(name)
        for f in basis_maps(derivation_space(a)):
            assert satisfies_derivation(a, f)


def test_twisted_space_on_abelian_is_everything():
    a = catalog("abelian3")
    cert = certify_automorphism(a, Matrix.from_rows([[1, 1, 0], [0, 1, 0], [2, 0, 3]]))
    assert g_derivation_space(a, cert, cert).dim == 9
    assert single_twist_space(a, cert).dim == 9


def test_sl2_chevalley_double_twist_dim_matches_plain():
    sl2 = catalog("sl2")
    chev = chevalley_cert()
    assert g_derivation_space(sl2, chev, chev).dim == derivation_space(sl2).dim == 3


def test_single_twist_identity_is_plain_derivations():
    for name in ("sl2", "lts_sl2"):
        a = catalog(name)
        assert single_twist_space(a, identity_cert(a)) == derivation_space(a)


def test_lts_negation_twist_space_reverified():
    a = catalog("lts_sl2")
    cert = neg_cert("lts_sl2")
    both = g_derivation_space(a, cert, cert)
    assert both.dim == 3
    for f in basis_maps(both):
        assert satisfies_g_derivation(a, f, cert.map, cert.map)
    single = single_twist_space(a, cert)
    for f in basis_maps(single):
        assert satisfies_g_derivation(a, f, cert.map, Matrix.identity(3))


def test_twisted_space_closed_under_combinations():
    rng = random.Random(17)
    sl2 = catalog("sl2")
    chev = chevalley_cert()
    space = g_derivation_space(sl2, chev, chev)
    maps = basis_maps(space)
    for _ in range(5):
        combo = Matrix.zero(3, 3)
        for f in maps:
            combo = combo.add(f.scale(Fraction(rng.randint(-3, 3), rng.choice([1, 2]))))
        assert satisfies_g_derivation(sl2, combo, chev.map, chev.map)


def test_centroid_of_abelian_is_all_maps():
    assert centroid(catalog("abelian3")).dim == 9


def test_centroid_of_sl2_is_scalars():
    c = centroid(catalog("sl2"))
    assert c.dim == 1
    assert c.contains_vector(Matrix.identity(3).flatten())


def test_centroid_of_direct_sum_is_blockwise_scalars():
    c = centroid(catalog("sl2_plus_ab1"))
    assert c.dim == 2
    block1 = Matrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
    block2 = Matrix.from_rows([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]])
    assert c.contains_vector(block1.flatten())
    assert c.contains_vector(block2.flatten())


def test_centroid_members_admit_the_forced_companion_pair():
    # summing the centroid identity over the two (resp. three) slots forces
    # the companions 2D and 3D
    from lya.derivations import QuasiWitness

    for name in ("sl2", "sl2_plus_ab1", "h3"):
        a = catalog(name)
        for flat in centroid(a).basis:
            d_map = unflat(a.dim, flat)
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
            a, twisted_residual(a, Matrix.identity(a.dim), Matrix.identity(a.dim)))
        probe_rows = Subspace.span(n2, probe.entries)
        for space in (derivation_space(a),
                      g_derivation_space(a, identity_cert(a), identity_cert(a))):
            annihilator = nullspace(Matrix(space.dim, n2, (1, space.basis)))
            assert probe_rows == annihilator


def test_quasi_feasible_set_is_strict_on_sl2():
    a = catalog("sl2")
    qder = joint_quasi_projection(a)
    assert qder.dim < 9
    # per-map feasibility agrees with the joint projection on all unit maps
    rejected = None
    for p in range(3):
        for q in range(3):
            unit_map = unflat(3, vunit(9, p * 3 + q))
            feasible = is_quasi_derivation(a, unit_map) is not None
            assert feasible == subspace_contains(qder, unit_map.flatten())
            if not feasible and rejected is None:
                rejected = unit_map
    assert rejected is not None
    # the rejection is certified by a rank gap in the probed companion system
    m, rhs = quasi_system_by_probing(a, rejected)
    aug = Matrix(m.rows, m.cols + 1,
                 (1, tuple(row + (rhs[i],) for i, row in enumerate(m.entries))))
    assert rref(aug).rows > rref(m).rows


def test_quasi_probed_assembler_matches_solver_on_accepted_maps():
    a = catalog("sl2")
    d_map = basis_maps(derivation_space(a))[0]
    m, rhs = quasi_system_by_probing(a, d_map)
    aug = Matrix(m.rows, m.cols + 1,
                 (1, tuple(row + (rhs[i],) for i, row in enumerate(m.entries))))
    assert rref(aug).rows == rref(m).rows
    assert is_quasi_derivation(a, d_map) is not None


def test_stabilizer_full_and_zero_subspace_give_whole_twist_space():
    a = catalog("sl2")
    cert = identity_cert(a)
    der = single_twist_space(a, cert)
    assert stabilizer_derivations(a, cert, Subspace.full(3)) == der
    assert stabilizer_derivations(a, cert, Subspace.zero(3)) == der


def test_stabilizer_of_perfect_ideal_is_everything():
    a = catalog("sl2_plus_ab1")
    cert = identity_cert(a)
    block = Subspace.span(4, [vunit(4, 0), vunit(4, 1), vunit(4, 2)])
    stab = stabilizer_derivations(a, cert, block)
    assert stab == single_twist_space(a, cert)


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
    for f in basis_maps(stab):
        assert line.contains_vector(f.mul_vec(vunit(3, E)))


def test_dhat_abelian_has_empty_domain():
    a = catalog("abelian3")
    r = dhat(a, Matrix.from_rows([[1, 2, 0], [0, 1, 0], [0, 0, 5]]), identity_cert(a))
    assert isinstance(r, PartialMap)
    assert r.domain.dim == 0


def test_dhat_on_binary_only_algebra_returns_the_derivation():
    a = catalog("h3")
    cert = identity_cert(a)
    for d_map in basis_maps(derivation_space(a)):
        r = dhat(a, d_map, cert)
        assert isinstance(r, PartialMap)
        w = derived_algebra(a)
        for b in w.basis:
            assert r.apply(b) == d_map.mul_vec(b)


def test_dhat_inconsistent_for_nonzero_derivation_of_sl2():
    a = catalog("sl2")
    ad_h = inner_derivation(a, vunit(3, E), vunit(3, F))
    clash = dhat(a, ad_h, identity_cert(a))
    assert isinstance(clash, DhatClash)
    # re-verify the certificate from the raw tensors
    combo, rhs = clash_sums(a, ad_h, clash)
    assert combo == vzero(3)
    assert rhs == clash.mismatch
    assert rhs != vzero(3)


def test_dhat_binary_vs_ternary_forcing_on_sl2():
    # binary prescriptions alone pin the map to D, ternary ones to 4 D
    a = catalog("sl2")
    c, d, ident = a.c, a.d, identity_cert(a).map
    ad_h = inner_derivation(a, vunit(3, E), vunit(3, F))
    units = [vunit(3, i) for i in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            prescribed = prescribed_binary(c, ad_h, ident, units[i], units[j])
            assert prescribed == ad_h.mul_vec(c[i][j])
    for i, j, k in itertools.product(range(3), repeat=3):
        prescribed = prescribed_ternary(d, ad_h, ident, units[i], units[j], units[k])
        assert prescribed == vscale(4, ad_h.mul_vec(d[i][j][k]))
    # the two forcings disagree on a nonzero product vector
    assert ad_h.mul_vec(c[E][H]) != vscale(4, ad_h.mul_vec(c[E][H]))


# Reference re-checks for the centroid and the quasi-derivation companions:
# direct evaluation basis tuple by basis tuple in Fraction arithmetic.

def centroid_recheck_reference(algebra, f):
    """The InternalCheckError message the centroid re-check gives f, or None."""
    n = algebra.dim
    c, d = algebra.c, algebra.d
    units = [vunit(n, i) for i in range(n)]
    fu = [f.mul_vec(u) for u in units]
    for i, j in itertools.product(range(n), repeat=2):
        if contraction_oracle_binary(c, units[i], fu[j]) != f.mul_vec(c[i][j]):
            return "centroid member fails the right-slot identity"
    for i, j, k in itertools.product(range(n), repeat=3):
        want = f.mul_vec(d[i][j][k])
        if contraction_oracle_ternary(d, units[i], fu[j], units[k]) != want:
            return "centroid member fails the middle-slot identity"
        if contraction_oracle_ternary(d, units[i], units[j], fu[k]) != want:
            return "centroid member fails the last-slot identity"
    return None


def quasi_witness_satisfies_reference(algebra, d_map, witness):
    n = algebra.dim
    c, d = algebra.c, algebra.d
    units = [vunit(n, i) for i in range(n)]
    du = [d_map.mul_vec(u) for u in units]
    for i, j in itertools.product(range(n), repeat=2):
        lhs = vadd(contraction_oracle_binary(c, du[i], units[j]),
                   contraction_oracle_binary(c, units[i], du[j]))
        if lhs != witness.dprime.mul_vec(c[i][j]):
            return False
    for i, j, k in itertools.product(range(n), repeat=3):
        lhs = contraction_oracle_ternary(d, du[i], units[j], units[k])
        lhs = vadd(lhs, contraction_oracle_ternary(d, units[i], du[j], units[k]))
        lhs = vadd(lhs, contraction_oracle_ternary(d, units[i], units[j], du[k]))
        if lhs != witness.dprimeprime.mul_vec(d[i][j][k]):
            return False
    return True


def recheck_algebras():
    return [catalog(name) for name in SOLVER_NAMES] + [rebased(catalog("sl2_plus_ab1"), 11)[0]]


def test_centroid_recheck_matches_reference(patch_calls_from):
    # The solver's second stage, which returns the space, is replaced by the
    # span of one chosen map, so the re-check sees members that may fail any
    # of its three identities.
    rng = random.Random(43)
    cases = []
    for a in recheck_algebras():
        members = [unflat(a.dim, flat) for flat in centroid(a).basis]
        candidates = members + [shifted(rng, f) for f in members]
        candidates += list(basis_maps(derivation_space(a)))[:3]
        candidates += [rand_map(rng, a.dim) for _ in range(3)]
        if a == catalog("lts_sl2"):
            # fails the middle and the last slot first at the same triple (0, 1, 1)
            candidates.append(Matrix.from_rows([[0, 2, 1], [0, 0, -1], [0, -1, 0]]))
        cases.append((a, candidates))
    messages = set()
    for a, candidates in cases:
        for f in candidates:
            if f.is_zero():
                continue
            patch_calls_from(derivations, derivations, "_within",
                             lambda space, rows, f=f: Subspace.span(space.ambient_dim,
                                                                    [f.flatten()]))
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
        maps = list(basis_maps(derivation_space(a)))
        maps += [unflat(n, flat) for flat in centroid(a).basis]
        maps += [rand_map(rng, n) for _ in range(2)]
        for d_map in maps:
            solved = is_quasi_derivation(a, d_map)
            witnesses = [QuasiWitness(d_map.scale(2), d_map.scale(3)),
                         QuasiWitness(rand_map(rng, n), rand_map(rng, n)),
                         QuasiWitness(Matrix.zero(n, n), Matrix.zero(n, n))]
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
    chev = Matrix.from_rows(CHEVALLEY)
    adh = Matrix.from_rows([[2, 0, 0], [0, -2, 0], [0, 0, 0]])
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
    from_tensors(sl2.labels, sl2.c, sl2.d)
    assert counts["form"] == 1


def test_verify_suite_builds_the_form_once_per_algebra(monkeypatch):
    """Each algebra the suite builds has its form checked once."""
    from lya import lyalg, theorems

    counts = {"check": 0}
    monkeypatch.setattr(lyalg, "_check_form", counting(counts, "check", lyalg._check_form))
    lyalg.catalog.cache_clear()
    theorems.default_catalog_reports()
    assert 0 < counts["check"] <= 10


def embed_block(f, offset, total):
    """f acting on the coordinates offset .. offset + f.rows - 1 of a total-dim space."""
    rows = [[0] * total for _ in range(total)]
    for p, row in enumerate(f.entries):
        for q, x in enumerate(row):
            rows[offset + p][offset + q] = x
    return Matrix.from_rows(rows)


@pytest.mark.parametrize("left,right", [
    (a, b) for a, b in itertools.combinations_with_replacement(CATALOG_NAMES, 2)
    if catalog(a).dim + catalog(b).dim <= 5])
def test_derivations_of_a_direct_sum_contain_the_summands(left, right):
    """der(A + B) contains der A + der B, acting block by block."""
    a, b = catalog(left), catalog(right)
    s = direct_sum(a, b)
    assert not check_axioms(s.dim, s.form)
    space = derivation_space(s)
    for f in basis_maps(derivation_space(a)):
        assert space.contains_vector(embed_block(f, 0, s.dim).flatten())
    for g in basis_maps(derivation_space(b)):
        assert space.contains_vector(embed_block(g, a.dim, s.dim).flatten())


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

    def wrapper(algebra, theta, vartheta):
        solved.append((algebra, theta, vartheta))
        return solve(algebra, theta, vartheta)
    monkeypatch.setattr(derivations, "_solve_twisted_space", wrapper)
    return solved


def fresh_space(algebra, theta, vartheta):
    """The twisted space through the public solvers, with no run open."""
    assert derivations._SOLVED.get() is None
    ident = Matrix.identity(algebra.dim)
    if theta == vartheta == ident:
        return derivation_space(algebra)
    return g_derivation_space(algebra, certify_automorphism(algebra, theta),
                              certify_automorphism(algebra, vartheta))


def test_catalog_reports_equal_each_check_run_alone(monkeypatch):
    from lya import theorems

    served = []
    lookup = derivations._twisted_space

    def wrapper(algebra, theta, vartheta):
        space = lookup(algebra, theta, vartheta)
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
    swap = Matrix.from_rows(SUM_CHEVALLEY)
    moved = certify_automorphism(a, p_inv.mul(swap).mul(p))
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
        assert derivations._solve_twisted_space(*key) == fresh_space(*key)


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
    solve, recheck = derivations._solve_twisted_space, maps.satisfies_g_derivation

    def solve_wrapper(algebra, theta, vartheta):
        solving[0] = True
        try:
            space = solve(algebra, theta, vartheta)
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
    monkeypatch.setattr(maps, "satisfies_g_derivation", recheck_wrapper)
    theorems.default_catalog_reports()
    assert len(dims) == 11
    assert len(rechecked) == len(set(rechecked)) == sum(dims.values()) > 11
    assert {call[:3] for call in rechecked} == {key for key, dim in dims.items() if dim}


@pytest.mark.parametrize("fault", ["solve", "recheck"])
def test_a_failed_solve_is_not_kept(monkeypatch, patch_calls_from, fault):
    """A solve that raises leaves nothing behind: the next call solves again."""
    sl2, chev = catalog("sl2"), chevalley_cert()
    if fault == "solve":
        def broken(cols, rows):
            raise InternalCheckError("kernel failed")
        target = (exactlin, "_kernel_space", broken)
    else:
        target = (maps, "satisfies_g_derivation", lambda *args: False)
    solved = recording_solves(monkeypatch)
    with derivations._solve_cache():
        with monkeypatch.context() as patch:
            patch_calls_from(derivations, *target, patch=patch)
            with pytest.raises(InternalCheckError):
                g_derivation_space(sl2, chev, chev)
        space = g_derivation_space(sl2, chev, chev)
        assert len(solved) == 2
        assert g_derivation_space(sl2, chev, chev) == space
        assert len(solved) == 2
    assert space == fresh_space(sl2, chev.map, chev.map)


def test_a_failed_recheck_names_the_solver_by_the_twist(patch_calls_from):
    """The message names the derivation solver exactly when both twists are
    the identity, whichever public solver asked.  Every map of abelian2 is a
    twisted derivation, so each space has basis maps to re-check."""
    a, neg = catalog("abelian2"), neg_cert("abelian2")
    ident = identity_cert(a)
    patch_calls_from(derivations, maps, "satisfies_g_derivation", lambda *args: False)
    for solver, args, kind in ((derivation_space, (a,), "derivation"),
                               (g_derivation_space, (a, ident, ident), "derivation"),
                               (single_twist_space, (a, ident), "derivation"),
                               (g_derivation_space, (a, neg, neg), "twisted"),
                               (g_derivation_space, (a, ident, neg), "twisted"),
                               (single_twist_space, (a, neg), "twisted")):
        with pytest.raises(InternalCheckError,
                           match=f"^{kind} solver produced an unsound basis element$"):
            solver(*args)


@pytest.mark.parametrize("call", ["stabilizer_derivations", "verify_all_p37", "dhat"])
def test_a_twist_of_the_wrong_dimension_is_refused(call):
    """A certificate of another dimension is refused before its rows are read."""
    from lya import theorems

    a, line = catalog("sl2_plus_ab1"), Subspace.span(4, [vunit(4, 3)])
    sl2_id = identity_cert(catalog("sl2"))
    neg5 = certify_automorphism(catalog("abelian(5)"), Matrix.identity(5).scale(-1))
    calls = {
        "stabilizer_derivations": lambda: stabilizer_derivations(a, sl2_id, line),
        "verify_all_p37": lambda: theorems.verify_all(a, [theorems.CheckSpec(
            "P37", theta=sl2_id, subspace=line, g=vunit(4, 0), h=vunit(4, 1))]),
        "dhat": lambda: dhat(a, Matrix.identity(4), neg5),
    }
    with pytest.raises(InputError, match="^automorphism dimension does not match the algebra$"):
        calls[call]()


def test_verify_p37_solves_one_hat_map_per_stabilizing_map(monkeypatch):
    """P37 solves the hat map once, and builds its prescription forms once,
    for each basis map of the stabilizer."""
    from lya import theorems

    counts = {"dhat": 0, "prescriptions": 0}
    monkeypatch.setattr(derivations, "_dhat", counting(counts, "dhat", derivations._dhat))
    monkeypatch.setattr(derivations, "_prescriptions",
                        counting(counts, "prescriptions", derivations._prescriptions))
    sl2 = catalog("sl2")
    report = theorems.verify_p37(sl2, identity_cert(sl2), Subspace.span(3, [vunit(3, E)]),
                                 vunit(3, E), vunit(3, F))
    assert counts["dhat"] == counts["prescriptions"] == report.details["stab_dim"] >= 2


# A reference for the hat map (those for the stabilizer and the quasi
# companions are in ``reference``): the wider system it used to build, kept
# here to pin its answers.

def dhat_reference(algebra, d_map, theta):
    """The n x m hat matrix from one nG x nm Kronecker system, or None."""
    n = algebra.dim
    w = derived_algebra(algebra)
    m = w.dim
    units = [vunit(n, i) for i in range(n)]
    c, d = algebra.c, algebra.d
    gens = [(c[i][j], prescribed_binary(c, d_map, theta.map, units[i], units[j]))
            for i in range(n) for j in range(i + 1, n)]
    gens += [(d[i][j][k], prescribed_ternary(d, d_map, theta.map, units[i], units[j], units[k]))
             for i, j, k in itertools.product(range(n), repeat=3)]
    rows, rhs = [], []
    for gen, target in gens:
        coords = coordinates(w, gen)
        for l in range(n):
            row = [Fraction(0)] * (n * m)
            row[l * m:(l + 1) * m] = coords
            rows.append(tuple(row))
            rhs.append(target[l])
    solution = solve(Matrix(len(rows), n * m, (1, tuple(rows))), rhs)
    if solution is None:
        return None
    return Matrix(n, m, (1, tuple(tuple(solution[l * m + b] for b in range(m)) for l in range(n))))


@functools.cache
def narrowed_cases():
    """(algebra, twists, subspaces) over the catalog, sl2_plus_ab1 in a seeded
    rational basis, h5 and gl2.  The subspaces are the full and zero spaces
    and every coordinate block (transported into the rebased basis) that is
    a subalgebra stabilized by the twist."""
    rebased_sum, _, p_inv = rebased(catalog("sl2_plus_ab1"), 11)
    extra = {"sl2": [chevalley_cert()], "lts_sl2": [neg_cert("lts_sl2")]}
    algebras = [(catalog(name), None, extra.get(name, [])) for name in CATALOG_NAMES]
    swap = Matrix.from_rows(H5_SWAP)
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


def test_stabilizer_basis_is_already_in_reduced_echelon_form():
    """The coefficient kernel times the twisted basis is its own reduced
    echelon form, which is why the stabilizer skips Subspace.span."""
    for a, theta, subspaces in narrowed_cases():
        twisted = single_twist_space(a, theta)
        for h in subspaces:
            basis = derivations._stabilizer_space(a, theta.map, twisted, h).basis
            assert Subspace.span(a.dim ** 2, basis).basis == basis


def test_stabilizer_matches_rows_and_intersection_reference():
    seen = set()
    for a, theta, subspaces in narrowed_cases():
        twisted = single_twist_space(a, theta)
        for h in subspaces:
            got = derivations._stabilizer_space(a, theta.map, twisted, h)
            assert got == stabilizer_reference(a, twisted, h)
            seen.add((h.dim in (0, a.dim), got.dim < twisted.dim))
    # full, zero and proper blocks; proper blocks that do and do not cut the space down
    assert seen == {(True, False), (False, False), (False, True)}


def reference_maps(rng, a):
    """Derivation, centroid, zero and random maps of the algebra."""
    n = a.dim
    maps = list(basis_maps(derivation_space(a)))[:3]
    maps += [unflat(n, flat) for flat in centroid(a).basis[:2]]
    return maps + [Matrix.zero(n, n), rand_map(rng, n), rand_map(rng, n)]


@functools.cache
def transported_rhs_cases():
    """(algebra, automorphisms) over the catalog, two direct sums,
    sl2_plus_ab1 in a seeded rational basis, h5 and gl2.  Besides the
    identity: on sl2 the Chevalley swap and diag(-1, -1, 1), on h3 the
    order-4 map x -> y, y -> -x, z -> z, on lts_sl2 the negation, on the
    rebased sum the Chevalley swap with the line negated, and on h5 the swap
    x_i -> y_i, y_i -> -x_i."""
    rebased_sum, p, p_inv = rebased(catalog("sl2_plus_ab1"), 11)
    twists = {
        "sl2": [CHEVALLEY, [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]],
        "h3": [[[0, -1, 0], [1, 0, 0], [0, 0, 1]]],
        "lts_sl2": [[[-1, 0, 0], [0, -1, 0], [0, 0, -1]]],
    }
    algebras = [(catalog(name), [Matrix.from_rows(t) for t in twists.get(name, [])])
                for name in CATALOG_NAMES]
    algebras += [(direct_sum(catalog(x), catalog(y)), [])
                 for x, y in (("aff2", "h3"), ("leibniz2", "lts_sl2"))]
    algebras += [(rebased_sum, [p_inv.mul(Matrix.from_rows(SUM_CHEVALLEY)).mul(p)]),
                 (h5(), [Matrix.from_rows(H5_SWAP)]),
                 (gl2(), [])]
    return [(a, [identity_cert(a)] + [certify_automorphism(a, t) for t in maps])
            for a, maps in algebras]


@functools.cache
def row_cases():
    """(algebra, automorphisms) for the constraint rows: the cases of
    :func:`transported_rhs_cases` and abelian0; the Chevalley swap and
    torus twists with denominators on sl2, lts_sl2 and sl2_plus_ab1; gl2
    with GL2_TWISTS; and h5 and gl2 in seeded rational bases, with
    their twists transported (a map f becomes P^-1 f P)."""
    cases = list(transported_rhs_cases())
    cases.append((catalog("abelian0"), [identity_cert(catalog("abelian0"))]))
    for name, twists in (("sl2", ("chevalley", "torus")), ("lts_sl2", ("neg", "chevalley", "torus")),
                         ("sl2_plus_ab1", ("id", "torus4"))):
        cases.append((catalog(name), [twist_cert(name, t) for t in twists]))
    for a, twists, seed in ((gl2(), GL2_TWISTS, 5), (h5(), [H5_SWAP], 7)):
        cases.append((a, [identity_cert(a)] + [certify_automorphism(a, Matrix.from_rows(t))
                                               for t in twists]))
        b, p, p_inv = rebased(a, seed)
        cases.append((b, [identity_cert(b)] + [
            certify_automorphism(b, p_inv.mul(Matrix.from_rows(t)).mul(p))
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
            t, v = theta.map, vartheta.map
            systems.append(([(None, t), (v, None)], [(None, t, v), (v, None, t), (t, v, None)],
                            g_derivation_space(a, theta, vartheta)))
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
            assert space == nullspace(Matrix(len(reference), n * n, (1, tuple(reference))))


def test_twisted_and_centroid_rows_make_no_dense_contraction():
    """The derivation, twisted and centroid solves and their re-checks read
    the stored integer form only: no lya module keeps a dense contraction
    (ternary_eval, binary_eval) or a dense tensor builder (tensor3,
    tensor4).  On h5 with theta the swap x_i -> y_i, y_i -> -x_i, the dense
    rows made 400 binary_eval calls for the twisted solve alone."""
    import sys

    from lya import lyalg

    names = ("ternary_eval", "binary_eval", "tensor3", "tensor4")
    assert not [name for name in names if hasattr(lyalg, name)]
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "lya":
            assert not [name for name in names if hasattr(module, name)], module_name


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
            consistent = isinstance(got, PartialMap)
            if want is None:
                assert isinstance(got, DhatClash)
            else:
                assert got.matrix_on_domain == want
                assert got.domain == derived_algebra(a)
            outcomes.append((consistent, consistent and 0 < got.domain.dim < a.dim))
    assert {(True, True), (True, False), (False, False)} <= set(outcomes)


# The hat map as it stood with its prescribed images built basis tuple by
# basis tuple, here from the dense reference formulas, kept to pin the
# images now transported on the stored integer form.

def dhat_rhs_tuplewise(algebra, d_map, theta):
    """Prescribed image of every product generator, in generator order."""
    n, c, d = algebra.dim, algebra.c, algebra.d
    units = [vunit(n, i) for i in range(n)]
    rhs = [prescribed_binary(c, d_map, theta, units[i], units[j])
           for i in range(n) for j in range(i + 1, n)]
    rhs += [prescribed_ternary(d, d_map, theta, units[i], units[j], units[k])
            for i, j, k in itertools.product(range(n), repeat=3)]
    return rhs


def prescribed_images(algebra, d_map, theta):
    """The hat map's prescription forms read at every product generator."""
    n = algebra.dim
    binary, ternary = derivations._prescriptions(algebra, d_map, theta)
    rhs = [_vector_at(binary, (i, j), n) for i in range(n) for j in range(i + 1, n)]
    return rhs + [_vector_at(ternary, idx, n) for idx in itertools.product(range(n), repeat=3)]


def dhat_tuplewise_reference(algebra, d_map, theta):
    n = algebra.dim
    w = derived_algebra(algebra)
    c, d = algebra.c, algebra.d
    gens = [(("binary", i, j), c[i][j]) for i in range(n) for j in range(i + 1, n)]
    gens += [(("ternary", i, j, k), d[i][j][k])
             for i, j, k in itertools.product(range(n), repeat=3)]
    gen_matrix = Matrix(n, len(gens), (1, tuple(
        tuple(gen_vec[row] for _, gen_vec in gens) for row in range(n))))
    kernel = nullspace(gen_matrix).basis
    rhs = dhat_rhs_tuplewise(algebra, d_map, theta.map)
    for lam in kernel:
        mismatch = vzero(n)
        for coeff, gen_rhs in zip(lam, rhs):
            if coeff != 0:
                mismatch = vadd(mismatch, vscale(coeff, gen_rhs))
        if any(mismatch):
            terms = tuple((gens[r][0], lam[r]) for r in range(len(gens)) if lam[r] != 0)
            return DhatClash(terms=terms, mismatch=mismatch)
    system = Matrix(len(gens), w.dim, (1, tuple(coordinates(w, gen_vec) for _, gen_vec in gens)))
    matrix_rows = [solve(system, [gen_rhs[l] for gen_rhs in rhs]) for l in range(n)]
    matrix = Matrix(n, w.dim, (1, tuple(matrix_rows)))
    return PartialMap(domain=w, matrix_on_domain=matrix)


def test_transported_dhat_rhs_matches_the_tuplewise_reference():
    rng = random.Random(82)
    seen = set()
    for a, certs in transported_rhs_cases():
        for theta in certs:
            for d_map in reference_maps(rng, a):
                assert prescribed_images(a, d_map, theta.map) == \
                    dhat_rhs_tuplewise(a, d_map, theta.map)
                got = dhat(a, d_map, theta)
                want = dhat_tuplewise_reference(a, d_map, theta)
                assert got == want
                seen.add((isinstance(got, PartialMap), theta == identity_cert(a)))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_quasi_rechecks_the_witness_it_returns(patch_calls_from, tmp_path):
    """A wrong companion from the solve ends in InternalCheckError in process,
    and in the CLI's error report with "internal": true and exit 1, instead
    of being returned or printed."""
    import io
    import json

    from lya.cli import main
    from lya.serialize import algebra_to_dict, map_to_dict, save_json_file

    sl2 = catalog("sl2")
    adh = Matrix.from_rows([[2, 0, 0], [0, -2, 0], [0, 0, 0]])
    assert is_quasi_derivation(sl2, adh) is not None
    exact = exactlin._map_through

    def off_by_one(rows, dim, codim):
        x = exact(rows, dim, codim)
        if x is None:
            return None
        first = (x.entries[0][0] + 1,) + x.entries[0][1:]
        return Matrix(x.rows, x.cols, (1, (first,) + x.entries[1:]))

    patch_calls_from(derivations, exactlin, "_map_through", off_by_one)
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
    a = h5()
    d_map = basis_maps(derivation_space(a))[0]
    shapes = []
    eliminate = exactlin._rref

    def recording(cols, rows):
        rows = list(rows)
        shapes.append((len(rows), cols))
        return eliminate(cols, rows)

    def no_rows(*args):
        raise AssertionError("is_quasi_derivation assembled constraint rows")

    monkeypatch.setattr(exactlin, "_rref", recording)
    monkeypatch.setattr(derivations, "_identity_rows", no_rows)
    assert is_quasi_derivation(a, d_map) is not None
    assert shapes == [(10, 2 * a.dim), (50, 2 * a.dim)]


def test_an_alternating_identity_keeps_only_the_rows_with_i_below_j(patch_calls_from):
    """For θ = ϑ, plain derivations included, both twisted identities change
    sign when the first two basis vectors swap, so only the basis tuples with
    i < j carry rows: on gl4, 1 572 binary rows over the 256 entries and
    15 000 ternary rows over the 16 coefficients of the binary stage's
    space, where every ordered tuple gives 3 144 and 30 000.  A pair θ ≠ ϑ
    keeps every ordered tuple, and so does the centroid, whose identity is
    not alternating.  Each stage is one kernel: the first over the n*n
    entries, the second over the first one's coefficients."""
    sizes = []
    solve = exactlin._kernel_space

    def recording(cols, rows):
        sizes.append((cols, len(rows)))
        return solve(cols, rows)

    def every_row(a, t, v):
        """The rows of the twisted identities on every ordered basis tuple."""
        return (len(derivations._identity_rows(a, 2, [(None, t), (v, None)])),
                len(derivations._identity_rows(a, 3, [(None, t, v), (v, None, t), (t, v, None)])))

    patch_calls_from(derivations, exactlin, "_kernel_space", recording)
    a, ident = gl(4), Matrix.identity(16)
    assert derivation_space(a).dim == 16
    assert sizes == [(256, 1572), (16, 15000)] and every_row(a, ident, ident) == (3144, 30000)
    b = h5()
    swap, ident = Matrix.from_rows(H5_SWAP), Matrix.identity(5)
    sizes.clear()
    g_derivation_space(b, *[certify_automorphism(b, m) for m in (swap, swap)])
    g_derivation_space(b, *[certify_automorphism(b, m) for m in (swap, ident)])
    centroid(b)
    # h5's ternary product is zero, so only the binary stages have rows.
    assert [rows for _, rows in sizes[1::2]] == [0, 0, 0]
    assert [cols for cols, _ in sizes[::2]] == [25, 25, 25]
    binary = [rows for _, rows in sizes[::2]]
    assert binary[0] < every_row(b, swap, swap)[0]
    assert binary[1] == every_row(b, swap, ident)[0]
    assert binary[2] == len(derivations._identity_rows(b, 2, [(None, ident)]))


def test_dhat_solves_a_consistent_map_with_one_elimination(monkeypatch, patch_calls_from):
    """On h5: one elimination of the G x 2n rows (product | image), one row
    per product generator, and the one of the guard's derived_algebra; the
    generator kernel is never read."""
    a = h5()
    n = a.dim
    d_map = basis_maps(derivation_space(a))[0]
    shapes = []
    eliminate = exactlin._rref

    def recording(cols, rows):
        rows = list(rows)
        shapes.append((len(rows), cols))
        return eliminate(cols, rows)

    def no_kernel(cols, rows):
        raise AssertionError("dhat read the generator kernel of a consistent map")

    monkeypatch.setattr(exactlin, "_rref", recording)
    patch_calls_from(derivations, exactlin, "_kernel", no_kernel)
    assert isinstance(dhat(a, d_map, identity_cert(a)), PartialMap)
    assert shapes[0] == (n * (n - 1) // 2 + n ** 3, 2 * n)
    assert len(shapes) == 2 and shapes[1][1] == n


def first_clash_index(algebra, d_map, theta):
    """Position of the first canonical kernel vector of the dense generator
    matrix whose prescribed images do not cancel."""
    n = algebra.dim
    c, d = algebra.c, algebra.d
    gens = [c[i][j] for i in range(n) for j in range(i + 1, n)]
    gens += [d[i][j][k] for i, j, k in itertools.product(range(n), repeat=3)]
    rhs = dhat_rhs_tuplewise(algebra, d_map, theta.map)
    kernel = nullspace(Matrix(n, len(gens), (1, tuple(zip(*gens))))).basis
    return next(k for k, lam in enumerate(kernel)
                if any(sum(c * y[l] for c, y in zip(lam, rhs)) for l in range(n)))


def test_inconsistent_dhat_reads_the_kernel_only_up_to_its_clash(patch_calls_from):
    """The kernel is walked only for an inconsistent map, and only as far as
    the first vector whose images do not cancel."""
    rng = random.Random(73)
    kernel = exactlin._kernel
    drawn = []

    def counted(cols, rows):
        scale, vectors = kernel(cols, rows)

        def walked():
            for lam in vectors:
                drawn.append(lam)
                yield lam
        return scale, walked()

    patch_calls_from(derivations, exactlin, "_kernel", counted)
    clash_at = []
    for a, theta, _ in narrowed_cases():
        for d_map in reference_maps(rng, a):
            drawn.clear()
            if isinstance(dhat(a, d_map, theta), PartialMap):
                assert drawn == []
            else:
                assert len(drawn) == first_clash_index(a, d_map, theta) + 1
                clash_at.append(len(drawn))
    assert len(clash_at) > 10 and max(clash_at) > 1


def test_dhat_guards_fire_with_their_messages(monkeypatch, patch_calls_from):
    """A domain other than the derived algebra, or an inconsistent
    elimination whose kernel walk finds no clash, is an internal failure."""
    sl2 = catalog("sl2")
    theta = identity_cert(sl2)
    zero, ident = Matrix.zero(3, 3), Matrix.identity(3)
    assert isinstance(dhat(sl2, zero, theta), PartialMap)
    assert isinstance(dhat(sl2, ident, theta), DhatClash)
    with monkeypatch.context() as patch:
        patch.setattr(structure, "derived_algebra", lambda a: Subspace.zero(a.dim))
        with pytest.raises(InternalCheckError, match="escaped the derived algebra"):
            dhat(sl2, zero, theta)
    with monkeypatch.context() as patch:
        patch_calls_from(derivations, exactlin, "_kernel", lambda cols, rows: (1, iter(())),
                         patch=patch)
        with pytest.raises(InternalCheckError, match="passed the kernel test but did not solve"):
            dhat(sl2, ident, theta)


def test_dhat_on_algebras_without_products():
    """abelian(0) has no product generators and abelian1 only zero ones; the
    hat map of any map is the empty map on the zero domain, in the bytes it
    always had."""
    from lya.lyalg import abelian
    from lya.serialize import canonical_json, dhat_result_to_dict

    for n in (0, 1):
        a = abelian(n)
        matrix = "[\n      []\n    ]" if n else "[]"
        want = ('{\n  "clash": null,\n  "consistent": true,\n  "map": {\n    "domain": {\n'
                f'      "ambient": {n},\n      "basis": []\n    }},\n'
                f'    "matrix": {matrix}\n  }}\n}}\n')
        for d_map in (Matrix.identity(n), Matrix.zero(n, n), rand_map(random.Random(74), n)):
            assert canonical_json(dhat_result_to_dict(dhat(a, d_map, identity_cert(a)))) == want


# -- basis covariance of the solvers ---------------------------------------------

def test_solver_spaces_are_basis_covariant():
    """For rational P drawn by hypothesis and A' = P.A (products
    P^-1 T(P e_i, P e_j[, P e_k])): der A' = P^-1 (der A) P, the same for the
    centroid, and the (theta, vartheta)-derivations of A' are the conjugates
    of those of A for the conjugated twists, theta = vartheta or not."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entries = st.fractions(min_value=-2, max_value=2, max_denominator=3)

    def draws(k):
        n = covariance_cases()[k][0].dim
        return st.tuples(st.just(k), st.lists(st.lists(entries, min_size=n, max_size=n),
                                              min_size=n, max_size=n))

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=40)
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

        def conjugated(maps):
            return Subspace.span(n * n, [conj(f).flatten() for f in maps])

        assert derivation_space(moved) == conjugated(basis_maps(derivation_space(a)))
        assert centroid(moved) == conjugated(unflat(n, row)
                                             for row in centroid(a).basis)
        maps = [Matrix.identity(n)] + twists
        for theta, vartheta in itertools.product(maps, repeat=2):
            if (theta, vartheta) == (maps[0], maps[0]):
                continue
            space = g_derivation_space(a, certify_automorphism(a, theta),
                                       certify_automorphism(a, vartheta))
            moved_space = g_derivation_space(moved, certify_automorphism(moved, conj(theta)),
                                             certify_automorphism(moved, conj(vartheta)))
            assert moved_space == conjugated(basis_maps(space))

    check()
