import itertools
import random
from fractions import Fraction

import pytest

from lya.errors import InputError
from lya.exactlin import (
    Matrix,
    _map_through,
    Subspace,
    coordinates,
    frac,
    invert,
    nullspace,
    pivot_cols,
    rank,
    rref,
    solve,
    subspace_contains,
    subspace_intersect,
    subspace_sum,
    vec,
    vunit,
)


def independent_rank(rows):
    """Rank oracle: forward elimination only, coded separately from rref."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def random_matrix(rng, rows, cols, span=6, dens=(1, 1, 2, 3), density=1.0):
    """Seeded rational matrix; each entry is nonzero-drawn with probability ``density``."""
    return Matrix.from_rows(
        [[Fraction(rng.randint(-span, span), rng.choice(dens)) if rng.random() < density else 0
          for _ in range(cols)]
         for _ in range(rows)],
        cols=cols,
    )


def rref_reference(m):
    """Plain Fraction Gauss-Jordan, the oracle for the fraction-free rref."""
    rows = [list(r) for r in m.entries]
    nrows, ncols = m.rows, m.cols
    pr = 0
    for pc in range(ncols):
        piv = None
        for r in range(pr, nrows):
            if rows[r][pc] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        inv = rows[pr][pc]
        if inv != 1:
            rows[pr] = [x / inv for x in rows[pr]]
        for r in range(nrows):
            if r != pr and rows[r][pc] != 0:
                f = rows[r][pc]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pr])]
        pr += 1
        if pr == nrows:
            break
    return Matrix(pr, ncols, tuple(tuple(r) for r in rows[:pr]))


def differential_cases():
    """Seeded matrices of the shapes the solvers feed to rref, plus edge shapes."""
    rng = random.Random(31337)
    cases = []
    for _ in range(4):
        # Constraint-like: tall, about 5 % nonzero.
        cases.append(random_matrix(rng, 300, 16, density=0.05))
    for _ in range(6):
        # Dense rationals with large numerators.
        cases.append(random_matrix(rng, rng.randint(3, 12), rng.randint(3, 12),
                                   span=10**6, dens=range(1, 8)))
    for _ in range(3):
        cases.append(random_matrix(rng, 5, 135, density=0.3))
    for _ in range(6):
        # Rank-deficient products: inner dimension below both outer ones.
        k = rng.randint(1, 4)
        a = random_matrix(rng, rng.randint(k + 1, 10), k)
        b = random_matrix(rng, k, rng.randint(k + 1, 10))
        cases.append(a.mul(b))
    for _ in range(4):
        # Duplicated, rescaled and zero rows interleaved.
        base = random_matrix(rng, 4, 7, density=0.6)
        rows = [r for r in base.entries for _ in range(2)] + [(Fraction(0),) * 7] * 3
        rows += [tuple(Fraction(-3, 2) * x for x in r) for r in base.entries]
        rng.shuffle(rows)
        cases.append(Matrix(len(rows), 7, tuple(rows)))
    cases += [Matrix.zero(0, 5), Matrix(4, 0, ((),) * 4), Matrix.zero(0, 0), Matrix.zero(6, 3)]
    return cases


def assert_fraction_entries(m):
    assert all(type(x) is Fraction for r in m.entries for x in r)


def test_rref_matches_fraction_reference():
    for m in differential_cases():
        got = rref(m)
        assert got == rref_reference(m)
        assert_fraction_entries(got)


def test_rref_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m in differential_cases():
        if m.rows == 0 or m.cols == 0:
            continue
        red, _ = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                               for r in m.entries]).rref()
        want = [tuple(Fraction(int(x.p), int(x.q)) for x in red.row(i))
                for i in range(red.rows)]
        assert rref(m).entries == tuple(r for r in want if any(r))


def test_rref_matches_reference_on_generated_matrices():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    entry = st.fractions(min_value=-50, max_value=50, max_denominator=9)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(0, 6).flatmap(
        lambda cols: st.lists(st.lists(st.one_of(st.just(Fraction(0)), entry),
                                       min_size=cols, max_size=cols), max_size=8)
        .map(lambda rows: Matrix(len(rows), cols, tuple(map(tuple, rows))))))
    def check(m):
        got = rref(m)
        assert got == rref_reference(m)
        assert_fraction_entries(got)

    check()


def test_rref_dependent_rows_collapse():
    m = Matrix.from_rows([[2, 4], [1, 2]])
    assert rref(m) == Matrix.from_rows([[1, 2]])


def test_rref_identity_fixed():
    assert rref(Matrix.identity(3)) == Matrix.identity(3)


def test_rref_zero_matrix_drops_all_rows():
    r = rref(Matrix.zero(2, 2))
    assert r.rows == 0 and r.cols == 2


def test_rref_idempotent_on_random_matrices():
    rng = random.Random(1234)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(0, 8), rng.randint(1, 8))
        r = rref(m)
        assert rref(r) == r


def test_nullspace_line():
    s = nullspace(Matrix.from_rows([[1, 1]]))
    assert s.dim == 1
    assert s.basis == (vec([1, -1]),)


def test_nullspace_identity_trivial():
    assert nullspace(Matrix.identity(2)).dim == 0


def test_nullspace_rank_one_matrix():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6]])
    assert independent_rank(m.entries) == 1
    s = nullspace(m)
    assert s.dim == 3 - independent_rank(m.entries)


def test_nullspace_vectors_annihilate():
    rng = random.Random(99)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        s = nullspace(m)
        assert s.dim == m.cols - independent_rank(m.entries)
        for v in s.basis:
            assert all(x == 0 for x in m.mul_vec(v))


def test_solve_square():
    assert solve(Matrix.identity(2), [3, 5]) == vec([3, 5])


def test_solve_free_variable_zeroed():
    assert solve(Matrix.from_rows([[1, 1]]), [2]) == vec([2, 0])


def test_solve_inconsistent():
    assert solve(Matrix.from_rows([[1], [1]]), [1, 2]) is None


def test_solve_postconditions_random():
    rng = random.Random(7)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        b = vec([rng.randint(-4, 4) for _ in range(m.rows)])
        x = solve(m, b)
        aug = Matrix(m.rows, m.cols + 1,
                     tuple(r + (b[i],) for i, r in enumerate(m.entries)))
        if x is None:
            assert independent_rank(aug.entries) > independent_rank(m.entries)
        else:
            assert m.mul_vec(x) == b
            assert independent_rank(aug.entries) == independent_rank(m.entries)


def test_invert_round_trip():
    m = Matrix.from_rows([[2, 1], [1, 1]])
    inv = invert(m)
    assert inv is not None
    assert m.mul(inv) == Matrix.identity(2)
    assert inv.mul(m) == Matrix.identity(2)


def test_invert_singular():
    assert invert(Matrix.from_rows([[1, 2], [2, 4]])) is None


def test_subspace_span_canonicalizes():
    s = Subspace.span(2, [[2, 2], [4, 4]])
    assert s.basis == (vec([1, 1]),)


def test_subspace_rejects_non_rref_basis():
    with pytest.raises(InputError):
        Subspace(2, (vec([2, 0]),))


def test_constructed_subspaces_pass_the_public_validation():
    # span, zero and full skip the validating rref; the public constructor
    # must accept every basis they produce and give an equal value
    rng = random.Random(17)
    spaces = [Subspace.zero(3), Subspace.full(4), Subspace.zero(0), Subspace.full(0)]
    for rows, cols, density in ((3, 5, 1.0), (6, 4, 0.5), (2, 7, 0.3), (5, 5, 0.2), (0, 3, 1.0)):
        m = random_matrix(rng, rows, cols, density=density)
        spaces += [Subspace.span(cols, m.entries), nullspace(m)]
    for s in spaces:
        assert Subspace(s.ambient_dim, s.basis) == s


def test_sum_of_axes_is_full_plane():
    a = Subspace.span(2, [vunit(2, 0)])
    b = Subspace.span(2, [vunit(2, 1)])
    assert subspace_sum(a, b) == Subspace.full(2)


def test_sum_idempotent():
    v = Subspace.span(3, [[1, 2, 3], [0, 1, 1]])
    assert subspace_sum(v, v) == v


def test_sum_of_two_lines():
    a = Subspace.span(3, [[1, 1, 0]])
    b = Subspace.span(3, [[1, -1, 0]])
    s = subspace_sum(a, b)
    assert independent_rank([[1, 1, 0], [1, -1, 0]]) == 2
    assert s == Subspace.span(3, [vunit(3, 0), vunit(3, 1)])


def test_intersect_self():
    v = Subspace.span(3, [[1, 0, 2], [0, 1, 5]])
    assert subspace_intersect(v, v) == v


def test_intersect_axes_trivial():
    a = Subspace.span(2, [vunit(2, 0)])
    b = Subspace.span(2, [vunit(2, 1)])
    assert subspace_intersect(a, b).dim == 0


def test_intersect_planes_in_q3():
    a = Subspace.span(3, [vunit(3, 0), vunit(3, 1)])
    b = Subspace.span(3, [vunit(3, 1), vunit(3, 2)])
    i = subspace_intersect(a, b)
    assert i == Subspace.span(3, [vunit(3, 1)])
    assert subspace_contains(a, i) and subspace_contains(b, i)
    assert a.dim + b.dim == subspace_sum(a, b).dim + i.dim


def test_grassmann_identity_random_subspaces():
    rng = random.Random(2024)
    for _ in range(25):
        a = Subspace.span(6, [[rng.randint(-3, 3) for _ in range(6)]
                              for _ in range(rng.randint(0, 4))])
        b = Subspace.span(6, [[rng.randint(-3, 3) for _ in range(6)]
                              for _ in range(rng.randint(0, 4))])
        s = subspace_sum(a, b)
        i = subspace_intersect(a, b)
        assert a.dim + b.dim == s.dim + i.dim
        assert subspace_contains(a, i) and subspace_contains(b, i)
        assert subspace_contains(s, a) and subspace_contains(s, b)


def test_contains_full_space():
    assert subspace_contains(Subspace.full(3), [5, -7, Fraction(1, 3)])


def test_contains_zero_space():
    assert not subspace_contains(Subspace.zero(2), vunit(2, 0))


def test_contains_scalar_multiple():
    s = Subspace.span(2, [[1, 1]])
    assert subspace_contains(s, [2, 2])


def test_dimension_mismatch_rejected():
    a = Subspace.full(2)
    b = Subspace.full(3)
    with pytest.raises(InputError):
        subspace_sum(a, b)
    with pytest.raises(InputError):
        subspace_intersect(a, b)
    with pytest.raises(InputError):
        subspace_contains(a, [1, 2, 3])


def test_coordinates_in_canonical_basis():
    s = Subspace.span(3, [[1, 0, 1], [0, 1, 2]])
    assert coordinates(s, [3, 4, 11]) == vec([3, 4])
    assert coordinates(s, [1, 0, 0]) is None


def test_empty_matrix_shapes():
    m = Matrix.zero(0, 3)
    assert rref(m).rows == 0
    assert nullspace(m) == Subspace.full(3)
    assert rank(m) == 0


@pytest.mark.parametrize("text,value", [
    ("-2/5", Fraction(-2, 5)), ("3", Fraction(3)), (" 1 ", Fraction(1)), ("+4/6", Fraction(2, 3)),
])
def test_frac_parses_the_documented_forms(text, value):
    assert frac(text) == value


@pytest.mark.parametrize("text", ["1e9999999", "1.5", "1_000", "٣", "3 / 4", "1/", ""])
def test_frac_rejects_other_rational_syntax(text):
    """Exponents, decimals, underscores and non-ASCII digits are not p or p/q;
    the exponent would otherwise take seconds to expand."""
    with pytest.raises(InputError, match="cannot parse rational"):
        frac(text)


def sympy_matrix(sympy, rows, cols):
    return sympy.Matrix(len(rows), cols, [sympy.Rational(x.numerator, x.denominator)
                                          for r in rows for x in r])


def sympy_span(sympy, columns):
    """Canonical RREF rows of the span of sympy column vectors, as Fractions."""
    if not columns:
        return ()
    red, _ = sympy.Matrix.hstack(*columns).T.rref()
    rows = [tuple(Fraction(int(x.p), int(x.q)) for x in red.row(i)) for i in range(red.rows)]
    return tuple(r for r in rows if any(r))


def test_nullspace_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m in differential_cases():
        want = sympy_span(sympy, sympy_matrix(sympy, m.entries, m.cols).nullspace())
        assert nullspace(m).basis == want


def nullspace_two_pass_reference(m):
    """The kernel vectors read off rref(m), put in reduced echelon form by a
    second elimination over all of them in Subspace.span."""
    r = rref(m)
    pivots = pivot_cols(r.entries)
    vectors = []
    for f in (j for j in range(m.cols) if j not in pivots):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for row, p in zip(r.entries, pivots):
            v[p] = -row[f]
        vectors.append(v)
    return Subspace.span(m.cols, vectors)


def algebra_matrices():
    """For the catalog, sl2_plus_ab1 in a seeded rational basis, h5 and gl2:
    the hat map's n x (n(n-1)/2 + n^3) product-generator matrix and the tall
    derivation constraint matrix."""
    from lya import derivations
    from lya.lyalg import CATALOG_NAMES, catalog
    from test_derivations import gl2, h5
    from test_maps import rebased

    algebras = [catalog(name) for name in CATALOG_NAMES]
    algebras += [rebased(catalog("sl2_plus_ab1"), 11)[0], h5(), gl2()]
    out = []
    for a in algebras:
        n = a.dim
        gens = [a.c[i][j] for i in range(n) for j in range(i + 1, n)]
        gens += [a.d[i][j][k] for i, j, k in itertools.product(range(n), repeat=3)]
        out.append(Matrix(n, len(gens), tuple(tuple(g[l] for g in gens) for l in range(n))))
        ident = Matrix.identity(n)
        rows = derivations._identity_rows(a, 2, [(None, ident), (ident, None)])
        rows += derivations._identity_rows(a, 3, [(None, ident, ident), (ident, None, ident),
                                                  (ident, ident, None)])
        out.append(Matrix(len(rows), n * n, tuple(rows)))
    return out


def nullspace_cases():
    """The rref differential matrices (also run against sympy), edge shapes,
    full-rank shapes and the solvers' matrices on known algebras."""
    rng = random.Random(2718)
    shapes = [Matrix.zero(0, 5), Matrix(4, 0, ((),) * 4), Matrix.zero(0, 0), Matrix.zero(6, 3),
              Matrix.identity(5), random_matrix(rng, 8, 4), random_matrix(rng, 4, 8)]
    return differential_cases() + shapes + algebra_matrices()


def test_nullspace_matches_the_two_pass_reference():
    kinds = set()
    for m in nullspace_cases():
        got = nullspace(m)
        assert got.basis == nullspace_two_pass_reference(m).basis
        assert Subspace(m.cols, got.basis) == got
        assert_fraction_entries(Matrix(got.dim, m.cols, got.basis))
        kinds.add((got.dim == 0, got.dim == m.cols))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_nullspace_second_pass_runs_on_the_pivot_rows(monkeypatch):
    """Two rref calls per nullspace: the matrix itself, then its rank many
    pivot rows."""
    from lya import exactlin

    seen = []

    def recording(m):
        seen.append(m.rows)
        return rref(m)

    for m in nullspace_cases():
        seen.clear()
        monkeypatch.setattr(exactlin, "rref", recording)
        nullspace(m)
        monkeypatch.undo()
        assert seen == [m.rows, independent_rank(m.entries)]


def test_nullspace_matches_the_two_pass_reference_on_drawn_matrices():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entries = st.one_of(st.just(Fraction(0)),
                        st.fractions(min_value=-4, max_value=4, max_denominator=3))
    matrices = st.tuples(st.integers(0, 6), st.integers(0, 7)).flatmap(
        lambda shape: st.lists(st.lists(entries, min_size=shape[1], max_size=shape[1]),
                               min_size=shape[0], max_size=shape[0]).map(
            lambda rows, cols=shape[1]: Matrix(len(rows), cols, tuple(map(tuple, rows)))))

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @hypothesis.given(matrices)
    def check(m):
        got = nullspace(m)
        assert got.basis == nullspace_two_pass_reference(m).basis
        assert Subspace(m.cols, got.basis) == got

    check()


def intersection_cases():
    """Subspace pairs on the rows of the rref differential matrices: each
    matrix's row space against half of its rows plus seeded new ones, and
    against the empty span."""
    rng = random.Random(4243)
    pairs = []
    for m in differential_cases():
        extra = random_matrix(rng, rng.randint(0, 3), m.cols, density=0.5).entries
        other = m.entries[: m.rows // 2] + extra
        pairs += [(m.entries, other, m.cols), (other, (), m.cols)]
    return pairs


def test_subspace_intersect_matches_sympy():
    """U and V meet in the kernel of their stacked orthogonal complements."""
    sympy = pytest.importorskip("sympy")
    dims = set()
    for u, v, cols in intersection_cases():
        perp = (sympy_matrix(sympy, u, cols).nullspace()
                + sympy_matrix(sympy, v, cols).nullspace())
        stacked = sympy.Matrix.hstack(*perp).T if perp else sympy.zeros(0, cols)
        want = sympy_span(sympy, stacked.nullspace())
        got = subspace_intersect(Subspace.span(cols, u), Subspace.span(cols, v))
        assert got.basis == want
        dims.add((got.dim > 0, got.dim < len(v)))
    assert dims == {(False, False), (False, True), (True, False), (True, True)}


# solve as it stood with its own augmented elimination, the oracle for the
# shared _map_through behind solve, invert and the prescribed-image solvers.

def solve_augmented_reference(m, b):
    aug = Matrix(m.rows, m.cols + 1,
                 tuple(row + (Fraction(b[i]),) for i, row in enumerate(m.entries)))
    r = rref(aug)
    pivots = pivot_cols(r.entries)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for row_idx, p in enumerate(pivots):
        x[p] = r.entries[row_idx][m.cols]
    return tuple(x)


def map_through_by_columns(points, images, dim, codim):
    """Row l of X from the reference solve of points . x = (image coordinate l)."""
    m = Matrix(len(points), dim, tuple(tuple(p) for p in points))
    rows = [solve_augmented_reference(m, [y[l] for y in images]) for l in range(codim)]
    if None in rows:
        return None
    return Matrix(codim, dim, tuple(rows))


def prescribed_image_cases():
    """(points, images, dim, codim): images of a seeded map, of that map
    with one image changed (often inconsistent), and of rank-deficient
    points (free columns), plus 0-row and 0-column shapes."""
    rng = random.Random(9001)
    cases = []
    for _ in range(40):
        dim, codim = rng.randint(1, 6), rng.randint(1, 4)
        k = rng.randint(1, dim)
        points = random_matrix(rng, rng.randint(1, 8), k).mul(random_matrix(rng, k, dim)).entries
        x = random_matrix(rng, codim, dim)
        images = [x.mul_vec(p) for p in points]
        cases.append((points, images, dim, codim))
        bent = list(images)
        bent[rng.randrange(len(bent))] = random_matrix(rng, 1, codim).entries[0]
        cases.append((points, bent, dim, codim))
    zero = (Fraction(0),)
    cases += [((), (), 3, 2), ((), (), 0, 2), ((), (), 3, 0), ((), (), 0, 0),
              (((),) * 3, (zero, zero, zero), 0, 1), (((),) * 2, (zero, (Fraction(1),)), 0, 1),
              (tuple(vunit(3, i) for i in range(3)), ((),) * 3, 3, 0)]
    return cases


def test_solve_matches_the_augmented_reference():
    rng = random.Random(4711)
    kinds = set()
    for m in differential_cases() + [Matrix.from_rows([[1, 1]]), Matrix.from_rows([[1], [1]])]:
        for b in ([0] * m.rows, [rng.randint(-3, 3) for _ in range(m.rows)],
                  m.mul_vec([rng.randint(-3, 3) for _ in range(m.cols)])):
            got = solve(m, b)
            assert got == solve_augmented_reference(m, b)
            if got is not None:
                assert_fraction_entries(Matrix(1, m.cols, (got,)))
                kinds.add(("consistent", rank(m) < m.cols))
            else:
                kinds.add(("inconsistent", None))
    assert kinds == {("consistent", True), ("consistent", False), ("inconsistent", None)}


def test_map_through_matches_the_reference_column_by_column():
    outcomes = set()
    for points, images, dim, codim in prescribed_image_cases():
        got = _map_through(points, images, dim, codim)
        assert got == map_through_by_columns(points, images, dim, codim)
        if got is not None:
            assert (got.rows, got.cols) == (codim, dim)
            assert all(got.mul_vec(p) == tuple(y) for p, y in zip(points, images))
        outcomes.add((got is None, len(points) == 0 or dim == 0 or codim == 0))
    assert outcomes == {(False, False), (True, False), (False, True), (True, True)}


def test_invert_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    seen = set()
    cases = [random_matrix(rng, n, n) for n in range(1, 7) for _ in range(4)]
    cases += [Matrix.from_rows([[1, 2], [2, 4]]), Matrix.zero(3, 3), Matrix.identity(4),
              Matrix.zero(0, 0)]
    for m in cases:
        got = invert(m)
        want = sympy_matrix(sympy, m.entries, m.cols)
        if m.rows and want.det() == 0:
            assert got is None
        else:
            inv = want.inv() if m.rows else want
            assert got == Matrix(m.rows, m.cols, tuple(
                tuple(Fraction(int(x.p), int(x.q)) for x in inv.row(i)) for i in range(m.rows)))
        seen.add(got is None)
    assert seen == {True, False}


def test_map_through_matches_the_reference_on_drawn_systems():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entries = st.one_of(st.just(Fraction(0)),
                        st.fractions(min_value=-4, max_value=4, max_denominator=3))
    systems = st.tuples(st.integers(0, 6), st.integers(0, 5), st.integers(0, 3)).flatmap(
        lambda shape: st.tuples(
            st.lists(st.lists(entries, min_size=shape[1] + shape[2], max_size=shape[1] + shape[2]),
                     min_size=shape[0], max_size=shape[0]),
            st.just(shape[1]), st.just(shape[2])))

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @hypothesis.given(systems)
    def check(system):
        rows, dim, codim = system
        points = [tuple(r[:dim]) for r in rows]
        images = [tuple(r[dim:]) for r in rows]
        assert _map_through(points, images, dim, codim) == \
            map_through_by_columns(points, images, dim, codim)
        if codim == 1:
            m = Matrix(len(rows), dim, tuple(points))
            assert solve(m, [y[0] for y in images]) == \
                solve_augmented_reference(m, [y[0] for y in images])

    check()
