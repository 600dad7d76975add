import itertools
import math
import random
from fractions import Fraction

import pytest

from lya.errors import InputError
from lya.exactlin import (
    Matrix,
    _clear,
    _kernel,
    _map_through,
    Subspace,
    coordinates,
    frac,
    invert,
    nullspace,
    pivot_cols,
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
    return Matrix(pr, ncols, (1, tuple(tuple(r) for r in rows[:pr])))


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
        cases.append(Matrix(len(rows), 7, (1, tuple(rows))))
    cases += [Matrix.zero(0, 5), Matrix(4, 0, (1, ((),) * 4)), Matrix.zero(0, 0), Matrix.zero(6, 3)]
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
        .map(lambda rows: Matrix(len(rows), cols, (1, tuple(map(tuple, rows)))))))
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
                     (1, tuple(r + (b[i],) for i, r in enumerate(m.entries))))
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
        Subspace(Matrix.from_rows([[2, 0]]))


def test_constructed_subspaces_pass_the_public_validation():
    # span, zero and full skip the validating rref; the public constructor
    # must accept every basis they produce and give an equal value
    rng = random.Random(17)
    spaces = [Subspace.zero(3), Subspace.full(4), Subspace.zero(0), Subspace.full(0)]
    for rows, cols, density in ((3, 5, 1.0), (6, 4, 0.5), (2, 7, 0.3), (5, 5, 0.2), (0, 3, 1.0)):
        m = random_matrix(rng, rows, cols, density=density)
        spaces += [Subspace.span(cols, m.entries), nullspace(m)]
    for s in spaces:
        assert Subspace(Matrix(s.dim, s.ambient_dim, (1, s.basis))) == s


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


@pytest.mark.parametrize("shape, rows", [
    ((1, 1), None), ((2, 1), ((1,), 5)), ((1, 2), 7), ((1, 1), ({0: 1},)),
    ((2, 2), ((1, 2), (3,))), ((1, 1), ()),
], ids=["rows None", "row an int", "rows an int", "row a dict", "short row", "no rows"])
def test_malformed_matrix_rows_are_refused(shape, rows):
    """Rows that are not a sequence of sequences of the declared shape end
    in InputError, not in a TypeError from reading their length."""
    with pytest.raises(InputError, match="expected"):
        Matrix(*shape, (1, rows))


@pytest.mark.parametrize("rows, cols, data", [
    (True, True, ((1,),)), (1.0, 1, ((1,),)), (1, 1.0, ((1,),)), (False, 0, ()), ("1", 1, ((1,),)),
], ids=["bools", "float rows", "float cols", "False and 0", "str rows"])
def test_matrix_sizes_that_are_not_ints_are_refused(rows, cols, data):
    """A size that is a bool or not an int is refused with InputError, even
    where it equals the length of the rows: Matrix(True, True, ...) would
    equal Matrix.identity(1), with the same hash."""
    with pytest.raises(InputError, match="matrix sizes must be ints"):
        Matrix(rows, cols, (1, data))
    with pytest.raises(InputError, match="matrix sizes must be ints"):
        Matrix.identity(True)
    with pytest.raises(InputError, match="expected a sequence of -1 rows"):
        Matrix(-1, 1, (1, ()))


@pytest.mark.parametrize("scale", [1, 6])
def test_clear_takes_integer_rows_as_their_fraction_twins(scale):
    """Rows of plain ints, kept as they are, clear to the form of the same
    values given as Fractions, or as ints and Fractions mixed."""
    rng = random.Random(5)
    for shape in ((0, 0), (1, 0), (1, 3), (3, 3), (4, 2)):
        for _ in range(20):
            ints = [[rng.choice([0, 0, 1, -2, 4, 6, 12]) for _ in range(shape[1])]
                    for _ in range(shape[0])]
            as_fractions = [[Fraction(x) for x in r] for r in ints]
            mixed = [[Fraction(x) if j % 2 else x for j, x in enumerate(r)] for r in ints]
            want = _clear(scale, as_fractions)
            assert _clear(scale, ints) == want == _clear(scale, mixed)
            assert _clear(scale, tuple(map(tuple, ints))) == want
            assert all(type(x) is int for r in want[1] for x in r)


@pytest.mark.parametrize("rows", [((True,),), ((1, False),), ((Fraction(1, 2), True),)],
                         ids=["True", "False among ints", "True among Fractions"])
def test_clear_refuses_bools(rows):
    """A bool is not an exact rational here, as frac says: Matrix refuses
    it as Matrix.from_rows does, with InputError."""
    with pytest.raises(InputError, match="not an integer or Fraction: (True|False)"):
        _clear(1, rows)
    with pytest.raises(InputError):
        Matrix(len(rows), len(rows[0]), (1, rows))
    with pytest.raises(InputError, match="not an exact rational"):
        Matrix.from_rows(rows)


def test_coordinates_in_canonical_basis():
    s = Subspace.span(3, [[1, 0, 1], [0, 1, 2]])
    assert coordinates(s, [3, 4, 11]) == vec([3, 4])
    assert coordinates(s, [1, 0, 0]) is None


def test_empty_matrix_shapes():
    m = Matrix.zero(0, 3)
    assert rref(m).rows == 0
    assert nullspace(m) == Subspace.full(3)


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
    from reference import gl2, h5, rebased

    algebras = [catalog(name) for name in CATALOG_NAMES]
    algebras += [rebased(catalog("sl2_plus_ab1"), 11)[0], h5(), gl2()]
    out = []
    for a in algebras:
        n, c, d = a.dim, a.c, a.d
        gens = [c[i][j] for i in range(n) for j in range(i + 1, n)]
        gens += [d[i][j][k] for i, j, k in itertools.product(range(n), repeat=3)]
        out.append(Matrix(n, len(gens), (1, tuple(tuple(g[l] for g in gens) for l in range(n)))))
        ident = Matrix.identity(n)
        rows = derivations._identity_rows(a, 2, [(None, ident), (ident, None)])
        rows += derivations._identity_rows(a, 3, [(None, ident, ident), (ident, None, ident),
                                                  (ident, ident, None)])
        out.append(Matrix(len(rows), n * n, (1, tuple(rows))))
    return out


def nullspace_cases():
    """The rref differential matrices (also run against sympy), edge shapes,
    full-rank shapes and the solvers' matrices on known algebras."""
    rng = random.Random(2718)
    shapes = [Matrix.zero(0, 5), Matrix(4, 0, (1, ((),) * 4)), Matrix.zero(0, 0), Matrix.zero(6, 3),
              Matrix.identity(5), random_matrix(rng, 8, 4), random_matrix(rng, 4, 8)]
    return differential_cases() + shapes + algebra_matrices()


def test_nullspace_matches_the_two_pass_reference():
    kinds = set()
    for m in nullspace_cases():
        got = nullspace(m)
        assert got.basis == nullspace_two_pass_reference(m).basis
        assert Subspace(Matrix(got.dim, m.cols, (1, got.basis))) == got
        assert_fraction_entries(Matrix(got.dim, m.cols, (1, got.basis)))
        kinds.add((got.dim == 0, got.dim == m.cols))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_nullspace_runs_one_rref_on_the_matrix_rows(monkeypatch):
    """One elimination per nullspace, on m's own stored rows with the
    columns reversed, neither cleared again nor read as Fractions."""
    from lya import exactlin

    seen = []
    eliminate = exactlin._rref

    def recording(cols, rows):
        rows = tuple(map(tuple, rows))
        seen.append((cols, rows))
        return eliminate(cols, rows)

    for m in nullspace_cases():
        seen.clear()
        monkeypatch.setattr(exactlin, "_rref", recording)
        nullspace(m)
        monkeypatch.undo()
        assert seen == [(m.cols, tuple(row[::-1] for row in m.form[1]))]


def dense_kernel(m):
    """The vectors of _kernel on m's stored rows, dense, after checking that
    each lists its nonzero integer entries in column order, its first one
    the scale."""
    vectors = []
    scale, kernel = _kernel(m.cols, m.form[1])
    for pairs in kernel:
        columns = [c for c, _ in pairs]
        assert columns == sorted(set(columns)) and all(type(x) is int and x for _, x in pairs)
        assert pairs[0][1] == scale
        v = [Fraction(0)] * m.cols
        for c, x in pairs:
            v[c] = Fraction(x, scale)
        vectors.append(tuple(v))
    return tuple(vectors)


def test_kernel_reader_gives_the_nullspace_basis():
    for m in nullspace_cases():
        assert dense_kernel(m) == nullspace(m).basis


def test_nullspace_matches_the_two_pass_reference_on_drawn_matrices():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entries = st.one_of(st.just(Fraction(0)),
                        st.fractions(min_value=-4, max_value=4, max_denominator=3))
    matrices = st.tuples(st.integers(0, 6), st.integers(0, 7)).flatmap(
        lambda shape: st.lists(st.lists(entries, min_size=shape[1], max_size=shape[1]),
                               min_size=shape[0], max_size=shape[0]).map(
            lambda rows, cols=shape[1]: Matrix(len(rows), cols, (1, tuple(map(tuple, rows))))))

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @hypothesis.given(matrices)
    def check(m):
        got = nullspace(m)
        assert got.basis == nullspace_two_pass_reference(m).basis
        assert Subspace(Matrix(got.dim, m.cols, (1, got.basis))) == got
        assert dense_kernel(m) == got.basis

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


def subspace_intersect_kernel_reference(a, b):
    """The intersection as it stood: the kernel of the stacked coefficient
    matrix, mapped back through a's basis and spanned."""
    n, p, q = a.ambient_dim, a.dim, b.dim
    if p == 0 or q == 0:
        return Subspace.zero(n)
    m = Matrix(n, p + q, (1, tuple(tuple(a.basis[i][row] for i in range(p))
                               + tuple(-b.basis[j][row] for j in range(q))
                               for row in range(n))))
    vectors = [[sum((k[i] * a.basis[i][col] for i in range(p)), Fraction(0))
                for col in range(n)] for k in nullspace(m).basis]
    return Subspace.span(n, vectors)


def test_subspace_intersect_matches_the_kernel_reference_on_edge_pairs():
    """Zero and full subspaces on either side, nested pairs both ways, and
    the sympy cases."""
    rng = random.Random(4244)
    pairs = [(Subspace.span(cols, u), Subspace.span(cols, v))
             for u, v, cols in intersection_cases()]
    for n in (0, 1, 4):
        small = Subspace.span(n, random_matrix(rng, n // 2, n).entries)
        big = subspace_sum(small, Subspace.span(n, random_matrix(rng, 1, n).entries))
        for s in (Subspace.zero(n), Subspace.full(n), small, big):
            pairs += [(s, Subspace.zero(n)), (Subspace.zero(n), s), (s, Subspace.full(n)),
                      (Subspace.full(n), s), (s, s)]
        pairs += [(small, big), (big, small)]
    for a, b in pairs:
        got = subspace_intersect(a, b)
        assert got == subspace_intersect_kernel_reference(a, b)
        assert Subspace(Matrix(got.dim, got.ambient_dim, (1, got.basis))) == got
    assert any(subspace_contains(b, a) and 0 < a.dim < b.dim for a, b in pairs)


# solve as it stood with its own augmented elimination, the oracle for the
# shared _map_through behind solve, invert and the prescribed-image solvers.

def solve_augmented_reference(m, b):
    aug = Matrix(m.rows, m.cols + 1,
                 (1, tuple(row + (Fraction(b[i]),) for i, row in enumerate(m.entries))))
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
    m = Matrix(len(points), dim, (1, tuple(tuple(p) for p in points)))
    rows = [solve_augmented_reference(m, [y[l] for y in images]) for l in range(codim)]
    if None in rows:
        return None
    return Matrix(codim, dim, (1, tuple(rows)))


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
                assert_fraction_entries(Matrix(1, m.cols, (1, (got,))))
                kinds.add(("consistent", rref(m).rows < m.cols))
            else:
                kinds.add(("inconsistent", None))
    assert kinds == {("consistent", True), ("consistent", False), ("inconsistent", None)}


def map_through(points, images, dim, codim):
    """_map_through on the rational rows (p | y), cleared to integers over one
    scale."""
    return _map_through(_clear(1, [tuple(p) + tuple(y) for p, y in zip(points, images)])[1],
                        dim, codim)


def test_map_through_matches_the_reference_column_by_column():
    outcomes = set()
    for points, images, dim, codim in prescribed_image_cases():
        got = map_through(points, images, dim, codim)
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
            assert got == Matrix(m.rows, m.cols, (1, tuple(
                tuple(Fraction(int(x.p), int(x.q)) for x in inv.row(i)) for i in range(m.rows))))
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
        assert map_through(points, images, dim, codim) == \
            map_through_by_columns(points, images, dim, codim)
        if codim == 1:
            m = Matrix(len(rows), dim, (1, tuple(points)))
            assert solve(m, [y[0] for y in images]) == \
                solve_augmented_reference(m, [y[0] for y in images])

    check()


# -- the integer product and membership kernels ----------------------------------

def fraction_product(a, b):
    """Reference product: plain Fraction sums over row-column pairs."""
    return [[sum((a.entries[i][t] * b.entries[t][j] for t in range(a.cols)), Fraction(0))
             for j in range(b.cols)] for i in range(a.rows)]


def fraction_member(s, v):
    """Reference membership: Fraction elimination against the reduced basis."""
    w = [Fraction(x) for x in v]
    for row, p in zip(s.basis, s.pivots):
        c = w[p]
        w = [x - c * y for x, y in zip(w, row)]
    return not any(w)


def big_fractions():
    st = pytest.importorskip("hypothesis.strategies")
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    large = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 25))
    return st.one_of(small, small, large, st.just(Fraction(0)))


def test_matrix_mul_matches_fraction_products():
    """Matrix.mul, mul_vec, transpose, add, sub, scale and flatten equal
    Fraction references on drawn shapes, 0 x k and k x 0 included, with
    small and very large denominators; a matrix built from Fractions equals,
    and hashes as, the same matrix built from integers over a scale; and
    every entry of every view is a Fraction."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entries = big_fractions()

    def rows(r, k):
        return st.lists(st.lists(entries, min_size=k, max_size=k), min_size=r, max_size=r)

    def shapes(dims):
        r, k, c = dims
        return st.tuples(rows(r, k), rows(r, k), rows(k, c), rows(1, k), entries,
                         st.integers(1, 10 ** 20), st.just(dims))

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @hypothesis.given(st.tuples(*[st.integers(0, 4)] * 3).flatmap(shapes))
    def check(case):
        left, other, right, (v,), t, extra, (r, k, c) = case
        a = Matrix(r, k, (1, tuple(tuple(row) for row in left)))
        o = Matrix(r, k, (1, tuple(tuple(row) for row in other)))
        b = Matrix(k, c, (1, tuple(tuple(row) for row in right)))
        got = a.mul(b)
        assert (got.rows, got.cols) == (r, c)
        assert [list(row) for row in got.entries] == fraction_product(a, b)
        assert a.mul_vec(v) == tuple(sum((x * y for x, y in zip(row, v)), Fraction(0))
                                     for row in left)
        assert a.transpose().entries == tuple(tuple(row[i] for row in left) for i in range(k))
        assert a.add(o).entries == tuple(tuple(x + y for x, y in zip(p, q))
                                         for p, q in zip(left, other))
        assert a.sub(o).entries == tuple(tuple(x - y for x, y in zip(p, q))
                                         for p, q in zip(left, other))
        assert a.scale(t).entries == tuple(tuple(t * x for x in row) for row in left)
        assert a.flatten() == tuple(x for row in left for x in row)
        # The same entries as integers over a scale that is not the least one.
        scale = extra * math.lcm(*(x.denominator for row in left for x in row))
        ints = Matrix(r, k, (scale, tuple(tuple(int(x * scale) for x in row) for row in left)))
        assert ints == a and hash(ints) == hash(a) and ints.form == a.form
        views = [got.entries, a.transpose().entries, a.add(o).entries, a.sub(o).entries,
                 a.scale(t).entries, ints.entries, (a.mul_vec(v), a.flatten())]
        assert all(type(x) is Fraction for view in views for row in view for x in row)

    check()
    for r, k, c in ((0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (2, 0, 0)):
        got = Matrix.zero(r, k).mul(Matrix.zero(k, c))
        assert got == Matrix.zero(r, c)
        assert all(type(x) is Fraction for row in got.entries for x in row)
    # A negative non-integer factor and 0 give the canonical form of the entries.
    left = ((Fraction(1, 2), Fraction(3)), (Fraction(0), Fraction(-2, 5)))
    for t in (Fraction(-3, 2), Fraction(0), Fraction(-1)):
        want = Matrix(2, 2, (1, tuple(tuple(t * x for x in row) for row in left)))
        got = Matrix(2, 2, (1, left)).scale(t)
        assert got.entries == want.entries and got.form == want.form
    ints = Matrix(2, 2, (1, ((1, 2), (3, 4))))
    assert ints.mul(ints).entries == ((7, 10), (15, 22))
    assert all(type(x) is Fraction for row in ints.mul(ints).entries for x in row)


def test_contains_vector_matches_fraction_elimination():
    """contains_vector equals Fraction elimination on drawn subspaces and
    vectors (members built as combinations, and arbitrary vectors), ambient
    dimension 0 included, with very large denominators."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entries = big_fractions()

    def cases(n):
        vectors = st.lists(st.lists(entries, min_size=n, max_size=n), max_size=4)
        return st.tuples(st.just(n), vectors, vectors, st.lists(entries, min_size=4, max_size=4))

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @hypothesis.given(st.integers(0, 5).flatmap(cases))
    def check(case):
        n, spanning, others, coeffs = case
        s = Subspace.span(n, spanning)
        combo = [sum((c * v[i] for c, v in zip(coeffs, spanning)), Fraction(0)) for i in range(n)]
        for v in [combo] + others:
            assert s.contains_vector(v) == fraction_member(s, v)
        assert s.contains_vector(combo)
        for v in spanning:
            assert s.contains_vector(v)

    check()
    assert Subspace.zero(0).contains_vector([])
    assert Subspace.full(0).contains_vector(())
    with pytest.raises(InputError, match="does not match ambient"):
        Subspace.zero(0).contains_vector([1])
    line = Subspace.span(2, [[Fraction(1, 10 ** 40), Fraction(3, 7 ** 30)]])
    assert line.contains_vector([Fraction(7 ** 30, 3), 10 ** 40])
    assert not line.contains_vector([Fraction(7 ** 30, 3), 10 ** 40 + 1])
    # The stored basis is cleared over its least scale S, each pivot entry S.
    scale, rows = line.echelon.form
    assert [tuple(Fraction(x, scale) for x in row) for row in rows] == list(line.basis)
    assert [row[p] for p, row in zip(line.pivots, rows)] == [scale] * line.dim
    assert math.gcd(scale, *itertools.chain.from_iterable(rows)) == 1
