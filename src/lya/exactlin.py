"""Exact linear algebra over the rationals.

Matrices, reduced row echelon forms, nullspaces, and canonically
represented subspaces (reduced row echelon bases).  A matrix is stored
cleared, once, when it is built: the least common denominator of its
entries and its integer rows scaled by it (see :func:`_clear`).  A subspace
is the stored matrix of its reduced echelon basis.  Products, membership and
elimination read the stored integers; ``Matrix.entries`` and
``Subspace.basis`` are ``Fraction`` views for output and for the paths that
are rational.

There is one elimination, :func:`_rref`.  It takes integer rows over any
one scale as they are, since no common factor changes a row space: a
solver's constraint rows, a stored matrix's rows, or rows put side by side
from several integer forms.  Every reduced form, kernel, prescribed-image
map and intersection is read off a single call; ``rref`` and ``nullspace``
are its wrappers for a ``Matrix``.  Every value is immutable and every
function is pure, so results are reproducible bit for bit and safe to
share across threads.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from fractions import Fraction
from collections.abc import Iterable, Iterator, Sequence
from typing import Union

from ._record import Record
from .errors import InputError

Scalar = Union[Fraction, int, str]
Vec = tuple[Fraction, ...]
# A matrix's stored form: the scale L and the rows of L times its entries.
Cleared = tuple[int, tuple[tuple[int, ...], ...]]

ZERO = Fraction(0)
ONE = Fraction(1)


# "p" or "p/q" in ASCII digits with an optional sign.  Fraction alone would
# also take exponents, decimal points, underscores and non-ASCII digits, and
# an exponent such as "1e9999999" takes seconds to expand.
_RATIONAL = re.compile(r"\s*[-+]?[0-9]+(/[0-9]+)?\s*")


def frac(x: Scalar) -> Fraction:
    """Coerce an int, exact string ("3", "-2/5"), or Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool) or isinstance(x, float):
        raise InputError(f"not an exact rational: {x!r}")
    if isinstance(x, str) and not _RATIONAL.fullmatch(x):
        raise InputError(f"cannot parse rational {x!r}: expected p or p/q in ASCII digits")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError(f"cannot parse rational {x!r}: {exc}") from exc


def vec(entries: Iterable[Scalar]) -> Vec:
    return tuple(frac(x) for x in entries)


def vzero(n: int) -> Vec:
    return (ZERO,) * n


def vunit(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vscale(a: Scalar, v: Vec) -> Vec:
    a = frac(a)
    return tuple(a * x for x in v)


def vec_strs(v: Iterable[Fraction]) -> list[str]:
    """Entries as "p" or "p/q"; InputError when one has more digits than
    Python converts to a string (PYTHONINTMAXSTRDIGITS, 4300 by default)."""
    try:
        return [str(x) for x in v]
    except ValueError as exc:
        raise InputError(f"a rational in the result has too many digits to print: {exc}") from exc


def _matrix_strs(m: Matrix) -> list[list[str]]:
    """A matrix's entries as rows of :func:`vec_strs`, as reports write them."""
    return [vec_strs(row) for row in m.entries]


def _parts(form, count: int) -> tuple:
    """``form`` when it is a tuple of ``count`` parts, the shape its taker
    unpacks: a scale and its entries.  Any other form is refused with
    InputError before it is read."""
    if type(form) is not tuple or len(form) != count:
        raise InputError(f"a form must be a tuple of {count} parts")
    return form


def _clear(scale: int, rows: Sequence[Sequence[Fraction | int]]) -> Cleared:
    """The canonical cleared form of the rationals x / scale, for rows of
    integer or Fraction values x and a positive integer scale: their least
    common denominator L, and the rows of each of them times L.  Equal
    rationals give equal forms.  Every matrix, every algebra's products and
    every vector that integer code takes are cleared here, once; a scale
    that is not a positive integer, or a value that is a bool or not an
    integer or a Fraction, is refused with InputError.  Rows whose
    values all have type int, the common case, are taken as they are, with
    no denominator read and no copy."""
    if type(scale) is not int or scale < 1:
        raise InputError(f"scale must be a positive integer, got {scale!r}")
    ints = rows
    if not all(type(x) is int for r in rows for x in r):
        bad = next((x for r in rows for x in r
                    if isinstance(x, bool) or not hasattr(x, "denominator")), None)
        if bad is not None:
            raise InputError(f"not an integer or Fraction: {bad!r}")
        lcd = math.lcm(*{x.denominator for r in rows for x in r})
        ints = [[x.numerator * (lcd // x.denominator) for x in r] for r in rows]
        scale *= lcd
    common = math.gcd(scale, *itertools.chain.from_iterable(ints))
    if common > 1:
        scale, ints = scale // common, [[x // common for x in r] for r in ints]
    return scale, tuple(map(tuple, ints))


def _view(scale: int, ints: Iterable[int]) -> Vec:
    """The rationals x / scale of integers x, as Fractions."""
    return tuple(Fraction(x, scale) if x else ZERO for x in ints)


class Matrix(Record):
    """Dense rational matrix, stored cleared.

    ``form`` is given as a positive integer scale and ``rows`` rows of
    ``cols`` integers or Fractions, the entries being those values over the
    scale; construction refuses any other form with InputError and makes
    it the canonical form of :func:`_clear`.  So
    ``==`` and ``hash`` compare entries, and ``repr`` shows the
    ``entries`` view as a dataclass with that field would.
    """

    rows: int
    cols: int
    form: Cleared

    def __post_init__(self):
        scale, data = _parts(self.form, 2)
        # tuple and list, the common cases, pass before the slower ABC test.
        if not isinstance(data, (tuple, list, Sequence)) or len(data) != self.rows:
            raise InputError(f"expected a sequence of {self.rows} rows")
        for r in data:
            if not isinstance(r, (tuple, list, Sequence)) or len(r) != self.cols:
                raise InputError(f"expected rows that are sequences of {self.cols} entries")
        object.__setattr__(self, "form", _clear(scale, data))

    def __repr__(self):
        return f"Matrix(rows={self.rows!r}, cols={self.cols!r}, entries={self.entries!r})"

    # The entries as Fractions, row by row.
    entries = property(lambda self: tuple(_view(self.form[0], r) for r in self.form[1]))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]], cols: int | None = None) -> "Matrix":
        data = tuple(vec(r) for r in rows)
        if cols is None:
            if not data:
                raise InputError("column count required for a matrix with no rows")
            cols = len(data[0])
        return cls(len(data), cols, (1, data))

    @classmethod
    @functools.lru_cache(maxsize=None, typed=True)
    def identity(cls, n: int) -> "Matrix":
        """The n x n identity, one shared instance per n."""
        return cls(n, n, (1, tuple(tuple(int(i == j) for j in range(n)) for i in range(n))))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (1, ((0,) * cols,) * rows))

    def transpose(self) -> "Matrix":
        scale, data = self.form
        return Matrix(self.cols, self.rows, (scale, tuple(tuple(r[j] for r in data)
                                                          for j in range(self.cols))))

    def mul(self, other: "Matrix") -> "Matrix":
        """The product of the stored integer rows, over the product of the scales."""
        if self.cols != other.rows:
            raise InputError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        (a, left), (b, right) = self.form, other.form
        return Matrix(self.rows, other.cols, (a * b, _integer_product(left, right, other.cols)))

    def mul_vec(self, v: Sequence[Scalar]) -> Vec:
        """The image of v, computed in integers with v cleared."""
        w = vec(v)
        if len(w) != self.cols:
            raise InputError(f"vector length {len(w)} does not match {self.cols} columns")
        (a, data), (b, (ints,)) = self.form, _clear(1, [w])
        return _view(a * b, _times(data, ints))

    def add(self, other: "Matrix") -> "Matrix":
        """The sum, over the product of the scales."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("matrix shapes differ")
        (a, left), (b, right) = self.form, other.form
        return Matrix(self.rows, self.cols, (a * b, tuple(
            tuple(b * x + a * y for x, y in zip(r, s)) for r, s in zip(left, right))))

    def sub(self, other: "Matrix") -> "Matrix":
        return self.add(other.scale(-1))

    def scale(self, a: Scalar) -> "Matrix":
        """The stored rows times a's numerator, over the scale times its denominator."""
        a, (scale, data) = frac(a), self.form
        rows = tuple(tuple(a.numerator * x for x in r) for r in data)
        return Matrix(self.rows, self.cols, (scale * a.denominator, rows))

    def is_zero(self) -> bool:
        return not any(map(any, self.form[1]))

    def flatten(self) -> Vec:
        return _view(self.form[0], itertools.chain.from_iterable(self.form[1]))


def _times(rows: Sequence[Sequence[int]], w: Sequence[int]) -> list[int]:
    """The integer matrix with rows ``rows`` times the integer vector w."""
    return [sum(map(operator.mul, r, w)) for r in rows]


def _integer_product(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], cols: int) -> list:
    """The product of integer matrices given by their rows; b has ``cols`` columns."""
    bt = list(zip(*b)) if b else [()] * cols
    return [[sum(map(operator.mul, r, c)) for c in bt] for r in a]


def _eliminate(row: Sequence[int], prow: Sequence[int], a: int, b: int) -> list[int] | None:
    """``row`` with its entry ``b`` over the pivot ``a`` of ``prow`` cleared,
    divided by its content; None when nothing is left."""
    g = math.gcd(a, b)
    a, b = a // g, b // g
    out = [a * x - b * y for x, y in zip(row, prow)]
    c = math.gcd(*out)
    if c == 0:
        return None
    if c != 1:
        out = [x // c for x in out]
    return out


def _rref(cols: int, rows: Iterable[Sequence[int]]) -> Cleared:
    """The reduced row echelon form of integer rows of length ``cols``, zero
    rows dropped, as its cleared form: the lcm L of the pivots and each row
    divided by its pivot, times L.

    The rows may be taken over any one scale, as no common factor changes
    their row space.  Gauss-Jordan runs fraction-free: eliminating column
    ``pc`` replaces a row by ``a*row - b*pivot_row`` and divides it by its
    content (the gcd of its entries), which keeps the integers small, and a
    row is divided by its content when it becomes a pivot row.  So every
    pivot row is primitive, and L is the least common denominator of the
    reduced form, which is unique: this is the form that :func:`_clear`
    makes of the matrix that Fraction elimination gives.
    """
    pending = [r for r in rows if any(r)]
    done: list[tuple[int, Sequence[int]]] = []
    for pc in range(cols):
        if not pending:
            break
        piv = next((i for i, r in enumerate(pending) if r[pc]), None)
        if piv is None:
            continue
        prow = pending.pop(piv)
        c = math.gcd(*prow)
        if c != 1:
            prow = [x // c for x in prow]
        a = prow[pc]
        kept = []
        for r in pending:
            b = r[pc]
            if b:
                r = _eliminate(r, prow, a, b)
                if r is None:
                    continue
            kept.append(r)
        pending = kept
        for k, (p, r) in enumerate(done):
            b = r[pc]
            if b:
                done[k] = (p, _eliminate(r, prow, a, b))
        done.append((pc, prow))
    # Over the lcm L of the pivots, row r divided by its pivot a is L // a times r.
    scale = math.lcm(*(r[p] for p, r in done))
    return scale, tuple(tuple(x * (scale // r[p]) for x in r) for p, r in done)


def rref(m: Matrix) -> Matrix:
    """Unique reduced row echelon form of ``m``, zero rows dropped: the
    :func:`_rref` of its stored rows."""
    scale, rows = _rref(m.cols, m.form[1])
    return Matrix(len(rows), m.cols, (scale, rows))


def pivot_cols(rref_rows: Sequence[Sequence]) -> tuple[int, ...]:
    """Pivot column of each row of a reduced-echelon row list."""
    out = []
    for r in rref_rows:
        for j, x in enumerate(r):
            if x != 0:
                out.append(j)
                break
    return tuple(out)


def _kernel(cols: int,
            rows: Iterable[Sequence[int]]) -> tuple[int, Iterator[list[tuple[int, int]]]]:
    """The canonical basis of the right kernel { v : rows.v = 0 } of integer
    rows of length ``cols`` over any one scale: a scale S and the basis
    vectors times S, one at a time, each as its nonzero (column, value)
    pairs in column order.

    One :func:`_rref` of the rows with their column order reversed picks
    the rightmost possible pivots, and each of its rows has S at its pivot.
    The standard kernel basis of that form, one vector per free column f (S
    at f, minus the rows' entries at f on their pivots), is then already the
    kernel's reduced echelon basis: every other entry of a vector lies right
    of its f, and no other vector is nonzero at f.
    """
    scale, back = _rref(cols, (row[::-1] for row in rows))
    # Column c of the reversed form is column cols - 1 - c of the rows; its
    # rows are read last first, so that their pivots come in column order.
    pivoted = [(cols - 1 - p, row) for p, row in zip(pivot_cols(back), back)][::-1]
    pivots = {p for p, _ in pivoted}

    def vectors():
        for f in range(cols):
            if f not in pivots:
                c = cols - 1 - f
                yield [(f, scale)] + [(p, -row[c]) for p, row in pivoted if row[c]]
    return scale, vectors()


def _kernel_space(cols: int, rows: Iterable[Sequence[int]]) -> "Subspace":
    """The right kernel of integer rows over any one scale, as the subspace
    of the vectors of :func:`_kernel`."""
    scale, vectors = _kernel(cols, rows)
    dense = []
    for v in vectors:
        row = [0] * cols
        for c, x in v:
            row[c] = x
        dense.append(row)
    return Subspace._from_rref(Matrix(len(dense), cols, (scale, dense)))


def nullspace(m: Matrix) -> "Subspace":
    """Canonical basis of the right kernel { v : m.v = 0 }: the
    :func:`_kernel_space` of its stored rows."""
    return _kernel_space(m.cols, m.form[1])


def _map_through(rows: Iterable[Sequence[int]], dim: int, codim: int) -> Matrix | None:
    """The codim x dim matrix X with X.p = y for every point p and its image
    y, or None when there is none, from the integer rows (p | y), all over
    one scale.

    One :func:`_rref` of the rows.  A pivot in the y part is a combination
    of the points that vanishes while the same combination of the images
    does not.  Otherwise each pivot row, with its pivot at column c, holds
    column c of X in its y part, and the free columns of X are zero, which
    makes X the canonical one.
    """
    scale, r = _rref(dim + codim, rows)
    columns = [(0,) * codim] * dim
    for row, p in zip(r, pivot_cols(r)):
        if p >= dim:
            return None
        columns[p] = row[dim:]
    return Matrix(codim, dim, (scale, tuple(tuple(c[i] for c in columns) for i in range(codim))))


def solve(m: Matrix, b: Sequence[Scalar]) -> Vec | None:
    """One exact solution of m.x = b with free variables set to zero.

    Returns None when the system is inconsistent.
    """
    bv = vec(b)
    if len(bv) != m.rows:
        raise InputError(f"right-hand side length {len(bv)} does not match {m.rows} rows")
    # m is its stored rows over its scale s and b is c over its scale t, so
    # m.x = b is t rows.x = s c.
    (s, data), (t, (c,)) = m.form, _clear(1, [bv])
    x = _map_through([tuple(t * a for a in row) + (s * y,) for row, y in zip(data, c)], m.cols, 1)
    return None if x is None else x.entries[0]


def invert(m: Matrix) -> Matrix | None:
    """Exact inverse of a square matrix, or None when singular: the map that
    sends the columns of m to the unit vectors, that is each stored integer
    column, s times m's for the stored scale s, to s times its unit vector."""
    if m.rows != m.cols:
        raise InputError("only square matrices can be inverted")
    n = m.rows
    scale, data = m.form
    return _map_through([col + tuple(scale * int(i == j) for j in range(n))
                         for i, col in enumerate(zip(*data))], n, n)


class Subspace(Record):
    """Subspace of Q^n held as its unique reduced-echelon basis: the rows of
    the stored matrix ``echelon``.

    Equality of subspaces is therefore plain value equality; ``repr`` shows
    ``ambient_dim`` and the ``basis`` view as a dataclass with those fields
    would.  ``pivots``, the pivot column of each basis row, is computed on
    first read and kept with the instance, outside the field that ``==``,
    ``hash`` and ``repr`` read.
    """

    echelon: Matrix

    def __post_init__(self):
        if rref(self.echelon) != self.echelon:
            raise InputError("basis is not in reduced row echelon form")

    def __repr__(self):
        return f"Subspace(ambient_dim={self.ambient_dim!r}, basis={self.basis!r})"

    @classmethod
    def span(cls, ambient_dim: int, vectors: Sequence[Sequence[Scalar]]) -> "Subspace":
        rows = tuple(vec(v) for v in vectors)
        for r in rows:
            if len(r) != ambient_dim:
                raise InputError("spanning vector length does not match ambient dimension")
        return cls._from_rref(rref(Matrix(len(rows), ambient_dim, (1, rows))))

    @classmethod
    def _from_rref(cls, echelon: Matrix) -> "Subspace":
        """Subspace whose basis is the rows of a matrix already in reduced
        row echelon form; skips the validating ``rref`` of ``__post_init__``."""
        space = object.__new__(cls)
        object.__setattr__(space, "echelon", echelon)
        return space

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls._from_rref(Matrix.zero(0, ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls._from_rref(Matrix.identity(ambient_dim))

    ambient_dim = property(lambda self: self.echelon.cols)
    dim = property(lambda self: self.echelon.rows)
    # The basis vectors as Fractions.
    basis = property(lambda self: self.echelon.entries)
    pivots = functools.cached_property(lambda self: pivot_cols(self.echelon.form[1]))

    def _vector(self, v: Sequence[Scalar]) -> Vec:
        w = vec(v)
        if len(w) != self.ambient_dim:
            raise InputError("vector length does not match ambient dimension")
        return w

    def reduce(self, v: Sequence[Scalar]) -> Vec:
        """Residue of v against the basis, zero iff v is a member: the
        :func:`_residue` of v cleared, over both scales."""
        scale, (w,) = _clear(1, [self._vector(v)])
        return _view(scale * self.echelon.form[0], _residue(self, w))

    def contains_vector(self, v: Sequence[Scalar]) -> bool:
        """Membership, tested in integers by :func:`_member`."""
        return _member(self, _clear(1, [self._vector(v)])[1][0])


def _residue(s: Subspace, w: Sequence[int]) -> list[int]:
    """S w minus the combination of s's basis that agrees with w at the
    pivots, for an integer vector w and the scale S of s's stored basis:
    zero exactly when w lies in s.

    The basis vectors are zero at each other's pivots, so w's only candidate
    combination has w[p] as the coefficient of the vector with pivot p,
    which is S times that vector in the stored rows.
    """
    scale, rows = s.echelon.form
    terms = [(w[p], r) for p, r in zip(s.pivots, rows) if w[p]]
    return [scale * x - sum(c * r[j] for c, r in terms) for j, x in enumerate(w)]


def _member(s: Subspace, w: Sequence[int]) -> bool:
    """Whether the integer vector w lies in s; a positive multiple of w
    gives the same answer, so a map or basis in any scale is read as stored."""
    return not any(_residue(s, w))


def _images(rows: Sequence[Sequence[int]], s: Subspace) -> list[list[int]]:
    """The image of each of s's stored basis vectors under the matrix with
    integer rows ``rows``, over the product of that matrix's scale and s's.
    :func:`_member` and :func:`_residue` read an image as it is, and a
    member's entries at s's pivots are its coordinates over that scale."""
    return [_times(rows, b) for b in s.echelon.form[1]]


def coordinates(s: Subspace, v: Sequence[Scalar]) -> Vec | None:
    """Coefficients of v in s's canonical basis, or None when v is outside s:
    v's entries at the pivots, when v is a member."""
    w = s._vector(v)
    return tuple(w[p] for p in s.pivots) if s.contains_vector(w) else None


def _check_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise InputError(f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """The span of both stored bases: a span does not change when each basis
    keeps its own scale."""
    _check_same_ambient(a, b)
    return Subspace.span(a.ambient_dim, a.echelon.form[1] + b.echelon.form[1])


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection by Zassenhaus's method: one :func:`_rref` of the rows (a_i | a_i)
    and (b_j | 0), each basis in its stored scale.

    A combination of the rows whose first half vanishes has sum(x_i a_i) =
    -sum(y_j b_j) as its second half, a vector of both spans, and every such
    vector arises so.  Those rows come last in the reduced form, so their
    second halves are already the intersection's reduced echelon basis.
    """
    _check_same_ambient(a, b)
    n = a.ambient_dim
    rows = tuple(r + r for r in a.echelon.form[1]) + tuple(r + (0,) * n for r in b.echelon.form[1])
    scale, r = _rref(2 * n, rows)
    meet = tuple(row[n:] for row in r if not any(row[:n]))
    return Subspace._from_rref(Matrix(len(meet), n, (scale, meet)))


def subspace_contains(a: Subspace, item: Union[Subspace, Sequence[Scalar]]) -> bool:
    """Whether a vector or a whole subspace lies inside ``a``."""
    if isinstance(item, Subspace):
        _check_same_ambient(a, item)
        return all(_member(a, r) for r in item.echelon.form[1])
    return a.contains_vector(item)
