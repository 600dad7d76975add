"""Exact linear algebra over the rationals.

Reduced row echelon forms, nullspaces, and canonically represented
subspaces (reduced row echelon bases).  Values are ``Fraction``; ``rref``
eliminates fraction-free over integer rows with their content removed and
divides by the pivots once at the end.  Every kernel, prescribed-image map
and intersection is read off a single ``rref``.  Every value is immutable
and every function is pure, so results are reproducible bit for bit and
safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from ._record import Record
from .errors import InputError

Scalar = Union[Fraction, int, str]
Vec = tuple[Fraction, ...]

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


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vscale(a: Scalar, v: Vec) -> Vec:
    a = frac(a)
    return tuple(a * x for x in v)


def vis_zero(v: Vec) -> bool:
    return all(x == 0 for x in v)


def vdot(u: Vec, v: Vec) -> Fraction:
    return sum((a * b for a, b in zip(u, v) if a and b), ZERO)


def vec_strs(v: Iterable[Fraction]) -> list[str]:
    """Entries as "p" or "p/q"; InputError when one has more digits than
    Python converts to a string (PYTHONINTMAXSTRDIGITS, 4300 by default)."""
    try:
        return [str(x) for x in v]
    except ValueError as exc:
        raise InputError(f"a rational in the result has too many digits to print: {exc}") from exc


class Matrix(Record):
    """Dense rational matrix; entries are a row-major tuple of row tuples."""

    rows: int
    cols: int
    entries: tuple[Vec, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise InputError(f"expected {self.rows} rows, got {len(self.entries)}")
        for r in self.entries:
            if len(r) != self.cols:
                raise InputError(f"expected {self.cols} columns, got {len(r)}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]], cols: int | None = None) -> "Matrix":
        data = tuple(vec(r) for r in rows)
        if cols is None:
            if not data:
                raise InputError("column count required for a matrix with no rows")
            cols = len(data[0])
        return cls(len(data), cols, data)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(vunit(n, i) for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, tuple(vzero(cols) for _ in range(rows)))

    def row(self, i: int) -> Vec:
        return self.entries[i]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, tuple(self.col(j) for j in range(self.cols)))

    def mul(self, other: "Matrix") -> "Matrix":
        """The product, computed in integers over each factor's common scale."""
        if self.cols != other.rows:
            raise InputError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        (a, left), (b, right) = _common_scale(self.entries), _common_scale(other.entries)
        return Matrix(self.rows, other.cols, tuple(
            tuple(Fraction(x, a * b) if x else ZERO for x in r)
            for r in _integer_product(left, right, other.cols)))

    def mul_vec(self, v: Sequence[Scalar]) -> Vec:
        w = vec(v)
        if len(w) != self.cols:
            raise InputError(f"vector length {len(w)} does not match {self.cols} columns")
        return tuple(vdot(r, w) for r in self.entries)

    def add(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("matrix shapes differ")
        return Matrix(self.rows, self.cols,
                      tuple(vadd(a, b) for a, b in zip(self.entries, other.entries)))

    def sub(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("matrix shapes differ")
        return Matrix(self.rows, self.cols,
                      tuple(vsub(a, b) for a, b in zip(self.entries, other.entries)))

    def scale(self, a: Scalar) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(vscale(a, r) for r in self.entries))

    def is_zero(self) -> bool:
        return all(vis_zero(r) for r in self.entries)

    def flatten(self) -> Vec:
        return tuple(itertools.chain.from_iterable(self.entries))


def _integer_row(r: Vec) -> list[int]:
    """``r`` times the lcm of its denominators: same row space, integer entries."""
    return _common_scale((r,))[1][0]


def _common_scale(rows: Sequence[Vec]) -> tuple[int, list[list[int]]]:
    """The lcm L of every denominator in ``rows``, and the rows times L."""
    den = math.lcm(*{x.denominator for r in rows for x in r})
    if den == 1:
        return den, [[x.numerator for x in r] for r in rows]
    return den, [[x.numerator * (den // x.denominator) for x in r] for r in rows]


def _integer_product(a: Sequence[list[int]], b: Sequence[list[int]], cols: int) -> list[list[int]]:
    """The product of integer matrices given by their rows; b has ``cols`` columns."""
    bt = list(zip(*b)) if b else [()] * cols
    return [[sum(map(operator.mul, r, c)) for c in bt] for r in a]


def _integer_basis(basis: Sequence[Vec]) -> tuple[int, list[tuple[int, list[int]]]]:
    """A reduced echelon basis cleared once: its common scale S and each
    basis vector's (pivot, S times the vector), the form :func:`_member` reads."""
    scale, rows = _common_scale(basis)
    return scale, list(zip(pivot_cols(basis), rows))


def _member(basis: tuple[int, Sequence[tuple[int, list[int]]]], w: Sequence[int]) -> bool:
    """Whether the integer vector w lies in the span of an :func:`_integer_basis`.

    The basis vectors are zero at each other's pivots, so w's only candidate
    combination has w[p] as the coefficient of the vector with pivot p: w
    is a member exactly when S w = sum of w[p] S b over the basis.
    """
    scale, rows = basis
    terms = [(w[p], r) for p, r in rows if w[p]]
    return all(scale * x == sum(c * r[j] for c, r in terms) for j, x in enumerate(w))


def _eliminate(row: list[int], prow: list[int], a: int, b: int) -> list[int] | None:
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


def rref(m: Matrix) -> Matrix:
    """Unique reduced row echelon form of ``m``, zero rows dropped.

    Gauss-Jordan runs fraction-free on integer rows: eliminating column
    ``pc`` replaces a row by ``a*row - b*pivot_row`` and divides it by its
    content (the gcd of its entries), which keeps the integers small
    without changing the row space.  Each pivot row is divided by its pivot
    once at the end; the reduced echelon form is unique, so this is the
    same matrix that Fraction elimination gives.
    """
    ncols = m.cols
    pending = [r for r in map(_integer_row, m.entries) if any(r)]
    done: list[tuple[int, list[int]]] = []
    for pc in range(ncols):
        if not pending:
            break
        piv = next((i for i, r in enumerate(pending) if r[pc]), None)
        if piv is None:
            continue
        prow = pending.pop(piv)
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
    return Matrix(len(done), ncols, tuple(
        tuple(Fraction(x, r[p]) if x else ZERO for x in r) for p, r in done))


def rank(m: Matrix) -> int:
    return rref(m).rows


def pivot_cols(rref_rows: Sequence[Vec]) -> tuple[int, ...]:
    """Pivot column of each row of a reduced-echelon row list."""
    out = []
    for r in rref_rows:
        for j, x in enumerate(r):
            if x != 0:
                out.append(j)
                break
    return tuple(out)


def _kernel(m: Matrix) -> Iterator[list[tuple[int, Fraction]]]:
    """The canonical basis of the right kernel { v : m.v = 0 }, one vector
    at a time, each as its nonzero (column, value) pairs in column order.

    One ``rref`` of m with its column order reversed picks the rightmost
    possible pivots; the reduced form depends only on m's row space, so m
    itself goes in.  The standard kernel basis of that form, one vector per
    free column f (1 at f, minus the rows' entries at f on their pivots),
    is then already the kernel's reduced echelon basis: every other entry
    of a vector lies right of its f, and no other vector is nonzero at f.
    """
    cols = m.cols
    back = rref(Matrix(m.rows, cols, tuple(row[::-1] for row in m.entries))).entries
    # Column c of the reversed form is column cols - 1 - c of m; the rows
    # are read last first, so that their pivots come in column order.
    rows = [(cols - 1 - p, row) for p, row in zip(pivot_cols(back), back)][::-1]
    pivot_set = {p for p, _ in rows}
    for f in range(cols):
        if f not in pivot_set:
            c = cols - 1 - f
            yield [(f, ONE)] + [(p, -row[c]) for p, row in rows if row[c]]


def nullspace(m: Matrix) -> "Subspace":
    """Canonical basis of the right kernel { v : m.v = 0 }: the vectors of
    :func:`_kernel`, dense."""
    vectors = []
    for pairs in _kernel(m):
        v = [ZERO] * m.cols
        for c, x in pairs:
            v[c] = x
        vectors.append(tuple(v))
    return Subspace._from_rref(m.cols, tuple(vectors))


def _map_through(points: Sequence[Vec], images: Sequence[Vec], dim: int,
                 codim: int) -> Matrix | None:
    """The codim x dim matrix X with X.p = y for every point p and its image
    y, or None when there is none.

    One ``rref`` of the rows (p | y).  A pivot in the y part is a
    combination of the points that vanishes while the same combination of
    the images does not.  Otherwise each pivot row, with its pivot at column
    c, holds column c of X in its y part, and the free columns of X are
    zero, which makes X the canonical one.
    """
    r = rref(Matrix(len(points), dim + codim,
                    tuple(tuple(p) + tuple(y) for p, y in zip(points, images))))
    columns = [vzero(codim)] * dim
    for row, p in zip(r.entries, pivot_cols(r.entries)):
        if p >= dim:
            return None
        columns[p] = row[dim:]
    return Matrix(dim, codim, tuple(columns)).transpose()


def solve(m: Matrix, b: Sequence[Scalar]) -> Vec | None:
    """One exact solution of m.x = b with free variables set to zero.

    Returns None when the system is inconsistent.
    """
    bv = vec(b)
    if len(bv) != m.rows:
        raise InputError(f"right-hand side length {len(bv)} does not match {m.rows} rows")
    x = _map_through(m.entries, [(y,) for y in bv], m.cols, 1)
    return None if x is None else x.entries[0]


def invert(m: Matrix) -> Matrix | None:
    """Exact inverse of a square matrix, or None when singular: the map that
    sends the columns of m to the unit vectors."""
    if m.rows != m.cols:
        raise InputError("only square matrices can be inverted")
    n = m.rows
    return _map_through(m.transpose().entries, [vunit(n, i) for i in range(n)], n, n)


class Subspace(Record):
    """Subspace of Q^ambient_dim held as its unique reduced-echelon basis.

    Equality of subspaces is therefore plain value equality.
    """

    ambient_dim: int
    basis: tuple[Vec, ...]

    def __post_init__(self):
        for r in self.basis:
            if len(r) != self.ambient_dim:
                raise InputError("basis vector length does not match ambient dimension")
        canon = rref(Matrix(len(self.basis), self.ambient_dim, self.basis)).entries
        if canon != self.basis:
            raise InputError("basis is not in reduced row echelon form")

    @classmethod
    def span(cls, ambient_dim: int, vectors: Sequence[Sequence[Scalar]]) -> "Subspace":
        rows = tuple(vec(v) for v in vectors)
        for r in rows:
            if len(r) != ambient_dim:
                raise InputError("spanning vector length does not match ambient dimension")
        return cls._from_rref(ambient_dim, rref(Matrix(len(rows), ambient_dim, rows)).entries)

    @classmethod
    def _from_rref(cls, ambient_dim: int, basis: tuple[Vec, ...]) -> "Subspace":
        """Subspace whose basis is already a reduced row echelon form of the
        right width; skips the validating ``rref`` of ``__post_init__``."""
        space = object.__new__(cls)
        object.__setattr__(space, "ambient_dim", ambient_dim)
        object.__setattr__(space, "basis", basis)
        return space

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls._from_rref(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls._from_rref(ambient_dim, tuple(vunit(ambient_dim, i)
                                                 for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> tuple[int, ...]:
        return pivot_cols(self.basis)

    def _vector(self, v: Sequence[Scalar]) -> Vec:
        w = vec(v)
        if len(w) != self.ambient_dim:
            raise InputError("vector length does not match ambient dimension")
        return w

    def reduce(self, v: Sequence[Scalar]) -> Vec:
        """Residue of v against the basis, zero iff v is a member.

        The basis vectors are zero at each other's pivots, so v's
        coefficients are read off as its entries at the pivots: the residue
        is v minus the sum of v[p] times the basis vector with pivot p.
        """
        w = self._vector(v)
        terms = [(w[p], row) for p, row in zip(self.pivots, self.basis) if w[p]]
        return tuple(x - sum((c * row[j] for c, row in terms), ZERO) for j, x in enumerate(w))

    def contains_vector(self, v: Sequence[Scalar]) -> bool:
        """Membership, tested in integers by :func:`_member`."""
        return _member(_integer_basis(self.basis), _integer_row(self._vector(v)))


def coordinates(s: Subspace, v: Sequence[Scalar]) -> Vec | None:
    """Coefficients of v in s's canonical basis, or None when v is outside s:
    v's entries at the pivots, when its :meth:`Subspace.reduce` residue vanishes."""
    w = s._vector(v)
    return None if any(s.reduce(w)) else tuple(w[p] for p in s.pivots)


def _check_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise InputError(f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_same_ambient(a, b)
    return Subspace.span(a.ambient_dim, a.basis + b.basis)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection by Zassenhaus's method: one ``rref`` of the rows (a_i | a_i)
    and (b_j | 0).

    A combination of the rows whose first half vanishes has sum(x_i a_i) =
    -sum(y_j b_j) as its second half, a vector of both spans, and every such
    vector arises so.  Those rows come last in the reduced form, so their
    second halves are already the intersection's reduced echelon basis.
    """
    _check_same_ambient(a, b)
    n = a.ambient_dim
    r = rref(Matrix(a.dim + b.dim, 2 * n,
                    tuple(v + v for v in a.basis) + tuple(v + vzero(n) for v in b.basis)))
    return Subspace._from_rref(n, tuple(row[n:] for row in r.entries if vis_zero(row[:n])))


def subspace_contains(a: Subspace, item: Union[Subspace, Sequence[Scalar]]) -> bool:
    """Whether a vector or a whole subspace lies inside ``a``."""
    if isinstance(item, Subspace):
        _check_same_ambient(a, item)
        return all(a.contains_vector(v) for v in item.basis)
    return a.contains_vector(item)
