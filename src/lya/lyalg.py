"""Lie-Yamaguti algebras given by exact structure constants.

An algebra is a pair of tensors over a fixed basis: ``c[i][j]`` holds the
coordinates of the binary product of basis elements i and j, ``d[i][j][k]``
those of the ternary product.  Values of :class:`LYAlgebra` are always
axiom-valid; candidate tensors that may fail the axioms only ever exist as
raw nested tuples paired with an :class:`AxiomReport`.  Every product of a
constructed algebra is evaluated on its stored integer form (see
:func:`_transport`); :func:`binary_eval` contracts only the raw tensors of
a Lie or Leibniz product before it is lifted.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction
from typing import Sequence

from ._record import Record
from .errors import AxiomError, InputError, MathError
from .exactlin import (Matrix, Scalar, Vec, frac, vadd, vec, vec_strs, vis_zero, vscale, vunit,
                       vzero)

Tensor3 = tuple[tuple[Vec, ...], ...]
Tensor4 = tuple[tuple[tuple[Vec, ...], ...], ...]

AXIOM_TAGS = ("LY1", "LY2", "LY3", "LY4", "LY5", "LY6")


def tensor3(data: Sequence[Sequence[Sequence[Scalar]]]) -> Tensor3:
    return tuple(tuple(vec(v) for v in row) for row in data)


def tensor4(data: Sequence[Sequence[Sequence[Sequence[Scalar]]]]) -> Tensor4:
    return tuple(tuple(tuple(vec(v) for v in plane) for plane in row) for row in data)


def zero_tensor3(n: int) -> Tensor3:
    return tuple(tuple(vzero(n) for _ in range(n)) for _ in range(n))


def zero_tensor4(n: int) -> Tensor4:
    return tuple(tuple(tuple(vzero(n) for _ in range(n)) for _ in range(n)) for _ in range(n))


def binary_eval(c: Tensor3, u: Vec, v: Vec) -> Vec:
    """Bilinear contraction of two coordinate vectors against ``c``."""
    out = list(vzero(len(c)))
    for i, a in enumerate(u):
        if not a:
            continue
        row = c[i]
        for j, b in enumerate(v):
            if not b:
                continue
            ab = a * b
            for l, x in enumerate(row[j]):
                if x:
                    out[l] += ab * x
    return tuple(out)


class AxiomFailure(Record):
    axiom: str
    indices: tuple[int, ...]
    residual: Vec


class AxiomReport(Record):
    passed: bool
    failures: tuple[AxiomFailure, ...]
    # The _cleared(c, d) form the identities were evaluated on, which
    # LYAlgebra keeps.  Not a field: it stays out of ==, hash and repr.
    _form: tuple[int, dict, dict]


def _tensor_shapes_ok(n: int, c, d) -> None:
    if len(c) != n or any(len(row) != n or any(len(v) != n for v in row) for row in c):
        raise InputError("binary tensor shape does not match dimension")
    if len(d) != n or any(
        len(row) != n or any(len(plane) != n or any(len(v) != n for v in plane) for plane in row)
        for row in d
    ):
        raise InputError("ternary tensor shape does not match dimension")


Keyed = tuple[int, dict[tuple[int, ...], int]]


def _cleared(c: Tensor3, d: Tensor4) -> tuple[int, dict, dict]:
    """The tensor pair in integers: the least common denominator L of every
    entry of ``c`` and ``d``, and the nonzero coordinates of L*c and L*d,
    keyed by (i, j, l) and (i, j, k, l) for coordinate l of the product of
    basis elements i, j[, k].
    """
    scale = math.lcm(*{x.denominator for row in c for v in row for x in v},
                     *{x.denominator for plane in d for row in plane for v in row for x in v})
    cs = {(i, j, l): x.numerator * (scale // x.denominator)
          for i, row in enumerate(c) for j, v in enumerate(row) for l, x in enumerate(v) if x}
    ds = {(i, j, k, l): x.numerator * (scale // x.denominator)
          for i, plane in enumerate(d) for j, row in enumerate(plane)
          for k, v in enumerate(row) for l, x in enumerate(v) if x}
    return scale, cs, ds


def _transport(keyed: Keyed, maps: Sequence[Matrix | None], post: Matrix | None = None) -> Keyed:
    """T(M_0 e_i, M_1 e_j[, M_2 e_k]) on every basis tuple, in integers.

    ``keyed`` is T's scale and cleared entries from the :func:`_cleared` form,
    ``maps`` holds one matrix for each argument slot and ``post``, when
    given, is applied to every product.  Each map is cleared of denominators
    and applied as a mode product over the nonzero entries, one slot at a
    time; None and identity matrices are skipped.  Returns the scale and the
    scaled nonzero coordinates, keyed like ``keyed``.
    """
    scale, entries = keyed
    # Row a of a map lists the weights m[a][i] with which slot value a
    # spreads to i: T(m e_i) = sum_a m[a][i] T(e_a).  On the product
    # coordinate, l spreads to r with weight post[r][l], so post enters
    # transposed.
    slots = list(enumerate(maps))
    if post is not None:
        slots.append((len(maps), post.transpose()))
    for s, m in slots:
        if m is None:
            continue
        m_scale = math.lcm(*{x.denominator for row in m.entries for x in row})
        spread = [[(i, x.numerator * (m_scale // x.denominator)) for i, x in enumerate(row) if x]
                  for row in m.entries]
        if m_scale == 1 and all(w == [(a, 1)] for a, w in enumerate(spread)):
            continue
        scale *= m_scale
        out: dict[tuple[int, ...], int] = {}
        for key, x in entries.items():
            head, tail = key[:s], key[s + 1:]
            for i, w in spread[key[s]]:
                k = head + (i,) + tail
                out[k] = out.get(k, 0) + x * w
        entries = {k: x for k, x in out.items() if x}
    return scale, entries


def _tensor_form(algebra: LYAlgebra, arity: int) -> Keyed:
    """The stored integer form of the binary (arity 2) or ternary (arity 3)
    product, as :func:`_transport` takes it."""
    return algebra._form[0], algebra._form[arity - 1]


def _summed(parts: Sequence[tuple[int, Keyed]]) -> Keyed:
    """sum of w * T over the (w, T) parts, for integer weights w and keyed
    integer forms T: their least common scale and the summed entries over
    it, zeros included."""
    scale = math.lcm(*(s for _, (s, _) in parts))
    acc: dict[tuple[int, ...], int] = {}
    for w, (s, entries) in parts:
        factor = w * (scale // s)
        for k, x in entries.items():
            acc[k] = acc.get(k, 0) + factor * x
    return scale, acc


def _vector_at(keyed: Keyed, idx: tuple[int, ...], n: int) -> Vec:
    """Coordinates 0 .. n - 1 of a keyed form at the basis tuple ``idx``."""
    scale, entries = keyed
    return tuple(Fraction(entries.get(idx + (l,), 0), scale) for l in range(n))


def _nonzero_vectors(keyed: Keyed, n: int) -> list[tuple[tuple[int, ...], Vec]]:
    """Each basis tuple at which a keyed form with no zero entries is
    nonzero, in sorted order, paired with its vector there."""
    return [(idx, _vector_at(keyed, idx, n)) for idx in sorted({key[:-1] for key in keyed[1]})]


def _columns(n: int, vectors: Sequence[Vec]) -> Matrix:
    """The n x k matrix whose columns are the k given vectors: as a map in a
    :func:`_transport` slot, it sends e_i to the i-th vector."""
    return Matrix(n, len(vectors), tuple(tuple(v[a] for v in vectors) for a in range(n)))


def _transported(algebra: LYAlgebra, maps: Sequence[Matrix | None]) -> Keyed:
    """The stored form of the product with one slot per map, transported by
    the maps."""
    return _transport(_tensor_form(algebra, len(maps)), maps)


def _product(algebra: LYAlgebra, vectors: Sequence[Vec]) -> Vec:
    """The binary (two vectors) or ternary (three) product of coordinate
    vectors, read from the stored integer form."""
    n = algebra.dim
    keyed = _transported(algebra, [_columns(n, [v]) for v in vectors])
    return _vector_at(keyed, (0,) * len(vectors), n)


def _first_failure(algebra: LYAlgebra, post: Matrix, terms) -> tuple[tuple, Vec] | None:
    """Where post(T(e_I)) differs from the sum over terms of T(M_0 e_i, M_1 e_j[, M_2 e_k]).

    ``terms`` is a nonempty list with one map (or None) per argument slot
    for each transported tensor; their length picks T, the binary product
    for two slots and the ternary for three.  Both sides are evaluated on
    the algebra's stored integer form.  Returns the least basis tuple, in
    scan order, with a nonzero defect and the defect there, or None when the
    identity holds on every basis tuple.
    """
    arity = len(terms[0])
    keyed = _tensor_form(algebra, arity)
    defect = _summed([(1, _transport(keyed, (None,) * arity, post))]
                     + [(-1, _transport(keyed, term)) for term in terms])
    first = min((k[:-1] for k, x in defect[1].items() if x), default=None)
    if first is None:
        return None
    return first, _vector_at(defect, first, algebra.dim)


def _mac(acc: list[int], coeffs, vectors) -> None:
    """acc += x * vectors[a] over the sparse (a, x) pairs of ``coeffs``."""
    for a, x in coeffs:
        for l, y in vectors[a]:
            acc[l] += x * y


def check_axioms(n: int, c: Tensor3, d: Tensor4) -> AxiomReport:
    """Evaluate the six defining identities on all basis tuples.

    The two alternating conditions are checked directly on the tensors; the
    remaining identities are evaluated on every ordered tuple of basis
    indices, which is complete by multilinearity.  They run in integers on
    the nonzeros of the tensors scaled by their common denominator L, where
    each identity is homogeneous of degree two (LY3's linear ternary terms
    carry one extra factor L), so a residual is its accumulator over L*L.
    """
    _tensor_shapes_ok(n, c, d)
    failures: list[AxiomFailure] = []

    def fail(tag: str, idx: tuple[int, ...], res: Vec) -> None:
        failures.append(AxiomFailure(tag, idx, res))

    for i in range(n):
        if not vis_zero(c[i][i]):
            fail("LY1", (i, i), c[i][i])
        for j in range(i + 1, n):
            res = vadd(c[i][j], c[j][i])
            if not vis_zero(res):
                fail("LY1", (i, j), res)
    for k in range(n):
        for i in range(n):
            if not vis_zero(d[i][i][k]):
                fail("LY2", (i, i, k), d[i][i][k])
            for j in range(i + 1, n):
                res = vadd(d[i][j][k], d[j][i][k])
                if not vis_zero(res):
                    fail("LY2", (i, j, k), res)

    form = _cleared(c, d)
    scale, keyed_c, keyed_d = form
    denom = scale * scale

    def check(tag: str, idx: tuple[int, ...], acc: list[int]) -> None:
        if any(acc):
            fail(tag, idx, tuple(Fraction(x, denom) for x in acc))

    idx = range(n)
    # The nonzeros of each product as (l, x) pairs: cs[i][j] and ds[i][j][k].
    cs = [[[] for _ in idx] for _ in idx]
    for (i, j, l), x in keyed_c.items():
        cs[i][j].append((l, x))
    ds = [[[[] for _ in idx] for _ in idx] for _ in idx]
    for (i, j, k, l), x in keyed_d.items():
        ds[i][j][k].append((l, x))
    # Transposes that put the contracted slot last: c_1[j][a] = c[a][j],
    # d_1[j][k][a] = d[a][j][k] and d_2[i][k][a] = d[i][a][k].
    c_1 = [[cs[a][j] for a in idx] for j in idx]
    d_1 = [[[ds[a][j][k] for a in idx] for k in idx] for j in idx]
    d_2 = [[[ds[i][a][k] for a in idx] for k in idx] for i in idx]

    for g, h, i in itertools.product(idx, repeat=3):
        acc = [0] * n
        for cyc in (ds[g][h][i], ds[h][i][g], ds[i][g][h]):
            for l, x in cyc:
                acc[l] += scale * x
        _mac(acc, cs[g][h], c_1[i])
        _mac(acc, cs[h][i], c_1[g])
        _mac(acc, cs[i][g], c_1[h])
        check("LY3", (g, h, i), acc)

    for g, h, i in itertools.product(idx, repeat=3):
        if not (cs[g][h] or cs[h][i] or cs[i][g]):
            continue
        for j in idx:
            acc = [0] * n
            _mac(acc, cs[g][h], d_1[i][j])
            _mac(acc, cs[h][i], d_1[g][j])
            _mac(acc, cs[i][g], d_1[h][j])
            check("LY4", (g, h, i, j), acc)

    # Every LY5 and LY6 term carries a factor d[g][h], so pairs (g, h) with
    # a zero ternary row contribute nothing.
    ghs = [(g, h, ds[g][h], [[(a, -x) for a, x in v] for v in ds[g][h]])
           for g, h in itertools.product(idx, repeat=2) if any(ds[g][h])]

    for g, h, dgh, neg in ghs:
        for i, j in itertools.product(idx, repeat=2):
            acc = [0] * n
            _mac(acc, cs[i][j], dgh)
            _mac(acc, neg[i], c_1[j])
            _mac(acc, neg[j], cs[i])
            check("LY5", (g, h, i, j), acc)

    for g, h, dgh, neg in ghs:
        for i, j, k in itertools.product(idx, repeat=3):
            acc = [0] * n
            _mac(acc, ds[i][j][k], dgh)
            _mac(acc, neg[i], d_1[j][k])
            _mac(acc, neg[j], d_2[i][k])
            _mac(acc, neg[k], ds[i][j])
            check("LY6", (g, h, i, j, k), acc)

    report = AxiomReport(passed=not failures, failures=tuple(failures))
    object.__setattr__(report, "_form", form)
    return report


class LYAlgebra(Record):
    """Axiom-valid algebra; construction fails if any identity is violated."""

    dim: int
    labels: tuple[str, ...]
    c: Tensor3
    d: Tensor4
    # _cleared(c, d), built once at construction by the axiom check; every
    # re-check only reads it.  Not a field: it stays out of __init__, ==,
    # hash and repr.
    _form: tuple[int, dict, dict]

    def __post_init__(self):
        if len(self.labels) != self.dim:
            raise InputError("label count does not match dimension")
        report = check_axioms(self.dim, self.c, self.d)
        if not report.passed:
            raise AxiomError(report)
        object.__setattr__(self, "_form", report._form)

    @classmethod
    def from_tensors(cls, labels: Sequence[str], c, d) -> "LYAlgebra":
        labels = tuple(str(x) for x in labels)
        return cls(len(labels), labels, tensor3(c), tensor4(d))


def bracket(algebra: LYAlgebra, g: Sequence[Scalar], h: Sequence[Scalar]) -> Vec:
    """Binary product of two coordinate vectors."""
    gv, hv = vec(g), vec(h)
    if len(gv) != algebra.dim or len(hv) != algebra.dim:
        raise InputError("vector length does not match algebra dimension")
    return _product(algebra, (gv, hv))


def triple(algebra: LYAlgebra, g: Sequence[Scalar], h: Sequence[Scalar], i: Sequence[Scalar]) -> Vec:
    """Ternary product of three coordinate vectors."""
    gv, hv, iv = vec(g), vec(h), vec(i)
    if any(len(v) != algebra.dim for v in (gv, hv, iv)):
        raise InputError("vector length does not match algebra dimension")
    return _product(algebra, (gv, hv, iv))


def _check_lie(n: int, c: Tensor3) -> None:
    for i in range(n):
        if not vis_zero(c[i][i]):
            raise MathError(f"bracket of basis element {i} with itself is nonzero",
                            witness={"indices": [i, i]})
        for j in range(n):
            if not vis_zero(vadd(c[i][j], c[j][i])):
                raise MathError(f"bracket is not antisymmetric at basis pair ({i}, {j})",
                                witness={"indices": [i, j]})
    for i, j, k in itertools.product(range(n), repeat=3):
        res = binary_eval(c, c[i][j], vunit(n, k))
        res = vadd(res, binary_eval(c, c[j][k], vunit(n, i)))
        res = vadd(res, binary_eval(c, c[k][i], vunit(n, j)))
        if not vis_zero(res):
            raise MathError(f"Jacobi identity fails at basis triple ({i}, {j}, {k})",
                            witness={"indices": [i, j, k], "residual": vec_strs(res)})


def from_lie(lie_tensor, labels: Sequence[str] | None = None) -> LYAlgebra:
    """Lift a Lie bracket tensor: ternary product is the iterated bracket."""
    c = tensor3(lie_tensor)
    n = len(c)
    _check_lie(n, c)
    if labels is None:
        labels = tuple(f"e{i + 1}" for i in range(n))
    d = tuple(
        tuple(
            tuple(binary_eval(c, c[i][j], vunit(n, k)) for k in range(n))
            for j in range(n))
        for i in range(n))
    return LYAlgebra.from_tensors(labels, c, d)


class LeibnizAlgebra(Record):
    """Left Leibniz algebra: a(bc) = (ab)c + b(ac) on all basis triples."""

    dim: int
    labels: tuple[str, ...]
    product: Tensor3

    def __post_init__(self):
        if len(self.labels) != self.dim:
            raise InputError("label count does not match dimension")
        p = self.product
        n = self.dim
        if len(p) != n or any(len(row) != n or any(len(v) != n for v in row) for row in p):
            raise InputError("product tensor shape does not match dimension")
        for a, b, c in itertools.product(range(n), repeat=3):
            lhs = binary_eval(p, vunit(n, a), p[b][c])
            rhs = vadd(binary_eval(p, p[a][b], vunit(n, c)),
                       binary_eval(p, vunit(n, b), p[a][c]))
            res = vadd(lhs, vscale(-1, rhs))
            if not vis_zero(res):
                raise MathError(
                    f"left Leibniz identity fails at basis triple ({a}, {b}, {c})",
                    witness={"indices": [a, b, c], "residual": vec_strs(res)})

    @classmethod
    def from_tensor(cls, labels: Sequence[str], product) -> "LeibnizAlgebra":
        labels = tuple(str(x) for x in labels)
        return cls(len(labels), labels, tensor3(product))


def from_leibniz(b: LeibnizAlgebra) -> LYAlgebra:
    """Skew-symmetrized half product plus minus-a-quarter iterated product."""
    n = b.dim
    p = b.product
    half = frac("1/2")
    quarter = frac("-1/4")
    c = tuple(
        tuple(vscale(half, vadd(p[i][j], vscale(-1, p[j][i]))) for j in range(n))
        for i in range(n))
    d = tuple(
        tuple(
            tuple(vscale(quarter, binary_eval(p, p[i][j], vunit(n, k))) for k in range(n))
            for j in range(n))
        for i in range(n))
    return LYAlgebra.from_tensors(b.labels, c, d)


def _unique_labels(first: Sequence[str], second: Sequence[str]) -> tuple[str, ...]:
    out = list(first)
    for lab in second:
        while lab in out:
            lab = lab + "'"
        out.append(lab)
    return tuple(out)


def direct_sum(a: LYAlgebra, b: LYAlgebra) -> LYAlgebra:
    """Block sum: products inside each summand, zero across blocks."""
    n, m = a.dim, b.dim
    total = n + m

    def embed_a(v: Vec) -> Vec:
        return v + vzero(m)

    def embed_b(v: Vec) -> Vec:
        return vzero(n) + v

    c = [[vzero(total) for _ in range(total)] for _ in range(total)]
    d = [[[vzero(total) for _ in range(total)] for _ in range(total)] for _ in range(total)]
    for i in range(n):
        for j in range(n):
            c[i][j] = embed_a(a.c[i][j])
            for k in range(n):
                d[i][j][k] = embed_a(a.d[i][j][k])
    for i in range(m):
        for j in range(m):
            c[n + i][n + j] = embed_b(b.c[i][j])
            for k in range(m):
                d[n + i][n + j][n + k] = embed_b(b.d[i][j][k])
    return LYAlgebra.from_tensors(_unique_labels(a.labels, b.labels), c, d)


def abelian(n: int) -> LYAlgebra:
    labels = tuple(f"a{i + 1}" for i in range(n))
    return LYAlgebra.from_tensors(labels, zero_tensor3(n), zero_tensor4(n))


def sl2_lie_tensor() -> Tensor3:
    """Chevalley basis (e, f, h): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    n = 3
    c = [[list(vzero(n)) for _ in range(n)] for _ in range(n)]
    e, f, h = 0, 1, 2

    def put(i, j, target, coeff):
        c[i][j][target] = frac(coeff)
        c[j][i][target] = frac(-coeff)

    put(e, f, h, 1)
    put(h, e, e, 2)
    put(h, f, f, -2)
    return tensor3(c)


def heisenberg_tensor() -> Tensor3:
    """Basis (x, y, z) with [x,y] = z."""
    n = 3
    c = [[list(vzero(n)) for _ in range(n)] for _ in range(n)]
    c[0][1][2] = frac(1)
    c[1][0][2] = frac(-1)
    return tensor3(c)


def aff2_tensor() -> Tensor3:
    """Basis (e1, e2) with [e1,e2] = e1."""
    c = [[list(vzero(2)) for _ in range(2)] for _ in range(2)]
    c[0][1][0] = frac(1)
    c[1][0][0] = frac(-1)
    return tensor3(c)


def leibniz2() -> LeibnizAlgebra:
    """Two-dimensional left Leibniz algebra: x.x = z, all other products zero."""
    p = [[list(vzero(2)) for _ in range(2)] for _ in range(2)]
    p[0][0][1] = frac(1)
    return LeibnizAlgebra.from_tensor(("x", "z"), p)


CATALOG_NAMES = (
    "abelian1",
    "abelian2",
    "abelian3",
    "sl2",
    "h3",
    "aff2",
    "lts_sl2",
    "sl2_plus_ab1",
    "leibniz2",
)

_ABELIAN_RE = re.compile(r"abelian(?:([0-9]+)|\(([0-9]+)\))")


@functools.lru_cache(maxsize=None)
def catalog(name: str) -> LYAlgebra:
    """Named desk-scale instances used throughout the test batteries."""
    m = _ABELIAN_RE.fullmatch(name)
    if m:
        return abelian(int(m.group(1) or m.group(2)))
    if name == "sl2":
        return from_lie(sl2_lie_tensor(), labels=("e", "f", "h"))
    if name == "h3":
        return from_lie(heisenberg_tensor(), labels=("x", "y", "z"))
    if name == "aff2":
        return from_lie(aff2_tensor(), labels=("e1", "e2"))
    if name == "lts_sl2":
        base = catalog("sl2")
        return LYAlgebra.from_tensors(base.labels, zero_tensor3(3), base.d)
    if name == "sl2_plus_ab1":
        return direct_sum(catalog("sl2"), abelian(1))
    if name == "leibniz2":
        return from_leibniz(leibniz2())
    raise InputError(f"unknown catalog name {name!r}")
