"""Lie-Yamaguti algebras given by exact structure constants.

An algebra stores its two products only as one cleared integer form: the
least common denominator L of every structure constant, and the nonzero
coordinates of L times each product, keyed (i, j, l) for coordinate l of
the binary product of basis elements i and j and (i, j, k, l) for the
ternary product of i, j and k.  The form is canonical, so two algebras are
equal exactly when their structure constants are; ``c[i][j]`` and
``d[i][j][k]`` are dense views computed from it.  Values of
:class:`LYAlgebra` are always axiom-valid; candidate constants that may fail
the axioms only ever exist as raw nested tuples or a raw form paired with an
:class:`AxiomReport`.  Every product is evaluated on the form (see
:func:`_transport`).  A :class:`LeibnizAlgebra` keeps its one product in
the same cleared form, keyed (i, j, l).
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import Sequence

from . import exactlin
from ._record import Record
from .errors import AxiomError, InputError, MathError

# A string, so that loading this module runs no other layer.
Tensor3 = tuple[tuple["exactlin.Vec", ...], ...]
# (L, binary entries, ternary entries), as the module docstring describes.
Form = tuple[int, dict, dict]
Keyed = tuple[int, dict[tuple[int, ...], int]]

AXIOM_TAGS = ("LY1", "LY2", "LY3", "LY4", "LY5", "LY6")


class AxiomFailure(Record):
    axiom: str
    indices: tuple[int, ...]
    residual: exactlin.Vec


class AxiomReport(Record):
    passed: bool
    failures: tuple[AxiomFailure, ...]


def _cleared(scale: int, binary: dict, ternary: dict) -> Form:
    """The canonical form of the products with entries x / scale, for integer
    or Fraction x keyed as in the form: their nonzero entries cleared by
    :func:`~lya.exactlin._clear`."""
    parts = [{k: x for k, x in part.items() if x} for part in (binary, ternary)]
    scale, (values,) = exactlin._clear(scale, [[x for part in parts for x in part.values()]])
    cleared = iter(values)
    return scale, *({k: next(cleared) for k in part} for part in parts)


def _form_of(binary: dict, ternary: dict) -> Form:
    """The canonical form of the products whose vectors are given by basis
    tuple, (i, j) for the binary and (i, j, k) for the ternary product."""
    return _cleared(1, *({idx + (l,): x for idx, v in part.items() for l, x in enumerate(v)}
                         for part in (binary, ternary)))


def _entries(tensor, n: int, depth: int, what: str) -> dict:
    """The nonzero entries of a dense nested tensor with ``depth`` index
    levels, the last one a vector's coordinate, as Fractions keyed as in the
    form; an InputError names the ``what`` tensor when a level does not
    hold n entries."""
    if len(tensor) != n:
        raise InputError(f"{what} tensor shape does not match dimension")
    if depth == 1:
        return {(l,): x for l, x in enumerate(exactlin.vec(tensor)) if x}
    return {(i, *key): x for i, sub in enumerate(tensor)
            for key, x in _entries(sub, n, depth - 1, what).items()}


def _iterated(entries: dict, outer: dict | None = None) -> dict:
    """The entries of S(T(e_I), e_J), keyed (I, J, l), for the integer
    entries of T and S keyed as in the form, where S is ``outer`` or else T
    itself: T's last index is contracted into S's first slot, whatever the
    number of indices before it and after that slot.  For binary products
    this is S(T(e_i, e_j), e_k) keyed (i, j, k, l), the sum over a of
    T(i, j, a) S(a, k, l); every value is over the product of the scales."""
    by_first: dict[int, list] = {}
    for (a, *rest), y in (entries if outer is None else outer).items():
        by_first.setdefault(a, []).append((tuple(rest), y))
    out: dict[tuple[int, ...], int] = {}
    for key, x in entries.items():
        head = key[:-1]
        for rest, y in by_first.get(key[-1], ()):
            k = head + rest
            out[k] = out.get(k, 0) + x * y
    return out


def _transport(keyed: Keyed, maps: Sequence[exactlin.Matrix | None],
               post: exactlin.Matrix | None = None) -> Keyed:
    """T(M_0 e_i, M_1 e_j[, M_2 e_k]) on every basis tuple, in integers.

    ``keyed`` is T's scale and entries from a stored form (:func:`_tensor_form`),
    ``maps`` holds one matrix for each argument slot and ``post``, when
    given, is applied to every product.  Each map is applied from its stored
    integer rows as a mode product over the nonzero entries, one slot at a
    time; None and identity matrices are skipped.  Returns the scale and the
    scaled nonzero coordinates, keyed like ``keyed``.
    """
    scale, entries = keyed
    # Row a of a map lists the weights m[a][i] with which slot value a
    # spreads to i: T(m e_i) = sum_a m[a][i] T(e_a).  On the product
    # coordinate, l spreads to r with weight post[r][l], so post enters
    # transposed.
    slots = [(s, m.form) for s, m in enumerate(maps) if m is not None]
    if post is not None:
        slots.append((len(maps), (post.form[0], tuple(zip(*post.form[1])))))
    for s, (m_scale, rows) in slots:
        spread = [[(i, x) for i, x in enumerate(row) if x] for row in rows]
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
    return algebra.form[0], algebra.form[arity - 1]


def _dense(keyed: Keyed, n: int, arity: int):
    """The keyed form's vectors as nested tuples over ``arity`` basis
    indices: the dense c for arity 2, d for arity 3."""
    vectors = {idx: exactlin._view(keyed[0], v) for idx, v in _vectors(keyed, n)}
    zero = exactlin.vzero(n)

    def nest(idx: tuple[int, ...]):
        if len(idx) == arity:
            return vectors.get(idx, zero)
        return tuple(nest(idx + (i,)) for i in range(n))

    return nest(())


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


def _vector_at(keyed: Keyed, idx: tuple[int, ...], n: int) -> exactlin.Vec:
    """Coordinates 0 .. n - 1 of a keyed form at the basis tuple ``idx``."""
    scale, entries = keyed
    return tuple(Fraction(entries.get(idx + (l,), 0), scale) for l in range(n))


def _vectors(keyed: Keyed, n: int) -> list[tuple[tuple[int, ...], list[int]]]:
    """Each basis tuple at which a keyed form with no zero entries is
    nonzero, in sorted order, paired with its integer vector there over the
    form's scale."""
    entries = keyed[1]
    return [(idx, [entries.get(idx + (l,), 0) for l in range(n)])
            for idx in sorted({key[:-1] for key in entries})]


def _columns(n: int, vectors: Sequence[exactlin.Vec]) -> exactlin.Matrix:
    """The n x k matrix whose columns are the k given vectors: as a map in a
    :func:`_transport` slot, it sends e_i to the i-th vector."""
    return exactlin.Matrix(n, len(vectors),
                           (1, tuple(tuple(v[a] for v in vectors) for a in range(n))))


def _transported(algebra: LYAlgebra, maps: Sequence[exactlin.Matrix | None]) -> Keyed:
    """The stored form of the product with one slot per map, transported by
    the maps."""
    return _transport(_tensor_form(algebra, len(maps)), maps)


def _values(keyed: Keyed, n: int, fixed: Sequence[exactlin.Vec],
            last: Sequence[exactlin.Vec]) -> list[exactlin.Vec]:
    """A keyed multilinear form at (fixed..., y) for each y in ``last``, from
    one transport: the one evaluator of a form at vectors, behind ``bracket``,
    ``triple``, inner derivations and the hat map's prescribed images."""
    keyed = _transport(keyed, [_columns(n, [v]) for v in fixed] + [_columns(n, last)])
    return [_vector_at(keyed, (0,) * len(fixed) + (k,), n) for k in range(len(last))]


def _defect(keyed: Keyed, post: exactlin.Matrix, terms) -> Keyed:
    """post(T(e_I)) minus the sum over terms of T(M_0 e_i, M_1 e_j[, M_2 e_k]).

    ``keyed`` is the stored form of T, the binary or the ternary product,
    and ``terms`` a nonempty list with one map (or None) for each of its
    argument slots for each transported copy of T.  Returns the defect's
    scale and its entries on every basis tuple, in integers, zeros included.
    """
    arity = len(terms[0])
    return _summed([(1, _transport(keyed, (None,) * arity, post))]
                   + [(-1, _transport(keyed, term)) for term in terms])


def _first_failure(algebra: LYAlgebra, post: exactlin.Matrix,
                   terms) -> tuple[tuple, exactlin.Vec] | None:
    """Where post(T(e_I)) differs from the sum over terms of T(M_0 e_i, M_1 e_j[, M_2 e_k]).

    The number of slots in each term picks T, the algebra's binary product
    for two and its ternary product for three, and :func:`_defect` evaluates
    the identity on its stored form.  Returns the least basis tuple, in scan
    order, with a nonzero defect and the defect there, or None when the
    identity holds on every basis tuple.
    """
    defect = _defect(_tensor_form(algebra, len(terms[0])), post, terms)
    first = min((k[:-1] for k, x in defect[1].items() if x), default=None)
    if first is None:
        return None
    return first, _vector_at(defect, first, algebra.dim)


def check_axioms(n: int, c, d) -> AxiomReport:
    """Evaluate the six defining identities of dense nested tensors c and d:
    they are cleared once and checked as a form by :func:`_check_form`."""
    return _check_form(n, _cleared(1, _entries(c, n, 3, "binary"), _entries(d, n, 4, "ternary")))


def _check_form(n: int, form: Form) -> AxiomReport:
    """Evaluate the six defining identities on all basis tuples of a form.

    The two alternating conditions are read off the entries, in the order
    of a scan over the basis tuples (LY2 with its last index outermost).
    The other four are contracted from the form's integer entries, in which
    each identity is homogeneous of degree two (LY3's ternary terms carry
    one extra factor L, the form's scale), and their failures are listed
    identity by identity in lexicographic order of the basis tuples.  LY3
    and LY4 are cyclic sums of iterated products (:func:`_iterated`).  LY5
    and LY6 say that every inner map D(g, h) = {e_g, e_h, .} is a derivation
    of both products.  That defect is linear in the map, so it is evaluated
    once for each map of a basis of the span of the inner maps, and only
    when one of those defects is nonzero is each pair's defect combined
    from them, with the pair's entries at the basis pivots as coefficients.
    """
    scale, keyed_c, keyed_d = form
    failures: list[AxiomFailure] = []

    def fail(tag: str, idx: tuple[int, ...], res: exactlin.Vec) -> None:
        failures.append(AxiomFailure(tag, idx, res))

    for tag, keyed in (("LY1", keyed_c), ("LY2", keyed_d)):
        # T(e_i, e_j, ...) + T(e_j, e_i, ...) at each pair i <= j that some
        # entry has in its first two slots; with i = j the set has one key.
        for *rest, i, j in sorted({(*key[2:-1], *sorted(key[:2])) for key in keyed}):
            keys = {(i, j, *rest), (j, i, *rest)}
            res = tuple(Fraction(sum(keyed.get(key + (l,), 0) for key in keys), scale)
                        for l in range(n))
            if any(res):
                fail(tag, (i, j, *rest), res)

    def listed(tag: str, prefix: tuple[int, ...], denom: int, entries: dict) -> None:
        nonzero = {k: x for k, x in entries.items() if x}
        for idx, v in _vectors((denom, nonzero), n):
            fail(tag, prefix + idx, exactlin._view(denom, v))

    def cyclic(entries: dict) -> dict:
        # The sum over the rotations of the first three indices.
        out: dict[tuple[int, ...], int] = {}
        for (g, h, i, *rest), x in entries.items():
            for k in ((g, h, i, *rest), (i, g, h, *rest), (h, i, g, *rest)):
                out[k] = out.get(k, 0) + x
        return out

    ly3 = _summed([(1, (1, _iterated(keyed_c))), (scale, (1, keyed_d))])[1]
    listed("LY3", (), scale * scale, cyclic(ly3))
    listed("LY4", (), scale * scale, cyclic(_iterated(keyed_c, keyed_d)))

    # D(g, h) as the matrix whose column i is {e_g, e_h, e_i}, flattened row
    # by row, for each pair with a nonzero ternary row; the others are zero.
    pairs = sorted({key[:2] for key in keyed_d})
    flat = [[keyed_d.get((g, h, i, l), 0) for l in range(n) for i in range(n)]
            for g, h in pairs]
    basis_scale, basis = exactlin._rref(n * n, flat)
    pivots = [next(p for p, x in enumerate(row) if x) for row in basis]
    basis_maps = [exactlin.Matrix(n, n, (basis_scale, tuple(row[l * n:(l + 1) * n]
                                                            for l in range(n))))
                  for row in basis]
    for tag, keyed, arity in (("LY5", keyed_c, 2), ("LY6", keyed_d, 3)):
        # A derivation's defect: the map applied after the product, minus
        # the product with the map in each slot in turn.
        defects = [_defect((scale, keyed), m, [tuple(m if s == t else None for s in range(arity))
                                               for t in range(arity)])
                   for m in basis_maps]
        keys = list({k for _, entries in defects for k, x in entries.items() if x})
        if not keys:
            continue
        # Basis map b is 1 at its pivot and every other one is 0 there, so
        # D(g, h) is the sum over b of its entry at that pivot, over L, times
        # map b, and its defect is the same sum of theirs, kept over one scale.
        common = math.lcm(*(s for s, _ in defects))
        dense = [[entries.get(k, 0) * (common // s) for k in keys] for s, entries in defects]
        for (g, h), row in zip(pairs, flat):
            acc = [0] * len(keys)
            for p, values in zip(pivots, dense):
                if row[p]:
                    acc = [a + row[p] * y for a, y in zip(acc, values)]
            listed(tag, (g, h), scale * common, dict(zip(keys, acc)))

    return AxiomReport(passed=not failures, failures=tuple(failures))


class LYAlgebra(Record):
    """Axiom-valid algebra; construction fails if any identity is violated.

    ``form`` holds the products as ``(scale, binary, ternary)`` entries,
    integers or Fractions over the scale keyed as the module docstring
    says; construction makes it the canonical cleared form, which only this
    module reads.  So ``==`` on the fields compares structure constants,
    ``hash`` reads the form's entries, and ``repr`` shows the dense ``c``
    and ``d`` as a dataclass with those fields would.
    """

    dim: int
    labels: tuple[str, ...]
    form: Form

    def __post_init__(self):
        if len(self.labels) != self.dim:
            raise InputError("label count does not match dimension")
        object.__setattr__(self, "form", _cleared(*self.form))
        report = _check_form(self.dim, self.form)
        if not report.passed:
            raise AxiomError(report)

    def __hash__(self):
        scale, binary, ternary = self.form
        return hash((self.dim, self.labels, scale,
                     frozenset(binary.items()), frozenset(ternary.items())))

    def __repr__(self):
        return f"LYAlgebra(dim={self.dim!r}, labels={self.labels!r}, c={self.c!r}, d={self.d!r})"

    c = property(lambda self: _dense(_tensor_form(self, 2), self.dim, 2))
    d = property(lambda self: _dense(_tensor_form(self, 3), self.dim, 3))

    @classmethod
    def from_tensors(cls, labels: Sequence[str], c, d) -> "LYAlgebra":
        labels = tuple(str(x) for x in labels)
        n = len(labels)
        return cls(n, labels, (1, _entries(c, n, 3, "binary"), _entries(d, n, 4, "ternary")))


def bracket(algebra: LYAlgebra, g: Sequence[exactlin.Scalar],
            h: Sequence[exactlin.Scalar]) -> exactlin.Vec:
    """Binary product of two coordinate vectors."""
    gv, hv = exactlin.vec(g), exactlin.vec(h)
    if len(gv) != algebra.dim or len(hv) != algebra.dim:
        raise InputError("vector length does not match algebra dimension")
    return _values(_tensor_form(algebra, 2), algebra.dim, [gv], [hv])[0]


def triple(algebra: LYAlgebra, g: Sequence[exactlin.Scalar], h: Sequence[exactlin.Scalar],
           i: Sequence[exactlin.Scalar]) -> exactlin.Vec:
    """Ternary product of three coordinate vectors."""
    gv, hv, iv = exactlin.vec(g), exactlin.vec(h), exactlin.vec(i)
    if any(len(v) != algebra.dim for v in (gv, hv, iv)):
        raise InputError("vector length does not match algebra dimension")
    return _values(_tensor_form(algebra, 3), algebra.dim, [gv, hv], [iv])[0]


def from_lie(lie_tensor, labels: Sequence[str] | None = None) -> LYAlgebra:
    """Lift a Lie bracket tensor: ternary product is the iterated bracket.

    The lift is built and its axioms checked as for any algebra; a bracket
    that is not a Lie bracket fails that check, and its error names the
    check's first failure.  LY1 is alternation.  Once it holds, so does LY2,
    and LY3 is twice the Jacobi identity at the same basis triples, so any
    other first failure is LY3 with its residual halved.
    """
    n = len(lie_tensor)
    scale, binary, _ = _cleared(1, _entries(lie_tensor, n, 3, "bracket"), {})
    if labels is None:
        labels = tuple(f"e{i + 1}" for i in range(n))
    form = (scale * scale, {k: scale * x for k, x in binary.items()}, _iterated(binary))
    try:
        return LYAlgebra(n, tuple(str(x) for x in labels), form)
    except AxiomError as exc:
        first = exc.report.failures[0]
    if first.axiom == "LY1":
        i, j = first.indices
        raise MathError(f"bracket of basis element {i} with itself is nonzero" if i == j
                        else f"bracket is not antisymmetric at basis pair ({i}, {j})",
                        witness={"indices": [i, j]})
    raise MathError(f"Jacobi identity fails at basis triple {first.indices}",
                    witness={"indices": list(first.indices),
                             "residual": exactlin.vec_strs(x / 2 for x in first.residual)})


class LeibnizAlgebra(Record):
    """Left Leibniz algebra: a(bc) = (ab)c + b(ac) on all basis triples.

    ``form`` holds the product as ``(scale, entries)``, integers or
    Fractions over the scale keyed (i, j, l) as the module docstring says;
    construction makes it the canonical cleared form and checks the
    identity on it in integers.  So ``==`` compares structure constants,
    ``hash`` reads the entries, and ``repr`` shows the dense ``product`` as
    a dataclass with that field would.
    """

    dim: int
    labels: tuple[str, ...]
    form: Keyed

    def __post_init__(self):
        if len(self.labels) != self.dim:
            raise InputError("label count does not match dimension")
        scale, product, _ = _cleared(*self.form, {})
        object.__setattr__(self, "form", (scale, product))
        # left[j, k, i, l] is coordinate l of e_i(e_j e_k), so a(bc) and b(ac)
        # at the basis triple (a, b, c) sit at the keys (b, c, a) and (a, c, b).
        left = _iterated(product, {(j, i, l): x for (i, j, l), x in product.items()})
        defect = _summed([(1, (1, {(i, j, k, l): x for (j, k, i, l), x in left.items()})),
                          (-1, (1, {(i, j, k, l): x for (i, k, j, l), x in left.items()})),
                          (-1, (1, _iterated(product)))])[1]
        first = min((key[:3] for key, x in defect.items() if x), default=None)
        if first is not None:
            res = _vector_at((scale * scale, defect), first, self.dim)
            raise MathError(f"left Leibniz identity fails at basis triple {first}",
                            witness={"indices": list(first), "residual": exactlin.vec_strs(res)})

    def __hash__(self):
        scale, product = self.form
        return hash((self.dim, self.labels, scale, frozenset(product.items())))

    def __repr__(self):
        return (f"LeibnizAlgebra(dim={self.dim!r}, labels={self.labels!r}, "
                f"product={self.product!r})")

    product = property(lambda self: _dense(self.form, self.dim, 2))

    @classmethod
    def from_tensor(cls, labels: Sequence[str], product) -> "LeibnizAlgebra":
        labels = tuple(str(x) for x in labels)
        n = len(labels)
        return cls(n, labels, (1, _entries(product, n, 3, "product")))


def from_leibniz(b: LeibnizAlgebra) -> LYAlgebra:
    """Skew-symmetrized half product plus minus-a-quarter iterated product."""
    scale, product = b.form
    # Over 4 scale^2, the binary product is 2 scale (p(e_i, e_j) - p(e_j, e_i))
    # and the ternary minus the iterated product.
    swapped = {(j, i, l): x for (i, j, l), x in product.items()}
    binary = _summed([(2 * scale, (1, product)), (-2 * scale, (1, swapped))])[1]
    ternary = {k: -x for k, x in _iterated(product).items()}
    return LYAlgebra(b.dim, b.labels, (4 * scale * scale, binary, ternary))


def _unique_labels(first: Sequence[str], second: Sequence[str]) -> tuple[str, ...]:
    out = list(first)
    for lab in second:
        while lab in out:
            lab = lab + "'"
        out.append(lab)
    return tuple(out)


def direct_sum(a: LYAlgebra, b: LYAlgebra) -> LYAlgebra:
    """Block sum: products inside each summand, zero across blocks."""
    scale = math.lcm(a.form[0], b.form[0])
    parts: list[dict] = [{}, {}]
    for (s, *products), shift in ((a.form, 0), (b.form, a.dim)):
        for part, entries in zip(parts, products):
            part.update({tuple(i + shift for i in key): x * (scale // s)
                         for key, x in entries.items()})
    return LYAlgebra(a.dim + b.dim, _unique_labels(a.labels, b.labels), (scale, *parts))


def abelian(n: int) -> LYAlgebra:
    return LYAlgebra(n, tuple(f"a{i + 1}" for i in range(n)), (1, {}, {}))


def _lie_tensor(n: int, brackets: dict) -> Tensor3:
    """The dense bracket of dimension n with [e_i, e_j] = -[e_j, e_i] = x e_l
    for each ((i, j, l), x) in ``brackets``, and all others zero."""
    entries = {}
    for (i, j, l), x in brackets.items():
        entries[i, j, l], entries[j, i, l] = x, -x
    return _dense((1, entries), n, 2)


def sl2_lie_tensor() -> Tensor3:
    """Chevalley basis (e, f, h): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return _lie_tensor(3, {(0, 1, 2): 1, (2, 0, 0): 2, (2, 1, 1): -2})


def heisenberg_tensor() -> Tensor3:
    """Basis (x, y, z) with [x,y] = z."""
    return _lie_tensor(3, {(0, 1, 2): 1})


def aff2_tensor() -> Tensor3:
    """Basis (e1, e2) with [e1,e2] = e1."""
    return _lie_tensor(2, {(0, 1, 0): 1})


def leibniz2() -> LeibnizAlgebra:
    """Two-dimensional left Leibniz algebra: x.x = z, all other products zero."""
    return LeibnizAlgebra(2, ("x", "z"), (1, {(0, 0, 1): 1}))


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
        return LYAlgebra(3, base.labels, (base.form[0], {}, base.form[2]))
    if name == "sl2_plus_ab1":
        return direct_sum(catalog("sl2"), abelian(1))
    if name == "leibniz2":
        return from_leibniz(leibniz2())
    raise InputError(f"unknown catalog name {name!r}")
