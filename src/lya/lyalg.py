"""Lie-Yamaguti algebras given by exact structure constants.

An algebra stores its two products only as one cleared integer form: the
least common denominator L of every structure constant, and the nonzero
coordinates of L times each product, keyed (i, j, l) for coordinate l of
the binary product of basis elements i and j and (i, j, k, l) for the
ternary product of i, j and k.  The form is canonical, so two algebras are
equal exactly when their structure constants are; ``c[i][j]`` and
``d[i][j][k]`` are dense views computed from it.  Structure constants
enter only as such a form, integers or Fractions over a positive integer
scale, and every form is cleared by :func:`_cleared`, which refuses a
malformed one with InputError.  Values of :class:`LYAlgebra` are always
axiom-valid; candidate constants that may fail the axioms only ever exist
as a raw form, paired with its failures: the tuple of
:class:`AxiomFailure` that :func:`check_axioms` returns.  A form whose
ternary product is the iterated binary one is checked by LY1, LY2 and LY3
alone, since such a form is an algebra exactly when its binary product is a
Lie bracket; every other form by all six identities.  Every product
is evaluated on the form (see :func:`_transport`).  :func:`from_lie` takes
a Lie bracket, and :func:`from_leibniz` a left Leibniz product, as
``(scale, entries)`` keyed (i, j, l) as the binary part of a form.
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

# (L, binary entries, ternary entries), as the module docstring describes.
Form = tuple[int, dict, dict]
Keyed = tuple[int, dict[tuple[int, ...], int]]

class AxiomFailure(Record):
    axiom: str
    indices: tuple[int, ...]
    residual: exactlin.Vec


def _cleared(n: int, form: tuple, count: int) -> tuple:
    """The canonical form of products of dimension n given as ``form``, a
    tuple of ``count`` parts: a scale, the binary entries and, when count is
    3, the ternary entries, integers or Fractions x keyed as in the form for
    x / scale.  Their nonzero entries are cleared by
    :func:`~lya.exactlin._clear`.  A form of another shape, a part that is
    not a dict and a key that is not 3 (binary) or 4 (ternary) integer
    indices in range(n) are refused with InputError, as
    :func:`~lya.exactlin._clear` refuses a bad scale or value."""
    scale, *parts = exactlin._parts(form, count)
    for arity, part in zip((3, 4), parts):
        if not isinstance(part, dict):
            raise InputError(f"the entries of a form must be a dict, got {type(part).__name__}")
        for key in part:
            if not (type(key) is tuple and len(key) == arity
                    and all(type(i) is int and 0 <= i < n for i in key)):
                raise InputError(f"key {key!r} is not {arity} indices in range({n})")
    scale, (values,) = exactlin._clear(scale, [[x for part in parts for x in part.values()]])
    cleared = iter(values)
    return scale, *({k: x for k, x in zip(part, cleared) if x} for part in parts)


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
    time.  None and identity matrices are skipped: a map is the identity
    exactly when its stored form is scale 1 with the unit rows, which no
    map of another shape has, and only the other maps are spread.  Returns
    the scale and the scaled nonzero coordinates, keyed like ``keyed``.
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
        if m_scale == 1 and rows == exactlin.Matrix.identity(len(rows)).form[1]:
            continue
        spread = [[(i, x) for i, x in enumerate(row) if x] for row in rows]
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


def check_axioms(n: int, form: Form) -> tuple[AxiomFailure, ...]:
    """The failures of the six defining identities of the products of
    dimension n given by ``form``, as :class:`LYAlgebra` takes it: it is
    cleared once and checked by :func:`_check_form`."""
    return _check_form(n, _cleared(n, form, 3))


def _check_form(n: int, form: Form) -> tuple[AxiomFailure, ...]:
    """Evaluate the six defining identities on all basis tuples of a form,
    and return their failures, none when the axioms hold.

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

    A Lie-type form, whose ternary entries are those of the iterated
    bracket (:func:`_iterated`) over the form's scale, stops after LY3 when
    LY1, LY2 and LY3 found no failure: it is then the lift of a Lie algebra,
    LY3 being twice the Jacobi identity, and LY4-LY6 hold (Yamaguti 1958).
    Every other form, and every form with a failure, is checked in full, so
    the failures and their order are those of the full check.
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
            res = [sum(keyed.get(key + (l,), 0) for key in keys) for l in range(n)]
            if any(res):
                fail(tag, (i, j, *rest), exactlin._view(scale, res))

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

    iterated = _iterated(keyed_c)
    listed("LY3", (), scale * scale, cyclic(_summed([(1, (1, iterated)), (scale, (1, keyed_d))])[1]))
    # A Lie-type form, whose ternary product is the iterated bracket, that
    # passes LY1 and LY3 is a Lie algebra's lift, so LY2 and LY4-LY6 hold.
    if not failures and {k: x * scale for k, x in keyed_d.items()} == {
            k: x for k, x in iterated.items() if x}:
        return ()
    listed("LY4", (), scale * scale, cyclic(_iterated(keyed_c, keyed_d)))

    # D(g, h) as the matrix whose column i is {e_g, e_h, e_i}, flattened row
    # by row, for each pair with a nonzero ternary row; the others are zero.
    pairs = sorted({key[:2] for key in keyed_d})
    flat = [[keyed_d.get((g, h, i, l), 0) for l in range(n) for i in range(n)]
            for g, h in pairs]
    basis_scale, basis = exactlin._rref(n * n, flat)
    coefficients = [[row[p] for p in exactlin.pivot_cols(basis)] for row in flat]
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
        # map b, and its defect is the same sum of theirs, kept over one scale:
        # the pairs' pivot entries times the basis defects.
        common = math.lcm(*(s for s, _ in defects))
        dense = [[entries.get(k, 0) * (common // s) for k in keys] for s, entries in defects]
        for (g, h), acc in zip(pairs, exactlin._integer_product(coefficients, dense, len(keys))):
            listed(tag, (g, h), scale * common, dict(zip(keys, acc)))

    return tuple(failures)


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
        labels = self.labels
        if not (type(labels) is tuple and len(labels) == self.dim
                and all(type(x) is str for x in labels)):
            raise InputError("labels must be a tuple of dim strings")
        object.__setattr__(self, "form", _cleared(self.dim, self.form, 3))
        failures = _check_form(self.dim, self.form)
        if failures:
            raise AxiomError(failures)

    def __hash__(self):
        scale, binary, ternary = self.form
        return hash((self.dim, self.labels, scale,
                     frozenset(binary.items()), frozenset(ternary.items())))

    def __repr__(self):
        return f"LYAlgebra(dim={self.dim!r}, labels={self.labels!r}, c={self.c!r}, d={self.d!r})"

    c = property(lambda self: _dense(_tensor_form(self, 2), self.dim, 2))
    d = property(lambda self: _dense(_tensor_form(self, 3), self.dim, 3))


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


def from_lie(dim: int, bracket: Keyed, labels: Sequence[str] | None = None) -> LYAlgebra:
    """Lift a Lie bracket: ternary product is the iterated bracket.

    ``bracket`` is ``(scale, entries)``, keyed (i, j, l) for coordinate l
    of [e_i, e_j] as the binary part of a form, with both [e_i, e_j] and
    [e_j, e_i] given; ``labels`` are a tuple of dim strings, as
    :class:`LYAlgebra` takes them, and default to e1, e2, ....  The lift is
    built and its axioms checked as for any algebra, which for a lift reads
    LY1 to LY3 only; a bracket that is not a Lie bracket fails that check,
    and its error names the check's first failure.  LY1 is alternation.
    Once it holds, so does LY2, and LY3 is twice the Jacobi identity at the
    same basis triples, so any other first failure is LY3 with its residual
    halved.
    """
    scale, binary = _cleared(dim, bracket, 2)
    if labels is None:
        labels = tuple(f"e{i + 1}" for i in range(dim))
    form = (scale * scale, {k: scale * x for k, x in binary.items()}, _iterated(binary))
    try:
        return LYAlgebra(dim, labels, form)
    except AxiomError as exc:
        first = exc.failures[0]
    if first.axiom == "LY1":
        i, j = first.indices
        raise MathError(f"bracket of basis element {i} with itself is nonzero" if i == j
                        else f"bracket is not antisymmetric at basis pair ({i}, {j})",
                        witness={"indices": [i, j]})
    raise MathError(f"Jacobi identity fails at basis triple {first.indices}",
                    witness={"indices": list(first.indices),
                             "residual": exactlin.vec_strs(x / 2 for x in first.residual)})


def from_leibniz(dim: int, product: Keyed, labels: tuple[str, ...]) -> LYAlgebra:
    """Lift a left Leibniz product: the skew-symmetrized half product and
    minus a quarter of the iterated product.

    ``product`` is ``(scale, entries)``, keyed as :func:`from_lie` takes
    its bracket but with no symmetry assumed.  It is cleared once, and the
    left Leibniz identity a(bc) = (ab)c + b(ac) is checked on it in
    integers; a product that fails it is refused with MathError at the
    first basis triple, in lexicographic order, where it fails.
    """
    scale, product = _cleared(dim, product, 2)
    iterated = _iterated(product)
    # left[j, k, i, l] is coordinate l of e_i(e_j e_k), so a(bc) and b(ac)
    # at the basis triple (a, b, c) sit at the keys (b, c, a) and (a, c, b).
    left = _iterated(product, {(j, i, l): x for (i, j, l), x in product.items()})
    defect = _summed([(1, (1, {(i, j, k, l): x for (j, k, i, l), x in left.items()})),
                      (-1, (1, {(i, j, k, l): x for (i, k, j, l), x in left.items()})),
                      (-1, (1, iterated))])[1]
    first = min((key[:3] for key, x in defect.items() if x), default=None)
    if first is not None:
        res = _vector_at((scale * scale, defect), first, dim)
        raise MathError(f"left Leibniz identity fails at basis triple {first}",
                        witness={"indices": list(first), "residual": exactlin.vec_strs(res)})
    # Over 4 scale^2, the binary product is 2 scale (p(e_i, e_j) - p(e_j, e_i))
    # and the ternary minus the iterated product.
    swapped = {(j, i, l): x for (i, j, l), x in product.items()}
    binary = _summed([(2 * scale, (1, product)), (-2 * scale, (1, swapped))])[1]
    ternary = {k: -x for k, x in iterated.items()}
    return LYAlgebra(dim, labels, (4 * scale * scale, binary, ternary))


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
# The largest N that catalog("abelian(N)") builds.
ABELIAN_MAX = 10_000


@functools.lru_cache(maxsize=None)
def catalog(name: str) -> LYAlgebra:
    """Named desk-scale instances used throughout the test batteries.  An
    abelian(N) with N above :data:`ABELIAN_MAX` is refused with InputError
    before anything is built, its digits counted before they are read."""
    m = _ABELIAN_RE.fullmatch(name)
    if m:
        digits = (m.group(1) or m.group(2)).lstrip("0") or "0"
        if len(digits) > len(str(ABELIAN_MAX)) or int(digits) > ABELIAN_MAX:
            raise InputError(f"abelian(N) takes N at most {ABELIAN_MAX}")
        return abelian(int(digits))
    # The Lie brackets in their bases: sl2's Chevalley basis (e, f, h) with
    # [e,f] = h, [h,e] = 2e and [h,f] = -2f, the Heisenberg (x, y, z) with
    # [x,y] = z, and aff2 (e1, e2) with [e1,e2] = e1.
    if name == "sl2":
        return from_lie(3, (1, {(0, 1, 2): 1, (0, 2, 0): -2, (1, 0, 2): -1, (1, 2, 1): 2,
                                (2, 0, 0): 2, (2, 1, 1): -2}), labels=("e", "f", "h"))
    if name == "h3":
        return from_lie(3, (1, {(0, 1, 2): 1, (1, 0, 2): -1}), labels=("x", "y", "z"))
    if name == "aff2":
        return from_lie(2, (1, {(0, 1, 0): 1, (1, 0, 0): -1}), labels=("e1", "e2"))
    if name == "lts_sl2":
        base = catalog("sl2")
        return LYAlgebra(3, base.labels, (base.form[0], {}, base.form[2]))
    if name == "sl2_plus_ab1":
        return direct_sum(catalog("sl2"), abelian(1))
    if name == "leibniz2":
        # The two-dimensional left Leibniz algebra with x.x = z, all other
        # products zero.
        return from_leibniz(2, (1, {(0, 0, 1): 1}), labels=("x", "z"))
    raise InputError(f"unknown catalog name {name!r}")
