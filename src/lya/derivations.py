"""Derivation-type solvers.

Each space of maps is computed as the exact nullspace of a linear system
over the n*n entries of the unknown matrix.  Unknown entry (p, q) sits at
flat index p*n + q, matching :meth:`LinMap.flatten`.

Plain derivations, twisted derivations and the centroid are each the
kernel of one identity that is linear in the unknown map: f of a product
equals a sum of products with f in one slot and fixed maps in the others.
``_identity_rows`` turns any such identity into integer constraint rows on
basis tuples, from the algebra's stored integer form transported by the
fixed maps.  The stabilizer is solved in the unknowns it actually has, the
coefficients over the solved twisted space.  The quasi-derivation
companions and the hat map are known only by their values on products: each
companion is one :func:`~lya.exactlin._map_through` of the product vectors
onto their prescribed images, and the hat map one
:func:`~lya.exactlin._rref` of the rows (product | prescribed image).
Every solver hands its integer rows straight to the elimination, and
re-checks its answer by direct evaluation, without the constraint matrix.

Inside a verification run (:func:`lya.theorems.verify_all`) each twisted
space is solved and re-checked once and then reused; every other call
solves afresh.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import itertools
import math
from fractions import Fraction
from typing import Iterator, Sequence

from . import structure
from ._record import Record
from .errors import InputError, InternalCheckError, MathError
from .exactlin import (
    Matrix,
    Subspace,
    Vec,
    _images,
    _kernel,
    _kernel_space,
    _map_through,
    _member,
    _residue,
    _rref,
    _times,
    _view,
    coordinates,
    vec_strs,
)
from .lyalg import Keyed, LYAlgebra, _first_failure, _summed, _tensor_form, _transport, _values
from .maps import (
    AutCert,
    LinMap,
    _map_rows,
    _maps_of,
    identity_cert,
    satisfies_g_derivation,
)

class DerSpace(Record):
    """Space of maps, flattened row-major into an n*n ambient space.

    ``theta``/``vartheta`` record the twist the basis elements satisfy;
    both None means the untwisted derivation identities.
    """

    space: Subspace
    theta: AutCert | None
    vartheta: AutCert | None

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def alg_dim(self) -> int:
        return math.isqrt(self.space.ambient_dim)

    def maps(self) -> tuple[LinMap, ...]:
        return _maps_of(self.space)

    def contains(self, f: LinMap) -> bool:
        return _member(self.space, sum(f.matrix.form[1], ()))


def _identity_rows(algebra: LYAlgebra, arity: int, terms: Sequence[tuple],
                   alternating: bool = False) -> list[tuple[int, ...]]:
    """Rows of the identity f(T(e_I)) - sum over terms of T(..., f e_{I_s}, ...) = 0.

    T is the binary (arity 2) or ternary (arity 3) product, read from the
    stored integer form.  Each term lists, slot by slot, the matrix of a
    fixed map, with None in the one slot s that the unknown f fills, which
    is where :func:`~lya.lyalg._transport` leaves T as it is.  There is one
    row per ordered basis tuple I and coordinate l, in that order, with the
    zero rows left out; entry (p, q) of f sits at column p*n + q.  The rows
    are integers, all scaled by one common factor.  An ``alternating``
    identity changes sign when the first two basis vectors of I swap, so
    only the tuples with i < j are kept: the others give zero rows or the
    negatives of kept ones.
    """
    n = algebra.dim
    keyed = _tensor_form(algebra, arity)
    forms = [(None, keyed)] + [(term.index(None), _transport(keyed, term)) for term in terms]
    scale = math.lcm(*(s for _, (s, _) in forms))
    rows: dict[tuple[int, ...], list[int]] = collections.defaultdict(lambda: [0] * (n * n))
    for slot, (s, entries) in forms:
        factor = scale // s
        for key, x in entries.items():
            x *= factor
            if slot is None:
                # Coordinate a of T(e_I) meets row l of f at column l*n + a.
                idx, a = key[:-1], key[-1]
                if idx[0] < idx[1] or not alternating:
                    for l in range(n):
                        rows[idx + (l,)][l * n + a] += x
            else:
                # T(..., f e_b, ...) is the sum over a of f[a][b] T(..., e_a, ...),
                # so the value at a in slot s meets every b there at column a*n + b.
                head, a, tail = key[:slot], key[slot], key[slot + 1:]
                for b in range(n):
                    idx = head + (b,) + tail
                    if idx[0] < idx[1] or not alternating:
                        rows[idx][a * n + b] -= x
    return [tuple(rows[k]) for k in sorted(rows) if any(rows[k])]


# Twisted spaces solved in the open verification run, keyed by
# (algebra, theta, vartheta); None when no run is open.
_SOLVED: contextvars.ContextVar[dict | None] = contextvars.ContextVar("_SOLVED", default=None)


@contextlib.contextmanager
def _solve_cache():
    """Reuse every twisted space solved inside the block; a nested block
    shares the outer one's spaces."""
    if _SOLVED.get() is not None:
        yield
        return
    token = _SOLVED.set({})
    try:
        yield
    finally:
        _SOLVED.reset(token)


def _twisted_space(algebra: LYAlgebra, theta: LinMap, vartheta: LinMap,
                   unsound: str) -> Subspace:
    """:func:`_solve_twisted_space`, served from the open run's spaces when
    this one is among them.  Only spaces whose re-checks passed are kept."""
    solved = _SOLVED.get()
    if solved is None:
        return _solve_twisted_space(algebra, theta, vartheta, unsound)
    key = (algebra, theta, vartheta)
    if key not in solved:
        solved[key] = _solve_twisted_space(algebra, theta, vartheta, unsound)
    return solved[key]


def _solve_twisted_space(algebra: LYAlgebra, theta: LinMap, vartheta: LinMap,
                         unsound: str) -> Subspace:
    """Nullspace of the twisted identities, each basis element re-checked.

    Both products are alternating in their first two slots, so the twisted
    identities are too when θ = ϑ, plain derivations included, and only the
    basis tuples with i < j carry rows then.  Otherwise every ordered basis
    pair and triple carries its own rows.
    """
    n = algebra.dim
    t, v = theta.matrix, vartheta.matrix
    alternating = t == v
    rows = _identity_rows(algebra, 2, [(None, t), (v, None)], alternating)
    rows += _identity_rows(algebra, 3, [(None, t, v), (v, None, t), (t, v, None)], alternating)
    space = _kernel_space(n * n, rows)
    for f in _maps_of(space):
        if not satisfies_g_derivation(algebra, f, theta, vartheta):
            raise InternalCheckError(unsound)
    return space


def derivation_space(algebra: LYAlgebra) -> DerSpace:
    """All maps satisfying the derivation identities for both products."""
    ident = LinMap.identity(algebra.dim)
    space = _twisted_space(algebra, ident, ident,
                           "derivation solver produced an unsound basis element")
    return DerSpace(space=space, theta=None, vartheta=None)


def g_derivation_space(algebra: LYAlgebra, theta: AutCert, vartheta: AutCert) -> DerSpace:
    """Maps satisfying the identities twisted by the certified pair."""
    n = algebra.dim
    if theta.map.dim != n or vartheta.map.dim != n:
        raise InputError("automorphism dimension does not match the algebra")
    space = _twisted_space(algebra, theta.map, vartheta.map,
                           "twisted solver produced an unsound basis element")
    return DerSpace(space=space, theta=theta, vartheta=vartheta)


def single_twist_space(algebra: LYAlgebra, theta: AutCert) -> DerSpace:
    """Twist only the first automorphism slot; the second stays the identity."""
    return g_derivation_space(algebra, theta, identity_cert(algebra))


def centroid(algebra: LYAlgebra) -> Subspace:
    """Maps commuting with left multiplication in both products.

    Members automatically satisfy the same identity in every other slot;
    that consequence is re-verified on the computed basis.
    """
    n = algebra.dim
    ident = Matrix.identity(n)
    rows = _identity_rows(algebra, 2, [(None, ident)])
    rows += _identity_rows(algebra, 3, [(None, ident, ident)])
    space = _kernel_space(n * n, rows)
    for f in _maps_of(space):
        m = f.matrix
        if _first_failure(algebra, m, [(None, m)]) is not None:
            raise InternalCheckError("centroid member fails the right-slot identity")
        # The first failing basis triple decides which message is raised.
        middle = _first_failure(algebra, m, [(None, m, None)])
        last = _first_failure(algebra, m, [(None, None, m)])
        if middle is not None and (last is None or middle[0] <= last[0]):
            raise InternalCheckError("centroid member fails the middle-slot identity")
        if last is not None:
            raise InternalCheckError("centroid member fails the last-slot identity")
    return space


def _paired_rows(blocks: Sequence[tuple[Keyed, Keyed, Sequence[tuple[int, ...]]]],
                 n: int) -> tuple[int, list[tuple[int, ...]]]:
    """The rows (u | w) of two keyed forms' vectors u and w at each of the
    basis tuples, for each (left form, right form, tuples) block, in that
    order: a common scale S and the integer rows (u·P | w·L), where P and L
    are S over the two forms' scales."""
    scale = math.lcm(*(form[0] for left, right, _ in blocks for form in (left, right)))
    rows = []
    for (s, u), (t, w), tuples in blocks:
        p, l = scale // s, scale // t
        rows += [tuple(p * u.get(idx + (k,), 0) for k in range(n))
                 + tuple(l * w.get(idx + (k,), 0) for k in range(n)) for idx in tuples]
    return scale, rows


class QuasiWitness(Record):
    """Companion pair certifying quasi-derivation membership."""

    dprime: LinMap
    dprimeprime: LinMap


def is_quasi_derivation(algebra: LYAlgebra, d_map: LinMap) -> QuasiWitness | None:
    """Feasibility of the companion systems for the given map.

    A companion is prescribed only on products: D' sends each binary
    product of basis vectors, and D'' each ternary one, to the
    derivation-style sum for the queried map with D in each slot in turn.
    Both the products and their images are read from the stored integer
    form, and each companion is one :func:`~lya.exactlin._map_through` of
    their :func:`_paired_rows`.
    Its free columns are zero, so the returned witness is canonical.  A
    witness is returned only after :func:`quasi_witness_satisfies` has
    re-checked it.
    """
    n = algebra.dim
    if d_map.dim != n:
        raise InputError("map dimension does not match the algebra")
    m = d_map.matrix
    companions = []
    for arity in (2, 3):
        keyed = _tensor_form(algebra, arity)
        summed = _summed([(1, _transport(keyed, [m if s == t else None for s in range(arity)]))
                          for t in range(arity)])
        # Both products and both images are alternating in the first two
        # slots, so the tuples with i < j span all the rows.
        tuples = [idx for idx in itertools.product(range(n), repeat=arity) if idx[0] < idx[1]]
        solution = _map_through(_paired_rows([(keyed, summed, tuples)], n)[1], n, n)
        if solution is None:
            return None
        companions.append(LinMap(n, solution))
    witness = QuasiWitness(dprime=companions[0], dprimeprime=companions[1])
    if not quasi_witness_satisfies(algebra, d_map, witness):
        raise InternalCheckError("companion witness failed re-verification")
    return witness


def quasi_witness_satisfies(algebra: LYAlgebra, d_map: LinMap, witness: QuasiWitness) -> bool:
    """Re-check the companion identities by direct evaluation:
    D'[x,y] = [Dx, y] + [x, Dy] and D''{x,y,z} = {Dx,y,z} + {x,Dy,z} + {x,y,Dz}."""
    m = d_map.matrix
    return (_first_failure(algebra, witness.dprime.matrix, [(m, None), (None, m)]) is None
            and _first_failure(algebra, witness.dprimeprime.matrix,
                               [(m, None, None), (None, m, None), (None, None, m)]) is None)


def require_stabilized_subalgebra(algebra: LYAlgebra, theta: AutCert, h: Subspace) -> None:
    """Raise MathError unless H is a subalgebra that the automorphism maps into
    itself, and InputError when H has the wrong ambient dimension."""
    if not structure.is_subalgebra(algebra, h):
        raise MathError("subspace is not a subalgebra")
    for b, w in zip(h.basis, _images(theta.map.matrix.form[1], h)):
        if not _member(h, w):
            raise MathError("automorphism does not stabilize the subspace",
                            witness={"vector": vec_strs(b)})


def stabilizer_derivations(algebra: LYAlgebra, theta: AutCert, h: Subspace) -> DerSpace:
    """Twisted derivations whose action keeps the subspace inside itself."""
    require_stabilized_subalgebra(algebra, theta, h)
    return _stabilizer_space(algebra, single_twist_space(algebra, theta), h)


def _stabilizer_space(algebra: LYAlgebra, twisted: DerSpace, h: Subspace) -> DerSpace:
    """:func:`stabilizer_derivations` inside the solved single-twist space,
    for a subspace that has already passed :func:`require_stabilized_subalgebra`.

    D = sum of x_t D_t over the twisted basis keeps H inside itself iff the
    residue of every D(b) against H vanishes, which is linear in x.  The
    basis maps are read as integer rows over the space's one scale, so the
    residues of their images are integers over one scale too.
    """
    n = algebra.dim
    residues = [[_residue(h, w) for w in _images(f, h)] for f in _map_rows(twisted.space)]
    rows = tuple(tuple(r[b][l] for r in residues) for b in range(h.dim) for l in range(n))
    coeffs = _kernel_space(twisted.dim, rows)
    # Both factors are reduced echelon bases, so their product is one too.
    space = Subspace._from_rref(coeffs.echelon.mul(twisted.space.echelon))
    result = DerSpace(space=space, theta=twisted.theta, vartheta=twisted.vartheta)
    for f in result.maps():
        if not satisfies_g_derivation(algebra, f, twisted.theta.map, twisted.vartheta.map):
            raise InternalCheckError("stabilizer solver produced an unsound basis element")
        # Tested by membership, not by the residues the solve read, so a
        # fault in one cannot hide itself.
        if not all(_member(h, w) for w in _images(f.matrix.form[1], h)):
            raise InternalCheckError("stabilizer solver produced a non-stabilizing map")
    return result


class PartialMap(Record):
    """Linear map defined on a subspace; columns are ambient images of the
    subspace's canonical basis vectors."""

    domain: Subspace
    matrix_on_domain: Matrix

    def apply(self, v: Sequence) -> Vec:
        coords = coordinates(self.domain, v)
        if coords is None:
            raise MathError("vector lies outside the map's domain")
        return self.matrix_on_domain.mul_vec(coords)

    def _on_basis(self, s: Subspace) -> Iterator[Vec]:
        """:meth:`apply` on each of s's basis vectors in turn, read from the
        stored integers: a member of the domain has its entries at the
        domain's pivots as its coordinates, over s's scale."""
        (a, rows), (b, m) = s.echelon.form, self.matrix_on_domain.form
        pivots = self.domain.pivots
        for r in rows:
            if not _member(self.domain, r):
                raise MathError("vector lies outside the map's domain")
            yield _view(a * b, _times(m, [r[p] for p in pivots]))


class DhatClash(Record):
    """A vanishing combination of products whose prescribed images differ.

    ``terms`` pairs each generator tag ("binary", i, j) or ("ternary",
    i, j, k) with its coefficient; the combination of generators is zero
    while the same combination of right-hand sides is ``mismatch``.
    """

    terms: tuple[tuple[tuple, Fraction], ...]
    mismatch: Vec


class DhatResult(Record):
    map: PartialMap | None
    clash: DhatClash | None

    @property
    def consistent(self) -> bool:
        return self.map is not None


def _prescriptions(algebra: LYAlgebra, d_map: LinMap, theta: LinMap) -> tuple[Keyed, Keyed]:
    """The hat map's prescribed images as multilinear forms, transported on
    the stored integer form: at (i, j) the image 2D[e_i, e_j] + [De_j, θe_i]
    + [θe_j, De_i] of the binary product, and at (i, j, k) the image
    3D{e_i, e_j, e_k} + {De_i, θe_j, e_k} + {e_i, De_j, θe_k} + {θe_i, e_j, De_k}
    of the ternary one."""
    m, t = d_map.matrix, theta.matrix
    binary, ternary = _tensor_form(algebra, 2), _tensor_form(algebra, 3)
    # [De_j, θe_i] + [θe_j, De_i] is the (D, θ) plus the (θ, D) transport
    # read at the swapped key (j, i).
    scale, mixed = _summed([(1, _transport(binary, (m, t))), (1, _transport(binary, (t, m)))])
    swapped = (scale, {(j, i, l): x for (i, j, l), x in mixed.items()})
    return (_summed([(2, _transport(binary, (None, None), m)), (1, swapped)]),
            _summed([(3, _transport(ternary, (None, None, None), m)),
                     (1, _transport(ternary, (m, t, None))),
                     (1, _transport(ternary, (None, m, t))),
                     (1, _transport(ternary, (t, None, m)))]))


def dhat_binary_rhs(algebra: LYAlgebra, d_map: LinMap, theta: LinMap,
                    g: Vec, h: Vec) -> Vec:
    """Prescribed image of the binary product of (g, h)."""
    return _values(_prescriptions(algebra, d_map, theta)[0], algebra.dim, [g], [h])[0]


def dhat_ternary_rhs(algebra: LYAlgebra, d_map: LinMap, theta: LinMap,
                     g: Vec, h: Vec, i: Vec) -> Vec:
    """Prescribed image of the ternary product of (g, h, i)."""
    return _values(_prescriptions(algebra, d_map, theta)[1], algebra.dim, [g, h], [i])[0]


def dhat(algebra: LYAlgebra, d_map: LinMap, theta: AutCert) -> DhatResult:
    """Induced map on the derived algebra, when the prescriptions agree.

    The defining formulas only prescribe images of products, so the unknown
    map lives on the span of all products.  One :func:`~lya.exactlin._rref`
    of the integer rows (product | prescribed image), one per product
    generator, over one scale (:func:`_paired_rows`), decides it.
    A pivot in the image part means some vanishing combination of products
    has a nonzero prescribed image; the canonical kernel of the generators
    is then walked up to the first such combination, which is returned as
    the clash certificate.  Otherwise the product parts of the rows are the
    derived algebra's canonical basis and the image parts the map's values
    on it.
    """
    if d_map.dim != algebra.dim:
        raise InputError("map dimension does not match the algebra")
    return _dhat(algebra, _prescriptions(algebra, d_map, theta.map))


def _dhat(algebra: LYAlgebra, prescriptions: tuple[Keyed, Keyed]) -> DhatResult:
    """:func:`dhat` from the map's :func:`_prescriptions`, already built."""
    n = algebra.dim
    # Every generator, zeros included: their order fixes the clash terms.
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    triples = list(itertools.product(range(n), repeat=3))
    tags = [("binary", *idx) for idx in pairs] + [("ternary", *idx) for idx in triples]
    binary, ternary = prescriptions
    over, rows = _paired_rows([(_tensor_form(algebra, 2), binary, pairs),
                               (_tensor_form(algebra, 3), ternary, triples)], n)
    scale, r = _rref(2 * n, rows)
    if any(not any(row[:n]) for row in r):
        # The product halves are the generators times one factor, which
        # leaves their kernel as it is; the image halves are over ``over``.
        kscale, kernel = _kernel(len(rows), zip(*(row[:n] for row in rows)))
        for lam in kernel:
            mismatch = [sum(c * rows[k][n + l] for k, c in lam) for l in range(n)]
            if any(mismatch):
                terms = tuple((tags[k], Fraction(c, kscale)) for k, c in lam)
                return DhatResult(map=None, clash=DhatClash(
                    terms=terms, mismatch=_view(kscale * over, mismatch)))
        raise InternalCheckError("prescriptions passed the kernel test but did not solve")
    w = Subspace._from_rref(Matrix(len(r), n, (scale, tuple(row[:n] for row in r))))
    if w != structure.derived_algebra(algebra):
        raise InternalCheckError("product vector escaped the derived algebra")
    matrix = Matrix(n, len(r), (scale, tuple(tuple(row[n + l] for row in r) for l in range(n))))
    return DhatResult(map=PartialMap(domain=w, matrix_on_domain=matrix), clash=None)
