"""Derivation-type solvers.

Each space of maps is computed as the exact nullspace of a linear system
over the n*n entries of the unknown matrix.  Unknown entry (p, q) sits at
flat index p*n + q, matching :meth:`~lya.exactlin.Matrix.flatten`.  Every
solver of a space of maps returns that nullspace, the canonical
:class:`~lya.exactlin.Subspace` of the flattened maps, and
:func:`~lya.maps.basis_maps` reads its basis maps.

Plain derivations, twisted derivations and the centroid are each the
common kernel of two identities, one for each product, that are linear in
the unknown map: f of a product equals a sum of products with f in one slot
and fixed maps in the others.  ``_identity_rows`` turns any such identity
into integer constraint rows on basis tuples, from the algebra's stored
integer form transported by the fixed maps.  Each such space is solved in
two stages: the kernel K of the binary rows alone, over the n*n entries,
and then, by :func:`_within`, the ternary rows applied to K's k basis maps
and solved over their k coefficients.  The stabilizer is solved the same
way inside the solved twisted space.  The quasi-derivation
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

from . import exactlin, lyalg, maps, structure
from ._record import Record
from .errors import InputError, InternalCheckError, MathError


def _identity_rows(algebra: lyalg.LYAlgebra, arity: int, terms: Sequence[tuple],
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
    keyed = lyalg._tensor_form(algebra, arity)
    forms = [(None, keyed)] + [(term.index(None), lyalg._transport(keyed, term)) for term in terms]
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


def _within(space: exactlin.Subspace, rows: Sequence[Sequence[int]]) -> exactlin.Subspace:
    """The members of ``space`` on which the integer rows, over any one
    scale, vanish: the rows applied to the space's stored basis vectors K_t,
    solved over their coefficients x, and x times K.

    The product of the rows and K reads each row's nonzeros and, for each,
    the nonzeros of that column of K, so when the space is all of Q^N the
    coefficient rows are the rows themselves.  Both the coefficient kernel
    and K are reduced echelon bases, so the product of their stored
    integers is one too.
    """
    (s, basis), k = space.echelon.form, space.dim
    columns = [[(t, b[c]) for t, b in enumerate(basis) if b[c]] for c in range(space.ambient_dim)]
    coefficients = [[0] * k for _ in rows]
    for acc, row in zip(coefficients, rows):
        for c, x in itertools.compress(enumerate(row), row):
            for t, y in columns[c]:
                acc[t] += x * y
    a, x = exactlin._kernel_space(k, coefficients).echelon.form
    return exactlin.Subspace._from_rref(exactlin.Matrix(
        len(x), space.ambient_dim, (a * s, exactlin._integer_product(x, basis, space.ambient_dim))))


# Twisted spaces solved in the open verification run, keyed by
# (algebra, theta, vartheta); None when no run is open.
_SOLVED: contextvars.ContextVar[dict | None] = contextvars.ContextVar("_SOLVED", default=None)


@contextlib.contextmanager
def _solve_cache():
    """Reuse every twisted space solved inside the block, and keep none
    after it: one :func:`lya.theorems.verify_all` run."""
    token = _SOLVED.set({})
    try:
        yield
    finally:
        _SOLVED.reset(token)


def _twisted_space(algebra: lyalg.LYAlgebra, theta: exactlin.Matrix,
                   vartheta: exactlin.Matrix) -> exactlin.Subspace:
    """:func:`_solve_twisted_space`, served from the open run's spaces when
    this one is among them.  Only spaces whose re-checks passed are kept."""
    solved = _SOLVED.get()
    if solved is None:
        return _solve_twisted_space(algebra, theta, vartheta)
    key = (algebra, theta, vartheta)
    if key not in solved:
        solved[key] = _solve_twisted_space(algebra, theta, vartheta)
    return solved[key]


def _solve_twisted_space(algebra: lyalg.LYAlgebra, theta: exactlin.Matrix,
                         vartheta: exactlin.Matrix) -> exactlin.Subspace:
    """Nullspace of the twisted identities, each basis element re-checked.

    Both products are alternating in their first two slots, so the twisted
    identities are too when θ = ϑ, plain derivations included, and only the
    basis tuples with i < j carry rows then.  Otherwise every ordered basis
    pair and triple carries its own rows.  A basis element that fails its
    re-check is reported as the derivation solver's when θ = ϑ = id and as
    the twisted solver's otherwise.
    """
    n = algebra.dim
    t, v = theta, vartheta
    alternating = t == v
    binary = _identity_rows(algebra, 2, [(None, t), (v, None)], alternating)
    ternary = _identity_rows(algebra, 3, [(None, t, v), (v, None, t), (t, v, None)], alternating)
    space = _within(exactlin._kernel_space(n * n, binary), ternary)
    for f in maps.basis_maps(space):
        if not maps.satisfies_g_derivation(algebra, f, theta, vartheta):
            solver = "derivation" if t == v == exactlin.Matrix.identity(n) else "twisted"
            raise InternalCheckError(f"{solver} solver produced an unsound basis element")
    return space


def derivation_space(algebra: lyalg.LYAlgebra) -> exactlin.Subspace:
    """All maps satisfying the derivation identities for both products."""
    ident = exactlin.Matrix.identity(algebra.dim)
    return _twisted_space(algebra, ident, ident)


def _twist(algebra: lyalg.LYAlgebra, theta: maps.AutCert) -> exactlin.Matrix:
    """θ's matrix, refused when θ acts on a space of another dimension."""
    if maps._dim(theta.map) != algebra.dim:
        raise InputError("automorphism dimension does not match the algebra")
    return theta.map


def g_derivation_space(algebra: lyalg.LYAlgebra, theta: maps.AutCert,
                       vartheta: maps.AutCert) -> exactlin.Subspace:
    """Maps satisfying the identities twisted by the certified pair."""
    return _twisted_space(algebra, _twist(algebra, theta), _twist(algebra, vartheta))


def single_twist_space(algebra: lyalg.LYAlgebra, theta: maps.AutCert) -> exactlin.Subspace:
    """Twist only the first automorphism slot; the second stays the identity."""
    return g_derivation_space(algebra, theta, maps.identity_cert(algebra))


def centroid(algebra: lyalg.LYAlgebra) -> exactlin.Subspace:
    """Maps commuting with left multiplication in both products.

    Members automatically satisfy the same identity in every other slot;
    that consequence is re-verified on the computed basis.
    """
    n = algebra.dim
    ident = exactlin.Matrix.identity(n)
    binary = exactlin._kernel_space(n * n, _identity_rows(algebra, 2, [(None, ident)]))
    space = _within(binary, _identity_rows(algebra, 3, [(None, ident, ident)]))
    for m in maps.basis_maps(space):
        if lyalg._first_failure(algebra, m, [(None, m)]) is not None:
            raise InternalCheckError("centroid member fails the right-slot identity")
        # The first failing basis triple decides which message is raised.
        middle = lyalg._first_failure(algebra, m, [(None, m, None)])
        last = lyalg._first_failure(algebra, m, [(None, None, m)])
        if middle is not None and (last is None or middle[0] <= last[0]):
            raise InternalCheckError("centroid member fails the middle-slot identity")
        if last is not None:
            raise InternalCheckError("centroid member fails the last-slot identity")
    return space


def _paired_rows(blocks: Sequence[tuple[lyalg.Keyed, lyalg.Keyed, Sequence[tuple[int, ...]]]],
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

    dprime: exactlin.Matrix
    dprimeprime: exactlin.Matrix


def is_quasi_derivation(algebra: lyalg.LYAlgebra,
                        d_map: exactlin.Matrix) -> QuasiWitness | None:
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
    if (d_map.rows, d_map.cols) != (n, n):
        raise InputError("map dimension does not match the algebra")
    companions = []
    for arity in (2, 3):
        keyed = lyalg._tensor_form(algebra, arity)
        summed = lyalg._summed(
            [(1, lyalg._transport(keyed, [d_map if s == t else None for s in range(arity)]))
             for t in range(arity)])
        # Both products and both images are alternating in the first two
        # slots, so the tuples with i < j span all the rows.
        tuples = [idx for idx in itertools.product(range(n), repeat=arity) if idx[0] < idx[1]]
        solution = exactlin._map_through(_paired_rows([(keyed, summed, tuples)], n)[1], n, n)
        if solution is None:
            return None
        companions.append(solution)
    witness = QuasiWitness(dprime=companions[0], dprimeprime=companions[1])
    if not quasi_witness_satisfies(algebra, d_map, witness):
        raise InternalCheckError("companion witness failed re-verification")
    return witness


def quasi_witness_satisfies(algebra: lyalg.LYAlgebra, d_map: exactlin.Matrix,
                            witness: QuasiWitness) -> bool:
    """Re-check the companion identities by direct evaluation:
    D'[x,y] = [Dx, y] + [x, Dy] and D''{x,y,z} = {Dx,y,z} + {x,Dy,z} + {x,y,Dz}."""
    m = d_map
    return (lyalg._first_failure(algebra, witness.dprime, [(m, None), (None, m)]) is None
            and lyalg._first_failure(algebra, witness.dprimeprime,
                                     [(m, None, None), (None, m, None), (None, None, m)]) is None)


def require_stabilized_subalgebra(algebra: lyalg.LYAlgebra, theta: maps.AutCert,
                                  h: exactlin.Subspace) -> None:
    """Raise MathError unless H is a subalgebra that the automorphism maps into
    itself, and InputError when θ or H has the wrong dimension."""
    t = _twist(algebra, theta)
    if not structure.is_subalgebra(algebra, h):
        raise MathError("subspace is not a subalgebra")
    for b, w in zip(h.basis, exactlin._images(t.form[1], h)):
        if not exactlin._member(h, w):
            raise MathError("automorphism does not stabilize the subspace",
                            witness={"vector": exactlin.vec_strs(b)})


def stabilizer_derivations(algebra: lyalg.LYAlgebra, theta: maps.AutCert,
                           h: exactlin.Subspace) -> exactlin.Subspace:
    """Twisted derivations whose action keeps the subspace inside itself."""
    require_stabilized_subalgebra(algebra, theta, h)
    return _stabilizer_space(algebra, theta.map, single_twist_space(algebra, theta), h)


def _stabilizer_space(algebra: lyalg.LYAlgebra, theta: exactlin.Matrix,
                      twisted: exactlin.Subspace, h: exactlin.Subspace) -> exactlin.Subspace:
    """:func:`stabilizer_derivations` inside the solved single-twist space of
    θ's matrix, for a subspace that has already passed
    :func:`require_stabilized_subalgebra`.

    D keeps H inside itself iff the residue of every D(b) against H
    vanishes, for each of H's stored basis vectors b.  The residue is linear
    in D's entries, and :func:`_within` solves those rows over the
    coefficients of the twisted basis.
    """
    n = algebra.dim
    # E sends a vector to its residue against H, and column m of E is the
    # residue of e_m.  Coordinate l of the residue of D(b) is the sum over
    # (m, q) of E[l][m] D[m][q] b[q], so row (b, l) holds E[l][m] b[q] at
    # column m*n + q, where D's entry (m, q) sits.
    e = [exactlin._residue(h, [int(m == l) for l in range(n)]) for m in range(n)]
    space = _within(twisted, [[e[m][l] * x for m in range(n) for x in b]
                              for b in h.echelon.form[1] for l in range(n)])
    ident = exactlin.Matrix.identity(n)
    for f in maps.basis_maps(space):
        if not maps.satisfies_g_derivation(algebra, f, theta, ident):
            raise InternalCheckError("stabilizer solver produced an unsound basis element")
        # Tested by membership, not by the residues the solve read, so a
        # fault in one cannot hide itself.
        if not all(exactlin._member(h, w) for w in exactlin._images(f.form[1], h)):
            raise InternalCheckError("stabilizer solver produced a non-stabilizing map")
    return space


class PartialMap(Record):
    """Linear map defined on a subspace; columns are ambient images of the
    subspace's canonical basis vectors.  :meth:`apply` and the hat map's
    check in P37 evaluate it by :meth:`_on_basis`, in integers."""

    domain: exactlin.Subspace
    matrix_on_domain: exactlin.Matrix

    def apply(self, v: Sequence) -> exactlin.Vec:
        """The image of v, which must lie in the domain."""
        return next(self._on_basis(exactlin._clear(1, [self.domain._vector(v)])))

    def _on_basis(self, form: exactlin.Cleared) -> Iterator[exactlin.Vec]:
        """The image of each vector of a cleared form, (scale, integer
        rows), in turn: a member of the domain has its entries at the
        domain's pivots as its coordinates, over the form's scale."""
        (a, rows), (b, m) = form, self.matrix_on_domain.form
        pivots = self.domain.pivots
        for r in rows:
            if not exactlin._member(self.domain, r):
                raise MathError("vector lies outside the map's domain")
            yield exactlin._view(a * b, exactlin._times(m, [r[p] for p in pivots]))


class DhatClash(Record):
    """A vanishing combination of products whose prescribed images differ.

    ``terms`` pairs each generator tag ("binary", i, j) or ("ternary",
    i, j, k) with its coefficient; the combination of generators is zero
    while the same combination of right-hand sides is ``mismatch``.
    """

    terms: tuple[tuple[tuple, Fraction], ...]
    mismatch: exactlin.Vec


def _prescriptions(algebra: lyalg.LYAlgebra, d_map: exactlin.Matrix,
                   theta: exactlin.Matrix) -> tuple[lyalg.Keyed, lyalg.Keyed]:
    """The hat map's prescribed images as multilinear forms, transported on
    the stored integer form: at (i, j) the image 2D[e_i, e_j] + [De_j, θe_i]
    + [θe_j, De_i] of the binary product, and at (i, j, k) the image
    3D{e_i, e_j, e_k} + {De_i, θe_j, e_k} + {e_i, De_j, θe_k} + {θe_i, e_j, De_k}
    of the ternary one.  The binary product alternates (LY1), so the binary
    image is 2D[e_i, e_j] - [De_i, θe_j] - [θe_i, De_j]."""
    m, t = d_map, theta
    binary, ternary = lyalg._tensor_form(algebra, 2), lyalg._tensor_form(algebra, 3)
    return (lyalg._summed([(2, lyalg._transport(binary, (None, None), m)),
                           (-1, lyalg._transport(binary, (m, t))),
                           (-1, lyalg._transport(binary, (t, m)))]),
            lyalg._summed([(3, lyalg._transport(ternary, (None, None, None), m)),
                           (1, lyalg._transport(ternary, (m, t, None))),
                           (1, lyalg._transport(ternary, (None, m, t))),
                           (1, lyalg._transport(ternary, (t, None, m)))]))


def dhat(algebra: lyalg.LYAlgebra, d_map: exactlin.Matrix,
         theta: maps.AutCert) -> PartialMap | DhatClash:
    """Induced map on the derived algebra, when the prescriptions agree, or
    else the clash that shows they do not.

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
    if (d_map.rows, d_map.cols) != (algebra.dim, algebra.dim):
        raise InputError("map dimension does not match the algebra")
    return _dhat(algebra, _prescriptions(algebra, d_map, _twist(algebra, theta)))


def _dhat(algebra: lyalg.LYAlgebra,
          prescriptions: tuple[lyalg.Keyed, lyalg.Keyed]) -> PartialMap | DhatClash:
    """:func:`dhat` from the map's :func:`_prescriptions`, already built."""
    n = algebra.dim
    # Every generator, zeros included: their order fixes the clash terms.
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    triples = list(itertools.product(range(n), repeat=3))
    tags = [("binary", *idx) for idx in pairs] + [("ternary", *idx) for idx in triples]
    binary, ternary = prescriptions
    over, rows = _paired_rows([(lyalg._tensor_form(algebra, 2), binary, pairs),
                               (lyalg._tensor_form(algebra, 3), ternary, triples)], n)
    scale, r = exactlin._rref(2 * n, rows)
    if any(not any(row[:n]) for row in r):
        # The product halves are the generators times one factor, which
        # leaves their kernel as it is; the image halves are over ``over``.
        kscale, kernel = exactlin._kernel(len(rows), zip(*(row[:n] for row in rows)))
        for lam in kernel:
            mismatch = [sum(c * rows[k][n + l] for k, c in lam) for l in range(n)]
            if any(mismatch):
                terms = tuple((tags[k], Fraction(c, kscale)) for k, c in lam)
                return DhatClash(terms=terms, mismatch=exactlin._view(kscale * over, mismatch))
        raise InternalCheckError("prescriptions passed the kernel test but did not solve")
    w = exactlin.Subspace._from_rref(
        exactlin.Matrix(len(r), n, (scale, tuple(row[:n] for row in r))))
    if w != structure.derived_algebra(algebra):
        raise InternalCheckError("product vector escaped the derived algebra")
    matrix = exactlin.Matrix(n, len(r),
                             (scale, tuple(tuple(row[n + l] for row in r) for l in range(n))))
    return PartialMap(domain=w, matrix_on_domain=matrix)
