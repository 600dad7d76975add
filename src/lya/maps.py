"""Endomorphisms of an algebra: composition, homomorphism and automorphism
checks, inner derivations, and restriction to invariant subspaces.

A map is a square :class:`~lya.exactlin.Matrix` in the algebra's fixed
basis, column j being the image of basis vector j.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

from . import exactlin, lyalg
from ._record import Record
from .errors import InputError, InternalCheckError, MathError


def _dim(f: exactlin.Matrix) -> int:
    """The dimension of the space a map acts on: the side of its square
    matrix.  Every public function here reads a map's dimension through it."""
    if f.rows != f.cols:
        raise InputError(f"a map needs a square matrix, got {f.rows}x{f.cols}")
    return f.rows


def _map_rows(space: exactlin.Subspace) -> list[tuple[tuple[int, ...], ...]]:
    """The basis maps of a space of flattened n x n maps as integer rows, all
    over the scale of the space's stored basis: each stored basis vector
    read row by row."""
    n = math.isqrt(space.ambient_dim)
    return [tuple(r[i * n:(i + 1) * n] for i in range(n)) for r in space.echelon.form[1]]


def basis_maps(space: exactlin.Subspace) -> tuple[exactlin.Matrix, ...]:
    """The maps whose flattened matrices are the canonical basis vectors of a
    space of n x n maps, such as a solved derivation space or the centroid."""
    scale = space.echelon.form[0]
    return tuple(exactlin.Matrix(len(m), len(m), (scale, m)) for m in _map_rows(space))


def compose(f: exactlin.Matrix, g: exactlin.Matrix) -> exactlin.Matrix:
    """f after g: the composite first applies g."""
    if _dim(f) != _dim(g):
        raise InputError("cannot compose maps of different dimensions")
    return f.mul(g)


def commutator(f: exactlin.Matrix, g: exactlin.Matrix) -> exactlin.Matrix:
    if _dim(f) != _dim(g):
        raise InputError("cannot commutate maps of different dimensions")
    return f.mul(g).sub(g.mul(f))


def _hom_defect(algebra: lyalg.LYAlgebra, f: exactlin.Matrix):
    """First basis tuple where f fails to preserve a product, or None.

    Pairs are scanned before triples, each in lexicographic order; the
    residual is f(T(e_I)) - T(f e_i, f e_j[, f e_k]).
    """
    for kind, arity in (("binary", 2), ("ternary", 3)):
        failure = lyalg._first_failure(algebra, f, [(f,) * arity])
        if failure is not None:
            return (kind, *failure)
    return None


class AutCert(Record):
    """An automorphism together with its exact inverse.

    Only :func:`certify_automorphism` (which also checks the homomorphism
    identities against a specific algebra) should build these.
    """

    map: exactlin.Matrix
    inverse: exactlin.Matrix

    def __post_init__(self):
        ident = exactlin.Matrix.identity(_dim(self.map))
        if self.map.mul(self.inverse) != ident or self.inverse.mul(self.map) != ident:
            raise InputError("certificate inverse does not invert the map")


def certify_automorphism(algebra: lyalg.LYAlgebra, f: exactlin.Matrix) -> AutCert:
    """Certify f as an automorphism, computing its inverse exactly.

    Raises MathError when f is singular or fails to be a homomorphism,
    carrying the offending basis tuple as a witness.
    """
    if _dim(f) != algebra.dim:
        raise InputError("map dimension does not match algebra dimension")
    inv = exactlin.invert(f)
    if inv is None:
        raise MathError("not invertible")
    defect = _hom_defect(algebra, f)
    if defect is not None:
        kind, indices, residual = defect
        raise MathError(
            f"not a homomorphism: {kind} product at basis tuple {indices}",
            witness={"kind": kind, "indices": list(indices),
                     "residual": exactlin.vec_strs(residual)})
    return AutCert(map=f, inverse=inv)


def identity_cert(algebra: lyalg.LYAlgebra) -> AutCert:
    return _identity_cert(algebra.dim)


@functools.lru_cache(maxsize=None)
def _identity_cert(n: int) -> AutCert:
    """The identity certificate of dimension n, its inverse checked once."""
    ident = exactlin.Matrix.identity(n)
    return AutCert(map=ident, inverse=ident)


def satisfies_g_derivation(algebra: lyalg.LYAlgebra, f: exactlin.Matrix,
                           theta: exactlin.Matrix, vartheta: exactlin.Matrix) -> bool:
    """Direct evaluation of the twisted derivation identities on basis tuples.

    f(T(e_I)) is compared with the sum of the tensors T transported by f, θ
    and ϑ slot by slot: f[x,y] = [fx, θy] + [ϑx, fy] and
    f{x,y,z} = {fx, θy, ϑz} + {ϑx, fy, θz} + {θx, ϑy, fz}, exactly, in
    integers on the algebra's stored cleared form.  Used both as the
    defining test and as an independent soundness check for the nullspace
    solvers; it never touches an assembled constraint matrix.
    """
    n = algebra.dim
    if any(_dim(m) != n for m in (f, theta, vartheta)):
        raise InputError("map dimension does not match algebra dimension")
    t, v = theta, vartheta
    return (lyalg._first_failure(algebra, f, [(f, t), (v, f)]) is None
            and lyalg._first_failure(algebra, f, [(f, t, v), (v, f, t), (t, v, f)]) is None)


def satisfies_derivation(algebra: lyalg.LYAlgebra, f: exactlin.Matrix) -> bool:
    ident = exactlin.Matrix.identity(algebra.dim)
    return satisfies_g_derivation(algebra, f, ident, ident)


def inner_derivation(algebra: lyalg.LYAlgebra, g: Sequence[exactlin.Scalar],
                     h: Sequence[exactlin.Scalar]) -> exactlin.Matrix:
    """The map sending x to the ternary product of (g, h, x).

    Such maps are always derivations; that consequence is re-verified here
    and a failure would indicate corrupted structure constants.
    """
    n = algebra.dim
    gv, hv = exactlin.vec(g), exactlin.vec(h)
    if len(gv) != n or len(hv) != n:
        raise InputError("vector length does not match algebra dimension")
    units = [exactlin.vunit(n, k) for k in range(n)]
    columns = lyalg._values(lyalg._tensor_form(algebra, 3), n, [gv, hv], units)
    result = exactlin.Matrix(n, n, (1, tuple(zip(*columns))))
    if not satisfies_derivation(algebra, result):
        raise InternalCheckError("inner map failed the derivation identities")
    return result


def restrict_map(f: exactlin.Matrix, subspace: exactlin.Subspace) -> exactlin.Matrix:
    """Matrix of f on an invariant subspace, in the subspace's canonical basis:
    column k holds the image of basis vector k read at the pivots."""
    if _dim(f) != subspace.ambient_dim:
        raise InputError("map dimension does not match ambient dimension")
    scale = f.form[0] * subspace.echelon.form[0]
    images = exactlin._images(f.form[1], subspace)
    for b, w in zip(subspace.basis, images):
        if not exactlin._member(subspace, w):
            raise MathError("subspace is not invariant under the map",
                            witness={"vector": exactlin.vec_strs(b),
                                     "image": exactlin.vec_strs(exactlin._view(scale, w))})
    rows = tuple(tuple(w[p] for w in images) for p in subspace.pivots)
    return exactlin.Matrix(subspace.dim, subspace.dim, (scale, rows))
