"""Endomorphisms of an algebra: composition, homomorphism and automorphism
checks, inner derivations, and restriction to invariant subspaces.

A :class:`LinMap` stores the matrix of a linear self-map in the algebra's
fixed basis, column j being the image of basis vector j.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

from ._record import Record
from .errors import InputError, InternalCheckError, MathError
from .exactlin import (
    Matrix,
    Scalar,
    Subspace,
    Vec,
    _images,
    _member,
    _view,
    invert,
    vec,
    vec_strs,
    vunit,
)
from .lyalg import LYAlgebra, _first_failure, _tensor_form, _values


class LinMap(Record):
    """Linear self-map in the fixed basis; column j is the image of e_j."""

    dim: int
    matrix: Matrix

    def __post_init__(self):
        if self.matrix.rows != self.dim or self.matrix.cols != self.dim:
            raise InputError(f"matrix is not {self.dim}x{self.dim}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]], dim: int | None = None) -> "LinMap":
        if dim is None:
            dim = len(rows)
        return cls(dim, Matrix.from_rows(rows, cols=dim))

    @classmethod
    def identity(cls, n: int) -> "LinMap":
        return cls(n, Matrix.identity(n))

    @classmethod
    def zero(cls, n: int) -> "LinMap":
        return cls(n, Matrix.zero(n, n))

    @classmethod
    def from_columns(cls, cols: Sequence[Vec]) -> "LinMap":
        n = len(cols)
        return cls(n, Matrix(n, n, (1, tuple(tuple(col[i] for col in cols) for i in range(n)))))

    def apply(self, v: Sequence[Scalar]) -> Vec:
        return self.matrix.mul_vec(v)

    def flatten(self) -> Vec:
        return self.matrix.flatten()

    def add(self, other: "LinMap") -> "LinMap":
        return LinMap(self.dim, self.matrix.add(other.matrix))

    def sub(self, other: "LinMap") -> "LinMap":
        return LinMap(self.dim, self.matrix.sub(other.matrix))

    def scale(self, a: Scalar) -> "LinMap":
        return LinMap(self.dim, self.matrix.scale(a))

    def is_zero(self) -> bool:
        return self.matrix.is_zero()


def _map_rows(space: Subspace) -> list[tuple[tuple[int, ...], ...]]:
    """The basis maps of a space of flattened n x n maps as integer rows, all
    over the scale of the space's stored basis: each stored basis vector
    read row by row."""
    n = math.isqrt(space.ambient_dim)
    return [tuple(r[i * n:(i + 1) * n] for i in range(n)) for r in space.echelon.form[1]]


def _maps_of(space: Subspace) -> tuple[LinMap, ...]:
    """The maps whose flattened matrices are a space's basis vectors."""
    scale = space.echelon.form[0]
    return tuple(LinMap(len(m), Matrix(len(m), len(m), (scale, m))) for m in _map_rows(space))


def compose(f: LinMap, g: LinMap) -> LinMap:
    """f after g: the composite first applies g."""
    if f.dim != g.dim:
        raise InputError("cannot compose maps of different dimensions")
    return LinMap(f.dim, f.matrix.mul(g.matrix))


def commutator(f: LinMap, g: LinMap) -> LinMap:
    if f.dim != g.dim:
        raise InputError("cannot commutate maps of different dimensions")
    return LinMap(f.dim, f.matrix.mul(g.matrix).sub(g.matrix.mul(f.matrix)))


def _hom_defect(algebra: LYAlgebra, f: LinMap):
    """First basis tuple where f fails to preserve a product, or None.

    Pairs are scanned before triples, each in lexicographic order; the
    residual is f(T(e_I)) - T(f e_i, f e_j[, f e_k]).
    """
    m = f.matrix
    for kind, arity in (("binary", 2), ("ternary", 3)):
        failure = _first_failure(algebra, m, [(m,) * arity])
        if failure is not None:
            return (kind, *failure)
    return None


class AutCert(Record):
    """An automorphism together with its exact inverse.

    Only :func:`certify_automorphism` (which also checks the homomorphism
    identities against a specific algebra) should build these.
    """

    map: LinMap
    inverse: LinMap

    def __post_init__(self):
        ident = Matrix.identity(self.map.dim)
        if self.map.matrix.mul(self.inverse.matrix) != ident \
                or self.inverse.matrix.mul(self.map.matrix) != ident:
            raise InputError("certificate inverse does not invert the map")


def certify_automorphism(algebra: LYAlgebra, f: LinMap) -> AutCert:
    """Certify f as an automorphism, computing its inverse exactly.

    Raises MathError when f is singular or fails to be a homomorphism,
    carrying the offending basis tuple as a witness.
    """
    if f.dim != algebra.dim:
        raise InputError("map dimension does not match algebra dimension")
    inv = invert(f.matrix)
    if inv is None:
        raise MathError("not invertible")
    defect = _hom_defect(algebra, f)
    if defect is not None:
        kind, indices, residual = defect
        raise MathError(
            f"not a homomorphism: {kind} product at basis tuple {indices}",
            witness={"kind": kind, "indices": list(indices),
                     "residual": vec_strs(residual)})
    return AutCert(map=f, inverse=LinMap(f.dim, inv))


def identity_cert(algebra: LYAlgebra) -> AutCert:
    return _identity_cert(algebra.dim)


@functools.lru_cache(maxsize=None)
def _identity_cert(n: int) -> AutCert:
    """The identity certificate of dimension n, its inverse checked once."""
    ident = LinMap.identity(n)
    return AutCert(map=ident, inverse=ident)


def satisfies_g_derivation(algebra: LYAlgebra, f: LinMap,
                           theta: LinMap, vartheta: LinMap) -> bool:
    """Direct evaluation of the twisted derivation identities on basis tuples.

    f(T(e_I)) is compared with the sum of the tensors T transported by f, θ
    and ϑ slot by slot: f[x,y] = [fx, θy] + [ϑx, fy] and
    f{x,y,z} = {fx, θy, ϑz} + {ϑx, fy, θz} + {θx, ϑy, fz}, exactly, in
    integers on the algebra's stored cleared form.  Used both as the
    defining test and as an independent soundness check for the nullspace
    solvers; it never touches an assembled constraint matrix.
    """
    n = algebra.dim
    if f.dim != n or theta.dim != n or vartheta.dim != n:
        raise InputError("map dimension does not match algebra dimension")
    m, t, v = f.matrix, theta.matrix, vartheta.matrix
    return (_first_failure(algebra, m, [(m, t), (v, m)]) is None
            and _first_failure(algebra, m, [(m, t, v), (v, m, t), (t, v, m)]) is None)


def satisfies_derivation(algebra: LYAlgebra, f: LinMap) -> bool:
    ident = LinMap.identity(algebra.dim)
    return satisfies_g_derivation(algebra, f, ident, ident)


def inner_derivation(algebra: LYAlgebra, g: Sequence[Scalar], h: Sequence[Scalar]) -> LinMap:
    """The map sending x to the ternary product of (g, h, x).

    Such maps are always derivations; that consequence is re-verified here
    and a failure would indicate corrupted structure constants.
    """
    n = algebra.dim
    gv, hv = vec(g), vec(h)
    if len(gv) != n or len(hv) != n:
        raise InputError("vector length does not match algebra dimension")
    units = [vunit(n, k) for k in range(n)]
    result = LinMap.from_columns(_values(_tensor_form(algebra, 3), n, [gv, hv], units))
    if not satisfies_derivation(algebra, result):
        raise InternalCheckError("inner map failed the derivation identities")
    return result


def restrict_map(f: LinMap, subspace: Subspace) -> LinMap:
    """Matrix of f on an invariant subspace, in the subspace's canonical basis:
    column k holds the image of basis vector k read at the pivots."""
    if f.dim != subspace.ambient_dim:
        raise InputError("map dimension does not match ambient dimension")
    scale = f.matrix.form[0] * subspace.echelon.form[0]
    images = _images(f.matrix.form[1], subspace)
    for b, w in zip(subspace.basis, images):
        if not _member(subspace, w):
            raise MathError("subspace is not invariant under the map",
                            witness={"vector": vec_strs(b), "image": vec_strs(_view(scale, w))})
    rows = tuple(tuple(w[p] for w in images) for p in subspace.pivots)
    return LinMap(subspace.dim, Matrix(subspace.dim, subspace.dim, (scale, rows)))
