"""Structural subspaces and predicates: center, derived algebra, ideals."""

from __future__ import annotations

import itertools

from .errors import InputError, InternalCheckError, MathError
from .exactlin import Matrix, Subspace, nullspace, vis_zero, vunit
from .lyalg import LYAlgebra, binary_eval, ternary_eval


def center(algebra: LYAlgebra) -> Subspace:
    """Solutions g of: [g, e_j] = 0, {g, e_j, e_k} = 0, {e_j, e_k, g} = 0.

    The remaining placement {e_j, g, e_k} = 0 is a consequence and is
    re-verified after solving rather than added to the system.
    """
    n = algebra.dim
    c, d = algebra.c, algebra.d
    rows = []
    for j in range(n):
        for l in range(n):
            rows.append(tuple(c[i][j][l] for i in range(n)))
    for j, k in itertools.product(range(n), repeat=2):
        for l in range(n):
            rows.append(tuple(d[i][j][k][l] for i in range(n)))
            rows.append(tuple(d[j][k][i][l] for i in range(n)))
    space = nullspace(Matrix(len(rows), n, tuple(rows)))
    for g in space.basis:
        for j, k in itertools.product(range(n), repeat=2):
            if not vis_zero(ternary_eval(d, vunit(n, j), g, vunit(n, k))):
                raise InternalCheckError("central element fails the middle-slot identity")
    return space


def derived_algebra(algebra: LYAlgebra) -> Subspace:
    """Span of all binary and ternary products of basis elements."""
    n = algebra.dim
    vectors = []
    for i in range(n):
        for j in range(i + 1, n):
            vectors.append(algebra.c[i][j])
    for i, j, k in itertools.product(range(n), repeat=3):
        vectors.append(algebra.d[i][j][k])
    return Subspace.span(n, vectors)


def is_perfect(algebra: LYAlgebra) -> bool:
    return derived_algebra(algebra).dim == algebra.dim


def is_subalgebra(algebra: LYAlgebra, h: Subspace) -> bool:
    """Closure of the subspace under both products, tested on its basis."""
    if h.ambient_dim != algebra.dim:
        raise InputError("subspace ambient dimension does not match the algebra")
    for a in h.basis:
        for b in h.basis:
            if not h.contains_vector(binary_eval(algebra.c, a, b)):
                return False
            for c in h.basis:
                if not h.contains_vector(ternary_eval(algebra.d, a, b, c)):
                    return False
    return True


def is_ideal(algebra: LYAlgebra, h: Subspace) -> bool:
    """Defining conditions: [H, G] in H and {H, G, G} in H.

    When they hold, the implied containments with H in the other slots are
    also verified; a discrepancy there cannot happen for valid structure
    constants and is reported as an internal failure.
    """
    if h.ambient_dim != algebra.dim:
        raise InputError("subspace ambient dimension does not match the algebra")
    n = algebra.dim
    units = [vunit(n, j) for j in range(n)]
    for b in h.basis:
        for j in range(n):
            if not h.contains_vector(binary_eval(algebra.c, b, units[j])):
                return False
            for k in range(n):
                if not h.contains_vector(ternary_eval(algebra.d, b, units[j], units[k])):
                    return False
    for b in h.basis:
        for j in range(n):
            if not h.contains_vector(binary_eval(algebra.c, units[j], b)):
                raise InternalCheckError("ideal fails the implied right-bracket containment")
            for k in range(n):
                if not h.contains_vector(ternary_eval(algebra.d, units[j], b, units[k])):
                    raise InternalCheckError("ideal fails the implied middle-slot containment")
                if not h.contains_vector(ternary_eval(algebra.d, units[j], units[k], b)):
                    raise InternalCheckError("ideal fails the implied last-slot containment")
    return True


def is_abelian_ideal(algebra: LYAlgebra, h: Subspace) -> bool:
    """[H, H] = 0 and {G, H, H} = 0 for an ideal H.

    The consequences {H, G, H} = {H, H, G} = 0 are asserted afterwards.
    """
    if not is_ideal(algebra, h):
        raise MathError("subspace is not an ideal")
    n = algebra.dim
    units = [vunit(n, j) for j in range(n)]
    for a in h.basis:
        for b in h.basis:
            if not vis_zero(binary_eval(algebra.c, a, b)):
                return False
            for j in range(n):
                if not vis_zero(ternary_eval(algebra.d, units[j], a, b)):
                    return False
    for a in h.basis:
        for b in h.basis:
            for j in range(n):
                if not vis_zero(ternary_eval(algebra.d, a, units[j], b)):
                    raise InternalCheckError("abelian ideal fails an implied vanishing")
                if not vis_zero(ternary_eval(algebra.d, a, b, units[j])):
                    raise InternalCheckError("abelian ideal fails an implied vanishing")
    return True
