"""Structural subspaces and predicates: center, derived algebra, ideals.

Every product is read from the algebra's stored integer form: a condition
on a subspace H transports the form once, with the transpose of H's stored
basis matrix in the slots that H fills, and then tests each nonzero product
vector once.
"""

from __future__ import annotations

import collections

from . import exactlin, lyalg
from .errors import InputError, InternalCheckError, MathError


def _inside(algebra: lyalg.LYAlgebra, h: exactlin.Subspace, maps) -> bool:
    """Whether every product with its slots transported by ``maps`` lies in H.

    Each product is tested as its integer vector over the transported form's
    scale, which :func:`_member` reads as stored.  An H of another ambient
    dimension than the algebra's is refused with InputError.
    """
    if h.ambient_dim != algebra.dim:
        raise InputError("subspace ambient dimension does not match the algebra")
    return all(exactlin._member(h, w)
               for _, w in lyalg._vectors(lyalg._transported(algebra, maps), algebra.dim))


def center(algebra: lyalg.LYAlgebra) -> exactlin.Subspace:
    """Solutions g of: [g, e_j] = 0, {g, e_j, e_k} = 0, {e_j, e_k, g} = 0.

    There is one row per placement of g and coordinate of the product, and
    one column per coordinate of g.  The remaining placement {e_j, g, e_k}
    = 0 is a consequence and is re-verified after solving rather than added
    to the system.
    """
    n = algebra.dim
    rows: dict[tuple[int, ...], list[int]] = collections.defaultdict(lambda: [0] * n)
    for (i, j, l), x in lyalg._tensor_form(algebra, 2)[1].items():
        rows[0, j, l][i] = x
    for (i, j, k, l), x in lyalg._tensor_form(algebra, 3)[1].items():
        rows[1, j, k, l][i] = x
        rows[2, i, j, l][k] = x
    space = exactlin._kernel_space(n, rows.values())
    if lyalg._transported(algebra, (None, space.echelon.transpose(), None))[1]:
        raise InternalCheckError("central element fails the middle-slot identity")
    return space


def derived_algebra(algebra: lyalg.LYAlgebra) -> exactlin.Subspace:
    """Span of all binary and ternary products of basis elements."""
    n = algebra.dim
    return exactlin.Subspace.span(n, [
        v for arity in (2, 3) for _, v in lyalg._vectors(lyalg._tensor_form(algebra, arity), n)])


def is_perfect(algebra: lyalg.LYAlgebra) -> bool:
    return derived_algebra(algebra).dim == algebra.dim


def is_subalgebra(algebra: lyalg.LYAlgebra, h: exactlin.Subspace) -> bool:
    """Closure of the subspace under both products, tested on its basis."""
    basis = h.echelon.transpose()
    return _inside(algebra, h, (basis, basis)) and _inside(algebra, h, (basis, basis, basis))


def is_ideal(algebra: lyalg.LYAlgebra, h: exactlin.Subspace) -> bool:
    """Defining conditions: [H, G] in H and {H, G, G} in H.

    When they hold, the implied containments with H in the other slots are
    also verified; a discrepancy there cannot happen for valid structure
    constants and is reported as an internal failure.
    """
    basis = h.echelon.transpose()
    if not (_inside(algebra, h, (basis, None)) and _inside(algebra, h, (basis, None, None))):
        return False
    for maps, where in (((None, basis), "right-bracket"), ((None, basis, None), "middle-slot"),
                        ((None, None, basis), "last-slot")):
        if not _inside(algebra, h, maps):
            raise InternalCheckError(f"ideal fails the implied {where} containment")
    return True


def is_abelian_ideal(algebra: lyalg.LYAlgebra, h: exactlin.Subspace) -> bool:
    """[H, H] = 0 and {G, H, H} = 0 for an ideal H.

    The consequences {H, G, H} = {H, H, G} = 0 are asserted afterwards.
    """
    if not is_ideal(algebra, h):
        raise MathError("subspace is not an ideal")
    basis = h.echelon.transpose()
    if lyalg._transported(algebra, (basis, basis))[1] \
            or lyalg._transported(algebra, (None, basis, basis))[1]:
        return False
    if lyalg._transported(algebra, (basis, None, basis))[1] \
            or lyalg._transported(algebra, (basis, basis, None))[1]:
        raise InternalCheckError("abelian ideal fails an implied vanishing")
    return True
