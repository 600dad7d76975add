"""Machine verification of the main structural results on concrete instances.

Each check runs on one supplied algebra with explicitly named automorphisms,
subspaces, and elements.  Statements quantified over the whole algebra are
evaluated on basis tuples (complete by multilinearity); statements
quantified over a space of maps are evaluated on the space's canonical
basis (complete by linearity).  A report never claims a conclusion unless
every hypothesis was verified first.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from ._record import Record
from .errors import InputError, InternalCheckError, MathError
from .exactlin import (
    Subspace,
    Vec,
    _common_scale,
    _integer_basis,
    _integer_product,
    _member,
    coordinates,
    invert,
    nullspace,
    subspace_contains,
    subspace_intersect,
    vadd,
    vec,
    vec_strs,
    vscale,
    vunit,
    vzero,
)
from .lyalg import LYAlgebra, _columns, _form_of, _nonzero_vectors, _transported
from .maps import (
    AutCert,
    LinMap,
    certify_automorphism,
    commutator,
    compose,
    identity_cert,
    inner_derivation,
    restrict_map,
    satisfies_g_derivation,
)
from .derivations import (
    _solve_cache,
    _stabilizer_space,
    centroid,
    derivation_space,
    dhat,
    dhat_ternary_rhs,
    g_derivation_space,
    is_quasi_derivation,
    require_stabilized_subalgebra,
    single_twist_space,
)
from .structure import center, derived_algebra, is_ideal, is_perfect, is_subalgebra

PROP_IDS = ("P31", "T32", "P33", "P34", "P35", "P36", "P37", "P38")


class PropReport(Record):
    """Verdict of one check on one instance.

    ``conclusion_holds`` stays None whenever a hypothesis failed, and a
    False conclusion always carries a re-verifiable witness.
    """

    prop_id: str
    instance: str
    hypotheses_met: bool
    hypotheses: tuple[tuple[str, bool], ...]
    conclusion_holds: bool | None
    witness: dict | None
    details: dict

    def __post_init__(self):
        if self.conclusion_holds is not None and not self.hypotheses_met:
            raise InternalCheckError("conclusion reported despite failed hypotheses")
        if self.conclusion_holds is False and self.witness is None:
            raise InternalCheckError("failed conclusion reported without a witness")


def _fmt_map(f: LinMap) -> list[list[str]]:
    return [vec_strs(row) for row in f.matrix.entries]


def _compose_cert(algebra: LYAlgebra, outer: LinMap, inner: LinMap) -> AutCert:
    return certify_automorphism(algebra, compose(outer, inner))


def verify_p31(algebra: LYAlgebra, theta: AutCert, vartheta: AutCert,
               instance: str = "") -> PropReport:
    """Dimension match between the pair-twisted space and its single-twist
    companion obtained by composing with the inverse of the second twist."""
    paired = g_derivation_space(algebra, theta, vartheta)
    tau = _compose_cert(algebra, vartheta.inverse, theta.map)
    target = single_twist_space(algebra, tau)
    dims_equal = paired.dim == target.dim
    image_vectors = [compose(vartheta.inverse, f).flatten() for f in paired.maps()]
    all_land = all(target.space.contains_vector(v) for v in image_vectors)
    image_dim = Subspace.span(algebra.dim ** 2, image_vectors).dim
    bijective = image_dim == paired.dim == target.dim
    witness = None
    if not (dims_equal and all_land and bijective):
        witness = {"paired_dim": paired.dim, "target_dim": target.dim,
                   "image_dim": image_dim}
    return PropReport(
        prop_id="P31",
        instance=instance,
        hypotheses_met=True,
        hypotheses=(("theta certified", True), ("vartheta certified", True)),
        conclusion_holds=dims_equal and all_land and bijective,
        witness=witness,
        details={"paired_dim": paired.dim, "target_dim": target.dim,
                 "image_dim": image_dim},
    )


def transported_bracket(theta: AutCert, f: LinMap, g: LinMap) -> LinMap:
    """Commutator pulled back through composition with the inverse twist."""
    inv = theta.inverse
    left = compose(f, compose(inv, g))
    right = compose(g, compose(inv, f))
    return left.sub(right)


def _integer_maps(n: int, flats: Sequence[Vec]) -> list[list[list[int]]]:
    """Flattened n x n maps as integer matrices over one common scale."""
    _, rows = _common_scale(flats)
    return [[v[i * n:(i + 1) * n] for i in range(n)] for v in rows]


def _products_minus(n: int, a, b, c, d) -> list[list[int]]:
    """ab - cd for integer n x n matrices."""
    return [[x - y for x, y in zip(r, s)]
            for r, s in zip(_integer_product(a, b, n), _integer_product(c, d, n))]


def verify_t32(algebra: LYAlgebra, theta: AutCert, instance: str = "") -> PropReport:
    """The double-twist space, with the transported bracket, maps onto the
    plain derivation algebra through composition with the inverse twist.

    The bracket algebra runs in integers: with θ⁻¹ and the basis maps f_i
    cleared over one scale s, each f_i is pulled back once, p_i = θ⁻¹f_i,
    so s³[f_i, f_j]_θ is f_i p_j - f_j p_i.  Its pull-back s⁴θ⁻¹[f_i, f_j]_θ
    is compared with [p_i, p_j] and gives s⁵[[f_i, f_j]_θ, f_k]_θ.
    """
    twisted = g_derivation_space(algebra, theta, theta)
    plain = derivation_space(algebra)
    n = algebra.dim
    images = [compose(theta.inverse, f).flatten() for f in twisted.maps()]
    lands = all(plain.space.contains_vector(v) for v in images)
    image_dim = Subspace.span(n * n, images).dim
    bijective = image_dim == twisted.dim == plain.dim
    inv, *maps = _integer_maps(n, (theta.inverse.flatten(),) + twisted.space.basis)
    pulled = [(f, _integer_product(inv, f, n)) for f in maps]
    members = _integer_basis(twisted.space.basis)
    closure_binary = True
    hom_property = True
    brackets = []
    for (f, p), (g, q) in itertools.product(pulled, repeat=2):
        br = _products_minus(n, f, q, g, p)
        back = _integer_product(inv, br, n)
        brackets.append((br, back))
        if not _member(members, sum(br, [])):
            closure_binary = False
        if back != _products_minus(n, p, q, q, p):
            hom_property = False
    closure_ternary = True
    for (br, back), (h, p) in itertools.product(brackets, pulled):
        if not _member(members, sum(_products_minus(n, br, p, h, back), [])):
            closure_ternary = False
    ok = lands and bijective and closure_binary and closure_ternary and hom_property
    witness = None if ok else {
        "lands": lands, "bijective": bijective, "closure_binary": closure_binary,
        "closure_ternary": closure_ternary, "hom_property": hom_property}
    return PropReport(
        prop_id="T32",
        instance=instance,
        hypotheses_met=True,
        hypotheses=(("theta certified", True),),
        conclusion_holds=ok,
        witness=witness,
        details={"twisted_dim": twisted.dim, "plain_dim": plain.dim},
    )


def verify_p33(algebra: LYAlgebra, theta: AutCert, instance: str = "") -> PropReport:
    """Commutators of plain and single-twist derivations land in the space
    tagged by the parity of the twists, for an involution commuting with
    every member of both spaces.

    The commutators run in integers, over one scale for both bases."""
    plain = derivation_space(algebra)
    twisted = single_twist_space(algebra, theta)
    involutive = compose(theta.map, theta.map) == LinMap.identity(algebra.dim)
    commutes = True
    bad_map = None
    maps = plain.maps() + twisted.maps()
    for f in maps:
        if not commutator(theta.map, f).is_zero():
            commutes = False
            bad_map = f
            break
    hypotheses = (("theta is involutive", involutive),
                  ("theta commutes with both spaces", commutes))
    details = {
        "plain_dim": plain.dim,
        "twisted_dim": twisted.dim,
        "intersection_dim": subspace_intersect(plain.space, twisted.space).dim,
    }
    if not (involutive and commutes):
        if bad_map is not None:
            details["non_commuting_map"] = _fmt_map(bad_map)
        return PropReport("P33", instance, False, hypotheses, None, None, details)
    n = algebra.dim
    indexed = list(enumerate(_integer_maps(n, plain.space.basis + twisted.space.basis)))
    parts = (indexed[:plain.dim], indexed[plain.dim:])
    members = [_integer_basis(space.space.basis) for space in (plain, twisted)]
    ok = True
    witness = None
    for k, l in itertools.product((0, 1), repeat=2):
        for (a, f), (b, g) in itertools.product(parts[k], parts[l]):
            if not _member(members[(k + l) % 2], sum(_products_minus(n, f, g, g, f), [])):
                ok = False
                witness = {"k": k, "l": l, "commutator": _fmt_map(commutator(maps[a], maps[b]))}
    return PropReport("P33", instance, True, hypotheses, ok, witness, details)


def verify_p34(algebra: LYAlgebra, d_map: LinMap, theta: AutCert,
               instance: str = "") -> PropReport:
    """When the twist defect of a twisted derivation lands in the center,
    the derived algebra lies in the defect's kernel; perfectness forces the
    defect to vanish outright."""
    if not satisfies_g_derivation(algebra, d_map, theta.map, LinMap.identity(algebra.dim)):
        raise MathError("map is not a twisted derivation for this automorphism")
    defect = commutator(d_map, theta.map)
    z = center(algebra)
    n = algebra.dim
    premise = all(z.contains_vector(defect.apply(vunit(n, j))) for j in range(n))
    hypotheses = (("map is a twisted derivation", True),
                  ("defect image lies in the center", premise),)
    w = derived_algebra(algebra)
    perfect = w.dim == n
    details = {"defect_is_zero": defect.is_zero(), "perfect": perfect}
    if not premise:
        return PropReport("P34", instance, False, hypotheses, None, None, details)
    kernel = nullspace(defect.matrix)
    contained = subspace_contains(kernel, w)
    ok = contained
    witness = None
    if not contained:
        bad = next(b for b in w.basis if not kernel.contains_vector(b))
        witness = {"vector": vec_strs(bad), "image": vec_strs(defect.apply(bad))}
    if perfect:
        if not defect.is_zero():
            ok = False
            witness = witness or {"defect": _fmt_map(defect)}
    return PropReport("P34", instance, True, hypotheses, ok, witness, details)


def verify_p35(algebra: LYAlgebra, theta: AutCert, instance: str = "") -> PropReport:
    """Maps in both the centroid and the twisted derivation space send
    everything into the kernel of every inner derivation; on a centerless
    algebra the two spaces meet only in zero."""
    meet = subspace_intersect(centroid(algebra), single_twist_space(algebra, theta).space)
    n = algebra.dim
    maps = [LinMap.unflatten(n, flat) for flat in meet.basis]
    # f_t e_i sits in column t*n + i of the last slot; the witness is the
    # last failing (map, basis triple).
    cols = _columns(n, [f.matrix.col(i) for f in maps for i in range(n)])
    failing = {key[:-1] for key in _transported(algebra, (None, None, cols))[1]}
    ok = not failing
    witness = None
    if failing:
        g, h, col = max(failing, key=lambda k: (k[2] // n, k[0], k[1], k[2] % n))
        witness = {"map": _fmt_map(maps[col // n]), "indices": [g, h, col % n]}
    centerless = center(algebra).dim == 0
    if centerless and meet.dim != 0:
        ok = False
        witness = witness or {"intersection_dim": meet.dim}
    return PropReport(
        prop_id="P35",
        instance=instance,
        hypotheses_met=True,
        hypotheses=(("theta certified", True),),
        conclusion_holds=ok,
        witness=witness,
        details={"intersection_dim": meet.dim, "centerless": centerless},
    )


def extract_subalgebra(algebra: LYAlgebra, h: Subspace) -> LYAlgebra:
    """Induced algebra on a subalgebra's canonical basis."""
    if not is_subalgebra(algebra, h):
        raise MathError("subspace is not a subalgebra")
    return _extract_subalgebra(algebra, h)


def _extract_subalgebra(algebra: LYAlgebra, h: Subspace) -> LYAlgebra:
    """:func:`extract_subalgebra` for a subspace already known to be a subalgebra."""
    k = h.dim
    labels = []
    for row in h.basis:
        name = None
        for i in range(algebra.dim):
            if row == vunit(algebra.dim, i):
                name = algebra.labels[i]
                break
        labels.append(name if name is not None else f"b{len(labels) + 1}")
    n = algebra.dim
    basis = _columns(n, h.basis)

    def inside(keyed):
        """The coordinates in H's basis of a transported form's products."""
        vectors = {}
        for idx, v in _nonzero_vectors(keyed, n):
            vectors[idx] = coordinates(h, v)
            if vectors[idx] is None:
                raise InternalCheckError("subalgebra closure failed during extraction")
        return vectors

    products = [inside(_transported(algebra, (basis,) * arity)) for arity in (2, 3)]
    return LYAlgebra(k, tuple(labels), _form_of(*products))


def verify_p36(algebra: LYAlgebra, theta: AutCert, h: Subspace,
               instance: str = "") -> PropReport:
    """Stabilizing twisted derivations form a subspace of the twisted space;
    when the subspace is a perfect ideal the two coincide."""
    require_stabilized_subalgebra(algebra, theta, h)
    full = single_twist_space(algebra, theta)
    stab = _stabilizer_space(algebra, full, h)
    contained = subspace_contains(full.space, stab.space)
    ideal = is_ideal(algebra, h)
    perfect = ideal and is_perfect(_extract_subalgebra(algebra, h))
    ok = contained
    witness = None
    if perfect and stab.space != full.space:
        ok = False
        witness = {"stab_dim": stab.dim, "full_dim": full.dim}
    if not contained:
        witness = witness or {"stab_dim": stab.dim, "full_dim": full.dim}
    details = {"stab_dim": stab.dim, "full_dim": full.dim,
               "ideal": ideal, "perfect_ideal": perfect,
               "equal": stab.space == full.space}
    return PropReport(
        prop_id="P36",
        instance=instance,
        hypotheses_met=True,
        hypotheses=(("subalgebra", True), ("theta stabilizes it", True)),
        conclusion_holds=ok,
        witness=witness,
        details=details,
    )


def verify_p37(algebra: LYAlgebra, theta: AutCert, h: Subspace,
               g: Sequence, hh: Sequence, instance: str = "") -> PropReport:
    """When the chosen inner derivation restricts invertibly to the
    subspace, the hat map's prescriptions send it into itself.

    Values on the subspace are obtained through the unique preimage under
    the restricted inner derivation; global consistency of the hat map is
    additionally recorded per basis derivation.
    """
    require_stabilized_subalgebra(algebra, theta, h)
    n = algebra.dim
    gv, hv = vec(g), vec(hh)
    inner = inner_derivation(algebra, gv, hv)
    try:
        restricted = restrict_map(inner, h)
    except MathError as exc:
        hypotheses = (("inner map restricts to the subspace", False),
                      ("restriction invertible", False))
        return PropReport("P37", instance, False, hypotheses, None, None,
                          {"escape": exc.witness})
    inv = invert(restricted.matrix)
    hypotheses = (("inner map restricts to the subspace", True),
                  ("restriction invertible", inv is not None))
    if inv is None:
        return PropReport("P37", instance, False, hypotheses, None, None, {})
    stab = _stabilizer_space(algebra, single_twist_space(algebra, theta), h)
    preimages = []
    for b_idx in range(h.dim):
        coords = tuple(inv.entries[r][b_idx] for r in range(h.dim))
        y = vzero(n)
        for cval, basis_vec in zip(coords, h.basis):
            y = vadd(y, vscale(cval, basis_vec))
        preimages.append(y)
    ok = True
    witness = None
    per_map = []
    for d_map in stab.maps():
        outcome = dhat(algebra, d_map, theta)
        values = [dhat_ternary_rhs(algebra, d_map, theta.map, gv, hv, y)
                  for y in preimages]
        inside = all(h.contains_vector(v) for v in values)
        if not inside:
            ok = False
            bad = next(v for v in values if not h.contains_vector(v))
            witness = {"map": _fmt_map(d_map), "value": vec_strs(bad)}
        if outcome.consistent:
            for b_idx, y in enumerate(preimages):
                x = h.basis[b_idx]
                if outcome.map.apply(x) != values[b_idx]:
                    raise InternalCheckError(
                        "hat-map solution disagrees with the prescription formula")
        # linearity of the prescription across fixed combinations of preimages
        if len(preimages) >= 2:
            for s, t in ((Fraction(2), Fraction(3)), (Fraction(-1), Fraction(5, 2))):
                y = vadd(vscale(s, preimages[0]), vscale(t, preimages[1]))
                combo = dhat_ternary_rhs(algebra, d_map, theta.map, gv, hv, y)
                expect = vadd(vscale(s, values[0]), vscale(t, values[1]))
                if combo != expect:
                    ok = False
                    witness = {"map": _fmt_map(d_map), "linearity": False}
        per_map.append({"globally_consistent": outcome.consistent,
                        "values_inside": inside})
    details = {"stab_dim": stab.dim, "per_map": per_map}
    return PropReport("P37", instance, True, hypotheses, ok, witness, details)


def verify_p38(algebra: LYAlgebra, theta: AutCert, h: Subspace,
               g1: Sequence, g2: Sequence, instance: str = "") -> PropReport:
    """Stabilizing twisted derivations restrict to quasi-derivations of the
    subspace, under the fixed-point and central-image hypotheses."""
    require_stabilized_subalgebra(algebra, theta, h)
    g1v, g2v = vec(g1), vec(g2)
    inner = inner_derivation(algebra, g1v, g2v)
    try:
        restricted = restrict_map(inner, h)
        restricts = True
        invertible = invert(restricted.matrix) is not None
    except MathError:
        restricts = False
        invertible = False
    fixes_g1 = theta.map.apply(g1v) == g1v
    stab = _stabilizer_space(algebra, single_twist_space(algebra, theta), h)
    z = center(algebra)
    survivors = []
    central_images = True
    stab_maps = stab.maps()
    for idx, d_map in enumerate(stab_maps):
        good = z.contains_vector(d_map.apply(g1v)) and z.contains_vector(d_map.apply(g2v))
        central_images = central_images and good
        if good:
            survivors.append(idx)
    hypotheses = (
        ("inner map restricts invertibly", restricts and invertible),
        ("theta fixes the first element", fixes_g1),
        ("images of both elements are central for every stabilizing derivation",
         central_images),
    )
    sub = _extract_subalgebra(algebra, h)
    survivor_results = []
    for idx in survivors:
        restricted_map = restrict_map(stab_maps[idx], h)
        w = is_quasi_derivation(sub, restricted_map)
        survivor_results.append({"basis_index": idx, "quasi": w is not None})
    details = {"stab_dim": stab.dim, "survivors": survivors,
               "survivor_results": survivor_results}
    met = restricts and invertible and fixes_g1 and central_images
    if not met:
        return PropReport("P38", instance, False, hypotheses, None, None, details)
    ok = all(r["quasi"] for r in survivor_results)
    witness = None
    if not ok:
        bad = next(r for r in survivor_results if not r["quasi"])
        witness = {"basis_index": bad["basis_index"]}
    return PropReport("P38", instance, True, hypotheses, ok, witness, details)


class CheckSpec(Record):
    """One configured check: which verifier to run and with what data."""

    prop: str
    label: str = ""
    theta: AutCert | None = None
    vartheta: AutCert | None = None
    subspace: Subspace | None = None
    map: LinMap | None = None
    g: Vec | None = None
    h: Vec | None = None
    g1: Vec | None = None
    g2: Vec | None = None


def _run_check(algebra: LYAlgebra, spec: CheckSpec) -> PropReport:
    theta = spec.theta if spec.theta is not None else identity_cert(algebra)
    if spec.prop == "P31":
        vartheta = spec.vartheta if spec.vartheta is not None else identity_cert(algebra)
        return verify_p31(algebra, theta, vartheta, spec.label)
    if spec.prop == "T32":
        return verify_t32(algebra, theta, spec.label)
    if spec.prop == "P33":
        return verify_p33(algebra, theta, spec.label)
    if spec.prop == "P34":
        if spec.map is None:
            raise InputError("P34 needs a map")
        return verify_p34(algebra, spec.map, theta, spec.label)
    if spec.prop == "P35":
        return verify_p35(algebra, theta, spec.label)
    if spec.prop == "P36":
        if spec.subspace is None:
            raise InputError("P36 needs a subspace")
        return verify_p36(algebra, theta, spec.subspace, spec.label)
    if spec.prop == "P37":
        if spec.subspace is None or spec.g is None or spec.h is None:
            raise InputError("P37 needs a subspace and two elements")
        return verify_p37(algebra, theta, spec.subspace, spec.g, spec.h, spec.label)
    if spec.prop == "P38":
        if spec.subspace is None or spec.g1 is None or spec.g2 is None:
            raise InputError("P38 needs a subspace and two elements")
        return verify_p38(algebra, theta, spec.subspace, spec.g1, spec.g2, spec.label)
    raise InputError(f"unknown check {spec.prop!r}")


def verify_all(algebra: LYAlgebra, checks: Sequence[CheckSpec]) -> list[PropReport]:
    """Run every configured check; mathematical rejections become reports.

    Reports come back ordered by check id, then instance label.  Each
    twisted space the checks need is solved and re-checked once per run.
    """
    reports = []
    with _solve_cache():
        for spec in checks:
            try:
                reports.append(_run_check(algebra, spec))
            except MathError as exc:
                reports.append(PropReport(
                    prop_id=spec.prop,
                    instance=spec.label,
                    hypotheses_met=False,
                    hypotheses=(("preconditions", False),),
                    conclusion_holds=None,
                    witness=None,
                    details={"error": str(exc)},
                ))
    reports.sort(key=lambda r: (r.prop_id, r.instance))
    return reports


def reports_pass(reports: Sequence[PropReport]) -> bool:
    """True when no hypothesis-satisfying instance has a failed conclusion."""
    return all(r.conclusion_holds is not False for r in reports)


def default_catalog_plan() -> list[tuple[str, LYAlgebra, tuple[CheckSpec, ...]]]:
    """Built-in verification plan over the catalog instances."""
    from .lyalg import catalog

    sl2 = catalog("sl2")
    lts = catalog("lts_sl2")
    sum_alg = catalog("sl2_plus_ab1")
    ab2 = catalog("abelian2")
    h3 = catalog("h3")

    sl2_id = identity_cert(sl2)
    chev = certify_automorphism(sl2, LinMap.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, -1]]))
    lts_id = identity_cert(lts)
    lts_neg = certify_automorphism(lts, LinMap.identity(3).scale(-1))
    e_line = Subspace.span(3, [vunit(3, 0)])
    e_vec, f_vec = vunit(3, 0), vunit(3, 1)
    sl2_block = Subspace.span(4, [vunit(4, 0), vunit(4, 1), vunit(4, 2)])
    ab_block = Subspace.span(4, [vunit(4, 3)])
    zero2 = Subspace.zero(2)

    sl2_checks = []
    for tname, tcert in (("id", sl2_id), ("chevalley", chev)):
        for vname, vcert in (("id", sl2_id), ("chevalley", chev)):
            sl2_checks.append(CheckSpec("P31", f"sl2[theta={tname},vartheta={vname}]",
                                        theta=tcert, vartheta=vcert))
        sl2_checks.append(CheckSpec("T32", f"sl2[theta={tname}]", theta=tcert))
        sl2_checks.append(CheckSpec("P33", f"sl2[theta={tname}]", theta=tcert))
        sl2_checks.append(CheckSpec("P35", f"sl2[theta={tname}]", theta=tcert))
    ad_h = inner_derivation(sl2, e_vec, f_vec)
    sl2_checks.append(CheckSpec("P34", "sl2[D=ad_h,theta=id]", theta=sl2_id, map=ad_h))
    sl2_checks.append(CheckSpec("P37", "sl2[H=span(e),g=e,h=f]", theta=sl2_id,
                                subspace=e_line, g=e_vec, h=f_vec))
    sl2_checks.append(CheckSpec("P38", "sl2[H=span(e),g1=e,g2=f]", theta=sl2_id,
                                subspace=e_line, g1=e_vec, g2=f_vec))

    lts_checks = []
    for tname, tcert in (("id", lts_id), ("neg", lts_neg)):
        for vname, vcert in (("id", lts_id), ("neg", lts_neg)):
            lts_checks.append(CheckSpec("P31", f"lts_sl2[theta={tname},vartheta={vname}]",
                                        theta=tcert, vartheta=vcert))
    lts_checks.append(CheckSpec("T32", "lts_sl2[theta=neg]", theta=lts_neg))
    lts_checks.append(CheckSpec("P33", "lts_sl2[theta=neg]", theta=lts_neg))

    sum_id = identity_cert(sum_alg)
    sum_checks = [
        CheckSpec("P35", "sl2_plus_ab1[theta=id]", theta=sum_id),
        CheckSpec("P36", "sl2_plus_ab1[H=sl2_block]", theta=sum_id, subspace=sl2_block),
        CheckSpec("P36", "sl2_plus_ab1[H=ab_block]", theta=sum_id, subspace=ab_block),
        CheckSpec("P34", "sl2_plus_ab1[D=inner(e,f)]", theta=sum_id,
                  map=inner_derivation(sum_alg, vunit(4, 0), vunit(4, 1))),
    ]

    ab2_id = identity_cert(ab2)
    ab2_checks = [
        CheckSpec("T32", "abelian2[theta=id]", theta=ab2_id),
        CheckSpec("P35", "abelian2[theta=id]", theta=ab2_id),
        CheckSpec("P37", "abelian2[H=0]", theta=ab2_id, subspace=zero2,
                  g=vzero(2), h=vzero(2)),
        CheckSpec("P38", "abelian2[H=0]", theta=ab2_id, subspace=zero2,
                  g1=vzero(2), g2=vzero(2)),
    ]

    h3_id = identity_cert(h3)
    h3_checks = [
        CheckSpec("P34", "h3[D=basis0,theta=id]", theta=h3_id,
                  map=derivation_space(h3).maps()[0]),
    ]

    return [
        ("sl2", sl2, tuple(sl2_checks)),
        ("lts_sl2", lts, tuple(lts_checks)),
        ("sl2_plus_ab1", sum_alg, tuple(sum_checks)),
        ("abelian2", ab2, tuple(ab2_checks)),
        ("h3", h3, tuple(h3_checks)),
    ]


def default_catalog_reports() -> list[PropReport]:
    """The catalog plan's reports; one run, so the plan and every algebra's
    checks share their solved spaces."""
    reports = []
    with _solve_cache():
        for _, algebra, checks in default_catalog_plan():
            reports.extend(verify_all(algebra, checks))
    reports.sort(key=lambda r: (r.prop_id, r.instance))
    return reports
