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
    Matrix,
    Subspace,
    Vec,
    _clear,
    _images,
    _integer_product,
    _matrix_strs,
    _member,
    _times,
    invert,
    subspace_contains,
    subspace_intersect,
    vadd,
    vec,
    vec_strs,
    vscale,
    vunit,
    vzero,
)
from .lyalg import LYAlgebra, _transported, _values, _vectors
from .maps import (
    AutCert,
    LinMap,
    _map_rows,
    _maps_of,
    certify_automorphism,
    commutator,
    compose,
    identity_cert,
    inner_derivation,
    restrict_map,
    satisfies_g_derivation,
)
from .derivations import (
    _dhat,
    _prescriptions,
    _solve_cache,
    _stabilizer_space,
    centroid,
    derivation_space,
    g_derivation_space,
    is_quasi_derivation,
    require_stabilized_subalgebra,
    single_twist_space,
)
from .structure import center, derived_algebra, is_ideal, is_perfect, is_subalgebra

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


def _pulled_back(inverse: LinMap, space: Subspace, target: Subspace):
    """Each basis map f of a space of maps with its pull-back through
    ``inverse``, formed once in integer rows; whether every pull-back lies
    in ``target``; and the dimension of their span.  The maps share the
    space's scale, so the pull-backs share one positive scale, which
    membership and the span do not see."""
    n, inv = inverse.dim, inverse.matrix.form[1]
    pulled = [(f, _integer_product(inv, f, n)) for f in _map_rows(space)]
    flat = [sum(p, []) for _, p in pulled]
    return pulled, all(_member(target, w) for w in flat), Subspace.span(n * n, flat).dim


def verify_p31(algebra: LYAlgebra, theta: AutCert, vartheta: AutCert,
               instance: str = "") -> PropReport:
    """Dimension match between the pair-twisted space and its single-twist
    companion obtained by composing with the inverse of the second twist."""
    paired = g_derivation_space(algebra, theta, vartheta)
    target = single_twist_space(
        algebra, certify_automorphism(algebra, compose(vartheta.inverse, theta.map)))
    _, all_land, image_dim = _pulled_back(vartheta.inverse, paired.space, target.space)
    ok = all_land and image_dim == paired.dim == target.dim
    dims = {"paired_dim": paired.dim, "target_dim": target.dim, "image_dim": image_dim}
    hypotheses = (("theta certified", True), ("vartheta certified", True))
    return PropReport("P31", instance, True, hypotheses, ok, None if ok else dict(dims), dims)


def _products_minus(n: int, a, b, c, d) -> list[list[int]]:
    """ab - cd for integer n x n matrices."""
    return [[x - y for x, y in zip(r, s)]
            for r, s in zip(_integer_product(a, b, n), _integer_product(c, d, n))]


def verify_t32(algebra: LYAlgebra, theta: AutCert, instance: str = "") -> PropReport:
    """The double-twist space, with the transported bracket, maps onto the
    plain derivation algebra through composition with the inverse twist.

    The map algebra runs on integer matrices: with θ⁻¹ stored over the
    scale s and the basis maps f_i read over the space's one scale S, each
    f_i is pulled back once (:func:`_pulled_back`), p_i = θ⁻¹f_i, which
    serves the membership test in the plain space, the span and the
    brackets: s S² [f_i, f_j]_θ is f_i p_j - f_j p_i.  Its pull-back is
    compared with [p_i, p_j] and gives [[f_i, f_j]_θ, f_k]_θ, each over a
    positive product of scales, which membership does not see.
    """
    twisted = g_derivation_space(algebra, theta, theta)
    plain = derivation_space(algebra)
    n = algebra.dim
    inv = theta.inverse.matrix.form[1]
    pulled, lands, image_dim = _pulled_back(theta.inverse, twisted.space, plain.space)
    bijective = image_dim == twisted.dim == plain.dim
    closure_binary = True
    hom_property = True
    brackets = []
    for (f, p), (g, q) in itertools.product(pulled, repeat=2):
        br = _products_minus(n, f, q, g, p)
        back = _integer_product(inv, br, n)
        brackets.append((br, back))
        if not _member(twisted.space, sum(br, [])):
            closure_binary = False
        if back != _products_minus(n, p, q, q, p):
            hom_property = False
    closure_ternary = True
    for (br, back), (h, p) in itertools.product(brackets, pulled):
        if not _member(twisted.space, sum(_products_minus(n, br, p, h, back), [])):
            closure_ternary = False
    ok = lands and bijective and closure_binary and closure_ternary and hom_property
    witness = None if ok else {
        "lands": lands, "bijective": bijective, "closure_binary": closure_binary,
        "closure_ternary": closure_ternary, "hom_property": hom_property}
    return PropReport("T32", instance, True, (("theta certified", True),), ok, witness,
                      {"twisted_dim": twisted.dim, "plain_dim": plain.dim})


def verify_p33(algebra: LYAlgebra, theta: AutCert, instance: str = "") -> PropReport:
    """Commutators of plain and single-twist derivations land in the space
    tagged by the parity of the twists, for an involution commuting with
    every member of both spaces.

    The commutators run on the stored integer matrices; each is over the
    product of its two maps' scales, which membership does not see."""
    plain = derivation_space(algebra)
    twisted = single_twist_space(algebra, theta)
    involutive = compose(theta.map, theta.map) == LinMap.identity(algebra.dim)
    maps = plain.maps() + twisted.maps()
    bad_map = next((f for f in maps if not commutator(theta.map, f).is_zero()), None)
    hypotheses = (("theta is involutive", involutive),
                  ("theta commutes with both spaces", bad_map is None))
    details = {
        "plain_dim": plain.dim,
        "twisted_dim": twisted.dim,
        "intersection_dim": subspace_intersect(plain.space, twisted.space).dim,
    }
    if not involutive or bad_map is not None:
        if bad_map is not None:
            details["non_commuting_map"] = _matrix_strs(bad_map.matrix)
        return PropReport("P33", instance, False, hypotheses, None, None, details)
    n = algebra.dim
    indexed = [(a, f.matrix.form[1]) for a, f in enumerate(maps)]
    parts = (indexed[:plain.dim], indexed[plain.dim:])
    spaces = (plain.space, twisted.space)
    ok = True
    witness = None
    for k, l in itertools.product((0, 1), repeat=2):
        for (a, f), (b, g) in itertools.product(parts[k], parts[l]):
            if not _member(spaces[(k + l) % 2], sum(_products_minus(n, f, g, g, f), [])):
                ok = False
                witness = {"k": k, "l": l,
                           "commutator": _matrix_strs(commutator(maps[a], maps[b]).matrix)}
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
    # The image of e_j is column j of the defect.
    premise = all(_member(z, col) for col in zip(*defect.matrix.form[1]))
    hypotheses = (("map is a twisted derivation", True),
                  ("defect image lies in the center", premise),)
    w = derived_algebra(algebra)
    perfect = w.dim == n
    zero_defect = defect.is_zero()
    details = {"defect_is_zero": zero_defect, "perfect": perfect}
    if not premise:
        return PropReport("P34", instance, False, hypotheses, None, None, details)
    # W lies in the defect's kernel when the defect sends each of its basis vectors to zero.
    images = _images(defect.matrix.form[1], w)
    bad = next((b for b, image in zip(w.basis, images) if any(image)), None)
    ok = bad is None and (zero_defect or not perfect)
    witness = None
    if bad is not None:
        witness = {"vector": vec_strs(bad), "image": vec_strs(defect.apply(bad))}
    elif not ok:
        witness = {"defect": _matrix_strs(defect.matrix)}
    return PropReport("P34", instance, True, hypotheses, ok, witness, details)


def verify_p35(algebra: LYAlgebra, theta: AutCert, instance: str = "") -> PropReport:
    """Maps in both the centroid and the twisted derivation space send
    everything into the kernel of every inner derivation; on a centerless
    algebra the two spaces meet only in zero."""
    meet = subspace_intersect(centroid(algebra), single_twist_space(algebra, theta).space)
    n = algebra.dim
    maps = _map_rows(meet)
    # f_t e_i sits in column t*n + i of the last slot, over the space's one
    # scale, which no zero test sees; the witness is the last failing (map,
    # basis triple).
    cols = Matrix(n, n * len(maps), (1, tuple(
        tuple(x for f in maps for x in f[a]) for a in range(n))))
    failing = {key[:-1] for key in _transported(algebra, (None, None, cols))[1]}
    ok = not failing
    witness = None
    if failing:
        g, h, col = max(failing, key=lambda k: (k[2] // n, k[0], k[1], k[2] % n))
        witness = {"map": _matrix_strs(_maps_of(meet)[col // n].matrix), "indices": [g, h, col % n]}
    centerless = center(algebra).dim == 0
    if centerless and meet.dim != 0:
        ok = False
        witness = witness or {"intersection_dim": meet.dim}
    return PropReport("P35", instance, True, (("theta certified", True),), ok, witness,
                      {"intersection_dim": meet.dim, "centerless": centerless})


def extract_subalgebra(algebra: LYAlgebra, h: Subspace) -> LYAlgebra:
    """Induced algebra on a subalgebra's canonical basis."""
    if not is_subalgebra(algebra, h):
        raise MathError("subspace is not a subalgebra")
    return _extract_subalgebra(algebra, h)


def _extract_subalgebra(algebra: LYAlgebra, h: Subspace) -> LYAlgebra:
    """:func:`extract_subalgebra` for a subspace already known to be a subalgebra.

    Each product of H's basis is read as an integer vector over its form's
    scale; a member of H has its entries at H's pivots as its coordinates
    in H's canonical basis, over the same scale.
    """
    n, pivots = algebra.dim, h.pivots
    units = {vunit(n, i): label for i, label in enumerate(algebra.labels)}
    labels = tuple(units.get(row, f"b{k}") for k, row in enumerate(h.basis, 1))
    basis = h.echelon.transpose()

    def inside(keyed):
        """The scale and the H-coordinates of a transported form's products."""
        entries = {}
        for idx, w in _vectors(keyed, n):
            if not _member(h, w):
                raise InternalCheckError("subalgebra closure failed during extraction")
            entries.update({idx + (k,): w[p] for k, p in enumerate(pivots)})
        return keyed[0], entries

    (s2, binary), (s3, ternary) = (inside(_transported(algebra, (basis,) * arity))
                                   for arity in (2, 3))
    return LYAlgebra(h.dim, labels, (s2 * s3, {k: s3 * x for k, x in binary.items()},
                                     {k: s2 * x for k, x in ternary.items()}))


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
    equal = stab.space == full.space
    ok = contained and (equal or not perfect)
    dims = {"stab_dim": stab.dim, "full_dim": full.dim}
    details = dims | {"ideal": ideal, "perfect_ideal": perfect, "equal": equal}
    hypotheses = (("subalgebra", True), ("theta stabilizes it", True))
    return PropReport("P36", instance, True, hypotheses, ok, None if ok else dims, details)


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
    # row b of inv^T times the basis rows: the preimage of H's basis vector b
    preimages = inv.transpose().mul(h.echelon).entries
    # linearity of the prescription across fixed combinations of preimages
    weights = [(Fraction(2), Fraction(3)), (Fraction(-1), Fraction(5, 2))] if h.dim >= 2 else []
    points = [*preimages, *(vadd(vscale(s, preimages[0]), vscale(t, preimages[1]))
                            for s, t in weights)]
    ok = True
    witness = None
    per_map = []
    for d_map in stab.maps():
        prescriptions = _prescriptions(algebra, d_map, theta.map)
        outcome = _dhat(algebra, prescriptions)
        values = _values(prescriptions[1], n, [gv, hv], points)
        values, combos = values[:h.dim], values[h.dim:]
        # The values are cleared once, together, for membership.
        bad = next((v for v, w in zip(values, _clear(1, values)[1]) if not _member(h, w)), None)
        if bad is not None:
            ok = False
            witness = {"map": _matrix_strs(d_map.matrix), "value": vec_strs(bad)}
        if outcome.consistent and any(x != v for x, v in zip(outcome.map._on_basis(h), values)):
            raise InternalCheckError("hat-map solution disagrees with the prescription formula")
        for (s, t), combo in zip(weights, combos):
            if combo != vadd(vscale(s, values[0]), vscale(t, values[1])):
                ok = False
                witness = {"map": _matrix_strs(d_map.matrix), "linearity": False}
        per_map.append({"globally_consistent": outcome.consistent,
                        "values_inside": bad is None})
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
        restricts, invertible = True, invert(restrict_map(inner, h).matrix) is not None
    except MathError:
        restricts = invertible = False
    # g1 and g2 are cleared once, over one scale, and every map acts on them in integers.
    _, (c1, c2) = _clear(1, [g1v, g2v])
    t_scale, t = theta.map.matrix.form
    fixes_g1 = _times(t, c1) == [t_scale * x for x in c1]
    stab = _stabilizer_space(algebra, single_twist_space(algebra, theta), h)
    z = center(algebra)
    survivors = [idx for idx, f in enumerate(_map_rows(stab.space))
                 if _member(z, _times(f, c1)) and _member(z, _times(f, c2))]
    central_images = len(survivors) == stab.dim
    hypotheses = (
        ("inner map restricts invertibly", restricts and invertible),
        ("theta fixes the first element", fixes_g1),
        ("images of both elements are central for every stabilizing derivation",
         central_images),
    )
    sub = _extract_subalgebra(algebra, h)
    survivor_results = []
    stab_maps = stab.maps()
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


# Each check's verifier, the CheckSpec fields it takes after the algebra, and
# what it must be given; theta and vartheta default to the identity.  The
# verifier is named rather than held, and looked up when the check runs, so
# that a wrapper set on this module's attribute (a test's patch, lyabench's
# tracer) is the one called.
CHECKS = {
    "P31": ("verify_p31", ("theta", "vartheta"), ""),
    "T32": ("verify_t32", ("theta",), ""),
    "P33": ("verify_p33", ("theta",), ""),
    "P34": ("verify_p34", ("map", "theta"), "a map"),
    "P35": ("verify_p35", ("theta",), ""),
    "P36": ("verify_p36", ("theta", "subspace"), "a subspace"),
    "P37": ("verify_p37", ("theta", "subspace", "g", "h"), "a subspace and two elements"),
    "P38": ("verify_p38", ("theta", "subspace", "g1", "g2"), "a subspace and two elements"),
}


def check_fields(prop: str, given: Sequence[str]) -> None:
    """Raise the InputError for a check ``prop`` given the CheckSpec fields
    ``given``: an unknown check, then a field it does not take, then a
    missing field it needs."""
    if prop not in CHECKS:
        raise InputError(f"unknown check {prop!r}")
    _, fields, needs = CHECKS[prop]
    for key in given:
        if key not in ("prop", "label", *fields):
            raise InputError(f"{prop} takes no field {key!r}")
    if any(key not in given for key in fields if key not in ("theta", "vartheta")):
        raise InputError(f"{prop} needs {needs}")


def _run_check(algebra: LYAlgebra, spec: CheckSpec) -> PropReport:
    check_fields(spec.prop, [key for key in CheckSpec._fields if getattr(spec, key) is not None])
    verifier, fields, _ = CHECKS[spec.prop]
    args = [getattr(spec, key) for key in fields]
    return globals()[verifier](
        algebra, *[identity_cert(algebra) if arg is None else arg for arg in args], spec.label)


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
