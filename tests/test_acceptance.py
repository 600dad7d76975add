"""Acceptance battery: one test per criterion, exact arithmetic throughout.

Every check runs at zero tolerance; a criterion passes only when the exact
values agree.  Each test prints a single verdict line so a verbose run
reads as a checklist.
"""

import io
import itertools
from fractions import Fraction

from lya.cli import main as cli_main
from lya.exactlin import (
    Matrix,
    Subspace,
    rank,
    subspace_intersect,
    vadd,
    vscale,
    vunit,
    vzero,
)
from lya.lyalg import (
    CATALOG_NAMES,
    bracket,
    catalog,
    check_axioms,
    from_leibniz,
    from_lie,
    heisenberg_tensor,
    aff2_tensor,
    leibniz2,
    sl2_lie_tensor,
    tensor3,
    tensor4,
    triple,
)
from lya.maps import (
    LinMap,
    certify_automorphism,
    commutator,
    compose,
    identity_cert,
    inner_derivation,
)
from lya.derivations import (
    centroid,
    derivation_space,
    dhat,
    dhat_binary_rhs,
    dhat_ternary_rhs,
    g_derivation_space,
    is_quasi_derivation,
    quasi_witness_satisfies,
    single_twist_space,
)
from lya.serialize import (
    algebra_from_dict,
    algebra_to_dict,
    map_from_dict,
    map_to_dict,
    subspace_from_dict,
    subspace_to_dict,
)
from lya.theorems import (
    verify_p31,
    verify_p33,
    verify_p34,
    verify_p35,
    verify_p36,
    verify_t32,
)

E, F, H = 0, 1, 2


def _verdict(number: int, text: str) -> None:
    print(f"criterion {number:2d}: PASS - {text}")


def _chev():
    return certify_automorphism(
        catalog("sl2"), LinMap.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, -1]]))


def _neg(name):
    a = catalog(name)
    return certify_automorphism(a, LinMap.identity(a.dim).scale(-1))


def test_criterion_1_axiom_soundness():
    for name in CATALOG_NAMES:
        a = catalog(name)
        assert check_axioms(a.dim, a.c, a.d).passed
    for build in (sl2_lie_tensor, heisenberg_tensor, aff2_tensor):
        a = from_lie(build())
        assert check_axioms(a.dim, a.c, a.d).passed
    a = from_leibniz(leibniz2())
    assert check_axioms(a.dim, a.c, a.d).passed
    # one sign flip in the binary tensor breaks the alternating rule: LY1
    sl2 = catalog("sl2")
    c = [[list(v) for v in row] for row in sl2.c]
    c[E][F][2] = -c[E][F][2]
    report = check_axioms(3, tensor3(c), sl2.d)
    assert not report.passed
    assert report.failures[0].axiom == "LY1" and report.failures[0].indices == (E, F)
    # one sign flip in the ternary tensor: LY2
    d = [[[list(v) for v in plane] for plane in row] for row in sl2.d]
    d[E][F][E][0] = -d[E][F][E][0]
    report = check_axioms(3, sl2.c, tensor4(d))
    assert not report.passed
    assert report.failures[0].axiom == "LY2" and report.failures[0].indices[:2] == (E, F)
    _verdict(1, "axioms hold on the catalog and constructions; sign flips"
                " are caught with the right tag")


def test_criterion_2_derivation_dimensions():
    expected = {"abelian2": 4, "sl2": 3, "h3": 6}
    for name, dim in expected.items():
        a = catalog(name)
        direct = derivation_space(a)
        twisted = g_derivation_space(a, identity_cert(a), identity_cert(a))
        assert direct.dim == dim
        assert twisted.space == direct.space  # same space through the twisted entry point
    sl2 = catalog("sl2")
    inner_span = Subspace.span(9, [
        inner_derivation(sl2, vunit(3, E), vunit(3, F)).flatten(),
        inner_derivation(sl2, vunit(3, H), vunit(3, E)).flatten(),
        inner_derivation(sl2, vunit(3, H), vunit(3, F)).flatten(),
    ])
    assert inner_span == derivation_space(sl2).space
    _verdict(2, "derivation dimensions 4/3/6 confirmed through both solver entry"
                " points; sl2 derivations equal the inner span")


def test_criterion_3_p31_dimension_equality():
    sl2 = catalog("sl2")
    lts = catalog("lts_sl2")
    instances = [
        (sl2, [identity_cert(sl2), _chev()]),
        (lts, [identity_cert(lts), _neg("lts_sl2")]),
    ]
    for algebra, certs in instances:
        for theta, vartheta in itertools.product(certs, repeat=2):
            paired = g_derivation_space(algebra, theta, vartheta)
            tau = certify_automorphism(algebra, compose(vartheta.inverse, theta.map))
            target = single_twist_space(algebra, tau)
            assert paired.dim == target.dim
            for d_map in paired.maps():
                assert target.space.contains_vector(
                    compose(vartheta.inverse, d_map).flatten())
            report = verify_p31(algebra, theta, vartheta)
            assert report.conclusion_holds
    _verdict(3, "twisted-space dimensions match their single-twist companions"
                " on sl2 and the Lie triple system")


def test_criterion_4_t32_isomorphism():
    sl2 = catalog("sl2")
    chev = _chev()
    twisted = g_derivation_space(sl2, chev, chev)
    plain = derivation_space(sl2)
    images = [compose(chev.inverse, f).flatten() for f in twisted.maps()]
    assert all(plain.space.contains_vector(v) for v in images)
    assert Subspace.span(9, images).dim == twisted.dim == plain.dim == 3
    for fa, fb in itertools.product(twisted.maps(), repeat=2):
        br = fa.matrix.mul(chev.inverse.matrix).mul(fb.matrix).sub(
            fb.matrix.mul(chev.inverse.matrix).mul(fa.matrix))
        lhs = compose(chev.inverse, LinMap(3, br))
        rhs = commutator(compose(chev.inverse, fa), compose(chev.inverse, fb))
        assert lhs == rhs
    assert verify_t32(sl2, chev).conclusion_holds
    _verdict(4, "double-twist space is carried bijectively onto the"
                " derivations, exactly compatible with the brackets")


def test_criterion_5_p33_closure_and_gating():
    lts = catalog("lts_sl2")
    report = verify_p33(lts, _neg("lts_sl2"))
    assert report.hypotheses_met and report.conclusion_holds
    plain = derivation_space(lts)
    twisted = single_twist_space(lts, _neg("lts_sl2"))
    spaces = {0: plain, 1: twisted}
    for k, l in itertools.product((0, 1), repeat=2):
        for fa in spaces[k].maps():
            for fb in spaces[l].maps():
                assert spaces[(k + l) % 2].contains(commutator(fa, fb))
    sl2 = catalog("sl2")
    gated = verify_p33(sl2, _chev())
    assert not gated.hypotheses_met
    assert gated.conclusion_holds is None
    ad_e = inner_derivation(sl2, vunit(3, H), vunit(3, E)).scale(Fraction(1, 2))
    assert not commutator(_chev().map, ad_e).is_zero()
    _verdict(5, "parity closure verified on the Lie triple system; the"
                " non-commuting swap is gated out with hypotheses_met=false")


def test_criterion_6_p34_perfect_centerless():
    from lya.structure import center, is_perfect

    sl2 = catalog("sl2")
    assert is_perfect(sl2) and center(sl2).dim == 0
    z = center(sl2)
    checked = 0
    for cert in (identity_cert(sl2), _chev()):
        for d_map in single_twist_space(sl2, cert).maps():
            defect = commutator(d_map, cert.map)
            premise = all(z.contains_vector(defect.apply(vunit(3, j))) for j in range(3))
            report = verify_p34(sl2, d_map, cert)
            assert report.hypotheses_met == premise
            if premise:
                assert report.conclusion_holds
                assert defect.is_zero()
                checked += 1
    assert checked >= 3  # the identity twist admits all three basis derivations
    _verdict(6, "on the perfect centerless algebra every premise-satisfying"
                " twisted derivation commutes with the twist exactly")


def test_criterion_7_p35_centroid_intersection():
    sl2 = catalog("sl2")
    assert centroid(sl2).dim == 1
    for cert in (identity_cert(sl2), _chev()):
        meet = subspace_intersect(centroid(sl2), single_twist_space(sl2, cert).space)
        assert meet.dim == 0
        report = verify_p35(sl2, cert)
        assert report.conclusion_holds
    _verdict(7, "centroid is one-dimensional and meets both twisted"
                " derivation spaces only in zero")


def test_criterion_8_p36_stabilizers():
    a = catalog("sl2_plus_ab1")
    ident = identity_cert(a)
    sl2_block = Subspace.span(4, [vunit(4, 0), vunit(4, 1), vunit(4, 2)])
    ab_block = Subspace.span(4, [vunit(4, 3)])
    perfect = verify_p36(a, ident, sl2_block)
    assert perfect.conclusion_holds and perfect.details["equal"]
    assert perfect.details["perfect_ideal"]
    partial = verify_p36(a, ident, ab_block)
    assert partial.conclusion_holds
    assert not partial.details["perfect_ideal"]
    assert partial.details["stab_dim"] <= partial.details["full_dim"]
    _verdict(8, "perfect-ideal stabilizer equals the whole twisted space;"
                " the abelian block yields containment only")


def test_criterion_9_dhat_consistency():
    h3 = catalog("h3")
    ident = identity_cert(h3)
    for d_map in derivation_space(h3).maps():
        outcome = dhat(h3, d_map, ident)
        assert outcome.consistent
        for b in outcome.map.domain.basis:
            assert outcome.map.apply(b) == d_map.apply(b)
    sl2 = catalog("sl2")
    ad_h = inner_derivation(sl2, vunit(3, E), vunit(3, F))
    outcome = dhat(sl2, ad_h, identity_cert(sl2))
    assert not outcome.consistent
    clash = outcome.clash
    combo, rhs = vzero(3), vzero(3)
    for tag, coeff in clash.terms:
        if tag[0] == "binary":
            _, i, j = tag
            combo = vadd(combo, vscale(coeff, sl2.c[i][j]))
            rhs = vadd(rhs, vscale(coeff, dhat_binary_rhs(
                sl2, ad_h, LinMap.identity(3), vunit(3, i), vunit(3, j))))
        else:
            _, i, j, k = tag
            combo = vadd(combo, vscale(coeff, sl2.d[i][j][k]))
            rhs = vadd(rhs, vscale(coeff, dhat_ternary_rhs(
                sl2, ad_h, LinMap.identity(3), vunit(3, i), vunit(3, j), vunit(3, k))))
    assert combo == vzero(3) and rhs == clash.mismatch and rhs != vzero(3)
    units = [vunit(3, i) for i in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            assert dhat_binary_rhs(sl2, ad_h, LinMap.identity(3), units[i], units[j]) \
                == ad_h.apply(sl2.c[i][j])
    for i, j, k in itertools.product(range(3), repeat=3):
        assert dhat_ternary_rhs(sl2, ad_h, LinMap.identity(3), units[i], units[j], units[k]) \
            == vscale(4, ad_h.apply(sl2.d[i][j][k]))
    _verdict(9, "hat map equals the derivation on the binary-only algebra;"
                " the sl2 clash certificate re-verifies from raw tensors")


def _quasi_probe_system(algebra, d_map):
    n = algebra.dim
    units = [vunit(n, i) for i in range(n)]
    du = [d_map.apply(u) for u in units]
    pairs = list(itertools.product(range(n), repeat=2))
    triples = list(itertools.product(range(n), repeat=3))
    columns = []
    for block, flat in itertools.product(range(2), range(n * n)):
        probe = LinMap.unflatten(n, vunit(n * n, flat))
        col = []
        for i, j in pairs:
            col.extend(probe.apply(algebra.c[i][j]) if block == 0 else vzero(n))
        for i, j, k in triples:
            col.extend(probe.apply(algebra.d[i][j][k]) if block == 1 else vzero(n))
        columns.append(col)
    rhs = []
    for i, j in pairs:
        rhs.extend(vadd(bracket(algebra, du[i], units[j]),
                        bracket(algebra, units[i], du[j])))
    for i, j, k in triples:
        val = triple(algebra, du[i], units[j], units[k])
        val = vadd(val, triple(algebra, units[i], du[j], units[k]))
        val = vadd(val, triple(algebra, units[i], units[j], du[k]))
        rhs.extend(val)
    n_rows = len(rhs)
    m = Matrix(n_rows, 2 * n * n, tuple(
        tuple(columns[q][r] for q in range(2 * n * n)) for r in range(n_rows)))
    return m, tuple(rhs)


def test_criterion_10_quasi_derivations():
    for name in CATALOG_NAMES:
        a = catalog(name)
        for d_map in derivation_space(a).maps():
            w = is_quasi_derivation(a, d_map)
            assert w is not None and quasi_witness_satisfies(a, d_map, w)
        for flat in centroid(a).basis:
            d_map = LinMap.unflatten(a.dim, flat)
            w = is_quasi_derivation(a, d_map)
            assert w is not None and quasi_witness_satisfies(a, d_map, w)
    sl2 = catalog("sl2")
    rejected = LinMap.unflatten(3, vunit(9, 0))  # e -> e, f -> 0, h -> 0
    assert is_quasi_derivation(sl2, rejected) is None
    m, rhs = _quasi_probe_system(sl2, rejected)
    aug = Matrix(m.rows, m.cols + 1,
                 tuple(row + (rhs[i],) for i, row in enumerate(m.entries)))
    assert rank(aug) > rank(m)
    _verdict(10, "derivations and centroid members admit verified companion"
                 " pairs; an explicit endomorphism is rejected with a rank gap")


def _run_cli(*argv):
    buf = io.StringIO()
    code = cli_main(list(argv), out=buf)
    return code, buf.getvalue()


def test_criterion_11_determinism(tmp_path):
    path = tmp_path / "sl2.json"
    first_export = _run_cli("export", "sl2", "--out", str(path))
    body1 = path.read_bytes()
    second_export = _run_cli("export", "sl2", "--out", str(path))
    assert first_export == second_export
    assert path.read_bytes() == body1
    for argv in (("check", str(path)), ("der", str(path)),
                 ("centroid", str(path)), ("verify", "suite")):
        assert _run_cli(*argv) == _run_cli(*argv)
    for name in CATALOG_NAMES:
        a = catalog(name)
        b = algebra_from_dict(algebra_to_dict(a))
        assert (b.dim, b.labels, b.c, b.d) == (a.dim, a.labels, a.c, a.d)
    f = LinMap.from_rows([["1/2", "-3"], ["0", "7/5"]])
    assert map_from_dict(map_to_dict(f)) == f
    s = Subspace.span(3, [[1, 0, "1/2"], [0, 1, "-2/3"]])
    assert subspace_from_dict(subspace_to_dict(s)) == s
    _verdict(11, "identical invocations emit identical bytes and all"
                 " round trips are exact")
