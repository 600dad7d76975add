"""Algebras, maps and subspaces store only their cleared integer forms.

The dense JSON loader (in ``reference``), direct sum and LY1/LY2 scans are
the code that built and checked dense Fraction tensors before an algebra
stored only its form; they are kept as references for the form-level code
that replaced them.  The structural pin makes the dense views ``c`` and ``d``
fail on any read and holds every benchmark verb, the built-in suite and the
loader to the bytes they printed when the dense tensors were stored.
"""

import hashlib
import io
import sys
import tracemalloc
from fractions import Fraction

import pytest

from lya import exactlin
from lya.cli import main
from lya.derivations import (derivation_space, require_stabilized_subalgebra,
                             stabilizer_derivations)
from lya.errors import AxiomError
from lya.exactlin import (Matrix, Subspace, coordinates, invert, subspace_contains, vadd, vec,
                          vscale, vunit, vzero)
from lya.lyalg import bracket, catalog, check_axioms, direct_sum, from_leibniz, leibniz2
from lya.maps import (certify_automorphism, compose, identity_cert, restrict_map,
                      satisfies_g_derivation)
from lya.serialize import (algebra_from_dict, algebra_to_dict, map_to_dict, read_json_file,
                           save_json_file)
from lya.structure import derived_algebra, is_subalgebra
from lya.theorems import extract_subalgebra, verify_p37, verify_p38
from reference import (GL2_TWISTS, H5_SWAP, SUM_CHEVALLEY, assert_form_is,
                       compare_with_dense_loader, from_tensors, gl2, h5, leibniz_from_tensor,
                       rebased, transported_leibniz, without_dense_tensors)

# -- dense references --------------------------------------------------------


def dense_direct_sum(a, b):
    """Block sum of the dense tensors, as from_tensors input."""
    n, m = a.dim, b.dim
    total = n + m
    c = [[vzero(total) for _ in range(total)] for _ in range(total)]
    d = [[[vzero(total) for _ in range(total)] for _ in range(total)] for _ in range(total)]
    ac, ad, bc, bd = a.c, a.d, b.c, b.d
    for i in range(n):
        for j in range(n):
            c[i][j] = ac[i][j] + vzero(m)
            for k in range(n):
                d[i][j][k] = ad[i][j][k] + vzero(m)
    for i in range(m):
        for j in range(m):
            c[n + i][n + j] = vzero(n) + bc[i][j]
            for k in range(m):
                d[n + i][n + j][n + k] = vzero(n) + bd[i][j][k]
    return c, d


def dense_alternation_failures(n, c, d):
    """The LY1 and LY2 failures of the dense scans, in their order."""
    failures = []
    for i in range(n):
        if any(c[i][i]):
            failures.append(("LY1", (i, i), c[i][i]))
        for j in range(i + 1, n):
            res = vadd(c[i][j], c[j][i])
            if any(res):
                failures.append(("LY1", (i, j), res))
    for k in range(n):
        for i in range(n):
            if any(d[i][i][k]):
                failures.append(("LY2", (i, i, k), d[i][i][k]))
            for j in range(i + 1, n):
                res = vadd(d[i][j][k], d[j][i][k])
                if any(res):
                    failures.append(("LY2", (i, j, k), res))
    return failures


def test_loader_matches_the_dense_reference_on_the_catalog_and_hand_cases():
    cases = [algebra_to_dict(catalog(name)) for name in ("sl2", "lts_sl2", "abelian3", "aff2")]
    cases += [
        {"dim": 2, "binary": [[0, 1, ["1/2", "-2/3"]]], "ternary": [[0, 1, 1, ["0", "3/4"]]]},
        {"dim": 2, "binary": [[0, 1, ["0", "0"]]]},
        {"dim": 3, "binary": [[0, 1, ["1", "0", "0"]], [0, 1, ["1", "0", "0"]]]},
        {"dim": 3, "binary": [[1, 0, ["1", "0", "0"]]]},
        {"dim": 3, "ternary": [[0, 1, 3, ["1", "0", "0"]]]},
        {"dim": 3, "ternary": [[0, 1, 2, ["1", "0"]]]},
        {"dim": 2, "labels": ["x"]},
        {"dim": -1},
        {"dim": 2, "binary": [[0, True, ["1", "0"]]]},
    ]
    for obj in cases:
        compare_with_dense_loader(obj)


def rebased_pair():
    """sl2 and h3 in seeded rational bases with different denominators."""
    (a, _, _), (b, _, _) = rebased(catalog("sl2"), 11), rebased(catalog("h3"), 5)
    assert a.form[0] != b.form[0] and a.form[0] > 1 and b.form[0] > 1
    return a, b


@pytest.mark.parametrize("left,right", [("sl2", "h3"), ("lts_sl2", "aff2"),
                                        ("abelian2", "sl2"), ("sl2", "abelian0"), (None, None)])
def test_direct_sum_matches_the_dense_reference(left, right):
    a, b = rebased_pair() if left is None else (catalog(left), catalog(right))
    s = direct_sum(a, b)
    c, d = dense_direct_sum(a, b)
    assert_form_is(s.dim, s.form, c, d)
    assert s == from_tensors(s.labels, c, d)
    assert s.c == tuple(map(tuple, c)) and s.d == tuple(tuple(map(tuple, p)) for p in d)


def alternation_cases():
    """Hand-built tensors whose alternation fails: one of sl2's tensors with
    diagonal, symmetric and half-negated entries, in ternary slots k that
    run against the pair order."""
    sl2 = catalog("sl2")
    c0, d0 = sl2.c, sl2.d
    c = [list(row) for row in c0]
    c[1][1] = vec([Fraction(1, 2), 0, 0])
    c[2][0] = c[0][2]
    c[2][1] = vec([0, Fraction(-3, 5), 0])
    d = [[list(plane) for plane in row] for row in d0]
    d[2][2][0] = vec([0, 0, Fraction(7, 3)])
    d[1][0][2] = vscale(Fraction(1, 2), d[1][0][2])
    d[0][0][1] = vec([1, 0, 0])
    d[2][1][0] = vec([0, 4, 0])
    return [(c, d0), (c0, d), (c, d)]


def test_alternation_failures_match_the_dense_reference():
    for c, d in alternation_cases():
        report = check_axioms(3, c, d)
        want = dense_alternation_failures(3, c, d)
        got = [(f.axiom, f.indices, f.residual) for f in report.failures
               if f.axiom in ("LY1", "LY2")]
        assert got == want and len(want) >= 3
        assert [f.axiom for f in report.failures[:len(want)]] == [w[0] for w in want]
        with pytest.raises(AxiomError) as err:
            from_tensors(("e", "f", "h"), c, d)
        assert err.value.report == report


# -- the dense views are never read -------------------------------------------

def write_benchmark_files(name, rebase):
    """alg.json, theta.json, known.json and random.json in the current
    directory: h5 or gl2 in the standard basis or the seed-7 rational basis
    P, its twist (moved to P^-1 theta P), ad of its first basis vector (a
    derivation) and the first matrix unit.  Returns the algebra."""
    a, twist = {"h5": (h5(), H5_SWAP), "gl2": (gl2(), GL2_TWISTS[0])}[name]
    theta = Matrix.from_rows(twist)
    if rebase:
        a, p, p_inv = rebased(a, 7)
        theta = p_inv.mul(theta).mul(p)
    n = a.dim
    e = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    save_json_file("alg.json", algebra_to_dict(a))
    save_json_file("theta.json", map_to_dict(theta))
    save_json_file("known.json",
                   map_to_dict(Matrix.from_rows([bracket(a, e[0], x) for x in e]).transpose()))
    save_json_file("random.json",
                   map_to_dict(Matrix.from_rows([e[0]] + [vzero(n)] * (n - 1)).transpose()))
    return a


# The benchmark's eight jobs on one algebra.
BENCHMARK_JOBS = (("check",), ("der",), ("centroid",), ("gder", "--theta", "theta.json"),
                  ("quasi", "--map", "known.json"), ("dhat", "--map", "known.json"),
                  ("quasi", "--map", "random.json"), ("dhat", "--map", "random.json"))


def benchmark_digest():
    """SHA-256 over the exit code and stdout of every benchmark job, in order."""
    digest = hashlib.sha256()
    for verb, *options in BENCHMARK_JOBS:
        out = io.StringIO()
        code = main([verb, "alg.json", *options], out=out)
        digest.update(f"{code}\n{out.getvalue()}".encode())
    return digest.hexdigest()


# benchmark_digest() on each (algebra, rebased) case, and the SHA-256 of
# `lya verify suite`, taken while algebras stored dense tensors.
PINNED_DIGESTS = {
    ("h5", False):
        "69e69418a15ec83214c0b4e7b893abac3b6d0192248a1f204a7b45c88c6dcf3f",
    ("h5", True):
        "1229e6eac7b2bd47af566ebcbf4baf3237b68099a2f93adf6490dd099ed9c60e",
    ("gl2", False):
        "3aa519ac1814e821d407381f2590aa6c01de608aa1417839c4955a6a1a83f3e6",
    ("gl2", True):
        "664f8e22b14c49e21d4a8a8f19f19142396401b0801869255436c87129926ac1",
}
SUITE_SHA256 = "1be63bcfc6df1bbc6b390dab524c688dfa7f5ad1fc9aa5fdfa02c92ad3fe5708"


def test_answers_never_read_the_dense_views(tmp_path, monkeypatch):
    """With c and d failing on any read, the loader, every benchmark job on
    h5 and gl2 in both bases and the built-in suite give the old answers."""
    built = {}
    for case in PINNED_DIGESTS:
        (tmp_path / "-".join(map(str, case))).mkdir()
        monkeypatch.chdir(tmp_path / "-".join(map(str, case)))
        built[case] = write_benchmark_files(*case)
    without_dense_tensors(monkeypatch)
    for case, digest in PINNED_DIGESTS.items():
        monkeypatch.chdir(tmp_path / "-".join(map(str, case)))
        loaded = algebra_from_dict(read_json_file("alg.json")[1])
        assert loaded == built[case] and hash(loaded) == hash(built[case])
        assert benchmark_digest() == digest, case
    catalog.cache_clear()
    out = io.StringIO()
    assert main(["verify", "suite"], out=out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == SUITE_SHA256
    with pytest.raises(AssertionError, match="dense tensor d"):
        catalog("sl2").d


def test_loading_a_large_abelian_algebra_allocates_little():
    """{"dim": 32} is loaded and checked as an empty form; the dense
    loader's 32^3 zero vectors took about 21 MB at their peak, the form
    and its check about 3 MB."""
    tracemalloc.start()
    try:
        a = algebra_from_dict({"dim": 32})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.form == (1, {}, {}) and peak < 8_000_000


# -- from_leibniz ---------------------------------------------------------------

def aff2_on_a_line():
    """The hemisemidirect product of aff2 ([e1, e2] = e1) with the line on
    which e2 acts by 1: (x, u)(y, v) = ([x, y], x.v), a left Leibniz algebra
    that is not Lie, whose iterated product is nonzero."""
    p = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    p[0][1][0], p[1][0][0], p[1][2][2] = 1, -1, 1
    return leibniz_from_tensor(("e1", "e2", "v"), p)


def test_from_leibniz_passes_the_axioms_in_every_basis():
    """Kinyon and Weinstein: the skew-symmetrized half product and minus a
    quarter of the iterated product of a left Leibniz algebra form an LY
    algebra.  Checked on leibniz2 and aff2_on_a_line, and on rational
    rebasings of them drawn by hypothesis."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    bases = {"leibniz2": leibniz2(), "aff2_on_a_line": aff2_on_a_line()}
    assert any(from_leibniz(bases["aff2_on_a_line"]).form[2].values())
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)

    def cases(name):
        n = bases[name].dim
        return st.tuples(st.just(name), st.lists(st.lists(entries, min_size=n, max_size=n),
                                                 min_size=n, max_size=n))

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @hypothesis.given(st.sampled_from(sorted(bases)).flatmap(cases))
    def check(case):
        name, rows = case
        b = bases[name]
        n = b.dim
        p = Matrix.from_rows(rows)
        p_inv = invert(p)
        hypothesis.assume(p_inv is not None)
        for leibniz in (b, transported_leibniz(b, p, p_inv)):
            a = from_leibniz(leibniz)
            assert check_axioms(a.dim, a.c, a.d).passed

    check()


# -- maps and subspaces ------------------------------------------------------


def test_a_stored_map_or_basis_is_never_cleared_again(monkeypatch):
    """Subspaces, maps and algebras are cleared once, when they are built.
    Membership, images and the twisted derivation re-check then read them
    as stored and clear only their vector arguments; a composite is cleared
    once, as it is built, from the integer product of the stored factors."""
    alg, p, p_inv = rebased(catalog("sl2_plus_ab1"), 11)
    n = alg.dim
    space = Subspace.span(n, p_inv.transpose().entries[:3])
    theta = p_inv.mul(Matrix.from_rows(SUM_CHEVALLEY)).mul(p)
    ders = derivation_space(alg)
    f, ident = ders.maps()[0], Matrix.identity(n)
    v = vec(["1/3", "-2", "5/7", "0"])
    image, product = f.mul_vec(v), theta.mul(f)
    cleared = []
    clear = exactlin._clear

    def recording(scale, rows):
        cleared.append([x for r in rows for x in r])
        return clear(scale, rows)

    for name, module in list(sys.modules.items()):
        if name.startswith("lya") and getattr(module, "_clear", None) is clear:
            monkeypatch.setattr(module, "_clear", recording)
    for _ in range(3):
        assert not space.contains_vector(v)
        assert f.mul_vec(v) == image
        assert satisfies_g_derivation(alg, f, ident, ident)
        assert not satisfies_g_derivation(alg, theta, ident, ident)
        assert subspace_contains(space, space) and exactlin._member(ders.space, sum(f.form[1], ()))
    assert cleared == [list(v)] * 6
    cleared.clear()
    composites = [compose(theta, f) for _ in range(3)]
    assert len(cleared) == 3 and all(type(x) is int for values in cleared for x in values)
    assert all(g == product for g in composites)


def recorded_clear_sites(monkeypatch, cleared: list | None = None) -> list[str]:
    """Records where each ``_clear`` call comes from: the type of the value
    whose construction clears, ``Matrix`` or ``LYAlgebra``, or else the name
    of the function that called it.  Each cleared row goes to ``cleared``
    when it is given."""
    sites = []
    clear = exactlin._clear

    def recording(scale, rows):
        if cleared is not None:
            cleared.extend(rows)
        frame = sys._getframe(1)
        if frame.f_code.co_name == "_cleared":
            frame = frame.f_back
        built = frame.f_code.co_name == "__post_init__"
        sites.append(type(frame.f_locals["self"]).__name__ if built else frame.f_code.co_name)
        return clear(scale, rows)

    for name, module in list(sys.modules.items()):
        if name.startswith("lya") and getattr(module, "_clear", None) is clear:
            monkeypatch.setattr(module, "_clear", recording)
    return sites


def test_subalgebra_paths_clear_no_product_vector(monkeypatch):
    """is_subalgebra, derived_algebra and extract_subalgebra read every
    product as an integer vector over its form's scale and clear none of
    them: each ``_clear`` call they make builds a stored matrix (H's basis
    transposed, or the derived algebra's span), and extract_subalgebra's
    only other call builds the new algebra."""
    alg, _, p_inv = rebased(catalog("sl2_plus_ab1"), 11)
    cases = [(catalog("sl2"), Subspace.span(3, [vunit(3, 0)])),
             (catalog("sl2_plus_ab1"), Subspace.span(4, [vunit(4, i) for i in range(3)])),
             (alg, Subspace.span(4, p_inv.transpose().entries[:3]))]
    sites = recorded_clear_sites(monkeypatch)
    for a, h in cases:
        sites.clear()
        assert is_subalgebra(a, h)
        assert set(sites) <= {"Matrix"}
        sites.clear()
        derived_algebra(a)
        assert set(sites) <= {"Matrix"}
        sites.clear()
        assert extract_subalgebra(a, h).dim == h.dim
        assert sites.count("LYAlgebra") == 1 and set(sites) <= {"Matrix", "LYAlgebra"}, sites


def test_stabilizer_paths_clear_no_basis_vector_or_image(monkeypatch):
    """restrict_map, require_stabilized_subalgebra and stabilizer_derivations
    take each map's images of H's stored basis as integers: on a rational H
    every ``_clear`` call they make builds a new matrix, none clears a basis
    vector or an image for ``mul_vec``, ``contains_vector`` or ``reduce``.
    restrict_map builds only the restricted matrix, which equals the one
    read off the ``Fraction`` coordinates."""
    alg, p, p_inv = rebased(catalog("sl2_plus_ab1"), 11)
    n = alg.dim
    h = Subspace.span(n, p_inv.transpose().entries[:3])
    assert h.echelon.form[0] > 1
    theta = certify_automorphism(alg, p_inv.mul(Matrix.from_rows(SUM_CHEVALLEY)).mul(p))
    sites = recorded_clear_sites(monkeypatch)
    require_stabilized_subalgebra(alg, theta, h)
    assert set(sites) == {"Matrix"}, sites
    sites.clear()
    stab = stabilizer_derivations(alg, theta, h)
    assert stab.dim > 0 and set(sites) == {"Matrix"}, sites
    maps = (theta.map, *stab.maps())
    for f in maps:
        sites.clear()
        restricted = restrict_map(f, h)
        assert sites == ["Matrix"]
        assert restricted == Matrix.from_rows(
            [coordinates(h, f.mul_vec(b)) for b in h.basis]).transpose()


def test_p37_and_p38_clear_no_single_vector(monkeypatch):
    """verify_p37 clears each stabilizing map's hat-map values once,
    together, and verify_p38 clears g1 and g2 once, together, for every map
    and the twist to act on in integers: neither clears a vector on its own
    through ``mul_vec``, ``contains_vector`` or ``reduce``.  The cases are
    the suite's, the CI config's and one on a subspace with a rational
    basis vector."""
    sl2, total = catalog("sl2"), catalog("sl2_plus_ab1")
    e_line = Subspace.span(3, [vunit(3, 0)])
    tilted = Subspace.span(4, [(2, 0, 0, 1)])
    cases = [(verify_p37, sl2, e_line, vunit(3, 0), vunit(3, 1)),
             (verify_p37, sl2, e_line, (1, 0, 0), (0, Fraction(-1, 2), 0)),
             (verify_p38, sl2, e_line, vunit(3, 0), vunit(3, 1)),
             (verify_p38, sl2, e_line, (-2, 0, 0), (0, 1, 0)),
             (verify_p38, sl2, e_line, vzero(3), vzero(3)),
             (verify_p38, total, tilted, (0, 0, 0, 1), (2, 0, 0, 1))]
    sites = recorded_clear_sites(monkeypatch)
    for verify, alg, h, g, hh in cases:
        sites.clear()
        report = verify(alg, identity_cert(alg), h, g, hh)
        assert set(sites) <= {"Matrix", "LYAlgebra", verify.__name__}, sites
        clears = 1 if verify is verify_p38 else report.details["stab_dim"]
        assert sites.count(verify.__name__) == clears


def direction(row) -> tuple[Fraction, ...]:
    """A nonzero row over its first nonzero entry: equal for two rows exactly
    when one is a multiple of the other."""
    lead = next(x for x in row if x)
    return tuple(Fraction(x) / lead for x in row)


def test_solvers_clear_no_row_of_their_own_systems(monkeypatch):
    """The twisted, centroid, stabilizer, center, quasi and hat-map solves
    hand their integer rows to the elimination as they are: no ``_clear``
    call during a solve clears a multiple of a row of its system.  Each
    system is rebuilt here from its definition, in Fractions: the identity
    rows (θ = ϑ, θ ≠ ϑ and the centroid's), the stabilizer's residue rows,
    the center's rows, and the rows (product | image) of the quasi
    companions and of the hat map.  The algebra is rebased, so every scale
    is other than 1."""
    from lya import derivations
    from lya.derivations import (_identity_rows, centroid, dhat, g_derivation_space,
                                 is_quasi_derivation)
    from lya.exactlin import _images, _residue
    from lya.lyalg import triple
    from lya.maps import _map_rows
    from lya.structure import center

    alg, p, p_inv = rebased(catalog("sl2_plus_ab1"), 11)
    n = alg.dim
    basis = [vunit(n, i) for i in range(n)]
    swap = certify_automorphism(alg, p_inv.mul(Matrix.from_rows(SUM_CHEVALLEY)).mul(p))
    ident = identity_cert(alg)
    # The line of 2e + a: the derivations that keep it are a proper subspace.
    h = Subspace.span(n, [p_inv.mul_vec((2, 0, 0, 1))])
    d_map = derivation_space(alg).maps()[0]
    a1, e1 = (p_inv.mul(Matrix.from_rows([[int(i == j == k) for j in range(4)]
                                                    for i in range(4)])).mul(p) for k in (3, 0))

    def twisted_rows(t, v):
        return (_identity_rows(alg, 2, [(None, t), (v, None)])
                + _identity_rows(alg, 3, [(None, t, v), (v, None, t), (t, v, None)]))

    def stabilizer_rows():
        twisted = derivation_space(alg)
        residues = [[_residue(h, w) for w in _images(f, h)] for f in _map_rows(twisted.space)]
        return [[r[b][l] for r in residues] for b in range(h.dim) for l in range(n)]

    def center_rows():
        rows = [[bracket(alg, g, e) for g in basis] for e in basis]
        rows += [[triple(alg, g, e, x) for g in basis] for e in basis for x in basis]
        rows += [[triple(alg, e, x, g) for g in basis] for e in basis for x in basis]
        return [[v[l] for v in r] for r in rows for l in range(n)]

    def product_rows(f):
        """(product | image) on every basis pair and triple, for the
        companion that f prescribes on products."""
        fb = [f.mul_vec(e) for e in basis]
        rows = [bracket(alg, x, y) + vadd(bracket(alg, fx, y), bracket(alg, x, fy))
                for x, fx in zip(basis, fb) for y, fy in zip(basis, fb)]
        rows += [triple(alg, x, y, z) + vadd(vadd(triple(alg, fx, y, z), triple(alg, x, fy, z)),
                                             triple(alg, x, y, fz))
                 for x, fx in zip(basis, fb) for y, fy in zip(basis, fb)
                 for z, fz in zip(basis, fb)]
        return rows

    def hat_rows(f, theta):
        rows = [bracket(alg, x, y) + derivations.dhat_binary_rhs(alg, f, theta.map, x, y)
                for x in basis for y in basis]
        rows += [triple(alg, x, y, z) + derivations.dhat_ternary_rhs(alg, f, theta.map, x, y, z)
                 for x in basis for y in basis for z in basis]
        return rows

    t, s = swap.map, ident.map
    cases = [
        ("twisted, θ = ϑ", twisted_rows(t, t), lambda: g_derivation_space(alg, swap, swap)),
        ("twisted, θ ≠ ϑ", twisted_rows(t, s), lambda: g_derivation_space(alg, swap, ident)),
        ("centroid", _identity_rows(alg, 2, [(None, s)]) + _identity_rows(alg, 3, [(None, s, s)]),
         lambda: centroid(alg)),
        ("stabilizer", stabilizer_rows(), lambda: stabilizer_derivations(alg, ident, h)),
        ("center", center_rows(), lambda: center(alg)),
        ("quasi, feasible", product_rows(d_map), lambda: is_quasi_derivation(alg, d_map)),
        ("quasi, a1", product_rows(a1), lambda: is_quasi_derivation(alg, a1)),
        ("quasi, infeasible", product_rows(e1), lambda: is_quasi_derivation(alg, e1)),
        ("hat map, consistent", hat_rows(a1, swap), lambda: dhat(alg, a1, swap)),
        ("hat map, clash", hat_rows(ident.map, ident), lambda: dhat(alg, ident.map, ident)),
    ]
    cleared = []
    recorded_clear_sites(monkeypatch, cleared)
    results, clears = {}, 0
    for name, rows, solve in cases:
        system = {direction(r) for r in rows if any(r)}
        assert system, name
        cleared.clear()
        results[name] = solve()
        clears += len(cleared)
        assert not system & {direction(r) for r in cleared if any(r)}, name
    assert clears  # the solves' own results are cleared
    assert 0 < results["stabilizer"].dim < results["twisted, θ = ϑ"].dim
    assert results["quasi, feasible"] is not None and results["quasi, infeasible"] is None
    assert results["hat map, consistent"].consistent and not results["hat map, clash"].consistent
