import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from lya.errors import AxiomError, InputError, MathError
from lya.exactlin import Matrix, invert, vadd, vec, vscale, vunit, vzero
from lya.lyalg import (
    CATALOG_NAMES,
    AxiomFailure,
    AxiomReport,
    LYAlgebra,
    LeibnizAlgebra,
    abelian,
    bracket,
    catalog,
    check_axioms,
    direct_sum,
    from_leibniz,
    from_lie,
    leibniz2,
    sl2_lie_tensor,
    tensor3,
    tensor4,
    triple,
    zero_tensor3,
    zero_tensor4,
)

E, F, H = 0, 1, 2  # sl2 basis order used by the catalog


def _support(v):
    return [a for a, x in enumerate(v) if x]


def contraction_oracle_binary(c, g, h):
    """Scalar-by-scalar tensor contraction, coded independently of binary_eval."""
    terms = [(g[a] * h[b], c[a][b]) for a in _support(g) for b in _support(h)]
    return tuple(sum((x * v[k] for x, v in terms), Fraction(0)) for k in range(len(c)))


def contraction_oracle_ternary(d, g, h, i):
    terms = [(g[a] * h[b] * i[e], d[a][b][e])
             for a in _support(g) for b in _support(h) for e in _support(i)]
    return tuple(sum((x * v[k] for x, v in terms), Fraction(0)) for k in range(len(d)))


def rand_vec(rng, n):
    return vec([Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(n)])


def test_sl2_bracket_h_e():
    a = catalog("sl2")
    assert bracket(a, vunit(3, H), vunit(3, E)) == vec([2, 0, 0])
    assert bracket(a, vunit(3, H), vunit(3, F)) == vec([0, -2, 0])
    assert bracket(a, vunit(3, E), vunit(3, F)) == vec([0, 0, 1])


def test_bracket_matches_contraction_oracle():
    rng = random.Random(5)
    for name in ("sl2", "aff2", "sl2_plus_ab1"):
        a = catalog(name)
        for _ in range(5):
            g, h = rand_vec(rng, a.dim), rand_vec(rng, a.dim)
            assert bracket(a, g, h) == contraction_oracle_binary(a.c, g, h)


def test_bracket_alternating():
    rng = random.Random(6)
    for name in CATALOG_NAMES:
        a = catalog(name)
        g = rand_vec(rng, a.dim)
        assert bracket(a, g, g) == vzero(a.dim)


def test_abelian_bracket_zero():
    a = abelian(3)
    assert bracket(a, vunit(3, 0), vunit(3, 1)) == vzero(3)


def test_sl2_triple_e_f_e():
    a = catalog("sl2")
    # {e,f,e} = [[e,f],e] = [h,e] = 2e
    assert triple(a, vunit(3, E), vunit(3, F), vunit(3, E)) == vec([2, 0, 0])
    assert triple(a, vunit(3, E), vunit(3, F), vunit(3, E)) == contraction_oracle_ternary(
        a.d, vunit(3, E), vunit(3, F), vunit(3, E))


def test_triple_alternating_in_first_two_slots():
    rng = random.Random(7)
    for name in CATALOG_NAMES:
        a = catalog(name)
        g, i = rand_vec(rng, a.dim), rand_vec(rng, a.dim)
        assert triple(a, g, g, i) == vzero(a.dim)


def test_lts_sl2_triple_e_f_h_vanishes():
    a = catalog("lts_sl2")
    # {e,f,h} = [[e,f],h] = [h,h] = 0 in the underlying Lie algebra
    assert triple(a, vunit(3, E), vunit(3, F), vunit(3, H)) == vzero(3)
    assert a.c == zero_tensor3(3)


def test_multilinearity_on_random_combinations():
    rng = random.Random(8)
    for name in ("sl2", "aff2", "sl2_plus_ab1", "leibniz2"):
        a = catalog(name)
        n = a.dim
        u, v, w = rand_vec(rng, n), rand_vec(rng, n), rand_vec(rng, n)
        s, t = Fraction(2, 3), Fraction(-5, 2)
        combo = vadd(vscale(s, u), vscale(t, v))
        assert bracket(a, combo, w) == vadd(vscale(s, bracket(a, u, w)),
                                            vscale(t, bracket(a, v, w)))
        assert triple(a, w, combo, u) == vadd(vscale(s, triple(a, w, u, u)),
                                              vscale(t, triple(a, w, v, u)))


def test_vector_length_mismatch_rejected():
    a = catalog("sl2")
    with pytest.raises(InputError):
        bracket(a, [1, 0], [0, 1, 0])
    with pytest.raises(InputError):
        triple(a, [1, 0, 0], [0, 1], [0, 0, 1])


def test_check_axioms_passes_on_catalog_and_constructions():
    for name in CATALOG_NAMES:
        a = catalog(name)
        assert check_axioms(a.dim, a.c, a.d).passed


def test_from_lie_recovers_binary_tensor():
    lie = sl2_lie_tensor()
    a = from_lie(lie, labels=("e", "f", "h"))
    assert a.c == lie


def test_from_lie_heisenberg_has_zero_ternary():
    a = catalog("h3")
    n = a.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert a.d[i][j][k] == vzero(n)


def test_from_lie_rejects_non_jacobi():
    # [e1,e2] = e1, [e1,e3] = e2, [e2,e3] = 0 fails Jacobi on (1,2,3)
    n = 3
    c = [[list(vzero(n)) for _ in range(n)] for _ in range(n)]
    c[0][1][0] = Fraction(1)
    c[1][0][0] = Fraction(-1)
    c[0][2][1] = Fraction(1)
    c[2][0][1] = Fraction(-1)
    with pytest.raises(MathError) as err:
        from_lie(c)
    assert "Jacobi" in str(err.value)


def test_from_lie_rejects_non_antisymmetric():
    c = [[[Fraction(1)]]]
    with pytest.raises(MathError):
        from_lie(c)


def test_leibniz2_collapses_to_abelian_like():
    a = catalog("leibniz2")
    assert a.c == zero_tensor3(2)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert a.d[i][j][k] == vzero(2)


def test_lie_algebra_viewed_as_leibniz():
    # A Lie bracket is a left Leibniz product; skew-symmetrizing an already
    # antisymmetric product returns it unchanged: (b - (-b))/2 = b.
    lie = sl2_lie_tensor()
    b = LeibnizAlgebra.from_tensor(("e", "f", "h"), lie)
    a = from_leibniz(b)
    assert a.c == lie
    assert check_axioms(a.dim, a.c, a.d).passed


def test_leibniz_identity_rejection():
    # x.x = x is not left Leibniz: x(xx) = x while (xx)x + x(xx) = 2x
    p = [[[Fraction(1)]]]
    with pytest.raises(MathError) as err:
        LeibnizAlgebra.from_tensor(("x",), p)
    assert "Leibniz" in str(err.value)


def test_zero_product_leibniz_gives_abelian():
    b = LeibnizAlgebra.from_tensor(("u", "v"), zero_tensor3(2))
    a = from_leibniz(b)
    assert a.c == zero_tensor3(2)


def test_direct_sum_blocks():
    a = catalog("sl2_plus_ab1")
    assert a.dim == 4
    # cross-block products vanish
    assert bracket(a, vunit(4, 0), vunit(4, 3)) == vzero(4)
    assert triple(a, vunit(4, 0), vunit(4, 1), vunit(4, 3)) == vzero(4)
    # sl2 block keeps its products
    assert bracket(a, vunit(4, E), vunit(4, F)) == vec([0, 0, 1, 0])


def test_direct_sum_of_abelians():
    s = direct_sum(abelian(1), abelian(2))
    assert s.c == zero_tensor3(3)


def test_direct_sum_with_zero_dim():
    a = catalog("sl2")
    s = direct_sum(a, abelian(0))
    assert s.c == a.c and s.d == a.d


def test_lts_sl2_cyclic_ternary_sum_vanishes():
    a = catalog("lts_sl2")
    n = a.dim
    for g in range(n):
        for h in range(n):
            for i in range(n):
                s = vadd(vadd(a.d[g][h][i], a.d[h][i][g]), a.d[i][g][h])
                assert s == vzero(n)


def test_catalog_unknown_name_rejected():
    with pytest.raises(InputError):
        catalog("so3")


def test_catalog_abelian_spelling_variants():
    assert catalog("abelian(3)") == catalog("abelian3")


@pytest.mark.parametrize("name", ["abelian(3", "abelian3)", "abelian", "abelian()",
                                  "abelian3\n", "abelian(3)\n", "abelian\u0663", "xabelian3"])
def test_catalog_rejects_malformed_abelian_names(name):
    """Only abelianN and abelian(N), with N in ASCII digits, name an abelian algebra."""
    with pytest.raises(InputError, match="unknown catalog name"):
        catalog(name)


def test_symmetrized_binary_fails_ly1():
    a = catalog("sl2")
    c = [[list(v) for v in row] for row in a.c]
    c[F][E] = [x for x in c[E][F]]  # symmetrize one pair
    report = check_axioms(3, tensor3(c), a.d)
    assert not report.passed
    assert any(f.axiom == "LY1" and f.indices == (E, F) for f in report.failures)


def test_single_sign_flip_in_ternary_fails_ly2():
    a = catalog("sl2")
    d = [[[list(v) for v in plane] for plane in row] for row in a.d]
    d[E][F][E] = [-x for x in d[E][F][E]]
    report = check_axioms(3, a.c, tensor4(d))
    assert not report.passed
    assert any(f.axiom == "LY2" and f.indices[:2] == (E, F) for f in report.failures)


def test_broken_jacobi_fails_ly3():
    # flip the sign of the [h,e] pair only; Jacobi on (e,f,h) then fails
    c = [[list(v) for v in row] for row in sl2_lie_tensor()]
    c[H][E] = [-x for x in c[H][E]]
    c[E][H] = [-x for x in c[E][H]]
    report = check_axioms(3, tensor3(c), zero_tensor4(3))
    assert not report.passed
    assert {f.axiom for f in report.failures} == {"LY3"}


def test_corrupted_ternary_entry_fails_higher_axiom():
    a = catalog("sl2")
    d = [[[list(v) for v in plane] for plane in row] for row in a.d]
    # keep the alternating symmetry so LY1/LY2 still hold
    d[E][F][H][0] += Fraction(1)
    d[F][E][H][0] -= Fraction(1)
    report = check_axioms(3, a.c, tensor4(d))
    assert not report.passed
    tags = {f.axiom for f in report.failures}
    assert tags and tags <= {"LY3", "LY4", "LY5", "LY6"}


def test_invalid_tensors_cannot_construct_algebra():
    a = catalog("sl2")
    c = [[list(v) for v in row] for row in a.c]
    c[F][E] = [x for x in c[E][F]]
    with pytest.raises(AxiomError) as err:
        LYAlgebra.from_tensors(a.labels, c, a.d)
    assert err.value.report.failures[0].axiom == "LY1"


def test_zero_dimensional_algebra():
    a = abelian(0)
    assert a.dim == 0
    assert check_axioms(0, (), ()).passed


def axiom_oracle(n, c, d):
    """LY1-LY6 evaluated in Fraction arithmetic straight from the identities.

    Coded independently of check_axioms: products of basis vectors go
    through the contraction oracles and nothing is scaled.  Failures
    come identity by identity, each over the basis tuples in the order
    check_axioms scans them (LY2 with the last index outermost, LY3-LY6
    lexicographic).
    """
    e = [vunit(n, i) for i in range(n)]

    def bi(x, y):
        return contraction_oracle_binary(c, x, y)

    def tri(x, y, z):
        return contraction_oracle_ternary(d, x, y, z)

    def total(*terms):
        return tuple(sum(col, Fraction(0)) for col in zip(*terms))

    def neg(v):
        return tuple(-x for x in v)

    failures = []

    def record(tag, idx, res):
        if any(res):
            failures.append(AxiomFailure(tag, idx, total(res)))

    for i in range(n):
        for j in range(i, n):
            record("LY1", (i, j), bi(e[i], e[j]) if i == j
                   else total(bi(e[i], e[j]), bi(e[j], e[i])))
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                record("LY2", (i, j, k), tri(e[i], e[j], e[k]) if i == j
                       else total(tri(e[i], e[j], e[k]), tri(e[j], e[i], e[k])))
    idx = range(n)
    for g, h, i in itertools.product(idx, repeat=3):
        record("LY3", (g, h, i), total(
            tri(e[g], e[h], e[i]), tri(e[h], e[i], e[g]), tri(e[i], e[g], e[h]),
            bi(bi(e[g], e[h]), e[i]), bi(bi(e[h], e[i]), e[g]), bi(bi(e[i], e[g]), e[h])))
    for g, h, i, j in itertools.product(idx, repeat=4):
        record("LY4", (g, h, i, j), total(
            tri(bi(e[g], e[h]), e[i], e[j]), tri(bi(e[h], e[i]), e[g], e[j]),
            tri(bi(e[i], e[g]), e[h], e[j])))
    for g, h, i, j in itertools.product(idx, repeat=4):
        record("LY5", (g, h, i, j), total(
            tri(e[g], e[h], bi(e[i], e[j])),
            neg(bi(tri(e[g], e[h], e[i]), e[j])), neg(bi(e[i], tri(e[g], e[h], e[j])))))
    for g, h, i, j, k in itertools.product(idx, repeat=5):
        ghi, ghj, ghk = tri(e[g], e[h], e[i]), tri(e[g], e[h], e[j]), tri(e[g], e[h], e[k])
        record("LY6", (g, h, i, j, k), total(
            tri(e[g], e[h], tri(e[i], e[j], e[k])),
            neg(tri(ghi, e[j], e[k])), neg(tri(e[i], ghj, e[k])), neg(tri(e[i], e[j], ghk))))
    return AxiomReport(passed=not failures, failures=tuple(failures))


def change_basis(a, seed):
    """Structure constants of ``a`` in a seeded random rational basis."""
    rng = random.Random(seed)
    n = a.dim
    while True:
        p = Matrix.from_rows([[Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))
                               for _ in range(n)] for _ in range(n)])
        p_inv = invert(p)
        if p_inv is not None:
            break
    cols = [p.col(i) for i in range(n)]
    c = [[p_inv.mul_vec(contraction_oracle_binary(a.c, cols[i], cols[j])) for j in range(n)]
         for i in range(n)]
    d = [[[p_inv.mul_vec(contraction_oracle_ternary(a.d, cols[i], cols[j], cols[k]))
           for k in range(n)] for j in range(n)] for i in range(n)]
    return tensor3(c), tensor4(d)


def corrupt(rng, c, d, denominator):
    """Add p/denominator to a few random coordinates, half the time keeping
    the alternating symmetry of the touched pair."""
    n = len(c)
    c = [[list(v) for v in row] for row in c]
    d = [[[list(v) for v in plane] for plane in row] for row in d]
    for _ in range(rng.randint(1, 3)):
        q = Fraction(rng.choice([-3, -1, 1, 2]), denominator)
        alternating = rng.random() < 0.5
        if rng.random() < 0.4:
            i, j, l = (rng.randrange(n) for _ in range(3))
            c[i][j][l] += q
            if alternating and i != j:
                c[j][i][l] -= q
        else:
            i, j, k, l = (rng.randrange(n) for _ in range(4))
            d[i][j][k][l] += q
            if alternating and i != j:
                d[j][i][k][l] -= q
    return tensor3(c), tensor4(d)


def test_check_axioms_matches_oracle_on_catalog():
    for name in CATALOG_NAMES:
        a = catalog(name)
        assert check_axioms(a.dim, a.c, a.d) == axiom_oracle(a.dim, a.c, a.d)


def test_check_axioms_matches_oracle_after_rational_change_of_basis():
    a = catalog("sl2_plus_ab1")
    c, d = change_basis(a, seed=11)
    assert any(x.denominator > 1 for row in c for v in row for x in v)
    report = check_axioms(a.dim, c, d)
    assert report.passed
    assert report == axiom_oracle(a.dim, c, d)


def test_check_axioms_matches_oracle_on_seeded_corruptions():
    rng = random.Random(2024)
    # (c, d, corruptions per denominator); the dense four-dimensional case
    # is the slowest for the oracle, so it gets one of each.
    bases = [(catalog(name).c, catalog(name).d, 4) for name in ("sl2", "lts_sl2", "aff2")]
    bases.append((*change_basis(catalog("sl2"), seed=5), 4))
    bases.append((*change_basis(catalog("sl2_plus_ab1"), seed=11), 1))
    tags = set()
    for c0, d0, count in bases:
        for denominator in (2, 5):
            for _ in range(count):
                c, d = corrupt(rng, c0, d0, denominator)
                report = check_axioms(len(c), c, d)
                assert report == axiom_oracle(len(c), c, d)
                assert not report.passed
                tags |= {f.axiom for f in report.failures}
    assert {"LY1", "LY2", "LY3", "LY4", "LY5", "LY6"} <= tags


def stored_form_algebras():
    sl2_sum = catalog("sl2_plus_ab1")
    rebased = LYAlgebra.from_tensors(sl2_sum.labels, *change_basis(sl2_sum, seed=11))
    return {**{name: catalog(name) for name in CATALOG_NAMES},
            "sl2+h3": direct_sum(catalog("sl2"), catalog("h3")),
            "from_leibniz": from_leibniz(leibniz2()), "rebased": rebased}


@pytest.mark.parametrize("name", stored_form_algebras())
def test_stored_form_equals_the_dense_tensors(name):
    """The integer form kept on the algebra holds every nonzero of c and d,
    each times the least common denominator of all entries, and nothing else."""
    a = stored_form_algebras()[name]
    scale, cs, ds = a._form
    entries = [(i, j, l, x) for i, row in enumerate(a.c) for j, v in enumerate(row)
               for l, x in enumerate(v)]
    dense_d = [(i, j, k, l, x) for i, plane in enumerate(a.d) for j, row in enumerate(plane)
               for k, v in enumerate(row) for l, x in enumerate(v)]
    denominators = {e[-1].denominator for e in entries + dense_d}
    assert scale == math.lcm(*denominators)
    assert all(type(x) is int and x for x in [*cs.values(), *ds.values()])
    assert {e[:-1] for e in entries if e[-1]} == set(cs)
    assert {e[:-1] for e in dense_d if e[-1]} == set(ds)
    for *key, x in entries + dense_d:
        assert Fraction((cs if len(key) == 3 else ds).get(tuple(key), 0), scale) == x


def test_rebased_form_has_denominators():
    assert stored_form_algebras()["rebased"]._form[0] > 1


# SHA-256 of repr(catalog(name)), taken before the integer form was stored.
CATALOG_REPR_SHA256 = {
    "abelian1": "c97f6e42162e4b921f8e33d1d4a6e42da6bce876ec8ab791aca92306fd635dea",
    "abelian2": "dc34fda19e85dde750522c667971e0782d94d8f56773d1c5a5890d10deaecc44",
    "abelian3": "123ecb6f916ca8695cf3a2deb05b471c7dc2ff9e597217bdd492f63dab46f77f",
    "sl2": "f3d9b456d57d94427cd8c9391334e234f7bdee3eb379ebeb5f1b6b3fbdb45224",
    "h3": "7bdf34d2343b5d458f61f881e4b62430d92e297251a47fc1d4fbeb12ff7feb2b",
    "aff2": "80ef4edf27f62e19189d5657c7663deb328de37aec3f195e158279dbce271666",
    "lts_sl2": "66a5b9369173f38341f8c2ad5b86b93508dbc7574de2e4b1c7526b70ebf31244",
    "sl2_plus_ab1": "0b78288fb53f5f504d909f68ba60774eacc780d242e244aeef181138b1851059",
    "leibniz2": "c3f0d57821ff93e3b39159e2b08510fd02245cb60c001f32dcffc366eda28ae3",
}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_equality_hash_and_repr_ignore_the_stored_form(name, tmp_path):
    from lya.serialize import algebra_from_dict, algebra_to_dict, load_json_file, save_json_file

    a = catalog(name)
    save_json_file(tmp_path / "a.json", algebra_to_dict(a))
    b = algebra_from_dict(load_json_file(tmp_path / "a.json"))
    assert a is not b and a == b
    assert hash(a) == hash(b) == hash((a.dim, a.labels, a.c, a.d))
    assert repr(a) == repr(b)
    assert hashlib.sha256(repr(a).encode()).hexdigest() == CATALOG_REPR_SHA256[name]
