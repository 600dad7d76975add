import collections
import functools
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from lya import lyalg
from lya.errors import AxiomError, InputError, MathError
from lya.exactlin import Matrix, vadd, vec, vec_strs, vscale, vunit, vzero
from lya.lyalg import (
    CATALOG_NAMES,
    AxiomFailure,
    LYAlgebra,
    abelian,
    bracket,
    catalog,
    check_axioms,
    direct_sum,
    from_leibniz,
    from_lie,
    triple,
)
from reference import (contraction_oracle_binary, contraction_oracle_ternary, dense_form,
                       from_tensors, keyed, leibniz_from_tensor, lie_bracket, lie_from_tensor,
                       rebased, transported)

E, F, H = 0, 1, 2  # sl2 basis order used by the catalog
# The Chevalley bracket [e,f] = h, [h,e] = 2e, [h,f] = -2f of sl2, dense.
SL2_BRACKET = tuple(tuple(map(tuple, row))
                    for row in lie_bracket(3, [(E, F, H, 1), (H, E, E, 2), (H, F, F, -2)]))


def zero_tensor3(n):
    return tuple(tuple(vzero(n) for _ in range(n)) for _ in range(n))


def zero_tensor4(n):
    return tuple(zero_tensor3(n) for _ in range(n))


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
        assert not check_axioms(a.dim, a.form)


def test_from_lie_recovers_binary_tensor():
    a = lie_from_tensor(SL2_BRACKET, labels=("e", "f", "h"))
    assert a.c == SL2_BRACKET and a == catalog("sl2")


def test_from_lie_heisenberg_has_zero_ternary():
    a = catalog("h3")
    n, d = a.dim, a.d
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert d[i][j][k] == vzero(n)


def test_from_lie_rejects_non_jacobi():
    # [e1,e2] = e1, [e1,e3] = e2, [e2,e3] = 0 fails Jacobi on (1,2,3)
    n = 3
    c = [[list(vzero(n)) for _ in range(n)] for _ in range(n)]
    c[0][1][0] = Fraction(1)
    c[1][0][0] = Fraction(-1)
    c[0][2][1] = Fraction(1)
    c[2][0][1] = Fraction(-1)
    with pytest.raises(MathError) as err:
        lie_from_tensor(c)
    assert "Jacobi" in str(err.value)
    assert str(err.value) == "Jacobi identity fails at basis triple (0, 1, 2)"
    assert err.value.witness == {"indices": [0, 1, 2], "residual": ["0", "1", "0"]}


def test_from_lie_rejects_non_antisymmetric():
    c = [[[Fraction(1)]]]
    with pytest.raises(MathError) as err:
        lie_from_tensor(c)
    assert str(err.value) == "bracket of basis element 0 with itself is nonzero"
    assert err.value.witness == {"indices": [0, 0]}


@pytest.mark.parametrize("c, message, witness", [
    (lie_bracket(2, [(1, 1, 1, Fraction(3, 2))], antisymmetric=False),
     "bracket of basis element 1 with itself is nonzero", {"indices": [1, 1]}),
    (lie_bracket(3, [(0, 1, 0, Fraction(1)), (2, 2, 2, Fraction(1))], antisymmetric=False),
     "bracket is not antisymmetric at basis pair (0, 1)", {"indices": [0, 1]}),
    (lie_bracket(3, [(0, 1, 0, Fraction(1, 2)), (0, 2, 1, Fraction(2, 3)),
                     (1, 2, 2, Fraction(1, 5))]),
     "Jacobi identity fails at basis triple (0, 1, 2)",
     {"indices": [0, 1, 2], "residual": ["0", "1/5", "0"]}),
], ids=["self-bracket", "non-antisymmetric", "jacobi"])
def test_from_lie_errors_are_pinned(c, message, witness):
    """The message and witness of each kind of bracket error, pinned."""
    with pytest.raises(MathError) as err:
        lie_from_tensor(c)
    assert type(err.value) is MathError
    assert (str(err.value), err.value.witness) == (message, witness)


def iterated_bracket(c):
    """[[e_i, e_j], e_k] as a list of Fractions, keyed (i, j, k)."""
    n = len(c)
    return {(i, j, k): [sum((x * c[a][k][l] for a, x in support), Fraction(0)) for l in range(n)]
            for i, j in itertools.product(range(n), repeat=2)
            for support in [[(a, x) for a, x in enumerate(c[i][j]) if x]]
            for k in range(n)}


def lie_error_reference(c):
    """The error of the dense scan that checked a bracket before it was lifted,
    as (message, witness), or None for a Lie bracket: the first bad basis
    pair (i, j) with i <= j in lexicographic order, then the first basis
    triple in lexicographic order where sum_cyc [[e_i, e_j], e_k] is nonzero."""
    n = len(c)
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        if i == j and any(c[i][i]):
            return f"bracket of basis element {i} with itself is nonzero", {"indices": [i, i]}
        if i < j and any(x + y for x, y in zip(c[i][j], c[j][i])):
            return f"bracket is not antisymmetric at basis pair ({i}, {j})", {"indices": [i, j]}
    iterated = iterated_bracket(c)
    for i, j, k in itertools.product(range(n), repeat=3):
        res = [sum(col) for col in zip(iterated[i, j, k], iterated[j, k, i], iterated[k, i, j])]
        if any(res):
            return (f"Jacobi identity fails at basis triple ({i}, {j}, {k})",
                    {"indices": [i, j, k], "residual": vec_strs(res)})
    return None


def drawn_bracket(rng, rebased_brackets):
    """A bracket of dimension at most 5 with a few rational entries, one in
    five of them not antisymmetric; one in ten is one of ``rebased_brackets``
    with at most one antisymmetric change."""
    if rng.random() < 0.1:
        c = [[list(v) for v in row] for row in rng.choice(rebased_brackets)]
        n = len(c)
        if rng.random() < 0.5:
            i, j, l = rng.sample(range(n), 2) + [rng.randrange(n)]
            x = Fraction(rng.choice([-1, 1, 2]), rng.choice([1, 3]))
            c[i][j][l] += x
            c[j][i][l] -= x
        return c
    n = rng.randint(1, 5)
    entries = [(*(rng.randrange(n) for _ in range(3)),
                Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2, 3])))
               for _ in range(rng.randint(0, 4))]
    return lie_bracket(n, entries, antisymmetric=rng.random() < 0.8)


def test_from_lie_matches_the_dense_bracket_scan_on_drawn_brackets():
    """from_lie reads its bracket errors from the lifted algebra's axiom
    check; on 1200 seeded brackets each error equals the dense scan's, with
    the Jacobi residual as the scan gave it, and each Lie bracket lifts to
    the algebra with the bracket as c and the iterated bracket as d."""
    rng = random.Random(2023)
    rebased_brackets = [rebased(catalog(name), seed)[0].c for name in ("sl2", "h3", "aff2")
                        for seed in range(4)]
    seen = collections.Counter()
    for _ in range(1200):
        c = drawn_bracket(rng, rebased_brackets)
        n, want = len(c), lie_error_reference(c)
        if want is None:
            a, iterated = lie_from_tensor(c), iterated_bracket(c)
            assert a.c == tuple(tuple(tuple(v) for v in row) for row in c)
            assert a.d == tuple(tuple(tuple(tuple(iterated[i, j, k]) for k in range(n))
                                      for j in range(n)) for i in range(n))
            seen["lie", any(x.denominator > 1 for row in c for v in row for x in v)] += 1
            continue
        with pytest.raises(MathError) as err:
            lie_from_tensor(c)
        assert (str(err.value), err.value.witness) == want
        residual = want[1].get("residual", ())
        seen[" ".join(want[0].split()[:2]), any("/" in x for x in residual)] += 1
    assert min(seen[key] for key in [("lie", False), ("lie", True), ("bracket of", False),
                                     ("bracket is", False), ("Jacobi identity", False),
                                     ("Jacobi identity", True)]) >= 20, seen


def test_leibniz2_collapses_to_abelian_like():
    a = catalog("leibniz2")
    assert a.c == zero_tensor3(2)
    d = a.d
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert d[i][j][k] == vzero(2)


def test_lie_algebra_viewed_as_leibniz():
    # A Lie bracket is a left Leibniz product; skew-symmetrizing an already
    # antisymmetric product returns it unchanged: (b - (-b))/2 = b.
    a = leibniz_from_tensor(("e", "f", "h"), SL2_BRACKET)
    assert a.c == SL2_BRACKET
    assert not check_axioms(a.dim, a.form)


def test_leibniz_identity_rejection():
    # x.x = x is not left Leibniz: x(xx) = x while (xx)x + x(xx) = 2x
    p = [[[Fraction(1)]]]
    with pytest.raises(MathError) as err:
        leibniz_from_tensor(("x",), p)
    assert "Leibniz" in str(err.value)


def leibniz_reference(labels, p):
    """The dense check from_leibniz made before it read the cleared form:
    a(bc) - (ab)c - b(ac) contracted in Fractions on every basis triple, in
    lexicographic order.  Returns the MathError message and witness of the
    first failure, or else the repr of the from_leibniz image (half the
    commutator, minus a quarter of (ab)c)."""
    n = len(p)
    p = tuple(tuple(vec(v) for v in row) for row in p)
    e = [vunit(n, i) for i in range(n)]

    def mul(u, v):
        return contraction_oracle_binary(p, u, v)

    for a, b, c in itertools.product(range(n), repeat=3):
        res = vadd(mul(e[a], p[b][c]), vscale(-1, vadd(mul(p[a][b], e[c]), mul(e[b], p[a][c]))))
        if any(res):
            return (f"left Leibniz identity fails at basis triple ({a}, {b}, {c})",
                    {"indices": [a, b, c], "residual": vec_strs(res)})
    c = tuple(tuple(vscale(Fraction(1, 2), vadd(p[i][j], vscale(-1, p[j][i]))) for j in range(n))
              for i in range(n))
    d = tuple(tuple(tuple(vscale(Fraction(-1, 4), mul(p[i][j], e[k])) for k in range(n))
                    for j in range(n)) for i in range(n))
    return f"LYAlgebra(dim={n!r}, labels={labels!r}, c={c!r}, d={d!r})"


def test_leibniz_check_matches_the_dense_reference():
    """On seeded random products of dimension 1-3: the same verdict, error
    message and witness as the dense check, the same repr for the
    from_leibniz image, and one value for every scaling of a form."""
    rng = random.Random(2001)
    verdicts = []
    for _ in range(600):
        n = rng.randint(1, 3)
        density = rng.choice([0.05, 0.15, 0.3])
        p = [[[Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
               if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
             for _ in range(n)]
        labels = tuple(f"b{i}" for i in range(n))
        want = leibniz_reference(labels, p)
        entries = keyed(p)
        try:
            a = from_leibniz(n, (1, entries), labels)
        except MathError as err:
            assert (str(err), err.witness) == want
            verdicts.append(False)
            continue
        verdicts.append(True)
        assert repr(a) == want
        scale = math.lcm(*(x.denominator for x in entries.values()))
        k = rng.choice([2, 6, 35])
        for form in ((k * scale, {key: int(k * scale * x) for key, x in entries.items()}),
                     (k, {key: k * x for key, x in entries.items()})):
            twin = from_leibniz(n, form, labels)
            assert twin == a and hash(twin) == hash(a) and twin.form == a.form
    assert verdicts.count(True) > 150 and verdicts.count(False) > 150


def test_zero_product_leibniz_gives_abelian():
    a = leibniz_from_tensor(("u", "v"), zero_tensor3(2))
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
    n, d = a.dim, a.d
    for g in range(n):
        for h in range(n):
            for i in range(n):
                s = vadd(vadd(d[g][h][i], d[h][i][g]), d[i][g][h])
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


def test_catalog_refuses_an_oversized_abelian_before_building_it(monkeypatch):
    """abelian(N) with N above ABELIAN_MAX is refused with InputError before
    anything is built, and so is a name too long for int() to read; leading
    zeros do not count."""
    built = []
    monkeypatch.setattr(lyalg, "abelian", built.append)
    for name in (f"abelian({lyalg.ABELIAN_MAX + 1})", "abelian" + "9" * 5000,
                 "abelian(" + "0" * 5000 + "10001)"):
        with pytest.raises(InputError, match=r"^abelian\(N\) takes N at most 10000$"):
            catalog(name)
    assert built == []
    monkeypatch.undo()
    assert catalog("abelian(" + "0" * 5000 + "3)") == catalog("abelian3")
    assert catalog(f"abelian({lyalg.ABELIAN_MAX})").dim == lyalg.ABELIAN_MAX


def test_transport_skips_an_identity_as_it_skips_none():
    """An identity matrix in any slot, or as ``post``, gives the transport
    with None there: the stored entries themselves, unspread.  A matrix
    that is not the shared instance, given over another scale, is read as
    the identity all the same."""
    for name in CATALOG_NAMES:
        a = catalog(name)
        n = a.dim
        other = Matrix(n, n, (3, tuple(tuple(3 * int(i == j) for j in range(n)) for i in range(n))))
        assert other == Matrix.identity(n) and other is not Matrix.identity(n)
        for arity in (2, 3):
            keyed = lyalg._tensor_form(a, arity)
            for ident in (Matrix.identity(n), other):
                for s in range(arity):
                    maps = [ident if t == s else None for t in range(arity)]
                    assert lyalg._transport(keyed, maps) == lyalg._transport(keyed, [None] * arity)
                got = lyalg._transport(keyed, [ident] * arity, ident)
                assert got == keyed and got[1] is keyed[1]


@pytest.mark.parametrize("rows", [
    ((1,), (0,), (0,)),
    ((1, 0), (0, 1), (1, 1)),
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
], ids=["n x 1 column", "n x k, leading unit rows", "n x (n + 1), unit rows"])
def test_transport_never_takes_another_shape_for_the_identity(rows):
    """A 3 x k map in a slot sends e_j to its column j: the transport at
    (i, j) is the product of e_i with that column, whether or not the map's
    leading rows are unit rows."""
    a = catalog("sl2")
    m = Matrix(3, len(rows[0]), (1, rows))
    for arity, product in ((2, bracket), (3, lambda a, g, h: triple(a, g, h, vunit(3, 2)))):
        keyed = lyalg._transport(lyalg._tensor_form(a, arity), [None, m] + [None] * (arity - 2))
        for i in range(3):
            for j in range(m.cols):
                column = [row[j] for row in m.entries]
                at = (i, j) + (2,) * (arity - 2)
                assert lyalg._vector_at(keyed, at, 3) == product(a, vunit(3, i), column)


def test_symmetrized_binary_fails_ly1():
    a = catalog("sl2")
    c = [[list(v) for v in row] for row in a.c]
    c[F][E] = [x for x in c[E][F]]  # symmetrize one pair
    failures = check_axioms(3, dense_form(c, a.d))
    assert any(f.axiom == "LY1" and f.indices == (E, F) for f in failures)


def test_single_sign_flip_in_ternary_fails_ly2():
    a = catalog("sl2")
    d = [[[list(v) for v in plane] for plane in row] for row in a.d]
    d[E][F][E] = [-x for x in d[E][F][E]]
    failures = check_axioms(3, dense_form(a.c, d))
    assert any(f.axiom == "LY2" and f.indices[:2] == (E, F) for f in failures)


def test_broken_jacobi_fails_ly3():
    # flip the sign of the [h,e] pair only; Jacobi on (e,f,h) then fails
    c = [[list(v) for v in row] for row in SL2_BRACKET]
    c[H][E] = [-x for x in c[H][E]]
    c[E][H] = [-x for x in c[E][H]]
    failures = check_axioms(3, dense_form(c, zero_tensor4(3)))
    assert {f.axiom for f in failures} == {"LY3"}


def test_corrupted_ternary_entry_fails_higher_axiom():
    a = catalog("sl2")
    d = [[[list(v) for v in plane] for plane in row] for row in a.d]
    # keep the alternating symmetry so LY1/LY2 still hold
    d[E][F][H][0] += Fraction(1)
    d[F][E][H][0] -= Fraction(1)
    tags = {f.axiom for f in check_axioms(3, dense_form(a.c, d))}
    assert tags and tags <= {"LY3", "LY4", "LY5", "LY6"}


def test_invalid_tensors_cannot_construct_algebra():
    a = catalog("sl2")
    c = [[list(v) for v in row] for row in a.c]
    c[F][E] = [x for x in c[E][F]]
    with pytest.raises(AxiomError) as err:
        from_tensors(a.labels, c, a.d)
    assert err.value.failures[0].axiom == "LY1"


# Malformed forms of a binary product or a Leibniz product in dimension 2,
# each alternating, so that the malformation is its only fault.
MALFORMED = {
    "negative scale": (-1, {(0, 1, 0): 1, (1, 0, 0): -1}),
    "zero scale": (0, {(0, 1, 0): 1, (1, 0, 0): -1}),
    "float value": (1, {(0, 1, 0): 0.5, (1, 0, 0): -0.5}),
    "str value": (1, {(0, 1, 0): "1", (1, 0, 0): "-1"}),
    "key out of range": (1, {(0, 1, 2): 1, (1, 0, 2): -1}),
    "short key": (1, {(0, 1): 1, (1, 0): -1}),
}
# Forms of the wrong shape, each made from a well-shaped one; a matrix has
# no dict of entries.
RESHAPED = {
    "scale left out": lambda form: form[1:],
    "a part too many": lambda form: (*form, {}),
    "a list": list,
    "entries alone": lambda form: form[1],
    "entries not a dict": lambda form: (form[0], None, *form[2:]),
}
# Everything that takes a form, with the shape of its form: a matrix has no
# keys, so it takes the scale and the first value only, and an algebra's
# form has an empty ternary part.
FORM_TAKERS = {
    "Matrix": (lambda form: Matrix(1, 1, form),
               lambda scale, entries: (scale, ((next(iter(entries.values())),),))),
    "LYAlgebra": (lambda form: LYAlgebra(2, ("a", "b"), form),
                  lambda scale, entries: (scale, entries, {})),
    "from_leibniz": (lambda form: from_leibniz(2, form, ("a", "b")),
                     lambda scale, entries: (scale, entries)),
    "from_lie": (lambda form: from_lie(2, form), lambda scale, entries: (scale, entries)),
    "check_axioms": (lambda form: check_axioms(2, form),
                     lambda scale, entries: (scale, entries, {})),
}


@pytest.mark.parametrize("kind, taker", [(kind, taker) for kind in [*MALFORMED, *RESHAPED]
                                         for taker in FORM_TAKERS
                                         if taker != "Matrix" or "key" not in kind
                                         and "dict" not in kind])
def test_a_malformed_form_is_refused_where_it_is_cleared(kind, taker):
    """A scale that is not a positive integer, a value that is not an
    integer or a Fraction, a key that is not three indices in range, and a
    form that is not a tuple of the parts its taker expects or whose
    entries are not a dict are refused with InputError by every
    constructor, before any check."""
    take, shaped = FORM_TAKERS[taker]
    if kind in MALFORMED:
        with pytest.raises(InputError):
            take(shaped(*MALFORMED[kind]))
    else:
        with pytest.raises(InputError, match="form"):
            take(RESHAPED[kind](shaped(1, {(0, 1, 0): 1, (1, 0, 0): -1})))


@pytest.mark.parametrize("labels", [["e", "f", "h"], ("e", "f", 3), "efh", ("e", "f", "h", "k")],
                         ids=["list", "int label", "str", "too many"])
def test_labels_must_be_a_tuple_of_dim_strings(labels):
    """Labels that are not a tuple of dim strings are refused, as the file
    loader refuses them, before the algebra can reach a solver."""
    with pytest.raises(InputError, match="labels must be a tuple of dim strings"):
        LYAlgebra(3, labels, catalog("sl2").form)


@pytest.mark.parametrize("labels", [["e", "f", "h"], ("e", "f", 3), "efh", ("e", "f", "h", "k")],
                         ids=["list", "int label", "str", "too many"])
@pytest.mark.parametrize("lift", ["from_lie", "from_leibniz"])
def test_both_lifts_refuse_the_same_labels(lift, labels):
    """from_lie and from_leibniz follow LYAlgebra's one label rule: labels
    that are not a tuple of dim strings are refused, and neither lift turns
    them into strings."""
    bracket = catalog("sl2").form[:2]
    with pytest.raises(InputError, match="labels must be a tuple of dim strings"):
        {"from_lie": from_lie, "from_leibniz": from_leibniz}[lift](3, bracket, labels)
    assert from_lie(3, bracket).labels == ("e1", "e2", "e3")


def test_zero_dimensional_algebra():
    a = abelian(0)
    assert a.dim == 0
    assert not check_axioms(0, (1, {}, {}))


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
    return tuple(failures)


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
    return c, d


def test_check_axioms_matches_oracle_on_catalog():
    for name in CATALOG_NAMES:
        a = catalog(name)
        assert check_axioms(a.dim, a.form) == axiom_oracle(a.dim, a.c, a.d)


def test_check_axioms_matches_oracle_after_rational_change_of_basis():
    a = catalog("sl2_plus_ab1")
    moved = rebased(a, seed=11)[0]
    c, d = moved.c, moved.d
    assert any(x.denominator > 1 for row in c for v in row for x in v)
    assert check_axioms(a.dim, dense_form(c, d)) == () == axiom_oracle(a.dim, c, d)


def test_check_axioms_matches_oracle_on_seeded_corruptions():
    rng = random.Random(2024)
    # (c, d, corruptions per denominator); the dense four-dimensional case
    # is the slowest for the oracle, so it gets one of each.
    bases = [(catalog(name).c, catalog(name).d, 4) for name in ("sl2", "lts_sl2", "aff2")]
    bases += [(moved.c, moved.d, count) for moved, count in
              ((rebased(catalog("sl2"), 5)[0], 4), (rebased(catalog("sl2_plus_ab1"), 11)[0], 1))]
    tags = set()
    for c0, d0, count in bases:
        for denominator in (2, 5):
            for _ in range(count):
                c, d = corrupt(rng, c0, d0, denominator)
                failures = check_axioms(len(c), dense_form(c, d))
                assert failures == axiom_oracle(len(c), c, d)
                assert failures
                tags |= {f.axiom for f in failures}
    assert {"LY1", "LY2", "LY3", "LY4", "LY5", "LY6"} <= tags


def twinned(n, binary, ternary, denominator=1):
    """Dense c and d holding each given entry over ``denominator`` keyed
    (i, j, l) or (i, j, k, l), and its negated twin with i and j swapped."""
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    d = [[[[Fraction(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for (i, j, *rest, l), x in [*binary.items(), *ternary.items()]:
        tensor = c if not rest else d
        for a, b, sign in ((i, j, 1), (j, i, -1)):
            cell = tensor[a][b] if not rest else tensor[a][b][rest[0]]
            cell[l] += sign * Fraction(x, denominator)
    return c, d


# Forms on which LY1-LY4 hold and some inner map D(g, h) is not a
# derivation, so the failures come from combining the basis maps' defects.
INNER_MAP_FAILURES = {
    "LY5 only": (3, {(1, 2, 2): 1}, {(1, 2, 2, 0): -1}, {"LY5"}),
    "LY6 only": (2, {}, {(0, 1, 1, 1): -1}, {"LY6"}),
    "LY5 and LY6": (3, {(1, 2, 0): 1}, {(0, 2, 2, 2): 1, (0, 1, 1, 2): 1}, {"LY5", "LY6"}),
}


@pytest.mark.parametrize("name", INNER_MAP_FAILURES)
def test_check_axioms_lists_inner_map_failures_as_the_oracle(name):
    n, binary, ternary, tags = INNER_MAP_FAILURES[name]
    c, d = twinned(n, binary, ternary)
    failures = check_axioms(n, dense_form(c, d))
    assert failures == axiom_oracle(n, c, d)
    assert {f.axiom for f in failures} == tags


def test_check_axioms_matches_oracle_on_drawn_alternating_forms():
    """Small forms alternating in their first two slots give the oracle's
    failures."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def forms(n):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        binary = [(i, j, l) for i, j in pairs for l in range(n)]
        ternary = [(i, j, k, l) for i, j in pairs for k in range(n) for l in range(n)]
        return st.tuples(st.just(n),
                         st.dictionaries(st.sampled_from(binary), st.integers(-2, 2)),
                         st.dictionaries(st.sampled_from(ternary), st.integers(-2, 2)),
                         st.integers(1, 3))

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @hypothesis.given(st.integers(2, 3).flatmap(forms))
    def check(drawn):
        n, binary, ternary, denominator = drawn
        c, d = twinned(n, binary, ternary, denominator)
        assert check_axioms(n, dense_form(c, d)) == axiom_oracle(n, c, d)

    check()


def lie_type_forms():
    """(kind, c, d) with d the iterated bracket of c, that is Lie-type forms:
    ones that pass the axioms, ones that fail LY1 and ones that fail LY3
    (alternating brackets that fail Jacobi); and Lie-type forms with one
    ternary entry changed, alone or with its alternating twin.  Two of the
    changed forms, on h3 and aff2, still pass the axioms: they are not
    Lie-type, so only the full check can say so."""
    def lifted(c):
        n, iterated = len(c), iterated_bracket(c)
        return c, [[[iterated[i, j, k] for k in range(n)] for j in range(n)] for i in range(n)]

    def changed(c, d, idx, x, twin):
        d = [[[list(v) for v in plane] for plane in row] for row in d]
        i, j, k, l = idx
        d[i][j][k][l] += x
        if twin:
            d[j][i][k][l] -= x
        return c, d

    sl2_moved = [[list(v) for v in row] for row in rebased(catalog("sl2"), 5)[0].c]
    bent = [[list(v) for v in row] for row in sl2_moved]
    bent[0][1][2] += Fraction(1, 3)  # without its twin: LY1 fails at (0, 1)
    passing = [lifted(SL2_BRACKET), lifted(sl2_moved), lifted(catalog("h3").c),
               lifted(catalog("sl2_plus_ab1").c), lifted(catalog("aff2").c)]
    return ([("passes", *form) for form in passing]
            + [("fails LY1", *lifted(c)) for c in (
                lie_bracket(2, [(1, 1, 1, Fraction(3, 2))], antisymmetric=False),
                lie_bracket(3, [(0, 1, 0, Fraction(1)), (2, 2, 2, Fraction(1))],
                            antisymmetric=False), bent)]
            + [("fails LY3", *lifted(c)) for c in (
                lie_bracket(3, [(0, 1, 0, Fraction(1, 2)), (0, 2, 1, Fraction(2, 3)),
                                (1, 2, 2, Fraction(1, 5))]),
                lie_bracket(3, [(0, 1, 0, Fraction(1)), (0, 2, 1, Fraction(1))]))]
            + [("one ternary entry", *changed(*form, idx, x, twin)) for form, idx, x, twin in (
                (passing[0], (0, 1, 2, 2), Fraction(1), True),
                (passing[1], (2, 0, 1, 0), Fraction(-1, 2), True),
                (passing[1], (1, 1, 0, 2), Fraction(2), False),
                (passing[2], (0, 1, 0, 2), Fraction(1, 3), True),
                (passing[3], (0, 3, 3, 1), Fraction(1), False),
                (passing[4], (0, 1, 1, 0), Fraction(1), True))])


@pytest.mark.parametrize("kind, c, d", lie_type_forms(),
                         ids=[f"{kind}-{n}" for n, (kind, *_) in enumerate(lie_type_forms())])
def test_lie_type_forms_are_checked_as_the_oracle(kind, c, d, monkeypatch):
    """A Lie-type form that passes LY1 and LY3 is a Lie algebra's lift, so the
    check stops there and evaluates no inner-map defect; every other form
    takes the full check, and each lists the oracle's failures."""
    calls = []
    defect = lyalg._defect
    monkeypatch.setattr(lyalg, "_defect", lambda *args: calls.append(args) or defect(*args))
    failures = check_axioms(len(c), dense_form(c, d))
    assert failures == axiom_oracle(len(c), c, d)
    tags = [f.axiom for f in failures]
    assert bool(calls) == (kind != "passes")
    if kind == "passes":
        assert not failures
    elif kind == "fails LY1":
        assert tags[0] == "LY1"
    elif kind == "fails LY3":
        assert "LY3" in tags and "LY1" not in tags


def test_inner_map_defects_are_evaluated_once_per_basis_map(monkeypatch):
    """On lts_sl2 + abelian(7) the inner maps D(g, h) of the six pairs g != h
    in sl2 span ad(sl2), of dimension three, so LY5 and LY6 take three
    defects each.  The form is not Lie-type (its binary product is zero), so
    the check does not stop after LY3."""
    calls = []
    defect = lyalg._defect
    monkeypatch.setattr(lyalg, "_defect", lambda *args: calls.append(args) or defect(*args))
    a = direct_sum(catalog("lts_sl2"), abelian(7))
    calls.clear()
    assert not lyalg._check_form(a.dim, a.form)
    assert len(calls) == 6


def stored_form_algebras():
    """Each algebra's builder, called by its test, so that a construction
    that fails is a failed test and not a collection error."""
    return {**{name: functools.partial(catalog, name) for name in CATALOG_NAMES},
            "sl2+h3": lambda: direct_sum(catalog("sl2"), catalog("h3")),
            "from_leibniz": lambda: from_leibniz(
                3, (3, {(0, 1, 0): 1, (1, 0, 0): -1, (1, 2, 2): 1}), ("e1", "e2", "v")),
            "rebased": lambda: rebased(catalog("sl2_plus_ab1"), 11)[0]}


@pytest.mark.parametrize("name", stored_form_algebras())
def test_stored_form_equals_the_dense_tensors(name):
    """The integer form kept on the algebra holds every nonzero of c and d,
    each times the least common denominator of all entries, and nothing else."""
    a = stored_form_algebras()[name]()
    scale, cs, ds = a.form
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
    assert stored_form_algebras()["rebased"]().form[0] > 1


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


def restored(a, seed):
    """``a`` moved to a seeded rational basis, and moved back."""
    moved, p, p_inv = rebased(a, seed)
    return moved, transported(moved, p_inv, p)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_equality_hash_and_repr_ignore_the_stored_form(name, tmp_path):
    """A loaded copy equals the catalog algebra, hashes the same and prints
    the same repr; so does the algebra built from its dense tensors, as a
    direct sum with the zero algebra on either side and after a rational
    change of basis and back, whatever scale each construction cleared
    over.  Unequal catalog algebras compare unequal."""
    from lya.serialize import algebra_from_dict, algebra_to_dict, read_json_file, save_json_file

    a = catalog(name)
    save_json_file(tmp_path / "a.json", algebra_to_dict(a))
    b = algebra_from_dict(read_json_file(tmp_path / "a.json")[1])
    assert a is not b and a == b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b)
    assert hashlib.sha256(repr(a).encode()).hexdigest() == CATALOG_REPR_SHA256[name]
    moved, back = restored(a, seed=3)
    assert moved.form[0] > 1 or not (a.form[1] or a.form[2])
    zero = abelian(0)
    ways = [from_tensors(a.labels, a.c, a.d), direct_sum(a, zero),
            LYAlgebra(a.dim, a.labels, direct_sum(zero, a).form), back]
    for other in ways:
        assert other == a and hash(other) == hash(a) and repr(other) == repr(a)
    assert all(catalog(other) != a for other in CATALOG_NAMES if other != name)
