"""Dense references, instances, twists and helpers shared by the test modules.

A plain module that pytest does not collect: each test module imports what
it needs from here, and no test module imports another.  The references
are oracles for the library: products are plain ``Fraction`` loops over
dense tensors, such as the views ``c`` and ``d``, algebras are built
through public constructors, and no private ``lya`` name is imported, so no
reference runs the stored-form code it checks (``lyalg._transport``,
``exactlin._rref``).
"""

import functools
import io
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from lya.cli import main
from lya.derivations import QuasiWitness
from lya.errors import AxiomError, InputError
from lya.exactlin import (Matrix, invert, nullspace, solve, subspace_intersect, vadd, vscale,
                          vunit, vzero)
from lya.lyalg import (CATALOG_NAMES, LYAlgebra, catalog, check_axioms, direct_sum,
                       from_leibniz, from_lie)
from lya.maps import certify_automorphism
from lya.serialize import algebra_from_dict, raw_algebra_from_dict, strs_vec

# -- dense products ------------------------------------------------------------

def _support(v):
    return [a for a, x in enumerate(v) if x]


def contraction_oracle_binary(c, g, h):
    """Scalar-by-scalar contraction of two coordinate vectors against a dense
    product tensor, coded independently of the stored form."""
    terms = [(g[a] * h[b], c[a][b]) for a in _support(g) for b in _support(h)]
    return tuple(sum((x * v[k] for x, v in terms), Fraction(0)) for k in range(len(c)))


def contraction_oracle_ternary(d, g, h, i):
    terms = [(g[a] * h[b] * i[e], d[a][b][e])
             for a in _support(g) for b in _support(h) for e in _support(i)]
    return tuple(sum((x * v[k] for x, v in terms), Fraction(0)) for k in range(len(d)))


def keyed(tensor, key=()):
    """The nonzero entries of a dense nested tensor as Fractions, keyed by
    their indices, the last one a vector's coordinate, as a stored form
    keys them."""
    if tensor and not isinstance(tensor[0], (list, tuple)):
        return {key + (l,): Fraction(x) for l, x in enumerate(tensor) if x}
    return {k: x for i, sub in enumerate(tensor) for k, x in keyed(sub, key + (i,)).items()}


def dense_form(c, d):
    """The form, as ``LYAlgebra`` and ``check_axioms`` take it, of the dense
    structure tensors c[i][j][l] and d[i][j][k][l], every entry taken as
    given."""
    return 1, keyed(c), keyed(d)


def from_tensors(labels, c, d):
    """The algebra of the dense structure tensors c and d."""
    return LYAlgebra(len(labels), tuple(labels), dense_form(c, d))


def lie_from_tensor(c, labels=None):
    """``from_lie`` of the dense bracket c[i][j][l]."""
    return from_lie(len(c), (1, keyed(c)), labels)


def leibniz_from_tensor(labels, product):
    """``from_leibniz`` of the dense product tensor product[i][j][l]."""
    return from_leibniz(len(labels), (1, keyed(product)), tuple(labels))


def lie_bracket(n, entries, antisymmetric=True):
    """The dense bracket of dimension n with x added at [e_i, e_j]_l, and -x
    at [e_j, e_i]_l when ``antisymmetric``, for each (i, j, l, x)."""
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, l, x in entries:
        c[i][j][l] += x
        if antisymmetric:
            c[j][i][l] -= x
    return c


# -- a seeded rational change of basis -----------------------------------------

def random_basis(n, seed):
    """A seeded random invertible rational P and its inverse."""
    rng = random.Random(seed)
    while True:
        p = Matrix.from_rows([[Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))
                               for _ in range(n)] for _ in range(n)])
        p_inv = invert(p)
        if p_inv is not None:
            return p, p_inv


def _apply(rows, v):
    """The matrix with Fraction rows ``rows`` times v."""
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in rows)


def transported(a, p, p_inv):
    """``a`` in the basis of P's columns: products P^-1 T(P e_i, P e_j[, P e_k])."""
    n, c, d, back, cols = a.dim, a.c, a.d, p_inv.entries, list(zip(*p.entries))
    moved_c = [[_apply(back, contraction_oracle_binary(c, cols[i], cols[j])) for j in range(n)]
               for i in range(n)]
    moved_d = [[[_apply(back, contraction_oracle_ternary(d, cols[i], cols[j], cols[k]))
                 for k in range(n)] for j in range(n)] for i in range(n)]
    return from_tensors(a.labels, moved_c, moved_d)


def transported_product(product, p, p_inv):
    """The dense product tensor product[i][j][l] in the basis of P's
    columns: P^-1 (P e_i . P e_j)."""
    n, back, cols = len(product), p_inv.entries, list(zip(*p.entries))
    return [[_apply(back, contraction_oracle_binary(product, cols[i], cols[j])) for j in range(n)]
            for i in range(n)]


def rebased(a, seed):
    """``a`` in the seeded random rational basis P, with P and P^-1."""
    p, p_inv = random_basis(a.dim, seed)
    return transported(a, p, p_inv), p, p_inv


# -- the command line and maps -------------------------------------------------

def run_cli(*argv):
    """Exit code and stdout of the command line on ``argv``, in-process."""
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


def unflat(n, flat):
    """The map whose matrix is the vector ``flat`` read row-major, as
    ``Matrix.flatten`` writes it."""
    return Matrix.from_rows([flat[i * n:(i + 1) * n] for i in range(n)], cols=n)


def rand_map(rng, n):
    return Matrix.from_rows([[Fraction(rng.randint(-3, 3), rng.choice([1, 2, 5]))
                              for _ in range(n)] for _ in range(n)], cols=n)


def shifted(rng, f):
    """f with one seeded entry raised by 1/3."""
    n = f.rows
    rows = [list(r) for r in f.entries]
    rows[rng.randrange(n)][rng.randrange(n)] += Fraction(1, 3)
    return Matrix.from_rows(rows)


# -- instances and twists ------------------------------------------------------

# e <-> f, h -> -h in the catalog's (e, f, h) basis of sl2, and the same on
# sl2_plus_ab1 with the line negated.
CHEVALLEY = [[0, 1, 0], [1, 0, 0], [0, 0, -1]]
SUM_CHEVALLEY = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]


def chevalley_cert():
    return certify_automorphism(catalog("sl2"), Matrix.from_rows(CHEVALLEY))


def neg_cert(name):
    a = catalog(name)
    return certify_automorphism(a, Matrix.identity(a.dim).scale(-1))


def h5():
    """[x_i, y_i] = z on (x1, x2, y1, y2, z)."""
    return lie_from_tensor(lie_bracket(5, [(0, 2, 4, 1), (1, 3, 4, 1)]))


def gl(m):
    """[E_ij, E_kl] = delta_jk E_il - delta_li E_kj on the units E_ij at mi + j."""
    units = [(i, j) for i in range(m) for j in range(m)]
    brackets = []
    for (a, (i, j)), (b, (k, l)) in itertools.combinations(enumerate(units), 2):
        if j == k:
            brackets.append((a, b, m * i + l, 1))
        if l == i:
            brackets.append((a, b, m * k + j, -1))
    return lie_from_tensor(lie_bracket(m * m, brackets))


def gl2():
    return gl(2)


# x_i -> y_i, y_i -> -x_i, z -> z on h5
H5_SWAP = [[0, 0, -1, 0, 0], [0, 0, 0, -1, 0], [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 1]]
# On gl2 (units E_ij at 2i + j): X -> -X^T and conjugation by diag(1, 2).
GL2_TWISTS = [[[-1, 0, 0, 0], [0, 0, -1, 0], [0, -1, 0, 0], [0, 0, 0, -1]],
              [[1, 0, 0, 0], [0, Fraction(1, 2), 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]]]


@functools.cache
def covariance_cases():
    """(algebra, twists): the catalog (from_leibniz of leibniz2 among it), two
    direct sums, h5 and gl2, each with its automorphisms above."""
    twists = {"sl2": [chevalley_cert().map], "lts_sl2": [neg_cert("lts_sl2").map]}
    cases = [(catalog(name), twists.get(name, [])) for name in CATALOG_NAMES]
    cases += [(direct_sum(catalog("aff2"), catalog("h3")), []),
              (direct_sum(catalog("lts_sl2"), catalog("abelian1")), []),
              (h5(), [Matrix.from_rows(H5_SWAP)]),
              (gl2(), [Matrix.from_rows(rows) for rows in GL2_TWISTS])]
    return cases


# -- the dense views are never read --------------------------------------------

def _refuse(name, _algebra):
    raise AssertionError(f"the dense tensor {name} was read")


def without_dense_tensors(monkeypatch):
    """Make the dense views c and d of every algebra fail on any read."""
    for name in ("c", "d"):
        monkeypatch.setattr(LYAlgebra, name, property(functools.partial(_refuse, name)))


# -- the dense loader ----------------------------------------------------------

def _require(cond, message):
    if not cond:
        raise InputError(message)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def dense_loader(data):
    """The algebra file as dense tensors (n, labels, c, d), every InputError
    message as the loader raised it."""
    _require(isinstance(data, dict), "expected a JSON object")
    n = data.get("dim")
    _require(_is_int(n) and n >= 0, "'dim' must be a nonnegative integer")
    labels = data.get("labels")
    if labels is None:
        labels = [f"e{i + 1}" for i in range(n)]
    _require(isinstance(labels, list) and len(labels) == n
             and all(isinstance(x, str) for x in labels), "'labels' must be a list of dim strings")

    def entries(key):
        found = data.get(key, [])
        _require(isinstance(found, list), f"'{key}' must be a list of entries")
        return found

    c = [[list(vzero(n)) for _ in range(n)] for _ in range(n)]
    d = [[[list(vzero(n)) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    seen_binary = set()
    for entry in entries("binary"):
        _require(isinstance(entry, list) and len(entry) == 3, "binary entry must be [i, j, coeffs]")
        i, j, coeffs = entry
        _require(_is_int(i) and _is_int(j), "binary indices must be integers")
        _require(0 <= i < j < n, f"binary indices must satisfy 0 <= i < j < dim, got ({i}, {j})")
        _require((i, j) not in seen_binary, f"duplicate binary entry ({i}, {j})")
        seen_binary.add((i, j))
        v = strs_vec(coeffs, n)
        c[i][j] = list(v)
        c[j][i] = [-x for x in v]
    seen_ternary = set()
    for entry in entries("ternary"):
        _require(isinstance(entry, list) and len(entry) == 4,
                 "ternary entry must be [i, j, k, coeffs]")
        i, j, k, coeffs = entry
        _require(all(_is_int(x) for x in (i, j, k)), "ternary indices must be integers")
        _require(0 <= i < j < n and 0 <= k < n,
                 "ternary indices must satisfy 0 <= i < j < dim and 0 <= k < dim, "
                 f"got ({i}, {j}, {k})")
        _require((i, j, k) not in seen_ternary, f"duplicate ternary entry ({i}, {j}, {k})")
        seen_ternary.add((i, j, k))
        v = strs_vec(coeffs, n)
        d[i][j][k] = list(v)
        d[j][i][k] = [-x for x in v]
    return n, tuple(labels), c, d


def form_values(n, form):
    """The rational structure constants of a form whose entries are nonzero
    integers at keys inside dimension n, keyed as in the form."""
    scale, binary, ternary = form
    assert all(type(x) is int and x for part in (binary, ternary) for x in part.values())
    assert all(len(key) == 3 and max(key) < n for key in binary)
    assert all(len(key) == 4 and max(key) < n for key in ternary)
    return {key: Fraction(x, scale) for part in (binary, ternary) for key, x in part.items()}


def assert_form_is(n, form, c, d):
    """The form is the canonical cleared form of the dense tensors c, d: their
    nonzero entries times their least common denominator."""
    values = {(i, j, l): x for i, row in enumerate(c) for j, v in enumerate(row)
              for l, x in enumerate(v) if x}
    values.update({(i, j, k, l): x for i, plane in enumerate(d) for j, row in enumerate(plane)
                   for k, v in enumerate(row) for l, x in enumerate(v) if x})
    assert form_values(n, form) == values
    assert form[0] == math.lcm(*(x.denominator for x in values.values()))


def compare_with_dense_loader(obj):
    """The loader and its dense reference agree on ``obj``: the same
    InputError message, or the form of the same tensors with the same
    axiom failures."""
    try:
        want = dense_loader(obj)
    except InputError as exc:
        with pytest.raises(InputError) as err:
            raw_algebra_from_dict(obj)
        assert str(err.value) == str(exc)
        return
    n, labels, form = raw_algebra_from_dict(obj)
    assert (n, labels) == want[:2]
    assert_form_is(n, form, *want[2:])
    failures = check_axioms(n, dense_form(*want[2:]))
    try:
        assert algebra_from_dict(obj).form == form and not failures
    except AxiomError as exc:
        assert exc.failures == failures and failures


# -- references for the solvers ------------------------------------------------

def stabilizer_reference(algebra, twisted, h):
    """n*n-wide membership rows for H, intersected with the twisted space."""
    n = algebra.dim
    red = [[Fraction(int(l == p)) for p in range(n)] for l in range(n)]
    for r, a in enumerate(h.pivots):
        for l in range(n):
            red[l][a] -= h.basis[r][l]
    rows = []
    for b in h.basis:
        for l in range(n):
            rows.append(tuple(red[l][p] * b[q] for p in range(n) for q in range(n)))
    if not rows:
        return twisted
    return subspace_intersect(twisted, nullspace(Matrix(len(rows), n * n, (1, tuple(rows)))))


def dense_identity_rows(tensor, arity, terms):
    """Rows of f(T(e_I)) - sum over terms of T(..., f e_{I_s}, ...) = 0, from
    the dense tensor: one row per ordered basis tuple I and coordinate l,
    zero rows included; entry (p, q) of f sits at column p*n + q.  Each term
    lists the basis images of a fixed map per slot, None where f goes."""
    n = len(tensor)
    units = [vunit(n, i) for i in range(n)]
    evaluate = contraction_oracle_binary if arity == 2 else contraction_oracle_ternary
    base = {idx: functools.reduce(operator.getitem, idx, tensor)
            for idx in itertools.product(range(n), repeat=arity)}
    twisted = []
    for term in terms:
        entries = {idx: evaluate(tensor, *(units[i] if images is None else images[i]
                                           for i, images in zip(idx, term)))
                   for idx in base}
        twisted.append((term.index(None), entries))
    rows = []
    for idx, value in base.items():
        for l in range(n):
            row = [Fraction(0)] * (n * n)
            for a, x in enumerate(value):
                row[l * n + a] += x
            for s, entries in twisted:
                for a in range(n):
                    row[a * n + idx[s]] -= entries[idx[:s] + (a,) + idx[s + 1:]][l]
            rows.append(tuple(row))
    return rows


def quasi_reference(algebra, d_map):
    """Both companions from one system in 2*n*n unknowns, D' first."""
    n = algebra.dim
    c, d = algebra.c, algebra.d
    units = [vunit(n, i) for i in range(n)]
    du = [d_map.mul_vec(u) for u in units]
    pad = (Fraction(0),) * (n * n)
    rows = [r + pad for r in dense_identity_rows(c, 2, [])]
    rows += [pad + r for r in dense_identity_rows(d, 3, [])]
    rhs = []
    for i, j in itertools.product(range(n), repeat=2):
        rhs.extend(vadd(contraction_oracle_binary(c, du[i], units[j]),
                        contraction_oracle_binary(c, units[i], du[j])))
    for i, j, k in itertools.product(range(n), repeat=3):
        val = vadd(contraction_oracle_ternary(d, du[i], units[j], units[k]),
                   contraction_oracle_ternary(d, units[i], du[j], units[k]))
        rhs.extend(vadd(val, contraction_oracle_ternary(d, units[i], units[j], du[k])))
    solution = solve(Matrix(len(rows), 2 * n * n, (1, tuple(rows))), rhs)
    if solution is None:
        return None
    return QuasiWitness(unflat(n, solution[: n * n]),
                        unflat(n, solution[n * n:]))


def quasi_system_by_probing(algebra, d_map):
    """Oracle assembler for the companion system: probe each unknown entry.

    Returns (matrix, rhs) with unknowns ordered as (dprime, dprimeprime),
    assembled by plugging unit matrices into the companion side and reading
    the right-hand side off direct product evaluations.
    """
    n = algebra.dim
    c, d = algebra.c, algebra.d
    units = [vunit(n, i) for i in range(n)]
    du = [d_map.mul_vec(u) for u in units]
    pairs = list(itertools.product(range(n), repeat=2))
    triples = list(itertools.product(range(n), repeat=3))
    n_rows = (len(pairs) + len(triples)) * n
    columns = []
    for block, flat in itertools.product(range(2), range(n * n)):
        unit_map = unflat(n, vunit(n * n, flat))
        col = []
        for i, j in pairs:
            col.extend(unit_map.mul_vec(c[i][j]) if block == 0 else vzero(n))
        for i, j, k in triples:
            col.extend(unit_map.mul_vec(d[i][j][k]) if block == 1 else vzero(n))
        columns.append(col)
    rhs = []
    for i, j in pairs:
        rhs.extend(vadd(contraction_oracle_binary(c, du[i], units[j]),
                        contraction_oracle_binary(c, units[i], du[j])))
    for i, j, k in triples:
        val = vadd(contraction_oracle_ternary(d, du[i], units[j], units[k]),
                   contraction_oracle_ternary(d, units[i], du[j], units[k]))
        rhs.extend(vadd(val, contraction_oracle_ternary(d, units[i], units[j], du[k])))
    m = Matrix(n_rows, 2 * n * n, (1, tuple(
        tuple(columns[q][r] for q in range(2 * n * n)) for r in range(n_rows))))
    return m, tuple(rhs)


def prescribed_binary(c, d_map, theta, g, h):
    """The hat map's prescribed image of the binary product of g and h, from
    the dense tensor c: 2D[g, h] + [Dh, θg] + [θh, Dg]."""
    val = vscale(2, d_map.mul_vec(contraction_oracle_binary(c, g, h)))
    val = vadd(val, contraction_oracle_binary(c, d_map.mul_vec(h), theta.mul_vec(g)))
    return vadd(val, contraction_oracle_binary(c, theta.mul_vec(h), d_map.mul_vec(g)))


def prescribed_ternary(d, d_map, theta, g, h, i):
    """The hat map's prescribed image of the ternary product of g, h and i,
    from the dense tensor d: 3D{g, h, i} + {Dg, θh, i} + {g, Dh, θi} + {θg, h, Di}."""
    val = vscale(3, d_map.mul_vec(contraction_oracle_ternary(d, g, h, i)))
    val = vadd(val, contraction_oracle_ternary(d, d_map.mul_vec(g), theta.mul_vec(h), i))
    val = vadd(val, contraction_oracle_ternary(d, g, d_map.mul_vec(h), theta.mul_vec(i)))
    return vadd(val, contraction_oracle_ternary(d, theta.mul_vec(g), h, d_map.mul_vec(i)))


def clash_sums(algebra, d_map, clash):
    """A hat-map clash re-read from the dense tensors, with theta = id: its
    combination of product generators and of their prescribed images."""
    n = algebra.dim
    c, d, ident, units = algebra.c, algebra.d, Matrix.identity(n), [vunit(n, i) for i in range(n)]
    combo, rhs = vzero(n), vzero(n)
    for tag, coeff in clash.terms:
        if tag[0] == "binary":
            _, i, j = tag
            combo = vadd(combo, vscale(coeff, c[i][j]))
            rhs = vadd(rhs, vscale(coeff, prescribed_binary(c, d_map, ident, units[i], units[j])))
        else:
            _, i, j, k = tag
            combo = vadd(combo, vscale(coeff, d[i][j][k]))
            rhs = vadd(rhs, vscale(coeff, prescribed_ternary(d, d_map, ident, units[i], units[j],
                                                             units[k])))
    return combo, rhs
