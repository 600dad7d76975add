"""Seeded benchmark inputs, built in plain ``Fraction`` arithmetic.

Nothing here imports ``lya``: the algebras, maps and expected answers come
from closed forms and one small rank computation, so that they can serve as
an oracle for it.

Conventions match lya's file formats.  A bracket tensor ``c[i][j]`` is the
coordinate vector of [e_i, e_j]; the ternary tensor of a Lie algebra is the
iterated bracket d[i][j][k] = [[e_i, e_j], e_k].  A map matrix ``m[i][j]``
holds coordinate i of the image of e_j.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

ZERO = Fraction(0)
ONE = Fraction(1)


# -- linear algebra over Q ---------------------------------------------------

def identity(n: int) -> list[list[Fraction]]:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), ZERO)
             for j in range(len(b[0]))] for i in range(len(a))]


def apply(m, v):
    return [sum((m[i][j] * v[j] for j in range(len(v))), ZERO) for i in range(len(m))]


def inverse(m):
    """Gauss-Jordan inverse, or None when ``m`` is singular."""
    n = len(m)
    rows = [list(m[i]) + identity(n)[i] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        rows[col] = [x / p for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def random_rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    """a/b with |a| <= 2 and 1 <= b <= 3; a != 0 when ``nonzero``."""
    a = rng.choice((-2, -1, 1, 2)) if nonzero else rng.randint(-2, 2)
    return Fraction(a, rng.randint(1, 3))


def random_basis_change(n: int, rng: random.Random):
    """Seeded invertible rational matrix P, with no zero entry, and its inverse.

    Without zeros every seed fills the tensors alike, so the work of a pass
    depends little on the seed.
    """
    while True:
        p = [[random_rational(rng, nonzero=True) for _ in range(n)] for _ in range(n)]
        p_inv = inverse(p)
        if p_inv is not None:
            return p, p_inv


# -- brackets -----------------------------------------------------------------

def zero_bracket(n: int):
    return [[[ZERO] * n for _ in range(n)] for _ in range(n)]


def heisenberg(k: int):
    """h_{2k+1} on (x1..xk, y1..yk, z) with [x_i, y_i] = z."""
    n = 2 * k + 1
    labels = [f"x{i + 1}" for i in range(k)] + [f"y{i + 1}" for i in range(k)] + ["z"]
    c = zero_bracket(n)
    for i in range(k):
        c[i][k + i][n - 1] = ONE
        c[k + i][i][n - 1] = -ONE
    return labels, c


def gl(m: int):
    """gl_m on the matrix units E_ij, index i*m + j:
    [E_ij, E_kl] = delta_jk E_il - delta_li E_kj."""
    n = m * m
    labels = [f"E{i + 1}{j + 1}" for i in range(m) for j in range(m)]
    c = zero_bracket(n)
    for i, j, k, l in ((i, j, k, l) for i in range(m) for j in range(m)
                       for k in range(m) for l in range(m)):
        if j == k:
            c[i * m + j][k * m + l][i * m + l] += ONE
        if l == i:
            c[i * m + j][k * m + l][k * m + j] -= ONE
    return labels, c


def bracket(c, u, v):
    n = len(c)
    out = [ZERO] * n
    for i, a in enumerate(u):
        if a == 0:
            continue
        for j, b in enumerate(v):
            if b == 0:
                continue
            ab = a * b
            for t, x in enumerate(c[i][j]):
                if x != 0:
                    out[t] += ab * x
    return out


def unit(n: int, i: int):
    return [ONE if t == i else ZERO for t in range(n)]


def iterated(c):
    """Ternary tensor d[i][j][k] = [[e_i, e_j], e_k]."""
    n = len(c)
    return [[[bracket(c, c[i][j], unit(n, k)) for k in range(n)]
             for j in range(n)] for i in range(n)]


def jacobi_residuals(c):
    """Nonzero [[a,b],c] + [[b,c],a] + [[c,a],b] on basis triples."""
    n = len(c)
    bad = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                res = [x + y + z for x, y, z in zip(
                    bracket(c, c[i][j], unit(n, k)),
                    bracket(c, c[j][k], unit(n, i)),
                    bracket(c, c[k][i], unit(n, j)))]
                if any(res):
                    bad.append((i, j, k))
    return bad


def transport_bracket(c, p, p_inv):
    """Structure constants in the basis f_a = sum_i p[i][a] e_i."""
    n = len(c)
    cols = [[p[i][a] for i in range(n)] for a in range(n)]
    return [[apply(p_inv, bracket(c, cols[a], cols[b])) for b in range(n)]
            for a in range(n)]


def conjugate(m, p, p_inv):
    """Matrix of the same map in the basis given by the columns of p."""
    return matmul(matmul(p_inv, m), p)


# -- closed-form maps ---------------------------------------------------------

def heisenberg_derivation(k: int):
    """x_i, y_i -> x_i, y_i and z -> 2z."""
    d = identity(2 * k + 1)
    d[2 * k][2 * k] = Fraction(2)
    return d


def heisenberg_automorphism(k: int):
    """x_i -> y_i, y_i -> -x_i, z -> z."""
    n = 2 * k + 1
    t = [[ZERO] * n for _ in range(n)]
    for i in range(k):
        t[k + i][i] = ONE
        t[i][k + i] = -ONE
    t[n - 1][n - 1] = ONE
    return t


def gl_inner_derivation(m: int, a):
    """ad_A: X -> AX - XA, for an m x m matrix A."""
    n = m * m
    d = [[ZERO] * n for _ in range(n)]
    for i in range(m):
        for j in range(m):
            # image of E_ij is A E_ij - E_ij A
            for r in range(m):
                d[r * m + j][i * m + j] += a[r][i]
                d[i * m + r][i * m + j] -= a[j][r]
    return d


def gl_automorphism(m: int):
    """X -> -X^T, so E_ij -> -E_ji."""
    n = m * m
    t = [[ZERO] * n for _ in range(n)]
    for i in range(m):
        for j in range(m):
            t[j * m + i][i * m + j] = -ONE
    return t


def rank(rows) -> int:
    """Rank over Q of a list of equal-length rows."""
    rows = [list(r) for r in rows if any(r)]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col] / rows[r][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def twisted_derivation_dim(c, theta) -> int:
    """dim of the maps f with, on all basis tuples,
    f[a,b] = [fa, theta b] + [a, fb] and
    f{a,b,e} = {fa, theta b, e} + {a, fb, theta e} + {theta a, b, fe},
    where {a,b,e} = [[a,b],e].

    The residual of these identities is linear in f; its values on the n*n
    matrix units are the columns of a matrix whose nullity is the answer.
    """
    n = len(c)
    units = [unit(n, i) for i in range(n)]
    th = [[theta[r][j] for r in range(n)] for j in range(n)]

    def tri(a, b, e):
        return bracket(c, bracket(c, a, b), e)

    columns = []
    for p in range(n):
        for q in range(n):
            # f = E_pq sends e_q to e_p and every other basis vector to 0
            f = [units[p] if j == q else [ZERO] * n for j in range(n)]

            def fv(v):
                return [v[q] * x for x in units[p]]

            res = []
            for a in range(n):
                for b in range(n):
                    lhs = fv(c[a][b])
                    rhs = [x + y for x, y in zip(bracket(c, f[a], th[b]),
                                                 bracket(c, units[a], f[b]))]
                    res.extend(x - y for x, y in zip(lhs, rhs))
                    for e in range(n):
                        lhs = fv(tri(units[a], units[b], units[e]))
                        terms = (tri(f[a], th[b], units[e]), tri(units[a], f[b], th[e]),
                                 tri(th[a], units[b], f[e]))
                        res.extend(x - sum(t[i] for t in terms)
                                   for i, x in enumerate(lhs))
            columns.append(res)
    return n * n - rank(list(zip(*columns)))


def quasi_obstruction(c, f):
    """A basis pair (i, j) with [e_i, e_j] = 0 but [f e_i, e_j] + [e_i, f e_j] != 0.

    Such a pair proves that f is not a quasi-derivation (no map can send the
    zero product to a nonzero value) and, with theta the identity, that the
    hat map of f clashes.  Returns None when there is none.
    """
    n = len(c)
    cols = [[f[r][j] for r in range(n)] for j in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if any(c[i][j]):
                continue
            val = [a + b for a, b in zip(bracket(c, cols[i], unit(n, j)),
                                         bracket(c, unit(n, i), cols[j]))]
            if any(val):
                return (i, j)
    return None


def random_obstructed_map(c, rng: random.Random):
    """Seeded random rational map that is provably not a quasi-derivation."""
    n = len(c)
    while True:
        f = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
        if quasi_obstruction(c, f) is not None:
            return f


# -- families and expected answers -------------------------------------------

def family(name: str, rng: random.Random) -> dict:
    """Bracket, closed-form derivation and automorphism of ``h<2k+1>`` or ``gl<m>``."""
    if name.startswith("h"):
        k = (int(name[1:]) - 1) // 2
        labels, c = heisenberg(k)
        return {"labels": labels, "c": c, "known_derivation": heisenberg_derivation(k),
                "automorphism": heisenberg_automorphism(k)}
    m = int(name[2:])
    labels, c = gl(m)
    while True:
        a = [[Fraction(rng.randint(-2, 2)) for _ in range(m)] for _ in range(m)]
        if any(a[i][j] for i in range(m) for j in range(m) if i != j):
            break
    return {"labels": labels, "c": c, "known_derivation": gl_inner_derivation(m, a),
            "automorphism": gl_automorphism(m)}


def expected(name: str) -> dict:
    """Basis-independent answers for the jobs on ``name``.

    ``der`` = dim Der, ``centroid`` = dim of the centroid, ``gder`` = dim of
    the derivations twisted by the automorphism, and ``dhat_known`` = whether
    the hat map of the known derivation (theta the identity) is consistent.
    For h_{2k+1} every iterated bracket vanishes, so the hat map of a
    derivation is consistent; for gl_m the ternary and binary prescriptions
    of a nonzero ad_A disagree on sl_m, so it clashes.
    """
    fam = family(name, random.Random(0))
    gder = twisted_derivation_dim(fam["c"], fam["automorphism"])
    if name.startswith("h"):
        k = (int(name[1:]) - 1) // 2
        return {"der": (2 * k + 1) * (k + 1), "centroid": 2 * k + 1, "gder": gder,
                "dhat_known": True}
    m = int(name[2:])
    return {"der": m * m, "centroid": 2, "gder": gder, "dhat_known": False}


# -- lya file formats ---------------------------------------------------------

def _strs(v) -> list[str]:
    return [str(x) for x in v]


def algebra_json(labels, c) -> dict:
    n = len(c)
    d = iterated(c)
    binary = [[i, j, _strs(c[i][j])] for i in range(n) for j in range(i + 1, n)
              if any(c[i][j])]
    ternary = [[i, j, k, _strs(d[i][j][k])] for i in range(n) for j in range(i + 1, n)
               for k in range(n) if any(d[i][j][k])]
    return {"dim": n, "labels": list(labels), "binary": binary, "ternary": ternary}


def map_json(m) -> dict:
    return {"dim": len(m), "matrix": [_strs(row) for row in m]}


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def write_family(out: Path, name: str, seed: int, dense: bool) -> dict[str, Path]:
    """Write the algebra and map files for one algebra and return their paths.

    With ``dense`` the algebra and every map are first moved to a seeded
    random rational basis, which keeps every answer but fills the tensors.
    """
    rng = random.Random(f"{seed}:{name}")
    fam = family(name, rng)
    c = fam["c"]
    maps = {"known": fam["known_derivation"], "theta": fam["automorphism"],
            "random": random_obstructed_map(c, rng)}
    if dense:
        p, p_inv = random_basis_change(len(c), rng)
        c = transport_bracket(c, p, p_inv)
        maps = {key: conjugate(m, p, p_inv) for key, m in maps.items()}
    tag = f"{name}-{'dense' if dense else 'sparse'}"
    files = {"algebra": out / f"{tag}.json"}
    write_json(files["algebra"], algebra_json(fam["labels"], c))
    for key, m in maps.items():
        files[key] = out / f"{tag}-{key}.json"
        write_json(files[key], map_json(m))
    return files
