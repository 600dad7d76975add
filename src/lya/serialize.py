"""JSON file formats and canonical report encoding.

Rationals travel as base-10 strings "p/q" (or "p" when the denominator is
one) with the sign on the numerator, which is exactly how Fraction parses
and prints them.  All dumps are canonical: sorted keys, fixed separators,
trailing newline, so identical values serialize to identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Sequence

from .errors import InputError
from .exactlin import Matrix, Subspace, Vec, vec, vec_strs, vis_zero, vzero
from .lyalg import (LeibnizAlgebra, LYAlgebra, Tensor3, Tensor4, _nonzero_vectors, _tensor_form,
                    tensor3)
from .maps import LinMap
from .derivations import DerSpace, DhatResult, PartialMap, QuasiWitness
from .theorems import PropReport


def strs_vec(items: Sequence, expect_len: int | None = None) -> Vec:
    if not isinstance(items, (list, tuple)):
        raise InputError("expected a list of rational strings")
    v = vec(items)
    if expect_len is not None and len(v) != expect_len:
        raise InputError(f"expected {expect_len} coefficients, got {len(v)}")
    return v


def parse_vector_arg(text: str, expect_len: int | None = None) -> Vec:
    """Inline vector: comma-separated rational strings."""
    parts = [p.strip() for p in text.split(",")] if text.strip() else []
    return strs_vec(parts, expect_len)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InputError(message)


def _is_int(x) -> bool:
    """JSON integer; JSON booleans decode to bool, which Python counts as int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _get_dim(data: dict) -> int:
    _require(isinstance(data, dict), "expected a JSON object")
    dim = data.get("dim")
    _require(_is_int(dim) and dim >= 0, "'dim' must be a nonnegative integer")
    return dim


def _get_labels(data: dict, n: int) -> tuple[str, ...]:
    labels = data.get("labels")
    if labels is None:
        return tuple(f"e{i + 1}" for i in range(n))
    _require(isinstance(labels, list) and len(labels) == n
             and all(isinstance(x, str) for x in labels),
             "'labels' must be a list of dim strings")
    return tuple(labels)


def _get_entries(data: dict, key: str) -> list:
    entries = data.get(key, [])
    _require(isinstance(entries, list), f"'{key}' must be a list of entries")
    return entries


def raw_algebra_from_dict(data: dict) -> tuple[int, tuple[str, ...], Tensor3, Tensor4]:
    """Decode tensors without checking the axioms.

    Binary entries are [i, j, coeffs] with i < j, ternary entries are
    [i, j, k, coeffs] with i < j; the alternating counterparts are filled in
    and everything unlisted is zero.
    """
    n = _get_dim(data)
    labels = _get_labels(data, n)
    c = [[list(vzero(n)) for _ in range(n)] for _ in range(n)]
    d = [[[list(vzero(n)) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    seen_binary = set()
    for entry in _get_entries(data, "binary"):
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
    for entry in _get_entries(data, "ternary"):
        _require(isinstance(entry, list) and len(entry) == 4,
                 "ternary entry must be [i, j, k, coeffs]")
        i, j, k, coeffs = entry
        _require(all(_is_int(x) for x in (i, j, k)), "ternary indices must be integers")
        _require(0 <= i < j < n and 0 <= k < n,
                 f"ternary indices must satisfy 0 <= i < j < dim and 0 <= k < dim, got ({i}, {j}, {k})")
        _require((i, j, k) not in seen_ternary, f"duplicate ternary entry ({i}, {j}, {k})")
        seen_ternary.add((i, j, k))
        v = strs_vec(coeffs, n)
        d[i][j][k] = list(v)
        d[j][i][k] = [-x for x in v]
    c_t = tuple(tuple(tuple(x for x in row) for row in plane) for plane in c)
    d_t = tuple(tuple(tuple(tuple(x for x in v) for v in plane) for plane in cube) for cube in d)
    return n, labels, c_t, d_t


def algebra_from_dict(data: dict) -> LYAlgebra:
    n, labels, c, d = raw_algebra_from_dict(data)
    return LYAlgebra(n, labels, c, d)


def algebra_to_dict(algebra: LYAlgebra) -> dict:
    # Both products are alternating in their first two slots, so the tuples
    # with i < j carry every product.
    binary, ternary = ([[*idx, vec_strs(v)]
                        for idx, v in _nonzero_vectors(_tensor_form(algebra, arity), algebra.dim)
                        if idx[0] < idx[1]] for arity in (2, 3))
    return {
        "dim": algebra.dim,
        "labels": list(algebra.labels),
        "binary": binary,
        "ternary": ternary,
    }


def lie_tensor_from_dict(data: dict) -> tuple[Tensor3, tuple[str, ...]]:
    """Binary-only algebra file read as a Lie bracket tensor."""
    n, labels, c, d = raw_algebra_from_dict(data)
    for plane in d:
        for row in plane:
            for v in row:
                _require(vis_zero(v), "a Lie input must not carry ternary entries")
    return c, labels


def leibniz_from_dict(data: dict) -> LeibnizAlgebra:
    """Product entries [i, j, coeffs] with no symmetry assumed."""
    n = _get_dim(data)
    labels = _get_labels(data, n)
    p = [[list(vzero(n)) for _ in range(n)] for _ in range(n)]
    seen = set()
    for entry in _get_entries(data, "product"):
        _require(isinstance(entry, list) and len(entry) == 3, "product entry must be [i, j, coeffs]")
        i, j, coeffs = entry
        _require(_is_int(i) and _is_int(j), "product indices must be integers")
        _require(0 <= i < n and 0 <= j < n, f"product indices out of range: ({i}, {j})")
        _require((i, j) not in seen, f"duplicate product entry ({i}, {j})")
        seen.add((i, j))
        p[i][j] = list(strs_vec(coeffs, n))
    return LeibnizAlgebra(n, labels, tensor3(p))


def map_from_dict(data: dict) -> LinMap:
    n = _get_dim(data)
    matrix = data.get("matrix")
    _require(isinstance(matrix, list) and len(matrix) == n, "'matrix' must have dim rows")
    rows = [strs_vec(row, n) for row in matrix]
    return LinMap(n, Matrix(n, n, tuple(rows)))


def map_to_dict(f: LinMap) -> dict:
    return {"dim": f.dim, "matrix": [vec_strs(row) for row in f.matrix.entries]}


def subspace_from_dict(data: dict) -> Subspace:
    _require(isinstance(data, dict), "expected a JSON object")
    ambient = data.get("ambient")
    _require(_is_int(ambient) and ambient >= 0, "'ambient' must be a nonnegative integer")
    basis = data.get("basis", [])
    _require(isinstance(basis, list), "'basis' must be a list of vectors")
    return Subspace.span(ambient, [strs_vec(row, ambient) for row in basis])


def subspace_to_dict(s: Subspace) -> dict:
    return {"ambient": s.ambient_dim, "basis": [vec_strs(row) for row in s.basis]}


def derspace_to_dict(space: DerSpace) -> dict:
    return {
        "alg_dim": space.alg_dim,
        "dim": space.dim,
        "maps": [map_to_dict(f)["matrix"] for f in space.maps()],
        "theta": map_to_dict(space.theta.map) if space.theta else None,
        "vartheta": map_to_dict(space.vartheta.map) if space.vartheta else None,
    }


def map_space_to_dict(space: Subspace, alg_dim: int) -> dict:
    maps = [map_to_dict(LinMap.unflatten(alg_dim, row))["matrix"] for row in space.basis]
    return {"alg_dim": alg_dim, "dim": space.dim, "maps": maps}


def quasi_witness_to_dict(w: QuasiWitness) -> dict:
    return {"dprime": map_to_dict(w.dprime), "dprimeprime": map_to_dict(w.dprimeprime)}


def partial_map_to_dict(p: PartialMap) -> dict:
    return {
        "domain": subspace_to_dict(p.domain),
        "matrix": [vec_strs(row) for row in p.matrix_on_domain.entries],
    }


def dhat_result_to_dict(r: DhatResult) -> dict:
    out: dict[str, Any] = {"consistent": r.consistent}
    out["map"] = partial_map_to_dict(r.map) if r.map else None
    if r.clash:
        coeffs = vec_strs(coeff for _, coeff in r.clash.terms)
        out["clash"] = {
            "terms": [{"kind": tag[0], "indices": list(tag[1:]), "coeff": coeff}
                      for (tag, _), coeff in zip(r.clash.terms, coeffs)],
            "mismatch": vec_strs(r.clash.mismatch),
        }
    else:
        out["clash"] = None
    return out


def report_to_dict(r: PropReport) -> dict:
    return {
        "prop": r.prop_id,
        "instance": r.instance,
        "hypotheses_met": r.hypotheses_met,
        "hypotheses": [[name, ok] for name, ok in r.hypotheses],
        "conclusion_holds": r.conclusion_holds,
        "witness": r.witness,
        "details": r.details,
    }


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def read_json_file(path: str | Path) -> tuple[bytes, Any]:
    """Read a file once and return its bytes with the JSON value they hold."""
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {p}: {exc}") from exc
    try:
        # Newlines are normalized as a text-mode read would, so error
        # positions count lines the same way.
        text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {p}: not UTF-8 text: {exc}") from exc
    try:
        return raw, json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {p}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past the digit limit
        raise InputError(f"cannot read {p}: {exc}") from exc


def load_json_file(path: str | Path) -> Any:
    return read_json_file(path)[1]


def write_text_file(path: str | Path, text: str) -> None:
    p = Path(path)
    try:
        p.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {p}: {exc}") from exc


def save_json_file(path: str | Path, obj) -> None:
    write_text_file(path, canonical_json(obj))
