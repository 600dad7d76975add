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

from . import derivations, exactlin, lyalg, maps, theorems
from .errors import InputError


def strs_vec(items: Sequence, expect_len: int | None = None) -> exactlin.Vec:
    if not isinstance(items, (list, tuple)):
        raise InputError("expected a list of rational strings")
    v = exactlin.vec(items)
    if expect_len is not None and len(v) != expect_len:
        raise InputError(f"expected {expect_len} coefficients, got {len(v)}")
    return v


def parse_vector_arg(text: str, expect_len: int | None = None) -> exactlin.Vec:
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


# Each entry kind: its number of indices, whether the first two must rise,
# and how an index out of range reads.
_ENTRY_KINDS = {
    "binary": (2, True, "indices must satisfy 0 <= i < j < dim, got "),
    "ternary": (3, True, "indices must satisfy 0 <= i < j < dim and 0 <= k < dim, got "),
    "product": (2, False, "indices out of range: "),
}


def _entry_vectors(data: dict, kind: str, n: int) -> dict[tuple[int, ...], exactlin.Vec]:
    """The coefficient vectors of a file's ``kind`` entries, [i, j, coeffs]
    or [i, j, k, coeffs], keyed by their indices; each entry's shape,
    indices, range and uniqueness are checked in that order."""
    arity, rising, out_of_range = _ENTRY_KINDS[kind]
    vectors: dict[tuple[int, ...], exactlin.Vec] = {}
    for entry in _get_entries(data, kind):
        _require(isinstance(entry, list) and len(entry) == arity + 1,
                 f"{kind} entry must be [{', '.join('ijk'[:arity])}, coeffs]")
        *idx, coeffs = entry
        idx = tuple(idx)
        _require(all(_is_int(x) for x in idx), f"{kind} indices must be integers")
        _require(all(0 <= x < n for x in idx) and (idx[0] < idx[1] or not rising),
                 f"{kind} {out_of_range}{idx}")
        _require(idx not in vectors, f"duplicate {kind} entry {idx}")
        vectors[idx] = strs_vec(coeffs, n)
    return vectors


def _product_entries(data: dict) -> tuple[int, tuple[str, ...], lyalg.Form]:
    """An algebra file's dimension, labels and form: its nonzero product
    entries over the scale 1, as :class:`~lya.lyalg.LYAlgebra` takes them.

    Binary entries are [i, j, coeffs] with i < j, ternary entries are
    [i, j, k, coeffs] with i < j; each is entered with its negated (j, i)
    twin, and everything unlisted is zero.
    """
    n = _get_dim(data)
    labels = _get_labels(data, n)
    products = []
    for kind in ("binary", "ternary"):
        part = {}
        for (i, j, *k), v in _entry_vectors(data, kind, n).items():
            for sign, idx in ((1, (i, j, *k)), (-1, (j, i, *k))):
                part.update({(*idx, l): sign * x for l, x in enumerate(v) if x})
        products.append(part)
    return n, labels, (1, *products)


def raw_algebra_from_dict(data: dict) -> tuple[int, tuple[str, ...], lyalg.Form]:
    """Decode an algebra file into its cleared form, without checking the
    axioms."""
    n, labels, form = _product_entries(data)
    return n, labels, lyalg._cleared(n, form, 3)


def algebra_from_dict(data: dict) -> lyalg.LYAlgebra:
    """Decode an algebra file into its algebra, which clears the form once
    and checks the axioms."""
    return lyalg.LYAlgebra(*_product_entries(data))


def algebra_to_dict(algebra: lyalg.LYAlgebra) -> dict:
    # Both products are alternating in their first two slots, so the tuples
    # with i < j carry every product.
    binary, ternary = ([[*idx, exactlin.vec_strs(exactlin._view(keyed[0], v))]
                        for idx, v in lyalg._vectors(keyed, algebra.dim) if idx[0] < idx[1]]
                       for keyed in (lyalg._tensor_form(algebra, arity) for arity in (2, 3)))
    return {
        "dim": algebra.dim,
        "labels": list(algebra.labels),
        "binary": binary,
        "ternary": ternary,
    }


def lie_bracket_from_dict(data: dict) -> tuple[int, lyalg.Keyed, tuple[str, ...]]:
    """Binary-only algebra file read as a Lie bracket: its dimension, the
    bracket as :func:`~lya.lyalg.from_lie` takes it, and its labels."""
    n, labels, (_, binary, ternary) = _product_entries(data)
    _require(not ternary, "a Lie input must not carry ternary entries")
    return n, (1, binary), labels


def leibniz_from_dict(data: dict) -> tuple[int, lyalg.Keyed, tuple[str, ...]]:
    """Product entries [i, j, coeffs] with no symmetry assumed: the
    dimension, the product as :func:`~lya.lyalg.from_leibniz` takes it, and
    the labels."""
    n = _get_dim(data)
    labels = _get_labels(data, n)
    product = {(i, j, l): x for (i, j), v in _entry_vectors(data, "product", n).items()
               for l, x in enumerate(v) if x}
    return n, (1, product), labels


def map_from_dict(data: dict) -> exactlin.Matrix:
    n = _get_dim(data)
    matrix = data.get("matrix")
    _require(isinstance(matrix, list) and len(matrix) == n, "'matrix' must have dim rows")
    rows = [strs_vec(row, n) for row in matrix]
    return exactlin.Matrix(n, n, (1, rows))


def map_to_dict(f: exactlin.Matrix) -> dict:
    return {"dim": f.rows, "matrix": exactlin._matrix_strs(f)}


def subspace_from_dict(data: dict) -> exactlin.Subspace:
    _require(isinstance(data, dict), "expected a JSON object")
    ambient = data.get("ambient")
    _require(_is_int(ambient) and ambient >= 0, "'ambient' must be a nonnegative integer")
    basis = data.get("basis", [])
    _require(isinstance(basis, list), "'basis' must be a list of vectors")
    return exactlin.Subspace.span(ambient, [strs_vec(row, ambient) for row in basis])


def subspace_to_dict(s: exactlin.Subspace) -> dict:
    return {"ambient": s.ambient_dim, "basis": [exactlin.vec_strs(row) for row in s.basis]}


def map_space_to_dict(space: exactlin.Subspace, alg_dim: int) -> dict:
    return {"alg_dim": alg_dim, "dim": space.dim,
            "maps": [exactlin._matrix_strs(f) for f in maps.basis_maps(space)]}


def derspace_to_dict(space: exactlin.Subspace, alg_dim: int, theta: exactlin.Matrix | None = None,
                     vartheta: exactlin.Matrix | None = None) -> dict:
    """:func:`map_space_to_dict` with the twist the maps satisfy; no twist
    means the untwisted derivation identities."""
    return map_space_to_dict(space, alg_dim) | {
        "theta": None if theta is None else map_to_dict(theta),
        "vartheta": None if vartheta is None else map_to_dict(vartheta),
    }


def quasi_witness_to_dict(w: derivations.QuasiWitness) -> dict:
    return {"dprime": map_to_dict(w.dprime), "dprimeprime": map_to_dict(w.dprimeprime)}


def dhat_result_to_dict(r: derivations.PartialMap | derivations.DhatClash) -> dict:
    """The hat map, or the clash that shows it does not exist."""
    if isinstance(r, derivations.PartialMap):
        return {"consistent": True, "clash": None, "map": {
            "domain": subspace_to_dict(r.domain),
            "matrix": exactlin._matrix_strs(r.matrix_on_domain),
        }}
    coeffs = exactlin.vec_strs(coeff for _, coeff in r.terms)
    return {"consistent": False, "map": None, "clash": {
        "terms": [{"kind": tag[0], "indices": list(tag[1:]), "coeff": coeff}
                  for (tag, _), coeff in zip(r.terms, coeffs)],
        "mismatch": exactlin.vec_strs(r.mismatch),
    }}


def report_to_dict(r: theorems.PropReport) -> dict:
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
    except RecursionError as exc:  # arrays or objects nested past the recursion limit
        raise InputError(f"cannot read {p}: JSON nested too deeply: {exc}") from exc


def write_text_file(path: str | Path, text: str) -> None:
    p = Path(path)
    try:
        p.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {p}: {exc}") from exc


def save_json_file(path: str | Path, obj) -> None:
    write_text_file(path, canonical_json(obj))
