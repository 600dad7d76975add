"""Command line surface: load algebras and maps from JSON files, dispatch
computations, and emit one canonical JSON report on standard output.

Exit codes: 0 on success or a passing verdict, 1 on a mathematical failure
(axiom violation, infeasibility, failed conclusion) or a failed internal
re-check (reported with ``"internal": true``), 2 on an input or usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from . import __version__
from .errors import InputError, InternalCheckError, LyaError
from .exactlin import Subspace
from .lyalg import LYAlgebra, catalog, check_axioms, from_leibniz, from_lie
from .maps import LinMap, certify_automorphism, identity_cert, inner_derivation
from .derivations import (
    centroid,
    derivation_space,
    dhat,
    g_derivation_space,
    is_quasi_derivation,
    stabilizer_derivations,
)
from .structure import center, derived_algebra
from .theorems import (
    CheckSpec,
    default_catalog_reports,
    reports_pass,
    verify_all,
)
from . import serialize as ser

MATH_FAILURE = 1
INPUT_ERROR = 2


class _Session:
    """Tracks loaded input files so every report can carry their hashes."""

    def __init__(self):
        self.inputs: list[dict] = []

    def load(self, path: str) -> dict:
        raw, data = ser.read_json_file(path)
        self.inputs.append({"path": path, "sha256": hashlib.sha256(raw).hexdigest()})
        return data


def _envelope(verb: str, session: _Session, result) -> dict:
    return {
        "tool": "lya",
        "version": __version__,
        "verb": verb,
        "inputs": session.inputs,
        "result": result,
    }


def _emit(out, verb: str, session: _Session, result, out_path: str | None = None) -> None:
    text = ser.canonical_json(_envelope(verb, session, result))
    # The file goes first: a failed write leaves only the error report on stdout.
    if out_path:
        ser.write_text_file(out_path, text)
    out.write(text)


def _load_algebra(session: _Session, path: str) -> LYAlgebra:
    return ser.algebra_from_dict(session.load(path))


def _load_map(session: _Session, ref: str, algebra: LYAlgebra) -> LinMap:
    if ref == "id":
        return LinMap.identity(algebra.dim)
    if ref == "neg":
        return LinMap.identity(algebra.dim).scale(-1)
    return ser.map_from_dict(session.load(ref))


def _load_cert(session: _Session, ref: str | None, algebra: LYAlgebra):
    if ref is None:
        return identity_cert(algebra)
    return certify_automorphism(algebra, _load_map(session, ref, algebra))


def _load_subspace(session: _Session, ref: str, algebra: LYAlgebra) -> Subspace:
    if ref == "full":
        return Subspace.full(algebra.dim)
    if ref == "zero":
        return Subspace.zero(algebra.dim)
    return ser.subspace_from_dict(session.load(ref))


def _vector(arg: str, algebra: LYAlgebra):
    return ser.parse_vector_arg(arg, algebra.dim)


def _config_path(base: Path, name) -> str:
    if not isinstance(name, str):
        raise InputError(f"a config 'file' reference must be a string, got {name!r}")
    return str(base / name)


def _resolve_config_map(session: _Session, ref, algebra: LYAlgebra, base: Path) -> LinMap:
    if isinstance(ref, str):
        if ref in ("id", "neg"):
            return _load_map(session, ref, algebra)
        return ser.map_from_dict(session.load(str(base / ref)))
    if isinstance(ref, dict):
        if "file" in ref:
            return ser.map_from_dict(session.load(_config_path(base, ref["file"])))
        if "matrix" in ref:
            return ser.map_from_dict({"dim": algebra.dim, "matrix": ref["matrix"]})
    raise InputError(f"cannot resolve map reference {ref!r}")


def _resolve_config_subspace(session: _Session, ref, algebra: LYAlgebra, base: Path) -> Subspace:
    if isinstance(ref, str):
        if ref in ("full", "zero"):
            return _load_subspace(session, ref, algebra)
        return ser.subspace_from_dict(session.load(str(base / ref)))
    if isinstance(ref, dict):
        if "file" in ref:
            return ser.subspace_from_dict(session.load(_config_path(base, ref["file"])))
        if "basis" in ref:
            return ser.subspace_from_dict({"ambient": algebra.dim, "basis": ref["basis"]})
    raise InputError(f"cannot resolve subspace reference {ref!r}")


def _checks_from_config(session: _Session, config: dict, algebra: LYAlgebra,
                        base: Path) -> list[CheckSpec]:
    if not isinstance(config, dict) or not isinstance(config.get("checks", None), list):
        raise InputError("config must be an object with a 'checks' list")
    checks = []
    for raw in config["checks"]:
        if not isinstance(raw, dict) or "prop" not in raw:
            raise InputError("each check needs at least a 'prop' field")
        kwargs = {"prop": str(raw["prop"]).upper(), "label": str(raw.get("label", ""))}
        if "theta" in raw:
            kwargs["theta"] = certify_automorphism(
                algebra, _resolve_config_map(session, raw["theta"], algebra, base))
        if "vartheta" in raw:
            kwargs["vartheta"] = certify_automorphism(
                algebra, _resolve_config_map(session, raw["vartheta"], algebra, base))
        if "subspace" in raw:
            kwargs["subspace"] = _resolve_config_subspace(
                session, raw["subspace"], algebra, base)
        if "map" in raw:
            kwargs["map"] = _resolve_config_map(session, raw["map"], algebra, base)
        for key in ("g", "h", "g1", "g2"):
            if key in raw:
                kwargs[key] = _vector(str(raw[key]), algebra)
        checks.append(CheckSpec(**kwargs))
    return checks


def _cmd_check(args, session, out) -> int:
    data = session.load(args.algebra)
    n, labels, c, d = ser.raw_algebra_from_dict(data)
    report = check_axioms(n, c, d)
    result = {
        "passed": report.passed,
        "failures": [
            {"axiom": f.axiom, "indices": list(f.indices),
             "residual": ser.vec_strs(f.residual)}
            for f in report.failures
        ],
    }
    _emit(out, "check", session, result, args.out)
    return 0 if report.passed else MATH_FAILURE


def _cmd_construct(args, session, out) -> int:
    data = session.load(args.algebra)
    if args.source == "lie":
        tensor, labels = ser.lie_tensor_from_dict(data)
        algebra = from_lie(tensor, labels)
    else:
        algebra = from_leibniz(ser.leibniz_from_dict(data))
    result = {"algebra": ser.algebra_to_dict(algebra)}
    if args.out:
        ser.save_json_file(args.out, result["algebra"])
    _emit(out, "construct", session, result, None)
    return 0


def _cmd_der(args, session, out) -> int:
    algebra = _load_algebra(session, args.algebra)
    space = derivation_space(algebra)
    _emit(out, "der", session, ser.derspace_to_dict(space), args.out)
    return 0


def _cmd_gder(args, session, out) -> int:
    algebra = _load_algebra(session, args.algebra)
    theta = _load_cert(session, args.theta, algebra)
    vartheta = _load_cert(session, args.vartheta, algebra)
    space = g_derivation_space(algebra, theta, vartheta)
    _emit(out, "gder", session, ser.derspace_to_dict(space), args.out)
    return 0


def _cmd_centroid(args, session, out) -> int:
    algebra = _load_algebra(session, args.algebra)
    space = centroid(algebra)
    _emit(out, "centroid", session, ser.map_space_to_dict(space, algebra.dim), args.out)
    return 0


def _cmd_center(args, session, out) -> int:
    algebra = _load_algebra(session, args.algebra)
    _emit(out, "center", session, ser.subspace_to_dict(center(algebra)), args.out)
    return 0


def _cmd_derived(args, session, out) -> int:
    algebra = _load_algebra(session, args.algebra)
    w = derived_algebra(algebra)
    result = {"subspace": ser.subspace_to_dict(w), "dim": w.dim,
              "perfect": w.dim == algebra.dim}
    _emit(out, "derived", session, result, args.out)
    return 0


def _cmd_inner(args, session, out) -> int:
    algebra = _load_algebra(session, args.algebra)
    g = _vector(args.g, algebra)
    h = _vector(args.h, algebra)
    result = {"map": ser.map_to_dict(inner_derivation(algebra, g, h))}
    _emit(out, "inner", session, result, args.out)
    return 0


def _cmd_quasi(args, session, out) -> int:
    algebra = _load_algebra(session, args.algebra)
    d_map = _load_map(session, args.map, algebra)
    witness = is_quasi_derivation(algebra, d_map)
    result = {"feasible": witness is not None,
              "witness": ser.quasi_witness_to_dict(witness) if witness else None}
    _emit(out, "quasi", session, result, args.out)
    return 0 if witness is not None else MATH_FAILURE


def _cmd_stabilizer(args, session, out) -> int:
    algebra = _load_algebra(session, args.algebra)
    theta = _load_cert(session, args.theta, algebra)
    h = _load_subspace(session, args.subspace, algebra)
    space = stabilizer_derivations(algebra, theta, h)
    _emit(out, "stabilizer", session, ser.derspace_to_dict(space), args.out)
    return 0


def _cmd_dhat(args, session, out) -> int:
    algebra = _load_algebra(session, args.algebra)
    d_map = _load_map(session, args.map, algebra)
    theta = _load_cert(session, args.theta, algebra)
    result = ser.dhat_result_to_dict(dhat(algebra, d_map, theta))
    _emit(out, "dhat", session, result, args.out)
    return 0 if result["consistent"] else MATH_FAILURE


def _verify_suite(args, session, out) -> int:
    reports = default_catalog_reports()
    result = {"reports": [ser.report_to_dict(r) for r in reports],
              "all_pass": reports_pass(reports)}
    _emit(out, "verify", session, result, args.out)
    return 0 if reports_pass(reports) else MATH_FAILURE


def _cmd_verify(args, session, out) -> int:
    prop = args.prop.lower()
    if prop == "suite":
        return _verify_suite(args, session, out)
    algebra_path = args.algebra
    if algebra_path is None:
        raise InputError("verify needs an algebra file (except 'verify suite')")
    algebra = _load_algebra(session, algebra_path)
    if prop == "all":
        if not args.config:
            raise InputError("verify all needs --config FILE")
        config = session.load(args.config)
        checks = _checks_from_config(session, config, algebra, Path(args.config).parent)
    else:
        kwargs = {"prop": prop.upper(), "label": args.label or ""}
        if args.theta:
            kwargs["theta"] = _load_cert(session, args.theta, algebra)
        if args.vartheta:
            kwargs["vartheta"] = _load_cert(session, args.vartheta, algebra)
        if args.subspace:
            kwargs["subspace"] = _load_subspace(session, args.subspace, algebra)
        if args.map:
            kwargs["map"] = _load_map(session, args.map, algebra)
        for key in ("g", "h", "g1", "g2"):
            value = getattr(args, key)
            if value is not None:
                kwargs[key] = _vector(value, algebra)
        checks = [CheckSpec(**kwargs)]
    reports = verify_all(algebra, checks)
    result = {"reports": [ser.report_to_dict(r) for r in reports],
              "all_pass": reports_pass(reports)}
    _emit(out, "verify", session, result, args.out)
    return 0 if reports_pass(reports) else MATH_FAILURE


def _cmd_export(args, session, out) -> int:
    if not args.out:
        raise InputError("export needs --out FILE")
    payload = ser.algebra_to_dict(catalog(args.name))
    ser.save_json_file(args.out, payload)
    digest = hashlib.sha256(Path(args.out).read_bytes()).hexdigest()
    result = {"name": args.name, "path": args.out, "sha256": digest}
    _emit(out, "export", session, result, None)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an InputError, so that it gets the error
    report on stdout; the usage text still goes to stderr."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    # No prefix matching: an abbreviation such as --h or --the is a usage error.
    parser = _Parser(
        prog="lya", allow_abbrev=False,
        description="Exact computations with finite-dimensional Lie-Yamaguti algebras.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, allow_abbrev=False, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--out", help="also write the output to this file")
        return p

    p = add("check", _cmd_check, help="verify the axioms of an algebra file")
    p.add_argument("algebra")

    p = add("construct", _cmd_construct, help="build an algebra from a Lie or Leibniz file")
    p.add_argument("algebra")
    p.add_argument("--from", dest="source", choices=("lie", "leibniz"), required=True)

    p = add("der", _cmd_der, help="derivation space")
    p.add_argument("algebra")

    p = add("gder", _cmd_gder, help="twisted derivation space")
    p.add_argument("algebra")
    p.add_argument("--theta", help="map file, or 'id'/'neg'")
    p.add_argument("--vartheta", help="map file, or 'id'/'neg'")

    p = add("centroid", _cmd_centroid, help="centroid")
    p.add_argument("algebra")

    p = add("center", _cmd_center, help="center subspace")
    p.add_argument("algebra")

    p = add("derived", _cmd_derived, help="derived algebra subspace")
    p.add_argument("algebra")

    p = add("inner", _cmd_inner, help="inner derivation of two elements")
    p.add_argument("algebra")
    p.add_argument("--g", required=True, help="comma-separated rational coefficients")
    p.add_argument("--h", required=True, help="comma-separated rational coefficients")

    p = add("quasi", _cmd_quasi, help="quasi-derivation feasibility of a map")
    p.add_argument("algebra")
    p.add_argument("--map", required=True, help="map file, or 'id'/'neg'")

    p = add("stabilizer", _cmd_stabilizer, help="twisted derivations stabilizing a subspace")
    p.add_argument("algebra")
    p.add_argument("--theta", help="map file, or 'id'/'neg'")
    p.add_argument("--subspace", required=True, help="subspace file, or 'full'/'zero'")

    p = add("dhat", _cmd_dhat, help="induced hat map on the derived algebra")
    p.add_argument("algebra")
    p.add_argument("--map", required=True, help="map file, or 'id'/'neg'")
    p.add_argument("--theta", help="map file, or 'id'/'neg'")

    p = add("verify", _cmd_verify,
            help="run one check (p31..p38, t32), a config ('all'), or the built-in 'suite'")
    p.add_argument("prop", help="p31, t32, p33..p38, all, or suite")
    p.add_argument("algebra", nargs="?")
    p.add_argument("--config", help="JSON config with a 'checks' list (for 'all')")
    p.add_argument("--label", help="instance label for the report")
    p.add_argument("--theta", help="map file, or 'id'/'neg'")
    p.add_argument("--vartheta", help="map file, or 'id'/'neg'")
    p.add_argument("--subspace", help="subspace file, or 'full'/'zero'")
    p.add_argument("--map", help="map file, or 'id'/'neg'")
    p.add_argument("--g")
    p.add_argument("--h")
    p.add_argument("--g1")
    p.add_argument("--g2")

    p = add("export", _cmd_export, help="write a catalog algebra to a file")
    p.add_argument("name")

    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    verb, session = None, _Session()
    try:
        args = build_parser().parse_args(argv)
        verb = args.verb
        return args.func(args, session, out)
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else INPUT_ERROR
    except LyaError as exc:
        payload = {"tool": "lya", "version": __version__, "verb": verb,
                   "error": str(exc), "inputs": session.inputs}
        if isinstance(exc, InternalCheckError):
            payload["internal"] = True
        if getattr(exc, "witness", None) is not None:
            payload["witness"] = exc.witness
        out.write(ser.canonical_json(payload))
        return INPUT_ERROR if isinstance(exc, InputError) else MATH_FAILURE


if __name__ == "__main__":
    sys.exit(main())
