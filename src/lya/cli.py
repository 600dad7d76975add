"""Command line surface: load algebras and maps from JSON files, dispatch
computations, and emit one canonical JSON report on standard output.

Exit codes: 0 on success or a passing verdict, 1 on a mathematical failure
(axiom violation, infeasibility, failed conclusion) or a failed internal
re-check (reported with ``"internal": true``), 2 on an input or usage error.
"""

from __future__ import annotations

import os
import re
import sys
import types
from pathlib import Path

try:  # The interpreter's own SHA-256: hashlib would load OpenSSL to hash a few KB.
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

from . import __version__, derivations, exactlin, lyalg, maps, structure, theorems
from . import serialize as ser
from .errors import InputError, InternalCheckError, LyaError

MATH_FAILURE = 1
INPUT_ERROR = 2


class _Session:
    """Tracks loaded input files so every report can carry their hashes."""

    def __init__(self):
        self.inputs: list[dict] = []
        self._read: dict[str, object] = {}

    def load(self, path: str):
        """The JSON value in the file; each path string is read and listed once."""
        if path not in self._read:
            raw, self._read[path] = ser.read_json_file(path)
            self.inputs.append({"path": path, "sha256": _sha256(raw).hexdigest()})
        return self._read[path]


def _emit(out, verb: str, session: _Session, result, out_path: str | None) -> None:
    text = ser.canonical_json({"tool": "lya", "version": __version__, "verb": verb,
                               "inputs": session.inputs, "result": result})
    # The file goes first: a failed write leaves only the error report on stdout.
    if out_path:
        ser.write_text_file(out_path, text)
    out.write(text)


def _load_algebra(session: _Session, path: str) -> lyalg.LYAlgebra:
    return ser.algebra_from_dict(session.load(path))


# Literal references, and each kind's inline key, size key and parser, read
# when a reference is resolved: importing this module runs no layer.
_LITERALS = {("map", "id"): lambda n: exactlin.Matrix.identity(n),
             ("map", "neg"): lambda n: exactlin.Matrix.identity(n).scale(-1),
             ("subspace", "full"): lambda n: exactlin.Subspace.full(n),
             ("subspace", "zero"): lambda n: exactlin.Subspace.zero(n)}
_INLINE = {"map": ("matrix", "dim", lambda data: ser.map_from_dict(data)),
           "subspace": ("basis", "ambient", lambda data: ser.subspace_from_dict(data))}


def _resolve(session: _Session, kind: str, ref, algebra: lyalg.LYAlgebra,
             base: Path | None = None):
    """A map or subspace from a reference: a literal (``id``/``neg`` or
    ``full``/``zero``), a file path (relative to ``base``, a config's folder,
    when one is given), or a config's ``{"file": ...}`` or inline
    ``{"matrix": ...}``/``{"basis": ...}``.  An empty path names no file."""
    inline, size, parse = _INLINE[kind]
    if isinstance(ref, str) and (kind, ref) in _LITERALS:
        return _LITERALS[kind, ref](algebra.dim)
    if isinstance(ref, dict) and "file" in ref:
        ref = ref["file"]
        if not isinstance(ref, str):
            raise InputError(f"a config 'file' reference must be a string, got {ref!r}")
    elif isinstance(ref, dict) and inline in ref:
        return parse({size: algebra.dim, inline: ref[inline]})
    if ref == "":
        raise InputError(f"empty {kind} reference")
    if not isinstance(ref, str):
        raise InputError(f"cannot resolve {kind} reference {ref!r}")
    return parse(session.load(ref if base is None else str(base / ref)))


def _load_cert(session: _Session, ref, algebra: lyalg.LYAlgebra, base: Path | None = None):
    """The certified automorphism a map reference names (see :func:`_resolve`),
    or the identity when no reference is given."""
    if ref is None:
        return maps.identity_cert(algebra)
    return maps.certify_automorphism(algebra, _resolve(session, "map", ref, algebra, base))


def _text(raw: dict, key: str) -> str:
    if not isinstance(raw[key], str):
        raise InputError(f"check field {key!r} must be a string, got {raw[key]!r}")
    return raw[key]


def _check_spec(session: _Session, raw, algebra: lyalg.LYAlgebra,
                base: Path | None = None) -> theorems.CheckSpec:
    """A check from a dict keyed by ``CheckSpec``'s fields: a config entry,
    or the flags of ``verify <prop>``.  The fields are checked against the
    check (:func:`~lya.theorems.check_fields`) before any reference is read."""
    if not isinstance(raw, dict) or "prop" not in raw:
        raise InputError("each check needs at least a 'prop' field")
    for key in raw:
        if key not in theorems.CheckSpec._fields:
            raise InputError(f"unknown check field {key!r}")
    spec = {key: _text(raw, key) for key in ("prop", "label") if key in raw}
    spec["prop"] = spec["prop"].upper()
    theorems.check_fields(spec["prop"], list(raw))
    for key in ("theta", "vartheta"):
        if key in raw:
            if raw[key] is None:  # a null field names no map; only an absent one is the identity
                raise InputError("cannot resolve map reference None")
            spec[key] = _load_cert(session, raw[key], algebra, base)
    for key in ("subspace", "map"):
        if key in raw:
            spec[key] = _resolve(session, key, raw[key], algebra, base)
    for key in ("g", "h", "g1", "g2"):
        if key in raw:
            spec[key] = ser.parse_vector_arg(_text(raw, key), algebra.dim)
    return theorems.CheckSpec(**spec)


def _cmd_check(args, session) -> tuple[dict, int]:
    data = session.load(args.algebra)
    n, _, form = ser.raw_algebra_from_dict(data)
    failures = lyalg._check_form(n, form)
    result = {
        "passed": not failures,
        "failures": [
            {"axiom": f.axiom, "indices": list(f.indices),
             "residual": exactlin.vec_strs(f.residual)}
            for f in failures
        ],
    }
    return result, MATH_FAILURE if failures else 0


def _cmd_construct(args, session) -> tuple[dict, int]:
    data = session.load(args.algebra)
    if args.source == "lie":
        algebra = lyalg.from_lie(*ser.lie_bracket_from_dict(data))
    else:
        algebra = lyalg.from_leibniz(*ser.leibniz_from_dict(data))
    result = {"algebra": ser.algebra_to_dict(algebra)}
    if args.file:
        ser.save_json_file(args.file, result["algebra"])
    return result, 0


def _cmd_der(args, session) -> tuple[dict, int]:
    algebra = _load_algebra(session, args.algebra)
    return ser.derspace_to_dict(derivations.derivation_space(algebra), algebra.dim), 0


def _cmd_gder(args, session) -> tuple[dict, int]:
    algebra = _load_algebra(session, args.algebra)
    theta = _load_cert(session, args.theta, algebra)
    vartheta = _load_cert(session, args.vartheta, algebra)
    space = derivations.g_derivation_space(algebra, theta, vartheta)
    return ser.derspace_to_dict(space, algebra.dim, theta.map, vartheta.map), 0


def _cmd_centroid(args, session) -> tuple[dict, int]:
    algebra = _load_algebra(session, args.algebra)
    return ser.map_space_to_dict(derivations.centroid(algebra), algebra.dim), 0


def _cmd_center(args, session) -> tuple[dict, int]:
    algebra = _load_algebra(session, args.algebra)
    return ser.subspace_to_dict(structure.center(algebra)), 0


def _cmd_derived(args, session) -> tuple[dict, int]:
    algebra = _load_algebra(session, args.algebra)
    w = structure.derived_algebra(algebra)
    return {"subspace": ser.subspace_to_dict(w), "dim": w.dim, "perfect": w.dim == algebra.dim}, 0


def _cmd_inner(args, session) -> tuple[dict, int]:
    algebra = _load_algebra(session, args.algebra)
    g = ser.parse_vector_arg(args.g, algebra.dim)
    h = ser.parse_vector_arg(args.h, algebra.dim)
    return {"map": ser.map_to_dict(maps.inner_derivation(algebra, g, h))}, 0


def _cmd_quasi(args, session) -> tuple[dict, int]:
    algebra = _load_algebra(session, args.algebra)
    d_map = _resolve(session, "map", args.map, algebra)
    witness = derivations.is_quasi_derivation(algebra, d_map)
    result = {"feasible": witness is not None,
              "witness": ser.quasi_witness_to_dict(witness) if witness else None}
    return result, 0 if witness is not None else MATH_FAILURE


def _cmd_stabilizer(args, session) -> tuple[dict, int]:
    algebra = _load_algebra(session, args.algebra)
    theta = _load_cert(session, args.theta, algebra)
    h = _resolve(session, "subspace", args.subspace, algebra)
    space = derivations.stabilizer_derivations(algebra, theta, h)
    ident = exactlin.Matrix.identity(algebra.dim)
    return ser.derspace_to_dict(space, algebra.dim, theta.map, ident), 0


def _cmd_dhat(args, session) -> tuple[dict, int]:
    algebra = _load_algebra(session, args.algebra)
    d_map = _resolve(session, "map", args.map, algebra)
    theta = _load_cert(session, args.theta, algebra)
    result = ser.dhat_result_to_dict(derivations.dhat(algebra, d_map, theta))
    return result, 0 if result["consistent"] else MATH_FAILURE


def _cmd_verify(args, session) -> tuple[dict, int]:
    """``verify suite`` runs the built-in plan, ``verify all`` the checks of
    ``--config`` and ``verify <prop>`` the one check its flags give; what a
    form does not read is refused before any file is."""
    prop = args.prop.lower()
    fields = [key for key in theorems.CheckSpec._fields if key != "prop"]
    refused = {"suite": ["algebra", "config", *fields], "all": fields}.get(prop, ["config"])
    extra = next((key for key in refused if getattr(args, key) is not None), None)
    if extra is not None:
        raise InputError(f"verify {prop} takes no "
                         + ("algebra file" if extra == "algebra" else f"--{extra}"))
    if prop == "suite":
        reports = theorems.default_catalog_reports()
    else:
        if args.algebra is None:
            raise InputError("verify needs an algebra file (except 'verify suite')")
        algebra = _load_algebra(session, args.algebra)
        if prop != "all":
            given = {key: getattr(args, key) for key in theorems.CheckSpec._fields
                     if getattr(args, key) is not None}
            specs = [_check_spec(session, given | {"prop": prop}, algebra)]
        elif not args.config:
            raise InputError("verify all needs --config FILE")
        else:
            config = session.load(args.config)
            if not isinstance(config, dict) or not isinstance(config.get("checks"), list):
                raise InputError("config must be an object with a 'checks' list")
            specs = []
            for k, raw in enumerate(config["checks"]):
                try:
                    specs.append(_check_spec(session, raw, algebra, Path(args.config).parent))
                except InputError as exc:
                    raise InputError(f"checks[{k}]: {exc}") from exc
        reports = theorems.verify_all(algebra, specs)
    result = {"reports": [ser.report_to_dict(r) for r in reports],
              "all_pass": theorems.reports_pass(reports)}
    return result, 0 if result["all_pass"] else MATH_FAILURE


def _cmd_export(args, session) -> tuple[dict, int]:
    if not args.file:
        raise InputError("export needs --out FILE")
    ser.save_json_file(args.file, ser.algebra_to_dict(lyalg.catalog(args.name)))
    digest = _sha256(Path(args.file).read_bytes()).hexdigest()
    return {"name": args.name, "path": args.file, "sha256": digest}, 0


def _arg(*flags, **kwargs):
    return flags, kwargs


def _out(text="also write the output to this file", dest="out"):
    """The --out option.  construct and export write their own file, so
    theirs goes to args.file and the report is written to stdout only."""
    return _arg("--out", dest=dest, metavar="OUT", help=text)


_ALGEBRA = _arg("algebra")
_MAP_REF = "map file, or 'id'/'neg'"
_SUBSPACE_REF = "subspace file, or 'full'/'zero'"
_COEFFS = "comma-separated rational coefficients"

# Each verb's handler, help and arguments, in the order the usage lists them.
_VERBS = {
    "check": (_cmd_check, "verify the axioms of an algebra file", [_out(), _ALGEBRA]),
    "construct": (_cmd_construct, "build an algebra from a Lie or Leibniz file", [
        _out("also write the built algebra file", "file"), _ALGEBRA,
        _arg("--from", dest="source", choices=("lie", "leibniz"), required=True)]),
    "der": (_cmd_der, "derivation space", [_out(), _ALGEBRA]),
    "gder": (_cmd_gder, "twisted derivation space", [
        _out(), _ALGEBRA, _arg("--theta", help=_MAP_REF), _arg("--vartheta", help=_MAP_REF)]),
    "centroid": (_cmd_centroid, "centroid", [_out(), _ALGEBRA]),
    "center": (_cmd_center, "center subspace", [_out(), _ALGEBRA]),
    "derived": (_cmd_derived, "derived algebra subspace", [_out(), _ALGEBRA]),
    "inner": (_cmd_inner, "inner derivation of two elements", [
        _out(), _ALGEBRA, _arg("--g", required=True, help=_COEFFS),
        _arg("--h", required=True, help=_COEFFS)]),
    "quasi": (_cmd_quasi, "quasi-derivation feasibility of a map", [
        _out(), _ALGEBRA, _arg("--map", required=True, help=_MAP_REF)]),
    "stabilizer": (_cmd_stabilizer, "twisted derivations stabilizing a subspace", [
        _out(), _ALGEBRA, _arg("--theta", help=_MAP_REF),
        _arg("--subspace", required=True, help=_SUBSPACE_REF)]),
    "dhat": (_cmd_dhat, "induced hat map on the derived algebra", [
        _out(), _ALGEBRA, _arg("--map", required=True, help=_MAP_REF),
        _arg("--theta", help=_MAP_REF)]),
    "verify": (_cmd_verify,
               "run one check (p31..p38, t32), a config ('all'), or the built-in 'suite'", [
        _out(), _arg("prop", help="p31, t32, p33..p38, all, or suite"),
        _arg("algebra", nargs="?"),
        _arg("--config", help="JSON config with a 'checks' list (for 'all')"),
        _arg("--label", help="instance label for the report"),
        _arg("--theta", help=_MAP_REF), _arg("--vartheta", help=_MAP_REF),
        _arg("--subspace", help=_SUBSPACE_REF), _arg("--map", help=_MAP_REF),
        _arg("--g"), _arg("--h"), _arg("--g1"), _arg("--g2")]),
    "export": (_cmd_export, "write a catalog algebra to a file", [
        _out("the algebra file to write (required)", "file"), _arg("name")]),
}


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser of the command line, the one path that words help, usage
    and errors; a plain command line is read by :func:`_plain_args`
    instead.  Given a verb, only that verb's subparser is built, under the
    usage line that names every verb.  argparse is imported here only, so
    a process that reads a plain command line never imports it."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Reports a usage error as an InputError, so that it gets the error
        report on stdout; the usage text still goes to stderr."""

        def error(self, message):
            self.print_usage(sys.stderr)
            raise InputError(message)

    # No prefix matching: an abbreviation such as --h or --the is a usage error.
    parser = _Parser(
        prog="lya", allow_abbrev=False,
        description="Exact computations with finite-dimensional Lie-Yamaguti algebras.")
    metavar = None if verb is None else "{" + ",".join(_VERBS) + "}"
    sub = parser.add_subparsers(dest="verb", required=True, metavar=metavar)
    for name in _VERBS if verb is None else (verb,):
        func, text, arguments = _VERBS[name]
        p = sub.add_parser(name, allow_abbrev=False, help=text)
        p.set_defaults(func=func)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
    return parser


# The keywords of an argument that _plain_args reads; help and metavar only
# word the help text.
_PLAIN = {"dest", "choices", "required", "nargs", "help", "metavar"}


def _plain_args(argv: list[str]) -> types.SimpleNamespace | None:
    """The namespace that ``build_parser().parse_args(argv)`` gives, read
    straight from :data:`_VERBS` when argv is a plain command line, or None.

    A plain command line is a verb, then its positionals, none starting
    with '-', then each of its long options at most once, as ``--name
    value`` or ``--name=value`` with a value not starting with '-'; every
    required argument is given and every value is among its choices.
    Anything else goes to argparse: help, ``--``, a repeated, unknown or
    missing argument, interleaved positionals, and every line of a verb
    whose arguments use a keyword other than those in :data:`_PLAIN` or a
    ``nargs`` other than "?" on a positional.
    """
    if not argv or argv[0] not in _VERBS:
        return None
    func, _, arguments = _VERBS[argv[0]]
    k = next((i for i, t in enumerate(argv) if t.startswith("-")), len(argv))
    places, rest, given = iter(argv[1:k]), argv[k:], {}
    while rest:
        name, eq, value = rest.pop(0).partition("=")
        if not eq:
            value = rest.pop(0) if rest else None
        if name in given or value is None or value.startswith("-"):
            return None
        given[name] = value
    args = {"verb": argv[0], "func": func}
    for (flag, *more), kwargs in arguments:
        option = flag.startswith("-")
        if (more or not kwargs.keys() <= _PLAIN or kwargs.get("nargs", "?") != "?"
                or option and (not flag.startswith("--") or "nargs" in kwargs)):
            return None
        value = given.pop(flag, None) if option else next(places, None)
        required = kwargs.get("required") if option else "nargs" not in kwargs
        if value is None and required or value not in (None, *kwargs.get("choices", (value,))):
            return None
        args[kwargs.get("dest", flag[2:].replace("-", "_")) if option else flag] = value
    return None if given or next(places, None) is not None else types.SimpleNamespace(**args)


def _attach_vector_values(argv: list[str]) -> list[str]:
    """``--g -1/2,3`` as ``--g=-1/2,3`` for inner and verify, up to a ``--``.

    argparse reads a value that starts with '-' as an option unless the
    whole value is one number, so a vector whose first coordinate is
    negative would be refused; a following option, as in ``--g --h``, is
    left alone and stays a usage error.
    """
    if argv[:1] not in (["inner"], ["verify"]):
        return argv
    out: list[str] = []
    for k, arg in enumerate(argv):
        if arg == "--":
            return out + argv[k:]
        if out and out[-1] in ("--g", "--h", "--g1", "--g2") and re.match(r"-[0-9]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    verb, session = None, _Session()
    try:
        argv = _attach_vector_values(list(sys.argv[1:] if argv is None else argv))
        args = _plain_args(argv) or build_parser(
            argv[0] if argv[:1] and argv[0] in _VERBS else None).parse_args(argv)
        verb = args.verb
        result, code = args.func(args, session)
        _emit(out, verb, session, result, getattr(args, "out", None))
        return code
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


def run():
    """The ``lya`` process: :func:`main` on the command line, then stdout
    and stderr are flushed and the process ends with ``os._exit``, so it
    never returns.  The interpreter is not torn down: the OS frees its
    memory, and atexit handlers and finalizers do not run (lya needs
    neither).  A reader that has closed the pipe before lya writes ends
    the process with exit 1 and no traceback.  In-process callers use
    main, which exits nothing."""
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:  # the reader has gone: exit 1, as Python does on EPIPE
        code = 1
    os._exit(code)


if __name__ == "__main__":
    run()
