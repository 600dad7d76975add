"""Exact computation with finite-dimensional Lie-Yamaguti algebras over Q.

The package is organized in layers: :mod:`lya.exactlin` (rational linear
algebra), :mod:`lya.lyalg` (algebras and constructions), :mod:`lya.maps`
(endomorphisms and automorphisms), :mod:`lya.structure` (center, ideals),
:mod:`lya.derivations` (derivation-type solvers), :mod:`lya.theorems`
(instance verification), :mod:`lya.serialize` (JSON in and out) and
:mod:`lya.cli` (command line).  The most common entry points are
re-exported here.

``import lya`` compiles only this file and :mod:`lya.errors`.  Every layer
is in ``sys.modules`` and bound here from the start, but its code runs on
the first read of any of its attributes, ``__dict__`` included, exactly
once; that first read is thread-safe.  The layers reach each other only
through their modules (``exactlin._rref(...)``), never through a name bound
from another layer, so running one layer's code runs no other: a layer runs
when one of its functions is first called.  A re-exported name loads its
layer when it is read.  So a ``lya`` process runs exactly the layers its
verb calls: ``check``, ``construct`` and ``export`` run ``serialize``,
``exactlin`` and ``lyalg``; ``inner`` adds ``maps``; ``center`` and
``derived`` add ``structure``; the solvers add ``maps`` and
``derivations`` (``quasi`` only ``derivations``), and the stabilizer and
a consistent hat map ``structure``; ``verify`` adds ``theorems``, and
``structure`` for every check but P31, T32 and P33; a usage error or an
unreadable input runs ``serialize`` alone, to write its report.
"""

import _thread
import sys

from . import errors  # noqa: F401

__version__ = "0.1.0"

_ModuleType = type(sys)

# The lock of each layer whose code has not finished running, and the
# layers whose code is running.
_locks: dict = {}
_running: set = set()


class _Layer(_ModuleType):
    """A layer whose code has not run yet.

    The first read of any attribute runs the code under the layer's lock and
    then makes the module a plain module, so later reads cost nothing.  A
    read from another thread meanwhile waits for the lock; one from the
    running code's own thread (its loader reading ``__dict__``) is served
    from the module as it stands, as an import in progress would be.
    """

    def __getattribute__(self, attr):
        get = _ModuleType.__getattribute__
        name = get(self, "__name__")
        lock = _locks.get(name)
        if lock is not None:
            with lock:
                if name in _locks and name not in _running:
                    _running.add(name)
                    try:
                        get(self, "__spec__").loader.exec_module(self)
                        self.__class__ = _ModuleType
                        del _locks[name]
                    finally:
                        _running.discard(name)
        return get(self, attr)


def _register(layer: str) -> None:
    """Put the layer in ``sys.modules`` and bind it here, its code not run:
    found as the import system finds a submodule, with the attributes it
    sets on a module before running it."""
    fullname = f"{__name__}.{layer}"
    spec = next(filter(None, (finder.find_spec(fullname, __path__)
                              for finder in sys.meta_path)), None)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {fullname!r}", name=fullname)
    module = _Layer(fullname)
    module.__spec__, module.__loader__, module.__package__ = spec, spec.loader, __name__
    if spec.has_location:
        module.__file__, module.__cached__ = spec.origin, spec.cached
    _locks[fullname] = _thread.RLock()
    sys.modules[fullname] = module
    globals()[layer] = module


# Each re-exported name and the layer that defines it.
_EXPORTS = {name: layer for layer, names in (
    ("exactlin", "Matrix Subspace nullspace rref solve subspace_contains subspace_intersect "
                 "subspace_sum"),
    ("lyalg", "LYAlgebra bracket catalog check_axioms direct_sum from_leibniz from_lie triple"),
    ("maps", "AutCert basis_maps certify_automorphism commutator compose identity_cert "
             "inner_derivation restrict_map"),
    ("structure", "center derived_algebra is_abelian_ideal is_ideal is_perfect is_subalgebra"),
    ("derivations", "QuasiWitness centroid derivation_space dhat g_derivation_space "
                    "is_quasi_derivation single_twist_space stabilizer_derivations"),
    ("theorems", "CheckSpec PropReport default_catalog_reports extract_subalgebra reports_pass "
                 "verify_all"),
) for name in names.split()}

_LAYERS = ("exactlin", "lyalg", "maps", "structure", "derivations", "theorems", "serialize")
for _layer in _LAYERS:
    _register(_layer)
del _layer

__all__ = ["errors", *_LAYERS, *_EXPORTS]


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(globals()[_EXPORTS[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _EXPORTS.keys())
