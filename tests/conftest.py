import sys

import pytest


@pytest.fixture
def patch_calls_from(monkeypatch):
    """Replace a layer's function for the calls that named modules make.

    ``patch_calls_from(callers, owner, name, replacement, patch=monkeypatch)``
    sets ``owner.name`` to a function that runs ``replacement`` when called
    from code in one of the ``callers`` (modules, or one module) and the
    original for every other caller.  Every layer reaches another through
    its module, so a patch set on the defining layer reaches all of them;
    this keeps a fault injected into one verifier's view out of the layers
    that also call the function and would fail their own re-checks.
    ``patch`` may be a ``monkeypatch.context()``.
    """
    def patch_from(callers, owner, name, replacement, patch=monkeypatch):
        names = {module.__name__ for module in
                 (callers if isinstance(callers, (list, tuple)) else (callers,))}
        original = getattr(owner, name)

        def dispatch(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") in names:
                return replacement(*args, **kwargs)
            return original(*args, **kwargs)
        patch.setattr(owner, name, dispatch)

    return patch_from
