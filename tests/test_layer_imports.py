"""Each layer reaches the others only through their modules.

A layer binds another layer as a module (``from . import exactlin``) and
calls ``exactlin._rref(...)``, never a name imported from it.  So every
function and class has one binding, in the layer that defines it, and
loading a layer's code runs no other layer.
"""

import ast
import importlib
from pathlib import Path

import pytest

import lya

SRC = Path(lya.__file__).resolve().parent
LAYERS = ("exactlin", "lyalg", "maps", "structure", "derivations", "theorems", "serialize")
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _layer_aliases(tree: ast.Module) -> set[str]:
    """The names a module binds to layers with ``from . import``."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names if alias.name in LAYERS}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_layer_imports_names_from_another(path):
    found = [f"{path.name}:{node.lineno} from .{node.module} import ..."
             for node in ast.walk(_tree(path))
             if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in LAYERS]
    assert found == []


@pytest.mark.parametrize("layer", LAYERS)
def test_each_function_and_class_is_bound_only_in_its_own_layer(layer):
    module = importlib.import_module(f"lya.{layer}")
    foreign = sorted(name for name, value in vars(module).items()
                     if (callable(value) and not isinstance(value, type(lya))
                         and getattr(value, "__module__", None) in {f"lya.{n}" for n in LAYERS}
                         and value.__module__ != module.__name__))
    assert foreign == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_shadows_a_layer_it_reads(path):
    """A parameter or local named like a layer would hide the module from
    the function's ``<layer>.x`` reads."""
    tree = _tree(path)
    layers = _layer_aliases(tree)
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        nodes = list(ast.walk(fn))
        read = {node.value.id for node in nodes if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id in layers}
        bound = {arg.arg for arg in nodes if isinstance(arg, ast.arg)}
        bound |= {node.id for node in nodes
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        bound |= {node.name for node in nodes[1:]
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        found += [f"{path.name}:{fn.lineno} binds {name}" for name in sorted(read & bound)]
    assert found == []


def test_the_test_reference_imports_no_private_lya_name():
    """The test reference is an oracle for the library, so it reaches only
    public ``lya`` names: it imports no ``_``-prefixed name and no module
    through which one could be read, and reads no ``_``-prefixed attribute."""
    tree = _tree(Path(__file__).with_name("reference.py"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "lya"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lya":
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_") or node.module == "lya"]
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and not node.attr.endswith("__")):
            found.append(f"line {node.lineno}: .{node.attr}")
    assert found == []
