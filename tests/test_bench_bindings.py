"""The traced benchmark's wrap points must exist in the package.

``bench/tracing.py`` replaces package functions by name, from outside the
package.  A refactor that renames or moves one of them would make the traced
run fail, so every ``(owner, attr)`` it binds is checked here.  A name that
is still bound but no longer called would make its traced layer silently
read 0, so a binding on a package submodule must also be called there.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_binding_resolves():
    tracing = load_tracing()
    assert tracing.BINDINGS
    missing = [(owner, attr) for owner, attr, _ in tracing.BINDINGS
               if attr not in vars(tracing._resolve(owner))]
    assert missing == []


def called_names(module_name):
    path = importlib.import_module(module_name).__file__
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    return {node.func.id for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_submodule_bindings_are_called():
    tracing = load_tracing()
    submodule_bindings = [(owner, attr) for owner, attr, _ in tracing.BINDINGS
                          if owner != "barydeg" and ":" not in owner]
    assert submodule_bindings
    uncalled = [(owner, attr) for owner, attr in submodule_bindings
                if attr not in called_names(owner)]
    assert uncalled == []
