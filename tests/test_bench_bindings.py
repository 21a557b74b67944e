"""The traced benchmark's wrap points must exist in the package.

``bench/tracing.py`` replaces package functions by name, from outside the
package.  A refactor that renames or moves one of them would make the traced
run fail, so every ``(owner, attr)`` it binds is checked here.
"""

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
