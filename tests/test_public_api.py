"""Every exported name resolves, and every function the benchmark's tracer
wraps still exists, so a deletion fails here and not when the tracer runs."""

import ast
import importlib
from pathlib import Path

import frisim

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_layers() -> dict:
    """``tracing.LAYERS``, read from the source without importing the benchmark."""
    for node in ast.parse(TRACING.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {TRACING}")


def test_exported_and_traced_names_resolve():
    missing = [name for name in frisim.__all__ if not hasattr(frisim, name)]
    assert not missing, f"frisim.__all__ names missing attributes: {missing}"

    layers = _traced_layers()
    assert layers
    untraceable = [f"{module}.{function}"
                   for module, functions in layers.items()
                   for function in functions
                   if not callable(getattr(importlib.import_module(f"frisim.{module}"),
                                           function, None))]
    assert not untraceable, f"traced functions missing from frisim: {untraceable}"
