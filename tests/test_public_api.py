"""Every exported name resolves, and every function the benchmark's tracer
wraps still exists, so a deletion fails here and not when the tracer runs.
The same holds for every name the benchmark imports from frisim and every
keyword argument it passes to one."""

import ast
import importlib
import inspect
from pathlib import Path

import frisim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def _benchmark_sources() -> list[Path]:
    sources = sorted(PERFBENCH.glob("*.py")) + sorted(PERFBENCH.glob("tests/*.py"))
    assert sources, f"no benchmark sources under {PERFBENCH}"
    return sources


def _frisim_imports(tree: ast.AST) -> dict[str, tuple[str, str]]:
    """Local name -> (frisim module, imported name) for every
    ``from frisim... import name [as local]`` in ``tree``."""
    imports = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and (node.module == "frisim" or node.module.startswith("frisim."))):
            for alias in node.names:
                imports[alias.asname or alias.name] = (node.module, alias.name)
    return imports


def test_names_and_keywords_the_benchmark_uses_resolve():
    problems = []
    for path in _benchmark_sources():
        tree = ast.parse(path.read_text())
        resolved = {}
        for local, (module, name) in _frisim_imports(tree).items():
            try:
                resolved[local] = getattr(importlib.import_module(module), name)
            except AttributeError:
                problems.append(f"{path.name}: {module} has no {name}")
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in resolved):
                continue
            params = inspect.signature(resolved[node.func.id]).parameters
            if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
                continue
            for keyword in node.keywords:
                if keyword.arg is not None and keyword.arg not in params:
                    problems.append(f"{path.name}:{node.lineno}: {node.func.id}() "
                                    f"takes no keyword {keyword.arg!r}")
    assert not problems, "\n".join(problems)
