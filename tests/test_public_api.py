"""Every exported name resolves, and every function the benchmark's tracer
wraps still exists, so a deletion fails here and not when the tracer runs.
The same holds for every name the benchmark imports from frisim or reads as
a ``frisim.<module>.<name>`` attribute, and every keyword argument it passes
to one. No frisim module imports a name it does not use, since
pyflakes-style linters are not a dependency."""

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


def _frisim_attribute_chains(tree: ast.AST) -> set[tuple[str, ...]]:
    """``("cli", "run_ber")`` for each ``frisim.cli.run_ber`` read in ``tree``,
    and likewise for every other dotted chain rooted at the name ``frisim``."""
    chains = set()
    for node in ast.walk(tree):
        parts, link = [], node
        while isinstance(link, ast.Attribute):
            parts.append(link.attr)
            link = link.value
        if parts and isinstance(link, ast.Name) and link.id == "frisim":
            chains.add(tuple(reversed(parts)))
    return chains


def _resolve_chain(chain: tuple[str, ...]) -> None:
    """Follow ``frisim.<chain>``, importing a submodule where the chain names
    one; raises AttributeError or ImportError at the first missing link."""
    obj = frisim
    for part in chain:
        if inspect.ismodule(obj) and not hasattr(obj, part):
            importlib.import_module(f"{obj.__name__}.{part}")
        obj = getattr(obj, part)


def test_names_and_keywords_the_benchmark_uses_resolve():
    problems = []
    for path in _benchmark_sources():
        tree = ast.parse(path.read_text())
        for chain in sorted(_frisim_attribute_chains(tree)):
            try:
                _resolve_chain(chain)
            except (AttributeError, ImportError):
                problems.append(f"{path.name}: frisim.{'.'.join(chain)} does not resolve")
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


SRC = Path(frisim.__file__).resolve().parent


def _unused_imports(path: Path) -> list[str]:
    """``file:line name`` for each name ``path`` imports and neither reads,
    lists in ``__all__`` nor marks with ``# noqa: F401`` inside the import
    statement."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(f"{path.name}:{node.lineno} {bound}")
    return unused


def test_no_module_imports_a_name_it_does_not_use():
    sources = sorted(SRC.glob("*.py"))
    assert sources, f"no sources under {SRC}"
    unused = [entry for path in sources for entry in _unused_imports(path)]
    assert not unused, f"unused imports: {', '.join(unused)}"


def _module_level_private_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every ``_name`` a module defines at top level, dunders
    excepted."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return [(name, line) for name, line in defined
            if name.startswith("_") and not name.startswith("__")]


def _private_class_members(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(class, name, line) of every private method, class attribute and
    ``self._name`` attribute a class in ``tree`` defines, dunders excepted."""
    members = {}
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members.setdefault((cls.name, node.name), node.lineno)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        members.setdefault((cls.name, target.id), node.lineno)
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"):
                members.setdefault((cls.name, node.attr), node.lineno)
    return [(owner, name, line) for (owner, name), line in members.items()
            if name.startswith("_") and not name.startswith("__")]


def test_every_private_module_level_name_is_used():
    """A helper that nothing under ``src/frisim`` reads is dead code. That
    holds for private module-level names, and for the private methods, class
    attributes and ``self._name`` attributes of classes: a member counts as
    read only where an expression loads an attribute of its name."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert trees, f"no sources under {SRC}"
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    dead = [f"{path.name}:{line} {name}" for path, tree in trees.items()
            for name, line in _module_level_private_names(tree) if name not in used]
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    dead += [f"{path.name}:{line} {owner}.{name}" for path, tree in trees.items()
             for owner, name, line in _private_class_members(tree) if name not in read]
    assert not dead, f"private names nothing uses: {', '.join(dead)}"
