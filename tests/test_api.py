"""Every function and method of ``src/iqcc`` has a caller in the package, and
every name a module imports is used in it, or is a name the benchmark's
tracer patches there (``bench/spans.py``): a definition that only tests
reach belongs in ``tests/helpers.py`` or nowhere.  The modules import one
another without a cycle, so each layer builds only on the ones below it."""

import ast
from pathlib import Path

from test_bench_spans import spans

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "iqcc"


def test_every_definition_has_a_caller_in_the_package():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = {entry[2] for entry in spans.PATCHES + spans.COUNTED} | {
        node.id if isinstance(node, ast.Name) else node.attr
        for module, tree in trees.items() if module != "__init__"
        for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
    }
    unused = []
    for module, tree in trees.items():
        for top in tree.body:
            members = top.body if isinstance(top, ast.ClassDef) else [top]
            for fn in members:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("__"):
                    continue
                decorators = [d.func if isinstance(d, ast.Call) else d for d in fn.decorator_list]
                if any(getattr(d, "attr", None) in ("command", "group") for d in decorators):
                    continue  # a click command or group: the CLI calls it
                if fn.name not in used:
                    owner = f"{top.name}." if isinstance(top, ast.ClassDef) else ""
                    unused.append(f"{module}.{owner}{fn.name}")
    assert not unused, f"reached only from outside src/iqcc: {', '.join(unused)}"


def test_every_import_is_used():
    # a name spans.py patches in a module's namespace is bound there for the tracer
    patched = {(namespace, entry[2]) for entry in spans.PATCHES for namespace in entry[3]}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue  # its imports are the package's exports
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used and (f"iqcc.{path.stem}", name) not in patched:
                        unused.append(f"{path.stem}: {name}")
    assert not unused, f"imported and never used: {', '.join(unused)}"


def _imported_modules(tree: ast.Module, modules: set[str]) -> set[str]:
    """The package modules ``tree`` imports anywhere, function-local imports
    included: ``from . import m``, ``from .m import ...``, ``import iqcc.m``
    and their absolute spellings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("iqcc.")}
        elif isinstance(node, ast.ImportFrom):
            path = (node.module or "").split(".")
            if node.level == 0 and path[0] != "iqcc":
                continue  # outside the package
            inside = path[1:] if node.level == 0 else [p for p in path if p]
            if inside:
                found.add(inside[0])
            else:  # the package itself: the names are its modules
                found |= {alias.name for alias in node.names}
    return found & modules


def test_module_imports_have_no_cycle():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    graph = {
        module: _imported_modules(ast.parse((PACKAGE / f"{module}.py").read_text()), modules)
        for module in sorted(modules)
    }
    done: set[str] = set()

    def visit(module: str, path: list[str]):
        if module in path:
            cycle = path[path.index(module):] + [module]
            raise AssertionError(f"import cycle: {' -> '.join(cycle)}")
        if module not in done:
            for imported in sorted(graph[module]):
                visit(imported, path + [module])
            done.add(module)

    for module in graph:
        visit(module, [])
