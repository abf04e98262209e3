"""Every function and method of ``src/iqcc`` has a caller in the package, and
every name a module imports is used in it, or is a name the benchmark's
tracer patches there (``bench/spans.py``): a definition that only tests
reach belongs in ``tests/helpers.py`` or nowhere."""

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
