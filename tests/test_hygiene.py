"""Source hygiene: every name a module imports is used in that module, no
check rests on an `assert`, which `python -O` removes, only composition
knows how an Update method is laid out, and only the checker's runner
compiles a component or sweeps it."""

import ast
from pathlib import Path

import otcomp

SRC = Path(otcomp.__file__).parent


def _unused_imports(path: Path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    # __init__ imports only to re-export.
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
             for line, name in _unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, "assert statements:\n" + "\n".join(found)


def test_only_composition_names_the_update_constructor():
    # Patterns and the checker reach an edit's fields through composition;
    # a docstring is not a Constant equal to "Update", so it may mention it.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "composition.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Constant) and node.value == "Update"]
    assert not found, "the string 'Update' outside composition:\n" + "\n".join(found)


def test_only_the_runner_compiles_or_sweeps():
    # checker._check refuses a check before any sweep when a part's estimate
    # is over the case ceiling; a check that compiled or swept on its own
    # would skip that.
    sweeps = {"_cp1_sweep", "_cp2_sweep"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            owner = (path.name, getattr(top, "name", None))
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else None)
                compiles = (isinstance(node, ast.Call)
                            and getattr(node.func, "id", None) == "_Compiled")
                if (name in sweeps or compiles) and owner != ("checker.py", "_check"):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, "compiled or swept outside checker._check:\n" + "\n".join(found)
