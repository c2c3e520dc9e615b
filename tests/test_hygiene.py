"""Source hygiene: every name a module imports is used in that module, no
check rests on an `assert`, which `python -O` removes, and only composition
knows how an Update method is laid out."""

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
