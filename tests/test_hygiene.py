"""Source hygiene: every name a module imports is used in that module, no
check rests on an `assert`, which `python -O` removes, only composition
knows how an Update method is laid out, only the checker's runner
compiles a component or sweeps it, the checker's sweeps read tables
filled from the component, not the validating kernel, and importing
otcomp loads neither `dataclasses` nor `inspect`, nor the modules only a
split check needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# The kernel functions that validate on every call, and where the checker may
# name them: _Compiled.__init__, which builds the kernel's tables for the
# replays and the `nop` fill of the component's.
_VALIDATING = {"apply", "enabled", "transform", "apply_seq", "transform_seq"}
_MAY_VALIDATE = {("_Compiled", "__init__")}


def _validating_kernel_calls(source: str):
    """Lines that name a validating kernel function outside the places
    allowed to: `kernel.apply` and its kind, called or passed on, or
    imported from the kernel."""
    tree = ast.parse(source)
    allowed = set()
    for top in tree.body:
        scopes = ([(top.name, d) for d in top.body] if isinstance(top, ast.ClassDef)
                  else [(None, top)])
        for owner, d in scopes:
            if (owner, getattr(d, "name", None)) in _MAY_VALIDATE:
                allowed.update(map(id, ast.walk(d)))
    found = []
    for node in ast.walk(tree):
        named = (isinstance(node, ast.Attribute) and node.attr in _VALIDATING
                 and isinstance(node.value, ast.Name) and node.value.id == "kernel")
        imported = (isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[-1] == "kernel"
                    and any(a.name in _VALIDATING for a in node.names))
        if (named or imported) and id(node) not in allowed:
            found.append(node.lineno)
    return found


def test_sweeps_do_not_call_the_validating_kernel():
    # Each method is validated once, when the checker interns it, and the
    # tables are filled from the component's own functions.
    source = (SRC / "checker.py").read_text()
    found = _validating_kernel_calls(source)
    assert not found, f"checker.py lines calling the validating kernel: {found}"
    # The rule catches a sweep that calls the kernel.
    tree = ast.parse(source)
    sweep = next(n for n in tree.body if getattr(n, "name", None) == "_cp1_sweep")
    lines = source.splitlines(keepends=True)
    lines.insert(sweep.body[0].lineno - 1,
                 "    kernel.apply(t.c, t.method[0], t.state[0])\n")
    assert _validating_kernel_calls("".join(lines)) == [sweep.body[0].lineno]


@pytest.mark.parametrize("module", ["otcomp", "otcomp.cli"])
def test_importing_otcomp_loads_neither_dataclasses_nor_inspect(module):
    # `dataclasses` imports `inspect` and `ast`, and each class it makes
    # execs its generated methods: together about 25 ms of every fresh
    # process.  `pickle`, about 15 ms uncached, is for a check split in two
    # processes alone, which imports it; nothing needs a process pool.  -S
    # keeps modules that site may load out of the count.
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    heavy = {"dataclasses", "inspect", "pickle", "multiprocessing", "concurrent"}
    code = f"import sys, {module}; print(sorted({heavy!r} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
