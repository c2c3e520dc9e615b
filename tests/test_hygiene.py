"""Source hygiene: every name a module imports is used in that module, no
check rests on an `assert`, which `python -O` removes, only composition
knows how an Update method is laid out, only the checker's runner
compiles a component or sweeps it, the checker never names the static
product nor reads a pattern, no module declares a guard, the checker's
sweeps read tables filled from the component, not the validating kernel,
only the checker's table fills and runner name `nop`, only the checker's
cutter reads sites or pairs mirrors, the simulator asks nothing but the
validating kernel, no component or pattern is built from functions
made for it or takes bounds or a `site_aware`, every pattern's class
sets its name and address sorts, nothing reads
`site_aware`, no value class compares or hashes in Python, and importing
otcomp loads neither `dataclasses` nor `inspect`, nor the modules only a
split check needs."""

import ast
import os
import subprocess
import sys
import textwrap
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


def _pattern_reads(source: str):
    """Lines that read an attribute `pattern`."""
    return sorted({n.lineno for n in ast.walk(ast.parse(source))
                   if isinstance(n, ast.Attribute) and n.attr == "pattern"})


def test_the_checker_reads_no_pattern():
    # The checker reads which methods no state enables together off the
    # component's Poss rows, and asks composition whether a method is an
    # Update: it never reads the pattern a dynamic composition is built from.
    source = (SRC / "checker.py").read_text()
    found = _pattern_reads(source)
    assert not found, f"checker.py lines reading .pattern: {found}"
    # The rule catches a read through any object.
    planted = source + "\n\ndef _poss(t, i, s):\n    return t.c.pattern.update_poss(i, i, i, s)\n"
    assert _pattern_reads(planted) == [len(source.splitlines()) + 4]


# Names of a declared exclusion: a method's guard, read by the checker
# instead of its Poss row.
_GUARD_NAMES = {"Guard", "guard", "update_guard"}


def _guard_names(tree):
    """Lines that define, name or read a guard: a function, class,
    variable, argument or attribute so named."""
    return sorted({n.lineno for n in ast.walk(tree)
                   if (n.name if isinstance(n, (ast.FunctionDef, ast.ClassDef)) else
                       n.attr if isinstance(n, ast.Attribute) else
                       n.id if isinstance(n, ast.Name) else
                       n.arg if isinstance(n, ast.arg) else None) in _GUARD_NAMES})


def test_no_module_declares_exclusion():
    # The checker works out which methods no state enables together from
    # the components' own `poss_fn`: no component declares it, so no
    # declaration can disagree with what the component does.
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _guard_names(ast.parse(path.read_text(), str(path)))]
    assert not found, "guards declared or read:\n" + "\n".join(found)
    # The rule catches a definition, a call, a type and an argument, and
    # passes the set's `guarded` variant.
    planted = ast.parse(textwrap.dedent("""
        class GuardedSet(SetPattern):
            guarded = True
            def guard(self, m):
                return ()
        def _apart(t, c, i, update_guard):
            Guard = tuple
            return c.body.update_guard(i) or c.guard(i)
        """))
    assert _guard_names(planted) == [4, 6, 7, 8]


def test_the_checker_never_names_the_static_product():
    # Every check reports through its component's leaves and one lift: a
    # product differs only in what `Component.leaves` and its kin return.
    lines = (SRC / "checker.py").read_text().splitlines()
    found = [n for n, line in enumerate(lines, 1) if "StaticProduct" in line]
    assert not found, f"checker.py lines naming StaticProduct: {found}"


# The kernel functions that validate on every call, and where the checker may
# name them: _Compiled.__init__, which makes the fill functions of the
# kernel's tables for the replays and the `nop` fill of the component's.
_VALIDATING = {"apply", "enabled", "transform", "apply_seq", "transform_seq"}
_MAY_VALIDATE = {("_Compiled", "__init__")}


def _within(tree, places) -> set:
    """The ids of the nodes inside the places, each a (class or None,
    function) pair."""
    allowed = set()
    for top in tree.body:
        scopes = ([(top.name, d) for d in top.body] if isinstance(top, ast.ClassDef)
                  else [(None, top)])
        for owner, d in scopes:
            if (owner, getattr(d, "name", None)) in places:
                allowed.update(map(id, ast.walk(d)))
    return allowed


def _validating_kernel_calls(source: str):
    """Lines that name a validating kernel function outside the places
    allowed to: `kernel.apply` and its kind, called or passed on, or
    imported from the kernel."""
    tree = ast.parse(source)
    allowed = _within(tree, _MAY_VALIDATE)
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


# Where the checker may name `nop`: the component's table fills, which hand a
# `nop` to the kernel.
_MAY_NAME_NOP = {("_Compiled", "__init__")}


def _nop_constants(source: str):
    """Lines with the string "nop" outside the places allowed to name it."""
    tree = ast.parse(source)
    allowed = _within(tree, _MAY_NAME_NOP)
    return sorted(n.lineno for n in ast.walk(tree) if isinstance(n, ast.Constant)
                  and n.value == "nop" and id(n) not in allowed)


def test_only_the_table_fills_and_the_runner_name_nop():
    # No leaf sweeps `nop` (see `Component.leaves`), and the lift counts its
    # cases off t's blocks; a sweep or lift that tested for `nop` would be a
    # second path.  A docstring is not a Constant equal to "nop".
    source = (SRC / "checker.py").read_text()
    found = _nop_constants(source)
    assert not found, f"checker.py lines naming nop: {found}"
    # The rule catches a function that tests for `nop` elsewhere.
    planted = source + '\n\ndef _skip(t, i):\n    return t.method[i].ctor == "nop"\n'
    assert _nop_constants(planted) == [len(source.splitlines()) + 4]


# Where the checker may read the site rule, or search for a mirror by comparing
# a block to one built from another's lists: the cutter alone, which cuts a
# part's blocks so that every pair they draw is concurrent, and pairs each
# kept block with its mirror.
_SITE_RULE = {"site", "site_aware"}


def _site_rule_breaches(source: str):
    """Lines that read `.site` or `.site_aware`, or compare with `==` to a
    tuple display, outside `_by_site`, or name anything `concurrent`."""
    tree = ast.parse(source)
    cutter = _within(tree, {(None, "_by_site")})
    found = set()
    for n in ast.walk(tree):
        name = (n.attr if isinstance(n, ast.Attribute) else n.id if isinstance(n, ast.Name)
                else n.arg if isinstance(n, ast.arg) else getattr(n, "name", None))
        reads_site = isinstance(n, ast.Attribute) and n.attr in _SITE_RULE and id(n) not in cutter
        mirror = (isinstance(n, ast.Compare) and any(isinstance(op, ast.Eq) for op in n.ops)
                  and any(isinstance(x, ast.Tuple) for x in (n.left, *n.comparators))
                  and id(n) not in cutter)
        if reads_site or mirror or "concurrent" in (name or ""):
            found.add(n.lineno)
    return sorted(found)


def test_only_the_cutter_reads_sites_or_pairs_mirrors():
    # Two methods are concurrent unless one site issues both: `_by_site`
    # cuts each part's blocks by that rule once, and pairs each kept block
    # with its mirror, so the sweeps, the lift and the estimates read only
    # ids, list sizes and the mirrors it names.
    source = (SRC / "checker.py").read_text()
    found = _site_rule_breaches(source)
    assert not found, f"checker.py lines reading sites or finding mirrors: {found}"
    # The rule catches a site read, a concurrency test and a mirror search.
    planted = source + textwrap.dedent("""

        def _planted(t, blocks, b, i, j):
            aware = t.c.site_aware
            concurrent = t.method[i] != t.method[j]
            return [k for k in range(len(blocks)) if blocks[k] == (blocks[b][1], blocks[b][0])]
        """)
    end = len(source.splitlines())
    assert _site_rule_breaches(planted) == [end + 4, end + 5, end + 6]


# A component's own functions, which the checker's tables are filled from.
_COMPONENT_FUNCTIONS = {"do_fn", "poss_fn", "it_fn"}


def _component_function_names(source: str):
    """Lines that name a component's own function: as an attribute, a
    variable or a string (for getattr)."""
    return sorted({n.lineno for n in ast.walk(ast.parse(source))
                   if (n.attr if isinstance(n, ast.Attribute) else
                       n.id if isinstance(n, ast.Name) else
                       n.value if isinstance(n, ast.Constant) else None)
                   in _COMPONENT_FUNCTIONS})


def test_the_simulator_asks_only_the_validating_kernel():
    # The simulator is the checker's independent oracle: every answer it
    # records comes through kernel.enabled / apply / transform, which
    # validate, never from the functions the checker's tables read.
    source = (SRC / "simulator.py").read_text()
    found = _component_function_names(source)
    assert not found, f"simulator.py lines naming a component's functions: {found}"
    # The rule catches an attribute, a variable and a getattr string.
    planted = source + textwrap.dedent("""
        def _peek(c, m, st):
            do_fn = getattr(c, "do_fn")
            return c.poss_fn(m, st) and do_fn(m, st)
        """)
    end = len(source.splitlines())
    assert _component_function_names(planted) == [end + 3, end + 4]


def _component_classes(trees) -> set:
    """The names of Component, CompositionPattern and the classes derived
    from them."""
    names = {"Component", "CompositionPattern"}
    classes = [n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    grew = True
    while grew:
        grew = False
        for c in classes:
            if c.name not in names and any(getattr(b, "id", getattr(b, "attr", None)) in names
                                           for b in c.bases):
                names.add(c.name)
                grew = True
    return names


def _functions_passed_to_constructors(tree, classes: set):
    """Lines where a call to a component or pattern constructor, or a
    `super().__init__` in such a class, passes a lambda or a function
    defined inside a function (a nested def or a local lambda) in an
    argument."""
    found = []

    def constructs(call, cls):
        f = call.func
        if isinstance(f, ast.Attribute) and f.attr == "__init__":
            return (isinstance(f.value, ast.Call) and getattr(f.value.func, "id", None) == "super"
                    and cls in classes)
        return getattr(f, "id", getattr(f, "attr", None)) in classes

    def visit(node, local, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local = local | {n.name for n in ast.walk(node) if n is not node
                             and isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
            local |= {t.id for n in ast.walk(node) if isinstance(n, ast.Assign)
                      and isinstance(n.value, ast.Lambda)
                      for t in n.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.Call) and constructs(node, cls):
            for arg in [*node.args, *(k.value for k in node.keywords)]:
                found.extend(n.lineno for n in ast.walk(arg) if isinstance(n, ast.Lambda)
                             or isinstance(n, ast.Name) and n.id in local)
        for child in ast.iter_child_nodes(node):
            visit(child, local, cls)

    visit(tree, frozenset(), None)
    return sorted(set(found))


def test_no_component_or_pattern_is_built_from_functions_made_for_it():
    # A component's and a pattern's functions are its class's methods.
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    classes = _component_classes(trees.values())
    assert {"CellComponent", "SetPattern", "StaticProduct", "ComposedComponent",
            "StringPattern"} <= classes
    found = [f"{name}:{line}" for name, tree in trees.items()
             for line in _functions_passed_to_constructors(tree, classes)]
    assert not found, "functions passed to a constructor:\n" + "\n".join(found)
    # The rule catches a lambda, a nested def and a local lambda, also in a
    # dict or through super().__init__, and passes a module function.
    planted = ast.parse(
        "def build(child):\n"
        "    def do_fn(m, st):\n"
        "        return st\n"
        "    ident = lambda args, st: st\n"
        "    Component('x', poss_fn=lambda m, st: True)\n"
        "    Component('x', do_fn=do_fn)\n"
        "    Component('x', {'ident': ident}, max, _module_function)\n"
        "class Cell(Component):\n"
        "    def __init__(self):\n"
        "        super().__init__('c', lambda b: [])\n")
    assert _functions_passed_to_constructors(planted, {"Component", "Cell"}) == [5, 6, 7, 10]


# What dynamic composition reads off a pattern's class before a child is bound.
_PATTERN_CLASS_ATTRIBUTES = ("name", "update_address")


def _patterns_missing_class_attributes(trees):
    """(pattern, attribute) for each CompositionPattern subclass that no
    class derives from, and each of `name` and `update_address` that no
    class body assigns, its own or an ancestor's below CompositionPattern:
    one set in `__init__` alone is missing."""
    classes = {n.name: n for tree in trees for n in ast.walk(tree)
               if isinstance(n, ast.ClassDef)}
    bases = {name: [getattr(b, "id", getattr(b, "attr", None)) for b in c.bases]
             for name, c in classes.items()}

    def lineage(name):
        """The class and its ancestors below CompositionPattern, or [] if it
        does not derive from it."""
        for base in bases.get(name, ()):
            if base == "CompositionPattern":
                return [name]
            up = lineage(base)
            if up:
                return [name, *up]
        return []

    def assigned(c):
        targets = [t for stmt in c.body for t in (
            stmt.targets if isinstance(stmt, ast.Assign) else
            [stmt.target] if isinstance(stmt, ast.AnnAssign) and stmt.value is not None
            else [])]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}

    derived_from = {b for bs in bases.values() for b in bs}
    found = []
    for name in sorted(classes):
        chain = lineage(name)
        if chain and name not in derived_from:
            have = set().union(*(assigned(classes[c]) for c in chain))
            found += [(name, a) for a in _PATTERN_CLASS_ATTRIBUTES if a not in have]
    return found


def test_every_pattern_class_sets_its_name_and_address_sorts():
    # `dynamic_compose` names the composition and declares Update's
    # argument sorts from the pattern's class, before it binds the child.
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    found = _patterns_missing_class_attributes(trees)
    assert not found, f"patterns missing class attributes: {found}"
    # The rule catches a name set per instance, a missing address and a
    # variant that sets neither, and passes one that inherits the address.
    planted = ast.parse(textwrap.dedent("""
        class P(CompositionPattern):
            update_address = ()
            def __init__(self, child):
                self.name = "p"
        class Q(CompositionPattern):
            name: str = "q"
            update_address: tuple
        class Base(CompositionPattern):
            update_address = (POSITION,)
        class V(Base):
            name, guarded = "v", True
        class W(Base):
            guarded = False
        """))
    assert _patterns_missing_class_attributes([planted]) == [
        ("P", "name"), ("Q", "update_address"), ("W", "name")]
    # It reads the bundled patterns: one that loses its name is caught.
    source = (SRC / "patterns.py").read_text()
    unnamed = source.replace('    name = "string"\n', "")
    assert unnamed != source
    assert _patterns_missing_class_attributes([ast.parse(unnamed)]) == [("StringPattern", "name")]


def test_values_compare_and_hash_as_tuples():
    # Every table fill interns a value by hash and equality: the tuple's own
    # run in C, where a Python `__eq__` or `__hash__` costs a call per item.
    from otcomp.values import Cell, Method, Opaque, Product, SeqOf, SetOf
    found = [cls.__name__ for cls in (Cell, Opaque, SetOf, SeqOf, Product, Method)
             if cls.__eq__ is not tuple.__eq__ or cls.__hash__ is not tuple.__hash__]
    assert not found, f"value classes that compare or hash in Python: {found}"


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


def _site_aware_reads(tree):
    """Lines that name an attribute `site_aware`, to read or set it."""
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr == "site_aware")


def test_no_module_reads_site_aware():
    # Two methods are concurrent unless one site issues both: the cut reads
    # the methods' sites, never a declaration of the component's.
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _site_aware_reads(ast.parse(path.read_text(), str(path)))]
    assert not found, "reads of site_aware:\n" + "\n".join(found)
    # The rule catches a read through any object.
    planted = ast.parse("def _cut(t, c):\n    return t.c.site_aware or c.site_aware\n")
    assert _site_aware_reads(planted) == [2, 2]


def _construction_inputs(trees, classes: set):
    """Lines where an `__init__` of a component or pattern class takes a
    `site_aware`, or a Bounds: annotated as one or defaulting to
    DEFAULT_BOUNDS."""
    found = []
    for tree in trees:
        for f in ast.walk(tree):
            if not (isinstance(f, ast.ClassDef) and f.name in classes):
                continue
            for init in (n for n in f.body if getattr(n, "name", None) == "__init__"):
                a = init.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs]
                annotated = [x for x in params if x.annotation is not None and
                             ast.unparse(x.annotation) in ("Bounds", "Optional[Bounds]")]
                defaulted = [d for d in [*a.defaults, *a.kw_defaults]
                             if getattr(d, "id", None) == "DEFAULT_BOUNDS"]
                if annotated or defaulted or any(x.arg == "site_aware" for x in params):
                    found.append(init.lineno)
    return sorted(found)


def test_components_and_patterns_are_built_from_their_parts_alone():
    # No bound and no declaration of sites reaches a constructor: a dynamic
    # composition reads its Update address sorts off its pattern, and the
    # checker cuts by the methods' own sites.
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    classes = _component_classes(trees.values())
    found = [f"{name}:{line}" for name, tree in trees.items()
             for line in _construction_inputs([tree], classes)]
    assert not found, "constructors taking bounds or site_aware:\n" + "\n".join(found)
    # The rule catches an annotated Bounds, a DEFAULT_BOUNDS default and a
    # site_aware, and passes a function of bounds.
    planted = ast.parse(
        "class A(Component):\n"
        "    def __init__(self, name, b: Bounds):\n"
        "        pass\n"
        "class P(CompositionPattern):\n"
        "    def __init__(self, name, bounds=DEFAULT_BOUNDS):\n"
        "        pass\n"
        "class C(A):\n"
        "    def __init__(self, name, *, site_aware=False):\n"
        "        pass\n"
        "class D(A):\n"
        "    def __init__(self, values: Callable[[Bounds], list]):\n"
        "        pass\n")
    assert _construction_inputs([planted], _component_classes([planted])) == [2, 5, 8]
