"""Sites are interchangeable up to their order.

A strictly increasing renaming of site ids, applied to a method and to
every method it carries, commutes with `kernel.transform` and leaves
`kernel.enabled` and `kernel.apply` as they are: the bundled transforms
read a site only through `<` (the string's insert tie), and states carry
none.  This is the contract a sweep of one site assignment per order type
rests on.  Seeded samples of methods and states keep it to about a second.

A method's own site reaches no answer of `kernel.enabled` or `kernel.apply`
at all: Do and Poss read its constructor and arguments, so the checker's
tables give the methods that differ only by site one row.
"""

import itertools
import random

import pytest

from otcomp import kernel
from otcomp.bounds import DEFAULT_BOUNDS
from otcomp.cells import cchar
from otcomp.composition import is_update
from otcomp.registry import build
from otcomp.tower import TOWER_BOUNDS, build_document_tower
from otcomp.values import Method
from test_product_check import PRODUCTS, _replaced
from triangle import Triangle

# Cases drawn per renaming where there are more than this many.
SAMPLES = 600
RANDOM_RENAMINGS = 3


def _bundled(expr):
    return lambda: (build(expr), DEFAULT_BOUNDS)


def _tower(level):
    return lambda: (build_document_tower()[level], TOWER_BOUNDS)


COMPONENTS = {
    **{expr: _bundled(expr) for expr in (
        "cchar", "set-literal", "set-guarded", "string", "set-guarded[cchar]",
        "string[cchar]", "cchar (+) cnat (+) ccolor", "string[string]")},
    "fchar": _tower("fchar"),
    "word": _tower("word"),
}


def _renamed(m, rename):
    """m with every site s, its own and those of the methods its arguments
    carry, replaced by rename[s]."""
    args = tuple(_renamed(a, rename) if isinstance(a, Method) else a for a in m.args)
    return Method(m.ctor, args, None if m.site is None else rename[m.site])


def _renamings(rng, sites):
    """Strictly increasing maps of the sites 0..sites-1 into the naturals:
    one that moves every site to an odd id, and random ones."""
    fixed = {s: 2 * s + 1 for s in range(sites)}
    drawn = [dict(enumerate(sorted(rng.sample(range(4 * sites + 4), sites))))
             for _ in range(RANDOM_RENAMINGS)]
    return [fixed, *drawn]


def _cases(rng, xs, ys):
    """Every (x, y) if there are at most SAMPLES of them, else SAMPLES drawn."""
    if len(xs) * len(ys) <= SAMPLES:
        return list(itertools.product(xs, ys))
    return [(rng.choice(xs), rng.choice(ys)) for _ in range(SAMPLES)]


@pytest.mark.parametrize("name", list(COMPONENTS))
def test_renaming_sites_in_order_changes_no_answer(name):
    c, b = COMPONENTS[name]()
    rng = random.Random(name)
    methods, states = c.enum_methods(b), c.enum_states(b)
    for rename in _renamings(rng, b.sites):
        r = {m: _renamed(m, rename) for m in methods}
        for m1, m2 in _cases(rng, methods, methods):
            assert (kernel.transform(c, r[m1], r[m2])
                    == _renamed(kernel.transform(c, m1, m2), rename)), (m1, m2, rename)
        for m, st in _cases(rng, methods, states):
            assert kernel.enabled(c, r[m], st) == kernel.enabled(c, m, st), (m, st, rename)
            assert kernel.apply(c, r[m], st) == kernel.apply(c, m, st), (m, st, rename)


def test_the_renamings_move_the_sites_methods_carry():
    # The contract is not vacuous: on `string[string]`, a renaming moves the
    # site of an Update and the site of the child method it carries.
    c = build("string[string]")
    u = next(m for m in c.enum_methods() if is_update(m) and m.site == 0
             and m.args[2].site == 1)
    moved = _renamed(u, {0: 3, 1: 8})
    assert (moved.site, moved.args[2].site) == (3, 8)


# Components whose Do and Poss are checked to ignore a method's own site:
# the bundled ones above, the triangle, and the products with a planted fault.
SITE_BLIND = {
    **COMPONENTS,
    "triangle": lambda: (Triangle(), DEFAULT_BOUNDS),
    **{name: PRODUCTS[name] for name in ("broken cnat", "broken cchar", "nested broken cchar")},
}


def _site_readings(c, b, rng):
    """The sampled (method, state) on which `kernel.enabled` or
    `kernel.apply` gives more than one answer as the method's own site runs
    over None and 0..sites-1."""
    found = []
    for m, st in _cases(rng, c.enum_methods(b), c.enum_states(b)):
        on = [Method(m.ctor, m.args, site) for site in (None, *range(b.sites))]
        if (len({kernel.enabled(c, x, st) for x in on}) > 1
                or len({kernel.apply(c, x, st) for x in on}) > 1):
            found.append((m, st))
    return found


@pytest.mark.parametrize("name", list(SITE_BLIND))
def test_do_and_poss_read_no_method_site(name):
    c, b = SITE_BLIND[name]()
    found = _site_readings(c, b, random.Random(name))
    assert not found, found[:3]


def test_a_poss_that_reads_the_site_is_caught():
    c = _replaced(cchar(), poss_fn=lambda m, st: m.site != 1)
    assert _site_readings(c, DEFAULT_BOUNDS, random.Random("planted"))
