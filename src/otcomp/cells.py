"""Single-value cell components: character, natural and color cells.

Each cell stores one value, observable through a single getter.  Concurrent
writes are merged by a commutative, associative, idempotent function so that
the write surviving a transform is independent of delivery order (max of
characters, min of naturals, min of colors).
"""

from __future__ import annotations

import itertools
import string
from typing import Any, Callable, List

from .bounds import Bounds, DEFAULT_BOUNDS
from .errors import BoundsExceeded, InvalidSpec, UndefinedObservation
from .kernel import Component
from .values import NOP, VALUE, Cell, Method

COLOR_ORDER = ("red", "green", "blue")


class CellComponentSpec:
    def __init__(self, name, put_name, get_name, values, merge_fn):
        self.name: str = name
        self.put_name: str = put_name
        self.get_name: str = get_name
        self.values: Callable[[Bounds], List[Any]] = values
        self.merge_fn: Callable[[Any, Any], Any] = merge_fn


def _validate_merge(spec: CellComponentSpec, b: Bounds) -> None:
    dom = spec.values(b)
    f = spec.merge_fn
    for a in dom:
        if f(a, a) != a:
            raise InvalidSpec(f"{spec.name}: merge not idempotent at {a!r}")
    for a, c in itertools.product(dom, repeat=2):
        if f(a, c) != f(c, a):
            raise InvalidSpec(f"{spec.name}: merge not commutative at ({a!r},{c!r})")
    for a, c, d in itertools.product(dom, repeat=3):
        if f(f(a, c), d) != f(a, f(c, d)):
            raise InvalidSpec(f"{spec.name}: merge not associative at ({a!r},{c!r},{d!r})")


def make_cell_component(spec: CellComponentSpec) -> Component:
    """Build a cell component; rejects merge functions that break their laws."""
    _validate_merge(spec, DEFAULT_BOUNDS)
    put, get = spec.put_name, spec.get_name

    def do_fn(m: Method, st: Cell) -> Cell:
        return Cell(m.args[0])

    def it_fn(m1: Method, m2: Method) -> Method:
        return Method(put, (spec.merge_fn(m1.args[0], m2.args[0]),))

    def get_fn(args, st: Cell):
        if st.value is None:
            raise UndefinedObservation(f"{get} on the initial cell")
        return st.value

    return Component(
        name=spec.name,
        method_ctors={"nop": (), put: (VALUE,)},
        attributes={get: get_fn},
        initial_state=Cell(None),
        do_fn=do_fn,
        poss_fn=lambda m, st: True,
        it_fn=it_fn,
        enum_methods_fn=lambda b: [NOP] + [Method(put, (v,)) for v in spec.values(b)],
        enum_states_fn=lambda b: [Cell(None)] + [Cell(v) for v in spec.values(b)],
        value_type=type(spec.values(DEFAULT_BOUNDS)[0]),
    )


def _first(values, b: Bounds, bound: str) -> list:
    """The first `b.<bound>` of the values; BoundsExceeded if there are fewer."""
    n = getattr(b, bound)
    if n > len(values):
        raise BoundsExceeded(f"bound {bound}={n} exceeds the {len(values)} values on offer")
    return list(values[:n])


def _color_min(c1: str, c2: str) -> str:
    return min(c1, c2, key=COLOR_ORDER.index)


CHAR_CELL = CellComponentSpec(
    "cchar", "putchar", "getchar",
    values=lambda b: _first(string.ascii_lowercase, b, "alphabet"),
    merge_fn=max,
)

NAT_CELL = CellComponentSpec(
    "cnat", "putnat", "getnat",
    values=lambda b: list(range(b.nat_max + 1)),
    merge_fn=min,
)

COLOR_CELL = CellComponentSpec(
    "ccolor", "putcolor", "getcolor",
    values=lambda b: _first(COLOR_ORDER, b, "colors"),
    merge_fn=_color_min,
)


def cchar() -> Component:
    return make_cell_component(CHAR_CELL)


def cnat() -> Component:
    return make_cell_component(NAT_CELL)


def ccolor() -> Component:
    return make_cell_component(COLOR_CELL)
