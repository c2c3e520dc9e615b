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
from .values import VALUE, Cell, Method

COLOR_ORDER = ("red", "green", "blue")


class CellComponent(Component):
    """A cell written by `put` and read by `get`.  `values(b)` lists the
    values it holds at bounds `b`, and `merge` reconciles two concurrent
    writes; a merge that breaks one of its laws over the values at
    DEFAULT_BOUNDS is refused when the cell is built (InvalidSpec)."""

    def __init__(self, name: str, put: str, get: str,
                 values: Callable[[Bounds], List[Any]], merge: Callable[[Any, Any], Any]):
        dom = values(DEFAULT_BOUNDS)
        super().__init__(name, {put: (VALUE,)}, Cell(None), value_type=type(dom[0]))
        self.put, self.get, self.values, self.merge = put, get, values, merge
        self.attributes = {get: self.observe}
        self._validate_merge(dom)

    def _validate_merge(self, dom: List[Any]) -> None:
        f = self.merge
        for a in dom:
            if f(a, a) != a:
                raise InvalidSpec(f"{self.name}: merge not idempotent at {a!r}")
        for a, c in itertools.product(dom, repeat=2):
            if f(a, c) != f(c, a):
                raise InvalidSpec(f"{self.name}: merge not commutative at ({a!r},{c!r})")
        for a, c, d in itertools.product(dom, repeat=3):
            if f(f(a, c), d) != f(a, f(c, d)):
                raise InvalidSpec(
                    f"{self.name}: merge not associative at ({a!r},{c!r},{d!r})")

    def do_fn(self, m: Method, st: Cell) -> Cell:
        return Cell(m.args[0])

    def poss_fn(self, m: Method, st: Cell) -> bool:
        return True

    def it_fn(self, m1: Method, m2: Method) -> Method:
        return Method(self.put, (self.merge(m1.args[0], m2.args[0]),))

    def enum_methods_fn(self, b: Bounds) -> List[Method]:
        return [Method(self.put, (v,)) for v in self.values(b)]

    def enum_states_fn(self, b: Bounds) -> List[Cell]:
        return [Cell(None)] + [Cell(v) for v in self.values(b)]

    def observe(self, args, st: Cell):
        if st.value is None:
            raise UndefinedObservation(f"{self.get} on the initial cell")
        return st.value


def _first(values, b: Bounds, bound: str) -> list:
    """The first `b.<bound>` of the values; BoundsExceeded if there are fewer."""
    n = getattr(b, bound)
    if n > len(values):
        raise BoundsExceeded(f"bound {bound}={n} exceeds the {len(values)} values on offer")
    return list(values[:n])


def _color_min(c1: str, c2: str) -> str:
    return min(c1, c2, key=COLOR_ORDER.index)


def _chars(b: Bounds) -> List[str]:
    return _first(string.ascii_lowercase, b, "alphabet")


def _nats(b: Bounds) -> List[int]:
    return list(range(b.nat_max + 1))


def _colors(b: Bounds) -> List[str]:
    return _first(COLOR_ORDER, b, "colors")


def cchar() -> Component:
    return CellComponent("cchar", "putchar", "getchar", _chars, max)


def cnat() -> Component:
    return CellComponent("cnat", "putnat", "getnat", _nats, min)


def ccolor() -> Component:
    return CellComponent("ccolor", "putcolor", "getcolor", _colors, _color_min)
