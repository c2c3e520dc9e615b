"""The component abstraction and the sequence machinery built on top of it.

A Component bundles a hidden-state data type: a transition function (`do_fn`),
an enabledness predicate (`poss_fn`), a transform function (`it_fn`) that
adjusts one concurrent method to include the effect of another, attribute
observers, and bounded enumerators for states and methods.  All values are
immutable and every operation here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .bounds import Bounds, DEFAULT_BOUNDS
from .errors import BoundsExceeded, UnknownAttribute, UnknownMethod
from .values import NOP, Method, StateValue, canon_key


@dataclass(eq=False)
class Component:
    name: str
    # Constructor -> argument sorts (values.VALUE / POSITION / STATE / METHOD,
    # or a tuple of POSITIONs for an address), with `nop` declared as taking
    # none.
    method_ctors: Dict[str, Tuple[Any, ...]]
    # Attribute name -> observer (data args, state) -> data value; it may
    # raise UndefinedObservation where no value has been established yet.
    attributes: Dict[str, Callable[[Tuple[Any, ...], StateValue], Any]]
    initial_state: StateValue
    do_fn: Callable[[Method, StateValue], StateValue]
    poss_fn: Callable[[Method, StateValue], bool]
    it_fn: Callable[[Method, Method], Method]
    enum_methods_fn: Callable[[Bounds], List[Method]]
    enum_states_fn: Callable[[Bounds], List[StateValue]]
    site_aware: bool = False
    # The element component of a pattern instance or dynamic composition, or
    # the factors of a static product.
    parts: Tuple["Component", ...] = ()
    # Static product: constructor -> (factor index, the factor's constructor).
    owner: Dict[str, Tuple[int, str]] = field(default_factory=dict)
    # Cells and atoms: the type of the value held, and of a VALUE argument;
    # None leaves them unchecked when read from JSON.
    value_type: Optional[type] = None

    # Each sort keys its list with one memo, whose ids the list keeps alive.
    def enum_methods(self, b: Bounds = DEFAULT_BOUNDS) -> List[Method]:
        methods = self.enum_methods_fn(b)
        if len(methods) > b.max_methods:
            raise BoundsExceeded(f"{self.name}: {len(methods)} methods exceed "
                                 f"the ceiling {b.max_methods}")
        return sorted(methods, key=partial(canon_key, memo={}))

    def enum_states(self, b: Bounds = DEFAULT_BOUNDS) -> List[StateValue]:
        return sorted(self.enum_states_fn(b), key=partial(canon_key, memo={}))


def _require_method(c: Component, m: Method) -> None:
    if not isinstance(m, Method) or m.ctor not in c.method_ctors:
        ctor = getattr(m, "ctor", m)
        raise UnknownMethod(f"{ctor!r} is not a method of component {c.name!r}")


def apply(c: Component, m: Method, st: StateValue) -> StateValue:
    """Execute one method on a state.  `nop` is the identity."""
    _require_method(c, m)
    if m.ctor == "nop":
        return st
    return c.do_fn(m, st)


def enabled(c: Component, m: Method, st: StateValue) -> bool:
    """Whether the method may execute on the state.  `nop` is always enabled."""
    _require_method(c, m)
    if m.ctor == "nop":
        return True
    return bool(c.poss_fn(m, st))


def transform(c: Component, m1: Method, m2: Method) -> Method:
    """Adjust m1 to include the effect of a concurrent m2.

    Transforming against `nop` is the identity and transforming `nop` stays
    `nop`; component tables only cover proper method pairs.
    """
    _require_method(c, m1)
    _require_method(c, m2)
    if m2.ctor == "nop":
        return m1
    if m1.ctor == "nop":
        return NOP
    return c.it_fn(m1, m2)


def apply_seq(c: Component, seq: Sequence[Method], st: StateValue) -> StateValue:
    """Left-to-right fold of apply; the empty sequence returns st."""
    for m in seq:
        st = apply(c, m, st)
    return st


def legal(c: Component, seq: Sequence[Method], st: StateValue) -> bool:
    """Each method enabled at its intermediate state; empty sequence is legal."""
    for m in seq:
        if not enabled(c, m, st):
            return False
        st = apply(c, m, st)
    return True


def transform_seq(c: Component, m: Method, seq: Sequence[Method]) -> Method:
    """Fold of transform over an already-executed method sequence."""
    for other in seq:
        m = transform(c, m, other)
    return m


def observe(c: Component, attr: str, args: Sequence[Any], st: StateValue) -> Any:
    if attr not in c.attributes:
        raise UnknownAttribute(f"{attr!r} is not an attribute of {c.name!r}")
    return c.attributes[attr](tuple(args), st)
