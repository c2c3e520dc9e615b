"""The component abstraction and the sequence machinery built on top of it.

A Component is a hidden-state data type.  Each kind of component is a
subclass whose methods are its functions: a transition function (`do_fn`),
an enabledness predicate (`poss_fn`), a transform function (`it_fn`) that
adjusts one concurrent method to include the effect of another, and bounded
enumerators for methods and states (`enum_methods_fn`, `enum_states_fn`).
All values are immutable and every operation here is a pure function.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .bounds import Bounds, DEFAULT_BOUNDS
from .errors import BoundsExceeded, UnknownAttribute, UnknownMethod
from .values import METHOD, NOP, Method, StateValue, canon_key


class Component:
    """The base of every kind of component.  A subclass defines
    `do_fn(m, st)`, `poss_fn(m, st)` and `it_fn(m1, m2)`, which the kernel
    calls on its own methods only, and `enum_methods_fn(b)` and
    `enum_states_fn(b)`, which list its own methods and its states at
    bounds `b` in any order; and it sets `attributes`.  `nop` is every
    component's: this class declares it and enumerates it, and the kernel
    answers it, so a component with no other method defines no function
    of it.  A component is built from its parts alone: no bound, and no
    declaration of how its methods are issued, since two methods are
    concurrent unless one site issues both, nor of which methods no state
    enables together, which the checker reads off `poss_fn`.  A method's
    site only breaks `it_fn`'s ties: `do_fn` and `poss_fn` read its
    constructor and arguments, never its own site, so the checker asks
    them once for all the methods that differ only by site."""

    # Attribute name -> observer (data args, state) -> data value; it may
    # raise UndefinedObservation where no value has been established yet.
    attributes: Dict[str, Callable[[Tuple[Any, ...], StateValue], Any]]
    # Static product: constructor -> (factor index, the factor's constructor).
    owner: Dict[str, Tuple[int, str]] = {}
    site_aware = True  # only bench/gate.py reads it: the checker cuts every method by site

    def __init__(self, name: str, method_ctors: Dict[str, Tuple[Any, ...]],
                 initial_state: StateValue, parts: Tuple[Component, ...] = (),
                 value_type: Optional[type] = None):
        self.name = name
        # Constructor -> argument sorts (values.VALUE / POSITION / STATE / METHOD, or
        # a tuple of POSITIONs for an address), `nop`, which takes none, first.
        self.method_ctors = {"nop": (), **method_ctors}
        self.initial_state = initial_state
        # The element component of a pattern instance or dynamic composition, or
        # the factors of a static product.
        self.parts = parts
        # Cells and atoms: the type of the value held, and of a VALUE argument;
        # None leaves them unchecked when read from JSON.
        self.value_type = value_type

    # Each sort keys its list with one memo, whose ids the list keeps alive.
    def enum_methods(self, b: Bounds = DEFAULT_BOUNDS) -> List[Method]:
        methods = [NOP, *self.enum_methods_fn(b)]
        if len(methods) > b.max_methods:
            raise BoundsExceeded(f"{self.name}: {len(methods)} methods exceed "
                                 f"the ceiling {b.max_methods}")
        return sorted(methods, key=partial(canon_key, memo={}))

    def enum_states(self, b: Bounds = DEFAULT_BOUNDS) -> List[StateValue]:
        return sorted(self.enum_states_fn(b), key=partial(canon_key, memo={}))

    # A check sweeps a component's leaves (see `checker._check`): the
    # component itself, unless it is a static product.
    def leaves(self) -> List[Tuple[Component, Dict[str, str]]]:
        """Each leaf, in the order their states make up a state, with the
        leaf's name for each constructor of this component it owns: `nop`,
        which no leaf sweeps, is nobody's.  Here the one leaf is the
        component itself, owning every other constructor, unrenamed."""
        return [(self, {ctor: ctor for ctor in self.method_ctors if ctor != "nop"})]

    def count_states(self, counts: Iterator[int]) -> int:
        """How many states `enum_states` gives, from its leaves' counts."""
        return next(counts)

    def assemble(self, items: Iterator[StateValue]) -> StateValue:
        """The state whose leaves' states are the items, in leaf order."""
        return next(items)


def _require_method(c: Component, m: Method) -> Tuple[Any, ...]:
    """The argument sorts of m's constructor, if m is a method of c with as
    many arguments as they are; UnknownMethod otherwise.  It reads no
    argument, so it takes the same time for every method."""
    sorts = c.method_ctors.get(m.ctor) if isinstance(m, Method) else None
    if sorts is None:
        ctor = getattr(m, "ctor", m)
        raise UnknownMethod(f"{ctor!r} is not a method of component {c.name!r}")
    if len(m.args) != len(sorts):
        raise UnknownMethod(f"{m.ctor!r} has {len(m.args)} arguments, but "
                            f"component {c.name!r} declares {len(sorts)}")
    return sorts


def validate_method(c: Component, m: Method) -> None:
    """Raise UnknownMethod unless m is a method of c with as many arguments
    as its constructor declares, down to the methods its arguments carry: a
    METHOD argument must be a method of c's element, parts[0], as
    `values.decode_method` reads it.  A static product's method is judged
    by the factor owning its constructor."""
    sorts = _require_method(c, m)
    if not c.parts:  # only a component with parts declares METHOD arguments
        return
    if m.ctor in c.owner:
        i, ctor = c.owner[m.ctor]
        validate_method(c.parts[i], m.renamed(ctor))
    else:
        for sort, arg in zip(sorts, m.args):
            if sort == METHOD:
                validate_method(c.parts[0], arg)


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
    `nop`; component tables only cover proper method pairs.  Those answers
    read no component function, so the other method is validated in full.
    """
    _require_method(c, m1)
    _require_method(c, m2)
    if m2.ctor == "nop":
        validate_method(c, m1)
        return m1
    if m1.ctor == "nop":
        validate_method(c, m2)
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
