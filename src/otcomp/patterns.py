"""Parametric container patterns and admissibility.

A pattern is a container component whose element sort is left open: the
class is the pattern, and an instance binds the element sort to another
component's states, its child.  The instance is the container over those
elements and also carries the semantics needed to graft in-place element
edits onto it (see composition.dynamic_compose).

Two patterns ship: a finite set (in a "literal" and a "guarded" variant,
differing only in whether adding a present element is enabled) and a sequence
with position-addressed insert/delete whose transform shifts positions and
breaks insert ties by site id.
"""

from __future__ import annotations

import itertools
from typing import Any, List, Optional, Tuple, Type

from .bounds import MAX_STATES, Bounds, DEFAULT_BOUNDS
from .errors import BoundsExceeded, UndefinedObservation
from .kernel import Component
from .values import (NOP, POSITION, STATE, Method, Opaque, SeqOf, SetOf, StateValue,
                     seq_of, set_of)


class CompositionPattern(Component):
    """A container whose formal element parameter must come with an
    equivalence (the axioms eq-symmetric and eq-transitive).

    A pattern uses its elements only through `==`, `hash` and `canon_key`
    (which orders its child's enumeration): element equality is structural
    equality of the child's states, an equivalence by construction, and no
    pattern reads an element's value, order or truth.
    `tests/test_patterns.py` runs every bundled pattern on elements that
    allow nothing else.

    A subclass is a pattern.  Its class body sets `name` and
    `update_address`, which dynamic composition reads before a child is
    bound: the sorts of an edit's address, a tuple of one POSITION per
    coordinate.  An instance, `Pattern(child, name)`, is the container over
    the child's states, with the functions of every component, and the
    in-place element edits that dynamic composition grafts on.  An edit
    carries its address, the old child state and the new one:
    `update_do(addr, old, new, st)` and `update_poss(addr, old, new, st)`
    apply it and say whether it is enabled; `it_update_vs_method(addr, old,
    new, m)` is its address after a concurrent container method m, or None
    where m removed the edited element; and `it_method_vs_update(m, addr,
    old, new)` is m transformed against it.  Its addresses and issuing
    sites are worked out from these, and which of its methods no state
    enables together from `poss_fn` and `update_poss` (see
    `ComposedComponent`).
    """

    update_address: Tuple[Any, ...]


class AdmissibilityReport:
    def __init__(self, ok, states_checked, failed_axiom=None):
        self.ok: bool = ok
        self.states_checked: int = states_checked
        self.failed_axiom: Optional[str] = failed_axiom


def check_admissible(pattern: Type[CompositionPattern], child: Component,
                     phi: None = None, b: Bounds = DEFAULT_BOUNDS) -> AdmissibilityReport:
    """Verify that the child's states at `b` can stand for the pattern's
    elements: at least two of them, and no two equal.  Structural equality
    is an equivalence by construction, and every pattern reads its elements
    through it alone, so nothing else needs checking; `phi` must be None."""
    if phi is not None:
        raise TypeError("a pattern binds its elements by structural equality; phi must be None")
    states = child.enum_states(b)
    if len(states) < 2:
        raise BoundsExceeded(
            f"{child.name}: admissibility needs at least 2 enumerated states, got {len(states)}")
    n = len(states)
    if len(set(states)) != n:
        return AdmissibilityReport(False, n, "canonical-unique")
    return AdmissibilityReport(True, n)


# ---------------------------------------------------------------------------
# Finite-set pattern
# ---------------------------------------------------------------------------

class SetPattern(CompositionPattern):
    """Finite sets of elements with add/remove and element-wise transform.

    The "literal" variant always enables add; the "guarded" variant requires
    the element to be absent, which removes the one delivery race where a
    concurrent add/remove pair on a present element diverges.  The guarded
    variant guards in-place edits the same way: the new value must not collide
    with another element already present, since a value-addressed set would
    silently merge the two and lose one of them.

    So no state enables together a method that needs an element present
    (`remove e`, an edit of e) and one that needs it absent (the guarded
    `add e`, a guarded edit of another element into e).  Edits of different
    elements may be enabled together, since a set holds many elements.  The
    checker reads this off `poss_fn` and `update_poss`.
    """

    update_address = ()  # the old element itself addresses the target
    guarded: bool

    def __init__(self, child: Component, name: Optional[str] = None):
        super().__init__(name or self.name, {"add": (STATE,), "remove": (STATE,)}, SetOf(),
                         (child,))
        self.attributes = {"iselem": self.iselem}

    def do_fn(self, m: Method, st: SetOf) -> SetOf:
        e = m.args[0]
        if m.ctor == "add":
            return SetOf(st.items | {e})
        return SetOf(st.items - {e})

    def poss_fn(self, m: Method, st: SetOf) -> bool:
        e = m.args[0]
        if m.ctor == "add":
            return e not in st.items if self.guarded else True
        return e in st.items

    def it_fn(self, m1: Method, m2: Method) -> Method:
        # Two equal methods do their work once; any other pair leaves m1 as it is.
        return NOP if m1.ctor == m2.ctor and m1.args[0] == m2.args[0] else m1

    def enum_methods_fn(self, b: Bounds) -> List[Method]:
        elems = self.parts[0].enum_states(b)
        return [Method(c, (e,)) for c in ("add", "remove") for e in elems]

    def enum_states_fn(self, b: Bounds) -> List[SetOf]:
        elems = self.parts[0].enum_states(b)
        if 2 ** len(elems) > MAX_STATES:
            raise BoundsExceeded(f"{self.name}: {2 ** len(elems)} subset states")
        out = []
        for r in range(len(elems) + 1):
            out.extend(set_of(c) for c in itertools.combinations(elems, r))
        return out

    def iselem(self, args, st: SetOf) -> bool:
        return args[0] in st.items

    def update_do(self, addr, old, new, st: SetOf) -> SetOf:
        return SetOf((st.items - {old}) | {new})

    def update_poss(self, addr, old, new, st: SetOf) -> bool:
        if old not in st.items:
            return False
        if self.guarded:
            return new == old or new not in st.items
        return True

    def it_update_vs_method(self, addr, old, new, m: Method) -> Optional[Tuple[Any, ...]]:
        if m.ctor == "remove" and m.args[0] == old:
            return None  # the edited element vanished
        return addr

    def it_method_vs_update(self, m: Method, addr, old, new) -> Method:
        if m.ctor == "remove" and m.args[0] == old:
            return Method("remove", (new,), m.site)
        return m


class LiteralSet(SetPattern):
    name, guarded = "set-literal", False


class GuardedSet(SetPattern):
    name, guarded = "set-guarded", True


def set_pattern(variant: str = "guarded") -> Type[SetPattern]:
    if variant not in ("literal", "guarded"):
        raise ValueError(f"unknown set variant {variant!r}")
    return GuardedSet if variant == "guarded" else LiteralSet


# ---------------------------------------------------------------------------
# Sequence pattern
# ---------------------------------------------------------------------------

def _site(m: Method) -> int:
    return -1 if m.site is None else m.site


class StringPattern(CompositionPattern):
    """A sequence of elements with position-addressed insert and delete."""

    name = "string"
    update_address = (POSITION,)

    def __init__(self, child: Component, name: Optional[str] = None):
        super().__init__(name or self.name, {"Ins": (POSITION, STATE), "Del": (POSITION,)},
                         SeqOf(), (child,))
        self.attributes = {"elemAt": self.elem_at, "length": self.length}

    def do_fn(self, m: Method, st: SeqOf) -> SeqOf:
        p = m.args[0]
        items = st.items
        if m.ctor == "Ins":
            if 0 <= p <= len(items):
                return SeqOf(items[:p] + (m.args[1],) + items[p:])
            return st
        if 0 <= p < len(items):
            return SeqOf(items[:p] + items[p + 1:])
        return st

    def poss_fn(self, m: Method, st: SeqOf) -> bool:
        p = m.args[0]
        if m.ctor == "Ins":
            return 0 <= p <= len(st.items)
        return 0 <= p < len(st.items)

    def it_fn(self, m1: Method, m2: Method) -> Method:
        c1, c2 = m1.ctor, m2.ctor
        p1, p2 = m1.args[0], m2.args[0]
        if c1 == "Ins" and c2 == "Ins":
            if p1 < p2 or (p1 == p2 and _site(m1) < _site(m2)):
                return m1
            return Method("Ins", (p1 + 1, m1.args[1]), m1.site)
        if c1 == "Ins" and c2 == "Del":
            if p1 <= p2:
                return m1
            return Method("Ins", (p1 - 1, m1.args[1]), m1.site)
        if c1 == "Del" and c2 == "Ins":
            if p1 < p2:
                return m1
            return Method("Del", (p1 + 1,), m1.site)
        # Del vs Del
        if p1 < p2:
            return m1
        if p1 > p2:
            return Method("Del", (p1 - 1,), m1.site)
        return NOP  # both deleted the same element

    def enum_methods_fn(self, b: Bounds) -> List[Method]:
        elems = self.parts[0].enum_states(b)
        out = []
        for n in range(b.sites):
            out.extend(Method("Ins", (p, e), n)
                       for p in range(b.max_len + 1) for e in elems)
            out.extend(Method("Del", (p,), n) for p in range(b.max_len))
        return out

    def enum_states_fn(self, b: Bounds) -> List[SeqOf]:
        elems = self.parts[0].enum_states(b)
        total = sum(len(elems) ** r for r in range(b.max_len + 1))
        if total > MAX_STATES:
            raise BoundsExceeded(f"{self.name}: {total} sequence states")
        out: List[SeqOf] = []
        for r in range(b.max_len + 1):
            out.extend(seq_of(t) for t in itertools.product(elems, repeat=r))
        return out

    def elem_at(self, args, st: SeqOf) -> StateValue:
        p = args[0]
        if 0 <= p < len(st.items):
            return st.items[p]
        raise UndefinedObservation(f"elemAt({p}) past the end")

    def length(self, args, st: SeqOf) -> int:
        return len(st.items)

    def update_do(self, addr, old, new, st: SeqOf) -> SeqOf:
        p = addr[0]
        if 0 <= p < len(st.items) and st.items[p] == old:
            return SeqOf(st.items[:p] + (new,) + st.items[p + 1:])
        return st

    def update_poss(self, addr, old, new, st: SeqOf) -> bool:
        p = addr[0]
        return 0 <= p < len(st.items) and st.items[p] == old

    def it_update_vs_method(self, addr, old, new, m: Method) -> Optional[Tuple[Any, ...]]:
        (p,) = addr
        if m.ctor == "Ins":
            return addr if p < m.args[0] else (p + 1,)
        if m.ctor == "Del":
            q = m.args[0]
            if p == q:
                return None  # the edited element was deleted
            return addr if p < q else (p - 1,)
        return addr

    def it_method_vs_update(self, m: Method, addr, old, new) -> Method:
        return m  # edits shift no position


def string_pattern() -> Type[StringPattern]:
    return StringPattern


# ---------------------------------------------------------------------------
# Opaque element tokens, for using a pattern on its own
# ---------------------------------------------------------------------------

def _token_names(n: int) -> List[str]:
    letters = ["x", "y", "z", "u", "v", "w"]
    if n <= len(letters):
        return letters[:n]
    return letters + [f"x{i}" for i in range(n - len(letters))]


class Token(Component):
    """A degenerate element supplier: fixed opaque tokens, and no methods of
    its own, so only `nop`, which the kernel answers itself."""

    def __init__(self):
        super().__init__("token", {}, Opaque("x"), value_type=str)
        self.attributes = {"ident": self.ident}

    def enum_methods_fn(self, b: Bounds) -> List[Method]:
        return []

    def enum_states_fn(self, b: Bounds) -> List[Opaque]:
        return [Opaque(t) for t in _token_names(b.universe)]

    def ident(self, args, st: Opaque) -> Any:
        return st.value


def token_component() -> Token:
    return Token()
