"""Parametric container patterns, admissibility checking, and instantiation.

A pattern is a container component whose element sort is left open.  Binding
the element sort to another component's states turns the pattern into a
concrete component (instantiation); the pattern additionally carries the
semantics needed to graft in-place element edits onto the container (see
composition.dynamic_compose).

Two patterns ship: a finite set (in a "literal" and a "guarded" variant,
differing only in whether adding a present element is enabled) and a sequence
with position-addressed insert/delete whose transform shifts positions and
breaks insert ties by site id.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, List, Optional, Tuple

from .bounds import MAX_STATES, Bounds, DEFAULT_BOUNDS
from .errors import BoundsExceeded, InvalidSpec, UndefinedObservation
from .kernel import Component
from .values import (NOP, POSITION, STATE, Method, Opaque, SeqOf, SetOf, StateValue,
                     seq_of, set_of)

_ADMISSIBILITY_SWEEP_LIMIT = 1_000_000  # pairs a custom eq may be swept over


class Morphism:
    """Binding of the pattern's element sort to a target component's states.

    eq=None means canonical structural equality of the target states, an
    equivalence by construction; a custom predicate is swept on instantiation.
    """

    def __init__(self, eq=None):
        self.eq: Optional[Callable[[StateValue, StateValue], bool]] = eq


class CompositionPattern:
    """A container whose formal element parameter must come with an
    equivalence (the axioms eq-symmetric and eq-transitive)."""

    def __init__(self, name, build_body, update_addrs, update_do, update_poss,
                 it_update_vs_method, it_method_vs_update, update_site_aware=False):
        self.name: str = name
        self.build_body: Callable[[Component], Component] = build_body
        # In-place element-edit semantics used by dynamic composition.
        # update_do / update_poss take (addr, old child, new child, container state).
        self.update_addrs: Callable[[Bounds], List[Tuple[Any, ...]]] = update_addrs
        self.update_do = update_do
        self.update_poss = update_poss
        # Cross transforms against a concurrent edit (addr, old child, new child),
        # whose Update only composition builds: (edit, container method m) -> the
        # edit's address after m, or None where m removed the edited element;
        # (m, edit) -> m transformed against the edit.
        self.it_update_vs_method = it_update_vs_method
        self.it_method_vs_update = it_method_vs_update
        self.update_site_aware: bool = update_site_aware


class AdmissibilityReport:
    def __init__(self, ok, states_checked, failed_axiom=None, witness=None):
        self.ok: bool = ok
        self.states_checked: int = states_checked
        self.failed_axiom: Optional[str] = failed_axiom
        self.witness: Optional[tuple] = witness


def check_admissible(pattern: CompositionPattern, child: Component,
                     phi: Optional[Morphism] = None,
                     b: Bounds = DEFAULT_BOUNDS) -> AdmissibilityReport:
    """Verify the pattern's element-equality laws over the child's states.

    Structural equality over canonical forms is an equivalence relation by
    construction, so only a duplicate-free enumeration needs verifying; a
    custom equality is swept pairwise against both axioms.
    """
    states = child.enum_states(b)
    if len(states) < 2:
        raise BoundsExceeded(
            f"{child.name}: admissibility needs at least 2 enumerated states, got {len(states)}")
    n = len(states)

    if phi is None or phi.eq is None:
        if len(set(states)) != n:
            return AdmissibilityReport(False, n, "canonical-unique")
        return AdmissibilityReport(True, n)

    if n * n > _ADMISSIBILITY_SWEEP_LIMIT:
        raise BoundsExceeded(f"custom eq sweep over {n} states needs {n * n} pairs")
    eq = phi.eq
    for x, y in itertools.product(states, repeat=2):
        if eq(x, y) != eq(y, x):
            return AdmissibilityReport(False, n, "eq-symmetric", (x, y))
    related = [(x, y) for x, y in itertools.product(states, repeat=2) if eq(x, y)]
    succ: dict = {}
    for x, y in related:
        succ.setdefault(x, []).append(y)
    for x, y in related:
        for z in succ.get(y, []):
            if not eq(x, z):
                return AdmissibilityReport(False, n, "eq-transitive", (x, y, z))
    return AdmissibilityReport(True, n)


def instantiate(pattern: CompositionPattern, child: Component,
                phi: Optional[Morphism] = None,
                b: Bounds = DEFAULT_BOUNDS) -> Component:
    """Bind the pattern's element sort to the child's states.  Only a custom
    equality can break the pattern's axioms, so only it is swept (over the
    child's states at `b`); under structural equality nothing is enumerated."""
    if phi is not None and phi.eq is not None:
        report = check_admissible(pattern, child, phi, b)
        if not report.ok:
            raise InvalidSpec(
                f"{child.name} fails {report.failed_axiom} for pattern {pattern.name}: "
                f"witness {report.witness}")
    return pattern.build_body(child)


# ---------------------------------------------------------------------------
# Finite-set pattern
# ---------------------------------------------------------------------------

def _set_body(child: Component, guarded: bool, name: str) -> Component:
    def do_fn(m: Method, st: SetOf) -> SetOf:
        e = m.args[0]
        if m.ctor == "add":
            return SetOf(st.items | {e})
        return SetOf(st.items - {e})

    def poss_fn(m: Method, st: SetOf) -> bool:
        e = m.args[0]
        if m.ctor == "add":
            return e not in st.items if guarded else True
        return e in st.items

    def it_fn(m1: Method, m2: Method) -> Method:
        e1, e2 = m1.args[0], m2.args[0]
        if m1.ctor == "add" and m2.ctor == "add":
            return NOP if e1 == e2 else m1
        if m1.ctor == "remove" and m2.ctor == "remove":
            return NOP if e1 == e2 else m1
        return m1  # add-vs-remove and remove-vs-add leave m1 unchanged

    def enum_methods(b: Bounds) -> List[Method]:
        elems = child.enum_states(b)
        return [NOP] + [Method(c, (e,)) for c in ("add", "remove") for e in elems]

    def enum_states(b: Bounds) -> List[SetOf]:
        elems = child.enum_states(b)
        if len(elems) > 16:
            raise BoundsExceeded(f"{name}: {2 ** len(elems)} subset states")
        out = []
        for r in range(len(elems) + 1):
            out.extend(set_of(c) for c in itertools.combinations(elems, r))
        return out

    return Component(
        name=name,
        method_ctors={"nop": (), "add": (STATE,), "remove": (STATE,)},
        attributes={"iselem": lambda args, st: args[0] in st.items},
        initial_state=SetOf(),
        do_fn=do_fn,
        poss_fn=poss_fn,
        it_fn=it_fn,
        enum_methods_fn=enum_methods,
        enum_states_fn=enum_states,
        site_aware=child.site_aware,
        parts=(child,),
    )


def set_pattern(variant: str = "guarded") -> CompositionPattern:
    """Finite sets of elements with add/remove and element-wise transform.

    The "literal" variant always enables add; the "guarded" variant requires
    the element to be absent, which removes the one delivery race where a
    concurrent add/remove pair on a present element diverges.  The guarded
    variant guards in-place edits the same way: the new value must not collide
    with another element already present, since a value-addressed set would
    silently merge the two and lose one of them.
    """
    if variant not in ("literal", "guarded"):
        raise ValueError(f"unknown set variant {variant!r}")
    guarded = variant == "guarded"
    name = f"set-{variant}"

    def it_update_vs_method(addr, old, new, m: Method) -> Optional[Tuple[Any, ...]]:
        if m.ctor == "remove" and m.args[0] == old:
            return None  # the edited element vanished
        return addr

    def it_method_vs_update(m: Method, addr, old, new) -> Method:
        if m.ctor == "remove" and m.args[0] == old:
            return Method("remove", (new,), m.site)
        return m

    def update_poss(addr, old, new, st: SetOf) -> bool:
        if old not in st.items:
            return False
        if guarded:
            return new == old or new not in st.items
        return True

    return CompositionPattern(
        name=name,
        build_body=lambda child: _set_body(child, guarded, name),
        update_addrs=lambda b: [()],  # the old element itself addresses the target
        update_do=lambda addr, old, new, st: SetOf((st.items - {old}) | {new}),
        update_poss=update_poss,
        it_update_vs_method=it_update_vs_method,
        it_method_vs_update=it_method_vs_update,
    )


# ---------------------------------------------------------------------------
# Sequence pattern
# ---------------------------------------------------------------------------

def _site(m: Method) -> int:
    return -1 if m.site is None else m.site


def _string_it(m1: Method, m2: Method) -> Method:
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


def _string_body(child: Component) -> Component:
    name = "string"

    def do_fn(m: Method, st: SeqOf) -> SeqOf:
        p = m.args[0]
        items = st.items
        if m.ctor == "Ins":
            if 0 <= p <= len(items):
                return SeqOf(items[:p] + (m.args[1],) + items[p:])
            return st
        if 0 <= p < len(items):
            return SeqOf(items[:p] + items[p + 1:])
        return st

    def poss_fn(m: Method, st: SeqOf) -> bool:
        p = m.args[0]
        if m.ctor == "Ins":
            return 0 <= p <= len(st.items)
        return 0 <= p < len(st.items)

    def elem_at(args, st: SeqOf):
        p = args[0]
        if 0 <= p < len(st.items):
            return st.items[p]
        raise UndefinedObservation(f"elemAt({p}) past the end")

    def enum_methods(b: Bounds) -> List[Method]:
        elems = child.enum_states(b)
        out = [NOP]
        for n in range(b.sites):
            out.extend(Method("Ins", (p, e), n)
                       for p in range(b.max_len + 1) for e in elems)
            out.extend(Method("Del", (p,), n) for p in range(b.max_len))
        return out

    def enum_states(b: Bounds) -> List[SeqOf]:
        elems = child.enum_states(b)
        total = sum(len(elems) ** r for r in range(b.max_len + 1))
        if total > MAX_STATES:
            raise BoundsExceeded(f"{name}: {total} sequence states")
        out: List[SeqOf] = []
        for r in range(b.max_len + 1):
            out.extend(seq_of(t) for t in itertools.product(elems, repeat=r))
        return out

    return Component(
        name=name,
        method_ctors={"nop": (), "Ins": (POSITION, STATE), "Del": (POSITION,)},
        attributes={
            "elemAt": elem_at,
            "length": lambda args, st: len(st.items),
        },
        initial_state=SeqOf(),
        do_fn=do_fn,
        poss_fn=poss_fn,
        it_fn=_string_it,
        enum_methods_fn=enum_methods,
        enum_states_fn=enum_states,
        site_aware=True,
        parts=(child,),
    )


def string_pattern() -> CompositionPattern:
    """A sequence of elements with position-addressed insert and delete."""

    def it_update_vs_method(addr, old, new, m: Method) -> Optional[Tuple[Any, ...]]:
        (p,) = addr
        if m.ctor == "Ins":
            return addr if p < m.args[0] else (p + 1,)
        if m.ctor == "Del":
            q = m.args[0]
            if p == q:
                return None  # the edited element was deleted
            return addr if p < q else (p - 1,)
        return addr

    def update_do(addr, old, new, st: SeqOf) -> SeqOf:
        p = addr[0]
        if 0 <= p < len(st.items) and st.items[p] == old:
            return SeqOf(st.items[:p] + (new,) + st.items[p + 1:])
        return st

    def update_poss(addr, old, new, st: SeqOf) -> bool:
        p = addr[0]
        return 0 <= p < len(st.items) and st.items[p] == old

    return CompositionPattern(
        name="string",
        build_body=_string_body,
        update_addrs=lambda b: [(p,) for p in range(b.max_len)],
        update_do=update_do,
        update_poss=update_poss,
        it_update_vs_method=it_update_vs_method,
        it_method_vs_update=lambda m, addr, old, new: m,  # edits shift no position
        update_site_aware=True,
    )


# ---------------------------------------------------------------------------
# Opaque element tokens, for using a pattern on its own
# ---------------------------------------------------------------------------

def _token_names(n: int) -> List[str]:
    letters = ["x", "y", "z", "u", "v", "w"]
    if n <= len(letters):
        return letters[:n]
    return letters + [f"x{i}" for i in range(n - len(letters))]


def token_component() -> Component:
    """A degenerate element supplier: fixed opaque tokens, no methods."""
    return Component(
        name="token",
        method_ctors={"nop": ()},
        attributes={"ident": lambda args, st: st.value},
        initial_state=Opaque("x"),
        do_fn=lambda m, st: st,
        poss_fn=lambda m, st: True,
        it_fn=lambda m1, m2: m1,
        enum_methods_fn=lambda b: [NOP],
        enum_states_fn=lambda b: [Opaque(t) for t in _token_names(b.universe)],
        value_type=str,
    )
