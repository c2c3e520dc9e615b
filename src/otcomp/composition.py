"""Static (non-interacting product) and dynamic (pattern-of-component)
composition.

Static composition pairs component states into a product; each method acts on
its owning factor only and transforms across factors as the identity.

Dynamic composition instantiates a pattern over a child component's states and
grafts on an in-place edit method ("Update") that carries the address of the
edited occurrence, the old child state, and the child method producing the new
one.  Concurrent edits of the same occurrence are reconciled by rebasing the
child methods through the child's own transform.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, List, Optional, Tuple

from .bounds import Bounds, DEFAULT_BOUNDS
from .errors import BoundsExceeded, UnknownMethod
from .kernel import Component
from . import kernel
from .patterns import CompositionPattern, instantiate
from .values import METHOD, NOP, POSITION, STATE, Method, Product, StateValue, product


# ---------------------------------------------------------------------------
# Static composition
# ---------------------------------------------------------------------------

def static_compose(*factors: Component) -> Component:
    """Non-interacting product of two or more components.

    Clashing constructor and attribute names are prefixed with the owning
    factor's name (`nop` stays shared).
    """
    if len(factors) < 2:
        raise ValueError("static composition needs at least two factors")

    owner: dict = {}       # composed ctor -> (factor index, original ctor)
    attr_owner: dict = {}  # composed attribute -> (factor index, observer)
    for i, f in enumerate(factors):
        for ctor in sorted(f.method_ctors):
            if ctor != "nop":
                owner[_claim(owner, ctor, f)] = (i, ctor)
        for aname, observer in f.attributes.items():
            attr_owner[_claim(attr_owner, aname, f)] = (i, observer)
    renamed = {v: k for k, v in owner.items()}  # inverse of owner

    def _unpack(m: Method) -> Tuple[int, Method]:
        i, ctor = owner[m.ctor]
        return i, Method(ctor, m.args, m.site)

    def _pack(i: int, m: Method) -> Method:
        if m.ctor == "nop":
            return NOP
        return Method(renamed[i, m.ctor], m.args, m.site)

    # The kernel has checked m's ctor against the product's method_ctors and
    # answered `nop` itself, so a factor's own functions are called directly.
    def do_fn(m: Method, st: Product) -> Product:
        i, inner = _unpack(m)
        items = list(st.items)
        items[i] = factors[i].do_fn(inner, items[i])
        return Product(tuple(items))

    def poss_fn(m: Method, st: Product) -> bool:
        i, inner = _unpack(m)
        return factors[i].poss_fn(inner, st.items[i])

    def it_fn(m1: Method, m2: Method) -> Method:
        i1, inner1 = _unpack(m1)
        i2, inner2 = _unpack(m2)
        if i1 != i2:
            return m1  # factors do not interact
        return _pack(i1, factors[i1].it_fn(inner1, inner2))

    def enum_methods(b: Bounds) -> List[Method]:
        out = [NOP]
        for i, f in enumerate(factors):
            out.extend(_pack(i, m) for m in f.enum_methods(b) if m.ctor != "nop")
        return out

    def enum_states(b: Bounds) -> List[Product]:
        per = [f.enum_states(b) for f in factors]
        return [product(t) for t in itertools.product(*per)]

    return Component(
        name=" (+) ".join(f.name for f in factors),
        method_ctors={"nop": (), **{name: factors[i].method_ctors[ctor]
                                    for name, (i, ctor) in owner.items()}},
        attributes={name: (lambda i, obs: lambda args, st: obs(args, st.items[i]))(i, obs)
                    for name, (i, obs) in attr_owner.items()},
        initial_state=product(f.initial_state for f in factors),
        do_fn=do_fn,
        poss_fn=poss_fn,
        it_fn=it_fn,
        enum_methods_fn=enum_methods,
        enum_states_fn=enum_states,
        site_aware=any(f.site_aware for f in factors),
        parts=tuple(factors),
        owner=owner,
    )


def _claim(taken: dict, name: str, factor: Component) -> str:
    """`name`, prefixed with the factor's name if another factor has it."""
    if name not in taken:
        return name
    out, k = f"{factor.name}.{name}", 2
    while out in taken:
        out, k = f"{factor.name}{k}.{name}", k + 1
    return out


# ---------------------------------------------------------------------------
# Dynamic composition
# ---------------------------------------------------------------------------

def make_update(addr: Tuple[Any, ...], old_child: StateValue,
                child_method: Method, site: Optional[int] = None) -> Method:
    return Method("Update", (tuple(addr), old_child, child_method), site)


def update_addr(u: Method) -> Tuple[Any, ...]:
    return u.args[0]


def update_old(u: Method) -> StateValue:
    return u.args[1]


def update_child_method(u: Method) -> Method:
    return u.args[2]


def is_update(m: Method) -> bool:
    return m.ctor == "Update"


class ComposedComponent(Component):
    """A pattern instantiated over its child, parts[0], with Update grafted on."""

    def update_new(self, u: Method) -> StateValue:
        """The new child state carried implicitly by an update method."""
        return kernel.apply(self.parts[0], update_child_method(u), update_old(u))


def transform_update(comp: ComposedComponent, u1: Method, u2: Method) -> Method:
    """Transform one update against a concurrent one.

    Same target (equal address and equal old child state): rebase u1's child
    method through the child's transform onto the state u2 produced.  Distinct
    targets never interfere, so u1 passes through unchanged.
    """
    if not (is_update(u1) and is_update(u2)):
        raise UnknownMethod("transform_update expects two update methods")
    if update_addr(u1) == update_addr(u2) and update_old(u1) == update_old(u2):
        rebased = kernel.transform(comp.parts[0], update_child_method(u1),
                                   update_child_method(u2))
        return make_update(update_addr(u1), comp.update_new(u2), rebased, u1.site)
    return u1


def dynamic_compose(pattern: CompositionPattern, child: Component,
                    b: Bounds = DEFAULT_BOUNDS) -> ComposedComponent:
    """Instantiate the pattern over the child, under structural equality,
    and graft on the update method.  Update declares its address as a tuple
    of as many positions as the pattern's addresses have at `b`.
    """
    base = instantiate(pattern, child)
    address = tuple(POSITION for _ in pattern.update_addrs(b)[0])

    # The closures read `comp`, which is bound below before any of them runs.
    # The kernel has checked each method's ctor and answered `nop`, so the
    # base's own functions are called directly; an Update's child method is
    # checked by `update_new`.
    def do_fn(m: Method, st: StateValue) -> StateValue:
        if is_update(m):
            return pattern.update_do(update_addr(m), update_old(m),
                                     comp.update_new(m), st)
        return base.do_fn(m, st)

    def poss_fn(m: Method, st: StateValue) -> bool:
        if is_update(m):
            return pattern.update_poss(update_addr(m), update_old(m),
                                       comp.update_new(m), st)
        return base.poss_fn(m, st)

    def it_fn(m1: Method, m2: Method) -> Method:
        if is_update(m1) and is_update(m2):
            return transform_update(comp, m1, m2)
        if is_update(m1):
            return pattern.it_update_vs_method(m1, m2, comp.update_new(m1))
        if is_update(m2):
            return pattern.it_method_vs_update(m1, m2, comp.update_new(m2))
        return base.it_fn(m1, m2)

    def enum_methods(b2: Bounds) -> List[Method]:
        # addresses x old child states x child methods x sites
        axes = (pattern.update_addrs(b2), child.enum_states(b2), child.enum_methods(b2),
                range(b2.sites) if pattern.update_site_aware else [None])
        n = math.prod(map(len, axes))
        if n > b2.max_methods:
            raise BoundsExceeded(f"{comp.name}: {n} Update methods "
                                 f"exceed the ceiling {b2.max_methods}")
        return base.enum_methods(b2) + [make_update(*t) for t in itertools.product(*axes)]

    comp = ComposedComponent(
        name=f"{pattern.name}[{child.name}]",
        method_ctors={**base.method_ctors, "Update": (address, STATE, METHOD)},
        attributes=base.attributes,  # updates add no attributes
        initial_state=base.initial_state,
        do_fn=do_fn,
        poss_fn=poss_fn,
        it_fn=it_fn,
        enum_methods_fn=enum_methods,
        enum_states_fn=base.enum_states_fn,
        site_aware=base.site_aware or pattern.update_site_aware,
        parts=(child,))
    return comp
