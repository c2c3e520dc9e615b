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
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .bounds import MAX_STATES, Bounds, DEFAULT_BOUNDS
from .errors import BoundsExceeded, UnknownMethod
from .kernel import Component
from . import kernel
from .patterns import CompositionPattern, instantiate
from .values import METHOD, NOP, POSITION, STATE, Method, Product, StateValue, product


# ---------------------------------------------------------------------------
# Static composition
# ---------------------------------------------------------------------------

class StaticProduct(Component):
    """A non-interacting product of its factors, `parts`; `owner` names the
    factor owning each constructor but `nop` (see static_compose)."""

    def enum_states(self, b: Bounds = DEFAULT_BOUNDS) -> List[Product]:
        # The factors' lists are in canonical order, and so is their product
        # (a product state's key is its items' keys in order): no sort.
        return self.enum_states_fn(b)

    def leaves(self) -> Tuple[List[Component], Dict[str, Tuple[int, str]]]:
        """The factors that are not products themselves, found through those
        that are, in the order their states appear in a product state; and
        for each constructor but `nop`, the index of the leaf owning it and
        the leaf's name for it."""
        leaves: List[Component] = []
        owner: Dict[str, Tuple[int, str]] = {}
        for i, f in enumerate(self.parts):
            sub, sub_owner = f.leaves() if isinstance(f, StaticProduct) else ([f], None)
            for ctor, (j, inner) in self.owner.items():
                if j == i:
                    k, inner = sub_owner[inner] if sub_owner else (0, inner)
                    owner[ctor] = (len(leaves) + k, inner)
            leaves += sub
        return leaves, owner

    def count_states(self, counts: Iterator[int]) -> int:
        """How many states `enum_states` gives, from its leaves' counts in
        leaf order, never built: refused past MAX_STATES at every level, as
        `enum_states` refuses."""
        return _within_ceiling(self, math.prod(
            f.count_states(counts) if isinstance(f, StaticProduct) else next(counts)
            for f in self.parts))

    def assemble(self, items: Iterator[StateValue]) -> Product:
        """The product state whose leaves' states are the items, in leaf order."""
        return Product(tuple(f.assemble(items) if isinstance(f, StaticProduct) else next(items)
                             for f in self.parts))


def _within_ceiling(c: Component, n: int) -> int:
    if n > MAX_STATES:
        raise BoundsExceeded(f"{c.name}: {n} product states exceed the ceiling {MAX_STATES}")
    return n


def static_compose(*factors: Component) -> StaticProduct:
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
        if i1 != i2:  # factors do not interact, so no factor reads either method
            kernel.validate_method(factors[i1], inner1)
            kernel.validate_method(factors[i2], inner2)
            return m1
        return _pack(i1, factors[i1].it_fn(inner1, inner2))

    def enum_methods(b: Bounds) -> List[Method]:
        out = [NOP]
        for i, f in enumerate(factors):
            out.extend(_pack(i, m) for m in f.enum_methods(b) if m.ctor != "nop")
        return out

    def enum_states(b: Bounds) -> List[Product]:
        per = [f.enum_states(b) for f in factors]
        _within_ceiling(comp, math.prod(map(len, per)))
        return [product(t) for t in itertools.product(*per)]

    # The closures read `comp`, which is bound before any of them runs.
    comp = StaticProduct(
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
    return comp


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


def is_update(m: Method) -> bool:
    return m.ctor == "Update"


class ComposedComponent(Component):
    """A pattern instantiated over its child, parts[0], with Update grafted on."""

    def update_new(self, u: Method) -> StateValue:
        """The new child state carried implicitly by an update method.

        It is derived through `kernel.apply`, which validates the child
        method, once per Update object and child: the object keeps the state
        it derived and the child it derived it under in its `_new` slot,
        outside its fields, so its equality, hash, repr and JSON are
        unchanged.  Under another child both happen again."""
        child = self.parts[0]
        derived = getattr(u, "_new", None)
        if derived is not None and derived[0] is child:
            return derived[1]
        _, old, child_method = u.args  # see make_update
        new = kernel.apply(child, child_method, old)
        object.__setattr__(u, "_new", (child, new))  # Method is frozen
        return new


def transform_update(comp: ComposedComponent, u1: Method, u2: Method) -> Method:
    """Transform one update against a concurrent one.

    Same target (equal address and equal old child state): rebase u1's child
    method through the child's transform onto the state u2 produced.  Distinct
    targets never interfere, so u1 passes through unchanged, once both child
    methods are known to be the child's.
    """
    if not (is_update(u1) and is_update(u2)):
        raise UnknownMethod("transform_update expects two update methods")
    (addr1, old1, child1), (addr2, old2, child2) = u1.args, u2.args  # see make_update
    if addr1 == addr2 and old1 == old2:
        rebased = kernel.transform(comp.parts[0], child1, child2)
        return make_update(addr1, comp.update_new(u2), rebased, u1.site)
    kernel.validate_method(comp.parts[0], child1)
    kernel.validate_method(comp.parts[0], child2)
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
    # checked by `update_new`, or by `transform_update` where none runs.
    # Each unpacks an Update's arguments in line (see make_update).
    def do_fn(m: Method, st: StateValue) -> StateValue:
        if m.ctor == "Update":
            addr, old, _ = m.args
            return pattern.update_do(addr, old, comp.update_new(m), st)
        return base.do_fn(m, st)

    def poss_fn(m: Method, st: StateValue) -> bool:
        if m.ctor == "Update":
            addr, old, _ = m.args
            return pattern.update_poss(addr, old, comp.update_new(m), st)
        return base.poss_fn(m, st)

    def it_fn(m1: Method, m2: Method) -> Method:
        if m1.ctor == "Update":
            if m2.ctor == "Update":
                return transform_update(comp, m1, m2)
            addr, old, child_method = m1.args
            addr = pattern.it_update_vs_method(addr, old, comp.update_new(m1), m2)
            return NOP if addr is None else make_update(addr, old, child_method, m1.site)
        if m2.ctor == "Update":
            addr, old, _ = m2.args
            return pattern.it_method_vs_update(m1, addr, old, comp.update_new(m2))
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
