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
from functools import partial
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Type

from .bounds import MAX_STATES, Bounds, DEFAULT_BOUNDS
from .errors import BoundsExceeded, UnknownMethod
from .kernel import Component
from . import kernel
from .patterns import CompositionPattern
from .values import METHOD, NOP, STATE, Method, Product, StateValue, product


# ---------------------------------------------------------------------------
# Static composition
# ---------------------------------------------------------------------------

class StaticProduct(Component):
    """A non-interacting product of two or more factors, `parts`.

    Clashing constructor and attribute names are prefixed with the owning
    factor's name (`nop` stays shared); `owner` names the factor owning each
    constructor but `nop`.  The name, unless given, is the factors' names
    joined by ` (+) `.
    """

    def __init__(self, factors: Sequence[Component], name: Optional[str] = None):
        if len(factors) < 2:
            raise ValueError("static composition needs at least two factors")
        owner: Dict[str, Tuple[int, str]] = {}  # composed ctor -> (factor index, its ctor)
        attributes: dict = {}
        for i, f in enumerate(factors):
            for ctor in sorted(f.method_ctors):
                if ctor != "nop":
                    owner[_claim(owner, ctor, f)] = (i, ctor)
            for aname, observer in f.attributes.items():
                attributes[_claim(attributes, aname, f)] = partial(_observe_factor, i, observer)
        super().__init__(name or " (+) ".join(f.name for f in factors),
                         {c: factors[i].method_ctors[ctor] for c, (i, ctor) in owner.items()},
                         product(f.initial_state for f in factors), tuple(factors))
        self.owner = owner
        self.renamed = {v: k for k, v in owner.items()}  # inverse of owner
        self.attributes = attributes

    def _unpack(self, m: Method) -> Tuple[int, Method]:
        i, ctor = self.owner[m.ctor]
        return i, Method(ctor, m.args, m.site)

    def _pack(self, i: int, m: Method) -> Method:
        return NOP if m.ctor == "nop" else m.renamed(self.renamed[i, m.ctor])

    # The kernel has checked m's ctor against the product's method_ctors and
    # answered `nop` itself, so a factor's own functions are called directly.
    def do_fn(self, m: Method, st: Product) -> Product:
        i, inner = self._unpack(m)
        items = list(st.items)
        items[i] = self.parts[i].do_fn(inner, items[i])
        return Product(tuple(items))

    def poss_fn(self, m: Method, st: Product) -> bool:
        i, inner = self._unpack(m)
        return self.parts[i].poss_fn(inner, st.items[i])

    def it_fn(self, m1: Method, m2: Method) -> Method:
        i1, inner1 = self._unpack(m1)
        i2, inner2 = self._unpack(m2)
        if i1 != i2:  # factors do not interact, so no factor reads either method
            kernel.validate_method(self.parts[i1], inner1)
            kernel.validate_method(self.parts[i2], inner2)
            return m1
        return self._pack(i1, self.parts[i1].it_fn(inner1, inner2))

    def enum_methods_fn(self, b: Bounds) -> List[Method]:
        # Each factor's own methods, unsorted and without `nop`: the
        # product's `enum_methods` adds `nop`, sorts and checks the ceiling once.
        out: List[Method] = []
        for i, f in enumerate(self.parts):
            out.extend(self._pack(i, m) for m in f.enum_methods_fn(b))
        return out

    def enum_states_fn(self, b: Bounds) -> List[Product]:
        per = [f.enum_states(b) for f in self.parts]
        _within_ceiling(self, math.prod(map(len, per)))
        return [product(t) for t in itertools.product(*per)]

    def enum_states(self, b: Bounds = DEFAULT_BOUNDS) -> List[Product]:
        # The factors' lists are in canonical order, and so is their product
        # (a product state's key is its items' keys in order): no sort.
        return self.enum_states_fn(b)

    def leaves(self) -> Tuple[List[Component], Dict[str, Tuple[int, str]]]:
        """The factors' leaves, in the order their states appear in a
        product state; and, as for every component, for each constructor
        but `nop`, which no leaf sweeps, the index of the leaf owning it and
        the leaf's name for it."""
        leaves: List[Component] = []
        owner: Dict[str, Tuple[int, str]] = {}
        for i, f in enumerate(self.parts):
            sub, sub_owner = f.leaves()
            for ctor, (j, inner) in self.owner.items():
                if j == i:
                    k, inner = sub_owner[inner]
                    owner[ctor] = (len(leaves) + k, inner)
            leaves += sub
        return leaves, owner

    def count_states(self, counts: Iterator[int]) -> int:
        """Refused past MAX_STATES at every level, as `enum_states` refuses."""
        return _within_ceiling(self, math.prod(f.count_states(counts) for f in self.parts))

    def assemble(self, items: Iterator[StateValue]) -> Product:
        return Product(tuple(f.assemble(items) for f in self.parts))


def _within_ceiling(c: Component, n: int) -> int:
    if n > MAX_STATES:
        raise BoundsExceeded(f"{c.name}: {n} product states exceed the ceiling {MAX_STATES}")
    return n


def _observe_factor(i: int, observer, args, st: Product) -> Any:
    return observer(args, st.items[i])


def static_compose(*factors: Component) -> StaticProduct:
    """Non-interacting product of two or more components (see StaticProduct)."""
    return StaticProduct(factors)


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
    """A pattern, a CompositionPattern subclass, instantiated over its
    child, parts[0], with Update grafted on: the instance, `body`, answers
    every other method and gives Update its meaning, Poss included, off
    which the checker reads which methods no state enables together.
    Update declares its address as the pattern does (`update_address`).
    Its addresses are every tuple of positions below `max_len` of that
    arity, and it is issued by each site that issues the body's own
    methods, none if they carry no site.  The name, `pattern[child]` unless
    given, is the body's too, so the body's refusals name this component."""

    def __init__(self, pattern: Type[CompositionPattern], child: Component,
                 name: Optional[str] = None):
        name = name or f"{pattern.name}[{child.name}]"
        body = pattern(child, name)
        super().__init__(name, {**body.method_ctors,
                                "Update": (pattern.update_address, STATE, METHOD)},
                         body.initial_state, (child,))
        self.pattern, self.body = pattern, body
        self.attributes = body.attributes  # updates add no attributes

    # The kernel has checked each method's ctor and answered `nop`, so the
    # body's own functions are called directly; an Update's child method is
    # checked by `update_new`.  Each unpacks an Update's arguments in line
    # (see make_update).
    def do_fn(self, m: Method, st: StateValue) -> StateValue:
        if m.ctor == "Update":
            addr, old, _ = m.args
            return self.body.update_do(addr, old, self.update_new(m), st)
        return self.body.do_fn(m, st)

    def poss_fn(self, m: Method, st: StateValue) -> bool:
        if m.ctor == "Update":
            addr, old, _ = m.args
            return self.body.update_poss(addr, old, self.update_new(m), st)
        return self.body.poss_fn(m, st)

    def it_fn(self, m1: Method, m2: Method) -> Method:
        if m1.ctor == "Update":
            if m2.ctor == "Update":
                return transform_update(self, m1, m2)
            addr, old, child_method = m1.args
            moved = self.body.it_update_vs_method(addr, old, self.update_new(m1), m2)
            if moved is None:
                return NOP
            return m1 if moved == addr else make_update(moved, old, child_method, m1.site)
        if m2.ctor == "Update":
            addr, old, _ = m2.args
            return self.body.it_method_vs_update(m1, addr, old, self.update_new(m2))
        return self.body.it_fn(m1, m2)

    def enum_methods_fn(self, b: Bounds) -> List[Method]:
        # addresses x old child states x child methods x sites
        child, own = self.parts[0], self.body.enum_methods_fn(b)
        axes = (list(itertools.product(range(b.max_len), repeat=len(self.body.update_address))),
                child.enum_states(b), child.enum_methods(b), {m.site for m in own})
        n = math.prod(map(len, axes))
        if n > b.max_methods:
            raise BoundsExceeded(f"{self.name}: {n} Update methods "
                                 f"exceed the ceiling {b.max_methods}")
        return own + [make_update(*t) for t in itertools.product(*axes)]

    def enum_states_fn(self, b: Bounds) -> List[StateValue]:
        return self.body.enum_states_fn(b)

    def update_new(self, u: Method) -> StateValue:
        """The new child state carried implicitly by an update method.

        It is derived through `kernel.apply`, which validates the child
        method, once per Update object and child: the object keeps the state
        it derived and the child it derived it under as `_new` in its
        instance dict, outside its fields, so its equality, hash, repr and
        JSON are unchanged.  Under another child both happen again."""
        child = self.parts[0]
        derived = getattr(u, "_new", None)
        if derived is not None and derived[0] is child:
            return derived[1]
        _, old, child_method = u.args  # see make_update
        new = kernel.apply(child, child_method, old)
        vars(u)["_new"] = (child, new)  # past Method's frozen __setattr__
        return new


def transform_update(comp: ComposedComponent, u1: Method, u2: Method) -> Method:
    """Transform one update against a concurrent one.

    Same target (equal address and equal old child state): rebase u1's child
    method through the child's transform onto the state u2 produced.  Distinct
    targets never interfere, so u1 passes through unchanged, once both child
    methods are known to be the child's: each is checked once per Update
    object, when `update_new` derives the new child state it carries.
    """
    if not (is_update(u1) and is_update(u2)):
        raise UnknownMethod("transform_update expects two update methods")
    (addr1, old1, child1), (addr2, old2, child2) = u1.args, u2.args  # see make_update
    if addr1 == addr2 and old1 == old2:
        rebased = kernel.transform(comp.parts[0], child1, child2)
        return make_update(addr1, comp.update_new(u2), rebased, u1.site)
    comp.update_new(u1)
    comp.update_new(u2)
    return u1


def dynamic_compose(pattern: Type[CompositionPattern], child: Component) -> ComposedComponent:
    """Instantiate the pattern over the child, under structural equality,
    and graft on the update method (see ComposedComponent)."""
    return ComposedComponent(pattern, child)
