"""Exhaustive bounded verification of the convergence conditions.

The pair condition (cp1) asserts that two concurrent methods, each transformed
to include the other's effect, lead to the same state from every state where
both orders are legal.  The triple condition (cp2) asserts that transforming a
third method along either of the two equivalent sequences yields the same
method.  `check_cp1` and `check_cp2` check one condition over every
enumerated method, and `check_consistency` checks both, for a composed
component as its six-part decomposition.

A check is a list of parts, each plain data: a name, a condition and the
blocks of method ids its sweep walks.  One runner, `_check`, compiles the
component once, reads every part's case estimate off its blocks, and raises
BoundsExceeded before any sweep if one is over `max_cases`.  A large check
runs its CP2 parts, which build no state, beside its CP1 parts in a forked
child, with the same report (see `_split`).  Compiling interns the methods
it is given (the component's sorted enumeration, or a product factor's
methods in the product's order) and the sorted state enumeration to ints.
Each method is validated once, by `kernel.validate_method`, when it is
interned: an enumerated one, or a result outside the enumeration (an insert
one past the longest state, a longer sequence) when first seen.

One table type, `_Tables`, holds what a check reads over those ids: IT
(method, method) -> method, Do (state, method) -> state and Poss (state,
method) -> bool, and from them each method's enabled states and each pair's
jointly legal states.  An entry is filled on first use by one call of the
functions the tables are built with.  A check builds two.  The sweeps read
the component's, filled by its own `it_fn`, `do_fn` and `poss_fn`, and by
the kernel's `transform`, `apply` or `enabled` where `nop` is involved, so
the `nop` rules live only in the kernel.  The replays read the kernel's,
filled by the public kernel alone, whose `enabled` and `apply` they also
call on a pair's states.  Nothing outlives the call.

Every failing case is replayed through the public kernel before it is
emitted, which cross-checks the component's tables: a pair's joint legality
and final states from its state, a triple's transformed methods and its
realizability verdict from the kernel's tables.  A disagreement raises
ReplayMismatch.  A sweep decides each unordered pair once: its mirrored
case, counted and replayed too, is read off the same entries.

A static product is checked factor by factor, never over its own states:
each factor that is not a product sweeps its own pairs and triples, and
every case across factors or with `nop`, which holds by construction, is
counted (see `_Product`).  The report is the one a sweep over every product
state would give.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import time
from collections import Counter
from functools import cached_property, partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .bounds import Bounds, DEFAULT_BOUNDS
from .composition import ComposedComponent, StaticProduct, is_update
from .errors import BoundsExceeded, InvalidSpec, ReplayMismatch
from . import kernel
from .kernel import Component
from .values import NOP, Method, StateValue, value_to_json


class CheckReport:
    """A verdict over `cases` decided cases, with its failing entries.

    An aggregate's entries carry a `"part"` tag naming the part that found
    them.  Its JSON writes each entry once, at the top level: a part's
    `witnesses` / `unrealizable` are the indices of its own entries there.
    In memory, every report keeps its full lists."""

    def __init__(self, property, verdict, cases, witnesses, elapsed_ms=0.0, examined=0,
                 parts=None, unrealizable=None):
        self.property: str = property
        self.verdict: str = verdict  # "pass" | "fail" | "vacuous"
        # Jointly legal (non-vacuous) cases decided: compared, or, for a static
        # product, counted where they hold by construction (see _Product).
        self.cases: int = cases
        self.witnesses: List[dict] = witnesses
        self.elapsed_ms: float = elapsed_ms
        self.examined: int = examined
        self.parts: List[CheckReport] = [] if parts is None else parts
        # Triple-condition violations with no jointly-legal realizing state;
        # kept for audit but they do not flip the verdict.
        self.unrealizable: List[dict] = [] if unrealizable is None else unrealizable

    def to_json(self, mask_elapsed: bool = False) -> dict:
        out = {
            "property": self.property,
            "verdict": self.verdict,
            "cases": self.cases,
            "witnesses": self.witnesses,
            "elapsed_ms": 0.0 if mask_elapsed else round(self.elapsed_ms, 3),
        }
        if self.unrealizable:
            out["unrealizable"] = self.unrealizable
        if self.parts:
            out["parts"] = parts = [p.to_json(mask_elapsed) for p in self.parts]
            for key in ("witnesses", "unrealizable"):
                at = 0  # the parts' entries follow each other in the aggregate
                for p in parts:
                    if key in p:
                        p[key] = list(range(at, at + len(p[key])))
                        at += len(p[key])
        return out


def _verdict(cases: int, witnesses: list) -> str:
    if witnesses:
        return "fail"
    return "pass" if cases > 0 else "vacuous"


class _Lazy(dict):
    """A dict that fills a missing key with `fill(key)` and keeps it."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _Tables:
    """A component's functions as lazily filled tables over the ids t
    interns: each entry is one call of `enabled(m, st)`, `apply(m, st)` or
    `transform(m1, m2)`, made on first use.

    `it[j][i]` is the id of transform(method i, method j), `do[i][s]` the id
    of apply(method i, state s), and `poss[i][s]` is enabled(method i,
    state s).  `enables[i]` is the set of enumerated states method i is
    enabled on, and `pair[i1, i2]` holds the pair's two transformed methods,
    i2 against i1 and i1 against i2, and the set of states on which both
    orders are legal.  A result that is its input keeps the input's id.
    `enabled` and `apply` are kept as given, for states t does not intern.
    The fills refer to t and to the tables' dicts, never to this object, so
    clearing t's attributes frees them without a GC pass.
    """

    def __init__(self, t: "_Compiled", enabled, apply, transform):
        method, state, mid, sid = t.method, t.state, t.mid, t.sid

        def poss_row(i: int) -> _Lazy:
            m = method[i]
            return _Lazy(lambda s: bool(enabled(m, state[s])))

        def do_row(i: int) -> _Lazy:
            m = method[i]

            def fill(s: int) -> int:
                st = state[s]
                new = apply(m, st)
                return s if new is st else sid(new)
            return _Lazy(fill)

        def it_row(j: int) -> _Lazy:
            m2 = method[j]

            def fill(i: int) -> int:
                m1 = method[i]
                new = transform(m1, m2)
                return i if new is m1 else mid(new)
            return _Lazy(fill)

        def pair(ids: Tuple[int, int]):
            i1, i2 = ids
            t21, t12 = it[i1][i2], it[i2][i1]
            do1, do2, ok1, ok2 = do[i1], do[i2], poss[t21], poss[t12]
            return t21, t12, frozenset(s for s in enables[i1] & enables[i2]
                                       if ok1[do1[s]] and ok2[do2[s]])

        self.enabled, self.apply = enabled, apply
        self.it = it = _Lazy(it_row)
        self.do = do = _Lazy(do_row)
        self.poss = poss = _Lazy(poss_row)
        self.enables = enables = _Lazy(
            lambda i: frozenset(filter(poss[i].__getitem__, t.states)))
        self.pair = _Lazy(pair)


class _Compiled:
    """A component as one check call sees it: the given methods, in order,
    and its states interned to ids, each method validated as it is, two
    methods concurrent unless both name the same site (when `site_aware`),
    and two `_Tables` over those ids:
    `tables`, filled from the component for the sweeps, and `kernel`, filled
    by the public kernel for the replays.  `json[i]` is the report form of
    method i, shared by every entry that names it.  An enumeration that
    repeats a value would count its cases twice; it raises InvalidSpec.
    """

    def __init__(self, c: Component, b: Bounds, site_aware: bool, methods: List[Method]):
        self.c, self.b, self.site_aware = c, b, site_aware
        self.method: List[Method] = []
        self.state: List[StateValue] = []
        # The issuing site of each method, None where concurrency is not
        # decided by sites.
        self.site: List[Optional[int]] = []
        self._mid: Dict[Method, int] = {}
        self._sid: Dict[StateValue, int] = {}
        method, poss_fn, do_fn, it_fn = self.method, c.poss_fn, c.do_fn, c.it_fn
        # The component's own functions on interned, so validated, methods,
        # and the kernel wherever `nop` is involved.
        self.tables = _Tables(
            self,
            lambda m, st: kernel.enabled(c, m, st) if m.ctor == "nop" else poss_fn(m, st),
            lambda m, st: kernel.apply(c, m, st) if m.ctor == "nop" else do_fn(m, st),
            lambda m1, m2: (kernel.transform(c, m1, m2)
                            if m1.ctor == "nop" or m2.ctor == "nop" else it_fn(m1, m2)))
        self.kernel = _Tables(self, partial(kernel.enabled, c), partial(kernel.apply, c),
                              partial(kernel.transform, c))
        self.json = _Lazy(lambda i: value_to_json(method[i]))
        self.methods = self._distinct("method", [self.mid(m) for m in methods])

    @cached_property
    def states(self) -> List[int]:
        return self._distinct("state", [self.sid(st) for st in self.c.enum_states(self.b)])

    def _distinct(self, kind: str, ids: List[int]) -> List[int]:
        if len(set(ids)) != len(ids):
            raise InvalidSpec(f"{self.c.name}: its {kind} enumeration repeats a value")
        return ids

    def mid(self, m: Method) -> int:
        i = self._mid.get(m)
        if i is None:
            kernel.validate_method(self.c, m)
            i = self._mid[m] = len(self.method)
            self.method.append(m)
            self.site.append(m.site if self.site_aware else None)
        return i

    def sid(self, st: StateValue) -> int:
        s = self._sid.get(st)
        if s is None:
            s = self._sid[st] = len(self.state)
            self.state.append(st)
        return s

    def concurrent(self, i: int, j: int) -> bool:
        a, b = self.site[i], self.site[j]
        return a is None or b is None or a != b

    def select(self, f: Callable[[Method], bool]) -> List[int]:
        return [i for i in self.methods if f(self.method[i])]


# A part of a check as data: its name, its condition ("CP1" or "CP2"), and the
# blocks of method ids its sweep walks: (m1s, m2s) for CP1, (g1, g2, g3) for
# CP2, each drawing m1 from the first, m2 from the second and so on, in that
# nesting order.  Lists hold ascending ids (methods are interned first, in
# order), so id order is sweep order; mirrors are found by list equality.
Blocks = Sequence[Tuple[List[int], ...]]
Part = Tuple[str, str, Blocks]

_SPLIT_CASES = 200_000  # the case estimate from which a check splits (see `_split`)


def _cp1_sweep(t: _Compiled, blocks: Blocks) -> Tuple[int, int, list]:
    """The pair condition over the blocks' concurrent pairs, read off the
    component's tables: the cases decided, the concurrent pairs, and the
    failing cases (state, m1, m2, left, right) in id order.  A block whose
    two lists are equal walks m2 from m1 on: (m2, m1) reads (m1, m2)'s
    entries, left and right swapped, and is counted and listed as if swept."""
    do, joint_legal = t.tables.do, t.tables.pair.fill  # uncached: each pair is asked once
    pairs = cases = 0
    failing: List[Tuple[int, int, int, int, int]] = []
    for m1s, m2s in blocks:
        mirrored = m1s == m2s
        for k, i1 in enumerate(m1s):
            for i2 in m2s[k:] if mirrored else m2s:
                if not t.concurrent(i1, i2):
                    continue
                twice = mirrored and i1 != i2
                pairs += 1 + twice
                t21, t12, joint = joint_legal((i1, i2))
                cases += len(joint) * (1 + twice)
                first1, then1, first2, then2 = do[i1], do[t21], do[i2], do[t12]
                for s in joint:
                    left, right = then1[first1[s]], then2[first2[s]]
                    if left != right:
                        failing.append((s, i1, i2, left, right))
                        if twice:
                            failing.append((s, i2, i1, right, left))
    # Methods and states are interned in their listed order before anything
    # else, so (state, m1, m2) id order is the nesting order of a sweep over
    # states, then m1, then m2.
    return cases, pairs, sorted(failing)


def _cp2_sweep(t: _Compiled, blocks: Blocks) -> Tuple[int, list]:
    """The triple condition over the blocks' triples whose first two methods
    are concurrent, read off the component's tables: the cases decided, and
    the failing triples (m1, m2, m3, left, right, realizable) in sweep
    order.  A triple is realizable when some enumerated state has both
    orders of (m1, m2) legal and m3 enabled.  The mirror of block (g1, g2,
    g3) is (g2, g1, g3), whose (m2, m1, m3) reads (m1, m2, m3)'s entries,
    left and right swapped.  A block that is its own mirror walks m2 from m1
    on, and of a block and a later mirror only the first is walked; mirrored
    triples are counted, and listed in their block's id order: sweep order."""
    it, pair, enables = t.tables.it, t.tables.pair, t.tables.enables
    cases = 0
    found: List[List[Tuple[int, int, int, int, int]]] = [[] for _ in blocks]
    claimed = set()  # the blocks walked as mirrors of earlier ones
    for b, (g1, g2, g3) in enumerate(blocks):
        if b in claimed:
            continue
        mirror = b if g1 == g2 else next((k for k in range(b + 1, len(blocks))
                                          if k not in claimed and blocks[k] == (g2, g1, g3)), None)
        claimed.add(mirror)
        # via[i] takes the IT column of a method m to the tuple, over m3 in
        # g3, of m3 transformed against method i and then against m.
        via = _Lazy(lambda i: _values_at([it[i][i3] for i3 in g3]))
        for k, i1 in enumerate(g1):
            for i2 in g2[k:] if mirror == b else g2:
                if not t.concurrent(i1, i2):
                    continue
                twice = mirror is not None and (mirror != b or i1 != i2)
                cases += len(g3) * (1 + twice)
                lefts = via[i1](it[it[i1][i2]])
                rights = via[i2](it[it[i2][i1]])
                if lefts != rights:
                    for i3, left, right in zip(g3, lefts, rights):
                        if left != right:
                            found[b].append((i1, i2, i3, left, right))
                            if twice:
                                found[mirror].append((i2, i1, i3, right, left))
    # (m1, m2) and (m2, m1) are jointly legal on the same states: read one.
    return cases, [(*f, not pair[min(f[:2]), max(f[:2])][2].isdisjoint(enables[f[2]]))
                   for bucket in found for f in sorted(bucket)]


def _values_at(keys: List[int]) -> Callable[[dict], tuple]:
    """A function giving the tuple of a dict's values at the keys."""
    if len(keys) > 1:
        return operator.itemgetter(*keys)
    return lambda d: tuple(d[k] for k in keys)


def _cp1_report(t: _Compiled, name: str, found: Tuple[int, int, list]) -> CheckReport:
    cases, pairs, failing = found
    state = t.state
    witnesses = [_replay_cp1(t, state[s], i1, i2, state[left], state[right])
                 for s, i1, i2, left, right in failing]
    return CheckReport(name, _verdict(cases, witnesses), cases, witnesses,
                       examined=pairs * len(t.states))


def _cp2_report(t: _Compiled, name: str, found: Tuple[int, list]) -> CheckReport:
    cases, failing = found
    entries: Dict[bool, List[dict]] = {True: [], False: []}
    for i1, i2, i3, left, right, realizable in failing:
        entries[realizable].append(_replay_cp2(t, i1, i2, i3, left, right, realizable))
        _replay_realizable(t, i1, i2, i3, realizable)
    return CheckReport(name, _verdict(cases, entries[True]), cases, entries[True],
                       examined=cases, unrealizable=entries[False])


def _replay_cp1(t: _Compiled, st: StateValue, i1: int, i2: int, left: StateValue,
                right: StateValue) -> dict:
    """Re-derive a failing pair from state st through the public kernel;
    its witness."""
    m1, m2, kit = t.method[i1], t.method[i2], t.kernel.it
    got = []
    for seq in ((i1, kit[i1][i2]), (i2, kit[i2][i1])):
        s = st
        for i in seq:
            if not t.kernel.enabled(t.method[i], s):
                _mismatch("CP1", (m1, m2), "a sequence is not legal from " + repr(st))
            s = t.kernel.apply(t.method[i], s)
        got.append(s)
    if got != [left, right] or left == right:
        _mismatch("CP1", (m1, m2), f"final states {tuple(got)}")
    return {
        "state": value_to_json(st),
        "methods": [t.json[i1], t.json[i2]],
        "left": value_to_json(left),
        "right": value_to_json(right),
    }


def _mismatch(condition: str, methods: Sequence[Method], what: str) -> None:
    raise ReplayMismatch(
        f"{condition} case {list(methods)} does not replay through the "
        f"kernel as it was checked: {what}; is the component deterministic?")


def _replay_cp2(t: _Compiled, i1: int, i2: int, i3: int, left: int, right: int,
                realizable: bool) -> dict:
    """Re-derive a failing triple's transformed methods from the kernel's
    tables; its report entry."""
    kit = t.kernel.it
    got = (kit[kit[i1][i2]][kit[i1][i3]], kit[kit[i2][i1]][kit[i2][i3]])
    if got != (left, right) or left == right:
        _mismatch("CP2", [t.method[i] for i in (i1, i2, i3)],
                  f"transformed methods {tuple(t.method[g] for g in got)}")
    return {
        "state": None,
        "methods": [t.json[i1], t.json[i2], t.json[i3]],
        "left": t.json[left],
        "right": t.json[right],
        "realizable": realizable,
    }


def _replay_realizable(t: _Compiled, i1: int, i2: int, i3: int, realizable: bool) -> None:
    """Re-decide a failing triple's realizability, as the component's tables
    decided it, from the kernel's tables."""
    if realizable == t.kernel.pair[i1, i2][2].isdisjoint(t.kernel.enables[i3]):
        _mismatch("CP2", [t.method[i] for i in (i1, i2, i3)],
                  f"realizable is {realizable} by the tables")


class _Product:
    """A static product as its check sees it, factor by factor.  `t` interns
    the product's methods and never its states.  `leaves` are its factors
    that are not products themselves (see `StaticProduct.leaves`), each
    compiled over its own methods, in the product's order and under the
    product's site rule.  `names` is as `_leaf_methods` gives it.

    Across leaves the product's transform is the identity and its methods
    act on disjoint items of a state, and IT(m, nop) = m, IT(nop, m) = nop.
    So every case that draws from two leaves, or has a `nop`, holds by
    construction: it is counted, not compared.  A case within one leaf is
    the leaf's own, on every combination of the other leaves' states for
    the pair condition.  What a brute-force sweep of the product reports
    follows: the same cases, examined pairs, entries in the same order, and
    refusals.  Every lifted entry is replayed through the public kernel on
    the product; a triple's realizability on the leaf it is drawn from."""

    def __init__(self, t: _Compiled, leaves: List[_Compiled],
                 names: Dict[Tuple[int, str], str]):
        self.t, self.leaves, self.names = t, leaves, names

    def up(self, k: int, i: int) -> int:
        """The product's id of method i of leaf k."""
        m = self.leaves[k].method[i]
        return self.t.mid(NOP if m.ctor == "nop" else
                          Method(self.names[k, m.ctor], m.args, m.site))

    def n_states(self) -> int:
        """How many states the product has, from its leaves' counts."""
        return self.t.c.count_states(len(f.states) for f in self.leaves)

    def pairs(self) -> int:
        """The ordered pairs of the product's methods that are concurrent."""
        t = self.t
        sites = Counter(t.site[i] for i in t.methods if t.site[i] is not None)
        return len(t.methods) ** 2 - sum(n * n for n in sites.values())

    def cp1(self, name: str, found: List[Tuple[int, int, list]]) -> CheckReport:
        t, leaves = self.t, self.leaves
        ns = [len(f.states) for f in leaves]
        n = math.prod(ns)

        def others(*ks: int) -> int:  # state combinations of the other leaves
            return math.prod(m for j, m in enumerate(ns) if j not in ks)

        # The enabled states of each leaf's methods, summed per site (None:
        # concurrent with every method).
        by_site = [Counter() for _ in leaves]
        for f, e in zip(leaves, by_site):
            for i in f.methods:
                e[f.site[i]] += len(f.tables.enables[i])
        total = [sum(e.values()) for e in by_site]
        cases = n  # (nop, nop)
        for k, (own, _, _) in enumerate(found):
            # The leaf's own pairs, and its methods with nop either side.
            cases += (own + 2 * total[k]) * others(k)
            for j in range(len(leaves)):
                if j != k:  # with another leaf's methods, the concurrent pairs
                    same_site = sum(v * by_site[j][site] for site, v in by_site[k].items()
                                    if site is not None)
                    cases += (total[k] * total[j] - same_site) * others(k, j)

        lifted = []
        for k, (_, _, failing) in enumerate(found):
            for s, i1, i2, left, right in failing:
                axes: List[Sequence[int]] = [range(m) for m in ns]
                axes[k] = (s,)
                p1, p2 = self.up(k, i1), self.up(k, i2)
                lifted += [(ids, p1, p2, k, left, right) for ids in itertools.product(*axes)]
        # A product state's position in the enumeration is its leaves'
        # positions read as digits, so this is a sweep's order.
        witnesses = []
        for ids, p1, p2, k, left, right in sorted(lifted):
            items = [f.state[s] for f, s in zip(leaves, ids)]
            st = t.c.assemble(iter(items))
            items[k] = leaves[k].state[left]
            left_st = t.c.assemble(iter(items))
            items[k] = leaves[k].state[right]
            witnesses.append(_replay_cp1(t, st, p1, p2, left_st, t.c.assemble(iter(items))))
        return CheckReport(name, _verdict(cases, witnesses), cases, witnesses,
                           examined=self.pairs() * n)

    def cp2(self, name: str, found: List[Tuple[int, list]]) -> CheckReport:
        t = self.t
        cases = self.pairs() * len(t.methods)
        lifted = sorted((self.up(k, i1), self.up(k, i2), self.up(k, i3), k, (i1, i2, i3),
                         left, right, realizable)
                        for k, (_, failing) in enumerate(found)
                        for i1, i2, i3, left, right, realizable in failing)
        # A triple is realizable on a product state; a brute-force sweep
        # builds them here, so the product is refused here past the ceiling.
        has_states = bool(lifted) and self.n_states() > 0
        entries: Dict[bool, List[dict]] = {True: [], False: []}
        for p1, p2, p3, k, ids, left, right, realizable in lifted:
            _replay_realizable(self.leaves[k], *ids, realizable)
            realizable = realizable and has_states
            entries[realizable].append(_replay_cp2(t, p1, p2, p3, self.up(k, left),
                                                   self.up(k, right), realizable))
        return CheckReport(name, _verdict(cases, entries[True]), cases, entries[True],
                           examined=cases, unrealizable=entries[False])


def _leaf_methods(t: _Compiled) -> Tuple[List[Tuple[Component, List[Method]]],
                                          Dict[Tuple[int, str], str]]:
    """Static product t.c's leaves, each with its own methods in the
    product's order; and names[k, ctor], the product's constructor for
    constructor ctor of leaf k."""
    factors, owner = t.c.leaves()
    own: List[List[Method]] = [[] for _ in factors]
    for i in t.methods:
        m = t.method[i]
        if m.ctor != "nop":
            k, ctor = owner[m.ctor]
            own[k].append(Method(ctor, m.args, m.site))
    return list(zip(factors, own)), {v: k for k, v in owner.items()}


def _check(c: Component, b: Bounds,
           parts_of: Callable[[_Compiled], List[Part]]) -> List[CheckReport]:
    """Compile c once and sweep the parts `parts_of` names over it, once
    every part's estimate is within the case ceiling: the cases its blocks
    hold, times the states for CP1.  CP2's estimates, which need no states,
    are read first, so a check its methods alone put over the ceiling builds
    no state.  Then, refused or not, free the tables, whose fill functions
    refer back to their compiled component, without a GC pass.

    A static product is swept factor by factor (see `_Product`): every part
    of its checks sweeps all of its methods, so each part is its leaves' own
    pairs or triples, lifted.  Its states are counted, never built."""
    t = _Compiled(c, b, c.site_aware, c.enum_methods(b))
    product: Optional[_Product] = None
    try:
        if isinstance(c, StaticProduct):
            leaves, names = _leaf_methods(t)
            product = _Product(t, [_Compiled(f, b, c.site_aware, ms) for f, ms in leaves],
                               names)
        parts = parts_of(t)
        total = 0
        for _, condition, blocks in sorted(parts, key=lambda part: part[1] == "CP1"):
            estimate = sum(math.prod(map(len, block)) for block in blocks)
            if condition == "CP1":
                estimate *= product.n_states() if product else len(t.states)
            if estimate > b.max_cases:
                raise BoundsExceeded(
                    f"estimated {estimate} cases exceeds ceiling {b.max_cases}")
            total += estimate
        sweep = {"CP1": _cp1_sweep, "CP2": _cp2_sweep}

        def run(name: str, condition: str, blocks: Blocks) -> CheckReport:
            t0 = time.perf_counter()
            if product:
                width = 2 if condition == "CP1" else 3
                found = [sweep[condition](f, [(f.methods,) * width]) for f in product.leaves]
                rep = (product.cp1 if condition == "CP1" else product.cp2)(name, found)
            else:
                report = _cp1_report if condition == "CP1" else _cp2_report
                rep = report(t, name, sweep[condition](t, blocks))
            rep.elapsed_ms = (time.perf_counter() - t0) * 1000.0
            return rep

        kinds = [part[1] for part in parts]  # CP1 parts first, then CP2 parts
        if (total >= _SPLIT_CASES and kinds[0] < kinds[-1] and kinds == sorted(kinds)
                and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1):
            return _split(run, parts)
        return [run(*part) for part in parts]
    finally:
        for compiled in (t, *(product.leaves if product else ())):
            vars(compiled).clear()


def _split(run: Callable[..., CheckReport], parts: List[Part]) -> List[CheckReport]:
    """`run` over the parts: the CP1 ones, which come first, here and the CP2
    ones in a forked child that pickles their reports, or its exception, back
    over a pipe.  Checks of 240,000 cases or more ran 0-35 % faster; of 80,000,
    18 % slower to 16 % faster.  An exception here is raised once the child
    is killed and reaped.  The child leaves by `os._exit`: it flushes nothing."""
    import pickle
    import signal
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            try:
                got = [run(*part) for part in parts if part[1] == "CP2"]
            except Exception as e:
                got = e
            with open(w, "wb") as out:
                pickle.dump(got, out, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(w)
    try:
        with open(r, "rb") as pipe:
            mine = [run(*part) for part in parts if part[1] == "CP1"]
            got = pickle.load(pipe)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
    if isinstance(got, Exception):
        raise got
    return mine + got


def check_cp1(c: Component, b: Bounds = DEFAULT_BOUNDS) -> CheckReport:
    """Pair condition over every enumerated state and method pair."""
    return _check(c, b, lambda t: [("CP1", "CP1", [(t.methods, t.methods)])])[0]


def check_cp2(c: Component, b: Bounds = DEFAULT_BOUNDS) -> CheckReport:
    """Triple condition over every enumerated method triple (state-free)."""
    return _check(c, b, lambda t: [("CP2", "CP2", [(t.methods,) * 3])])[0]


def _cross(g1: List[int], g2: List[int]) -> Blocks:
    """The CP2 blocks drawing (m1, m2, m3) from the two groups in every
    combination except all three from the same one."""
    groups = (g1, g2)
    return [tuple(groups[k] for k in ks)
            for ks in itertools.product((0, 1), repeat=3) if len(set(ks)) > 1]


def _aggregate(name: str, t0: float, parts: List[CheckReport]) -> CheckReport:
    """The parts' reports as one, timed as a whole from t0: their entries in
    part order, each tagged with its part's name, and a verdict that fails
    when any part fails."""
    witnesses = [{**w, "part": p.property} for p in parts for w in p.witnesses]
    unrealizable = [{**w, "part": p.property} for p in parts for w in p.unrealizable]
    cases = sum(p.cases for p in parts)
    return CheckReport(name, _verdict(cases, witnesses), cases, witnesses,
                       (time.perf_counter() - t0) * 1000.0,
                       sum(p.examined for p in parts), parts,
                       unrealizable=unrealizable)


def _consistency_parts(t: _Compiled) -> List[Part]:
    if not isinstance(t.c, ComposedComponent):
        return [("CP1", "CP1", [(t.methods, t.methods)]),
                ("CP2", "CP2", [(t.methods,) * 3])]
    updates = t.select(is_update)
    container = t.select(lambda m: not is_update(m))
    return [
        ("CP1-updates", "CP1", [(updates, updates)]),
        ("CP1-container", "CP1", [(container, container)]),
        ("CP1-cross", "CP1", [(updates, container)]),
        ("CP2-updates", "CP2", [(updates,) * 3]),
        ("CP2-container", "CP2", [(container,) * 3]),
        ("CP2-cross", "CP2", _cross(updates, container)),
    ]


def check_consistency(c: Component, b: Bounds = DEFAULT_BOUNDS) -> CheckReport:
    """Both conditions; for a composed component the three-way decomposition
    (update-only, container-only, cross) is run for each condition.  No part
    is swept unless every part is within the case ceiling."""
    return _aggregate("consistency", time.perf_counter(), _check(c, b, _consistency_parts))
