"""Exhaustive bounded verification of the convergence conditions.

The pair condition (cp1) asserts that two concurrent methods, each transformed
to include the other's effect, lead to the same state from every state where
both orders are legal.  The triple condition (cp2) asserts that transforming a
third method along either of the two equivalent sequences yields the same
method.  Restricted variants quantify over given disjoint method subsets, and
`check_consistency` runs the full decomposition for composed components.

A check is a list of parts, each plain data: a name, a condition and the
blocks of method ids its sweep walks.  One runner, `_check`, compiles the
component once, reads every part's case estimate off its blocks, and raises
BoundsExceeded before any sweep if one is over `max_cases`.  Compiling
interns the sorted method and state enumerations to ints, and the sweeps
read three tables keyed by those ids, IT (method, method) -> method, Do
(state, method) -> state and Poss (state, method) -> bool.  Each method is
validated once, by `kernel.validate_method`, when it is interned: an
enumerated one, or a result outside the enumeration (an insert one past the
longest state, a longer sequence) when first seen.  A table entry is filled
on first use by one call of the component's own `it_fn`, `do_fn` or
`poss_fn`; an entry that involves `nop` is filled by the kernel's
`transform`, `apply` or `enabled`, so the `nop` rules live only in the
kernel.  Nothing outlives the call.

Every failing case is replayed through the public kernel before it is
emitted, which cross-checks the tables: joint legality, both final states or
transformed methods, and for a triple its realizability verdict.  One
function, `_Compiled._legality`, decides joint legality: for the sweeps from
the tables, and for the replay from the kernel calls that fill them, made
anew, so the replay reads none of the tables.  The replay derives what cases
share (a method's enabled states, a pair's transformed methods and jointly
legal states) once, and makes each kernel transform once per pair of
methods.  A disagreement raises ReplayMismatch.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .bounds import Bounds, DEFAULT_BOUNDS
from .composition import ComposedComponent, is_update
from .errors import BoundsExceeded, InvalidSpec, ReplayMismatch
from . import kernel
from .kernel import Component
from .values import Method, StateValue, value_to_json


@dataclass
class CheckReport:
    """A verdict over `cases` compared cases, with its failing entries.

    An aggregate's entries carry a `"part"` tag naming the part that found
    them.  Its JSON writes each entry once, at the top level: a part's
    `witnesses` / `unrealizable` are the indices of its own entries there.
    In memory, every report keeps its full lists."""
    property: str
    verdict: str  # "pass" | "fail" | "vacuous"
    cases: int    # jointly-legal (non-vacuous) cases actually compared
    witnesses: List[dict] = field(default_factory=list)
    elapsed_ms: float = 0.0
    examined: int = 0
    parts: List["CheckReport"] = field(default_factory=list)
    # Triple-condition violations with no jointly-legal realizing state; kept
    # for audit but they do not flip the verdict.
    unrealizable: List[dict] = field(default_factory=list)

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


class _Compiled:
    """A component as one check call sees it: methods and states interned to
    ids, each method validated as it is, and the component's functions as
    lazily filled tables over those ids.

    `it[j][i]` is the id of transform(method i, method j), `do[i][s]` the id
    of apply(method i, state s), and `poss[i][s]` is enabled(method i,
    state s).  `enables` and `pair` decide joint legality from those tables
    for CP1 and CP2, and `kernel_enables` and `kernel_pair` for both replays
    from the public kernel (see `_legality`), whose transforms are
    `kernel_it[i, j]`, made once per pair.  `json[i]` is
    the report form of method i, shared by every entry that names it.  An
    enumeration that repeats a value would count its cases twice; it
    raises InvalidSpec.
    """

    def __init__(self, c: Component, b: Bounds):
        self.c, self.b = c, b
        self.method: List[Method] = []
        self.state: List[StateValue] = []
        # The issuing site of each method, None where concurrency is not
        # decided by sites: two methods are concurrent unless both name the
        # same site.
        self.site: List[Optional[int]] = []
        self._mid: Dict[Method, int] = {}
        self._sid: Dict[StateValue, int] = {}
        method, state, mid, sid = self.method, self.state, self.mid, self.sid

        # The tables' fill: the component's own functions on interned, so
        # validated, methods, and the kernel wherever `nop` is involved.  A
        # result that is its input keeps the input's id.
        def fill_poss(i: int) -> Callable[[int], bool]:
            m = method[i]
            poss = partial(kernel.enabled, c, m) if m.ctor == "nop" else partial(c.poss_fn, m)
            return lambda s: bool(poss(state[s]))

        def fill_do(i: int) -> Callable[[int], int]:
            m = method[i]
            do = partial(kernel.apply, c, m) if m.ctor == "nop" else partial(c.do_fn, m)

            def fill(s: int) -> int:
                st = state[s]
                new = do(st)
                return s if new is st else sid(new)
            return fill

        def fill_it(j: int) -> Callable[[int], int]:
            m2, it_fn = method[j], c.it_fn
            against_nop = m2.ctor == "nop"

            def fill(i: int) -> int:
                m1 = method[i]
                new = (kernel.transform(c, m1, m2) if against_nop or m1.ctor == "nop"
                       else it_fn(m1, m2))
                return i if new is m1 else mid(new)
            return fill

        self.it = _Lazy(lambda j: _Lazy(fill_it(j)))
        self.do = _Lazy(lambda i: _Lazy(fill_do(i)))
        self.poss = _Lazy(lambda i: _Lazy(fill_poss(i)))
        self.enables, self.pair = self._legality(
            lambda i: self.poss[i].__getitem__, lambda i: self.do[i].__getitem__,
            lambda i, j: self.it[j][i])

        # The replay's view: the public kernel, each call made anew once.
        def enabled(i: int) -> Callable[[int], bool]:
            return lambda s: kernel.enabled(c, method[i], state[s])

        def apply(i: int) -> Callable[[int], int]:
            return lambda s: sid(kernel.apply(c, method[i], state[s]))

        self.kernel_it = _Lazy(lambda ij: mid(kernel.transform(c, method[ij[0]],
                                                               method[ij[1]])))
        self.kernel_enables, self.kernel_pair = self._legality(
            enabled, apply, lambda i, j: self.kernel_it[i, j])
        self.json = _Lazy(lambda i: value_to_json(method[i]))
        self.methods = self._distinct("method", [mid(m) for m in c.enum_methods(b)])

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
            self.site.append(m.site if self.c.site_aware else None)
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

    def _legality(self, enabled, apply, transform):
        """The checker's one joint-legality decider, `(enables, pair)`, as
        decided over ids by the predicate `enabled(i)` and the function
        `apply(i)` on state ids, and by `transform(i, j)`: `enables[i]` is the
        set of enumerated states method i is enabled on, and `pair[i1, i2]`
        holds the pair's two transformed methods, i2 against i1 and i1
        against i2, and the set of states on which both orders are legal."""
        def pair(ids: Tuple[int, int]):
            i1, i2 = ids
            t21, t12 = transform(i2, i1), transform(i1, i2)
            do1, do2, ok1, ok2 = apply(i1), apply(i2), enabled(t21), enabled(t12)
            return t21, t12, frozenset(s for s in enables[i1] & enables[i2]
                                       if ok1(do1(s)) and ok2(do2(s)))
        enables = _Lazy(lambda i: frozenset(filter(enabled(i), self.states)))
        return enables, _Lazy(pair)

    def select(self, f: Callable[[Method], bool]) -> List[int]:
        return [i for i in self.methods if f(self.method[i])]


# A part of a check as data: its name, its condition ("CP1" or "CP2"), and the
# blocks of method ids its sweep walks: (m1s, m2s) for CP1, (g1, g2, g3) for
# CP2, each drawing m1 from the first, m2 from the second and so on, in that
# nesting order.
Blocks = Sequence[Tuple[List[int], ...]]
Part = Tuple[str, str, Blocks]


def _cp1_sweep(t: _Compiled, name: str, blocks: Blocks) -> CheckReport:
    t0 = time.perf_counter()
    do, joint_legal = t.do, t.pair.fill  # uncached: each pair is asked once
    pairs = cases = 0
    failing: List[Tuple[int, int, int, int, int]] = []
    for m1s, m2s in blocks:
        for i1 in m1s:
            for i2 in m2s:
                if not t.concurrent(i1, i2):
                    continue
                pairs += 1
                t21, t12, joint = joint_legal((i1, i2))
                cases += len(joint)
                first1, then1, first2, then2 = do[i1], do[t21], do[i2], do[t12]
                for s in joint:
                    left, right = then1[first1[s]], then2[first2[s]]
                    if left != right:
                        failing.append((s, i1, i2, left, right))

    # Methods and states are interned in their sorted enumeration order
    # before anything else, so (state, m1, m2) id order is the nesting order
    # of a sweep over states, then m1, then m2.
    witnesses = [_replay_cp1(t, *case) for case in sorted(failing)]
    return CheckReport(name, _verdict(cases, witnesses), cases, witnesses,
                       (time.perf_counter() - t0) * 1000.0, pairs * len(t.states))


def _replay_cp1(t: _Compiled, s: int, i1: int, i2: int, left: int,
                right: int) -> dict:
    """Re-derive a failing pair through the public kernel; its witness."""
    c, st, m1, m2 = t.c, t.state[s], t.method[i1], t.method[i2]
    t21, t12, joint = t.kernel_pair[i1, i2]
    seq1, seq2 = [m1, t.method[t21]], [m2, t.method[t12]]
    if s not in joint:
        _mismatch("CP1", (m1, m2), "a sequence is not legal from " + repr(st))
    got = (kernel.apply_seq(c, seq1, st), kernel.apply_seq(c, seq2, st))
    if got != (t.state[left], t.state[right]) or got[0] == got[1]:
        _mismatch("CP1", (m1, m2), f"final states {got}")
    return {
        "state": value_to_json(st),
        "methods": [t.json[i1], t.json[i2]],
        "left": value_to_json(got[0]),
        "right": value_to_json(got[1]),
    }


def _mismatch(condition: str, methods: Sequence[Method], what: str) -> None:
    raise ReplayMismatch(
        f"{condition} case {list(methods)} does not replay through the "
        f"kernel as it was checked: {what}; is the component deterministic?")


def _cp2_sweep(t: _Compiled, name: str, blocks: Blocks) -> CheckReport:
    t0 = time.perf_counter()
    it = t.it
    cases = 0
    failing: List[Tuple[int, int, int, int, int]] = []
    for g1, g2, g3 in blocks:
        # via[i] takes the IT column of a method m to the tuple, over m3 in
        # g3, of m3 transformed against method i and then against m.
        via = _Lazy(lambda i: _values_at([it[i][i3] for i3 in g3]))
        for i1 in g1:
            for i2 in g2:
                if not t.concurrent(i1, i2):
                    continue
                cases += len(g3)
                lefts = via[i1](it[it[i1][i2]])
                rights = via[i2](it[it[i2][i1]])
                if lefts != rights:
                    failing.extend((i1, i2, i3, left, right) for i3, left, right
                                   in zip(g3, lefts, rights) if left != right)

    witnesses: List[dict] = []
    unrealizable: List[dict] = []
    for i1, i2, i3, left, right in failing:
        entry = _replay_cp2(t, i1, i2, i3, left, right)
        (witnesses if entry["realizable"] else unrealizable).append(entry)
    return CheckReport(name, _verdict(cases, witnesses), cases, witnesses,
                       (time.perf_counter() - t0) * 1000.0, cases,
                       unrealizable=unrealizable)


def _values_at(keys: List[int]) -> Callable[[dict], tuple]:
    """A function giving the tuple of a dict's values at the keys."""
    if len(keys) > 1:
        return operator.itemgetter(*keys)
    return lambda d: tuple(d[k] for k in keys)


def _replay_cp2(t: _Compiled, i1: int, i2: int, i3: int, left: int,
                right: int) -> dict:
    """Re-derive a failing triple and its realizability through the public
    kernel; its report entry.  The transformed methods are kernel
    transforms, each made once per pair and compared as ids."""
    triple = (t.method[i1], t.method[i2], t.method[i3])
    t21, t12, joint = t.kernel_pair[i1, i2]
    kit = t.kernel_it
    got = (kit[kit[i3, i1], t21], kit[kit[i3, i2], t12])
    if got != (left, right) or got[0] == got[1]:
        _mismatch("CP2", triple, f"transformed methods {tuple(t.method[g] for g in got)}")
    realizable = not t.pair[i1, i2][2].isdisjoint(t.enables[i3])
    if realizable != (not joint.isdisjoint(t.kernel_enables[i3])):
        _mismatch("CP2", triple, f"realizable is {realizable} by the tables")
    return {
        "state": None,
        "methods": [t.json[i1], t.json[i2], t.json[i3]],
        "left": t.json[left],
        "right": t.json[right],
        "realizable": realizable,
    }


def _check(c: Component, b: Bounds,
           parts_of: Callable[[_Compiled], List[Part]]) -> List[CheckReport]:
    """Compile c once and sweep the parts `parts_of` names over it, once
    every part's estimate is within the case ceiling: the cases its blocks
    hold, times the states for CP1.  Then free the tables, whose fill
    functions refer back to t, without a GC pass."""
    t = _Compiled(c, b)
    parts = parts_of(t)
    for _, condition, blocks in parts:
        estimate = sum(math.prod(map(len, block)) for block in blocks)
        if condition == "CP1":
            estimate *= len(t.states)
        if estimate > b.max_cases:
            raise BoundsExceeded(
                f"estimated {estimate} cases exceeds ceiling {b.max_cases}")
    sweep = {"CP1": _cp1_sweep, "CP2": _cp2_sweep}
    reports = [sweep[condition](t, name, blocks) for name, condition, blocks in parts]
    vars(t).clear()
    return reports


def check_cp1(c: Component, b: Bounds = DEFAULT_BOUNDS) -> CheckReport:
    """Pair condition over every enumerated state and method pair."""
    return _check(c, b, lambda t: [("CP1", "CP1", [(t.methods, t.methods)])])[0]


def check_cp2(c: Component, b: Bounds = DEFAULT_BOUNDS) -> CheckReport:
    """Triple condition over every enumerated method triple (state-free)."""
    return _check(c, b, lambda t: [("CP2", "CP2", [(t.methods,) * 3])])[0]


def _split(t: _Compiled, sub1, sub2) -> Tuple[List[int], List[int]]:
    """The method ids in each subset, given as a filter or a collection."""
    g1, g2 = (t.select(sub if callable(sub) else set(sub).__contains__)
              for sub in (sub1, sub2))
    overlap = set(g1) & set(g2)
    if overlap:
        raise InvalidSpec("method subsets overlap: "
                          f"{sorted(t.method[i].ctor for i in overlap)}")
    return g1, g2


def _cross(g1: List[int], g2: List[int]) -> Blocks:
    """The CP2 blocks drawing (m1, m2, m3) from the two groups in every
    combination except all three from the same one."""
    groups = (g1, g2)
    return [tuple(groups[k] for k in ks)
            for ks in itertools.product((0, 1), repeat=3) if len(set(ks)) > 1]


def check_cp1_restricted(c: Component, sub1, sub2,
                         b: Bounds = DEFAULT_BOUNDS) -> CheckReport:
    """Pair condition over cross pairs only: one method from each subset."""
    return _check(c, b, lambda t: [
        ("CP1-restricted", "CP1", [_split(t, sub1, sub2)])])[0]


def check_cp2_restricted(c: Component, sub1, sub2,
                         b: Bounds = DEFAULT_BOUNDS) -> CheckReport:
    """Triple condition with (m1, m2, m3) drawn from the two subsets in every
    combination except all three from the same one."""
    return _check(c, b, lambda t: [
        ("CP2-restricted", "CP2", _cross(*_split(t, sub1, sub2)))])[0]


def _aggregate(name: str, parts: List[CheckReport]) -> CheckReport:
    """The parts' reports as one: their entries in part order, each tagged
    with its part's name, and a verdict that fails when any part fails."""
    witnesses = [{**w, "part": p.property} for p in parts for w in p.witnesses]
    unrealizable = [{**w, "part": p.property} for p in parts for w in p.unrealizable]
    cases = sum(p.cases for p in parts)
    return CheckReport(name, _verdict(cases, witnesses), cases, witnesses,
                       sum(p.elapsed_ms for p in parts),
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
    return _aggregate("consistency", _check(c, b, _consistency_parts))
