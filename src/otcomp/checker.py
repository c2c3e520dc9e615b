"""Exhaustive bounded verification of the convergence conditions.

The pair condition (cp1) asserts that two concurrent methods, each transformed
to include the other's effect, lead to the same state from every state where
both orders are legal.  The triple condition (cp2) asserts that transforming a
third method along either of the two equivalent sequences yields the same
method.  Restricted variants quantify over given disjoint method subsets, and
`check_consistency` runs the full decomposition for composed components.

Each check call compiles the component once: its sorted method and state
enumerations are interned to ints, and the sweeps read three tables keyed by
those ids, IT (method, method) -> method, Do (state, method) -> state and
Poss (state, method) -> bool.  A table entry is filled on first use from the
public kernel's `transform`, `apply` and `enabled`, so validation and `nop`
handling stay in the kernel; a result outside the enumeration (an insert one
past the longest state, a longer sequence) is interned when first seen.
Nothing outlives the call.

Every failing case is replayed through the public kernel before it is
emitted, which cross-checks the tables: both final states or transformed
methods, and for a triple its realizability verdict.  The replay re-derives
what a triple shares once: for each method, the enumerated states the
kernel enables it on, and for each (m1, m2) pair, its two transformed
sequences and the states on which both are legal; it reads none of the
tables to do so.  A disagreement raises ReplayMismatch.
"""

from __future__ import annotations

import itertools
import operator
import time
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .bounds import Bounds, DEFAULT_BOUNDS
from .composition import ComposedComponent, is_update
from .errors import BoundsExceeded, InvalidSpec, ReplayMismatch
from . import kernel
from .kernel import Component
from .values import Method, StateValue, value_to_json

MethodFilter = Callable[[Method], bool]


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


def _same(k: int) -> int:
    return k


class _Compiled:
    """A component as one check call sees it: methods and states interned to
    ids, and the kernel's functions as lazily filled tables over those ids.

    `it[j][i]` is the id of transform(method i, method j), `do[i][s]` the id
    of apply(method i, state s), and `poss[i][s]` is enabled(method i,
    state s).  `enables` and `pair` decide joint legality from those tables,
    and `kernel_enables` and `kernel_pair`, the replay's view, through the
    public kernel alone (see `_legality`).  `json[i]` is the report form of
    method i, shared by every entry that names it.  An enumeration that
    repeats a value would count its cases twice; it raises InvalidSpec.
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
        method, state = self.method, self.state
        self.it = _Lazy(lambda j: _Lazy(
            lambda i: self.mid(kernel.transform(c, method[i], method[j]))))
        self.do = _Lazy(lambda i: _Lazy(
            lambda s: self.sid(kernel.apply(c, method[i], state[s]))))
        self.poss = _Lazy(lambda i: _Lazy(
            lambda s: kernel.enabled(c, method[i], state[s])))
        self.enables, self.pair = self._legality(
            _same, _same, lambda i, s: self.poss[i][s], lambda i, s: self.do[i][s],
            lambda i, j: self.it[j][i])
        self.kernel_enables, self.kernel_pair = self._legality(
            method.__getitem__, state.__getitem__, partial(kernel.enabled, c),
            partial(kernel.apply, c), partial(kernel.transform, c))
        self.json = _Lazy(lambda i: value_to_json(method[i]))
        self.methods = self._distinct("method", [self.mid(m) for m in c.enum_methods(b)])

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

    def _legality(self, method, state, enabled, apply, transform):
        """`(enables, pair)` as decided by `enabled(m, st)`, `apply(m, st)`
        and `transform(m1, m2)`, given the handles `method(i)` and `state(s)`
        they take for enumerated ids: `enables[i]` is the set of enumerated
        states method i is enabled on, and `pair[i1, i2]` holds the pair's
        two transformed sequences and the set of states on which both are
        legal."""
        def enabled_on(i: int) -> FrozenSet[int]:
            m = method(i)
            return frozenset(s for s in self.states if enabled(m, state(s)))

        def pair(ids: Tuple[int, int]):
            i1, i2 = ids
            seq1, seq2 = _pair_seqs(transform, method(i1), method(i2))
            return seq1, seq2, frozenset(
                s for s in enables[i1] & enables[i2]
                if enabled(seq1[1], apply(seq1[0], state(s)))
                and enabled(seq2[1], apply(seq2[0], state(s))))
        enables = _Lazy(enabled_on)
        return enables, _Lazy(pair)

    def select(self, f: MethodFilter) -> List[int]:
        return [i for i in self.methods if f(self.method[i])]


def _cp1_sweep(t: _Compiled, name: str, m1s: List[int],
               m2s: List[int]) -> CheckReport:
    t0 = time.perf_counter()
    states = t.states
    it, do, poss = t.it, t.do, t.poss
    partners = [(i1, [i2 for i2 in m2s if t.concurrent(i1, i2)]) for i1 in m1s]

    cases = examined = 0
    witnesses: List[dict] = []
    for s in states:
        for i1, concurrent in partners:
            examined += len(concurrent)
            if not (concurrent and poss[i1][s]):
                continue
            s1 = do[i1][s]
            against1 = it[i1]
            for i2 in concurrent:
                t21 = against1[i2]
                if not (poss[t21][s1] and poss[i2][s]):
                    continue
                t12 = it[i2][i1]
                s2 = do[i2][s]
                if not poss[t12][s2]:
                    continue
                cases += 1
                left, right = do[t21][s1], do[t12][s2]
                if left != right:
                    witnesses.append(_replay_cp1(t, s, i1, i2, left, right))
    return CheckReport(name, _verdict(cases, witnesses), cases, witnesses,
                       (time.perf_counter() - t0) * 1000.0, examined)


def _replay_cp1(t: _Compiled, s: int, i1: int, i2: int, left: int,
                right: int) -> dict:
    """Re-derive a failing pair through the public kernel; its witness."""
    c, st, m1, m2 = t.c, t.state[s], t.method[i1], t.method[i2]
    seq1, seq2 = _pair_seqs(partial(kernel.transform, c), m1, m2)
    if not (kernel.legal(c, seq1, st) and kernel.legal(c, seq2, st)):
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


def _pair_seqs(transform, m1, m2):
    """Both orders of a concurrent pair, each second method transformed
    against the first."""
    return [m1, transform(m2, m1)], [m2, transform(m1, m2)]


def _mismatch(condition: str, methods: Sequence[Method], what: str) -> None:
    raise ReplayMismatch(
        f"{condition} case {list(methods)} does not replay through the "
        f"kernel as it was checked: {what}; is the component deterministic?")


# A CP2 sweep runs over blocks (g1, g2, g3) of method ids: m1 from g1, m2 from
# g2 and m3 from g3, in that nesting order.
Blocks = Sequence[Tuple[List[int], List[int], List[int]]]


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
    kernel; its report entry."""
    c, m3 = t.c, t.method[i3]
    triple = (t.method[i1], t.method[i2], m3)
    seq1, seq2, joint = t.kernel_pair[i1, i2]
    got = (kernel.transform_seq(c, m3, seq1), kernel.transform_seq(c, m3, seq2))
    if got != (t.method[left], t.method[right]) or got[0] == got[1]:
        _mismatch("CP2", triple, f"transformed methods {got}")
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


# A part of a check: its estimated case count, and the sweep that runs it.
Part = Tuple[int, Callable[[], CheckReport]]


def _cp1(t: _Compiled, name: str, m1s: List[int], m2s: List[int]) -> Part:
    return (len(t.states) * len(m1s) * len(m2s),
            lambda: _cp1_sweep(t, name, m1s, m2s))


def _cp2_cube(t: _Compiled, name: str, group: List[int]) -> Part:
    return len(group) ** 3, lambda: _cp2_sweep(t, name, [(group, group, group)])


def _run(t: _Compiled, parts: List[Part]) -> List[CheckReport]:
    """Sweep the parts, once every estimate is within the case ceiling."""
    for estimate, _ in parts:
        if estimate > t.b.max_cases:
            raise BoundsExceeded(
                f"estimated {estimate} cases exceeds ceiling {t.b.max_cases}")
    return [sweep() for _, sweep in parts]


def check_cp1(c: Component, b: Bounds = DEFAULT_BOUNDS) -> CheckReport:
    """Pair condition over every enumerated state and method pair."""
    t = _Compiled(c, b)
    return _run(t, [_cp1(t, "CP1", t.methods, t.methods)])[0]


def check_cp2(c: Component, b: Bounds = DEFAULT_BOUNDS) -> CheckReport:
    """Triple condition over every enumerated method triple (state-free)."""
    t = _Compiled(c, b)
    return _run(t, [_cp2_cube(t, "CP2", t.methods)])[0]


def _split(t: _Compiled, sub1, sub2) -> Tuple[List[int], List[int]]:
    g1 = t.select(_as_filter(sub1))
    g2 = t.select(_as_filter(sub2))
    overlap = set(g1) & set(g2)
    if overlap:
        raise InvalidSpec("method subsets overlap: "
                          f"{sorted(t.method[i].ctor for i in overlap)}")
    return g1, g2


def _as_filter(sub) -> MethodFilter:
    if callable(sub):
        return sub
    frozen = set(sub)
    return lambda m: m in frozen


def _cp2_cross(t: _Compiled, name: str, g1: List[int], g2: List[int]) -> Part:
    groups = {1: g1, 2: g2}
    return (len(g1) + len(g2)) ** 3, lambda: _cp2_sweep(t, name, [
        (groups[i], groups[j], groups[k])
        for i, j, k in itertools.product((1, 2), repeat=3) if not i == j == k])


def check_cp1_restricted(c: Component, sub1, sub2,
                         b: Bounds = DEFAULT_BOUNDS) -> CheckReport:
    """Pair condition over cross pairs only: one method from each subset."""
    t = _Compiled(c, b)
    return _run(t, [_cp1(t, "CP1-restricted", *_split(t, sub1, sub2))])[0]


def check_cp2_restricted(c: Component, sub1, sub2,
                         b: Bounds = DEFAULT_BOUNDS) -> CheckReport:
    """Triple condition with (m1, m2, m3) drawn from the two subsets in every
    combination except all three from the same one."""
    t = _Compiled(c, b)
    return _run(t, [_cp2_cross(t, "CP2-restricted", *_split(t, sub1, sub2))])[0]


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


def check_consistency(c: Component, b: Bounds = DEFAULT_BOUNDS) -> CheckReport:
    """Both conditions; for a composed component the three-way decomposition
    (update-only, container-only, cross) is run for each condition.  No part
    is swept unless every part is within the case ceiling."""
    t = _Compiled(c, b)
    if isinstance(c, ComposedComponent):
        updates = t.select(is_update)
        container = t.select(lambda m: not is_update(m))
        parts = [
            _cp1(t, "CP1-updates", updates, updates),
            _cp1(t, "CP1-container", container, container),
            _cp1(t, "CP1-cross", updates, container),
            _cp2_cube(t, "CP2-updates", updates),
            _cp2_cube(t, "CP2-container", container),
            _cp2_cross(t, "CP2-cross", updates, container),
        ]
    else:
        parts = [_cp1(t, "CP1", t.methods, t.methods),
                 _cp2_cube(t, "CP2", t.methods)]
    return _aggregate("consistency", _run(t, parts))
