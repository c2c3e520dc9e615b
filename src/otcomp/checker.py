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
component once, cuts every part's blocks by site so that every pair they
draw is concurrent, and each CP2 block so that no triple holds two methods
that no state enables together (see `_by_site`), reads every part's case
estimate off them, exactly the cases it sweeps, and raises BoundsExceeded
before any sweep if one is over `max_cases`.  A large check runs its CP2
parts beside its CP1 parts in a forked child, with the same report (see
`_split`).  Compiling interns the component's sorted method and state
enumerations to ints.  Every method id of a check is the component's: a
leaf (see below) interns its own states but no method.  Each method is
validated once, by `kernel.validate_method`, when the component interns
it: an enumerated one, or a result outside the enumeration (an insert one
past the longest state, a longer sequence) when first seen.

One table type, `_Tables`, holds what a check reads over those ids: IT
(method, method) -> method, Do (state, method) -> state and Poss (state,
method) -> bool, and from them each method's enabled states and each
failing triple's realizability.  An entry is filled on first use by one
call of the functions the tables are built with.  A compiled component has
two, each built on first use.  The sweeps read the component's, filled by
its own `it_fn`, `do_fn` and `poss_fn`, and by the kernel's `transform`,
`apply` or `enabled` where `nop` is involved, so the `nop` rules live only
in the kernel; their Do and Poss rows are keyed by a method's constructor
and arguments, one row for the methods that differ only by site, which
Do and Poss never read (see `kernel.Component`).  The replays read the
kernel's, one row per id, filled by the public kernel alone, whose
`enabled` and `apply` they also call on a pair's states.  Nothing
outlives the call.

Joint legality is decided where it is read: by a CP1 sweep over the states
both methods are enabled on, which transforms no pair that no state
enables together; for CP2, first by the cut, which skips as not jointly
legal a triple holding two methods whose Poss rows share no state (see
`_Compiled.apart`); and for a failing triple's realizability over the
states all three are enabled on.  Every failing case
is replayed through the public kernel before it is emitted, which
cross-checks the component's tables: a pair's joint legality and final
states from its state, a triple's transformed methods and its
realizability from the kernel's tables.  A disagreement raises
ReplayMismatch.  A sweep decides each unordered pair once (see `_by_site`):
its mirrored case, counted and replayed too, is read off the same entries.

Every check sweeps the component's leaves and lifts what they find (see
`_lift`), by the same steps for one leaf as for many.  A component is its
own only leaf, unless it is a static product, whose leaves are its factors
that are not products, each sweeping a group of the product's methods under
its own constructor names.  No leaf sweeps `nop`.  A case across leaves or with
`nop` holds by construction, so the lift counts it off the sizes of the
component's blocks and compares nothing: the product's transform is the identity across
leaves, whose methods act on disjoint items of a state, and IT(m, nop) = m,
IT(nop, m) = nop.  The report is a sweep over every product state's, and no
product state is built.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import os
import time
from functools import cached_property, partial, reduce
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .bounds import Bounds, DEFAULT_BOUNDS
from .composition import ComposedComponent, is_update
from .errors import BoundsExceeded, InvalidSpec, ReplayMismatch
from . import kernel
from .kernel import Component
from .values import Method, StateValue, value_to_json


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
        # Jointly legal (non-vacuous) cases decided: compared, or counted
        # where they hold by construction (see _lift).
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
    enabled on, read once Poss row i is filled over all of them, and
    `realizable[i1, i2, i3]`, for i1 <= i2, whether some such state has m1,
    m2 and m3 enabled and both orders of (m1, m2) legal:
    m2 transformed against m1 enabled after m1, and m1 against m2 after m2.
    A result that is its input keeps the input's id.
    `enabled` and `apply` are kept as given, for states t does not intern.
    The fills refer to t and to the tables' dicts, never to this object, so
    clearing t's attributes frees them without a GC pass.

    Where `by_effect` is set, the Do and Poss rows, and `enables`, are keyed
    by a method's constructor and arguments: methods that differ only in
    their issuing site share one row, filled by whichever of them asks
    first, since neither `do_fn` nor `poss_fn` reads the site (see
    `kernel.Component`).  IT rows stay one per id: IT reads sites.
    """

    def __init__(self, t: "_Compiled", enabled, apply, transform, by_effect: bool = False):
        method, state, mid, sid = t.method, t.state, t.mid, t.sid

        def shared(row: Callable[[int], object]) -> Callable[[int], object]:
            # Method i's row, one for every method with its constructor and arguments.
            if not by_effect:
                return row
            rows: dict = {}

            def of(i: int):
                m = method[i]
                key = m.ctor, m.args
                got = rows.get(key)
                if got is None:
                    got = rows[key] = row(i)
                return got
            return of

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

        def realizable(ids: Tuple[int, int, int]) -> bool:
            i1, i2, i3 = ids
            first1, first2, ok1, ok2 = do[i1], do[i2], poss[it[i1][i2]], poss[it[i2][i1]]
            on2, on3 = poss[i2], poss[i3]
            return any(on2[s] and on3[s] and ok1[first1[s]] and ok2[first2[s]]
                       for s in enables[i1])

        self.enabled, self.apply = enabled, apply
        self.it = it = _Lazy(it_row)
        self.do = do = _Lazy(shared(do_row))
        self.poss = poss = _Lazy(shared(poss_row))
        def enabled_on(i: int) -> frozenset:
            # Fill method i's row over every state in one pass, not entry by entry.
            m, row = method[i], poss[i]
            for s in t.states:
                if s not in row:
                    row[s] = bool(enabled(m, state[s]))
            return frozenset(filter(row.__getitem__, t.states))

        self.enables = enables = _Lazy(shared(enabled_on))
        self.realizable = _Lazy(realizable)


class _Compiled:
    """A component as one check call sees it: the given methods, in order,
    and its states interned to ids, each method validated as it is, and two
    `_Tables` over those ids, each built on first use: `tables`, filled from
    the component for the sweeps, and `kernel`, filled by the public kernel
    for the replays.  `json[i]` is the report form of method i, shared by
    every entry that names it.  An enumeration that repeats a value would
    count its cases twice; it raises InvalidSpec.  t, the checked
    component, also has its `leaves` (see `_check`).

    A leaf of t other than t itself, given t and `names` (t's name of each
    constructor it owns -> its own), interns its states but no method: its
    `methods` are t's ids of those it sweeps, its method i is t's under its
    name, and `mid` lifts a method it gives to t's name once, for t to
    intern and validate; `nop`, or one it does not own, it validates first."""

    def __init__(self, c: Component, b: Bounds, methods: list,
                 t: Optional[_Compiled] = None, names: Optional[Dict[str, str]] = None):
        self.c, self.b = c, b
        self.state: List[StateValue] = []
        self._sid: Dict[StateValue, int] = {}
        if t is None:
            self.method: List[Method] = []
            self._mid: Dict[Method, int] = {}
        else:
            up = {inner: ctor for ctor, inner in names.items()}
            self.method = _Lazy(lambda i: (m := t.method[i]).renamed(names.get(m.ctor, m.ctor)))
            self.mid = _Lazy(lambda m: t.mid(m.renamed(up[m.ctor]) if m.ctor in up
                                             else kernel.validate_method(c, m) or m)).__getitem__
        method = self.method
        # What each table is filled by, built on first use: the component's
        # own functions on interned, so validated, methods (a Token has none),
        # and the kernel wherever `nop` is involved; and the public kernel.
        self._fills = {
            "tables": (
                lambda m, st: kernel.enabled(c, m, st) if m.ctor == "nop" else c.poss_fn(m, st),
                lambda m, st: kernel.apply(c, m, st) if m.ctor == "nop" else c.do_fn(m, st),
                lambda m1, m2: (kernel.transform(c, m1, m2)
                                if m1.ctor == "nop" or m2.ctor == "nop" else c.it_fn(m1, m2))),
            "kernel": (partial(kernel.enabled, c), partial(kernel.apply, c),
                       partial(kernel.transform, c))}
        self.json = _Lazy(lambda i: value_to_json(method[i]))
        self.methods = methods if t else self._distinct("method", [self.mid(m) for m in methods])

    @cached_property
    def tables(self) -> _Tables:
        return _Tables(self, *self._fills["tables"], by_effect=True)

    @cached_property
    def kernel(self) -> _Tables:
        return _Tables(self, *self._fills["kernel"])

    @cached_property
    def leaves(self) -> List[_Compiled]:
        """The compiled leaves whose Poss rows `apart` reads: this one."""
        return [self]

    @cached_property
    def apart(self) -> Optional[List[int]]:
        """For each given method, by id, the mask of the given methods that
        no state enables together with it, bit i standing for id i; None
        where there is none.  Read off the leaves' Poss rows, filled over all
        their states unless that is past `max_cases`: two methods of a leaf
        are apart when their enabled states are disjoint, methods of two
        leaves (disjoint items of a state) and `nop` never, and one enabled
        on no state from every method, itself included."""
        fill = sum(len(f.methods) * len(f.states) for f in self.leaves)
        if fill > self.b.max_cases:
            raise BoundsExceeded(
                f"estimated {fill} Poss entries exceeds ceiling {self.b.max_cases}")
        apart, dead = [0] * len(self.methods), 0  # dead: the methods no state enables
        for f in self.leaves:
            by: Dict[frozenset, int] = {}  # enabled states -> the mask of those methods
            for j in f.methods:
                key = f.tables.enables[j]
                by[key] = by.get(key, 0) | 1 << j
            on: Dict[int, int] = {}  # state -> the mask of the methods enabled on it
            for states, mask in by.items():
                for s in states:
                    on[s] = on.get(s, 0) | mask
            mine = reduce(operator.or_, by.values(), 0)
            for states, mask in by.items():
                shared = reduce(operator.or_, map(on.__getitem__, states), 0)
                dead |= 0 if states else mask
                for i in _ids(mask):
                    apart[i] = mine & ~shared
        if dead:
            every = (1 << len(apart)) - 1
            apart = [every if dead >> i & 1 else mask | dead for i, mask in enumerate(apart)]
        return apart if any(apart) else None

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
        return i

    def sid(self, st: StateValue) -> int:
        s = self._sid.get(st)
        if s is None:
            s = self._sid[st] = len(self.state)
            self.state.append(st)
        return s

    def select(self, f: Callable[[Method], bool]) -> List[int]:
        return [i for i in self.methods if f(self.method[i])]


# A part of a check as data: its name, its condition ("CP1" or "CP2"), and the
# blocks of method ids its sweep walks: (m1s, m2s) for CP1, (g1, g2, g3) for
# CP2, each drawing m1 from the first, m2 from the second and so on, in that
# nesting order.  Lists hold ascending ids (methods are interned first, in
# order), so id order is sweep order.  A kept cut block (see `_by_site`) is
# (index of the block it was cut from, its mirror's or None, block).
Blocks = Sequence[Tuple[List[int], ...]]
Cut = List[Tuple[int, Optional[int], Tuple[List[int], ...]]]
Part = Tuple[str, str, Blocks]
# A part with its blocks cut, its examined count and the cases they stand for.
CutPart = Tuple[str, str, Cut, int, int]

_SPLIT_CASES = 200_000  # the case estimate from which a check splits (see `_split`)


def _by_site(t: _Compiled, blocks: Blocks) -> Tuple[Cut, int, int]:
    """The blocks cut so that every case a cut block draws is one its part
    sweeps, of each mirrored pair of cut blocks the first alone; how many
    pairs, or triples, the site rule alone keeps; and how many cases the
    kept blocks stand for.

    Site rule: two methods are concurrent unless one site issues both.  A
    block's first two lists are split by issuing site (None: no site), and
    the combinations of two different sites or of None are kept.

    Exclusion rule, for a CP2 block: no triple holding two methods that no
    state enables together is jointly legal.  Where there are such methods
    (see `_Compiled.apart`), the first two lists are split as well by the
    methods each one is apart from, combinations of two apart are dropped,
    and the third list is cut to the methods apart from neither: one list
    object for each distinct cut, so the blocks that share it share their
    sweep's columns (see `_cp2_sweep`).  A CP1 block is cut by site alone,
    since its sweep decides joint legality state by state.  Lists keep id
    order.

    Mirrors: the case (m2, m1), or (m2, m1, m3), reads the entries of (m1,
    m2), or (m1, m2, m3), left and right swapped.  A block whose two lists
    are one object is its own mirror; else its mirror is the first later
    unclaimed block (x2, x1, ...), which is claimed and not cut.  A block's
    cut at groups (k1, k2) mirrors its mirror's cut at (k2, k1), which has
    the same third list, so it is kept as (origin, mirror's origin or None,
    lists) and stands for both (see `_pairs`)."""
    method = t.method
    apart = t.apart if len(blocks[0]) == 3 else None

    def split(x: List[int]) -> Dict[Tuple[Optional[int], int], List[int]]:
        # By site and by the methods a method is apart from: the relation is
        # symmetric, so a group is apart from all or none of another.
        groups: Dict[Tuple[Optional[int], int], List[int]] = {}
        for i in x:
            groups.setdefault((method[i].site, apart[i] if apart else 0), []).append(i)
        return groups

    thirds: Dict[int, List[int]] = {}  # mask of a third list's ids -> the list

    cut: Cut = []
    examined = cases = 0
    claimed = set()
    for b, (x1, x2, *rest) in enumerate(blocks):
        if b in claimed:
            continue
        mirror = b if x1 is x2 else next((k for k in range(b + 1, len(blocks)) if k not in claimed
                                          and blocks[k] == (x2, x1, *rest)), None)
        claimed.add(mirror)
        by1 = split(x1)
        by2 = by1 if x2 is x1 else split(x2)
        n3 = len(rest[0]) if rest else 1
        if apart:
            m3 = reduce(operator.or_, (1 << i for i in rest[0]), 0)
            thirds.setdefault(m3, rest[0])  # an uncut list is kept as it is
        for k, ((s1, c1), y1) in enumerate(by1.items()):
            # Of a block that is its own mirror, (k2, k1) is the mirror of (k1, k2).
            for (s2, c2), y2 in itertools.islice(by2.items(), k if by2 is by1 else 0, None):
                if s1 == s2 and s1 is not None:
                    continue
                stands = 1 + (mirror is not None and y1 is not y2)
                examined += len(y1) * len(y2) * n3 * stands
                if c1 >> y2[0] & 1:  # no state enables the two together
                    continue
                block: tuple = (y1, y2)
                if rest:
                    y3 = rest[0]
                    if apart:
                        cut3 = m3 & ~(c1 | c2)
                        y3 = thirds.get(cut3)
                        if y3 is None:
                            y3 = thirds[cut3] = _ids(cut3)
                    block += (y3,)
                cut.append((b, mirror, block))
                cases += math.prod(map(len, block)) * stands
    return cut, examined, cases


def _ids(mask: int) -> List[int]:
    """The ids whose bits are set in the mask, ascending."""
    bits = bin(mask)[:1:-1].encode().translate(_BITS)  # bit i as byte i, 0 or 1
    return list(itertools.compress(range(len(bits)), bits))


_BITS = bytes.maketrans(b"01", b"\0\1")


def _pairs(mirror: Optional[int], x1: List[int], x2: List[int]) -> List[Tuple[int, int, bool]]:
    """A kept block's pairs (m1, m2, twice) in sweep order (see `_by_site`):
    twice when (m2, m1) is a case of its mirror, read off (m1, m2)'s
    entries, left and right swapped.  A block whose two lists are one
    object walks m2 from m1 on."""
    if x1 is x2:
        return [(i1, i2, i1 != i2) for k, i1 in enumerate(x1) for i2 in x1[k:]]
    return [(i1, i2, mirror is not None) for i1 in x1 for i2 in x2]


def _cp1_sweep(t: _Compiled, blocks: Cut) -> Tuple[int, list]:
    """The pair condition over the kept blocks' pairs and their mirrors'
    (see `_pairs`), read off the component's tables: the cases decided, and
    the failing cases (state, m1, m2, left, right), which `_lift` sorts.  A
    state is a case when both methods are enabled on it and each, once
    transformed, is enabled after the other."""
    it, do, poss, enables = t.tables.it, t.tables.do, t.tables.poss, t.tables.enables
    cases = 0
    failing: List[Tuple[int, int, int, int, int]] = []
    for _, mirror, (x1, x2) in blocks:
        for i1, i2, twice in _pairs(mirror, x1, x2):
            both = enables[i1] & enables[i2]
            if not both:  # no state enables them together: transform neither
                continue
            t21, t12 = it[i1][i2], it[i2][i1]
            first1, then1, ok1 = do[i1], do[t21], poss[t21]
            first2, then2, ok2 = do[i2], do[t12], poss[t12]
            joint = 0
            for s in both:
                s1, s2 = first1[s], first2[s]
                if ok1[s1] and ok2[s2]:
                    joint += 1
                    left, right = then1[s1], then2[s2]
                    if left != right:
                        failing.append((s, i1, i2, left, right))
                        if twice:
                            failing.append((s, i2, i1, right, left))
            cases += joint * (1 + twice)
    return cases, failing


def _cp2_sweep(t: _Compiled, blocks: Cut) -> list:
    """The triple condition over the kept blocks' triples and their
    mirrors' (see `_pairs`), read off the component's tables: the failing
    triples (m1, m2, m3, left, right, realizable) in sweep order: those of
    each block the cut blocks came from in turn, in id order, a mirrored
    triple credited to its mirror's.  Every triple is a case, so `_lift`
    counts them."""
    it = t.tables.it
    found: List[Tuple[int, int, int, int, int, int]] = []  # (origin, m1, m2, m3, left, right)
    vias: Dict[int, _Lazy] = {}  # id of a third list -> its via, shared by the blocks
    for b, mirror, (x1, x2, g3) in blocks:
        if not (x1 and x2 and g3):  # such as a cut block of `nop` alone
            continue
        # via[i] takes the IT column of a method m to the tuple, over m3 in
        # g3, of m3 transformed against method i and then against m.
        via = vias.get(id(g3))
        if via is None:
            via = vias[id(g3)] = _Lazy(lambda i, g3=g3: _values_at([it[i][i3] for i3 in g3]))
        for i1, i2, twice in _pairs(mirror, x1, x2):
            lefts = via[i1](it[it[i1][i2]])
            rights = via[i2](it[it[i2][i1]])
            if lefts != rights:
                for i3, left, right in zip(g3, lefts, rights):
                    if left != right:
                        found.append((b, i1, i2, i3, left, right))
                        if twice:
                            found.append((mirror, i2, i1, i3, right, left))
    # (m1, m2, m3) and (m2, m1, m3) are realizable on the same states: read one.
    realizable = t.tables.realizable
    return [(i1, i2, i3, left, right, realizable[min(i1, i2), max(i1, i2), i3])
            for _, i1, i2, i3, left, right in sorted(found)]


def _values_at(keys: List[int]) -> Callable[[dict], tuple]:
    """A function giving the tuple of a dict's values at the keys."""
    if len(keys) > 1:
        return operator.itemgetter(*keys)
    return lambda d: tuple(d[k] for k in keys)


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


def _weighed(leaves: List[_Compiled], x: List[int], ys: Sequence[List[int]],
             others: List[int], n: int) -> List[int]:
    """For each leaf, then for all of them, the sum of x's methods weighed
    by the states of t they are enabled on, `ys[k]` being x cut to leaf k's
    methods: leaf k's enabled states of a method times `others[k]`, and n
    for a method no leaf sweeps (`nop`)."""
    own = [sum(len(f.tables.enables[j]) for j in y) * m for f, y, m in zip(leaves, ys, others)]
    return own + [sum(own) + (len(x) - sum(map(len, ys))) * n]


def _lift(t: _Compiled, leaves: List[_Compiled], part: CutPart, cut: List[Cut],
          found: list) -> CheckReport:
    """The part's report on t, whose blocks are cut (see `_by_site`), from
    what each leaf k `found` sweeping `cut[k]`, those blocks cut to its
    methods: for CP1 its cases and failing cases, for CP2 its failing
    triples.  The report examines what the site rule alone keeps: for CP1
    its pairs times t's states, for CP2 its triples, so that a CP2 part's
    `examined` less its `cases` is the triples the exclusion rule skipped as
    not jointly legal.

    Every count is read off t's kept blocks, for one leaf as for many: a
    CP2 part's cases are the triples they stand for (see `_by_site`), and a
    CP1 block's count stands for its mirror's too.  A leaf's CP1 case
    holds on every combination of the other leaves' states.  A case no leaf
    sweeps holds by construction (see the module docstring), so it is
    counted, not compared, across groups: the leaves, and `nop`, which no
    leaf sweeps (one method on one state).  A pair across groups is jointly
    legal on its methods' enabled states times the other groups' states.
    So, each method weighed by the states of t it is enabled on, the
    product of a block's two weighed sums less each leaf's own, over t's
    state count, are its CP1 cases across groups.

    Every method id is t's, so no entry's is translated.  Each lifted entry
    is replayed through the public kernel on t; a triple's realizability on
    its leaf.  CP1 witnesses are in sweep order, a state of t's id being its
    leaves' ids in turn.  CP2 entries are the leaves' merged by method ids,
    so one leaf's keep block order."""
    name, condition, blocks, examined, cases = part
    if condition == "CP2":
        entries: Dict[bool, List[dict]] = {True: [], False: []}
        if any(found):
            lifted = [[(i1, i2, i3, k, left, right, realizable)
                       for i1, i2, i3, left, right, realizable in failing]
                      for k, failing in enumerate(found)]
            for i1, i2, i3, k, left, right, realizable in heapq.merge(*lifted):
                if realizable != leaves[k].kernel.realizable[min(i1, i2), max(i1, i2), i3]:
                    _mismatch("CP2", [t.method[i] for i in (i1, i2, i3)],
                              f"realizable is {realizable} by the tables")
                realizable = realizable and all(f.states for f in leaves)  # a state of t
                entries[realizable].append(_replay_cp2(t, i1, i2, i3, left, right, realizable))
        return CheckReport(name, _verdict(cases, entries[True]), cases, entries[True],
                           examined=examined, unrealizable=entries[False])

    ns = [len(f.states) for f in leaves]
    n = math.prod(ns)
    others = [math.prod(ns[:k] + ns[k + 1:]) for k in range(len(ns))]
    cases = sum(own_cases * m for (own_cases, _), m in zip(found, others))
    for b, (_, mirror, (x1, x2)) in enumerate(blocks):
        y1, y2 = zip(*(f_blocks[b][2] for f_blocks in cut))  # x1, x2 cut to each leaf
        w1 = _weighed(leaves, x1, y1, others, n)
        w2 = w1 if x2 is x1 else _weighed(leaves, x2, y2, others, n)
        across = (w1[-1] * w2[-1] - sum(map(operator.mul, w1[:-1], w2[:-1]))) // (n or 1)
        cases += across * (1 + (mirror is not None and x1 is not x2))
    lifted = []
    for k, (_, failing) in enumerate(found):
        axes: List[Sequence[int]] = list(map(range, ns))
        for s, i1, i2, left, right in failing:
            axes[k] = (s,)
            lifted += [(ids, i1, i2, k, left, right) for ids in itertools.product(*axes)]
    witnesses = []
    for ids, i1, i2, k, left, right in sorted(lifted):
        items = [f.state[s] for f, s in zip(leaves, ids)]
        st = t.c.assemble(iter(items))
        items[k] = leaves[k].state[left]
        left_st = t.c.assemble(iter(items))
        items[k] = leaves[k].state[right]
        witnesses.append(_replay_cp1(t, st, i1, i2, left_st, t.c.assemble(iter(items))))
    return CheckReport(name, _verdict(cases, witnesses), cases, witnesses,
                       examined=examined * n)


def _check(c: Component, b: Bounds,
           parts_of: Callable[[_Compiled], List[Part]]) -> List[CheckReport]:
    """Compile c once as t, and its leaves (see `Component.leaves`): t
    itself, or each over t's ids of the methods it owns (never `nop`), under
    the leaf's names for their constructors, as `leaves` gives them (see
    `_Compiled`).  Each refusal comes before the work it guards: t's state
    count, past MAX_STATES as a product's flattening; then, part by part,
    its estimate (the cases its blocks, cut once by `_by_site`, stand for,
    `nop` included, times the states for CP1) past `max_cases`, the first
    CP2 cut's Poss rows first (see `_Compiled.apart`).  Then each part
    sweeps every leaf over its cut blocks cut to the leaf's methods, and
    lifts what they found (see `_lift`).  Refused or not, free the tables,
    whose fill functions refer back to their compiled component, without a
    GC pass."""
    t = _Compiled(c, b, c.enum_methods(b))
    leaves = [t]
    try:
        named = c.leaves()
        mine = [[i for i in t.methods if t.method[i].ctor in names] for _, names in named]
        t.leaves = leaves = [t if f is c else _Compiled(f, b, ids, t, names)
                             for (f, names), ids in zip(named, mine)]
        states = c.count_states(len(f.states) for f in leaves)
        parts: List[CutPart] = []
        total = 0
        for name, condition, blocks in parts_of(t):
            parts.append((name, condition, *_by_site(t, blocks)))
            estimate = parts[-1][4] * (states if condition == "CP1" else 1)
            if estimate > b.max_cases:
                raise BoundsExceeded(
                    f"estimated {estimate} cases exceeds ceiling {b.max_cases}")
            total += estimate
        sweep = {"CP1": _cp1_sweep, "CP2": _cp2_sweep}

        def run(part: CutPart) -> CheckReport:
            t0 = time.perf_counter()
            cut = [_to_leaf(ids, part[2]) for ids in mine]
            found = [sweep[part[1]](f, f_blocks) for f, f_blocks in zip(leaves, cut)]
            rep = _lift(t, leaves, part, cut, found)
            rep.elapsed_ms = (time.perf_counter() - t0) * 1000.0
            return rep

        kinds = [part[1] for part in parts]  # CP1 parts first, then CP2 parts
        if (total >= _SPLIT_CASES and kinds[0] < kinds[-1] and kinds == sorted(kinds)
                and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1):
            return _split(run, parts)
        return [run(part) for part in parts]
    finally:
        for compiled in (t, *leaves):
            vars(compiled).clear()


def _to_leaf(ids: List[int], blocks: Cut) -> Cut:
    """The blocks cut to a leaf's methods, `ids`: a list the blocks share
    gives one list they share."""
    mine = set(ids)
    lists: Dict[int, List[int]] = {}  # id of t's list -> the leaf's
    for _, _, block in blocks:
        for x in block:
            if id(x) not in lists:
                lists[id(x)] = [i for i in x if i in mine]
    return [(o, mirror, tuple(lists[id(x)] for x in block)) for o, mirror, block in blocks]


def _split(run: Callable[[CutPart], CheckReport], parts: List[CutPart]) -> List[CheckReport]:
    """`run` over the parts: the CP1 ones, which come first, here and the CP2
    ones in a forked child that pickles their reports back over a pipe.  On
    two vCPUs, `string[cchar]` checks ran 25 % faster split at 1.47 M
    estimated cases; at 354,017 and 91,728 the gain was within the host's
    noise (medians of 12 alternations).  An exception here is raised once
    the child is killed and reaped.  The child leaves by `os._exit`: it
    flushes nothing, and sends nothing if it raised.  Where it sent nothing,
    or none could be forked, the CP2 parts run here after the CP1 parts, as
    in a serial check: a split check returns or raises what a serial one
    does."""
    import pickle
    import signal
    cp2 = [part for part in parts if part[1] == "CP2"]
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return [run(part) for part in parts]
    if pid == 0:
        try:
            got = [run(part) for part in cp2]
            with open(w, "wb") as out:
                pickle.dump(got, out, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(w)
    try:
        with open(r, "rb") as pipe:
            mine = [run(part) for part in parts if part[1] == "CP1"]
            sent = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
    return mine + (pickle.loads(sent) if sent else [run(part) for part in cp2])


def check_cp1(c: Component, b: Bounds = DEFAULT_BOUNDS) -> CheckReport:
    """Pair condition over every enumerated state and method pair."""
    return _check(c, b, lambda t: [("CP1", "CP1", [(t.methods, t.methods)])])[0]


def check_cp2(c: Component, b: Bounds = DEFAULT_BOUNDS) -> CheckReport:
    """Triple condition over every enumerated method triple, cut by the
    Poss rows (see `_Compiled.apart`)."""
    return _check(c, b, lambda t: [("CP2", "CP2", [(t.methods,) * 3])])[0]


def _cross(g1: List[int], g2: List[int], n: int) -> Blocks:
    """The blocks of n lists drawing from the two groups in every combination
    but all from one: for CP1 (g1, g2) and its mirror, for CP2 six blocks."""
    groups = (g1, g2)
    return [tuple(groups[k] for k in ks)
            for ks in itertools.product((0, 1), repeat=n) if len(set(ks)) > 1]


def _aggregate(name: str, t0: float, parts: List[CheckReport]) -> CheckReport:
    """The parts' reports as one, timed as a whole from t0: their entries in
    part order, each tagged with its part's name, and the worst of their
    verdicts: fail, then vacuous, then pass."""
    witnesses = [{**w, "part": p.property} for p in parts for w in p.witnesses]
    unrealizable = [{**w, "part": p.property} for p in parts for w in p.unrealizable]
    verdict = min((p.verdict for p in parts), key=("fail", "vacuous", "pass").index)
    return CheckReport(name, verdict, sum(p.cases for p in parts), witnesses,
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
        ("CP1-cross", "CP1", _cross(updates, container, 2)),
        ("CP2-updates", "CP2", [(updates,) * 3]),
        ("CP2-container", "CP2", [(container,) * 3]),
        ("CP2-cross", "CP2", _cross(updates, container, 3)),
    ]


def check_consistency(c: Component, b: Bounds = DEFAULT_BOUNDS) -> CheckReport:
    """Both conditions; for a composed component the three-way decomposition
    (update-only, container-only, cross) is run for each condition.  No part
    is swept unless every part is within the case ceiling."""
    return _aggregate("consistency", time.perf_counter(), _check(c, b, _consistency_parts))
