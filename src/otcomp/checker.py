"""Exhaustive bounded verification of the convergence conditions.

The pair condition (cp1) asserts that two concurrent methods, each transformed
to include the other's effect, lead to the same state from every state where
both orders are legal.  The triple condition (cp2) asserts that transforming a
third method along either of the two equivalent sequences yields the same
method.  Restricted variants quantify over given disjoint method subsets, and
`check_consistency` runs the full decomposition for composed components.

Every reported witness is replayed before it is emitted.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional

from .bounds import Bounds, DEFAULT_BOUNDS
from .composition import ComposedComponent, is_update
from .errors import BoundsExceeded, NotDisjoint
from . import kernel
from .kernel import Component
from .values import Method, value_to_json

MethodFilter = Callable[[Method], bool]


@dataclass
class CheckReport:
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
            out["parts"] = [p.to_json(mask_elapsed) for p in self.parts]
        return out


def _verdict(cases: int, witnesses: list) -> str:
    if witnesses:
        return "fail"
    return "pass" if cases > 0 else "vacuous"


def _concurrent_ok(c: Component, m1: Method, m2: Method) -> bool:
    # Distinct issuers are assumed for concurrency on site-aware components.
    if not c.site_aware or m1.site is None or m2.site is None:
        return True
    return m1.site != m2.site


def _guard_cases(estimate: int, b: Bounds) -> None:
    if estimate > b.max_cases:
        raise BoundsExceeded(
            f"estimated {estimate} cases exceeds ceiling {b.max_cases}")


def _pair_seqs(c: Component, m1: Method, m2: Method):
    return ([m1, kernel.transform(c, m2, m1)],
            [m2, kernel.transform(c, m1, m2)])


def _cp1_sweep(c: Component, b: Bounds, name: str,
               f1: Optional[MethodFilter], f2: Optional[MethodFilter]) -> CheckReport:
    t0 = time.perf_counter()
    methods = c.enum_methods(b)
    m1s = [m for m in methods if f1 is None or f1(m)]
    m2s = [m for m in methods if f2 is None or f2(m)]
    states = c.enum_states(b)
    _guard_cases(len(states) * len(m1s) * len(m2s), b)

    cases = examined = 0
    witnesses: List[dict] = []
    for st in states:
        for m1 in m1s:
            for m2 in m2s:
                if not _concurrent_ok(c, m1, m2):
                    continue
                examined += 1
                seq1, seq2 = _pair_seqs(c, m1, m2)
                if not (kernel.legal(c, seq1, st) and kernel.legal(c, seq2, st)):
                    continue
                cases += 1
                left = kernel.apply_seq(c, seq1, st)
                right = kernel.apply_seq(c, seq2, st)
                if left != right:
                    _replay_cp1(c, st, m1, m2, left, right)
                    witnesses.append({
                        "state": value_to_json(st),
                        "methods": [value_to_json(m1), value_to_json(m2)],
                        "left": value_to_json(left),
                        "right": value_to_json(right),
                    })
    return CheckReport(name, _verdict(cases, witnesses), cases, witnesses,
                       (time.perf_counter() - t0) * 1000.0, examined)


def _replay_cp1(c, st, m1, m2, left, right) -> None:
    # Witness soundness: re-derive both final states independently.
    seq1, seq2 = _pair_seqs(c, m1, m2)
    assert kernel.apply_seq(c, seq1, st) == left
    assert kernel.apply_seq(c, seq2, st) == right
    assert left != right


def _cp2_paths(c: Component, m1: Method, m2: Method, m3: Method):
    seq1, seq2 = _pair_seqs(c, m1, m2)
    return (kernel.transform_seq(c, m3, seq1),
            kernel.transform_seq(c, m3, seq2))


def _cp2_realizable(c: Component, b: Bounds, m1, m2, m3) -> bool:
    seq1, seq2 = _pair_seqs(c, m1, m2)
    for st in c.enum_states(b):
        if (kernel.legal(c, seq1, st) and kernel.legal(c, seq2, st)
                and kernel.enabled(c, m3, st)):
            return True
    return False


def _cp2_sweep(c: Component, b: Bounds, name: str,
               triples: Iterable[tuple]) -> CheckReport:
    t0 = time.perf_counter()
    cases = 0
    witnesses: List[dict] = []
    unrealizable: List[dict] = []
    for m1, m2, m3 in triples:
        if not _concurrent_ok(c, m1, m2):
            continue
        cases += 1
        left, right = _cp2_paths(c, m1, m2, m3)
        if left != right:
            l2, r2 = _cp2_paths(c, m1, m2, m3)  # replay
            assert (l2, r2) == (left, right) and l2 != r2
            entry = {
                "state": None,
                "methods": [value_to_json(m1), value_to_json(m2), value_to_json(m3)],
                "left": value_to_json(left),
                "right": value_to_json(right),
            }
            if _cp2_realizable(c, b, m1, m2, m3):
                witnesses.append({**entry, "realizable": True})
            else:
                unrealizable.append({**entry, "realizable": False})
    return CheckReport(name, _verdict(cases, witnesses), cases, witnesses,
                       (time.perf_counter() - t0) * 1000.0, cases,
                       unrealizable=unrealizable)


def check_cp1(c: Component, b: Bounds = DEFAULT_BOUNDS) -> CheckReport:
    """Pair condition over every enumerated state and method pair."""
    return _cp1_sweep(c, b, "CP1", None, None)


def check_cp2(c: Component, b: Bounds = DEFAULT_BOUNDS) -> CheckReport:
    """Triple condition over every enumerated method triple (state-free)."""
    methods = c.enum_methods(b)
    _guard_cases(len(methods) ** 3, b)
    return _cp2_sweep(c, b, "CP2",
                      itertools.product(methods, methods, methods))


def _split(c: Component, b: Bounds, sub1, sub2):
    methods = c.enum_methods(b)
    f1 = _as_filter(sub1)
    f2 = _as_filter(sub2)
    g1 = [m for m in methods if f1(m)]
    g2 = [m for m in methods if f2(m)]
    overlap = set(g1) & set(g2)
    if overlap:
        raise NotDisjoint(f"method subsets overlap: {sorted(m.ctor for m in overlap)}")
    return g1, g2, f1, f2


def _as_filter(sub) -> MethodFilter:
    if callable(sub):
        return sub
    frozen = set(sub)
    return lambda m: m in frozen


def check_cp1_restricted(c: Component, sub1, sub2,
                         b: Bounds = DEFAULT_BOUNDS) -> CheckReport:
    """Pair condition over cross pairs only: one method from each subset."""
    _g1, _g2, f1, f2 = _split(c, b, sub1, sub2)
    return _cp1_sweep(c, b, "CP1-restricted", f1, f2)


def check_cp2_restricted(c: Component, sub1, sub2,
                         b: Bounds = DEFAULT_BOUNDS) -> CheckReport:
    """Triple condition with (m1, m2, m3) drawn from the two subsets in every
    combination except all three from the same one."""
    g1, g2, _f1, _f2 = _split(c, b, sub1, sub2)
    groups = {1: g1, 2: g2}
    _guard_cases((len(g1) + len(g2)) ** 3, b)

    def triples():
        for i, j, k in itertools.product((1, 2), repeat=3):
            if i == j == k:
                continue
            yield from itertools.product(groups[i], groups[j], groups[k])

    return _cp2_sweep(c, b, "CP2-restricted", triples())


def _aggregate(name: str, parts: List[CheckReport]) -> CheckReport:
    witnesses = []
    unrealizable = []
    for p in parts:
        for w in p.witnesses:
            witnesses.append({**w, "part": p.property})
        for w in p.unrealizable:
            unrealizable.append({**w, "part": p.property})
    cases = sum(p.cases for p in parts)
    verdict = "fail" if any(p.verdict == "fail" for p in parts) else \
        ("pass" if cases > 0 else "vacuous")
    return CheckReport(name, verdict, cases, witnesses,
                       sum(p.elapsed_ms for p in parts),
                       sum(p.examined for p in parts), parts,
                       unrealizable=unrealizable)


def check_consistency(c: Component, b: Bounds = DEFAULT_BOUNDS) -> CheckReport:
    """Both conditions; for a composed component the three-way decomposition
    (update-only, container-only, cross) is run for each condition."""
    if isinstance(c, ComposedComponent):
        updates = is_update
        container = lambda m: not is_update(m)
        parts = [
            _cp1_sweep(c, b, "CP1-updates", updates, updates),
            _cp1_sweep(c, b, "CP1-container", container, container),
            _renamed(check_cp1_restricted(c, updates, container, b), "CP1-cross"),
            _cp2_subset(c, b, "CP2-updates", updates),
            _cp2_subset(c, b, "CP2-container", container),
            _renamed(check_cp2_restricted(c, updates, container, b), "CP2-cross"),
        ]
    else:
        parts = [check_cp1(c, b), check_cp2(c, b)]
    return _aggregate("consistency", parts)


def _cp2_subset(c: Component, b: Bounds, name: str, f: MethodFilter) -> CheckReport:
    group = [m for m in c.enum_methods(b) if f(m)]
    _guard_cases(len(group) ** 3, b)
    return _cp2_sweep(c, b, name, itertools.product(group, group, group))


def _renamed(rep: CheckReport, name: str) -> CheckReport:
    rep.property = name
    return rep
