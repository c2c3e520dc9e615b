"""Replicated-sites harness: one batch of mutually concurrent operations from
a common base state, delivered to each site in a different order.

Each delivered operation is transformed against the sequence of operations the
site already executed, then applied.  A transformed operation that is not
enabled at its point of application is skipped and recorded; such runs are
marked partially legal rather than aborted.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple, Union

from .errors import ScenarioError
from . import kernel
from .kernel import Component
from .values import (Method, StateValue, decode_method, decode_state, display,
                     value_to_json)

MAX_ALL_PERMUTATION_OPS = 6


@dataclass
class Scenario:
    component: Union[str, Component]
    base: Any                       # raw literal, parsed against the component
    ops: List[Tuple[int, Any]]      # (site, raw method literal or Method)
    delivery: Union[str, List[List[int]]] = "all"
    use_transform: bool = True

    def __post_init__(self):
        sites = [s for s, _ in self.ops]
        if len(set(sites)) != len(sites):
            raise ScenarioError("sites issuing ops must be pairwise distinct")


@dataclass
class IntegrationTrace:
    delivered: Method
    transformed: Method
    applied: bool


@dataclass
class RunReport:
    finals: List[Tuple[Tuple[int, ...], StateValue]]
    converged: bool
    diverging: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]
    traces: dict
    fully_legal: bool

    def final_state(self) -> StateValue:
        return self.finals[0][1]

    def to_json(self, component: Optional[Component] = None) -> dict:
        """JSON form of the run; states in their display form, which depends
        on the state alone (`component` is accepted but not needed)."""
        return {
            "converged": self.converged,
            "fully_legal": self.fully_legal,
            "finals": [{"order": list(order), "state": display(st)}
                       for order, st in self.finals],
            "diverging": [list(o) for o in self.diverging] if self.diverging else None,
            "traces": {",".join(map(str, order)): [
                {"delivered": value_to_json(t.delivered),
                 "transformed": value_to_json(t.transformed),
                 "applied": t.applied}
                for t in trace] for order, trace in self.traces.items()},
        }


def integrate(c: Component, base: StateValue, ops: Sequence[Method],
              order: Sequence[int], use_transform: bool = True
              ) -> Tuple[StateValue, List[IntegrationTrace]]:
    """Deliver the ops in the given order, transforming each against the
    already-executed (transformed) ones before applying it."""
    st = base
    executed: List[Method] = []
    trace: List[IntegrationTrace] = []
    for idx in order:
        op = ops[idx]
        t = kernel.transform_seq(c, op, executed) if use_transform else op
        ok = kernel.enabled(c, t, st)
        if ok:
            st = kernel.apply(c, t, st)
            executed.append(t)
        trace.append(IntegrationTrace(op, t, ok))
    return st, trace


def run_scenario(s: Scenario, component: Optional[Component] = None) -> RunReport:
    """Integrate under every requested delivery order and compare finals."""
    c = component if component is not None else s.component
    if not isinstance(c, Component):
        from .registry import build  # resolved lazily to avoid a cycle
        c = build(c)

    base = decode_state(c, s.base)
    ops = [_on_site(decode_method(c, m), site) for site, m in s.ops]
    orders = _orders(s.delivery, len(ops))
    if type(s.use_transform) is not bool:
        raise ScenarioError(f"transform {s.use_transform!r} is not a bool")

    finals: List[Tuple[Tuple[int, ...], StateValue]] = []
    traces: dict = {}
    fully_legal = True
    for order in orders:
        st, trace = integrate(c, base, ops, order, s.use_transform)
        finals.append((order, st))
        traces[order] = trace
        fully_legal = fully_legal and all(t.applied for t in trace)

    diverging = None
    for (o1, s1), (o2, s2) in itertools.combinations(finals, 2):
        if s1 != s2:
            diverging = (o1, o2)
            break
    return RunReport(finals, diverging is None, diverging, traces, fully_legal)


def _orders(delivery, n: int) -> List[Tuple[int, ...]]:
    """Every order of the n ops for "all", else the listed permutations of
    their indices; no order at all would make any run converge."""
    if delivery == "all":
        if n > MAX_ALL_PERMUTATION_OPS:
            raise ScenarioError(f"{n} ops need {n}! orders; pass explicit permutations")
        return list(itertools.permutations(range(n)))
    if not (isinstance(delivery, (list, tuple)) and delivery):
        raise ScenarioError(f"delivery {delivery!r} is neither 'all' nor a non-empty list")
    for p in delivery:
        if not (isinstance(p, (list, tuple)) and all(type(i) is int for i in p)
                and sorted(p) == list(range(n))):
            raise ScenarioError(f"bad permutation {p} for {n} ops")
    return [tuple(p) for p in delivery]


def load_scenario(source) -> Scenario:
    """Read a scenario from a path, JSON text, or dict."""
    if isinstance(source, dict):
        data = source
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            data = json.loads(text)
        else:
            with open(text) as f:
                data = json.load(f)
    try:
        ops = [(op["site"], op["method"]) for op in data["ops"]]
        for site, _ in ops:
            if type(site) is not int:
                raise ScenarioError(f"{site!r} is not a site")
        return Scenario(
            component=data["component"],
            base=data["base"],
            ops=ops,
            delivery=data.get("delivery", "all"),
            use_transform=data.get("transform", True),
        )
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc


def _on_site(m: Method, site: int) -> Method:
    """The method as issued by `site`, unless it names its own site."""
    return m if m.site is not None else Method(m.ctor, m.args, site)
