"""Replicated-sites harness: one batch of mutually concurrent operations from
a common base state, delivered to each site in a different order.

Each delivered operation is transformed against the sequence of operations the
site already executed, then applied.  A transformed operation that is not
enabled at its point of application is skipped and recorded; such runs are
marked partially legal rather than aborted.

Orders that share a prefix share its integration: the orders are walked in
their given sequence, each resuming from the longest prefix it shares with
the one before, so that with every order requested each node of the
delivery-order tree is integrated once.  Where transforms converge, paths
meet again at equal states with equal transformed ops, so a run asks the
kernel each question once, through one memo per run keyed by value, and
equal trace entries are one object.  The JSON form writes each distinct
entry and final state once per call and is the same as if every order had
been integrated on its own.
"""

from __future__ import annotations

import itertools
import json
from collections import _tuplegetter  # namedtuple's field accessor, in C
from typing import Any, List, Optional, Sequence, Tuple, Union

from .errors import ScenarioError
from . import kernel
from .kernel import Component
from .values import (Frozen, Method, StateValue, decode_method, decode_state, display,
                     value_to_json)

MAX_ALL_PERMUTATION_OPS = 6


class Scenario:
    def __init__(self, component, base, ops, delivery="all", use_transform=True):
        self.component: Union[str, Component] = component
        self.base: Any = base                   # raw literal, parsed against the component
        self.ops: List[Tuple[int, Any]] = ops   # (site, raw method literal or Method)
        self.delivery: Union[str, List[List[int]]] = delivery
        self.use_transform: bool = use_transform


class IntegrationTrace(Frozen, tuple):  # a tuple tagged by its class, as values are
    __slots__ = ()
    _fields = ("delivered", "transformed", "applied")
    delivered, transformed, applied = (_tuplegetter(i, None) for i in (1, 2, 3))

    def __new__(cls, delivered: Method, transformed: Method, applied: bool):
        return tuple.__new__(cls, (cls, delivered, transformed, applied))


class RunReport:
    def __init__(self, finals, converged, diverging, traces, fully_legal):
        self.finals: List[Tuple[Tuple[int, ...], StateValue]] = finals
        self.converged: bool = converged
        self.diverging: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = diverging
        self.traces: dict = traces
        self.fully_legal: bool = fully_legal

    def final_state(self) -> StateValue:
        return self.finals[0][1]

    def to_json(self, component: Optional[Component] = None) -> dict:
        """JSON form of the run; states in their display form, which depends
        on the state alone (`component` is accepted but not needed).

        Each distinct trace entry and method object, and each distinct final
        state, is encoded once into a table of JSON forms, so orders sharing
        it share those; the tables live only as long as this call."""
        entries = {id(t): t for trace in self.traces.values() for t in trace}
        methods = {id(m): m for t in entries.values() for m in (t.delivered, t.transformed)}
        methods = {k: value_to_json(m) for k, m in methods.items()}
        entries = {k: {"delivered": methods[id(t.delivered)],
                       "transformed": methods[id(t.transformed)], "applied": t.applied}
                   for k, t in entries.items()}

        # A state may display as None, so its table is filled beforehand.
        shown = {st: display(st) for st in {st for _, st in self.finals}}
        return {
            "converged": self.converged,
            "fully_legal": self.fully_legal,
            "finals": [{"order": list(order), "state": shown[st]}
                       for order, st in self.finals],
            "diverging": [list(o) for o in self.diverging] if self.diverging else None,
            "traces": {",".join(map(str, order)): [entries[id(t)] for t in trace]
                       for order, trace in self.traces.items()},
        }


def run_scenario(s: Scenario, component: Optional[Component] = None) -> RunReport:
    """Integrate under every requested delivery order and compare finals; ops
    need int sites, no two the same, and a method an op carries as an
    argument, at any depth, no site or an int one (ScenarioError otherwise)."""
    c = component if component is not None else s.component
    if isinstance(c, str):
        from .registry import build  # resolved lazily to avoid a cycle
        c = build(c)
    elif not isinstance(c, Component):
        raise ScenarioError(f"component {c!r} is neither a name nor a Component")

    base = decode_state(c, s.base)
    ops = [_on_site(decode_method(c, m), site) for site, m in s.ops]
    bad = [x for (site, _), m in zip(s.ops, ops) for x in (site, m.site) if type(x) is not int]
    carried = [a for m in ops for a in m.args if type(a) is Method]
    for a in carried:  # the list grows by the methods those carry in turn
        carried += [x for x in a.args if type(x) is Method]
    bad += [a.site for a in carried if a.site is not None and type(a.site) is not int]
    if bad:
        raise ScenarioError(f"{bad[0]!r} is not a site")
    if len({m.site for m in ops}) != len(ops):  # a method may name its own site
        raise ScenarioError("sites issuing ops must be pairwise distinct")
    orders = _orders(s.delivery, len(ops))
    if type(s.use_transform) is not bool:
        raise ScenarioError(f"transform {s.use_transform!r} is not a bool")

    finals, traces, fully_legal = _integrate_orders(c, base, ops, orders,
                                                    s.use_transform)
    # Equality is transitive, so the finals agree if each equals the first.
    first_order, first = finals[0]
    diverging = next(((first_order, order) for order, st in finals[1:] if st != first),
                     None)
    return RunReport(finals, diverging is None, diverging, traces, fully_legal)


def _integrate_orders(c: Component, base: StateValue, ops: Sequence[Method],
                      orders: Sequence[Tuple[int, ...]], use_transform: bool):
    """Integrate the ops under each order, in the given sequence, and return
    the finals in that sequence, the trace of each order, and whether every
    delivered op was applied.

    A depth-first walk of the delivery-order tree: level k of the stack holds
    the state after an order's first k deliveries, each op not yet delivered
    transformed against the ops applied so far, and the trace.  An order
    resumes from the longest prefix it shares with the order before it, and
    applying an op transforms only the ops still to come against it.

    Paths that differ may still ask equal questions, so each distinct one is
    asked of the public kernel once, validation included, and its answer
    kept for this call only.  A malformed op raises as it would without the
    memo, which holds only answers the kernel gave without raising.  Paths
    that meet record equal trace entries, and each is made once, so the
    orders share it.
    """
    after: dict = {}  # (op, state) -> (enabled, state after the op, if it is)
    moved: dict = {}  # (op, against) -> the op transformed against `against`
    entries: dict = {}  # (delivered index, transformed op, applied) -> trace entry
    stack = [(base, dict(enumerate(ops)), [])]
    finals: List[Tuple[Tuple[int, ...], StateValue]] = []
    traces: dict = {}
    fully_legal = True
    previous: Tuple[int, ...] = ()
    for order in orders:
        k = 0
        while k < len(previous) and previous[k] == order[k]:
            k += 1
        del stack[k + 1:]
        for idx in order[k:]:
            st, pending, trace = stack[-1]
            t = pending[idx]
            answer = after.get((t, st))
            if answer is None:
                ok = kernel.enabled(c, t, st)
                answer = after[t, st] = (ok, kernel.apply(c, t, st) if ok else st)
            ok, st = answer
            # A transformed op is a non-empty tuple, never false.
            rest = {j: moved.get((m, t)) or moved.setdefault((m, t), kernel.transform(c, m, t))
                    if ok and use_transform else m for j, m in pending.items() if j != idx}
            fully_legal = fully_legal and ok
            e = entries.get((idx, t, ok)) or entries.setdefault(
                (idx, t, ok), IntegrationTrace(ops[idx], t, ok))
            stack.append((st, rest, trace + [e]))
        st, _, trace = stack[-1]
        finals.append((order, st))
        traces[order] = trace
        previous = order
    return finals, traces, fully_legal


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
    """Read a scenario from a path or a dict."""
    if isinstance(source, dict):
        data = source
    else:
        with open(source) as f:
            data = json.load(f)
    try:
        return Scenario(
            component=data["component"],
            base=data["base"],
            ops=[(op["site"], op["method"]) for op in data["ops"]],
            delivery=data.get("delivery", "all"),
            use_transform=data.get("transform", True),
        )
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc


def _on_site(m: Method, site: int) -> Method:
    """The method as issued by `site`, unless it names its own site."""
    return m if m.site is not None else Method(m.ctor, m.args, site)
