"""Correctness oracle for the benchmark's operations.

Every check is judged by replaying its emitted JSON through the public kernel
API, never against pinned counts: a later change may legitimately change how
many cases or witnesses a sweep produces (for example by restricting CP2 to
mutually concurrent triples), but it may not emit a witness the kernel does
not reproduce or a verdict its witnesses do not justify.

Each function returns a list of problems; an empty list means the operation
passed.
"""

from __future__ import annotations

import itertools

from otcomp import kernel
from otcomp.values import value_from_json


def _verdict_problems(rep: dict) -> list:
    name = rep.get("property", "?")
    witnesses = rep.get("witnesses", [])
    if witnesses and rep["verdict"] != "fail":
        return [f"{name}: {len(witnesses)} witnesses but verdict {rep['verdict']!r}"]
    if not witnesses and rep["verdict"] not in ("pass", "vacuous"):
        return [f"{name}: no witnesses but verdict {rep['verdict']!r}"]
    if rep["verdict"] == "pass" and rep["cases"] <= 0:
        return [f"{name}: verdict pass over {rep['cases']} cases"]
    return []


def _concurrent(c, m1, m2) -> bool:
    if not c.site_aware or m1.site is None or m2.site is None:
        return True
    return m1.site != m2.site


def _replay(c, w: dict, realizable: bool, states) -> list:
    """Re-derive one CP1 or CP2 witness through the kernel."""
    methods = [value_from_json(m) for m in w["methods"]]
    left, right = value_from_json(w["left"]), value_from_json(w["right"])
    m1, m2 = methods[0], methods[1]
    if not _concurrent(c, m1, m2):
        return [f"witness pairs same-site methods {w['methods'][:2]}"]
    seq1 = [m1, kernel.transform(c, m2, m1)]
    seq2 = [m2, kernel.transform(c, m1, m2)]
    if w["state"] is not None:
        st = value_from_json(w["state"])
        if len(methods) != 2:
            return ["CP1 witness without exactly two methods"]
        if not (kernel.legal(c, seq1, st) and kernel.legal(c, seq2, st)):
            return [f"CP1 witness not jointly legal: {w['methods']}"]
        got = (kernel.apply_seq(c, seq1, st), kernel.apply_seq(c, seq2, st))
    else:
        if len(methods) != 3:
            return ["CP2 witness without exactly three methods"]
        m3 = methods[2]
        got = (kernel.transform_seq(c, m3, seq1), kernel.transform_seq(c, m3, seq2))
        found = any(kernel.legal(c, seq1, st) and kernel.legal(c, seq2, st)
                    and kernel.enabled(c, m3, st) for st in states())
        if w.get("realizable") is not realizable or found != realizable:
            return [f"CP2 witness realizable={w.get('realizable')} listed as "
                    f"{realizable}, state scan found {found}: {w['methods']}"]
    if got != (left, right):
        return [f"witness does not replay: {w['methods']}"]
    if left == right:
        return [f"witness sides agree: {w['methods']}"]
    return []


def check_report_problems(c, b, data: dict) -> list:
    """Judge an emitted consistency report against the kernel."""
    problems = _verdict_problems(data)
    parts = data.get("parts", [])
    for p in parts:
        problems += _verdict_problems(p)
    if parts:
        for key in ("witnesses", "unrealizable"):
            if len(data.get(key, [])) != sum(len(p.get(key, [])) for p in parts):
                problems.append(f"aggregate {key} differ from the parts'")
        if data["cases"] != sum(p["cases"] for p in parts):
            problems.append("aggregate cases differ from the parts'")

    cache = []

    def states():
        if not cache:
            cache.append(c.enum_states(b))
        return cache[0]

    for realizable, key in ((True, "witnesses"), (False, "unrealizable")):
        for w in data.get(key, []):
            try:
                problems += _replay(c, w, realizable, states)
            except Exception as exc:  # a witness that cannot be replayed is a failure
                problems.append(f"witness replay raised {exc!r}")
    return problems


def scenario_problems(c, base, ops, rep, data: dict) -> list:
    """Judge a simulator run: the finals must cover every delivery order and
    agree with the reported verdict; two-op runs must also match the pair
    identity (CP1) evaluated directly through the kernel."""
    n = len(ops)
    problems = []
    orders = [tuple(o) for o, _ in rep.finals]
    if sorted(orders) != sorted(itertools.permutations(range(n))):
        problems.append(f"orders {orders} are not the {n}! permutations")
    states = [st for _, st in rep.finals]
    converged = all(st == states[0] for st in states)
    if rep.converged != converged or (rep.diverging is None) != converged:
        problems.append("converged flag disagrees with the finals")
    if data["converged"] != rep.converged or len(data["finals"]) != len(rep.finals):
        problems.append("emitted report disagrees with the run")
    if n == 2:
        o1, o2 = ops[0][1], ops[1][1]
        seq1 = [o1, kernel.transform(c, o2, o1)]
        seq2 = [o2, kernel.transform(c, o1, o2)]
        jointly_legal = kernel.legal(c, seq1, base) and kernel.legal(c, seq2, base)
        if rep.fully_legal != jointly_legal:
            problems.append("fully_legal disagrees with joint legality")
        elif jointly_legal:
            want = {(0, 1): kernel.apply_seq(c, seq1, base),
                    (1, 0): kernel.apply_seq(c, seq2, base)}
            if dict(zip(orders, states)) != want:
                problems.append("two-op finals differ from the pair identity")
    return problems
