"""The benchmark's correctness gate accepts the checker's reports and the
simulator's runs.

`bench/gate.py` judges every benchmark check by replaying its emitted JSON
through the public kernel, and by requiring a report's parts to add up to
its aggregate; it judges every simulated scenario against its finals and,
for two ops, against the pair identity.  Running it here makes a change that
the gate rejects fail the tests, instead of failing every benchmark
operation.
"""

import copy
import importlib
import json
from pathlib import Path

import pytest

from otcomp.bounds import DEFAULT_BOUNDS
from otcomp.checker import check_consistency
from otcomp.registry import build
from otcomp.simulator import Scenario, run_scenario

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def gate(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("gate")


@pytest.mark.parametrize("expr, overrides", [("string", {}),
                                             ("set-literal", {"universe": 1}),
                                             ("set-guarded[cchar]", {}),
                                             ("cchar (+) cnat (+) ccolor", {}),
                                             ("set-literal (+) cnat", {"universe": 1}),
                                             ("string (+) cnat", {})])
def test_gate_finds_no_problem_in_a_consistency_report(gate, expr, overrides):
    b = DEFAULT_BOUNDS.with_(**overrides)
    c = build(expr, b)
    data = json.loads(json.dumps(check_consistency(c, b).to_json()))
    assert gate.check_report_problems(c, b, data) == []

    # The gate is not vacuous: a part that drops one of its entries, or
    # miscounts its cases where it has none, is caught.
    key = next((k for k in ("witnesses", "unrealizable") if data.get(k)), None)
    if key is None:
        data["parts"][0]["cases"] += 1
        problem = "aggregate cases differ from the parts'"
    else:
        next(p for p in data["parts"] if p.get(key))[key].pop()
        problem = f"aggregate {key} differ from the parts'"
    assert gate.check_report_problems(c, b, data) == [problem]


def test_gate_finds_no_problem_in_a_simulated_batch(gate):
    workloads = importlib.import_module("workloads")
    wl = workloads.SimulateWorkload()
    runs = []
    for c, base, ops in wl.scenarios(wl.prepare(7), 0):
        rep = run_scenario(Scenario(component=c, base=base, ops=ops), component=c)
        data = json.loads(json.dumps(rep.to_json(c)))
        assert gate.scenario_problems(c, base, ops, rep, data) == []
        runs.append((c, base, ops, rep, data))
    assert len(runs) == workloads.SIM_BATCH
    assert {len(ops) for _, _, ops, _, _ in runs} == {2, 3, 4}

    # The gate is not vacuous: a run whose verdict is flipped is caught.
    c, base, ops, rep, data = runs[0]
    flipped = copy.copy(rep)
    flipped.converged = not rep.converged
    assert "converged flag disagrees with the finals" in gate.scenario_problems(
        c, base, ops, flipped, data)
