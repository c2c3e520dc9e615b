"""The benchmark's correctness gate accepts the checker's reports.

`bench/gate.py` judges every benchmark check by replaying its emitted JSON
through the public kernel, and by requiring a report's parts to add up to
its aggregate.  Running it here makes a report-format change that the gate
cannot read fail the tests, instead of failing every benchmark operation.
"""

import importlib
import json
from pathlib import Path

import pytest

from otcomp.bounds import DEFAULT_BOUNDS
from otcomp.checker import check_consistency
from otcomp.registry import build

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def gate(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("gate")


@pytest.mark.parametrize("expr, overrides", [("string", {}),
                                             ("set-literal", {"universe": 1}),
                                             ("set-guarded[cchar]", {})])
def test_gate_finds_no_problem_in_a_consistency_report(gate, expr, overrides):
    b = DEFAULT_BOUNDS.with_(**overrides)
    c = build(expr, b)
    data = json.loads(json.dumps(check_consistency(c, b).to_json()))
    assert gate.check_report_problems(c, b, data) == []

    # The gate is not vacuous: a part that drops one of its entries is caught.
    key = "witnesses" if data["witnesses"] else "unrealizable"
    next(p for p in data["parts"] if p.get(key))[key].pop()
    assert gate.check_report_problems(c, b, data) == [
        f"aggregate {key} differ from the parts'"]
