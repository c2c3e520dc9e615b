"""The replicated-sites harness: delivery orders, traces, scenario files."""

import json

import pytest

from otcomp.bounds import DEFAULT_BOUNDS
from otcomp.composition import make_update
from otcomp.errors import ScenarioError
from otcomp.registry import build
from otcomp.simulator import (Scenario, integrate, load_scenario,
                              run_scenario)
from otcomp.values import Cell, Method, SetOf, display, set_of


def _string_scenario(transform=True):
    return Scenario(
        component="string[cchar]",
        base="efecte",
        ops=[(1, {"ctor": "Ins", "args": [1, "f"]}),
             (2, {"ctor": "Del", "args": [5]})],
        use_transform=transform)


def test_concurrent_insert_delete_converges():
    rep = run_scenario(_string_scenario())
    assert rep.converged and rep.fully_legal
    assert display(rep.final_state()) == "effect"


def test_without_transformation_the_same_edits_diverge():
    rep = run_scenario(_string_scenario(transform=False))
    assert not rep.converged
    finals = {display(s) for _, s in rep.finals}
    assert finals == {"effece", "effect"}


def test_traces_record_the_transformed_methods():
    rep = run_scenario(_string_scenario())
    trace = rep.traces[(0, 1)]
    assert trace[0].delivered == trace[0].transformed  # first arrival, as-is
    assert trace[1].transformed == Method("Del", (6,), 2)
    assert all(t.applied for t in trace)


def test_single_op_scenario_trivially_converges():
    rep = run_scenario(Scenario(component="cchar", base=None,
                                ops=[(1, {"ctor": "putchar", "args": ["a"]})]))
    assert rep.converged and rep.final_state() == Cell("a")


def test_in_place_edits_converge_on_the_merged_element():
    c = build("set-guarded[cchar]")
    u1 = make_update((), Cell("a"), Method("putchar", ("b",)), 1)
    u2 = make_update((), Cell("a"), Method("putchar", ("c",)), 2)
    rep = run_scenario(Scenario(component=c, base=set_of([Cell("a")]),
                                ops=[(1, u1), (2, u2)]))
    assert rep.converged and rep.fully_legal
    assert rep.final_state() == set_of([Cell("c")])


def test_duplicate_issuing_sites_rejected():
    with pytest.raises(ScenarioError):
        Scenario(component="cchar", base=None,
                 ops=[(1, {"ctor": "putchar", "args": ["a"]}),
                      (1, {"ctor": "putchar", "args": ["b"]})])


def test_permutation_explosion_rejected():
    ops = [(i, {"ctor": "putnat", "args": [0]}) for i in range(7)]
    with pytest.raises(ScenarioError):
        run_scenario(Scenario(component="cnat", base=None, ops=ops))


def test_component_that_is_not_a_name_or_a_component_rejected():
    for component in (5, ["cchar"], None):
        with pytest.raises(ScenarioError, match="neither a name nor a Component"):
            run_scenario(Scenario(component=component, base=None,
                                  ops=[(1, {"ctor": "putchar", "args": ["a"]})]))


def test_explicit_delivery_orders():
    s = _string_scenario()
    s.delivery = [[1, 0]]
    rep = run_scenario(s)
    assert list(rep.traces) == [(1, 0)]


def test_bad_explicit_permutation_rejected():
    s = _string_scenario()
    for delivery in ([[0, 0]], 5, [5], [[0, "x"]], [[0, 1.0]], [[0, True]], [],
                     "all-permutations"):
        s.delivery = delivery
        with pytest.raises(ScenarioError):
            run_scenario(s)


def test_skipped_ops_mark_the_run_partially_legal():
    c = build("set-guarded[cchar]")
    # Both sites add the same element; the second arrival transforms to nop,
    # so the run stays legal.  Removing a missing element does not.
    rep = run_scenario(Scenario(
        component=c, base=SetOf(),
        ops=[(1, {"ctor": "remove", "args": ["a"]}),
             (2, {"ctor": "add", "args": ["b"]})]))
    assert not rep.fully_legal
    assert rep.converged  # the illegal removal is skipped at every site


def test_integrate_matches_manual_fold():
    c = build("cchar")
    ops = [Method("putchar", ("a",), 1), Method("putchar", ("c",), 2)]
    st, trace = integrate(c, Cell(None), ops, order=(1, 0))
    assert st == Cell("c")
    assert [t.applied for t in trace] == [True, True]


def test_load_scenario_from_dict_text_and_file(tmp_path):
    data = {"component": "cchar", "base": "a",
            "ops": [{"site": 1, "method": {"ctor": "putchar", "args": ["b"]}}]}
    from_dict = load_scenario(data)
    from_text = load_scenario(json.dumps(data))
    path = tmp_path / "one.scenario"
    path.write_text(json.dumps(data))
    from_file = load_scenario(str(path))
    for s in (from_dict, from_text, from_file):
        assert s.component == "cchar" and s.ops[0][0] == 1


def test_malformed_scenario_rejected():
    with pytest.raises(ScenarioError):
        load_scenario({"component": "cchar"})


def test_bundled_scenarios_parse():
    from importlib import resources
    for name in ("insert_delete_transformed.scenario", "insert_delete_untransformed.scenario"):
        path = resources.files("otcomp") / "scenarios" / name
        s = load_scenario(str(path))
        assert s.component == "string[cchar]"
