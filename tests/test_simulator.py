"""The replicated-sites harness: delivery orders, traces, scenario files."""

import itertools
import json
import pickle
import random
import re

import pytest

from otcomp import kernel, simulator
from otcomp.bounds import DEFAULT_BOUNDS
from otcomp.cli import EXIT_USAGE, main
from otcomp.composition import make_update
from otcomp.errors import ScenarioError, UnknownMethod
from otcomp.registry import build
from otcomp.simulator import IntegrationTrace, Scenario, load_scenario, run_scenario
from otcomp.values import (Cell, Method, Opaque, SetOf, decode_state, display, set_of,
                           value_to_json)


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
    with pytest.raises(ScenarioError, match="pairwise distinct"):
        run_scenario(Scenario(component="cchar", base=None,
                              ops=[(1, {"ctor": "putchar", "args": ["a"]}),
                                   (1, {"ctor": "putchar", "args": ["b"]})]))


@pytest.mark.parametrize("site", ["x", True, None, 1.0])
def test_a_scenario_built_in_python_has_its_sites_checked(site):
    # run_scenario checks the sites, so a Scenario made in Python, not read
    # by load_scenario, is checked too: a site "x" would otherwise reach the
    # string transform's tie break and raise a TypeError comparing it to 1.
    ops = [(site, {"ctor": "Ins", "args": [0, {"atom": "a"}]}),
           (1, {"ctor": "Ins", "args": [0, {"atom": "b"}]})]
    with pytest.raises(ScenarioError, match=f"^{re.escape(repr(site))} is not a site$"):
        run_scenario(Scenario("string", "", ops))
    if site is not None:  # a method with no site is issued by its op's
        # A method's own site is checked as the op's is.
        issued = [(0, Method("Ins", (0, Opaque("a")), site)), ops[1]]
        with pytest.raises(ScenarioError, match="is not a site"):
            run_scenario(Scenario("string", "", issued))


@pytest.mark.parametrize("site", ["q", True, 1.0])
def test_a_child_method_an_update_carries_has_its_site_checked(site):
    # Two Updates of one element of a string of strings rebase their child
    # inserts through the child string's transform, whose tie break would
    # compare a site "q" to an int and raise a TypeError.
    c = build("string[string]")
    old = decode_state(c.parts[0], "x")
    u1 = make_update((0,), old, Method("Ins", (0, Opaque("y")), site), 1)
    u2 = make_update((0,), old, Method("Ins", (0, Opaque("z")), 5), 2)
    with pytest.raises(ScenarioError, match=f"^{re.escape(repr(site))} is not a site$"):
        run_scenario(Scenario(c, [old], [(1, u1), (2, u2)]))
    # A child method with no site, or an int one, runs.
    for carried in (None, 0):
        u1 = make_update((0,), old, Method("Ins", (0, Opaque("y")), carried), 1)
        assert run_scenario(Scenario(c, [old], [(1, u1), (2, u2)])).converged


def test_a_method_naming_another_ops_site_is_rejected(tmp_path, capsys):
    # The ops' sites differ, but the first op's method names the second's
    # site: both would be issued by site 1, and no transform makes that
    # converge ("xy" against "yx").
    data = {"component": "string", "base": "", "ops": [
        {"site": 0, "method": {"ctor": "Ins", "args": [0, {"atom": "x"}], "site": 1}},
        {"site": 1, "method": {"ctor": "Ins", "args": [0, {"atom": "y"}]}}]}
    with pytest.raises(ScenarioError, match="pairwise distinct"):
        run_scenario(load_scenario(data))
    path = tmp_path / "one_site.scenario"
    path.write_text(json.dumps(data))
    assert main(["simulate", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


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


def test_one_delivery_order_matches_manual_fold():
    rep = run_scenario(Scenario(
        component="cchar", base=None,
        ops=[(1, Method("putchar", ("a",))), (2, Method("putchar", ("c",)))],
        delivery=[[1, 0]]))
    assert rep.finals == [((1, 0), Cell("c"))]
    assert [t.applied for t in rep.traces[1, 0]] == [True, True]


def test_integrate_takes_only_a_permutation_of_the_ops():
    s = Scenario(component="cchar", base=None,
                 ops=[(1, Method("putchar", ("a",))),
                      (2, Method("putchar", ("c",)))])
    for order in ((0, 0), (0,), (0, 2), (0, 1, 1)):
        s.delivery = [list(order)]
        with pytest.raises(ScenarioError):
            run_scenario(s)


def test_load_scenario_from_dict_and_file(tmp_path):
    data = {"component": "cchar", "base": "a",
            "ops": [{"site": 1, "method": {"ctor": "putchar", "args": ["b"]}}]}
    from_dict = load_scenario(data)
    path = tmp_path / "one.scenario"
    path.write_text(json.dumps(data))
    from_file = load_scenario(str(path))
    for s in (from_dict, from_file):
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


# --- the walk against a per-order reference ----------------------------------

def _reference(c, base, ops, orders, use_transform=True):
    """Each order integrated on its own, as a fold over the kernel, and the
    first unequal pair of finals in `itertools.combinations` order."""
    finals, traces = [], {}
    for order in orders:
        st, executed, trace = base, [], []
        for idx in order:
            t = kernel.transform_seq(c, ops[idx], executed) if use_transform else ops[idx]
            ok = kernel.enabled(c, t, st)
            if ok:
                st = kernel.apply(c, t, st)
                executed.append(t)
            trace.append((ops[idx], t, ok))
        finals.append((order, st))
        traces[order] = trace
    fully_legal = all(ok for trace in traces.values() for _, _, ok in trace)
    diverging = next(((o1, o2) for (o1, s1), (o2, s2)
                      in itertools.combinations(finals, 2) if s1 != s2), None)
    return finals, traces, fully_legal, diverging


def _unshared_json(finals, traces, fully_legal, diverging) -> dict:
    """The report's JSON with every trace entry and method encoded anew."""
    return {
        "converged": diverging is None,
        "fully_legal": fully_legal,
        "finals": [{"order": list(o), "state": display(st)} for o, st in finals],
        "diverging": [list(o) for o in diverging] if diverging else None,
        "traces": {",".join(map(str, o)): [
            {"delivered": value_to_json(d), "transformed": value_to_json(t),
             "applied": ok} for d, t, ok in trace] for o, trace in traces.items()},
    }


def _assert_matches_reference(c, base, ops, delivery="all", use_transform=True):
    rep = run_scenario(Scenario(component=c, base=base, ops=ops, delivery=delivery,
                                use_transform=use_transform), component=c)
    methods = [m for _, m in ops]
    orders = (list(itertools.permutations(range(len(ops)))) if delivery == "all"
              else [tuple(o) for o in delivery])
    finals, traces, fully_legal, diverging = _reference(c, base, methods, orders,
                                                        use_transform)
    assert rep.finals == finals
    assert {o: [(t.delivered, t.transformed, t.applied) for t in trace]
            for o, trace in rep.traces.items()} == traces
    assert list(rep.traces) == list(traces)
    # Equal entries are one object, so the report encodes each once.
    entries = [t for trace in rep.traces.values() for t in trace]
    assert len({id(t) for t in entries}) == len(set(entries))
    assert (rep.fully_legal, rep.converged, rep.diverging) == (
        fully_legal, diverging is None, diverging)
    for indent in (None, 2):
        assert json.dumps(rep.to_json(), indent=indent) == json.dumps(
            _unshared_json(finals, traces, fully_legal, diverging), indent=indent)
    return rep


@pytest.fixture(scope="module")
def live_ops():
    """Each simulator component with its states and, per state, the proper
    methods enabled on it."""
    out = []
    for expr in ("string[cchar]", "set-guarded[cchar]", "cchar (+) cnat (+) ccolor"):
        c = build(expr)
        states = c.enum_states(DEFAULT_BOUNDS)
        methods = [m for m in c.enum_methods(DEFAULT_BOUNDS) if m.ctor != "nop"]
        out.append((c, states, [[m for m in methods if kernel.enabled(c, m, st)]
                                for st in states]))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_the_walk_matches_a_per_order_fold(live_ops, seed):
    rng = random.Random(seed)
    for c, states, live in live_ops:
        for _ in range(12):
            si = rng.randrange(len(states))
            sites = rng.sample(range(1, 5), rng.randint(2, 4))
            ops = [(s, Method(m.ctor, m.args, s))
                   for s, m in zip(sites, (rng.choice(live[si]) for _ in sites))]
            orders = list(itertools.permutations(range(len(ops))))
            explicit = [list(rng.choice(orders)) for _ in range(rng.randint(1, 6))]
            for delivery in ("all", explicit):
                for use_transform in (True, False):
                    _assert_matches_reference(c, states[si], ops, delivery,
                                              use_transform)


@pytest.mark.parametrize("seed", range(100, 103))
def test_the_walk_matches_a_per_order_fold_on_a_mixed_batch(live_ops, seed):
    # A batch like the benchmark's simulate-mix pass, except that half the
    # scenarios draw their ops from every method enabled on some state, not
    # only on the base, so that runs which skip an op are common.
    rng = random.Random(seed)
    seen = set()
    for _ in range(48):
        c, states, live = rng.choice(live_ops)
        si = rng.randrange(len(states))
        pool = live[si] if rng.random() < 0.5 else list(
            dict.fromkeys(itertools.chain.from_iterable(live)))
        sites = rng.sample(range(1, 5), rng.randint(2, 4))
        ops = [(s, Method(m.ctor, m.args, s))
               for s, m in zip(sites, (rng.choice(pool) for _ in sites))]
        orders = list(itertools.permutations(range(len(ops))))
        delivery = rng.choice(["all", [list(rng.choice(orders)) for _ in range(3)]])
        rep = _assert_matches_reference(c, states[si], ops, delivery,
                                        use_transform=rng.random() < 0.75)
        seen.add((c.name, rep.fully_legal, rep.converged))
    assert {(legal, converged) for _, legal, converged in seen} == {
        (True, True), (True, False), (False, True), (False, False)}
    assert {name for name, _, _ in seen} == {c.name for c, _, _ in live_ops}


def test_the_walk_matches_explicit_unsorted_and_repeated_orders():
    c = build("string[cchar]")
    ops = [(1, Method("Ins", (0, Cell("x")), 1)), (2, Method("Del", (1,), 2)),
           (3, Method("Ins", (2, Cell("y")), 3))]
    base = c.enum_states(DEFAULT_BOUNDS)[-1]
    rep = _assert_matches_reference(
        c, base, ops, [[2, 0, 1], [0, 1, 2], [2, 0, 1], [1, 2, 0], [1, 0, 2]])
    assert [o for o, _ in rep.finals] == [(2, 0, 1), (0, 1, 2), (2, 0, 1),
                                          (1, 2, 0), (1, 0, 2)]
    assert list(rep.traces) == [(2, 0, 1), (0, 1, 2), (1, 2, 0), (1, 0, 2)]


def test_the_walk_matches_a_diverging_untransformed_run():
    c = build("string[cchar]")
    ops = [(1, Method("Ins", (1, Cell("f")), 1)), (2, Method("Del", (5,), 2)),
           (3, Method("Ins", (0, Cell("e")), 3))]
    rep = _assert_matches_reference(c, decode_state(c, "efecte"), ops,
                                    use_transform=False)
    assert not rep.converged and rep.diverging[0] == (0, 1, 2)


def test_orders_sharing_a_prefix_share_its_integration(monkeypatch):
    # Four always-enabled ops.  Walking each node of the order tree once
    # would ask 4 + 12 + 24 + 24 = 64 enabled / apply and 12 + 24 + 24 = 60
    # transform questions, and integrating each of the 24 orders alone 96
    # and 144.  But each distinct question is asked once: 28 distinct
    # (op, state) pairs over the 12 states the orders reach (the char cell
    # unset, "a" or "b"; the nat and colour cells unset or set), and 16
    # distinct (op, against) pairs: the 12 ordered pairs of the ops, and
    # the siteless putchar b that either putchar becomes against the other,
    # against putnat and putcolor and they against it.
    c = build("cchar (+) cnat (+) ccolor")
    calls = _count_kernel_calls(monkeypatch)
    rep = run_scenario(_four_cells(c), component=c)
    assert rep.fully_legal and len(rep.finals) == 24
    assert calls == {"enabled": 28, "apply": 28, "transform": 16}
    assert rep.traces[(0, 1, 2, 3)][:2] == rep.traces[(0, 1, 3, 2)][:2]
    assert rep.traces[(0, 1, 2, 3)][1] is rep.traces[(0, 1, 3, 2)][1]


def test_the_kernel_answers_do_not_outlive_a_run(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    c = build("cchar (+) cnat (+) ccolor")
    counts = []
    for s in (_four_cells(c), _four_cells(c), _string_scenario(), _string_scenario()):
        before = dict(calls)
        run_scenario(s)
        counts.append({k: calls[k] - before[k] for k in calls})
    assert counts[0] == counts[1] == {"enabled": 28, "apply": 28, "transform": 16}
    assert counts[2] == counts[3] and counts[2]["transform"] > 0


def test_the_report_encodes_each_distinct_method_once(monkeypatch):
    # The 24 orders' 96 trace entries are 6 distinct ones: each op
    # delivered as issued, and either putchar as the siteless putchar b it
    # becomes against the other.  Those two are equal methods made by two
    # transforms, so with the 4 ops the entries hold 6 method objects.
    c = build("cchar (+) cnat (+) ccolor")
    s = _four_cells(c)
    rep = _assert_matches_reference(c, s.base, s.ops)
    entries = [t for trace in rep.traces.values() for t in trace]
    methods = {id(m) for t in entries for m in (t.delivered, t.transformed)}
    assert (len(entries), len(set(map(id, entries))), len(methods)) == (96, 6, 6)
    encoded = []
    monkeypatch.setattr(simulator, "value_to_json",
                        lambda v, _f=value_to_json: encoded.append(v) or _f(v))
    rep.to_json()
    assert len(encoded) == len(methods)


def _four_cells(c) -> Scenario:
    return Scenario(component=c, base=c.initial_state, ops=[
        (1, Method("putchar", ("a",), 1)), (2, Method("putnat", (1,), 2)),
        (3, Method("putchar", ("b",), 3)), (4, Method("putcolor", ("red",), 4))])


def _count_kernel_calls(monkeypatch) -> dict:
    """Count the simulator's calls of each kernel function from now on."""
    calls = {"enabled": 0, "apply": 0, "transform": 0}
    for name in calls:
        def counted(*args, _f=getattr(kernel, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(kernel, name, counted)
    return calls


def test_trace_entries_are_frozen():
    trace = run_scenario(_string_scenario()).traces[(0, 1)]
    with pytest.raises(AttributeError):
        trace[0].applied = False
    assert repr(trace[1]) == (
        "IntegrationTrace(delivered=Method(ctor='Del', args=(5,), site=2), "
        "transformed=Method(ctor='Del', args=(6,), site=2), applied=True)")
    for entry in trace:
        copy = pickle.loads(pickle.dumps(entry))
        assert type(copy) is IntegrationTrace and copy == entry
        assert (copy.delivered, copy.transformed, copy.applied) == (
            entry.delivered, entry.transformed, entry.applied)


def test_a_malformed_op_raises_what_a_per_order_fold_raises():
    # An Update whose child method is not the child's, passed as a Method,
    # so that no decoding stops it before the run; first or second.
    c = build("string[cchar]")
    bad = make_update((0,), Cell("a"), Method("shove", ("b",)), 1)
    ins = Method("Ins", (0, Cell("c")), 2)
    base = decode_state(c, "ab")
    for ops in ([(1, bad), (2, ins)], [(2, ins), (1, bad)]):
        methods = [m for _, m in ops]
        with pytest.raises(UnknownMethod):
            _reference(c, base, methods, list(itertools.permutations(range(2))))
        with pytest.raises(UnknownMethod):
            run_scenario(Scenario(component=c, base=base, ops=ops), component=c)


def test_a_malformed_op_in_a_scenario_file_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.scenario"
    path.write_text(json.dumps({
        "component": "string[cchar]", "base": "ab",
        "ops": [{"site": 1, "method": {"ctor": "Update", "args": [
            [0], "a", {"ctor": "shove", "args": ["b"]}]}},
                {"site": 2, "method": {"ctor": "Ins", "args": [0, "c"]}}]}))
    assert main(["simulate", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
