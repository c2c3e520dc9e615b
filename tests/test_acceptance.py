"""Acceptance suite: one test per criterion, one printed verdict line each.

Each test re-derives its expected values through public entry points only
(simulator vs checker, closed-form merges, committed fixtures) so the
criteria double as cross-oracle checks.
"""

import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from otcomp import kernel
from otcomp.bounds import DEFAULT_BOUNDS, Bounds
from otcomp.checker import check_consistency, check_cp1, check_cp2
from otcomp.cells import cchar, ccolor, cnat
from otcomp.cli import main
from otcomp.composition import (dynamic_compose, is_update, make_update,
                                static_compose, transform_update, update_addr)
from otcomp.patterns import check_admissible, string_pattern
from otcomp.registry import build
from otcomp.simulator import Scenario, load_scenario, run_scenario
from otcomp.values import (Cell, Method, SetOf, display, set_of, value_from_json)

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(n, label, limit_s=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {n} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - t0
    if limit_s is not None and elapsed > limit_s:
        print(f"criterion {n} ({label}): FAIL (took {elapsed:.1f}s > {limit_s}s)")
        pytest.fail(f"criterion {n} exceeded its {limit_s}s budget: {elapsed:.1f}s")
    print(f"criterion {n} ({label}): PASS")


def _bundled(name):
    from importlib import resources
    return str(resources.files("otcomp") / "scenarios" / name)


def test_criterion_1_concurrent_insert_delete_converges():
    with criterion(1, "transformed insert/delete edit", limit_s=1.0):
        c = build("string[cchar]")
        t = kernel.transform(c, Method("Del", (5,), 2), Method("Ins", (1, Cell("f")), 1))
        assert t == Method("Del", (6,), 2)
        rep = run_scenario(load_scenario(_bundled("insert_delete_transformed.scenario")), component=c)
        assert rep.converged and rep.fully_legal
        assert {display(s) for _, s in rep.finals} == {"effect"}


def test_criterion_2_untransformed_edits_diverge():
    with criterion(2, "divergence without transformation"):
        c = build("string[cchar]")
        rep = run_scenario(load_scenario(_bundled("insert_delete_untransformed.scenario")),
                           component=c)
        assert not rep.converged
        finals = {tuple(o): display(s) for o, s in rep.finals}
        assert finals == {(0, 1): "effece", (1, 0): "effect"}


def test_criterion_3_cells_pass_both_conditions():
    with criterion(3, "cell components converge", limit_s=5.0):
        for comp in (cchar(), cnat(), ccolor()):
            for check in (check_cp1, check_cp2):
                rep = check(comp)
                assert rep.verdict == "pass", (comp.name, rep.property)
                assert rep.cases > 0 and not rep.witnesses


def test_criterion_4_set_variant_dichotomy():
    with criterion(4, "literal set fails, guarded set passes", limit_s=5.0):
        b1 = DEFAULT_BOUNDS.with_(universe=1)
        literal = build("set-literal", b1)
        rep = check_cp1(literal, b1)
        assert rep.verdict == "fail"
        for w in rep.witnesses:
            st = value_from_json(w["state"])
            m1, m2 = (value_from_json(m) for m in w["methods"])
            # the race: concurrent add and remove of the one present element
            assert st == set_of([value_from_json({"atom": "x"})])
            assert {m1.ctor, m2.ctor} == {"add", "remove"}
            assert {value_from_json(w["left"]), value_from_json(w["right"])} \
                == {SetOf(), st}
            # soundness: the witness replays through the public kernel
            seq1 = [m1, kernel.transform(literal, m2, m1)]
            seq2 = [m2, kernel.transform(literal, m1, m2)]
            assert kernel.legal(literal, seq1, st)
            assert kernel.legal(literal, seq2, st)
            assert kernel.apply_seq(literal, seq1, st) != \
                kernel.apply_seq(literal, seq2, st)

        b2 = DEFAULT_BOUNDS.with_(universe=2)
        guarded = build("set-guarded", b2)
        for check in (check_cp1, check_cp2):
            rep = check(guarded, b2)
            assert rep.verdict == "pass" and rep.cases > 0


def test_criterion_5_set_of_characters_composition():
    with criterion(5, "character-set composition is consistent", limit_s=30.0):
        sc = build("set-guarded[cchar]")

        def upd(old, val):
            return make_update((), Cell(old), Method("putchar", (val,)))

        # same-target edits rebase through the element component and end on
        # the element the other edit produced
        t = transform_update(sc, upd("a", "b"), upd("a", "c"))
        assert t.args[1] == Cell("c")  # the old child state
        assert sc.update_new(t) == kernel.apply(
            cchar(), kernel.transform(cchar(), Method("putchar", ("b",)),
                                      Method("putchar", ("c",))), Cell("c"))
        # distinct-target edits do not interact
        assert transform_update(sc, upd("a", "b"), upd("c", "b")) == upd("a", "b")
        # enabled exactly on states holding the edited element
        assert kernel.enabled(sc, upd("a", "b"), set_of([Cell("a")]))
        assert not kernel.enabled(sc, upd("a", "b"), SetOf())
        # the edit replaces its element and leaves the rest alone
        after = kernel.apply(sc, upd("a", "b"), set_of([Cell("a"), Cell("c")]))
        assert kernel.observe(sc, "iselem", (Cell("b"),), after)
        assert not kernel.observe(sc, "iselem", (Cell("a"),), after)
        assert kernel.observe(sc, "iselem", (Cell("c"),), after)

        rep = check_consistency(sc)
        assert rep.verdict == "pass"
        assert [p.verdict for p in rep.parts] == ["pass"] * 6
        # the cross parts pair an update with a container method
        cross = [p for p in rep.parts if p.property in ("CP1-cross", "CP2-cross")]
        assert len(cross) == 2 and all(p.cases > 0 for p in cross)


def _distinct_target_commutation(comp, b):
    """Count update pairs with different targets whose two application orders
    are both legal; return (checked, violations)."""
    updates = [m for m in comp.enum_methods(b) if is_update(m)]
    checked = violations = 0
    for st in comp.enum_states(b):
        live = [u for u in updates if kernel.enabled(comp, u, st)]
        for u1, u2 in itertools.product(live, repeat=2):
            if (update_addr(u1) == update_addr(u2)
                    and u1.args[1] == u2.args[1]):  # the same old child state
                continue
            s1 = kernel.apply(comp, u1, st)
            s2 = kernel.apply(comp, u2, st)
            if not (kernel.enabled(comp, u2, s1) and kernel.enabled(comp, u1, s2)):
                continue
            checked += 1
            if kernel.apply(comp, u2, s1) != kernel.apply(comp, u1, s2):
                violations += 1
    return checked, violations


def test_criterion_6_distinct_target_edits_commute():
    with criterion(6, "distinct-target edits commute", limit_s=30.0):
        sc = build("set-guarded[cchar]")
        checked, violations = _distinct_target_commutation(sc, DEFAULT_BOUNDS)
        assert checked > 0 and violations == 0

        bw = Bounds(alphabet=2, nat_max=1, colors=2, max_len=2, sites=1)
        fc = static_compose(cchar(), cnat(), ccolor())
        word = dynamic_compose(string_pattern(), fc)
        checked, violations = _distinct_target_commutation(word, bw)
        assert checked > 0 and violations == 0


def _two_op_oracle_equivalence(comp, b):
    """Every fully legal two-op run converges exactly when the pair identity
    holds for that state and pair."""
    methods = [m for m in comp.enum_methods(b) if m.ctor != "nop"]
    for st, m1, m2 in itertools.product(comp.enum_states(b), methods, methods):
        o1, o2 = Method(m1.ctor, m1.args, 1), Method(m2.ctor, m2.args, 2)
        rep = run_scenario(Scenario(component=comp, base=st,
                                    ops=[(1, o1), (2, o2)]))
        seq1 = [o1, kernel.transform(comp, o2, o1)]
        seq2 = [o2, kernel.transform(comp, o1, o2)]
        jointly_legal = kernel.legal(comp, seq1, st) and kernel.legal(comp, seq2, st)
        assert rep.fully_legal == jointly_legal
        if rep.fully_legal:
            identity_holds = (kernel.apply_seq(comp, seq1, st)
                              == kernel.apply_seq(comp, seq2, st))
            assert rep.converged == identity_holds


def _three_op_convergence(comp, b):
    """With both conditions verified, every all-permutation three-op run that
    stays fully legal converges."""
    assert check_cp1(comp, b).verdict == "pass"
    assert check_cp2(comp, b).verdict == "pass"
    methods = [m for m in comp.enum_methods(b) if m.ctor != "nop"]
    converged_runs = 0
    for st in comp.enum_states(b):
        for trio in itertools.product(methods, repeat=3):
            ops = [(i + 1, Method(m.ctor, m.args, i + 1))
                   for i, m in enumerate(trio)]
            rep = run_scenario(Scenario(component=comp, base=st, ops=ops))
            if rep.fully_legal:
                assert rep.converged, (st, trio)
                converged_runs += 1
    assert converged_runs > 0


def test_criterion_7_checker_and_simulator_agree():
    with criterion(7, "checker/simulator oracle equivalence", limit_s=60.0):
        small = DEFAULT_BOUNDS.with_(alphabet=2, nat_max=2, universe=2)
        fleet = [cchar(), cnat(), ccolor(), build("set-guarded", small),
                 build("set-guarded[cchar]", small)]
        for comp in fleet:
            _two_op_oracle_equivalence(comp, small)
        for comp in fleet:
            _three_op_convergence(comp, small)


def test_criterion_8_sequence_cp2_fixture_is_stable_and_replayable():
    with criterion(8, "sequence CP2 report fixture"):
        b = DEFAULT_BOUNDS.with_(universe=2, max_len=3, sites=2)
        comp = build("string", b)
        rep = check_cp2(comp, b)
        regenerated = json.dumps(rep.to_json(mask_elapsed=True), indent=2) + "\n"
        committed = (FIXTURES / "string_cp2_report.json").read_text()
        assert regenerated == committed  # byte-stable

        data = json.loads(committed)
        assert data["verdict"] == "fail" and data["witnesses"]
        for w in data["witnesses"]:
            m1, m2, m3 = (value_from_json(m) for m in w["methods"])
            seq1 = [m1, kernel.transform(comp, m2, m1)]
            seq2 = [m2, kernel.transform(comp, m1, m2)]
            left = kernel.transform_seq(comp, m3, seq1)
            right = kernel.transform_seq(comp, m3, seq2)
            assert left == value_from_json(w["left"])
            assert right == value_from_json(w["right"])
            assert left != right
            assert w["realizable"] is True
            assert any(kernel.legal(comp, seq1, st) and kernel.legal(comp, seq2, st)
                       and kernel.enabled(comp, m3, st)
                       for st in comp.enum_states(b))


def test_criterion_9_document_tower_demo(capsys):
    with criterion(9, "document tower demo", limit_s=10.0):
        assert main(["demo", "document"]) == 0
        out = capsys.readouterr().out
        for name in ("fchar", "word", "fword", "sentence", "fsentence",
                     "paragraph", "fparagraph", "page", "fpage"):
            assert name in out
        assert "converged: True" in out

        # admissibility holds at every level that nests elements
        from otcomp.tower import TOWER_BOUNDS, build_document_tower
        tower = build_document_tower()
        for name in ("fchar", "fword", "fsentence", "fparagraph"):
            assert check_admissible(string_pattern(), tower[name],
                                    b=TOWER_BOUNDS).ok


def test_criterion_10_string_of_characters_check_is_fast_and_replayable():
    with criterion(10, "string[cchar] consistency check", limit_s=10.0):
        b = DEFAULT_BOUNDS
        comp = build("string[cchar]", b)
        rep = check_consistency(comp, b)
        assert (rep.verdict, rep.cases, rep.examined) == ("fail", 993_526, 2_034_340)
        assert (len(rep.witnesses), len(rep.unrealizable)) == (384, 0)

        states = comp.enum_states(b)
        joint = {}  # (m1, m2) -> the states on which both orders are legal
        for w in rep.witnesses + rep.unrealizable:
            m1, m2, m3 = (value_from_json(m) for m in w["methods"])
            seq1 = [m1, kernel.transform(comp, m2, m1)]
            seq2 = [m2, kernel.transform(comp, m1, m2)]
            left = kernel.transform_seq(comp, m3, seq1)
            right = kernel.transform_seq(comp, m3, seq2)
            assert left == value_from_json(w["left"])
            assert right == value_from_json(w["right"])
            assert left != right
            if (m1, m2) not in joint:
                joint[m1, m2] = [st for st in states if kernel.legal(comp, seq1, st)
                                 and kernel.legal(comp, seq2, st)]
            realizable = any(kernel.enabled(comp, m3, st) for st in joint[m1, m2])
            assert w["realizable"] is realizable
        assert all(w["realizable"] for w in rep.witnesses)


def test_criterion_11_a_product_is_checked_factor_by_factor():
    with criterion(11, "string[cchar] (+) cnat consistency check", limit_s=2.0):
        rep = check_consistency(build("string[cchar] (+) cnat"))
        # The verdict and counts of a sweep over all 425 product states,
        # which takes 3.6 to 3.9 s (tests/test_product_check.py compares
        # the two on smaller products, byte for byte).
        assert (rep.verdict, rep.cases, rep.examined) == ("fail", 1_959_510, 5_833_452)
        assert (len(rep.witnesses), len(rep.unrealizable)) == (384, 0)
        assert [(p.property, p.cases, p.examined) for p in rep.parts] == [
            ("CP1", 949_225, 4_395_775), ("CP2", 1_010_285, 1_437_677)]
