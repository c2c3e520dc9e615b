"""The exhaustive convergence checker: verdicts, witnesses, reports."""

import copy
import functools
import gc
import itertools
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import time
import weakref
from collections import Counter
from pathlib import Path

import pytest

import otcomp
from otcomp import checker, kernel
from otcomp.bounds import DEFAULT_BOUNDS
from otcomp.cells import CellComponent, cchar, cnat
from otcomp.checker import check_consistency, check_cp1, check_cp2
from otcomp.composition import ComposedComponent, is_update, static_compose
from otcomp.errors import BoundsExceeded, InvalidSpec, ReplayMismatch
from otcomp.patterns import set_pattern
from otcomp.registry import build, registry_names
from otcomp.tower import TOWER_BOUNDS, build_document_tower
from otcomp.values import Cell, Method, value_from_json
from triangle import Triangle

B = DEFAULT_BOUNDS


def _replaced(c, **changes):
    """A shallow copy of c with the given attributes replaced."""
    c = copy.copy(c)
    for name, value in changes.items():
        setattr(c, name, value)
    return c


def test_pair_condition_passes_on_a_convergent_component():
    rep = check_cp1(cchar())
    assert rep.verdict == "pass"
    assert rep.cases > 0 and not rep.witnesses


def test_triple_condition_passes_on_a_convergent_component():
    rep = check_cp2(cchar())
    assert rep.verdict == "pass"
    assert rep.cases > 0 and not rep.witnesses


def test_failing_pair_condition_produces_replayable_witnesses():
    b = B.with_(universe=1)
    c = build("set-literal", b)
    rep = check_cp1(c, b)
    assert rep.verdict == "fail" and rep.witnesses
    for w in rep.witnesses:
        st = value_from_json(w["state"])
        m1, m2 = (value_from_json(m) for m in w["methods"])
        seq1 = [m1, kernel.transform(c, m2, m1)]
        seq2 = [m2, kernel.transform(c, m1, m2)]
        assert kernel.legal(c, seq1, st) and kernel.legal(c, seq2, st)
        assert kernel.apply_seq(c, seq1, st) == value_from_json(w["left"])
        assert kernel.apply_seq(c, seq2, st) == value_from_json(w["right"])
        assert w["left"] != w["right"]


def test_set_literal_cp1_fixture_is_stable_and_replayable():
    # CP1 witnesses are listed by state, then m1, then m2.
    b = B.with_(universe=2)
    c = build("set-literal", b)
    regenerated = json.dumps(check_cp1(c, b).to_json(mask_elapsed=True), indent=2) + "\n"
    committed = (Path(__file__).parent / "fixtures" / "set_literal_cp1_report.json").read_text()
    assert regenerated == committed  # byte-stable

    data = json.loads(committed)
    assert (data["verdict"], len(data["witnesses"])) == ("fail", 8)
    assert len({json.dumps(w["state"]) for w in data["witnesses"]}) == 3
    for w in data["witnesses"]:
        st = value_from_json(w["state"])
        m1, m2 = (value_from_json(m) for m in w["methods"])
        seq1 = [m1, kernel.transform(c, m2, m1)]
        seq2 = [m2, kernel.transform(c, m1, m2)]
        assert kernel.legal(c, seq1, st) and kernel.legal(c, seq2, st)
        assert kernel.apply_seq(c, seq1, st) == value_from_json(w["left"])
        assert kernel.apply_seq(c, seq2, st) == value_from_json(w["right"])
        assert w["left"] != w["right"]


def test_reports_are_deterministic():
    b = B.with_(universe=1)
    c = build("set-literal", b)
    r1 = check_cp1(c, b).to_json(mask_elapsed=True)
    r2 = check_cp1(c, b).to_json(mask_elapsed=True)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_empty_method_enumeration_makes_the_check_vacuous():
    # `nop` is every component's, so emptying the enumeration empties
    # `enum_methods` itself.
    c = _replaced(cchar(), enum_methods=lambda b: [])
    rep = check_cp1(c)
    assert rep.verdict == "vacuous" and rep.cases == 0


def test_case_ceiling_is_enforced():
    with pytest.raises(BoundsExceeded):
        check_cp1(cchar(), B.with_(max_cases=10))


def test_method_ceiling_is_enforced():
    c = build("string[cchar]")
    assert len(c.enum_methods(B.with_(max_methods=135))) == 135
    with pytest.raises(BoundsExceeded, match="135 methods"):
        c.enum_methods(B.with_(max_methods=134))
    # 3 addresses x 4 old cells x 4 cell methods x 2 sites, refused before
    # the list is built
    with pytest.raises(BoundsExceeded, match="96 Update methods"):
        check_consistency(c, B.with_(max_methods=95))


def test_same_site_pairs_are_not_counted_as_concurrent():
    b = B.with_(universe=2, max_len=2, sites=1)
    c = build("string", b)
    rep = check_cp1(c, b)
    # With one site every proper pair is sequential; only pairs with a nop
    # survive the concurrency filter.
    methods = c.enum_methods(b)
    proper = [m for m in methods if m.ctor != "nop"]
    surviving = len(methods) ** 2 - len(proper) ** 2
    assert rep.examined == len(c.enum_states(b)) * surviving


class _TwoSiteCell(CellComponent):
    """`cchar` with its puts issued by sites 0 and 1.  It declares nothing
    about sites: its methods carry them."""

    def __init__(self):
        super().__init__("cchar", "putchar", "getchar", cchar().values, max)

    def enum_methods_fn(self, b):
        return [Method("putchar", (v,), s) for s in range(2) for v in self.values(b)]


def test_methods_carrying_sites_are_cut_by_site_whatever_the_component():
    # 5 methods (nop and two puts on each site) and 3 states: of the 25
    # ordered pairs, the 8 that one site issues are not concurrent, so
    # CP1 sweeps 17 pairs on 3 states and CP2 17 pairs against 5 m3s.
    b = B.with_(alphabet=2)
    c = _TwoSiteCell()
    rep = check_consistency(c, b)
    counted = _counted_by_the_kernel(c, b)
    assert [(p.cases, p.examined) for p in rep.parts] == counted == [(51, 51), (85, 85)]


def test_composed_component_report_has_six_parts():
    rep = check_consistency(build("set-guarded[cchar]"))
    names = [p.property for p in rep.parts]
    assert names == ["CP1-updates", "CP1-container", "CP1-cross",
                     "CP2-updates", "CP2-container", "CP2-cross"]
    assert rep.verdict == "pass"


def test_plain_component_report_has_two_parts():
    rep = check_consistency(cchar())
    assert [p.property for p in rep.parts] == ["CP1", "CP2"]
    assert rep.verdict == "pass"


def test_unrealizable_triples_are_reported_but_do_not_fail():
    """Method triples that violate the identity yet cannot all be legal from
    any one state are kept out of the witness list."""
    rep = check_consistency(Triangle())  # every two of a, b, c share a state
    assert rep.verdict == "pass"
    assert [w["methods"] for w in rep.unrealizable] == [
        [{"ctor": x, "args": []} for x in abc] for abc in ("abc", "bac")]
    data = rep.to_json(mask_elapsed=True)
    assert "unrealizable" in data
    for w in rep.unrealizable:
        assert w["realizable"] is False


def test_aggregate_fails_when_any_part_fails():
    b = B.with_(universe=1)
    rep = check_consistency(build("set-literal", b), b)
    assert rep.verdict == "fail"
    assert any(p.verdict == "fail" for p in rep.parts)
    assert all(w["part"] for w in rep.witnesses)


def test_aggregate_is_as_good_as_its_worst_part():
    # A part that decided no case proves nothing, whatever the others
    # decided; a failing part fails the whole, vacuous parts or not.
    def part(name, cases, witnesses=()):
        return checker.CheckReport(name, checker._verdict(cases, list(witnesses)), cases,
                                   list(witnesses))

    passing, vacuous = part("CP1", 4), part("CP2", 0)
    failing = part("CP2", 3, [{"state": None}])
    for parts, verdict in (([passing, passing], "pass"), ([passing, vacuous], "vacuous"),
                           ([vacuous, passing], "vacuous"), ([vacuous, failing], "fail"),
                           ([failing, passing, vacuous], "fail")):
        rep = checker._aggregate("consistency", time.perf_counter(), parts)
        assert (rep.verdict, rep.cases) == (verdict, sum(p.cases for p in parts))


def test_realizability_asks_the_kernel_only_on_states_the_first_method_enables(
        monkeypatch):
    # The replay of a failing CP2 triple fills the enabled states of its
    # first method, then asks of the second and third only on those: a's
    # row (3 calls), b on p and q, and c on q alone, where b is enabled.
    # Intersecting all three methods' full rows would take 9 calls.  The
    # component's own tables ask the kernel of `nop` alone.
    calls = []
    monkeypatch.setattr(kernel, "enabled",
                        lambda *args, _f=kernel.enabled: calls.append(args) or _f(*args))
    monkeypatch.setattr(checker, "_SPLIT_CASES", math.inf)
    rep = check_consistency(Triangle())
    asked = [(m.ctor, st.value) for _, m, st in calls if m.ctor != "nop"]
    assert len(rep.unrealizable) == 2
    assert asked == [("a", "p"), ("a", "q"), ("a", "r"), ("b", "p"), ("b", "q"), ("c", "q")]


@pytest.mark.parametrize("make, overrides", [
    pytest.param(lambda b: build("set-literal", b), {"universe": 1},
                 id="set-literal-overrides0"),
    pytest.param(lambda b: Triangle(), {}, id="triangle")])
def test_a_part_lists_the_indices_of_its_own_top_level_entries(make, overrides):
    """A consistency report writes each entry once, at the top level; a
    part's JSON lists are the indices of its own entries there: witnesses
    of `set-literal`, unrealizable triples of the triangle."""
    b = B.with_(**overrides)
    rep = check_consistency(make(b), b)
    data = json.loads(json.dumps(rep.to_json(mask_elapsed=True)))
    assert data["witnesses"] or data.get("unrealizable")
    for key in ("witnesses", "unrealizable"):
        top, listed = data.get(key, []), []
        for part, p in zip(rep.parts, data["parts"], strict=True):
            indices = p.get(key, [])
            assert all(type(i) is int for i in indices)
            entries = json.loads(json.dumps(getattr(part, key)))
            assert len(indices) == len(entries)
            for i, entry in zip(indices, entries):
                assert top[i]["part"] == part.property
                assert {k: v for k, v in top[i].items() if k != "part"} == entry
            listed += indices
        assert sorted(listed) == list(range(len(top)))


def _under_python_o(script: str) -> str:
    """What a check script prints when run with assertions stripped; it may
    import this directory's modules."""
    path = os.pathsep.join([str(Path(otcomp.__file__).parent.parent), str(Path(__file__).parent)])
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run([sys.executable, "-O", "-c", textwrap.dedent(script)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_a_witness_that_does_not_replay_raises_under_python_o():
    # it_fn answers each pair once as the component does, then differently:
    # the replay through the kernel disagrees with the checked case.
    out = _under_python_o("""
        import copy
        from otcomp.bounds import DEFAULT_BOUNDS
        from otcomp.checker import check_cp1
        from otcomp.errors import ReplayMismatch
        from otcomp.registry import build
        from otcomp.values import NOP

        b = DEFAULT_BOUNDS.with_(universe=1)
        base = build("set-literal", b)
        seen = set()

        def it_fn(m1, m2):
            out = base.it_fn(m1, m2)
            if (m1, m2) in seen:
                return NOP if out != NOP else m1
            seen.add((m1, m2))
            return out

        c = copy.copy(base)
        c.it_fn = it_fn
        try:
            check_cp1(c, b)
        except ReplayMismatch as exc:
            print("raised:", exc)
        else:
            print("reported")
    """)
    assert out.startswith("raised: CP1 case"), out


def test_a_cp1_legality_that_does_not_replay_raises_under_python_o():
    # (add x, remove x) fails CP1 on {x}.  poss_fn answers whether remove x
    # is enabled on {x} as the component does on its first call and the
    # opposite from its second on, so the replay, which reads no table, finds
    # that a sequence of the checked case is not legal.
    out = _under_python_o("""
        import copy
        from otcomp.bounds import DEFAULT_BOUNDS
        from otcomp.checker import check_cp1
        from otcomp.errors import ReplayMismatch
        from otcomp.registry import build
        from otcomp.values import Method, Opaque, set_of

        b = DEFAULT_BOUNDS.with_(universe=1)
        base = build("set-literal", b)
        flipped = (Method("remove", (Opaque("x"),)), set_of([Opaque("x")]))
        calls = []

        def poss_fn(m, st):
            out = base.poss_fn(m, st)
            if (m, st) != flipped:
                return out
            calls.append(out)
            return out if len(calls) == 1 else not out

        c = copy.copy(base)
        c.poss_fn = poss_fn
        try:
            check_cp1(c, b)
        except ReplayMismatch as exc:
            print("raised:", exc)
        else:
            print("reported")
    """)
    assert out.startswith("raised: CP1 case"), out
    assert "a sequence is not legal" in out, out


def test_a_realizability_that_does_not_replay_raises_under_python_o():
    # The triangle's triple (a, b, c) fails CP2 and is unrealizable: a and
    # b are enabled together on q alone, where c is not.  poss_fn answers
    # whether c is enabled on q as the component does on its first call and
    # the opposite from its second on, so the tables and the replay
    # disagree on the triple's realizability.
    out = _under_python_o("""
        import copy
        from otcomp.checker import check_cp2
        from otcomp.errors import ReplayMismatch
        from otcomp.values import Method, Opaque
        from triangle import Triangle

        base = Triangle()
        flipped = (Method("c", ()), Opaque("q"))
        calls = []

        def poss_fn(m, st):
            out = base.poss_fn(m, st)
            if (m, st) != flipped:
                return out
            calls.append(out)
            return out if len(calls) == 1 else not out

        c = copy.copy(base)
        c.poss_fn = poss_fn
        try:
            check_cp2(c)
        except ReplayMismatch as exc:
            print("raised:", exc)
        else:
            print("reported")
    """)
    assert out.startswith("raised: CP2 case"), out
    assert "realizable is False by the tables" in out, out


# A script that checks CP2 of `string` with `it_fn` answering the pairs
# `planted(m1, m2)` picks by `answer(out, call)`: out is the component's
# answer, and call counts the planted calls so far.
_PLANT_IT = """
    import copy
    from otcomp.checker import check_cp2
    from otcomp.errors import ReplayMismatch, UnknownMethod
    from otcomp.registry import build
    from otcomp.values import NOP, Method, Opaque

    base = build("string")
    calls = []

    def it_fn(m1, m2):
        out = base.it_fn(m1, m2)
        if not planted(m1, m2):
            return out
        calls.append(out)
        return answer(out, len(calls))

    c = copy.copy(base)
    c.it_fn = it_fn
    try:
        check_cp2(c)
    except (ReplayMismatch, UnknownMethod) as exc:
        print("raised:", type(exc).__name__, exc)
    else:
        print("reported")
"""


def _plant_it(planted_and_answer: str) -> str:
    return textwrap.dedent(planted_and_answer) + textwrap.dedent(_PLANT_IT)


def test_a_cp2_replay_transform_that_does_not_replay_raises_under_python_o():
    # The triple (Del 0@0, Ins(0, x)@1, Ins(1, x)@0) fails CP2.  it_fn
    # answers m3 against m1, a pair the sweep asks once, as the component
    # does on its first call and with nop from its second on: the replay
    # makes its own kernel transform of the pair, so the triple's
    # transformed methods disagree.
    out = _under_python_o(_plant_it("""
        def planted(m1, m2):
            return (m1, m2) == (Method("Ins", (1, Opaque("x")), 0), Method("Del", (0,), 0))

        def answer(out, call):
            return out if call == 1 else NOP
    """))
    assert out.startswith("raised: ReplayMismatch CP2 case"), out
    assert "transformed methods" in out, out


def test_a_transform_result_that_is_no_method_raises_under_python_o():
    # An insert one past the longest state is only ever transformed against,
    # so what it_fn answers against it is compared, never applied or
    # transformed further.  It is still validated when it is interned.
    out = _under_python_o(_plant_it("""
        def planted(m1, m2):
            return m2.ctor == "Ins" and m2.args[0] > 3

        def answer(out, call):
            return Method("shove", (0,), 0)
    """))
    assert out.startswith("raised: UnknownMethod 'shove' is not a method"), out
    # So is a declared constructor with the wrong number of arguments.
    out = _under_python_o(_plant_it("""
        def planted(m1, m2):
            return m2.ctor == "Ins" and m2.args[0] > 3

        def answer(out, call):
            return Method("Del", (), 0)
    """))
    assert out.startswith("raised: UnknownMethod 'Del' has 0 arguments"), out


def test_masked_reports_have_zero_elapsed():
    data = check_cp1(cchar()).to_json(mask_elapsed=True)
    assert data["elapsed_ms"] == 0.0


def test_an_enumeration_that_repeats_a_value_is_rejected():
    c = cchar()
    states = c.enum_states_fn
    c.enum_states_fn = lambda b: states(b) + [Cell("a")]
    with pytest.raises(InvalidSpec, match="repeats"):
        check_cp1(c)
    # A pattern over such a child repeats the methods built from its states.
    with pytest.raises(InvalidSpec, match="repeats"):
        check_cp2(set_pattern("guarded")(c))


def test_every_ceiling_is_checked_before_the_first_sweep(monkeypatch):
    # The CP2-cross part alone exceeds the ceiling, which is CP1-updates'
    # estimate, the next largest; nothing may be swept or transformed.  The
    # cut's Poss rows are filled first, from the component's `poss_fn`.
    b = B.with_(sites=4, max_cases=2_350_080)
    c = build("string[cchar]", b)

    def swept(*args):
        raise RuntimeError("swept before every part's estimate was checked")

    for name in ("_cp1_sweep", "_cp2_sweep"):
        monkeypatch.setattr(checker, name, swept)
    monkeypatch.setattr(kernel, "transform", swept)
    monkeypatch.setattr(c, "it_fn", swept)
    with pytest.raises(BoundsExceeded, match="estimated 7379904 cases exceeds ceiling 2350080"):
        check_consistency(c, b)


@pytest.mark.parametrize("check, refusal", [
    # CP1-updates, estimated before anything is filled.
    pytest.param(check_consistency, "estimated 3900211200 cases exceeds ceiling 10000000",
                 id="consistency"),
    # The Poss rows CP2's cut reads: 376 methods on 32,768 states each.
    pytest.param(check_cp2, "estimated 12320768 Poss entries exceeds ceiling 10000000",
                 id="cp2")])
def test_a_refused_check_fills_no_poss_entry(monkeypatch, check, refusal):
    c = build("set-guarded[string]")

    def asked(m, st):
        raise RuntimeError("a Poss entry filled for a refused check")

    monkeypatch.setattr(c, "poss_fn", asked)
    with pytest.raises(BoundsExceeded) as exc:
        check(c)
    assert str(exc.value) == refusal


def test_no_compiled_component_outlives_its_check(monkeypatch):
    # Clearing a compiled component's attributes frees its tables, whose
    # fills refer back to it, without a GC pass: nothing they hold may refer
    # to itself.
    compiled = []

    class Watched(checker._Compiled):
        def __init__(self, *args):
            super().__init__(*args)
            compiled.append(weakref.ref(self))

    monkeypatch.setattr(checker, "_Compiled", Watched)
    b = B.with_(universe=1)
    gc.disable()
    try:
        # Witnesses and unrealizable triples, so both tables are filled.
        assert check_consistency(build("set-literal", b), b).witnesses
        assert check_consistency(Triangle()).unrealizable
        with pytest.raises(BoundsExceeded):  # refused after its states are built
            check_cp1(cchar(), B.with_(max_cases=10))
        assert len(compiled) == 3
        assert [ref() for ref in compiled] == [None, None, None]
    finally:
        gc.enable()


def test_a_part_is_estimated_by_the_blocks_it_sweeps():
    # CP2-cross sweeps the six mixed blocks of updates and container methods,
    # cut to their concurrent (m1, m2) pairs and to the triples no two of
    # whose updates clash: 637,728 triples, not the 774,816 the site cut
    # alone keeps, nor the (|U| + |C|)^3 cube that holds them.
    c = build("string[cchar]")
    rep = check_consistency(c, B.with_(max_cases=637_728))
    assert rep.parts[-1].property == "CP2-cross"
    assert (rep.parts[-1].cases, rep.parts[-1].examined) == (637_728, 774_816)
    with pytest.raises(BoundsExceeded, match="estimated 637728 cases"):
        check_consistency(c, B.with_(max_cases=637_727))


def _jointly_legal(t, i1, i2, s):
    """Whether both orders of (m1, m2) are legal from state s, read off the
    IT, Do and Poss tables alone."""
    it, do, poss = t.tables.it, t.tables.do, t.tables.poss
    return (poss[i1][s] and poss[i2][s]
            and poss[it[i1][i2]][do[i1][s]] and poss[it[i2][i1]][do[i2][s]])


def _concurrent(t, i1, i2):
    """Whether two methods are concurrent: unless one site issues both."""
    s1, s2 = t.method[i1].site, t.method[i2].site
    return None in (s1, s2) or s1 != s2


def _stood_for(blocks):
    """Each kept block (origin, mirror's origin or None, lists), as the
    sweeps take them, as (origin, lists); and after it, when it stands for
    its mirror, the mirror: its first two lists swapped, with the mirror's
    origin."""
    for b, mirror, (x1, x2, *rest) in blocks:
        yield b, (x1, x2, *rest)
        if mirror is not None and x1 is not x2:
            yield mirror, (x2, x1, *rest)


def _reference_cp1(t, blocks):
    """The pair condition over every ordered concurrent pair of every kept
    block and of the mirror it stands for, on every state, each decided
    from its own table reads: the cases and the failing cases, sorted."""
    it, do = t.tables.it, t.tables.do
    cases = 0
    failing = []
    for _, (m1s, m2s) in _stood_for(blocks):
        for i1 in m1s:
            for i2 in m2s:
                if _concurrent(t, i1, i2):
                    for s in t.states:
                        if _jointly_legal(t, i1, i2, s):
                            cases += 1
                            left = do[it[i1][i2]][do[i1][s]]
                            right = do[it[i2][i1]][do[i2][s]]
                            if left != right:
                                failing.append((s, i1, i2, left, right))
    return cases, sorted(failing)


def _reference_cp2(t, blocks):
    """The triple condition over every triple, whose first two methods are
    concurrent, of every kept block and of the mirror it stands for, each
    from its own table reads, in sweep order: those of each origin in turn,
    in id order.  A failing triple is realizable on a state where (m1, m2)
    are jointly legal and m3 is enabled, searched over every state."""
    it, poss = t.tables.it, t.tables.poss
    failing = {}
    for b, (g1, g2, g3) in _stood_for(blocks):
        for i1 in g1:
            for i2 in g2:
                if _concurrent(t, i1, i2):
                    for i3 in g3:
                        left = it[it[i1][i2]][it[i1][i3]]
                        right = it[it[i2][i1]][it[i2][i3]]
                        if left != right:
                            realizable = any(_jointly_legal(t, i1, i2, s) and poss[i3][s]
                                             for s in t.states)
                            failing.setdefault(b, []).append(
                                (i1, i2, i3, left, right, realizable))
    return [f for b in sorted(failing) for f in sorted(failing[b])]


def _parts(rep):
    return [(p.property, p.cases, p.examined, p.witnesses, p.unrealizable)
            for p in rep.parts or [rep]]


def _by_reference(monkeypatch, check, c, b=B):
    """check(c, b) with every ordered pair and triple swept on its own."""
    with monkeypatch.context() as patched:
        patched.setattr(checker, "_cp1_sweep", _reference_cp1)
        patched.setattr(checker, "_cp2_sweep", _reference_cp2)
        return check(c, b)


@pytest.mark.parametrize("expr, overrides", [
    ("cchar", {}),
    ("set-guarded", {}),  # not site-aware: its diagonal pairs are concurrent
    ("set-guarded", {"universe": 1}),  # its cut gives CP2 one-method third lists
    ("set-literal", {"universe": 1}),  # fails the pair condition
    ("string", {"sites": 2}),
    ("string", {"sites": 3}),
    ("set-guarded[cchar]", {}),
    ("string[cchar]", {}),  # CP2-cross walks two of its mirrored blocks for four
    ("cchar (+) cnat (+) ccolor", {}),
])
def test_mirrored_cases_are_reported_as_a_sweep_of_every_ordered_case(monkeypatch, expr,
                                                                      overrides):
    # The sweeps decide (m2, m1) and (m2, m1, m3) from (m1, m2)'s and (m1, m2,
    # m3)'s reads; every part must count, examine and list what a sweep of
    # each ordered case on its own does, CP1-cross, which has no mirror, too
    # (its cut blocks draw m1 from the updates and m2 from the container).
    b = B.with_(**overrides)
    rep = check_consistency(build(expr, b), b)
    assert _parts(rep) == _parts(_by_reference(monkeypatch, check_consistency,
                                               build(expr, b), b))


def _one_sided(c, m1, m2, answer):
    """c whose transform of m1 against m2, and of no other pair, is answer."""
    return _replaced(c, it_fn=lambda a, b: answer if (a, b) == (m1, m2)
                     else c.it_fn(a, b))


def test_a_one_sided_transform_fault_is_reported_both_ways(monkeypatch):
    # IT(put a, put b) is put c, IT(put b, put a) is put b as it should be:
    # each state fails the pair both ways round, and some triples do too.
    a, b, c3 = (Method("putchar", (x,)) for x in "abc")
    c = _one_sided(cchar(), a, b, c3)
    replayed = []

    def recorded(replay):
        def replay_and_record(t, *args):
            replayed.append(args)
            return replay(t, *args)
        return replay_and_record

    for name in ("_replay_cp1", "_replay_cp2"):
        monkeypatch.setattr(checker, name, recorded(getattr(checker, name)))
    rep = check_consistency(c)
    assert rep.verdict == "fail" and len(replayed) == len(rep.witnesses)
    cp1 = rep.parts[0]
    methods = [tuple(value_from_json(m) for m in w["methods"]) for w in cp1.witnesses]
    assert methods == [(a, b), (b, a)] * len(c.enum_states(B))
    for w in cp1.witnesses:  # each replays through the public kernel
        st, (m1, m2) = value_from_json(w["state"]), map(value_from_json, w["methods"])
        assert kernel.apply_seq(c, [m1, kernel.transform(c, m2, m1)], st) == \
            value_from_json(w["left"])
        assert kernel.apply_seq(c, [m2, kernel.transform(c, m1, m2)], st) == \
            value_from_json(w["right"])
    assert {tuple(map(value_from_json, w["methods"][:2])) for w in rep.parts[1].witnesses} \
        == {(a, b), (b, a)}
    monkeypatch.undo()
    assert _parts(rep) == _parts(_by_reference(monkeypatch, check_consistency, c))


def test_a_mirrored_entry_that_does_not_replay_raises():
    # The one-sided fault fails (put a, put b) and (put b, put a) on the
    # initial cell, in that order.  The sweep asks whether put a is enabled
    # there once, and each replay once more; from the third call on poss_fn
    # answers no, so only the mirrored entry's replay disagrees with the
    # tables it was decided from.
    a, b, c3 = (Method("putchar", (x,)) for x in "abc")
    base = _one_sided(cchar(), a, b, c3)
    calls = []

    def poss_fn(m, st):
        if (m, st) == (a, base.initial_state):
            calls.append(m)
            return len(calls) < 3
        return base.poss_fn(m, st)

    with pytest.raises(ReplayMismatch, match=re.escape(f"CP1 case {[b, a]}")):
        check_cp1(_replaced(base, poss_fn=poss_fn))
    assert len(calls) == 3


def _overlapping(t):
    """CP1 and CP2 blocks that share methods, mirror each other, repeat, or
    have no mirror, and a CP2 block whose third list is one insert, if
    there is one."""
    n = len(t.methods)
    g1, g2, g3 = t.methods[: 2 * n // 3], t.methods[n // 3:], t.methods[::2]
    ins = [i for i in g3 if t.method[i].ctor == "Ins"][:1]
    return ([(g1, g1), (g1, g2), (g2, g1), (g2, g2), (g1, g1)],
            [(g1, g2, g3), (g1, g1, g2), (g1, g2, g3), (g2, g1, g3), (g2, g1, g3),
             (g3, g1, g2), (g2, g2, g2), (g1, g2, ins)])


@pytest.mark.parametrize("expr, overrides, fails", [("set-literal", {"universe": 1}, "CP1"),
                                                    ("string", {"sites": 2}, "CP2")])
def test_sweeps_match_every_ordered_case_on_overlapping_blocks(expr, overrides, fails):
    # A pair on the shared diagonal of two mirrored blocks is two cases, one
    # in each.  The sweeps walk the blocks as `_by_site` cuts them; the
    # reference walks them whole, with its own site test.
    b = B.with_(**overrides)
    c = build(expr, b)
    t = checker._Compiled(c, b, c.enum_methods(b))
    cp1, cp2 = _overlapping(t)
    cases, failing = checker._cp1_sweep(t, checker._by_site(t, cp1)[0])
    cp1_found = cases, sorted(failing)
    cp2_found = checker._cp2_sweep(t, checker._by_site(t, cp2)[0])
    assert cp1_found == _reference_cp1(t, [(b, None, block) for b, block in enumerate(cp1)])
    assert cp2_found == _reference_cp2(t, [(b, None, block) for b, block in enumerate(cp2)])
    failing = {"CP1": cp1_found[1], "CP2": cp2_found}
    assert failing[fails], f"{expr} finds no failing {fails} case to compare"


def _apart(c, b):
    """Whether no enumerated state enables two given methods, asked
    through the public kernel."""
    states = c.enum_states(b)

    @functools.cache
    def on(m):
        return frozenset(s for s, st in enumerate(states) if kernel.enabled(c, m, st))

    return lambda m1, m2: not on(m1) & on(m2)


@pytest.mark.parametrize("expr, overrides, parts_of", [
    ("string", {"sites": 3}, lambda t: [[(t.methods, t.methods)], [(t.methods,) * 3]]),
    ("string[cchar]", {"alphabet": 2, "max_len": 2}, lambda t: [checker._cross(  # CP2-cross
        t.select(is_update), t.select(lambda m: not is_update(m)), 3)]),
    ("set-literal", {"universe": 1}, _overlapping),
    ("string", {"sites": 2}, _overlapping),
    ("set-guarded[cchar]", {}, lambda t: [blocks for _, condition, blocks
                                          in checker._consistency_parts(t) if condition == "CP2"]),
])
def test_kept_blocks_stand_for_every_ordered_case_once(expr, overrides, parts_of):
    # Each kept block's pairs (see `checker._pairs`), and the mirrored case
    # of each pair marked twice, credited to the mirror's origin, are every
    # concurrent ordered case of each block, for CP2 every one whose three
    # methods some state enables two by two, once.
    b = B.with_(**overrides)
    c = build(expr, b)
    t = checker._Compiled(c, b, c.enum_methods(b))
    apart = _apart(c, b)
    for blocks in parts_of(t):
        kept, examined, cases = checker._by_site(t, blocks)
        stood = Counter()
        for o, mirror, (x1, x2, *rest) in kept:
            for i1, i2, twice in checker._pairs(mirror, x1, x2):
                for i3 in itertools.product(*rest):
                    stood[(o, i1, i2, *i3)] += 1
                    if twice:
                        stood[(mirror, i2, i1, *i3)] += 1
        concurrent = [(o, *case) for o, block in enumerate(blocks)
                      for case in itertools.product(*block) if _concurrent(t, *case[:2])]
        legal = [case for case in concurrent if len(case) == 3 or not any(
            apart(t.method[i], t.method[j]) for i, j in itertools.combinations(case[1:], 2))]
        assert stood == Counter(legal) and set(stood.values()) == {1}
        assert (examined, cases) == (len(concurrent), len(legal))
    if "[cchar]" in expr:
        assert len(concurrent) > len(legal), "the exclusion rule skips no triple"


@pytest.mark.parametrize("child", [cchar, cnat])
def test_the_set_guards_skip_only_triples_no_state_enables(monkeypatch, child):
    # The guarded set checked as it is and with the cut by site alone: the
    # cut keeps every witness, and each unrealizable triple of the uncut
    # check holds two methods that no state enables together, so the cut
    # check has none.
    c = build(f"set-guarded[{child().name}]")
    cut = check_consistency(c)
    with monkeypatch.context() as patched:
        patched.setattr(checker._Compiled, "apart", None)
        bare = check_consistency(c)
    assert cut.verdict == bare.verdict == "pass"
    assert cut.witnesses == bare.witnesses and not cut.unrealizable
    assert bare.unrealizable
    apart = _apart(c, B)
    for w in bare.unrealizable:
        m1, m2, m3 = map(value_from_json, w["methods"])
        assert apart(m1, m2) or apart(m1, m3) or apart(m2, m3), w
    assert [p.examined for p in cut.parts] == [p.examined for p in bare.parts]
    assert cut.cases < bare.cases


def _walked(monkeypatch):
    """The unordered pairs every kept block's walk decides, counted."""
    asked = Counter()
    pairs_of = checker._pairs

    def spied(*args):
        pairs = pairs_of(*args)
        asked.update(frozenset(pair[:2]) for pair in pairs)
        return pairs

    monkeypatch.setattr(checker, "_pairs", spied)
    return asked


def test_each_unordered_pair_is_decided_once(monkeypatch):
    # CP1 over all methods, and CP2-cross's six blocks, of which four are
    # two mirrored pairs: a pair of updates or of container methods is
    # decided once, a pair of one of each once for each mirrored pair, and
    # CP2 decides no pair that no state enables together.
    asked = _walked(monkeypatch)
    c = build("set-guarded[cchar]")
    apart = _apart(c, B)
    t = checker._Compiled(c, B, c.enum_methods(B))
    checker._cp1_sweep(t, checker._by_site(t, [(t.methods, t.methods)])[0])
    n = len(t.methods)
    assert len(asked) == n * (n + 1) // 2 and set(asked.values()) == {1}
    asked.clear()
    updates = t.select(is_update)
    container = t.select(lambda m: not is_update(m))
    checker._cp2_sweep(t, checker._by_site(t, checker._cross(updates, container, 3))[0])
    assert asked == Counter({frozenset((i, j)): 1 + ((i in updates) != (j in updates))
                             for i in t.methods for j in t.methods
                             if not apart(t.method[i], t.method[j])})
    assert len(asked) < n * (n + 1) // 2, "no pair is apart"


def test_each_concurrent_unordered_pair_is_decided_once_across_sites(monkeypatch):
    # A site-aware CP1 block is cut into mirrored blocks, (m1s at site 0, m2s
    # at site 1) and back: each concurrent pair is decided once, and a pair
    # that one site issues never.
    asked = _walked(monkeypatch)
    b = B.with_(sites=3)
    c = build("string", b)
    t = checker._Compiled(c, b, c.enum_methods(b))
    checker._cp1_sweep(t, checker._by_site(t, [(t.methods, t.methods)])[0])
    assert asked == Counter({frozenset((i, j)): 1 for i in t.methods for j in t.methods
                             if _concurrent(t, i, j)})


def _counted_by_the_kernel(c, b):
    """Each part's (cases, examined) of `check_consistency(c, b)`, counted
    over the part's own blocks through the public kernel alone: for CP1 the
    states on which both sequences of a concurrent ordered pair are legal,
    and the concurrent ordered pairs times the states; for CP2 the triples
    of a concurrent pair and any m3, less those holding two methods that
    no state enables together, and all of them."""
    methods, states = c.enum_methods(b), c.enum_states(b)

    def concurrent(m1, m2):
        return None in (m1.site, m2.site) or m1.site != m2.site

    on = {m: {s for s, st in enumerate(states) if kernel.enabled(c, m, st)} for m in methods}

    def separated(m1, m2):
        # No state enables both: the checker skips every such pair of these
        # components and no other.
        return not on[m1] & on[m2]

    def cp1(*blocks):
        pairs = [(m1, m2) for m1s, m2s in blocks
                 for m1 in m1s for m2 in m2s if concurrent(m1, m2)]
        cases = sum(kernel.legal(c, [m1, kernel.transform(c, m2, m1)], st)
                    and kernel.legal(c, [m2, kernel.transform(c, m1, m2)], st)
                    for m1, m2 in pairs for st in states)
        return cases, len(pairs) * len(states)

    def cp2(*blocks):
        triples = [(m1, m2, m3) for g1, g2, g3 in blocks
                   for m1 in g1 for m2 in g2 if concurrent(m1, m2) for m3 in g3]
        cases = sum(not (separated(m1, m2) or separated(m1, m3) or separated(m2, m3))
                    for m1, m2, m3 in triples)
        return cases, len(triples)

    if not isinstance(c, ComposedComponent):
        return [cp1((methods, methods)), cp2((methods,) * 3)]
    groups = updates, container = ([m for m in methods if is_update(m)],
                                   [m for m in methods if not is_update(m)])
    cross = [tuple(groups[k] for k in ks)
             for ks in itertools.product((0, 1), repeat=3) if len(set(ks)) > 1]
    return [cp1((updates, updates)), cp1((container, container)),
            cp1((updates, container), (container, updates)),
            cp2((updates,) * 3), cp2((container,) * 3), cp2(*cross)]


@pytest.mark.parametrize("expr, overrides", [
    ("cchar", {}),
    ("set-literal", {"universe": 1}),
    ("string", {"sites": 1, "max_len": 2}),
    ("string", {"sites": 2, "max_len": 2}),
    ("cchar (+) cnat", {}),
    ("set-guarded[cchar]", {"alphabet": 2}),
    ("string[cchar]", {"alphabet": 1, "max_len": 2}),
])
def test_every_part_counts_its_cases_as_the_public_kernel_does(expr, overrides):
    # No leaf sweeps `nop`, and a product's brute-force reference counts its
    # cases through the same lift: this count shares no step with the checker.
    b = B.with_(**overrides)
    c = build(expr, b)
    rep = check_consistency(c, b)
    assert [(p.cases, p.examined) for p in rep.parts] == _counted_by_the_kernel(c, b)


# Every bundled cell and pattern, each pattern over each of them, and the
# products the report digests pin.
_CELLS, _PATTERNS = registry_names()["components"], registry_names()["patterns"]
_BUNDLED = [*_CELLS, *_PATTERNS, *(f"{p}[{e}]" for p in _PATTERNS for e in _CELLS + _PATTERNS),
            "cchar (+) cnat (+) ccolor", "string[cchar] (+) cnat"]


def _entries(reports):
    """The reports' cases, examined, and witness and unrealizable entries,
    untagged and sorted."""
    def untagged(entries):
        return sorted(json.dumps({k: v for k, v in e.items() if k != "part"}, sort_keys=True)
                      for e in entries)
    return (sum(r.cases for r in reports), sum(r.examined for r in reports),
            untagged(w for r in reports for w in r.witnesses),
            untagged(w for r in reports for w in r.unrealizable))


@pytest.mark.parametrize("expr", [e for e in _BUNDLED if "[" in e and "(+)" not in e])
def test_the_consistency_parts_partition_each_condition(expr):
    # A composed component's update, container and cross parts of a
    # condition together sweep every case that condition's own check does,
    # each once: both orders of a cross pair, for CP1 as for CP2.
    b = B.with_(alphabet=2, nat_max=1, colors=2, universe=1, max_len=2)
    c = build(expr, b)
    rep = check_consistency(c, b)
    for condition, check in (("CP1", check_cp1), ("CP2", check_cp2)):
        parts = [p for p in rep.parts if p.property.startswith(condition)]
        assert len(parts) == 3
        assert _entries(parts) == _entries([check(c, b)]), condition


def test_no_leaf_owns_nop():
    # IT(m, nop) = m and IT(nop, m) = nop, so no case with `nop` can fail:
    # the lift counts them, and no leaf sweeps one.
    found = []
    for c in [*map(build, _BUNDLED), *build_document_tower().values()]:
        found += [(c.name, ctor, leaf.name, inner) for leaf, names in c.leaves()
                  for ctor, inner in names.items() if "nop" in (ctor, inner)]
    assert not found, f"leaves owning nop: {found}"


@pytest.mark.parametrize("expr", ["string[cchar]", "cchar (+) cnat (+) ccolor"])
def test_no_sweep_is_handed_nop(monkeypatch, expr):
    handed = set()

    def spied(sweep):
        def spy(t, blocks):
            handed.update(t.method[i].ctor for _, _, block in blocks for x in block for i in x)
            return sweep(t, blocks)
        return spy

    for name in ("_cp1_sweep", "_cp2_sweep"):
        monkeypatch.setattr(checker, name, spied(getattr(checker, name)))
    monkeypatch.setattr(checker, "_SPLIT_CASES", math.inf)  # no sweep in a child
    assert check_consistency(build(expr)).cases > 0
    assert handed and "nop" not in handed


def test_methods_that_differ_only_by_site_share_their_do_and_poss_rows():
    # Do and Poss read no site (see `kernel.Component`): the component's
    # tables give a method's every site one row, while IT, which reads
    # sites, and the kernel's tables, which cross-check them, keep one each.
    c = build("string")
    t = checker._Compiled(c, B, c.enum_methods(B))
    twins = {}
    for i in t.methods:
        twins.setdefault((t.method[i].ctor, t.method[i].args), []).append(i)
    i, j = next(ids for ids in twins.values() if len(ids) > 1)[:2]
    assert t.method[i].site != t.method[j].site
    tables, kernel_tables = t.tables, t.kernel
    assert tables.do[i] is tables.do[j] and tables.poss[i] is tables.poss[j]
    assert tables.enables[i] is tables.enables[j]
    assert tables.it[i] is not tables.it[j]
    assert kernel_tables.do[i] is not kernel_tables.do[j]
    assert kernel_tables.poss[i] is not kernel_tables.poss[j]


def test_the_component_tables_ask_each_do_and_poss_entry_once(monkeypatch):
    # On `string[cchar]`, every (constructor, args, state) is asked of
    # `do_fn` and `poss_fn` once by the component's tables, half as often as
    # one row per method id would ask; the replays still ask through the
    # public kernel, row by row of their own.
    c = build("string[cchar]")
    replaying = []  # the components the public kernel is asking, innermost last
    asked, replayed = Counter(), Counter()

    def through_kernel(f):
        def spy(comp, *args):
            replaying.append(comp)
            try:
                return f(comp, *args)
            finally:
                replaying.pop()
        return spy

    def counted(name):
        f = getattr(c, name)

        def spy(m, st):
            (replayed if replaying else asked)[name, m.ctor, m.args, st] += 1
            return f(m, st)
        return spy

    for name in ("apply", "enabled"):
        monkeypatch.setattr(kernel, name, through_kernel(getattr(kernel, name)))
    for name in ("do_fn", "poss_fn"):
        monkeypatch.setattr(c, name, counted(name))
    monkeypatch.setattr(checker, "_SPLIT_CASES", math.inf)  # every fill in this process
    assert check_consistency(c).witnesses
    assert set(asked.values()) == {1}
    calls = Counter(name for name, *_ in asked)
    assert calls["poss_fn"] <= 16_020 and calls["do_fn"] <= 12_653, calls
    assert replayed


# The benchmark's check-small-fleet workload: each check runs in one process.
_FLEET = [("cchar", {}), ("cnat", {}), ("ccolor", {}), ("set-guarded", {}),
          ("set-literal", {"universe": 1}), ("string", {}), ("set-guarded[cchar]", {}),
          ("cchar (+) cnat (+) ccolor", {})]


class _Seen(Exception):
    pass


def _masks(monkeypatch, c, b):
    """Each enumerated method, and the mask of those the cut of
    `check_cp2(c, b)` holds apart from it, bit i standing for the ith; the
    check stops there."""
    seen = []

    def spied(t, blocks):
        seen.append(([t.method[i] for i in t.methods], t.apart or [0] * len(t.methods)))
        raise _Seen

    with monkeypatch.context() as patched, pytest.raises(_Seen):
        patched.setattr(checker, "_by_site", spied)
        check_cp2(c, b)
    (methods, masks), = seen
    return methods, masks


@pytest.mark.parametrize("c, b", [
    *[pytest.param(lambda expr=expr, o=o: build(expr, B.with_(**o)), B.with_(**o), id=expr)
      for expr, o in _FLEET],
    pytest.param(lambda: build("string[cchar]", B.with_(sites=3)), B.with_(sites=3),
                 id="string[cchar]-sites3"),
    pytest.param(lambda: build_document_tower()["word"], TOWER_BOUNDS, id="tower-word"),
    pytest.param(lambda: static_compose(Triangle({"a": {"p"}, "b": {"q", "r"}, "c": set()}),
                                        cchar()), B, id="enabled-nowhere"),
])
def test_the_cut_holds_apart_exactly_the_methods_no_state_enables_together(
        monkeypatch, c, b):
    # The cut reads each leaf's Poss rows; the reference asks the public
    # kernel on every state of the component.  A method enabled on no
    # state is apart from every method, itself and `nop` included.
    c = c()
    methods, masks = _masks(monkeypatch, c, b)
    apart = _apart(c, b)
    assert masks == [sum(1 << j for j, m2 in enumerate(methods) if apart(m1, m2))
                     for m1 in methods]


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children that checks fork, two CPUs being usable."""
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return pids


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _masked(rep):
    return json.dumps(rep.to_json(mask_elapsed=True), indent=2)


@pytest.mark.parametrize("expr", ["string[cchar]", "string[cchar] (+) cnat"])
def test_a_split_check_reports_as_a_serial_one(monkeypatch, forks, expr):
    # The CP2 parts run in a forked child, the CP1 parts here; the report is
    # the serial run's byte for byte, and the aggregate is timed as a whole.
    t0 = time.perf_counter()
    split = check_consistency(build(expr))
    wall_ms = (time.perf_counter() - t0) * 1000.0
    assert len(forks) == 1
    _no_child_left()
    assert (len(split.witnesses), len(split.unrealizable)) == (384, 0)
    assert max(p.elapsed_ms for p in split.parts) <= split.elapsed_ms <= wall_ms
    monkeypatch.setattr(checker, "_SPLIT_CASES", math.inf)
    serial = check_consistency(build(expr))
    assert len(forks) == 1
    assert _masked(split) == _masked(serial)


def test_no_check_of_the_small_fleet_forks(monkeypatch):
    def fork():
        raise AssertionError("a small check forked")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for expr, overrides in _FLEET:
        b = B.with_(**overrides)
        check_consistency(build(expr, b), b)


def test_a_mismatch_in_the_child_is_raised_as_a_serial_run_raises_it(monkeypatch, forks):
    # The first CP2-container entry of string[cchar] has its left and right
    # swapped before it is replayed, in the child of a split run.
    lift = checker._lift

    def planted(t, leaves, part, cut, found):
        if part[0] == "CP2-container":
            failing, = found
            i1, i2, i3, left, right, realizable = failing[0]
            found = [[(i1, i2, i3, right, left, realizable), *failing[1:]]]
        return lift(t, leaves, part, cut, found)

    monkeypatch.setattr(checker, "_lift", planted)
    with pytest.raises(ReplayMismatch) as split:
        check_consistency(build("string[cchar]"))
    assert len(forks) == 1
    _no_child_left()
    monkeypatch.setattr(checker, "_SPLIT_CASES", math.inf)
    with pytest.raises(ReplayMismatch) as serial:
        check_consistency(build("string[cchar]"))
    assert len(forks) == 1
    assert type(split.value) is type(serial.value)
    assert str(split.value) == str(serial.value)
    assert str(serial.value).startswith("CP2 case")


def test_an_exception_the_child_cannot_pickle_is_raised_as_a_serial_run_raises_it(
        monkeypatch, forks):
    # A class defined here does not pickle: the child of a split run cannot
    # send it back, so the CP2 parts run again here and raise it.
    class Planted(Exception):
        pass

    lift = checker._lift

    def planted(t, leaves, part, cut, found):
        if part[0] == "CP2-container":
            raise Planted(f"{part[0]} planted")
        return lift(t, leaves, part, cut, found)

    monkeypatch.setattr(checker, "_lift", planted)
    with pytest.raises(Planted) as split:
        check_consistency(build("string[cchar]"))
    assert len(forks) == 1
    _no_child_left()
    monkeypatch.setattr(checker, "_SPLIT_CASES", math.inf)
    with pytest.raises(Planted) as serial:
        check_consistency(build("string[cchar]"))
    assert len(forks) == 1
    assert str(split.value) == str(serial.value) == "CP2-container planted"


def test_a_check_that_cannot_fork_reports_as_a_serial_one(monkeypatch, forks):
    def fork():
        raise OSError("no process to be had")

    monkeypatch.setattr(os, "fork", fork)
    unforked = check_consistency(build("string[cchar]"))
    monkeypatch.setattr(checker, "_SPLIT_CASES", math.inf)
    serial = check_consistency(build("string[cchar]"))
    assert not forks
    assert _masked(unforked) == _masked(serial)


def test_a_failure_in_the_cp1_parts_kills_and_reaps_the_child(monkeypatch, forks):
    # CP1-cross fails here while the child sleeps in its first CP2 sweep:
    # the child is killed, not waited for, and reaped.
    lift = checker._lift

    def failing(t, leaves, part, cut, found):
        if part[0] == "CP1-cross":
            raise RuntimeError(f"{part[0]} failed")
        return lift(t, leaves, part, cut, found)

    monkeypatch.setattr(checker, "_lift", failing)
    monkeypatch.setattr(checker, "_cp2_sweep", lambda *args: time.sleep(60))
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="CP1-cross failed"):
        check_consistency(build("string[cchar]"))
    assert time.perf_counter() - t0 < 30
    assert len(forks) == 1
    _no_child_left()


def test_a_split_check_never_flushes_this_process_buffers():
    # stdout to a pipe is block-buffered (PYTHONUNBUFFERED unset), so the
    # first line is still in the buffer when the check forks; the child
    # leaves by os._exit, so the line is written once, by this process.
    script = """
        import os
        from otcomp.checker import check_consistency
        from otcomp.registry import build

        forks = []
        fork = os.fork
        os.fork = lambda: forks.append(1) or fork()
        os.sched_getaffinity = lambda pid: {0, 1}
        print("written before the check")
        check_consistency(build("string[cchar]"))
        print("forks:", len(forks))
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(otcomp.__file__).parent.parent)
    run = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "written before the check\nforks: 1\n"
