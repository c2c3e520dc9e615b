"""The exhaustive convergence checker: verdicts, witnesses, reports."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import otcomp
from otcomp import kernel
from otcomp.bounds import DEFAULT_BOUNDS
from otcomp.cells import cchar
from otcomp.checker import (check_consistency, check_cp1, check_cp1_restricted,
                            check_cp2, check_cp2_restricted)
from otcomp.errors import BoundsExceeded, InvalidSpec
from otcomp.patterns import set_pattern
from otcomp.registry import build
from otcomp.values import Cell, Method, value_from_json

B = DEFAULT_BOUNDS


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


def test_reports_are_deterministic():
    b = B.with_(universe=1)
    c = build("set-literal", b)
    r1 = check_cp1(c, b).to_json(mask_elapsed=True)
    r2 = check_cp1(c, b).to_json(mask_elapsed=True)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_empty_method_subset_makes_the_check_vacuous():
    c = cchar()
    rep = check_cp1_restricted(c, [], lambda m: True)
    assert rep.verdict == "vacuous" and rep.cases == 0


def test_overlapping_subsets_are_rejected():
    c = cchar()
    put = Method("putchar", ("a",))
    with pytest.raises(InvalidSpec):
        check_cp1_restricted(c, [put], [put])
    with pytest.raises(InvalidSpec):
        check_cp2_restricted(c, [put], [put])


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
    c = build("set-guarded[cchar]")
    rep = check_consistency(c)
    assert rep.verdict == "pass"
    assert rep.unrealizable  # the value-addressed collisions land here
    data = rep.to_json(mask_elapsed=True)
    assert "unrealizable" in data
    for w in rep.unrealizable[:5]:
        assert w["realizable"] is False


def test_aggregate_fails_when_any_part_fails():
    b = B.with_(universe=1)
    rep = check_consistency(build("set-literal", b), b)
    assert rep.verdict == "fail"
    assert any(p.verdict == "fail" for p in rep.parts)
    assert all(w["part"] for w in rep.witnesses)


@pytest.mark.parametrize("expr, overrides", [("set-literal", {"universe": 1}),
                                             ("set-guarded[cchar]", {})])
def test_a_part_lists_the_indices_of_its_own_top_level_entries(expr, overrides):
    """A consistency report writes each entry once, at the top level; a
    part's JSON lists are the indices of its own entries there."""
    b = B.with_(**overrides)
    rep = check_consistency(build(expr, b), b)
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
    """What a check script prints when run with assertions stripped."""
    env = {**os.environ, "PYTHONPATH": str(Path(otcomp.__file__).parent.parent)}
    run = subprocess.run([sys.executable, "-O", "-c", textwrap.dedent(script)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_a_witness_that_does_not_replay_raises_under_python_o():
    # it_fn answers each pair once as the component does, then differently:
    # the replay through the kernel disagrees with the checked case.
    out = _under_python_o("""
        import dataclasses
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

        try:
            check_cp1(dataclasses.replace(base, it_fn=it_fn), b)
        except ReplayMismatch as exc:
            print("raised:", exc)
        else:
            print("reported")
    """)
    assert out.startswith("raised: CP1 case"), out


def test_a_realizability_that_does_not_replay_raises_under_python_o():
    # The triple (put a on the element None, put b on it, any Update of the
    # element 'a') fails CP2 and is unrealizable: the pair is jointly legal
    # only on {None} and {None, 'c'}, where the third Update has no target.
    # poss_fn answers whether that Update is enabled on {None} as the
    # component does on its first call and the opposite from its second on,
    # so the tables and the replay disagree on the triple's realizability.
    out = _under_python_o("""
        import dataclasses
        from otcomp.checker import check_cp2
        from otcomp.composition import make_update
        from otcomp.errors import ReplayMismatch
        from otcomp.registry import build
        from otcomp.values import NOP, Cell, set_of

        base = build("set-guarded[cchar]")
        flipped = (make_update((), Cell("a"), NOP), set_of([Cell(None)]))
        calls = []

        def poss_fn(m, st):
            out = base.poss_fn(m, st)
            if (m, st) != flipped:
                return out
            calls.append(out)
            return out if len(calls) == 1 else not out

        try:
            check_cp2(dataclasses.replace(base, poss_fn=poss_fn))
        except ReplayMismatch as exc:
            print("raised:", exc)
        else:
            print("reported")
    """)
    assert out.startswith("raised: CP2 case"), out
    assert "realizable is False by the tables" in out, out


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
        check_cp2(set_pattern("guarded").build_body(c))


def test_every_ceiling_is_checked_before_the_first_sweep(monkeypatch):
    # The CP2-cross part alone exceeds the ceiling; nothing may be swept.
    b = B.with_(sites=4)
    c = build("string[cchar]", b)

    def swept(*args):
        raise RuntimeError("swept before every part's estimate was checked")

    for name in ("apply", "enabled", "transform"):
        monkeypatch.setattr(kernel, name, swept)
    with pytest.raises(BoundsExceeded, match="19465109"):
        check_consistency(c, b)
