"""Command-line front end: exit codes, output formats, bundled data."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import otcomp
from otcomp.bounds import DEFAULT_BOUNDS
from otcomp.checker import check_consistency
from otcomp.cli import (EXIT_FAIL, EXIT_PASS, EXIT_USAGE, _render_report, main)
from otcomp.registry import build
from triangle import Triangle


def test_list_names_registry(capsys):
    assert main(["list"]) == EXIT_PASS
    out = capsys.readouterr().out
    for name in ("cchar", "cnat", "ccolor", "set-guarded", "set-literal",
                 "string"):
        assert name in out


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(otcomp.__file__).parent.parent)}
    run = subprocess.run([sys.executable, "-m", "otcomp", "list"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == EXIT_PASS, run.stderr
    assert "string" in run.stdout.split()


def test_check_pass_exit_code(capsys):
    assert main(["check", "cchar", "--property", "cp1"]) == EXIT_PASS
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "pass" and data["witnesses"] == []


def test_check_fail_exit_code(capsys):
    code = main(["check", "set-literal", "--property", "cp1",
                 "--universe", "1"])
    assert code == EXIT_FAIL
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "fail" and data["witnesses"]


def test_check_unknown_name_is_a_usage_error(capsys):
    assert main(["check", "nonesuch", "--property", "cp1"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_check_case_ceiling_exits_3(capsys):
    assert main(["check", "string[cchar]", "--sites", "5",
                 "--property", "cp2"]) == EXIT_USAGE
    assert "exceeds ceiling" in capsys.readouterr().err


def test_check_refusal_names_the_composed_component(capsys):
    assert main(["check", "set-guarded[cchar (+) cnat]",
                 "--property", "consistency"]) == EXIT_USAGE
    assert capsys.readouterr().err == \
        "error: set-guarded[cchar (+) cnat]: 1048576 subset states\n"


def test_check_alphabet_past_the_letters_exits_3(capsys):
    assert main(["check", "cchar", "--property", "cp1",
                 "--alphabet", "100"]) == EXIT_USAGE
    assert "bound alphabet=100 exceeds" in capsys.readouterr().err
    assert main(["check", "cchar", "--property", "cp1",
                 "--alphabet", "26"]) == EXIT_PASS


def test_check_text_format(capsys):
    assert main(["check", "cchar", "--property", "consistency",
                 "--format", "text"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "consistency: pass" in out and "CP1: pass" in out


def test_check_text_format_lists_each_witness_once(capsys):
    assert main(["check", "set-literal", "--universe", "1", "--property",
                 "consistency", "--format", "text"]) == EXIT_FAIL
    lines = capsys.readouterr().out.splitlines()
    witnesses = [json.loads(line.split("witness: ", 1)[1])
                 for line in lines if "witness: " in line]
    assert witnesses and all(w.pop("part") == "CP1" for w in witnesses)
    assert len({json.dumps(w, sort_keys=True) for w in witnesses}) == len(witnesses)
    assert lines[-2].startswith("  CP1: fail (") and lines[-1].startswith("  CP2: pass (")
    assert f" cases, {len(witnesses)} witnesses, " in lines[-2]
    assert " cases, 0 witnesses, " in lines[-1]


def test_check_text_format_counts_unrealizable_triples():
    # No bundled expression reports an unrealizable triple: the text format
    # renders the triangle's report, which does.
    rep = check_consistency(Triangle())
    lines = _render_report(rep).splitlines()
    assert lines[0].startswith("consistency: pass (")
    assert f", 0 witnesses, {len(rep.unrealizable)} unrealizable, " in lines[0]
    assert len(rep.unrealizable) == 2
    for part, line in zip(rep.parts, lines[1:], strict=True):
        assert line.startswith(f"  {part.property}: ")
        counted = f", {len(part.unrealizable)} unrealizable, " in line
        assert counted == bool(part.unrealizable), line


@pytest.mark.parametrize("expr", ["string[cchar]", "string[cchar] (+) cnat", "set-guarded[cchar]"])
def test_check_text_format_counts_triples_not_jointly_legal(capsys, expr):
    # A CP2 part says how many of the triples it examined it skipped because
    # no state enables two of their methods together; JSON does not.
    flags = ["--alphabet", "1", "--max-len", "2", "--property", "consistency"]
    main(["check", expr, *flags, "--format", "text"])
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  CP")]
    rep = check_consistency(build(expr), DEFAULT_BOUNDS.with_(alphabet=1, max_len=2))
    for part, line in zip(rep.parts, lines, strict=True):
        skipped = part.examined - part.cases if part.property.startswith("CP2") else 0
        assert (f", {skipped} not jointly legal, " in line) == (skipped > 0), line
        assert ("not jointly legal" in line) == (skipped > 0), line
    assert sum(p.examined - p.cases for p in rep.parts if p.property.startswith("CP2")) > 0
    main(["check", expr, *flags])
    data = json.loads(capsys.readouterr().out)
    assert "not jointly legal" not in json.dumps(data)
    assert {key for p in data["parts"] for key in p} <= {
        "property", "verdict", "cases", "witnesses", "elapsed_ms", "unrealizable"}


def test_check_writes_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["check", "cchar", "--property", "cp2",
                 "--out", str(out)]) == EXIT_PASS
    assert json.loads(out.read_text())["verdict"] == "pass"


def test_check_invalid_bound_is_a_usage_error(capsys):
    for flag, value, message in (("--sites", "0", "bound sites must be strictly positive"),
                                 ("--nat-max", "-1", "bound nat_max must be non-negative")):
        assert main(["check", "cchar", "--property", "cp1", flag, value]) == EXIT_USAGE
        assert f"error: {message}" in capsys.readouterr().err
    assert main(["check", "cnat", "--property", "cp1", "--nat-max", "0"]) == EXIT_PASS


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    out = str(tmp_path / "no" / "such" / "dir" / "report.json")
    for argv in (["check", "cchar", "--property", "cp1"],
                 ["simulate", "insert_delete_transformed.scenario"]):
        assert main(argv + ["--out", out]) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""


def test_simulate_takes_no_bounds_flags(capsys):
    assert main(["simulate", "insert_delete_transformed.scenario",
                 "--alphabet", "1"]) == EXIT_USAGE


def test_simulate_bundled_convergent_scenario(capsys):
    assert main(["simulate", "insert_delete_transformed.scenario"]) == EXIT_PASS
    data = json.loads(capsys.readouterr().out)
    assert data["converged"]
    assert all(f["state"] == "effect" for f in data["finals"])


def test_simulate_bundled_divergent_scenario(capsys):
    assert main(["simulate", "insert_delete_untransformed.scenario"]) == EXIT_FAIL
    data = json.loads(capsys.readouterr().out)
    assert not data["converged"]
    assert {f["state"] for f in data["finals"]} == {"effece", "effect"}


def test_check_method_ceiling_exits_3(capsys):
    code = main(["check", "string[cnat]", "--property", "cp1",
                 "--nat-max", "200"])
    assert code == EXIT_USAGE
    assert "Update methods exceed the ceiling" in capsys.readouterr().err


def test_simulate_product_with_a_set_factor(tmp_path, capsys):
    path = tmp_path / "product.scenario"
    path.write_text(json.dumps({
        "component": "set-guarded[cchar] (+) cnat",
        "base": [["a"], 1],
        "ops": [{"site": 1, "method": {"ctor": "add", "args": ["b"]}},
                {"site": 2, "method": {"ctor": "putnat", "args": [0]}}]}))
    assert main(["simulate", str(path)]) == EXIT_PASS
    data = json.loads(capsys.readouterr().out)
    assert data["converged"]
    assert all(f["state"] == [{"set": [{"cell": "a"}, {"cell": "b"}]}, 0]
               for f in data["finals"])


def test_simulate_badly_typed_data_is_a_usage_error(tmp_path, capsys):
    # Each races a badly typed argument against a well-typed one, which
    # without the check ends in a TypeError from the merge or the position.
    cases = [("cnat", 1, {"ctor": "putnat", "args": ["x"]},
              {"ctor": "putnat", "args": [0]}, "'x' is not a value of cnat"),
             ("cchar", "a", {"ctor": "putchar", "args": [5]},
              {"ctor": "putchar", "args": ["b"]}, "5 is not a value of cchar"),
             ("string[cchar]", "ab", {"ctor": "Del", "args": ["x"]},
              {"ctor": "Ins", "args": [0, "c"]}, "'x' is not a position"),
             # a constructor that is not a string, arguments that are not a list
             ("cchar", "a", {"ctor": "putchar", "args": 5},
              {"ctor": "putchar", "args": ["b"]}, "as a method of cchar"),
             ("cchar", "a", {"ctor": ["x"], "args": []},
              {"ctor": "putchar", "args": ["b"]}, "as a method of cchar"),
             ("cchar", "a", {"ctor": "putchar", "args": "a"},
              {"ctor": "putchar", "args": ["b"]}, "as a method of cchar"),
             ("string[cchar]", "ab",
              {"ctor": "Update", "args": [[0], "a", {"ctor": "putchar", "args": "c"}]},
              {"ctor": "Ins", "args": [0, "c"]}, "as a method of cchar")]
    path = tmp_path / "typed.scenario"
    for component, base, bad, good, message in cases:
        path.write_text(json.dumps({
            "component": component, "base": base,
            "ops": [{"site": 1, "method": bad}, {"site": 2, "method": good}]}))
        assert main(["simulate", str(path)]) == EXIT_USAGE, component
        assert message in capsys.readouterr().err
    # well-typed values outside the bounds still run
    path.write_text(json.dumps({
        "component": "cnat", "base": 40,
        "ops": [{"site": 1, "method": {"ctor": "putnat", "args": [37]}},
                {"site": 2, "method": {"ctor": "putnat", "args": [99]}}]}))
    assert main(["simulate", str(path)]) == EXIT_PASS
    assert {f["state"] for f in json.loads(capsys.readouterr().out)["finals"]} == {37}


def test_simulate_badly_typed_site_is_a_usage_error(tmp_path, capsys):
    # A site that is not an int, on the op or on the method itself, ends
    # without the check in a TypeError when two inserts compare sites.
    ins = {"ctor": "Ins", "args": [0, "c"]}
    cases = [("x", ins, "'x' is not a site"),
             (True, ins, "True is not a site"),
             (1, {**ins, "site": "q"}, "'q' is not a site"),
             (1, {**ins, "site": True}, "True is not a site")]
    path = tmp_path / "sites.scenario"
    for site, method, message in cases:
        path.write_text(json.dumps({
            "component": "string[cchar]", "base": "ab",
            "ops": [{"site": site, "method": method},
                    {"site": 2, "method": {"ctor": "Ins", "args": [0, "d"]}}]}))
        assert main(["simulate", str(path)]) == EXIT_USAGE, (site, method)
        assert message in capsys.readouterr().err


def test_simulate_component_that_is_not_a_name_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "component.scenario"
    for component in (5, ["cchar"]):
        path.write_text(json.dumps({
            "component": component, "base": None,
            "ops": [{"site": 1, "method": {"ctor": "putchar", "args": ["a"]}}]}))
        assert main(["simulate", str(path)]) == EXIT_USAGE, component
        assert f"component {component!r} is neither" in capsys.readouterr().err


def test_simulate_update_address_of_the_wrong_length_is_a_usage_error(tmp_path, capsys):
    def update(addr):
        return {"ctor": "Update",
                "args": [addr, "a", {"ctor": "putchar", "args": ["c"]}]}

    cases = [("string[cchar]", "ab", [], "() is not a 1-position address"),
             ("string[cchar]", "ab", [0, 1], "(0, 1) is not a 1-position address"),
             ("set-guarded[cchar]", ["a"], [0], "(0,) is not a 0-position address")]
    path = tmp_path / "update.scenario"
    for component, base, addr, message in cases:
        path.write_text(json.dumps({
            "component": component, "base": base,
            "ops": [{"site": 1, "method": update(addr)},
                    {"site": 2, "method": update(addr)}]}))
        assert main(["simulate", str(path)]) == EXIT_USAGE, (component, addr)
        assert message in capsys.readouterr().err
    # the right length still runs
    path.write_text(json.dumps({
        "component": "string[cchar]", "base": "ab",
        "ops": [{"site": 1, "method": update([0])},
                {"site": 2, "method": {"ctor": "Del", "args": [1]}}]}))
    assert main(["simulate", str(path)]) == EXIT_PASS
    assert {f["state"] for f in json.loads(capsys.readouterr().out)["finals"]} == {"c"}


def test_simulate_bad_delivery_or_transform_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "delivery.scenario"
    ops = [{"site": 1, "method": {"ctor": "putchar", "args": ["a"]}},
           {"site": 2, "method": {"ctor": "putchar", "args": ["b"]}}]
    for extra in ({"delivery": 5}, {"delivery": [5]}, {"delivery": [[0, "x"]]},
                  {"delivery": [[0, 1.0]]}, {"transform": "no"}):
        path.write_text(json.dumps({"component": "cchar", "base": None, "ops": ops, **extra}))
        assert main(["simulate", str(path)]) == EXIT_USAGE, extra
        assert capsys.readouterr().err.startswith("error: ")


def test_simulate_missing_file_is_a_usage_error(capsys):
    assert main(["simulate", "no/such/file.scenario"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_simulate_inline_json_is_a_usage_error(capsys):
    # SCENARIO is a file or a bundled name, whatever the text's length.
    op = {"site": 1, "method": {"ctor": "putchar", "args": ["b"]}}
    for ops in ([op], [op] * 8):
        text = json.dumps({"component": "cchar", "base": "a", "ops": ops})
        assert main(["simulate", text]) == EXIT_USAGE, len(text)
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "otcomp/scenarios" not in err, err  # a path the user never gave


def test_simulate_text_format(capsys):
    assert main(["simulate", "insert_delete_transformed.scenario", "--format", "text"]) == EXIT_PASS
    assert "converged: True" in capsys.readouterr().out


# The whole stdout of `otcomp demo document --check`.  Method families
# count `nop`, which every component has: fchar's 4 are nop and its three
# puts, a string level's are nop, Ins, Del and Update, and a formatted
# level above fchar adds putnat and putcolor to those.
DEMO_DOCUMENT = """\
document tower (9 components):
  fchar        static   method families:  4 attributes: 3
  word         dynamic  method families:  4 attributes: 2
  fword        static   method families:  6 attributes: 4
  sentence     dynamic  method families:  4 attributes: 2
  fsentence    static   method families:  6 attributes: 4
  paragraph    dynamic  method families:  4 attributes: 2
  fparagraph   static   method families:  6 attributes: 4
  page         dynamic  method families:  4 attributes: 2
  fpage        static   method families:  6 attributes: 4
formatted-word concurrent edit:
  order [0, 1]: [[['c', 1, 'red'], ['a', 1, 'red'], ['b', 1, 'green']], None, None]
  order [1, 0]: [[['c', 1, 'red'], ['a', 1, 'red'], ['b', 1, 'green']], None, None]
  converged: True
fchar consistency: pass (1666 cases)
"""


def test_demo_document(capsys):
    assert main(["demo", "document", "--check"]) == EXIT_PASS
    assert capsys.readouterr().out == DEMO_DOCUMENT


def test_bad_usage_exits_3():
    assert main(["check"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
