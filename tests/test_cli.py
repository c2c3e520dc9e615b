"""Command-line front end: exit codes, output formats, bundled data."""

import json

import pytest

from otcomp.checker import check_consistency
from otcomp.cli import (EXIT_FAIL, EXIT_PASS, EXIT_USAGE, main)
from otcomp.registry import build


def test_list_names_registry(capsys):
    assert main(["list"]) == EXIT_PASS
    out = capsys.readouterr().out
    for name in ("cchar", "cnat", "ccolor", "set-guarded", "set-literal",
                 "string"):
        assert name in out


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
    assert main(["check", "string[cchar]", "--sites", "4",
                 "--property", "cp2"]) == EXIT_USAGE
    assert "exceeds ceiling" in capsys.readouterr().err


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


def test_check_text_format_counts_unrealizable_triples(capsys):
    assert main(["check", "set-guarded[cchar]", "--property", "consistency",
                 "--format", "text"]) == EXIT_PASS
    lines = capsys.readouterr().out.splitlines()
    rep = check_consistency(build("set-guarded[cchar]"))
    assert f", 0 witnesses, {len(rep.unrealizable)} unrealizable, " in lines[0]
    for part, line in zip(rep.parts, lines[1:], strict=True):
        assert line.startswith(f"  {part.property}: ")
        counted = f", {len(part.unrealizable)} unrealizable, " in line
        assert counted == bool(part.unrealizable), line


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
              {"ctor": "Ins", "args": [0, "c"]}, "'x' is not a position")]
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


def test_simulate_text_format(capsys):
    assert main(["simulate", "insert_delete_transformed.scenario", "--format", "text"]) == EXIT_PASS
    assert "converged: True" in capsys.readouterr().out


def test_demo_document(capsys):
    assert main(["demo", "document"]) == EXIT_PASS
    out = capsys.readouterr().out
    for name in ("fchar", "word", "fword", "sentence", "fsentence",
                 "paragraph", "fparagraph", "page", "fpage"):
        assert name in out
    assert "converged: True" in out


def test_bad_usage_exits_3():
    assert main(["check"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
