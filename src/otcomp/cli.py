"""Command-line front end.

    otcomp check EXPR --property cp1|cp2|consistency [--alphabet N]
                 [--nat-max N] [--universe N] [--max-len N] [--sites N]
                 [--out PATH] [--format json|text]
    otcomp simulate SCENARIO [--out PATH] [--format json|text]
    otcomp demo document [--check]
    otcomp list

`simulate` builds the scenario's component at the default bounds.

Exit codes for `check`: 0 pass, 1 fail, 2 vacuous, 3 usage error.
`simulate`: 0 converged, 1 diverged, 3 malformed scenario.  A usage error
(exit 3, `error: ...` on stderr) is also an invalid bound or an --out path
that cannot be written.

A `consistency` report lists each witness once, tagged with its part: in
JSON, a part lists the indices of its own entries; in text, a part gives
its counts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from typing import Optional

from .bounds import Bounds
from .checker import CheckReport, check_consistency, check_cp1, check_cp2
from .composition import ComposedComponent
from .errors import OtcompError
from .registry import build, registry_names
from .simulator import load_scenario, run_scenario
from .tower import TOWER_BOUNDS, build_document_tower, demo_word_scenario

EXIT_PASS, EXIT_FAIL, EXIT_VACUOUS, EXIT_USAGE = 0, 1, 2, 3

# The Bounds fields `check` takes a flag for, as --alphabet, --nat-max, ...
_BOUNDS_FLAGS = ("alphabet", "nat_max", "universe", "max_len", "sites")


def _bounds_from(args) -> Bounds:
    return Bounds(**{f: getattr(args, f) for f in _BOUNDS_FLAGS if getattr(args, f) is not None})


def _emit(text: str, args) -> None:
    """Print the text, or write it to the --out path."""
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _render_report(rep: CheckReport) -> str:
    lines = [_summary(rep)]
    lines += [f"  witness: {json.dumps(w)}" for w in rep.witnesses[:10]]
    if len(rep.witnesses) > 10:
        lines.append(f"  ... {len(rep.witnesses) - 10} more witnesses")
    return "\n".join(lines + ["  " + _summary(part) for part in rep.parts])


def _summary(rep: CheckReport) -> str:
    unrealizable = f", {len(rep.unrealizable)} unrealizable" if rep.unrealizable else ""
    return (f"{rep.property}: {rep.verdict} ({rep.cases} cases, "
            f"{len(rep.witnesses)} witnesses{unrealizable}, {rep.elapsed_ms:.1f} ms)")


def cmd_check(args) -> int:
    b = _bounds_from(args)
    runner = {"cp1": check_cp1, "cp2": check_cp2,
              "consistency": check_consistency}[args.property]
    rep = runner(build(args.expr, b), b)
    _emit(json.dumps(rep.to_json(), indent=2) if args.format == "json"
          else _render_report(rep), args)
    return {"pass": EXIT_PASS, "fail": EXIT_FAIL, "vacuous": EXIT_VACUOUS}[rep.verdict]


def _resolve_scenario_path(path: str) -> str:
    if os.path.exists(path):
        return path
    bundled = resources.files("otcomp") / "scenarios" / path
    if bundled.is_file():
        return str(bundled)
    return path


def cmd_simulate(args) -> int:
    report = run_scenario(load_scenario(_resolve_scenario_path(args.scenario)))
    data = report.to_json()
    _emit(json.dumps(data, indent=2) if args.format == "json" else
          "\n".join([f"converged: {data['converged']}"]
                    + [f"  order {f['order']}: {f['state']}" for f in data["finals"]]), args)
    return EXIT_PASS if report.converged else EXIT_FAIL


def cmd_demo_document(args) -> int:
    tower = build_document_tower()
    print(f"document tower ({len(tower)} components):")
    for name, comp in tower.items():
        kind = "dynamic" if isinstance(comp, ComposedComponent) else "static"
        print(f"  {name:12s} {kind:8s} method families: {len(comp.method_ctors):2d} "
              f"attributes: {len(comp.attributes)}")
    scenario, report = demo_word_scenario(tower)
    data = report.to_json(tower["fword"])
    print("formatted-word concurrent edit:")
    for f in data["finals"]:
        print(f"  order {f['order']}: {f['state']}")
    print(f"  converged: {report.converged}")
    if args.check:
        rep = check_consistency(tower["fchar"], TOWER_BOUNDS)
        print(f"fchar consistency: {rep.verdict} ({rep.cases} cases)")
        if rep.verdict != "pass":
            return EXIT_FAIL
    return EXIT_PASS if report.converged else EXIT_FAIL


def cmd_list(args) -> int:
    names = registry_names()
    print("components:")
    for n in names["components"]:
        print(f"  {n}")
    print("patterns:")
    for n in names["patterns"]:
        print(f"  {n}")
    return EXIT_PASS


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="otcomp",
                                     description="Collaborative-component toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a convergence check")
    p_check.add_argument("expr")
    p_check.add_argument("--property", choices=["cp1", "cp2", "consistency"],
                         required=True)
    for f in _BOUNDS_FLAGS:
        p_check.add_argument("--" + f.replace("_", "-"), type=int)
    p_check.add_argument("--out")
    p_check.add_argument("--format", choices=["json", "text"], default="json")
    p_check.set_defaults(fn=cmd_check)

    p_sim = sub.add_parser("simulate", help="run a scenario file")
    p_sim.add_argument("scenario")
    p_sim.add_argument("--out")
    p_sim.add_argument("--format", choices=["json", "text"], default="json")
    p_sim.set_defaults(fn=cmd_simulate)

    p_demo = sub.add_parser("demo", help="built-in demonstrations")
    demo_sub = p_demo.add_subparsers(dest="demo_target", required=True)
    p_doc = demo_sub.add_parser("document", help="build the document tower")
    p_doc.add_argument("--check", action="store_true")
    p_doc.set_defaults(fn=cmd_demo_document)

    p_list = sub.add_parser("list", help="show registry contents")
    p_list.set_defaults(fn=cmd_list)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (OtcompError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
