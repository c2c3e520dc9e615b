"""One tower-demo invocation in a fresh interpreter: the work of
`otcomp demo document --check`, timed and calibrated from inside, and gated.

Run by the tower-demo workload as `python3 bench/tower_child.py [--trace]`
with `src` on PYTHONPATH.  Prints one JSON line with measured timings, their
calibration scales, counts, the gate's problems and, with --trace, the spans
it recorded.
"""

import time

t_import = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from otcomp.checker import check_consistency  # noqa: E402
import otcomp.cli  # noqa: F401,E402  loaded by `otcomp demo` too
from otcomp.tower import TOWER_BOUNDS, build_document_tower, demo_word_scenario  # noqa: E402

import calibrate  # noqa: E402
import gate  # noqa: E402
from calibrate import clock  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

t_imported = time.perf_counter()


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def main() -> None:
    traced = "--trace" in sys.argv[1:]
    tracer = Tracer() if traced else NullTracer()
    calibrate.edge()
    # Traced runs take no slices inside the work (see run.traced_run).
    with contextlib.nullcontext() if traced else calibrate.sampling():
        t0 = clock()
        tower = build_document_tower()
        t1 = clock()
        _scenario, report = demo_word_scenario(tower)
        t2 = clock()
        rep = check_consistency(tower["fchar"], TOWER_BOUNDS)
        t3 = clock()
        demo_text = json.dumps(report.to_json(tower["fword"]), indent=2)
        data = rep.to_json()
        json.dumps(data, indent=2)  # the text `otcomp check` prints
        t4 = clock()
    calibrate.edge()

    tracer.add("cli.import", t_import, t_imported)
    tracer.add("tower.build", t0, t1, components=len(tower))
    tracer.add("tower.demo", t1, t2, orders=len(report.finals))
    chk = tracer.add("checker.check_consistency", t2, t3, comp="fchar",
                     cases=rep.cases, witnesses=len(rep.witnesses),
                     unrealizable=len(rep.unrealizable))
    tracer.add_parts(rep.parts, t2, chk, None)
    # elapsed_ms varies in width; the byte count is of the masked report.
    size = len(demo_text) + len(json.dumps(rep.to_json(mask_elapsed=True), indent=2))
    tracer.add("values.report_to_json", t3, t4, bytes=size)

    problems = []
    if len(tower) != 9:
        problems.append(f"tower has {len(tower)} levels, not 9")
    if not (report.converged and report.fully_legal):
        problems.append("demo word scenario did not converge fully legally")
    if rep.verdict != "pass":
        problems.append(f"fchar consistency verdict {rep.verdict!r}, not pass")
    problems += gate.check_report_problems(tower["fchar"], TOWER_BOUNDS, data)

    print(json.dumps({
        # Measured seconds and the scale to reference speed (see calibrate),
        # from the slices nearest each part.
        "verdict": [t3 - t1, calibrate.scale(t1, t3)],
        "emit": [t4 - t3, calibrate.scale(t3, t4)],
        "cases": rep.cases + len(report.finals),
        "counts": {"levels": len(tower), "fchar_cases": rep.cases,
                   "fchar_examined": rep.examined, "demo_orders": len(report.finals),
                   "fword_methods": len(tower["fword"].enum_methods(TOWER_BOUNDS)),
                   "report_bytes": size},
        "problems": problems,
        "peak_rss_mb": peak_rss_mb(),
        "scale": calibrate.scale_all(),
        "calibration_s": calibrate.spent(),
        "slices": calibrate.totals(),
        "offset": time.monotonic() - clock(),
        "spans": tracer.spans,
    }))


if __name__ == "__main__":
    main()
