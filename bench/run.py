"""otcomp benchmark: one workload run, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; otcomp is imported from `src`.  Workloads
and metrics are described in BENCHMARK.json and bench/README.md.

With --trace 0 the run measures set-up in fresh interpreters, then repeats
passes of the workload until S seconds have passed, and reports the
end-to-end metrics.  With --trace 1 it records spans instead and reports the
per-layer metrics (see `traced_run`).  Either way the last line of standard
output is {"correct", "attempted", "failed", "metrics"}; the line before it
is {"detail": ...} with the deterministic counts of the first pass, the
gate's first problems and, untraced, the timed metrics as measured before
calibration (see calibrate).  Exit code 0 means the run completed, whether
or not every operation passed the gate; 2 means it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import calibrate
from tracing import NullTracer, Tracer, duration, layer_self_ms, self_times

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_SAMPLES = 11
PART_NAMES = ("CP1", "CP2", "CP1-updates", "CP1-container", "CP1-cross",
              "CP2-updates", "CP2-container", "CP2-cross")
LAYERS = ("kernel", "composition", "patterns", "values", "checker",
          "simulator", "registry", "tower", "cli")


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def p99(xs):
    if len(xs) < 2:
        return median(xs)
    return statistics.quantiles(xs, n=100, method="inclusive")[98]


def measure_setup(wl) -> tuple:
    """Median seconds, at reference speed and as measured, from spawning a
    fresh interpreter until it has imported otcomp and built the workload's
    components."""
    from workloads import run_child
    samples = []
    for _ in range(SETUP_SAMPLES):
        calibrate.reset()
        calibrate.edge("setup")
        t0 = time.monotonic()
        ready = float(run_child(wl.setup_argv()).split()[-1])
        calibrate.edge("setup")
        samples.append((ready - t0, calibrate.scale_all()))
    return median([t * k for t, k in samples]), median([t for t, _ in samples])


def measured_pass(wl, inputs, index, tracer, sample=True):
    """One pass, calibrated: slices at both ends and, for in-process work
    when `sample` is set, while it runs; its operations are brought to
    reference speed."""
    calibrate.reset()
    calibrate.edge()
    if wl.in_process and sample:
        with calibrate.sampling():
            p = wl.run_pass(inputs, index, tracer)
    else:
        p = wl.run_pass(inputs, index, tracer)
    calibrate.edge()
    p.finish()
    return p


def loop(wl, inputs, seconds, tracer) -> list:
    """Closed loop of passes until `seconds` have passed, at least one pass.
    A pass is not started when the previous one says it would overrun.
    Deterministic workloads (all but simulate-mix, which draws new scenarios
    per pass) must repeat the first pass's counts exactly; a differing
    operation counts as failed.  Later passes keep no counts."""
    passes = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        p = measured_pass(wl, inputs, len(passes), tracer)
        if passes:
            if wl.name != "simulate-mix":
                for key, counts in p.counts.items():
                    if passes[0].counts.get(key) != counts:
                        p.failed += 1
                        p.problems.append(f"{key}: counts {counts} differ from the "
                                          f"first pass's {passes[0].counts.get(key)}")
            p.counts = {}
        passes.append(p)
        now = time.perf_counter()
        if now - t_start + (now - t0) > seconds:
            return passes


def self_rss_mb() -> float:
    from workloads import peak_rss_mb
    return peak_rss_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def summarize(passes):
    return (sum(p.attempted for p in passes), sum(p.failed for p in passes),
            [msg for p in passes for msg in p.problems])


def timings(passes, which: str, setup_s: float) -> dict:
    """Timed end-to-end metrics from the passes' times, `which` being
    "at_reference" or "measured"."""
    done = [p for p in passes if p.measured.op_s]
    times = [getattr(p, which) for p in done]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (median([t.wall_s for t in times]), "s"),
        "verdict_s": (median([t.verdict_s for t in times]), "s"),
        "emit_s": (median([t.emit_s for t in times]), "s"),
        "cases_per_s": (median([p.cases / t.verdict_s for p, t in zip(done, times)]), "1/s"),
        # The median of per-pass medians: a fleet pass mixes eight checks of
        # very different sizes, and the median of all its operations would
        # sit on the edge between two of them.
        "op_p50_ms": (median([median(t.op_s) * 1e3 for t in times]), "ms"),
        "op_p99_ms": (p99([x * 1e3 for t in times for x in t.op_s]), "ms"),
    }


def untraced_run(name, seed, seconds):
    from workloads import WORKLOADS
    wl = WORKLOADS[name]
    setup_s, setup_measured_s = measure_setup(wl)
    inputs = wl.prepare(seed)
    passes = loop(wl, inputs, seconds, NullTracer())
    attempted, failed, problems = summarize(passes)

    rss = max(p.peak_rss_mb for p in passes) or self_rss_mb()
    metrics = timings(passes, "at_reference", setup_s)
    metrics["peak_rss_mb"] = (rss, "MB")
    # The same times as measured, with what the calibration saw, so that
    # its part in any comparison can be checked.
    measured = timings(passes, "measured", setup_measured_s)
    measured["slowdown"] = (measured["wall_s"][0] / metrics["wall_s"][0], "x")
    for kind, ms in calibrate.slice_ms().items():
        if ms is not None:
            measured[f"slice_ms.{kind}"] = (ms, "ms")
    detail = {"workload": name, "seed": seed, "passes": len(passes),
              "ops": sum(len(p.measured.op_s) for p in passes),
              "ops_failed_frac": failed / attempted if attempted else 1.0,
              "uncalibrated": {k: {"value": v, "unit": u} for k, (v, u) in measured.items()},
              "counts": passes[0].counts, "problems": problems[:20]}
    return attempted, failed, metrics, detail


def traced_run(name, seed, seconds):
    """Per-layer metrics.  The selected workload alternates untraced and
    traced passes for `seconds` (at least one pair); the difference of their
    median pass times is the tracing overhead.  Then every other workload runs
    one traced pass, and the layer probe runs, so that each named per-layer
    metric is measured: metrics named after a workload come from that
    workload's first traced pass, the rest from the probe."""
    from workloads import WORKLOADS
    from probe import Probe
    tracer = Tracer()
    inputs = {n: wl.prepare(seed) for n, wl in WORKLOADS.items()}
    wl = WORKLOADS[name]
    untraced, traced = [], []
    t_start = time.perf_counter()
    # No slices inside traced passes: the checker's own part times would
    # include them, and the spans would not.
    while not untraced or time.perf_counter() - t_start < seconds:
        untraced.append(measured_pass(wl, inputs[name], 2 * len(untraced), NullTracer(),
                                      sample=False))
        traced.append(measured_pass(wl, inputs[name], 2 * len(traced) + 1, tracer,
                                    sample=False))
    first = {name: 1}
    all_passes = untraced + traced
    for other, owl in WORKLOADS.items():
        if other != name:
            all_passes.append(measured_pass(owl, inputs[other], 0, tracer, sample=False))
            first[other] = 0
    probe = Probe(tracer).run_all()

    attempted, failed, problems = summarize(all_passes)
    overhead = (median([p.at_reference.wall_s for p in traced])
                - median([p.at_reference.wall_s for p in untraced]))
    metrics = layer_metrics(tracer, first, probe, overhead)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json"))
    detail = {"workload": name, "seed": seed, "trace": True,
              "spans": len(tracer.spans), "problems": problems[:20]}
    return attempted, failed, metrics, detail


def layer_metrics(tracer, first, probe, overhead) -> dict:
    runs = {n: tracer.select(f"{n}/{i}/") for n, i in first.items()}
    checks = runs["check-string-cchar"] + runs["check-small-fleet"]
    m = {}

    for part in PART_NAMES:
        spans = [s for s in checks if s["name"] == f"checker.part.{part}"]
        cases = sum(s["attrs"]["cases"] for s in spans)
        examined = sum(s["attrs"]["examined"] for s in spans)
        m[f"checker.part_ms.{part}"] = (sum(map(duration, spans)) * 1e3, "ms")
        m[f"checker.cases.{part}"] = (cases, "count")
        m[f"checker.examined.{part}"] = (examined, "count")
        m[f"checker.useful_ratio.{part}"] = (cases / examined if examined else 0.0, "ratio")
        if part.startswith("CP2"):
            failing = sum(s["attrs"]["witnesses"] + s["attrs"]["unrealizable"] for s in spans)
            m[f"checker.cp2_failing.{part}"] = (failing, "count")
    whole = [s for s in checks if s["name"] == "checker.check_consistency"]
    m["checker.witnesses"] = (sum(s["attrs"]["witnesses"] for s in whole), "count")
    m["checker.unrealizable"] = (sum(s["attrs"]["unrealizable"] for s in whole), "count")
    big = runs["check-string-cchar"]
    selfs = self_times(big)
    part_self = sum(selfs[s["id"]] for s in big if s["name"].startswith("checker.part."))
    verdict = sum(duration(s) for s in big if s["name"] == "checker.check_consistency")
    m["checker.parts_cover"] = (part_self / verdict, "ratio")

    for n, spans in runs.items():
        emits = [s for s in spans if s["name"] == "values.report_to_json"]
        m[f"values.report_to_json_ms.{n}"] = (sum(map(duration, emits)) * 1e3, "ms")
        m[f"values.report_bytes.{n}"] = (sum(s["attrs"]["bytes"] for s in emits), "bytes")

    sim = runs["simulate-mix"]
    scenarios = [s for s in sim if s["name"] == "simulator.run_scenario"]
    emits = [s for s in sim if s["name"] == "values.report_to_json"]
    orders = sum(s["attrs"]["orders"] for s in scenarios)
    busy = sum(map(duration, scenarios))
    m["simulator.scenarios"] = (len(scenarios), "count")
    m["simulator.orders"] = (orders, "count")
    m["simulator.run_scenario_us"] = (busy / len(scenarios) * 1e6, "us")
    m["simulator.us_per_order"] = (busy / orders * 1e6, "us")
    m["simulator.report_to_json_us"] = (sum(map(duration, emits)) / len(emits) * 1e6, "us")

    tower = {s["name"]: duration(s) for s in runs["tower-demo"]}
    m["tower.build_s"] = (tower["tower.build"], "s")
    m["tower.demo_ms"] = (tower["tower.demo"] * 1e3, "ms")
    m["tower.fchar_check_ms"] = (tower["checker.check_consistency"] * 1e3, "ms")

    m.update(probe)

    layer = layer_self_ms([s for spans in runs.values() for s in spans]
                          + tracer.select("probe"))
    for name in LAYERS:
        m[f"self_ms.{name}"] = (layer.get(name, 0.0), "ms")
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "otcomp", "__init__.py")):
        print("error: src/otcomp not found; run from the root of an otcomp checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    run = traced_run if args.trace else untraced_run
    attempted, failed, metrics, detail = run(args.workload, args.seed, args.seconds)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
