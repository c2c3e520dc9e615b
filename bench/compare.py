"""Run every workload and print every metric next to a previous results file.

    python3 bench/compare.py [--trace] [--baseline PATH] [--out PATH]

Each workload runs RUNS times, each run `bench/run.py` in its own process
with seeds 1..RUNS and BENCHMARK.json's run_seconds, as the baseline was
made.  For every end-to-end metric the table shows the median and quartiles
over the runs, the baseline's median and the change.  A second table shows
the same times uncalibrated, with the slowdown the calibration divided out
and the mean calibration slice lengths (see calibrate).  With --trace each
workload also gets one traced run, whose per-layer metrics are printed the
same way.

The results file (default bench/out/results.json) records the git SHA, the
Python version, the CPU count and the platform, every run's result line and
its detail line, with the counts as a digest (kept in full for the first
run).  Exit code 1 means an operation failed its gate, a deterministic
workload's counts differed between runs of this commit, or a run's counts
differ from the baseline's run of the same seed: then the two commits did
different work and their times do not compare (remake the baseline if the
change is intended).  A median worse than the baseline's by more than its
bound is marked WORSE.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DEFAULT_BASELINE = os.path.join(BENCH_DIR, "results", "baseline.json")
DEFAULT_OUT = os.path.join(BENCH_DIR, "out", "results.json")
RUN_TIMEOUT_S = 600
RUNS = 10


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance() -> dict:
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "platform": platform.platform()}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    detail = json.loads(lines[-2])["detail"]
    # Counts are compared by digest; the results file keeps one run's in full.
    counts = detail.pop("counts", None)
    detail["counts_sha256"] = hashlib.sha256(
        json.dumps(counts, sort_keys=True).encode()).hexdigest()
    return {"seed": seed, "trace": trace, "result": json.loads(lines[-1]),
            "detail": detail, "counts": counts}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summary(metric_sets: list) -> dict:
    """Median and quartiles of each metric over runs' {name: {value, unit}}."""
    out = {}
    for name, first in metric_sets[0].items():
        q1, med, q3 = quartiles([m[name]["value"] for m in metric_sets])
        out[name] = {"median": med, "q1": q1, "q3": q3, "unit": first["unit"]}
    return out


def fmt(x: float) -> str:
    return f"{x:.4g}"


def print_table(title: str, current: dict, base: dict, spec_metrics: dict) -> None:
    """`spread` is (q3 - q1) / median; `bound` and `worse` apply to the
    end-to-end metrics, whose bounds BENCHMARK.json fixes."""
    print(f"\n{title}")
    print(f"  {'metric':44s} {'unit':6s} {'median':>11s} {'[q1 .. q3]':>24s} "
          f"{'spread':>7s} {'bound':>6s} {'baseline':>11s} {'change':>8s}")
    for name, s in current.items():
        b = base.get(name)
        m = spec_metrics.get(name)
        spread = (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0
        change = ""
        if b and b["median"]:
            rel = (s["median"] - b["median"]) / abs(b["median"])
            worse = m and (rel > m["bound"] if m["better"] == "lower" else -rel > m["bound"])
            change = f"{rel:+.1%}" + (" WORSE" if worse else "")
        print(f"  {name:44s} {s['unit']:6s} {fmt(s['median']):>11s} "
              f"{'[' + fmt(s['q1']) + ' .. ' + fmt(s['q3']) + ']':>24s} "
              f"{spread:>7.1%} {m['bound'] if m else '':>6} "
              f"{fmt(b['median']) if b else '-':>11s} {change:>8s}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--baseline", default=DEFAULT_BASELINE)
    ap.add_argument("--out", default=DEFAULT_OUT)
    args = ap.parse_args(argv)

    bench = spec()
    seconds = bench["run_seconds"]
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    baseline = {}
    if os.path.exists(args.baseline):
        with open(args.baseline) as f:
            baseline = json.load(f)

    results = {"provenance": provenance(), "seconds": seconds, "runs": RUNS,
               "workloads": {}}
    print("provenance: " + json.dumps(results["provenance"]))
    if baseline:
        print(f"baseline:   {args.baseline} " + json.dumps(baseline["provenance"]))
    ok = True
    for w in (w["name"] for w in bench["workloads"]):
        runs = [run_once(w, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        entry = {"counts": runs[0]["counts"], "runs": runs,
                 "summary": summary([r["result"]["metrics"] for r in runs]),
                 "uncalibrated": summary([r["detail"]["uncalibrated"] for r in runs])}
        for r in runs:
            del r["counts"]
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        entry["ops_failed_frac"] = failed / attempted
        # Only simulate-mix draws its inputs from the seed; the others must
        # count the same work on every run.
        seed_free = w != "simulate-mix"
        digests = {r["detail"]["counts_sha256"] for r in runs}
        entry["counts_repeat"] = len(digests) == 1 if seed_free else None
        if args.trace:
            traced = [run_once(w, 1, seconds, 1)]
            del traced[0]["counts"]
            entry["traced"] = traced
            entry["per_layer"] = summary([traced[0]["result"]["metrics"]])
        results["workloads"][w] = entry

        base = baseline.get("workloads", {}).get(w, {})
        print_table(f"{w}: {RUNS} runs x {seconds:g} s, "
                    f"ops_failed_frac {entry['ops_failed_frac']:.3g} "
                    f"({failed} of {attempted})",
                    entry["summary"], base.get("summary", {}), end_to_end)
        print_table(f"{w}: the same times as measured, the slowdown that calibration "
                    f"divided out, and mean slice lengths",
                    entry["uncalibrated"], base.get("uncalibrated", {}), {})
        base_counts = {r["seed"]: r["detail"]["counts_sha256"] for r in base.get("runs", [])}
        same = [r["detail"]["counts_sha256"] == base_counts[r["seed"]]
                for r in runs if r["seed"] in base_counts]
        notes = [("same as" if all(same) else "DIFFER from") + " the baseline's seeds"
                 if same else "no baseline"]
        ok = ok and all(same)
        if seed_free:
            notes.insert(0, ("repeat" if entry["counts_repeat"] else "DIFFER") + " across runs")
            ok = ok and entry["counts_repeat"]
        print("  counts: " + "; ".join(notes))
        if args.trace:
            print_table(f"{w}: per-layer (traced run, seed 1)", entry["per_layer"],
                        base.get("per_layer", {}), {})
        ok = ok and failed == 0

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(results, f, indent=1)
        f.write("\n")
    print(f"\nresults written to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
