"""The benchmark's own smoke test.

    python3 bench/smoke.py

Runs each workload at its minimum length and one traced run, checking each
result line against BENCHMARK.json; checks that a seed repeats its counts;
plants faults (a tampered witness, a wrong verdict, a wrong convergence flag)
and checks that each counts as a failed operation; and checks that the
benchmark refuses to run without the program.  Takes about two minutes.
Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SCRATCH = os.path.join(BENCH_DIR, "out", "smoke")
sys.path.insert(0, os.path.join(ROOT, "src"))

failures = []


def check(ok: bool, what: str) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(args: list, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("bench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(args: list):
    proc = bench(args)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0 and len(lines) >= 2,
          f"run.py {' '.join(args)} exits 0 with a result line")
    if proc.returncode != 0 or len(lines) < 2:
        print(proc.stderr[-2000:])
        return None, None
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def check_result(res: dict, declared: list, label: str) -> None:
    check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
          f"{label}: correct, {res['failed']} of {res['attempted']} failed")
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    check(got == want, f"{label}: metric names and units match BENCHMARK.json")
    bad = [k for k, v in res["metrics"].items()
           if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
    check(not bad, f"{label}: every value is a finite number {bad}")


def workload_runs(spec: dict) -> None:
    print("each workload at its minimum length")
    for w in spec["workloads"]:
        res, _ = result_of(["--workload", w["name"], "--seed", "1",
                            "--seconds", "1", "--trace", "0"])
        if res:
            check_result(res, spec["end_to_end"], w["name"])
            check(all(v["value"] > 0 for v in res["metrics"].values()),
                  f"{w['name']}: every end-to-end value is above 0")


def traced_run(spec: dict) -> None:
    print("one traced run")
    res, _ = result_of(["--workload", "check-small-fleet", "--seed", "1",
                        "--seconds", "1", "--trace", "1"])
    if res:
        check_result(res, spec["per_layer"], "traced check-small-fleet")
        cover = res["metrics"]["checker.parts_cover"]["value"]
        check(0.95 <= cover <= 1.0, f"checker part spans cover the check: {cover:.4f}")


def seed_repeats() -> None:
    print("a seed repeats its counts")
    runs = [result_of(["--workload", "simulate-mix", "--seed", "7",
                       "--seconds", "1", "--trace", "0"])[1] for _ in range(2)]
    if all(runs):
        check(runs[0]["counts"] == runs[1]["counts"], "simulate-mix seed 7 twice: same counts")


def planted_faults() -> None:
    print("planted faults count as failed operations")
    import gate
    import run
    import workloads
    from otcomp.bounds import DEFAULT_BOUNDS
    from otcomp.checker import check_consistency
    from otcomp.registry import build
    from tracing import NullTracer

    c = build("string")
    data = check_consistency(c, DEFAULT_BOUNDS).to_json()
    check(gate.check_report_problems(c, DEFAULT_BOUNDS, data) == [],
          "untouched string report passes the gate")
    for label, tamper in [
        ("tampered witness", lambda d: d["witnesses"][0].update(left=d["witnesses"][0]["right"])),
        ("wrong verdict", lambda d: d.update(verdict="pass")),
        ("realizable witness filed as unrealizable",
         lambda d: d["witnesses"][0].update(realizable=False)),
    ]:
        bad = json.loads(json.dumps(data))
        tamper(bad)
        check(gate.check_report_problems(c, DEFAULT_BOUNDS, bad) != [], f"gate rejects a {label}")

    real_check, real_run = workloads.check_consistency, workloads.run_scenario

    def flip_verdict(comp, b=DEFAULT_BOUNDS):
        rep = real_check(comp, b)
        if rep.verdict == "fail":
            rep.verdict = "pass"
        return rep

    def flip_converged(scenario, component=None):
        rep = real_run(scenario, component=component)
        rep.converged = not rep.converged
        return rep

    fleet = workloads.WORKLOADS["check-small-fleet"]
    p = fleet.run_pass(fleet.prepare(1), 0, NullTracer())
    failing = sum(counts["verdict"] == "fail" for counts in p.counts.values())
    check(p.failed == 0 and failing >= 1,
          f"untouched fleet passes the gate with {failing} failing checks")
    try:
        workloads.check_consistency = flip_verdict
        p = fleet.run_pass(fleet.prepare(1), 0, NullTracer())
        attempted, failed, _ = run.summarize([p])
        # Each check whose verdict is fail is now reported as pass.
        check(failed == failing >= 1 and attempted == len(fleet.checks),
              f"fleet with flipped verdicts: {failed} of {attempted} failed")
        workloads.run_scenario = flip_converged
        sim = workloads.WORKLOADS["simulate-mix"]
        p = sim.run_pass(sim.prepare(1), 0, NullTracer())
        attempted, failed, _ = run.summarize([p])
        check(failed == attempted > 0,
              f"simulate-mix with flipped convergence: {failed} of {attempted} failed")
    finally:
        workloads.check_consistency, workloads.run_scenario = real_check, real_run


def without_program() -> None:
    print("without the program the benchmark refuses to run")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), SCRATCH)
    shutil.copytree(BENCH_DIR, os.path.join(SCRATCH, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(["--workload", "simulate-mix", "--seed", "1", "--seconds", "1",
                  "--trace", "0"], cwd=SCRATCH)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"exit {proc.returncode}, no result line")
    shutil.rmtree(SCRATCH, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workload_runs(spec)
    traced_run(spec)
    seed_repeats()
    planted_faults()
    without_program()
    print(f"\n{len(failures)} failed" if failures else "\nall smoke checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
