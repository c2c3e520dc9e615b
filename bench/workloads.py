"""The benchmark's four workloads.

Each workload is a closed loop with one caller: the next operation starts when
the previous one returns.  An operation is one check, one scenario or one
tower invocation.  A pass is the workload's fixed unit of work, repeated
until the run's time is up:

- check-string-cchar: one `string[cchar]` consistency check;
- check-small-fleet: eight small checks, each component built anew;
- simulate-mix: a batch of generated scenarios, new ones in every pass;
- tower-demo: one fresh-process document-tower invocation.

Only the operation itself is timed: building, checking and emitting for a
check, running and emitting for a scenario, the whole process for a tower
invocation.  Input generation and the correctness gate are outside the
timed regions.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field

from otcomp import kernel
from otcomp.bounds import DEFAULT_BOUNDS
from otcomp.checker import check_consistency
from otcomp.registry import build
from otcomp.simulator import Scenario, run_scenario
from otcomp.values import Method

import calibrate
import gate
from calibrate import clock

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TOWER_CHILD = os.path.join(BENCH_DIR, "tower_child.py")
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list) -> str:
    """Run a Python child in the checkout and return its stdout."""
    proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv[:2]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return proc.stdout


def peak_rss_mb(ru_maxrss: int) -> float:
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    return ru_maxrss / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


# Measured in a fresh interpreter: start until otcomp is imported and the
# workload's components are built.  argv[1] is the JSON list of
# [expression, bounds overrides] to build.
SETUP_CODE = """\
import json, sys, time
import {module}
from otcomp.bounds import DEFAULT_BOUNDS
from otcomp.registry import build
for expr, kw in json.loads(sys.argv[1]):
    build(expr, DEFAULT_BOUNDS.with_(**kw))
print(time.monotonic())
"""


@dataclass
class Op:
    key: str                 # which operation within the pass
    span: tuple              # (start, end) of the timed region on calibrate.clock()
    verdict: tuple           # (start, end) of its verdict part
    emit: tuple              # (start, end) of its emission part
    cases: int
    counts: dict
    problems: list
    # ((measured seconds, scale) for wall, verdict and emit), for an
    # operation that calibrated itself; otherwise scaled by nearby slices.
    calibrated: tuple = ()
    peak_rss_mb: float = 0.0  # of a child process that ran the operation


@dataclass
class Times:
    """A pass's seconds: wall, verdict and emit time, and each operation's
    wall time (kept compact: its size shows in peak_rss_mb)."""
    wall_s: float = 0.0
    verdict_s: float = 0.0
    emit_s: float = 0.0
    op_s: array = field(default_factory=lambda: array("d"))

    def add(self, wall: float, verdict: float, emit: float) -> None:
        self.wall_s += wall
        self.verdict_s += verdict
        self.emit_s += emit
        self.op_s.append(wall)


@dataclass
class Pass:
    """One pass: its times at reference speed (see calibrate) and as
    measured, its counts and its gate's verdicts."""
    at_reference: Times = field(default_factory=Times)
    measured: Times = field(default_factory=Times)
    cases: int = 0
    counts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    pending: list = field(default_factory=list)

    def attempt(self, key: str, fn, *args) -> None:
        """Run one operation; one that raises counts as failed and the loop goes on."""
        self.attempted += 1
        try:
            op = fn(*args)
        except Exception as exc:  # the benchmark must report failures, not stop at them
            self.failed += 1
            self.problems.append(f"{key}: {exc!r}")
            return
        self.pending.append(op)
        self.counts[op.key] = op.counts
        self.peak_rss_mb = max(self.peak_rss_mb, op.peak_rss_mb)
        if op.problems:
            self.failed += 1
            self.problems += [f"{op.key}: {msg}" for msg in op.problems]

    def finish(self) -> None:
        """Scale each operation by the calibration slices nearest to it;
        call once the pass's slices are all taken."""
        for op in self.pending:
            times = op.calibrated or [(end - start, calibrate.scale(start, end))
                                      for start, end in (op.span, op.verdict, op.emit)]
            self.at_reference.add(*(t * k for t, k in times))
            self.measured.add(*(t for t, _ in times))
            self.cases += op.cases
        self.pending = []


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_op(expr: str, overrides: dict, tracer, run: str) -> Op:
    b = DEFAULT_BOUNDS.with_(**overrides)
    t0 = clock()
    c = build(expr, b)
    t1 = clock()
    rep = check_consistency(c, b)
    t2 = clock()
    data = rep.to_json()
    json.dumps(data, indent=2)  # the text `otcomp check` prints
    t3 = clock()
    # elapsed_ms varies in width; the byte count is of the masked report.
    size = len(json.dumps(rep.to_json(mask_elapsed=True), indent=2))
    op = tracer.add("bench.check", t0, t3, run=run, expr=expr)
    tracer.add("registry.build", t0, t1, op, run, comp=expr)
    chk = tracer.add("checker.check_consistency", t1, t2, op, run, comp=expr,
                     cases=rep.cases, witnesses=len(rep.witnesses),
                     unrealizable=len(rep.unrealizable))
    tracer.add_parts(rep.parts, t1, chk, run)
    tracer.add("values.report_to_json", t2, t3, op, run, bytes=size)

    problems = gate.check_report_problems(c, b, data)
    counts = {
        "verdict": rep.verdict, "cases": rep.cases, "examined": rep.examined,
        "witnesses": len(rep.witnesses), "unrealizable": len(rep.unrealizable),
        "states": len(c.enum_states(b)), "methods": len(c.enum_methods(b)),
        "report_bytes": size,
        "parts": {p.property: [p.cases, p.examined, len(p.witnesses),
                               len(p.unrealizable)] for p in rep.parts},
    }
    return Op(expr, (t0, t3), (t1, t2), (t2, t3), rep.cases, counts, problems)


class CheckWorkload:
    module = "otcomp.cli"   # `otcomp check` imports the CLI module
    in_process = True

    def __init__(self, name, checks):
        self.name = name
        self.checks = checks  # [(expression, bounds overrides)]

    def setup_argv(self) -> list:
        return ["-c", SETUP_CODE.format(module=self.module), json.dumps(self.checks)]

    def prepare(self, seed: int):
        # The checks are the inputs; the seed has nothing to vary.  Their
        # order stays fixed because it moves the small checks' times.
        return self.checks

    def run_pass(self, checks, index: int, tracer) -> Pass:
        p = Pass()
        for expr, overrides in checks:
            p.attempt(expr, check_op, expr, overrides, tracer,
                      f"{self.name}/{index}/{expr}")
        return p


# ---------------------------------------------------------------------------
# Simulator
# ---------------------------------------------------------------------------

SIM_COMPONENTS = ("string[cchar]", "set-guarded[cchar]", "cchar (+) cnat (+) ccolor")
SIM_BATCH = 400
SIM_SITES = (1, 2, 3, 4)


def scenario_op(c, base, ops, tracer, run: str) -> Op:
    scenario = Scenario(component=c, base=base, ops=ops, delivery="all")
    t0 = clock()
    rep = run_scenario(scenario, component=c)
    t1 = clock()
    data = rep.to_json(c)
    t2 = clock()
    size = len(json.dumps(data))
    op = tracer.add("bench.scenario", t0, t2, run=run)
    tracer.add("simulator.run_scenario", t0, t1, op, run, orders=len(rep.finals))
    tracer.add("values.report_to_json", t1, t2, op, run, bytes=size)
    problems = gate.scenario_problems(c, base, ops, rep, data)
    counts = [len(ops), len(rep.finals), rep.converged, rep.fully_legal, size]
    return Op(run, (t0, t2), (t0, t1), (t1, t2), len(rep.finals), counts, problems)


class SimulateWorkload:
    name = "simulate-mix"
    module = "otcomp"       # the library path
    in_process = True

    def setup_argv(self) -> list:
        return ["-c", SETUP_CODE.format(module=self.module),
                json.dumps([[e, {}] for e in SIM_COMPONENTS])]

    def prepare(self, seed: int):
        comps = []
        for expr in SIM_COMPONENTS:
            c = build(expr)
            states = c.enum_states(DEFAULT_BOUNDS)
            methods = [m for m in c.enum_methods(DEFAULT_BOUNDS) if m.ctor != "nop"]
            live = [[m for m in methods if kernel.enabled(c, m, st)] for st in states]
            comps.append((c, states, live))
        return seed, comps

    @staticmethod
    def scenarios(inputs, index: int) -> list:
        """A pass's batch: 2 to 4 ops enabled on a random enumerated base,
        issued from distinct sites.  Untimed; depends only on seed and index."""
        seed, comps = inputs
        rng = random.Random(seed * 1_000_003 + index)
        out = []
        for _ in range(SIM_BATCH):
            c, states, live = rng.choice(comps)
            si = rng.randrange(len(states))
            sites = rng.sample(SIM_SITES, rng.randint(2, 4))
            ops = [(s, Method(m.ctor, m.args, s))
                   for s, m in zip(sites, (rng.choice(live[si]) for _ in sites))]
            out.append((c, states[si], ops))
        return out

    def run_pass(self, inputs, index: int, tracer) -> Pass:
        p = Pass()
        for k, (c, base, ops) in enumerate(self.scenarios(inputs, index)):
            p.attempt(str(k), scenario_op, c, base, ops, tracer,
                      f"{self.name}/{index}/{k}")
        return p


# ---------------------------------------------------------------------------
# Document tower
# ---------------------------------------------------------------------------

class TowerWorkload:
    name = "tower-demo"
    module = "otcomp.cli"   # `otcomp demo document` imports the CLI module
    in_process = False

    def setup_argv(self) -> list:
        return ["-c", SETUP_CODE.format(module=self.module), "[]"]

    def prepare(self, seed: int):
        return None

    def run_pass(self, _inputs, index: int, tracer) -> Pass:
        p = Pass()
        p.attempt("tower", self._invoke, tracer, f"{self.name}/{index}/tower")
        return p

    @staticmethod
    def _invoke(tracer, run: str) -> Op:
        argv = [TOWER_CHILD] + (["--trace"] if tracer.enabled else [])
        t0 = clock()
        out = run_child(argv)
        t1 = clock()
        res = json.loads(out.strip().splitlines()[-1])
        calibrate.add_totals(res["slices"])
        op = tracer.add("bench.tower", t0, t1, run=run)
        # Child timestamps are on its own clock; `offset` maps them through
        # the shared monotonic clock onto ours.
        shift = res["offset"] - (time.monotonic() - clock())
        ids = {}
        for s in res["spans"]:
            parent = op if s["parent"] is None else ids[s["parent"]]
            ids[s["id"]] = tracer.add(s["name"], s["start"] + shift, s["end"] + shift,
                                      parent, run, **s["attrs"])
        # The child calibrates itself; its slices are taken out of the wall
        # time, which is scaled by all of them.
        wall = (t1 - t0 - res["calibration_s"], res["scale"])
        return Op("tower", (t0, t1), (), (), res["cases"], res["counts"], res["problems"],
                  (wall, tuple(res["verdict"]), tuple(res["emit"])), res["peak_rss_mb"])


WORKLOADS = {
    "check-string-cchar": CheckWorkload("check-string-cchar", [["string[cchar]", {}]]),
    "check-small-fleet": CheckWorkload("check-small-fleet", [
        ["cchar", {}], ["cnat", {}], ["ccolor", {}], ["set-guarded", {}],
        ["set-literal", {"universe": 1}], ["string", {}],
        ["set-guarded[cchar]", {}], ["cchar (+) cnat (+) ccolor", {}]]),
    "simulate-mix": SimulateWorkload(),
    "tower-demo": TowerWorkload(),
}
