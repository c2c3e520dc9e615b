"""Layer probe for the traced run: public otcomp calls on fixed inputs,
timed layer by layer, each timing next to its deterministic count.

Components are keyed as in the per-layer metric names: `cchar`, `string`,
`string-cchar` and `set-guarded-cchar` at DEFAULT_BOUNDS, and the tower
levels `fchar`, `fword`, `fsentence` and `fparagraph` at TOWER_BOUNDS.
Each timing is the median of REPEATS repetitions.
"""

from __future__ import annotations

import statistics
import time

from otcomp import kernel
from otcomp.bounds import DEFAULT_BOUNDS
from otcomp.composition import is_update, transform_update
from otcomp.patterns import check_admissible, string_pattern
from otcomp.registry import build
from otcomp.tower import TOWER_BOUNDS, build_document_tower

from workloads import run_child

REPEATS = 3
COMPS = {"cchar": "cchar", "string": "string",
         "string-cchar": "string[cchar]", "set-guarded-cchar": "set-guarded[cchar]"}
LEVELS = ("fchar", "fword", "fsentence", "fparagraph")

clock = time.perf_counter

IMPORT_CODE = ("import time; t = time.perf_counter(); import otcomp.cli; "
               "print((time.perf_counter() - t) * 1000.0)")


class Probe:
    def __init__(self, tracer, run="probe"):
        self.tracer = tracer
        self.run = run
        self.metrics = {}

    def timed(self, name, fn, *args, **attrs):
        """Median seconds of REPEATS calls of fn(*args), each call a span;
        returns (median, last result)."""
        times = []
        for _ in range(REPEATS):
            t0 = clock()
            result = fn(*args)
            t1 = clock()
            self.tracer.add(name, t0, t1, run=self.run, **attrs)
            times.append(t1 - t0)
        return statistics.median(times), result

    def put(self, name, value, unit):
        self.metrics[name] = (value, unit)

    def components(self):
        b = DEFAULT_BOUNDS
        for key, expr in COMPS.items():
            t, c = self.timed("registry.build", build, expr, b, comp=key)
            self.put(f"registry.build_ms.{key}", t * 1e3, "ms")
            t_sorted, states = self.timed("patterns.enum_states", c.enum_states, b, comp=key)
            t_raw, _ = self.timed("patterns.enum_states_fn", c.enum_states_fn, b, comp=key)
            self.put(f"patterns.enum_states_ms.{key}", t_sorted * 1e3, "ms")
            self.put(f"patterns.states.{key}", len(states), "count")
            self.put(f"values.canon_sort_ms.{key}", (t_sorted - t_raw) * 1e3, "ms")
            self.kernel(key, c, c.enum_methods(b), states)
            if key == "string-cchar":
                self.composition(c, b)

    def kernel(self, key, c, methods, states):
        """Per-call cost over the full method x method and method x state
        enumerations."""
        t_it, _ = self.timed("kernel.transform_all", lambda: [
            kernel.transform(c, m1, m2) for m1 in methods for m2 in methods], comp=key)
        t_en, flags = self.timed("kernel.enabled_all", lambda: [
            kernel.enabled(c, m, st) for m in methods for st in states], comp=key)
        live = [pair for pair, ok in zip(((m, st) for m in methods for st in states), flags)
                if ok]
        t_ap, _ = self.timed("kernel.apply_all", lambda: [
            kernel.apply(c, m, st) for m, st in live], comp=key)
        n_it, n_en = len(methods) ** 2, len(methods) * len(states)
        self.put(f"kernel.transform_ns.{key}", t_it / n_it * 1e9, "ns")
        self.put(f"kernel.enabled_ns.{key}", t_en / n_en * 1e9, "ns")
        self.put(f"kernel.apply_ns.{key}", t_ap / len(live) * 1e9, "ns")
        self.put(f"kernel.calls.{key}", n_it + n_en + len(live), "count")

    def composition(self, c, b):
        updates = [m for m in c.enum_methods(b) if is_update(m)]
        t_new, _ = self.timed("composition.update_new_all",
                              lambda: [c.update_new(u) for u in updates])
        t_tu, _ = self.timed("composition.transform_update_all", lambda: [
            transform_update(c, u1, u2) for u1 in updates for u2 in updates])
        self.put("composition.update_new_ns", t_new / len(updates) * 1e9, "ns")
        self.put("composition.update_new_calls", len(updates), "count")
        self.put("composition.transform_update_ns", t_tu / len(updates) ** 2 * 1e9, "ns")
        self.put("composition.transform_update_calls", len(updates) ** 2, "count")
        self.enum_methods("string-cchar", c, b)

    def enum_methods(self, key, c, b):
        t, methods = self.timed("composition.enum_methods", c.enum_methods, b, comp=key)
        self.put(f"composition.enum_methods_ms.{key}", t * 1e3, "ms")
        self.put(f"composition.methods.{key}", len(methods), "count")

    def tower_levels(self):
        t0 = clock()
        tower = build_document_tower()
        self.tracer.add("tower.build", t0, clock(), run=self.run)
        for key in ("word", "fword"):
            self.enum_methods(key, tower[key], TOWER_BOUNDS)
        for level in LEVELS:
            c = tower[level]
            t_adm, rep = self.timed("patterns.check_admissible", check_admissible,
                                    string_pattern(), c, None, TOWER_BOUNDS, comp=level)
            t_sorted, _ = self.timed("patterns.enum_states", c.enum_states,
                                     TOWER_BOUNDS, comp=level)
            t_raw, _ = self.timed("patterns.enum_states_fn", c.enum_states_fn,
                                  TOWER_BOUNDS, comp=level)
            self.put(f"patterns.check_admissible_ms.{level}", t_adm * 1e3, "ms")
            self.put(f"patterns.states_checked.{level}", rep.states_checked, "count")
            self.put(f"values.canon_sort_ms.{level}", (t_sorted - t_raw) * 1e3, "ms")

    def cli_import(self):
        ms = [float(run_child(["-c", IMPORT_CODE]).split()[-1]) for _ in range(REPEATS)]
        self.put("cli.import_ms", statistics.median(ms), "ms")

    def run_all(self) -> dict:
        self.components()
        self.tower_levels()
        self.cli_import()
        return self.metrics
