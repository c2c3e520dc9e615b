"""Machine-speed calibration for hosts whose cores are shared.

On a small virtual machine the same pure-Python loop can run 1.5 times slower
for seconds to minutes at a time while other tenants load the host.  Whole
runs shift with it, by more than the differences the benchmark exists to
see, and process CPU time shifts as much as wall time.  So the benchmark
times a fixed calibration slice densely alongside the work and reports each
operation at reference speed:

    reported = measured * REF_SLICE_S / mean(durations of the nearest slices)

The mean, not the median: a region's time integrates the slowdown over the
region, bursts included.  Slices are taken at both ends of every pass and,
for in-process work, every INTERVAL_S from a SIGALRM handler while the pass
runs.  Each operation is scaled by the slices nearest to it, since the
host's speed also changes within a second.  `clock()` excludes the time
spent in handler slices, so timed regions do not include them.

Slices run in the workload's process, between its bytecodes, so that they
run on the core the work runs on.  The process's heap and caches could still
lengthen a slice, so each slice is run once untimed and then timed: the
untimed run brings the slice's data back into the caches and frees exactly
the blocks the timed run then allocates.  On a 2-vCPU Xeon virtual machine,
a 1.5-million-object heap walked for 25 ms between slices moved the timed
run by under 1 %.  To keep that checkable, the mean slice length is kept
separately for slices at the ends of passes and inside them (`slice_ms`);
the run's detail line reports both next to the uncalibrated times.  Signals
are process-wide, hence the module-level state.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# Nominal duration of one slice: about its length on the 2-vCPU Xeon virtual
# machine the benchmark was sized on, when that host ran at its usual speed.
# A unit choice only: it cancels in any comparison.
REF_SLICE_S = 0.0014
INTERVAL_S = 0.025
EDGE_SLICES = 3
NEAREST = 5

_stolen = 0.0
_spent = 0.0
_samples: list = []  # (clock() at start, duration) since reset()
# kind -> [seconds, slices]: at set-up, at the ends of passes, inside them
_totals = {"setup": [0.0, 0], "edge": [0.0, 0], "in_pass": [0.0, 0]}


def _work() -> int:
    d: dict = {}
    acc = 0
    for i in range(1500):
        k = (i % 61, i % 7, "k%d" % (i % 13))
        d[k] = d.get(k, 0) + i
        acc += i * i % 11
    return sorted(d.items())[0][1] + acc


def take_slice(kind: str) -> None:
    global _spent
    t_in = time.perf_counter()
    # A collection the slice's allocations would trigger belongs to the
    # workload, which pays for it at its next allocation instead.
    collecting = gc.isenabled()
    gc.disable()
    _work()  # untimed: see the module's docstring
    t0 = time.perf_counter()
    _work()
    d = time.perf_counter() - t0
    if collecting:
        gc.enable()
    _samples.append((t0 - _stolen, d))
    _totals[kind][0] += d
    _totals[kind][1] += 1
    _spent += time.perf_counter() - t_in


def edge(kind: str = "edge") -> None:
    for _ in range(EDGE_SLICES):
        take_slice(kind)


def clock() -> float:
    """perf_counter without the time spent in handler slices."""
    return time.perf_counter() - _stolen


def spent() -> float:
    """Seconds spent in slices so far, at edges and in the handler."""
    return _spent


def _on_alarm(signum, frame) -> None:
    global _stolen
    t0 = time.perf_counter()
    take_slice("in_pass")
    _stolen += time.perf_counter() - t0


class sampling:
    """Take a slice every INTERVAL_S while the block runs.  Use only around
    in-process work: a handler slice during a child process would compete
    with the child."""

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False


def scale(t_from: float, t_to: float) -> float:
    """Factor that brings a region timed on `clock()` from t_from to t_to to
    reference speed: from the slices taken inside it, or the NEAREST closest
    ones when fewer were."""
    durations = [d for t, d in _samples if t_from <= t <= t_to]
    if len(durations) < NEAREST:
        near = sorted(_samples, key=lambda s: max(t_from - s[0], s[0] - t_to))
        durations = [d for _, d in near[:NEAREST]]
    return REF_SLICE_S / statistics.fmean(durations)


def scale_all() -> float:
    return REF_SLICE_S / statistics.fmean(d for _, d in _samples)


def reset() -> None:
    del _samples[:]


def totals() -> dict:
    return {kind: list(t) for kind, t in _totals.items()}


def add_totals(other: dict) -> None:
    """Count a child's slices (its `totals()`) with this process's."""
    for kind, (seconds, n) in other.items():
        _totals[kind][0] += seconds
        _totals[kind][1] += n


def slice_ms() -> dict:
    """Mean slice length in ms by kind: at set-up, at the ends of passes,
    inside them."""
    return {kind: seconds / n * 1e3 if n else None for kind, (seconds, n) in _totals.items()}
