"""In-memory spans recorded by the benchmark around its calls into otcomp.

A span is (id, name, start, end, parent, run, attrs).  The layer of a span is
the part of its name before the first dot (`checker.check_consistency` is in
the checker layer).  Spans of one operation share a run identifier, and
`attrs` carries the counts measured at the same boundary.  Spans are added
after the timed region ends, from timestamps the workload takes anyway, so an
untraced run pays only for a no-op call per span.
"""

from __future__ import annotations

import json
from collections import defaultdict


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list = []

    def add(self, name, start, end, parent=None, run=None, **attrs):
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name, "start": start, "end": end,
                           "parent": parent, "run": run, "attrs": attrs})
        return sid

    def add_parts(self, parts, start, parent, run):
        """Lay a CheckReport's parts end to end from `start`, as children of
        the check span.  Part durations are the report's own elapsed_ms."""
        t = start
        for p in parts:
            d = p.elapsed_ms / 1000.0
            self.add(f"checker.part.{p.property}", t, t + d, parent, run,
                     part=p.property, cases=p.cases, examined=p.examined,
                     witnesses=len(p.witnesses), unrealizable=len(p.unrealizable))
            t += d

    def select(self, prefix):
        """Spans whose run identifier starts with `prefix`."""
        return [s for s in self.spans if s["run"] is not None
                and s["run"].startswith(prefix)]

    def write(self, path):
        with open(path, "w") as f:
            json.dump(self.spans, f)


class NullTracer:
    enabled = False
    spans = ()

    def add(self, *args, **kwargs):
        return None

    def add_parts(self, *args, **kwargs):
        return None


def duration(span) -> float:
    return span["end"] - span["start"]


def self_times(spans) -> dict:
    """Span id -> its duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for lo, hi in sorted((max(c["start"], s["start"]), min(c["end"], s["end"]))
                             for c in children[s["id"]]):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = duration(s) - covered
    return out


def layer_self_ms(spans) -> dict:
    selfs = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        out[s["name"].split(".", 1)[0]] += selfs[s["id"]] * 1000.0
    return dict(out)
