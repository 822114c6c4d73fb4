"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces each public function of a package module with a wrapper
that records a span, so calls between modules (``linalg.expm(...)``) and
calls within a module (a bare ``solve_topology_lmi(...)`` inside
``synthesis``) both pass through it.  ``uninstall`` restores the originals;
nothing in the package itself changes.

A span is ``(job, id, parent, name, start, end)`` with times from
``time.perf_counter``.  Spans stay in memory until the run writes them out.
Counts taken from a call's arguments and result (samples, switches, CSV
bytes) are recorded at the same boundary.
"""

import csv
import functools
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

# Package modules traced, in dependency order; `vtol` is data only.
LAYERS = ("topology", "linalg", "synthesis", "simulator", "config", "cli")


class Span(NamedTuple):
    job: int
    id: int
    parent: int
    name: str
    start: float
    end: float


def _simulate_counts(args, kwargs, record):
    return {
        "simulator.samples": record.times.size,
        "simulator.steps": record.times.size - 1,
        "simulator.switches": len(record.switches),
    }


def _csv_counts(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"simulator.write_trajectory_csv.bytes": os.path.getsize(path)}


# Counts recorded when the named span ends: f(args, kwargs, result) -> {name: n}.
COUNTERS = {
    "simulator.simulate": _simulate_counts,
    "simulator.write_trajectory_csv": _csv_counts,
}


def traced_functions(module, layer):
    """``(attribute, span name)`` for every function the tracer wraps in a layer.

    The CLI's commands are its ``cmd_*`` functions, named by the command;
    every other layer exports its functions through ``__all__``.
    """
    if layer == "cli":
        names = [n for n in vars(module) if n.startswith("cmd_")]
        return [(n, f"cli.{n[len('cmd_'):]}") for n in names]
    return [
        (n, f"{layer}.{n}")
        for n in module.__all__
        if inspect.isfunction(getattr(module, n))
    ]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))  # job -> name -> n
        self.job = None
        self._stack = []
        self._next_id = 0
        self._patched = []

    @contextmanager
    def span(self, name):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(self.job, span_id, parent, name, start, end))

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[self.job][key] += value
            return result

        return traced

    def install(self, package):
        """Wrap the traced functions of every layer module of `package`."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, name in traced_functions(module, layer):
                original = getattr(module, attr)
                self._patched.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def write(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(Span._fields)
            writer.writerows(self.spans)


def self_times(spans):
    """Self time of each span: its duration minus what its children cover.

    Children are clipped to the parent's interval and overlaps between
    children are counted once.  Returns ``{span id: seconds}``.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(s.id, ())):
            start = max(start, reach)
            end = min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.id] = (s.end - s.start) - covered
    return out


def job_profile(spans, counts):
    """Per-span-name totals for one job's spans.

    Returns ``{"<name>.s": inclusive seconds, "<name>.self_s": self seconds,
    "<name>.calls": count}`` merged with the job's recorded counts.
    """
    own = self_times(spans)
    profile = defaultdict(float)
    for s in spans:
        profile[f"{s.name}.s"] += s.end - s.start
        profile[f"{s.name}.self_s"] += own[s.id]
        profile[f"{s.name}.calls"] += 1
    profile.update(counts)
    return dict(profile)
