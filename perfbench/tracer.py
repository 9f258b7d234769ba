"""Outside-in tracer: wraps public functions of the ifpca modules from the
benchmark's side, so the program itself carries no tracing code.

Wrapping a module attribute works because `pipeline` and `cli` look their
collaborators up at call time (`matrix.standardize_columns(...)`,
`screen.ks_scores(...)`, the `args.func` bound when `cli.main` builds its
parser).  Spans live in memory and are written out once, at the end of a run.
"""

import functools
import json
import os
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

ROOT = "harness.op"

# (module, function) pairs that get a span.  pipeline.run_pipeline's self
# time covers its own glue, chiefly the post-selection column gather.
TRACED = (
    ("cli", ("load_matrix", "load_labels", "cmd_cluster", "simulate_one")),
    ("screen", ("load_null_table", "build_null_table", "ks_scores",
                "normalize_scores", "null_reference_values", "pvalues",
                "select_features")),
    ("hc", ("hc_threshold",)),
    ("matrix", ("standardize_columns", "truncated_left_svd")),
    ("cluster", ("kmeans", "hierarchical_complete", "hamming_error")),
    ("acm", ("generate",)),
    ("pipeline", ("run_pipeline",)),
)
MODULES = tuple(m for m, _ in TRACED)
FUNCTIONS = tuple(f"{m}.{f}" for m, names in TRACED for f in names)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Work done by one call, read from its arguments or result after it returns.
def _work(name, args, kwargs, result):
    if name == "cli.load_matrix":
        return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}
    if name == "screen.build_null_table":
        n = _arg(args, kwargs, 0, "n")
        return {"cells": n * _arg(args, kwargs, 1, "reps")}
    if name == "screen.ks_scores":
        w = _arg(args, kwargs, 0, "w")
        return {"cells": w.n * w.p}
    if name == "matrix.standardize_columns":
        return {"cells": _arg(args, kwargs, 0, "x").size}
    if name == "screen.select_features":
        return {"kept": result.size, "of": _arg(args, kwargs, 0, "ks").p}
    if name == "cluster.kmeans":
        return {"iterations": result.iterations}
    return None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    peak_bytes: int | None      # traced allocation peak of the call; memory phase only
    work: dict | None


class Tracer:
    """Records one span per call of each wrapped function, nested under a
    root span per benchmark operation."""

    def __init__(self, package):
        self._package = package
        self._originals = []
        self._thread = threading.get_ident()
        self.spans = []
        self._stack = []            # [span index, traced bytes at entry, peak seen]
        self.op = None
        self.memory = False
        self.errors = defaultdict(int)

    def install(self):
        for mod_name, names in TRACED:
            mod = getattr(self._package, mod_name)
            for fname in names:
                orig = getattr(mod, fname)
                self._originals.append((mod, fname, orig))
                setattr(mod, fname, self._wrap(mod_name, f"{mod_name}.{fname}", orig))

    def uninstall(self):
        for mod, fname, orig in reversed(self._originals):
            setattr(mod, fname, orig)
        self._originals.clear()

    def start_memory(self):
        """Switch to the memory phase: per-call allocation peaks via tracemalloc."""
        self.memory = True
        tracemalloc.start()

    def stop_memory(self):
        self.memory = False
        tracemalloc.stop()

    def _enter(self):
        if threading.get_ident() != self._thread:
            raise RuntimeError("traced function called off the tracing thread")
        idx = len(self.spans)
        self.spans.append(None)
        start_mem = 0
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if self._stack:
                frame = self._stack[-1]
                frame[2] = max(frame[2], peak)
            tracemalloc.reset_peak()
            start_mem = cur
        self._stack.append([idx, start_mem, 0])
        return idx

    def _exit(self, name, idx, start, end, work):
        _, start_mem, seen = self._stack.pop()
        peak = None
        if self.memory:
            # Children reset the peak counter, so each frame carries the
            # highest absolute level seen below it up to its parent.
            top = max(seen, tracemalloc.get_traced_memory()[1])
            peak = top - start_mem
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], top)
        parent = self._stack[-1][0] if self._stack else None
        self.spans[idx] = Span(name, start, end, parent, self.op, peak, work)

    def _wrap(self, mod_name, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                self.errors[mod_name] += 1
                self._exit(name, idx, start, end, None)
                raise
            end = time.perf_counter()
            self._exit(name, idx, start, end, _work(name, args, kwargs, result))
            return result
        return wrapper

    def run_op(self, op_id, call, *args):
        """Run one benchmark operation under a root span."""
        self.op = op_id
        idx = self._enter()
        start = time.perf_counter()
        try:
            return call(*args)
        finally:
            self._exit(ROOT, idx, start, time.perf_counter(), None)

    def write(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps([s.name, s.start, s.end, s.parent, s.op,
                                    s.peak_bytes, s.work]) + "\n")


def self_times(spans):
    """Self time of each span: its duration minus the durations of its
    children.  Wrapped calls run one at a time on one thread, so children
    never overlap and their durations add."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans, timed_ops, memory_ops, errors):
    """Per-layer metrics, named <module>.<function>.<kind>.

    self_s and calls are per operation of the timing phase; peak_mb is the
    largest per-call peak seen in the memory phase.  Rates use inclusive
    span time.
    """
    timed_ops = set(timed_ops)
    memory_ops = set(memory_ops)
    own = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    incl = defaultdict(float)
    peak = defaultdict(int)
    work = defaultdict(lambda: defaultdict(float))
    for s, t in zip(spans, own):
        if s.op in timed_ops:
            self_s[s.name] += t
            calls[s.name] += 1
            incl[s.name] += s.end - s.start
            for key, value in (s.work or {}).items():
                work[s.name][key] += value
        elif s.op in memory_ops and s.peak_bytes is not None:
            peak[s.name] = max(peak[s.name], s.peak_bytes)
    n_ops = len(timed_ops)

    def rate(name, key, scale):
        return work[name][key] / scale / incl[name] if incl[name] > 0 else 0.0

    out = {}
    for name in FUNCTIONS:
        out[f"{name}.self_s"] = self_s[name] / n_ops
        out[f"{name}.calls"] = calls[name] / n_ops
        out[f"{name}.peak_mb"] = peak[name] / 2**20
    out["cli.load_matrix.mb_per_s"] = rate("cli.load_matrix", "bytes", 1e6)
    out["screen.build_null_table.mcells_per_s"] = rate("screen.build_null_table", "cells", 1e6)
    out["screen.ks_scores.mcells_per_s"] = rate("screen.ks_scores", "cells", 1e6)
    out["matrix.standardize_columns.mcells_per_s"] = rate("matrix.standardize_columns", "cells", 1e6)
    sel = work["screen.select_features"]
    out["screen.select_features.kept_frac"] = sel["kept"] / sel["of"] if sel["of"] else 0.0
    out["cluster.kmeans.iterations"] = work["cluster.kmeans"]["iterations"] / n_ops
    for mod in MODULES:
        out[f"{mod}.errors"] = errors.get(mod, 0)
    out[f"{ROOT}.self_s"] = self_s[ROOT] / n_ops
    return out


def self_time_sum(layers):
    """Per-op self seconds summed over every wrapped function and the harness
    root; equals the traced op's wall time when no span is lost."""
    return sum(layers[f"{name}.self_s"] for name in FUNCTIONS + (ROOT,))
