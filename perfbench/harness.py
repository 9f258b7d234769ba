"""Child-process roles of the benchmark, started by run.py.

  harness.py setup --workload W --seed N --size S --workdir D [--write]
      makes the workload's inputs (with --write, also stores them in D) and
      writes D/setup.json holding setup_s, the time from importing the
      program to having the inputs, without interpreter start-up or the file
      writes, and probe_s, the set-up probe's time right after
  harness.py ops --workload W --seed N --size S --workdir D --seconds T --trace 0|1
      runs the closed loop of timed operations on those inputs, checks each
      output against the recorded reference and writes D/ops.json

The timed operations run in a process of their own, so their peak RSS
excludes set-up's peak.
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

IMPORT_START = time.perf_counter()
import ifpca  # noqa: E402

import hostspeed  # noqa: E402
import tracer  # noqa: E402
from workloads import (INPUT_SEEDS, WORKLOADS, OpFailed, mismatches,  # noqa: E402
                       write_inputs)

REFERENCE = os.path.join(HERE, "reference.json")
# Share of a traced run spent timing spans; the rest measures allocation
# peaks under tracemalloc, which slows Python-level code.
TRACE_TIMING_SHARE = 2 / 3


def load_reference(workload, size, input_seed):
    with open(REFERENCE) as f:
        ref = json.load(f)
    try:
        return ref[workload][size][str(input_seed)]
    except KeyError:
        sys.exit(f"no reference outputs for {workload}/{size}/seed {input_seed}")


def closed_loop(wl, specs, ref, seconds, first_op, run_op, probe, results):
    """Run ops back to back, one client, until `seconds` have passed (at
    least one op) or, unless the workload wraps, every spec has run once.
    `probe()` times the host-speed probe; it runs before the first op and
    after each op, and each op's record keeps the mean of the probe times on
    either side of it.  Appends one record per op to `results`."""
    start = time.perf_counter()
    deadline = start + seconds
    op = first_op
    before = probe()
    while True:
        k = op % len(specs)
        t0 = time.perf_counter()
        error = None
        try:
            raw = run_op(op, wl.call, specs[k])
        except Exception as exc:  # a raising op is counted, not fatal
            raw, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        after = probe()
        digest, errs = None, []
        if error is None:
            try:
                digest, errs = wl.digest(raw)
            except OpFailed as exc:
                error = str(exc)
        if error is None:
            bad = mismatches(digest, ref[k])
            if bad:
                error = f"output differs from reference in {bad}"
        results.append({"op": op, "spec": k, "seconds": t1 - t0,
                        "probe_s": (before + after) / 2, "error": error,
                        "error_rates": errs, "digest": digest})
        before = after
        op += 1
        if t1 >= deadline or (op >= len(specs) and not wl.wraps):
            return op, t1 - start


def _probe(wl):
    """The workload's host-speed probe, warmed up, as a zero-argument timer."""
    probes = hostspeed.Probe()
    probes.time(wl.probe)
    return lambda: probes.time(wl.probe)


def _plain_op(op, call, spec):
    return call(spec)


def _warm_up(wl, specs, ref, probe, out):
    """Run one checked, untimed op first, so that timed ops do not pay
    first-call costs (thread pools, first touch of large buffers).  It runs
    the cycle's last spec, which the timed ops then skip unless the workload
    wraps.  Returns the specs and references left for the timed ops."""
    warmup = []
    closed_loop(wl, specs[-1:], ref[-1:], 0.0, 0, _plain_op, probe, warmup)
    out["warmup"] = warmup[0]
    return (specs, ref) if wl.wraps else (specs[:-1], ref[:-1])


def run_ops(args):
    wl = WORKLOADS[args.workload]
    input_seed = args.seed % INPUT_SEEDS
    ref = None if args.record else load_reference(wl.name, args.size, input_seed)
    specs = wl.load(args.workdir, input_seed, args.size)
    out = {"ifpca_file": ifpca.__file__}
    probe = _probe(wl)
    results = []
    if args.record:
        # One op per spec of the cycle, untimed: the reference outputs.
        out["reference"] = [wl.digest(wl.call(spec))[0] for spec in specs]
    elif not args.trace:
        specs, ref = _warm_up(wl, specs, ref, probe, out)
        closed_loop(wl, specs, ref, args.seconds, 0, _plain_op, probe, results)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        specs, ref = _warm_up(wl, specs, ref, probe, out)
        tr = tracer.Tracer(ifpca)
        tr.install()
        try:
            n_timed, elapsed = closed_loop(wl, specs, ref,
                                           args.seconds * TRACE_TIMING_SHARE, 0,
                                           tr.run_op, probe, results)
            # Allocation peaks.  If the timing phase used up a non-wrapping
            # cycle, this phase still runs one op, from the cycle's start.
            tr.start_memory()
            try:
                closed_loop(wl, specs, ref, max(0.0, args.seconds - elapsed), n_timed,
                            tr.run_op, probe, results)
            finally:
                tr.stop_memory()
        finally:
            tr.uninstall()
        tr.write(os.path.join(args.workdir, "spans.jsonl"))
        timed = [r["op"] for r in results[:n_timed]]
        memory = [r["op"] for r in results[n_timed:]]
        out["layers"] = tracer.layer_metrics(tr.spans, timed, memory, tr.errors)
        out["n_timed"] = n_timed
        out["min_self_s"] = min(tracer.self_times(tr.spans))
    out["ops"] = results
    with open(os.path.join(args.workdir, "ops.json"), "w") as f:
        json.dump(out, f)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("role", choices=["setup", "ops"])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", required=True, choices=["full", "smoke"])
    p.add_argument("--workdir", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--write", action="store_true",
                   help="setup: store the inputs in the work directory")
    p.add_argument("--record", action="store_true",
                   help="run each op of the cycle once and store its output digest")
    args = p.parse_args()
    if args.role == "setup":
        wl = WORKLOADS[args.workload]
        inputs = wl.setup(args.seed % INPUT_SEEDS, args.size)
        setup_s = time.perf_counter() - IMPORT_START
        # The host's speed right after set-up; run.py probes it right before.
        probe_s = hostspeed.Probe().median_time(hostspeed.SETUP_PROBE,
                                                 hostspeed.SETUP_PROBE_RUNS)
        if args.write:
            write_inputs(inputs, args.workdir)
        with open(os.path.join(args.workdir, "setup.json"), "w") as f:
            json.dump({"setup_s": setup_s, "probe_s": probe_s}, f)
    else:
        run_ops(args)


if __name__ == "__main__":
    main()
