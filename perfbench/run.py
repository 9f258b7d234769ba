"""ifpca benchmark: one workload, one run.

    python3 perfbench/run.py --workload cluster-csv --seed 3 --seconds 20 --trace 0

Run from the repository root; the program is imported from ./src.  The run
sets the workload up SETUP_REPEATS times in fresh processes (setup_s is the
median of the times each reports), then runs the timed closed loop in one
more process and checks each output against perfbench/reference.json.
Times are scaled to the host-speed probe's reference speed (hostspeed.py);
the raw times are kept in the result file.  With --trace 0 the last line of
stdout holds the end-to-end metrics, with --trace 1 the per-layer metrics.
A result file with the machine record goes to .perfbench_work/results/.
"""

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from hostspeed import REFERENCE_S, SETUP_PROBE, SETUP_PROBE_RUNS, Probe

HERE = os.path.dirname(os.path.abspath(__file__))
HARNESS = os.path.join(HERE, "harness.py")
WORK = ".perfbench_work"
SETUP_REPEATS = 3
# Whole-run limit; subprocesses are killed when it runs out.
RUN_LIMIT_S = 170

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_s.p50": "s", "op_s.tail": "s",
         "peak_rss_mb": "MB", "error_rate": "fraction", "failed_frac": "fraction"}
# Gated in BENCHMARK.json.  error_rate is fixed by the seed and failed_frac is
# 0 on correct code, so neither can carry a relative bound; both are printed.
GATED = ("setup_s", "ops_per_s", "op_s.p50", "peak_rss_mb")


def layer_unit(name):
    kind = name.rsplit(".", 1)[1]
    return {"self_s": "s/op", "calls": "calls/op", "peak_mb": "MB", "mb_per_s": "MB/s",
            "mcells_per_s": "Mcells/s", "kept_frac": "fraction",
            "iterations": "iters/op", "errors": "count", "p50": "s"}[kind]


def tail(times):
    """Highest percentile with at least ten samples above it, as
    (value, percentile, samples).  Below 21 samples that percentile would not
    exceed the median, so the maximum is reported instead."""
    xs = sorted(times)
    n = len(xs)
    if n < 21:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def scaled(seconds, probe_s, ref_s):
    """`seconds` at the speed where the probe takes its reference time."""
    return seconds * ref_s / probe_s


def machine_record(seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpuinfo("model name"), "llc": _llc(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": _blas_threads(),
            "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                                                     "OMP_NUM_THREADS") if k in os.environ},
            "seed": seed}


def _cpuinfo(key):
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _llc():
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = None
    try:
        for d in os.listdir(base):
            if d.startswith("index"):
                with open(os.path.join(base, d, "level")) as f:
                    level = int(f.read())
                with open(os.path.join(base, d, "size")) as f:
                    size = f.read().strip()
                if best is None or level > best[0]:
                    best = (level, size)
    except OSError:
        return None
    return f"L{best[0]} {best[1]}" if best else None


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, asked of the library."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


class RunError(Exception):
    pass


def _child(args, env, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("run time limit reached")
    try:
        proc = subprocess.run([sys.executable, HARNESS] + args, timeout=remaining, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{args[0]} exceeded the run time limit") from exc
    if proc.returncode != 0:
        raise RunError(f"{args[0]} failed (exit {proc.returncode}):\n{proc.stderr}")
    return proc


def run(args, wl, root, deadline):
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(root, WORK, name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
              "--workdir", workdir]

    # A cache the program keeps under XDG_CACHE_HOME lives and dies with the
    # run, so a later run with the same input seed cannot hit it.
    env = dict(os.environ, XDG_CACHE_HOME=os.path.join(workdir, "cache"))

    results_dir = os.path.join(root, WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    try:
        setups = []
        probe = Probe()
        for i in range(SETUP_REPEATS):
            # The set-up probe runs right before the set-up process (here)
            # and right after it (there); a set-up counts the mean of both.
            before = probe.median_time(SETUP_PROBE, SETUP_PROBE_RUNS)
            _child(["setup"] + common + (["--write"] if i == 0 else []), env, deadline)
            with open(os.path.join(workdir, "setup.json")) as f:
                setup = json.load(f)
            setup["probe_s"] = (before + setup["probe_s"]) / 2
            setups.append(setup)
        _child(["ops"] + common + ["--seconds", str(args.seconds),
                                   "--trace", str(args.trace)], env, deadline)
        with open(os.path.join(workdir, "ops.json")) as f:
            out = json.load(f)
        if args.trace:
            spans = os.path.join(results_dir, name + ".spans.jsonl")
            os.replace(os.path.join(workdir, "spans.jsonl"), spans)
    finally:
        # The inputs run to hundreds of MB per run; keep only the results.
        shutil.rmtree(workdir, ignore_errors=True)
    if not out["ifpca_file"].startswith(os.path.join(root, "src") + os.sep):
        raise RunError(f"ifpca imported from {out['ifpca_file']}, not from ./src")

    ops = out["ops"]
    # The warm-up op counts as attempted, and as failed if it failed.
    failed = [r for r in [out["warmup"]] + ops if r["error"] is not None]
    ref_s = REFERENCE_S[wl.probe]
    result = {"workload": args.workload, "size": args.size, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "setup_runs": setups,
              "attempted": len(ops) + 1, "failed": len(failed),
              "failures": [r["error"] for r in failed][:10]}
    if args.trace:
        timed = ops[:out["n_timed"]]
        layers = dict(out["layers"])
        layers["harness.op_s.p50"] = statistics.median(
            scaled(r["seconds"], r["probe_s"], ref_s) for r in timed)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        result["traced_op_seconds"] = [r["seconds"] for r in timed]
        result["min_self_s"] = out["min_self_s"]
        result["spans"] = spans
    else:
        times = [scaled(r["seconds"], r["probe_s"], ref_s) for r in ops]
        value, pct, n = tail(times)
        rates = [e for r in ops if r["error"] is None for e in r["error_rates"]]
        setup_s = [scaled(r["setup_s"], r["probe_s"], REFERENCE_S[SETUP_PROBE])
                   for r in setups]
        every = {"setup_s": statistics.median(setup_s),
                 "ops_per_s": sum(r["error"] is None for r in ops) / sum(times),
                 "op_s.p50": statistics.median(times),
                 "op_s.tail": value,
                 "peak_rss_mb": out["peak_rss_mb"],
                 "error_rate": statistics.fmean(rates) if rates else float("nan"),
                 "failed_frac": len(failed) / (len(ops) + 1)}
        metrics = {k: {"value": every[k], "unit": UNITS[k]} for k in GATED}
        result["all_metrics"] = {k: {"value": v, "unit": UNITS[k]} for k, v in every.items()}
        result["tail"] = {"percentile": pct, "samples": n}
        result["op_seconds"] = times
        raw = [r["seconds"] for r in ops]
        result["raw"] = {"setup_s": statistics.median(r["setup_s"] for r in setups),
                         "ops_per_s": sum(r["error"] is None for r in ops) / sum(raw),
                         "op_s.p50": statistics.median(raw),
                         "probe_s.p50": statistics.median(r["probe_s"] for r in ops),
                         "op_seconds": raw}
    result["metrics"] = metrics
    result["machine"] = machine_record(args.seed)
    path = os.path.join(results_dir, name + ".json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    result["path"] = path
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--size", choices=["full", "smoke"], default="full",
                   help="smoke: seconds-long inputs on the same code paths, for tests")
    args = p.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ifpca", "__init__.py")):
        print("error: run from the repository root (no src/ifpca here)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    try:
        result = run(args, WORKLOADS[args.workload], root, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for k, m in result.get("all_metrics", result["metrics"]).items():
        extra = ""
        if k == "op_s.tail":
            extra = f"  (p{result['tail']['percentile']:.1f} of {result['tail']['samples']} ops)"
        print(f"{k:45s} {m['value']:.6g} {m['unit']}{extra}")
    for msg in result["failures"]:
        print(f"failed op: {msg}")
    print(f"result file: {result['path']}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
