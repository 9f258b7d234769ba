"""One command for the whole benchmark: every workload, untraced and traced.

    python3 perfbench/report.py [--seed N] [--seconds T]

For each workload it prints every end-to-end metric with its unit (the gated
ones and op_s.tail, error_rate and failed_frac), the unscaled times beside
the host-speed probe's time, the per-layer metrics of the traced run, the
tracing overhead (traced minus untraced op_s.p50), whether the layers' self
times add up to the traced op time, and whether the workload's intended
dominant layer does the most work.  Exits 1 when an op
failed or a check did not hold.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import tracer  # noqa: E402
from hostspeed import REFERENCE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Self seconds may differ from the traced op wall time by this share.
SELF_SUM_TOL = 0.02


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    path = next(line.split(": ", 1)[1] for line in proc.stdout.splitlines()
                if line.startswith("result file: "))
    with open(path) as f:
        return json.load(f)


def dominant_check(wl, layers):
    """The intended dominant functions together spend more self time than
    any other single wrapped function."""
    share = sum(layers[f"{name}.self_s"] for name in wl.dominant)
    rival = max((layers[f"{name}.self_s"], name) for name in tracer.FUNCTIONS
                if name not in wl.dominant)
    return share > rival[0], share, rival


def report(wl, plain, traced):
    ok = True
    print(f"== {wl.name}: {wl.why}")
    for key, m in plain["all_metrics"].items():
        extra = ""
        if key == "op_s.tail":
            extra = f"  (p{plain['tail']['percentile']:.1f} of {plain['tail']['samples']} ops)"
        print(f"  {key:42s} {m['value']:12.6g} {m['unit']}{extra}")
    raw = plain["raw"]
    print(f"  unscaled: setup_s {raw['setup_s']:.4g} s, ops_per_s {raw['ops_per_s']:.4g} 1/s, "
          f"op_s.p50 {raw['op_s.p50']:.4g} s; probe {wl.probe} "
          f"{raw['probe_s.p50'] * 1e3:.4g} ms (reference {REFERENCE_S[wl.probe] * 1e3:.4g} ms)")
    layers = {k: m["value"] for k, m in traced["metrics"].items()}
    print("  per-layer (traced run; zero rows omitted):")
    for key, m in traced["metrics"].items():
        if m["value"]:
            print(f"    {key:48s} {m['value']:12.6g} {m['unit']}")
    for run in (plain, traced):
        for msg in run["failures"]:
            print(f"  FAILED op: {msg}")
        ok &= run["failed"] == 0

    untraced_p50 = plain["all_metrics"]["op_s.p50"]["value"]
    traced_p50 = layers["harness.op_s.p50"]
    over = traced_p50 - untraced_p50
    print(f"  tracing overhead (traced - untraced op_s.p50): {over:+.4g} s "
          f"({over / untraced_p50:+.1%})")

    wall = sum(traced["traced_op_seconds"]) / len(traced["traced_op_seconds"])
    total = tracer.self_time_sum(layers)
    good = abs(total - wall) <= SELF_SUM_TOL * wall and traced["min_self_s"] >= -1e-6
    print(f"  self-time sum {total:.4g} s vs traced op wall {wall:.4g} s: "
          f"{'ok' if good else 'MISMATCH'}")
    ok &= good

    good, share, (rival_s, rival) = dominant_check(wl, layers)
    print(f"  dominant layer {'+'.join(wl.dominant)}: {share:.4g} s/op vs next "
          f"{rival} {rival_s:.4g} s/op: {'confirmed' if good else 'NOT CONFIRMED'}")
    return ok and good


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    args = p.parse_args()
    ok = True
    machine = None
    for wl in WORKLOADS.values():
        plain = run_once(wl.name, args.seed, args.seconds, 0)
        traced = run_once(wl.name, args.seed, args.seconds, 1)
        machine = plain["machine"]
        ok &= report(wl, plain, traced)
    print("machine:", json.dumps(machine))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
