"""Tests of the benchmark itself, on seconds-long smoke sizes that go through
the same code paths as the full workloads.

    python -m pytest perfbench/test_perfbench.py -q      (from the repository root)
"""

import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, mismatches  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def bench(workload, trace, cwd=ROOT, seconds=1.5):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "12", "--seconds", str(seconds), "--trace", str(trace),
         "--size", "smoke"], cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170)
    return proc


def result_file(stdout):
    path = next(line.split(": ", 1)[1] for line in stdout.splitlines()
                if line.startswith("result file: "))
    with open(path) as f:
        return json.load(f)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in last["metrics"].values())
    res = result_file(proc.stdout)
    assert res["all_metrics"]["failed_frac"]["value"] == 0
    assert set(res["machine"]) >= {"nproc", "cpu_model", "llc", "python", "numpy",
                                   "scipy", "blas", "blas_version", "blas_threads", "seed"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_self_times_add_up_to_op_wall_time(workload):
    proc = bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"]
    assert set(last["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    layers = {k: m["value"] for k, m in last["metrics"].items()}
    res = result_file(proc.stdout)
    wall = np.mean(res["traced_op_seconds"])
    assert tracer.self_time_sum(layers) == pytest.approx(wall, rel=0.02)
    assert res["min_self_s"] >= -1e-6
    wl = WORKLOADS[workload]
    assert all(layers[f"{name}.calls"] > 0 for name in wl.dominant)
    assert all(layers[f"{name}.peak_mb"] > 0 for name in wl.dominant)


def test_run_fails_without_the_program():
    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = bench("cluster-csv", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in BENCH["end_to_end"]} == set(run.GATED)
    assert BENCH["command"] == ["python3", "perfbench/run.py"]


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(1, 6))) == (5, 100.0, 5)
    assert run.tail(list(range(20))) == (19, 100.0, 20)
    assert run.tail(list(range(21))) == (10, 100.0 * 11 / 21, 21)
    value, pct, n = run.tail(list(range(100)))
    assert (value, pct, n) == (89, 90.0, 100)
    assert sum(x > value for x in range(100)) == 10


def _loop(wraps, seconds, op_seconds):
    wl = types.SimpleNamespace(wraps=wraps, call=lambda spec: spec,
                               digest=lambda raw: ({"v": raw}, []))

    def run_op(op, call, spec):
        time.sleep(op_seconds)
        return call(spec)

    results = []
    n, _ = harness.closed_loop(wl, [10, 11, 12], [{"v": 10}, {"v": 11}, {"v": 12}],
                               seconds, 0, run_op, lambda: 1.0, results)
    assert n == len(results) and all(r["error"] is None for r in results)
    return [r["spec"] for r in results]


def test_closed_loop_runs_each_spec_once_unless_the_workload_wraps():
    assert _loop(False, 60.0, 0.0) == [0, 1, 2]
    specs = _loop(True, 0.1, 0.01)
    assert len(specs) > 3 and specs == [i % 3 for i in range(len(specs))]


def test_mismatches_compares_floats_with_tolerance():
    ref = {"labels": "ab", "j_hat": 3, "threshold": 1.0}
    assert mismatches({"labels": "ab", "j_hat": 3, "threshold": 1.0 + 1e-12}, ref) == []
    assert mismatches({"labels": "ab", "j_hat": 4, "threshold": 1.0}, ref) == ["j_hat"]
    assert mismatches({"labels": "ab", "j_hat": 3, "threshold": 1.1}, ref) == ["threshold"]


def _fake_package():
    """A package shaped like ifpca whose pipeline calls screen and matrix."""
    pkg = types.SimpleNamespace()
    for mod_name, names in tracer.TRACED:
        setattr(pkg, mod_name, types.SimpleNamespace(**{n: (lambda *a, **k: None)
                                                        for n in names}))

    def ks_scores(w):
        return np.ones(1_000_000)            # 8 MB, freed on return

    def standardize_columns(x, drop_constant=False):
        raise ValueError("constant column")

    def run_pipeline(x, opts, truth=None):
        pkg.screen.ks_scores(types.SimpleNamespace(n=2, p=3))
        try:
            pkg.matrix.standardize_columns(x)
        except ValueError:
            pass
        return np.zeros(10)

    pkg.screen.ks_scores = ks_scores
    pkg.matrix.standardize_columns = standardize_columns
    pkg.pipeline.run_pipeline = run_pipeline
    return pkg


def test_tracer_nests_spans_and_measures_peaks():
    pkg = _fake_package()
    original = pkg.pipeline.run_pipeline
    tr = tracer.Tracer(pkg)
    tr.install()
    try:
        tr.run_op(0, pkg.pipeline.run_pipeline, np.ones(4), None)
        tr.start_memory()
        try:
            tr.run_op(1, pkg.pipeline.run_pipeline, np.ones(4), None)
        finally:
            tr.stop_memory()
    finally:
        tr.uninstall()
    names = [s.name for s in tr.spans if s.op == 0]
    assert names == [tracer.ROOT, "pipeline.run_pipeline", "screen.ks_scores",
                     "matrix.standardize_columns"]
    root = tr.spans[0]
    assert sum(t for s, t in zip(tr.spans, tracer.self_times(tr.spans)) if s.op == 0) \
        == pytest.approx(root.end - root.start)
    layers = tracer.layer_metrics(tr.spans, [0], [1], tr.errors)
    assert layers["screen.ks_scores.calls"] == 1
    assert layers["screen.ks_scores.mcells_per_s"] > 0
    assert layers["matrix.errors"] == 2
    # The child's 8 MB peak shows in the child and in its parent.
    assert 7.5 < layers["screen.ks_scores.peak_mb"] < 9
    assert 7.5 < layers["pipeline.run_pipeline.peak_mb"] < 9
    assert layers["cluster.kmeans.calls"] == 0
    assert pkg.pipeline.run_pipeline is original


def test_scaled_times_cancel_the_host_speed():
    # Twice the probe time means a host half as fast: the op counts half.
    assert run.scaled(2.0, 0.12, 0.06) == pytest.approx(1.0)
    assert run.scaled(1.0, 0.06, 0.06) == 1.0


def test_probes_make_no_large_allocations():
    probe = hostspeed.Probe()
    tracemalloc.start()
    try:
        for name in hostspeed.REFERENCE_S:
            probe.time(name)
            tracemalloc.reset_peak()
            probe.time(name)
            assert tracemalloc.get_traced_memory()[1] < 4_000_000, name
    finally:
        tracemalloc.stop()
