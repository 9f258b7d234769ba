"""The program API the benchmark's tracer wraps (perfbench/tracer.py): every
traced function exists, and every argument and result attribute it reads
after a call is there.  The benchmark's own tests are not collected here."""

import importlib.util
import os

import numpy as np

import ifpca
from ifpca import acm, cli, pipeline, screen

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def test_tracer_wraps_the_program_without_errors(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 30))
    x[:20, :5] += 3.0
    np.savetxt(tmp_path / "x.csv", x, delimiter=",")
    np.savetxt(tmp_path / "y.txt", np.repeat([1, 2], 20), fmt="%d")
    screen.save_null_table(screen.build_null_table(40, 2000, 0), tmp_path / "null.txt")
    cfg = acm.AcmConfig.from_dict({
        "k": 2, "p": 150, "theta": 0.8, "vartheta": 0.25, "r": 2.0, "rep": 1,
        "delta": [1 / 3, 2 / 3], "gamma": [0.5, 0.0, 0.5],
        "g_mubar": {"kind": "normal", "params": [0.0, 1.0]},
        "g_mu": {"kind": "uniform", "params": [1.0, 0.2]},
        "g_sigma": {"kind": "pointmass", "params": [1.0]}})

    t = tracer.Tracer(ifpca)
    t.install()
    try:
        assert cli.main(["cluster", "--input", str(tmp_path / "x.csv"), "--k", "2",
                         "--labels", str(tmp_path / "y.txt"),
                         "--null-table", str(tmp_path / "null.txt")]) == 0
        pipeline.run_pipeline(x, pipeline.PipelineOptions(
            k=2, method="if-hier", norm="lower50", null_reps=2000))
        cli.simulate_one(cfg, cli.SIMULATE_METHODS, 1, 0, {}, null_reps=2000)
    finally:
        t.uninstall()
    capsys.readouterr()

    assert not t.errors
    assert {s.name for s in t.spans} == set(tracer.FUNCTIONS)
    assert all(s.work["kept"] > 0 for s in t.spans
               if s.name == "screen.select_features")
    assert not hasattr(screen.select_features, "__wrapped__")
