"""What a fresh process loads of scipy: each scipy import sits in the one
function that calls it, so starting the program, generating data and
clustering without labels load only what they use."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import ifpca

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ifpca.__file__)))


def fresh(code, *args):
    """Run `code` in a new interpreter that imports ifpca from this tree;
    it prints one JSON value last, which is returned."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# An expression for the child: the subpackages of scipy it has loaded
# ("special" for scipy.special.*, "scipy" for the bare package).
LOADED = ("sorted({m.split('.')[1] if '.' in m else m"
          " for m in sys.modules if m.startswith('scipy')})")


def test_import_and_help_load_no_scipy():
    code = f"""
    import json, runpy, sys
    import ifpca, ifpca.cli
    after_import = {LOADED}
    sys.argv = ["ifpca", "--help"]
    try:
        runpy.run_module("ifpca", run_name="__main__", alter_sys=True)
        code = None
    except SystemExit as e:
        code = e.code
    print(json.dumps([after_import, code, {LOADED}]))
    """
    after_import, code, after_help = fresh(code)
    assert after_import == []
    assert code in (0, None)
    assert after_help == []


def test_generating_a_preset_loads_no_scipy():
    code = f"""
    import dataclasses, json, sys
    from ifpca import acm
    cfg = dataclasses.replace(acm.experiment_preset("1b")[2], p=500)
    x, truth = acm.generate(cfg, 3)
    print(json.dumps([list(x.shape), {LOADED}]))
    """
    shape, loaded = fresh(code)
    assert shape[1] == 500
    assert loaded == []


def test_cluster_without_labels_loads_only_scipy_special(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 30))
    x[20:, :4] += 4.0
    path = tmp_path / "x.csv"
    np.savetxt(path, x, delimiter=",")
    code = f"""
    import json, sys
    from ifpca import cli
    code = cli.main(["cluster", "--input", sys.argv[1], "--k", "2",
                     "--null-reps", "2000", "--threads", "2"])
    print(json.dumps([code, {LOADED}]))
    """
    code, loaded = fresh(code, str(path))
    assert code == 0
    assert "special" in loaded
    assert not {"optimize", "linalg", "sparse"} & set(loaded)


@pytest.mark.parametrize("command, field", [("cluster", '"error_rate":0'),
                                            ("simulate", "mean_error")])
def test_error_rate_runs_load_only_scipy_special(tmp_path, command, field):
    # The relabeling behind an error rate is solved in the package, so
    # `cluster --labels` and `simulate` load no scipy.optimize, and with it
    # no scipy.linalg or scipy.sparse.
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 30))
    x[20:, :4] += 4.0
    path, labels = tmp_path / "x.csv", tmp_path / "y.txt"
    np.savetxt(path, x, delimiter=",")
    np.savetxt(labels, np.repeat([1, 2], 20), fmt="%d")
    argv = {"cluster": ["cluster", "--input", str(path), "--k", "2",
                        "--labels", str(labels), "--null-reps", "2000"],
            "simulate": ["simulate", "--experiment", "5", "--reps", "1",
                         "--null-reps", "2000"]}[command]
    code = f"""
    import contextlib, io, json, sys
    from ifpca import cli
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(sys.argv[1:])
    print(json.dumps([code, out.getvalue(), {LOADED}]))
    """
    code, out, loaded = fresh(code, *argv)
    assert code == 0
    assert field in out
    assert "special" in loaded
    assert not {"optimize", "linalg", "sparse"} & set(loaded)


@pytest.mark.parametrize("call", [
    # 2000 columns: four KS blocks; n = 200 takes the pruned path.
    """
    from ifpca import matrix
    x = np.random.default_rng(1).standard_normal((200, 2000))
    w = matrix.standardize_columns(x)
    first = screen.ks_scores(w, threads=2).scores
    again = screen.ks_scores(w, threads=1).scores
    """,
    # One row past a chunk: two chunks, one per worker.
    """
    n = 2000
    reps = screen._NULL_CHUNK_TARGET // n + 1
    first = screen.build_null_table(n, reps, 7, threads=2).values
    again = screen.build_null_table(n, reps, 7, threads=1).values
    """,
], ids=["ks_scores", "build_null_table"])
def test_first_ks_call_on_worker_threads(call):
    # The process's first KS call runs on two workers; its scipy.special
    # import is made on the calling thread before they start.
    setup = f"""
    import json, sys
    import numpy as np
    from ifpca import screen
    before = {LOADED}
    """
    check = """
    print(json.dumps([before, first.tobytes() == again.tobytes(), first.size]))
    """
    before, same, size = fresh("".join(map(textwrap.dedent, [setup, call, check])))
    assert before == []
    assert same
    assert size > 0


def test_ks_import_is_made_before_workers_and_ks_clock():
    # scipy.special is loaded by the time ks_scores fans out and by the time
    # run_pipeline starts the "ks" stage, so that stage times no import.
    code = """
    import json, sys
    import numpy as np
    from ifpca import pipeline, screen
    seen = {}

    def loaded_at(name, f):
        def wrapped(*args, **kwargs):
            seen.setdefault(name, "scipy.special" in sys.modules)
            return f(*args, **kwargs)
        return wrapped

    screen.parallel_map = loaded_at("fan-out", screen.parallel_map)
    screen.ks_scores = loaded_at("ks stage", screen.ks_scores)
    x = np.random.default_rng(2).standard_normal((40, 300))
    x[20:, :10] += 3.0
    rep = pipeline.run_pipeline(x, pipeline.PipelineOptions(
        k=2, threshold="fixed:1.5", threads=2))
    print(json.dumps([seen, sorted(rep.timings)]))
    """
    seen, stages = fresh(code)
    assert seen == {"ks stage": True, "fan-out": True}
    assert "ks" in stages
