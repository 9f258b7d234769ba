"""Golden outputs: the reports of every method, normalization, threshold
rule and truncation setting on a fixed set of small fixtures, and digests
of the stages behind them, compared bit for bit with tests/golden.json.

A change that moves an output on purpose records the file again:

    PYTHONPATH=src python tests/record_golden.py

Floats are compared by the bytes of their values, so the file holds only
for the numpy, BLAS and CPU it records; on another the test is skipped.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ifpca import acm, cli, cluster, matrix, pipeline, screen
from ifpca.errors import DegenerateGapWarning, IfpcaError

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

THRESHOLDS = ("hc", "fixed:1.2")


def digest(a):
    """16 hex digits of the SHA-256 of an array's dtype, shape and values."""
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()[:16]


def machine():
    """What the bits of a float output depend on besides the program."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), cpu)
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu": cpu}


def planted(seed, n, p, k, width, shift):
    """n×p N(0,1) with class c = i mod k shifted by `shift` on its own
    `width` columns."""
    x = np.random.default_rng(seed).standard_normal((n, p))
    for c in range(k):
        x[np.arange(n) % k == c, c * width:(c + 1) * width] += shift
    return x


def fixtures():
    """name -> (x, K)."""
    # test_cli's blob_csv: two far classes in 6 columns (tall).
    blobs = np.random.default_rng(0).standard_normal((40, 6)) * 0.2
    blobs[20:] += 5.0
    x60 = planted(1, 60, 300, 3, 15, 3.0)
    exp5, _ = acm.generate(replace(acm.experiment_preset("5")[0], p=2000),
                           seed=[3, 0])
    # Every row twice, far from the origin.
    twice = planted(4, 20, 400, 2, 30, 2.0)[np.repeat(np.arange(20), 2)] + 1e8
    # Ties everywhere, and constant columns at the edges of the 512-column
    # blocks of standardize_columns and ks_scores.
    quarter = np.round(planted(5, 150, 700, 3, 20, 1.5) * 4) / 4
    quarter[:, [0, 511, 512, 699]] = 0.25
    return {
        "blobs 40x6": (blobs, 2),
        "60x300 C": (x60, 3),
        "60x300 F": (np.asfortranarray(x60), 3),
        "60x300 transposed": (np.ascontiguousarray(x60.T).T, 3),
        "90x1500": (planted(2, 90, 1500, 4, 25, 1.2), 4),
        "exp5 p=2000": (exp5, 4),
        "40x400 repeated rows, offset 1e8": (twice, 2),
        "150x700 quarters, constant columns": (quarter, 3),
    }


def outcome(run):
    """A run's report digest, or its exit code and message."""
    try:
        report = run().to_json(include_timings=False)
    except (IfpcaError, ValueError) as e:
        return f"exit {cli._exit_code(e)}: {e}"
    return hashlib.sha256(report.encode()).hexdigest()[:16]


def kmeans_digest(res):
    return [digest(res.labels), res.wcss.hex(), res.replicate_id, res.iterations]


def fixture_outputs(name):
    """Stage digests and every pipeline report of one fixture.  Each run is
    made on the bare array and on one Instance shared by the whole grid;
    the two must agree."""
    x, k = fixtures()[name]
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateGapWarning)
        w = matrix.standardize_columns(x)
        out["mean"], out["sd"] = digest(w.col_mean), digest(w.col_sd)
        out["kept"] = digest(w.kept_columns)
        out["ks"] = digest(screen.ks_scores(w).scores)
        null = screen.build_null_table(w.n, 20000, seed=7)
        out["null"] = digest(null.values)
        wide = w.columns()
        tall = wide[:, :k + 4]
        for form, a in (("array", wide), ("gram", matrix.Gram(w.columns, (w.n, w.p))),
                        ("tall", tall)):
            emb = matrix.truncated_left_svd(a, k)
            out[f"svd {form}"] = [digest(emb.u), digest(emb.singular_values)]
            out[f"kmeans {form}"] = kmeans_digest(cluster.kmeans(a, k, replicates=8,
                                                                 seed=2))
            out[f"kmeans++ {form} u"] = kmeans_digest(
                cluster.kmeans(emb.u, k, replicates=8, seed=2, init="plusplus"))

        inst = pipeline.Instance(x)
        for method in pipeline.METHODS:
            for norm in pipeline.NORMS:
                for threshold in THRESHOLDS:
                    for truncate in (False, True):
                        opts = pipeline.PipelineOptions(
                            k=k, method=method, norm=norm, threshold=threshold,
                            truncate=truncate, null_table=null, seed=1)
                        bare = outcome(lambda: pipeline.run_pipeline(x, opts))
                        shared = outcome(lambda: pipeline.run_pipeline(inst, opts))
                        assert shared == bare, (method, norm, threshold, truncate)
                        out[f"{method} {norm} {threshold} truncate={truncate}"] = bare
    return out


def generate_outputs():
    """acm.generate on each preset's configs at p=2000."""
    out = {}
    for e, exp in enumerate(("1a", "1b", "2a", "2b", "3", "4", "5")):
        for i, cfg in enumerate(acm.experiment_preset(exp)[:3]):
            x, truth = acm.generate(replace(cfg, p=2000), seed=[e, i])
            out[f"{exp}[{i}]"] = [digest(x), digest(truth.y), digest(truth.mu)]
    return out


def cli_outputs(tmp):
    """The simulate CSV of experiment 5 at p=2000, and load_matrix on a CSV
    with a header and blank lines, read inline and in pieces."""
    out = {}
    stdout = io.StringIO()
    for i, cfg in enumerate(acm.experiment_preset("5")):
        path = os.path.join(tmp, f"exp5-{i}.json")
        with open(path, "w") as f:
            json.dump(replace(cfg, p=2000).to_dict(), f)
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["simulate", "--config", path, "--reps", "2",
                             "--seed", "3", "--null-reps", "20000"])
        out[f"simulate exp5[{i}]"] = code
    out["simulate csv"] = stdout.getvalue()

    path = os.path.join(tmp, "x.csv")
    x = fixtures()["60x300 C"][0]
    with open(path, "w") as f:
        f.write("\n" + ",".join(f"g{j}" for j in range(x.shape[1])) + "\n\n")
        np.savetxt(f, x, delimiter=",", fmt="%.17g")
    inline = cli.load_matrix(path, threads=1)
    assert cli.load_matrix(path, threads=3).tobytes() == inline.tobytes()
    out["load_matrix"] = digest(inline)
    return out


SECTIONS = sorted(fixtures()) + ["generate", "cli"]


def section_outputs(section, tmp):
    if section == "generate":
        return generate_outputs()
    if section == "cli":
        return cli_outputs(tmp)
    return fixture_outputs(section)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        recorded = json.load(f)
    if recorded["machine"] != machine():
        pytest.skip(f"golden outputs were recorded on {recorded['machine']}")
    return recorded["outputs"]


@pytest.mark.parametrize("section", SECTIONS)
def test_outputs_are_the_golden_outputs(section, golden, tmp_path):
    got = section_outputs(section, str(tmp_path))
    want = golden[section]
    moved = sorted(key for key in want.keys() | got.keys()
                   if want.get(key) != got.get(key))
    assert not moved, f"{len(moved)} of {len(want)} outputs moved: {moved[:10]}"
