"""The three benchmark workloads.

Each workload has a set-up step that makes its inputs (timed as `setup_s`;
write_inputs then stores them in a work directory, untimed), the host-speed
probe (hostspeed.py) that does the same kind of work as its dominant layer,
a loader that reads the inputs back in the process that runs the timed
operations, a cycle of `period` operation specs, the operation itself, and a
digest of the operation's output that is compared with the reference
recorded in reference.json.  A workload whose `wraps` is false runs each
spec of its cycle at most once per run, so no op repeats another op's exact
call.

Inputs depend only on `seed % INPUT_SEEDS`, so every seed maps onto inputs
whose reference outputs are recorded.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os

import numpy as np

from ifpca import acm, cli, pipeline, screen

INPUT_SEEDS = 10
# Floats in a digest (threshold, error rates) may move by this relative amount
# when a kernel reorders its arithmetic; labels, selected sets and j_hat are
# compared exactly.
REL_TOL = 1e-9


class OpFailed(Exception):
    """The program returned a result the benchmark counts as a failed op."""


def _sha(values):
    return hashlib.sha256(np.asarray(values, dtype=np.int64).tobytes()).hexdigest()[:16]


def report_digest(d):
    """Timing-free digest of a RunReport dict (the `cluster` JSON output)."""
    return {"labels": _sha(d["labels"]), "selected": _sha(d["selected"]),
            "n_selected": len(d["selected"]), "j_hat": d["j_hat"],
            "threshold": d["threshold"], "error_rate": d["error_rate"]}


def write_inputs(inputs, workdir):
    """Store set-up's inputs, each in the format its file name gives."""
    for name, value in inputs.items():
        path = os.path.join(workdir, name)
        ext = os.path.splitext(name)[1]
        if ext == ".csv":
            np.savetxt(path, value, fmt="%.8g", delimiter=",")
        elif ext == ".txt":
            np.savetxt(path, value, fmt="%d")
        elif ext == ".npy":
            np.save(path, value)
        else:
            screen.save_null_table(value, path)


def mismatches(got, ref):
    """Keys whose value differs from the reference (floats within REL_TOL)."""
    bad = []
    for key in sorted(set(got) | set(ref)):
        a, b = got.get(key), ref.get(key)
        if isinstance(a, float) and isinstance(b, float):
            if not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12):
                bad.append(key)
        elif a != b:
            bad.append(key)
    return bad


class ClusterCsv:
    name = "cluster-csv"
    why = ("cli.main cluster on rotating 141x20000 CSVs (exp 4/5, K=4) with a stored "
           "n=141 null table: the CSV loader dominates; null building and full-width "
           "clustering are bypassed")
    dominant = ("cli.load_matrix",)
    probe = "parse"
    # The stored table is built once in set-up; 2e5 draws keeps set-up short.
    sizes = {"full": {"p": 20000, "null_reps": 200_000},
             "smoke": {"p": 2000, "null_reps": 20_000}}
    period = 2
    # The workload is a rotating pool of files: ops re-read the same two.
    wraps = True

    def _configs(self, p):
        pool = (acm.experiment_preset("4")[0], acm.experiment_preset("5")[0])
        return [dataclasses.replace(c, p=p) for c in pool]

    def setup(self, seed, size):
        params = self.sizes[size]
        configs = self._configs(params["p"])
        inputs = {}
        for i, cfg in enumerate(configs):
            x, truth = acm.generate(cfg, seed=[seed, i])
            inputs[f"x{i}.csv"], inputs[f"y{i}.txt"] = x, truth.y
        inputs["null.bin"] = screen.build_null_table(configs[0].n, params["null_reps"], seed)
        return inputs

    def load(self, workdir, seed, size):
        return [["cluster", "--input", os.path.join(workdir, f"x{i}.csv"),
                 "--k", "4", "--labels", os.path.join(workdir, f"y{i}.txt"),
                 "--null-table", os.path.join(workdir, "null.bin")]
                for i in range(self.period)]

    def call(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def digest(self, raw):
        code, out = raw
        if code != 0:
            raise OpFailed(f"exit code {code}")
        d = json.loads(out.splitlines()[-1])
        return report_digest(d), [d["error_rate"]]


class Ifpca1b:
    name = "ifpca-1b"
    why = ("run_pipeline on in-memory 577x40000 exp-1b instances, threads=2, each op "
           "simulating its own null table of fixed null_reps=1e5 (default 4e6): null "
           "kernel, KS and standardize dominate")
    dominant = ("screen.build_null_table",)
    probe = "draws"
    # Fixed far below the 4e6 default so that one op takes seconds, not
    # minutes; the null kernel still does the largest share of the work.
    sizes = {"full": {"p": 40000, "null_reps": 100_000},
             "smoke": {"p": 4000, "null_reps": 10_000}}
    pool = 2
    # More specs than a run does ops at the seed commit's speed (the warm-up
    # and 6 to 9 timed ops in 25 s); a faster program ends its run when the
    # cycle is done.
    period = 20
    wraps = False
    threads = 2

    def _config(self, p):
        # Asymmetric classes (1/3, 2/3) at r=0.5, the middle of the grid.
        return dataclasses.replace(acm.experiment_preset("1b")[2], p=p)

    def setup(self, seed, size):
        cfg = self._config(self.sizes[size]["p"])
        inputs = {}
        for i in range(self.pool):
            x, truth = acm.generate(cfg, seed=[seed, i])
            inputs[f"x{i}.npy"], inputs[f"y{i}.npy"] = x, truth.y
        return inputs

    def load(self, workdir, seed, size):
        data = [(np.load(os.path.join(workdir, f"x{i}.npy")),
                 np.load(os.path.join(workdir, f"y{i}.npy"))) for i in range(self.pool)]
        null_reps = self.sizes[size]["null_reps"]
        # A distinct pipeline seed per op, so no op reuses another's null table.
        return [(data[i % self.pool], pipeline.PipelineOptions(
                    k=2, null_reps=null_reps, seed=100 * seed + i, threads=self.threads))
                for i in range(self.period)]

    def call(self, spec):
        (x, y), opts = spec
        return pipeline.run_pipeline(x, opts, truth=y)

    def digest(self, report):
        return report_digest(report.to_dict(include_timings=False)), [report.error_rate]


class SimulateSmall:
    name = "simulate-small"
    why = ("cli.simulate_one, all six default methods, exp-5 noise models at p=5000 "
           "(n=71): full-width kmeans and hier dominate; hier runs only at this size "
           "(99 GiB at 1b)")
    dominant = ("cluster.kmeans", "cluster.hierarchical_complete")
    probe = "broadcast"
    methods = ("ifpca", "ifpca-fixed", "pca", "kmeans", "kmeanspp", "hier")
    # The shared table is built in set-up, which runs three times per run;
    # 2e5 draws (the `ifpca simulate` default is 1e6) keep set-up short.
    sizes = {"full": {"p": 5000, "null_reps": 200_000},
             "smoke": {"p": 1000, "null_reps": 20_000}}
    # More specs than a run does ops at the seed commit's speed (the warm-up
    # and 14 to 19 timed ops in 25 s), each with its own generator seed.
    period = 30
    wraps = False

    def _configs(self, p):
        return [dataclasses.replace(c, p=p) for c in acm.experiment_preset("5")]

    def setup(self, seed, size):
        params = self.sizes[size]
        n = self._configs(params["p"])[0].n
        return {"null.bin": screen.build_null_table(n, params["null_reps"], seed)}

    def load(self, workdir, seed, size):
        configs = self._configs(self.sizes[size]["p"])
        null_cache = {configs[0].n: screen.load_null_table(os.path.join(workdir, "null.bin"))}
        return [(configs[i % len(configs)], 100 * seed + i, null_cache)
                for i in range(self.period)]

    def call(self, spec):
        cfg, seed, null_cache = spec
        return cli.simulate_one(cfg, self.methods, 1, seed, null_cache)

    def digest(self, stats):
        errors = {m: stats[m][0] for m in self.methods}
        return errors, list(errors.values())


WORKLOADS = {w.name: w for w in (ClusterCsv(), Ifpca1b(), SimulateSmall())}
