import collections
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ifpca import acm, cli, cluster, matrix, pipeline, screen
from ifpca.screen import build_null_table, load_null_table, save_null_table


@pytest.fixture
def blob_csv(tmp_path):
    """Well-separated 2-class matrix plus its labels, written as flat files."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 6)) * 0.2
    x[20:] += 5.0
    path = tmp_path / "x.csv"
    np.savetxt(path, x, delimiter=",")
    y = np.repeat([1, 2], 20)
    ypath = tmp_path / "y.txt"
    np.savetxt(ypath, y, fmt="%d")
    return str(path), str(ypath)


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cluster_kmeans_on_blobs(blob_csv, capsys, tmp_path):
    xpath, ypath = blob_csv
    out_labels = str(tmp_path / "labels.txt")
    code, out, _ = run(["cluster", "--input", xpath, "--k", "2",
                        "--method", "kmeans", "--labels", ypath,
                        "--out", out_labels], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["error_rate"] == 0.0
    saved = np.loadtxt(out_labels, dtype=int)
    assert np.array_equal(saved, report["labels"])


def test_cluster_header_and_transpose(blob_csv, capsys, tmp_path):
    xpath, _ = blob_csv
    x = np.loadtxt(xpath, delimiter=",")
    tpath = tmp_path / "xt.csv"
    with open(tpath, "w") as f:
        f.write(",".join(f"s{i}" for i in range(x.shape[0])) + "\n")
        np.savetxt(f, x.T, delimiter=",")
    a = run(["cluster", "--input", xpath, "--k", "2", "--method", "kmeans"],
            capsys)
    b = run(["cluster", "--input", str(tpath), "--k", "2", "--method", "kmeans",
             "--transpose"], capsys)
    assert a[0] == b[0] == 0
    assert json.loads(a[1])["labels"] == json.loads(b[1])["labels"]


@pytest.mark.parametrize("content, expected", [
    (b"1,2\n\n   \n3,4\n\t\n", [[1, 2], [3, 4]]),       # blank lines skipped
    (b"a,b\n1,2\n3,4\n", [[1, 2], [3, 4]]),             # header detected
    (b"1,2\r\n3,4\r\n", [[1, 2], [3, 4]]),              # CRLF
    (b"a,b\r\n1,2\r\n", [[1, 2]]),
    (b"1,2,3\n", [[1, 2, 3]]),                          # one row
    (b"1\n2\n3\n", [[1], [2], [3]]),                    # one column
    (b"1.5, -2 \n", [[1.5, -2]]),                       # spaces around cells
    (b"nan,inf\n-inf,1e400\n", [[np.nan, np.inf], [-np.inf, np.inf]]),
    (b"a,b\n", "no data rows"),                         # header only
    (b"", "no data rows"),
    (b"\n  \n", "no data rows"),
    (b"1,2\n3\n", "columns changed"),                   # ragged
    (b"1,2\n3,4,5\n", "columns changed"),
    (b"1,2\n# 3,4\n", "'# 3'"),                         # no comment character
    (b"1,2\n1_0,4\n", "'1_0'"),                         # no underscores
    (b"1,2,3\n1,,2\n", "''"),                           # empty cell
    (b"1,2\n3,\xff\n", "can't decode"),                  # in the first block
])
def test_load_matrix_contract(content, expected, capsys, tmp_path):
    # expected: the matrix, or a fragment of the exit-3 error message
    path = tmp_path / "m.csv"
    path.write_bytes(content)
    if isinstance(expected, str):
        code, _, err = run(["cluster", "--input", str(path), "--k", "1"],
                           capsys)
        assert code == 3
        assert f"{path}: " in err and expected in err
        # Lines are named as counted in the file (test below), never by
        # loadtxt's row index or its `usecols` advice.
        assert "at row" not in err and "usecols" not in err
    else:
        got = cli.load_matrix(str(path))
        assert got.dtype == np.float64
        assert np.array_equal(got, np.array(expected, dtype=np.float64),
                              equal_nan=True)


@pytest.mark.parametrize("content, line, cause", [
    (b"a,b\n\n1,2\n3,4\n5,x\n", 5, "'x' to float64 in column 2"),
    (b"1,2\n\n3,4\n5\n", 4, "columns changed from 2 on line 1 to 1"),
    (b"\n1,2\n3,4,5\n", 3, "columns changed from 2 on line 2 to 3"),
    (b"h\r\n\r\n1,2\r\n1,,2\r\n", 4, "'' to float64 in column 2"),
    (b"1\n2\n3\n1_0\n", 4, "'1_0' to float64 in column 1"),
])
def test_load_matrix_error_names_file_line(content, line, cause, tmp_path):
    # Line numbers count every line of the file: blank ones and a header too.
    path = tmp_path / "m.csv"
    path.write_bytes(content)
    with pytest.raises(ValueError) as e:
        cli.load_matrix(str(path))
    msg = str(e.value)
    assert msg.startswith(f"{path}: line {line}: ") and cause in msg


def test_load_matrix_undecodable_line_names_file(tmp_path):
    # The bad byte lies past the reader's first block, so loadtxt meets it.
    path = tmp_path / "m.csv"
    path.write_bytes(b"1,2\n" * 20000 + b"3,\xff\n")
    with pytest.raises(ValueError, match="can't decode") as e:
        cli.load_matrix(str(path))
    assert str(e.value).startswith(f"{path}: ")


def load_matrix_oracle(text):
    """Literal reading of a header-free file: every cell through float()."""
    return [[float(c) for c in line.split(",")]
            for line in text.splitlines() if line.strip()]


@given(x=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                elements=st.floats(allow_nan=True, allow_infinity=True)),
       fmt=st.sampled_from(["%.17g", "%.8g"]))
def test_load_matrix_matches_float_oracle(x, fmt):
    text = "".join(",".join(fmt % v for v in row) + "\n" for row in x)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.csv")
        with open(path, "w") as f:
            f.write(text)
        got = cli.load_matrix(path)
    assert np.array_equal(got, np.array(load_matrix_oracle(text)),
                          equal_nan=True)
    if fmt == "%.17g":
        assert np.array_equal(got, x, equal_nan=True)


def test_cluster_missing_k_is_usage_error(blob_csv, capsys):
    xpath, _ = blob_csv
    code, _, _ = run(["cluster", "--input", xpath], capsys)
    assert code == 2


def test_cluster_empty_selection_exit_code(blob_csv, capsys):
    xpath, _ = blob_csv
    code, _, err = run(["cluster", "--input", xpath, "--k", "2",
                        "--threshold", "fixed:999", "--norm", "none"], capsys)
    assert code == 5
    assert "error:" in err


@pytest.mark.parametrize("value", [0.1, 1 / 3, 7.7])
def test_cluster_constant_column_exit_code(value, capsys, tmp_path):
    # A constant column whose computed SD is of order eps, not 0, used to be
    # standardized to ±0.99 and selected, with or without --drop-constant.
    x = np.random.default_rng(4).standard_normal((30, 200))
    x[:, 17] = value
    path = tmp_path / "x.csv"
    np.savetxt(path, x, delimiter=",")
    argv = ["cluster", "--input", str(path), "--k", "2", "--norm", "none",
            "--threshold", "fixed:0"]
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == "" and err == "error: column 17 has zero variance\n"
    code, out, _ = run(argv + ["--drop-constant"], capsys)
    assert code == 0
    assert json.loads(out)["selected"] == [j for j in range(1, 201) if j != 18]


@pytest.mark.parametrize("method", pipeline.METHODS)
def test_cluster_overflowing_column_exit_code(method, capsys, tmp_path):
    # A column sum past the float range used to give an infinite mean and
    # NaN standardized values: a traceback from k-means, "Eigenvalues did not
    # converge" from pca, an empty HC rank from the screened methods, and a
    # result from hier.
    x = np.random.default_rng(6).standard_normal((40, 6))
    x[:, 2] = 0.0
    x[1:4, 2] = 1e308
    path = tmp_path / "x.csv"
    np.savetxt(path, x, delimiter=",", fmt="%.17g")
    code, out, err = run(["cluster", "--input", str(path), "--k", "2",
                          "--method", method, "--null-reps", "2000"], capsys)
    assert code == 3
    assert out == "" and err == "error: column 2: its mean or SD overflows\n"


def test_cluster_truncate_reaches_the_pipeline(capsys, tmp_path):
    # Four far samples put their entries of the leading singular vector
    # past the clip level log(p)/sqrt(n).
    x = np.random.default_rng(4).standard_normal((120, 60))
    x[:4, :12] += 6.0
    path = tmp_path / "x.csv"
    np.savetxt(path, x, delimiter=",", fmt="%.17g")
    code, out, _ = run(["cluster", "--input", str(path), "--k", "2", "--norm",
                        "none", "--threshold", "fixed:1.0", "--truncate"], capsys)
    assert code == 0
    opts = pipeline.PipelineOptions(k=2, norm="none", threshold="fixed:1.0",
                                    truncate=True)
    report = json.loads(out)
    assert report["config"]["truncate"] is True
    assert report["labels"] == pipeline.run_pipeline(x, opts).labels.tolist()


@pytest.mark.parametrize("argv, what", [
    # meanstd centers and scales the null table: one draw has no SD.
    (["--null-reps", "1"], "the null table, got 1"),
    (["--null-table", "one.txt"], "the null table, got 1"),
    # lower50 matches the lower halves of the scores and of the table.
    (["--norm", "lower50", "--null-reps", "3"],
     "the lower half of the null table, got 1"),
    (["--norm", "lower50", "--input", "narrow.csv"],
     "the lower half of KS scores, got 1"),
])
def test_cluster_spread_of_fewer_than_two_values_exit_code(argv, what, blob_csv,
                                                           capsys, tmp_path):
    # Each used to give a NaN center or scale: a result computed against a
    # NaN reference (exit 0), or a misleading empty selection (exit 5).
    xpath, _ = blob_csv
    save_null_table(screen.NullTable(n=40, seed=0, values=np.array([0.7])),
                    tmp_path / "one.txt")
    np.savetxt(tmp_path / "narrow.csv", np.loadtxt(xpath, delimiter=",")[:, :3],
               delimiter=",")
    argv = [str(tmp_path / a) if a.endswith((".txt", ".csv")) else a for a in argv]
    code, out, err = run(["cluster", "--input", xpath, "--k", "2",
                          "--null-reps", "2000"] + argv, capsys)
    assert code == 3
    assert out == "" and err == f"error: need at least 2 values in {what}\n"


def test_cluster_missing_file_exit_code(capsys):
    code, _, _ = run(["cluster", "--input", "/nonexistent.csv", "--k", "2"],
                     capsys)
    assert code == 3


def test_cluster_with_stored_null_table(blob_csv, capsys, tmp_path):
    xpath, ypath = blob_csv
    table = build_null_table(40, 5000, seed=1)
    npath = str(tmp_path / "null.txt")
    save_null_table(table, npath)
    # every column carries signal, so the HC eligibility floor excludes all
    # indices; --hc-fallback drops the floor
    code, out, _ = run(["cluster", "--input", xpath, "--k", "2",
                        "--norm", "none", "--null-table", npath,
                        "--labels", ypath, "--hc-fallback"], capsys)
    assert code == 0
    assert json.loads(out)["error_rate"] <= 0.1


@pytest.mark.parametrize("content", [
    "ifpca-null v1, n=40, seed=1\n0.5\n",                    # N missing
    "ifpca-null v1, n=40, N=1, seed=1, x=2\n0.5\n",          # extra field
    "ifpca-null v1, n=1, N=1, seed=1\n0.5\n",                # n < 2
    "ifpca-null v1, n=40, N=0, seed=1\n",                    # N < 1
    "ifpca-null v1, n=40, N=3, seed=1\n0.5\n0.3\n0.9\n",     # not ascending
    "ifpca-null v1, n=40, N=2, seed=1\n0.5\nnan\n",          # not finite
    "ifpca-null v1, n=40, N=2, seed=1\n0.5\ninf\n",
    "ifpca-null v1, n=40, N=1, seed=1\nabc\n",              # does not parse
    ("null.txt", b"ifpca-null v1, n=40, N=1, seed=1\n\xff\n"),  # not UTF-8
    ("null.bin", b"\xffifpca-null v1\n"),                    # not ASCII
    ("null.bin", b"ifpca-null v1, n=40, N=1, seed=1\n"      # surplus values
     + np.array([0.5, 0.7]).astype("<f8").tobytes()),
])
def test_cluster_malformed_null_table_exit_code(content, blob_csv, capsys,
                                                tmp_path):
    # A header with a field missing used to end in a KeyError traceback,
    # unsorted values in wrong p-values without an error, a file that did
    # not decode or parse in a message without its name, and a .bin file
    # with more values than its header's N in the first N, silently.
    name, content = content if isinstance(content, tuple) else ("null.txt",
                                                                content)
    xpath, _ = blob_csv
    npath = tmp_path / name
    npath.write_bytes(content if isinstance(content, bytes) else content.encode())
    code, out, err = run(["cluster", "--input", xpath, "--k", "2",
                          "--null-table", str(npath)], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: {npath}: ")


@pytest.mark.parametrize("values", ["", "\n  \n"])
def test_cluster_null_table_without_values_prints_only_the_error(
        values, blob_csv, capsys, tmp_path):
    # loadtxt used to warn "input contained no data" on stderr before the
    # error line.
    xpath, _ = blob_csv
    npath = tmp_path / "null.txt"
    npath.write_text("ifpca-null v1, n=40, N=3, seed=0\n" + values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["cluster", "--input", xpath, "--k", "2",
                              "--null-table", str(npath)], capsys)
    assert code == 3
    assert out == "" and err == f"error: {npath}: expected 3 values, found 0\n"


def test_nulltable_round_trip(tmp_path, capsys):
    out = str(tmp_path / "null.bin")
    code, _, _ = run(["nulltable", "--n", "30", "--reps", "2000",
                      "--seed", "4", "--out", out], capsys)
    assert code == 0
    table = load_null_table(out)
    direct = build_null_table(30, 2000, seed=4)
    np.testing.assert_array_equal(table.values, direct.values)
    assert table.n == 30 and table.seed == 4


def test_cluster_default_threads_match_one_thread(tmp_path, capsys):
    # The 40000-draw table at n=200 spans two chunks and 8 M cells, enough
    # for two workers under the default; `--threads 0` is refused (exit 2,
    # test_malformed_argv_exit_code).
    rng = np.random.default_rng(8)
    x = rng.standard_normal((200, 60))
    x[:70, :12] += 3.0
    path = tmp_path / "x.csv"
    np.savetxt(path, x, delimiter=",")
    argv = ["cluster", "--input", str(path), "--k", "2", "--null-reps", "40000"]
    reports = []
    for extra in ([], ["--threads", "1"]):
        code, out, _ = run(argv + extra, capsys)
        assert code == 0
        report = json.loads(out)
        del report["timings"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["selected"]


def test_simulate_tiny_config_deterministic(tmp_path, capsys):
    cfg = {"k": 2, "p": 150, "theta": 0.8, "vartheta": 0.25, "r": 2.0,
           "rep": 2, "delta": [1 / 3, 2 / 3], "gamma": [0.5, 0.0, 0.5],
           "g_mubar": {"kind": "normal", "params": [0.0, 1.0]},
           "g_mu": {"kind": "uniform", "params": [1.0, 0.2]},
           "g_sigma": {"kind": "pointmass", "params": [1.0]}}
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg))
    argv = ["simulate", "--config", str(cpath), "--reps", "2",
            "--methods", "ifpca-fixed,kmeans", "--seed", "3",
            "--null-reps", "2000"]
    a = run(argv, capsys)
    b = run(argv, capsys)
    assert a[0] == 0
    assert a[1] == b[1]
    lines = a[1].strip().split("\n")
    assert lines[0] == "experiment,setting,method,mean_error,sd_error,reps"
    assert len(lines) == 3
    for line in lines[1:]:
        mean = float(line.split(",")[-3])
        assert 0.0 <= mean <= 0.5


TINY_CONFIG = {"k": 2, "p": 150, "theta": 0.8, "vartheta": 0.25, "r": 2.0,
               "rep": 2, "delta": [1 / 3, 2 / 3], "gamma": [0.5, 0.0, 0.5],
               "g_mubar": {"kind": "normal", "params": [0.0, 1.0]},
               "g_mu": {"kind": "uniform", "params": [1.0, 0.2]},
               "g_sigma": {"kind": "pointmass", "params": [1.0]}}


@pytest.mark.parametrize("change, field", [
    ({"p": None}, "AcmConfig.p"),
    ({"threshhold_q": 0.03}, "AcmConfig.threshhold_q"),
    ({"noise": {"kind": "correlated", "variant": "band", "dd": 0.5}},
     "AcmConfig.noise.dd"),
    ("array", "AcmConfig"),
    ({"k": "2"}, "AcmConfig.k"),
    ({"k": True}, "AcmConfig.k"),
    ({"g_mu": {"kind": "uniform", "params": 1}}, "AcmConfig.g_mu.params"),
    ({"delta": [0.5, "x"]}, "AcmConfig.delta[1]"),
    ({"g_mu": {"kind": "uniform", "params": [1.0, math.nan]}},
     "AcmConfig.g_mu.params[1]"),
    ({"rep": 0}, "AcmConfig.rep"),
    ({"p": 1}, "AcmConfig.p"),
    ({"p": 2, "theta": 0.1}, "AcmConfig.p"),
    ({"noise": {"kind": "correlated", "variant": "random", "d": 0.1,
                "subset_size": 150}}, "AcmConfig.noise.subset_size"),
])
def test_simulate_malformed_config_is_usage_error(change, field, tmp_path,
                                                  capsys):
    # A misspelled key used to be dropped (exit 0 with the default value);
    # a missing or mistyped one ended in a traceback.  Counts that cannot
    # generate data (no replications, n < 2, a support wider than p − 1)
    # used to fail after the CSV header or print NaN rows.
    if change == "array":
        cfg = [TINY_CONFIG]
    else:
        cfg = {**TINY_CONFIG, **change}
        cfg = {k: v for k, v in cfg.items() if v is not None}
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg))
    code, out, err = run(["simulate", "--config", str(cpath), "--reps", "1",
                          "--methods", "kmeans"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {field}")


# Columns that are permutations of one vector of integers, so that their
# means, SDs and KS scores are equal bit for bit.
PERMUTED = "".join(",".join(map(str, row)) + "\n" for row in np.array(
    [np.random.default_rng(c).permutation(30) for c in range(20)]).T).encode()
TRUNCATE_P1 = ("--truncate needs p >= 2 columns: its clip level log(p)/sqrt(n) "
               "is 0 at p=1")
CLASS_VARIANCES = ("AcmConfig.noise.class_variances: class-scaled noise needs K=2 "
                   "positive variances")


def shiftexp(*params):
    return {"g_mu": {"kind": "truncshiftexp", "params": list(params)}}


# name: (argv, the input matrix or the config's changes, exit code, error)
EXIT_PATHS = {
    "cluster zero MAD": (["cluster", "--k", "2", "--norm", "medmad", "--threshold",
                          "fixed:1"], PERMUTED, 4, "MAD of KS scores is zero"),
    "cluster one row": (["cluster", "--k", "1"], b"1,2,3\n", 3,
                        "need at least 2 samples (rows)"),
    "cluster all constant": (["cluster", "--k", "1", "--drop-constant"],
                             b"1,2\n1,2\n1,2\n", 3, "column 0 has zero variance"),
    "cluster truncate p=1": (["cluster", "--k", "2", "--method", "pca", "--truncate"],
                             b"1\n2\n4\n8\n", 3, TRUNCATE_P1),
    "cluster truncate p=1 after drop": (
        ["cluster", "--k", "2", "--method", "pca", "--truncate", "--drop-constant"],
        b"1,5\n2,5\n4,5\n8,5\n", 3, TRUNCATE_P1),
    "parameter count": (["simulate"], {"g_mu": {"kind": "uniform", "params": [1.0]}},
                        2, "uniform takes 2 parameters"),
    "exponential mean": (["simulate"], shiftexp(0.0, 0.9, 0.9, 1.2), 2,
                         "exponential mean must be positive"),
    "a1 > a2": (["simulate"], shiftexp(0.1, 0.9, 1.2, 0.9), 2, "need a1 <= a2"),
    "empty window": (["simulate"], shiftexp(0.1, 0.9, 0.0, 0.5), 2,
                     "truncshiftexp window is empty"),
    "theta": (["simulate"], {"theta": 1.5}, 2, "theta and vartheta must lie in (0, 1)"),
    "vartheta": (["simulate"], {"vartheta": 0.0}, 2,
                 "theta and vartheta must lie in (0, 1)"),
    "r": (["simulate"], {"r": 0.0}, 2, "r must be positive"),
    "variant": (["simulate"], {"noise": {"kind": "correlated", "variant": "bands"}},
                2, "unknown correlation variant: bands"),
    "d": (["simulate"], {"noise": {"kind": "correlated", "d": 1.0}}, 2,
          "|d| must be < 1"),
    "noise kind": (["simulate"], {"noise": {"kind": "gausian"}}, 2,
                   "unknown noise model: gausian"),
    "class variance count": (["simulate"], {"noise": {"kind": "class-scaled",
                                                      "class_variances": [1.0]}},
                             2, CLASS_VARIANCES),
    "class variance zero": (["simulate"], {"noise": {"kind": "class-scaled",
                                                     "class_variances": [1.0, 0.0]}},
                            2, CLASS_VARIANCES),
}


@pytest.mark.parametrize("case", sorted(EXIT_PATHS))
def test_documented_exit_paths(case, capsys, monkeypatch, tmp_path):
    # Each is refused before a null table is drawn: a bad noise model used
    # to be found by generate, after the CSV header and a whole table.
    def no_null_table(*args, **kwargs):
        raise AssertionError("a null table was built")

    monkeypatch.setattr(screen, "build_null_table", no_null_table)
    argv, content, code, error = EXIT_PATHS[case]
    if isinstance(content, dict):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY_CONFIG, **content}))
        argv = argv + ["--config", str(path), "--null-reps", "2000"]
    else:
        path = tmp_path / "x.csv"
        path.write_bytes(content)
        argv = argv + ["--input", str(path)]
    got, out, err = run(argv, capsys)
    assert (got, out, err) == (code, "", f"error: {error}\n")


def test_simulate_zero_reps_is_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{}")
    code, _, _ = run(["simulate", "--config", str(cfg_path), "--reps", "0"],
                     capsys)
    assert code == 2


def test_tailcheck_null_output(capsys):
    code, out, _ = run(["tailcheck", "--n", "50", "--reps", "5000",
                        "--grid", "0,1.2"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,empirical_survival,theory_lower,theory_upper,ratio"
    row0 = lines[1].split(",")
    assert float(row0[1]) == 1.0  # every score exceeds t = 0
    row = lines[2].split(",")
    # closed form at t = 1.2: exp(-t^2 / (2 a0^2)) / (sqrt(2) a0)
    np.testing.assert_allclose(float(row[2]), 8.4780812e-04, rtol=1e-5)
    assert math.isclose(float(row[3]), 2 * float(row[2]), rel_tol=1e-6)


def test_tailcheck_alt_bound(capsys):
    code, out, _ = run(["tailcheck", "--n", "100", "--reps", "2000",
                        "--grid", "0.5",
                        "--alt", "delta=0.5,0.5;m=0.8,-0.8"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,empirical_miss,bound"
    t, miss, bound = (float(v) for v in lines[1].split(","))
    assert 0.0 <= miss <= 1.0
    assert bound > 0.0


def test_tailcheck_negative_grid_is_usage_error(capsys):
    code, _, _ = run(["tailcheck", "--n", "50", "--reps", "100",
                      "--grid", "-1"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv, code", [
    (["cluster", "--threshold", "fixed-q:nan"], 2),
    (["cluster", "--threshold", "fixed-q:inf"], 2),
    (["cluster", "--threshold", "fixed:nan"], 2),
    (["tailcheck", "--alt", "delta=0.5,0.5"], 2),
    (["tailcheck", "--alt", "foo"], 2),
    (["tailcheck", "--alt", "delta=0.5,0.5;m=1"], 2),
    (["tailcheck", "--alt", "delta=0.5,0.6;m=1,-1"], 2),
    (["tailcheck", "--n", "0", "--alt", "delta=0.5,0.5;m=1,-1"], 2),
    (["cluster", "--k", "0"], 2),
    (["cluster", "--replicates", "0"], 2),
    (["simulate", "--reps", "0"], 2),
    (["nulltable", "--reps", "0"], 2),
    (["tailcheck", "--reps", "0"], 2),
    (["nulltable", "--n", "1"], 2),
    (["tailcheck", "--n", "1"], 2),
    (["cluster", "--threads", "0"], 2),
    (["cluster", "--threads", "-4"], 2),
    (["cluster", "--null-reps", "-5"], 2),
    (["simulate", "--threads", "0"], 2),
    (["simulate", "--null-reps", "-1"], 2),
    (["nulltable", "--threads", "0"], 2),
    (["tailcheck", "--threads", "0"], 2),
    (["simulate", "--methods", "bogus"], 2),
    (["simulate", "--methods", "ifpca,,pca"], 2),
    (["simulate", "--methods", "if-kmeans"], 2),
    (["simulate", "--methods", "kmeans,kmeans"], 2),
    (["simulate", "--methods", ""], 2),
    (["tailcheck", "--grid", "x"], 2),
    (["tailcheck", "--grid", ""], 2),
    (["tailcheck", "--grid", "1,,2"], 2),
    (["tailcheck", "--grid", "nan"], 2),
    (["tailcheck", "--grid", "0.5,inf"], 2),
])
def test_malformed_argv_exit_code(argv, code, blob_csv, capsys, tmp_path):
    # argv options given after the common ones override them
    xpath, _ = blob_csv
    common = {"cluster": ["--input", xpath, "--k", "2", "--norm", "none"],
              "simulate": ["--experiment", "5"],
              "nulltable": ["--n", "50", "--reps", "100",
                            "--out", str(tmp_path / "null.bin")],
              "tailcheck": ["--n", "50", "--reps", "100", "--grid", "0.5"]}
    got, out, _ = run(argv[:1] + common[argv[0]] + argv[1:], capsys)
    assert got == code
    assert out == ""    # rejected before any work or output


@pytest.mark.parametrize("labels", [[1, 3], [0, 1]])
def test_cluster_labels_out_of_range_exit_code(labels, blob_csv, capsys,
                                               tmp_path):
    # labels above --k used to end in an IndexError, labels <= 0 to wrap
    # around into a wrong error rate
    xpath, _ = blob_csv
    ypath = tmp_path / "bad.txt"
    np.savetxt(ypath, np.repeat(labels, 20), fmt="%d")
    code, _, err = run(["cluster", "--input", xpath, "--k", "2",
                        "--method", "kmeans", "--labels", str(ypath)], capsys)
    assert code == 3
    assert "1..2" in err


@pytest.mark.parametrize("content, extra, shown", [
    (b"1\n2\nx\n", [], "line 3: 'x' is not an integer label"),
    (b"1\n\n2\n1.5\n", [], "line 4: '1.5' is not an integer label"),
    (b"1 2\n", [], "line 1: '1 2' is not an integer label"),
    (b"1\n2\n3\n", [], "line 3: label 3 is outside 1..2"),
    (b"1\n-1\n", [], "line 2: label -1 is outside 1..2"),
    (b"", [], "0 labels for 40 samples"),
    (b"1\n2\n", [], "2 labels for 40 samples"),
    (b"1\n" * 41, [], "41 labels for 40 samples"),
    # --transpose reads the 40×6 file as 6 samples
    (b"1\n2\n" * 20, ["--transpose"], "40 labels for 6 samples"),
    (b"1\n\xff\n", [], "'utf-8' codec can't decode byte 0xff"),
], ids=["text", "float", "two-per-line", "above-k", "negative", "empty",
        "short", "long", "transposed", "undecodable"])
def test_cluster_bad_labels_exit_code(content, extra, shown, blob_csv, capsys,
                                      tmp_path, monkeypatch):
    # A malformed or short label file used to surface only after the whole
    # pipeline had run, or with loadtxt's 0-based row and no file name.
    def run_pipeline(*args, **kwargs):
        raise AssertionError("labels must be checked before the pipeline")

    monkeypatch.setattr(cli.pipeline, "run_pipeline", run_pipeline)
    xpath, _ = blob_csv
    ypath = tmp_path / "bad.txt"
    ypath.write_bytes(content)
    code, out, err = run(["cluster", "--input", xpath, "--k", "2",
                          "--labels", str(ypath)] + extra, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: {ypath}: ") and shown in err


def test_simulate_one_shares_stages_across_methods(monkeypatch):
    # Each generated instance is standardized, scored and multiplied out into
    # its full-width Gram matrix once for all six methods, with one eigh of it
    # and one set of pairwise distances, shared by the k-means row space and
    # hier.  No full-width bare array reaches the SVD, k-means or complete
    # linkage; the spectral k-means embeds its own K-1 columns.
    cfg = acm.AcmConfig.from_dict(TINY_CONFIG)
    calls = collections.Counter()
    grams = []

    def counting(owner, name, counts=lambda *args: True):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += counts(*args)
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    def full_width(points, *args):
        return isinstance(points, np.ndarray) and points.shape[1] == cfg.p

    def of_gram(a):
        return any(a is gram.g for gram in grams)

    counting(matrix, "standardize_columns")
    counting(screen, "ks_scores")
    counting(matrix.Gram, "__init__",
             lambda gram, columns, shape: shape[1] == cfg.p and (grams.append(gram) or True))
    counting(np.linalg, "eigh", of_gram)
    counting(matrix, "_sq_dists_of", lambda a_sq, b_sq, ba, p: of_gram(ba))
    for owner, name in ((matrix, "truncated_left_svd"), (cluster, "kmeans"),
                        (cluster, "hierarchical_complete")):
        counting(owner, name, full_width)
    null_cache = {cfg.n: build_null_table(cfg.n, 2000, seed=0)}
    cli.simulate_one(cfg, cli.SIMULATE_METHODS, 2, 0, null_cache)
    assert cfg.p > cfg.n
    assert +calls == {"standardize_columns": 2, "ks_scores": 2, "__init__": 2,
                      "eigh": 2, "_sq_dists_of": 2}


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["cluster", "--k", "0"], 2),
])
def test_python_m_ifpca(argv, code):
    # The command line runs as a module, without an installed entry point.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "ifpca"] + argv,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == code
    assert "usage: ifpca" in proc.stdout + proc.stderr


@pytest.mark.parametrize("exc, shown", [
    (MemoryError("Unable to allocate 99.0 GiB"),
     "error: out of memory: Unable to allocate 99.0 GiB"),
    (MemoryError(), "error: out of memory"),
])
def test_out_of_memory_exit_code(exc, shown, blob_csv, capsys, monkeypatch):
    # An allocation failure ends in a message and exit 3, not a traceback.
    def run_pipeline(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli.pipeline, "run_pipeline", run_pipeline)
    xpath, _ = blob_csv
    code, out, err = run(["cluster", "--input", xpath, "--k", "2"], capsys)
    assert code == 3
    assert out == "" and err == shown + "\n"
