import json
import math

import numpy as np
import pytest

from ifpca.acm import (
    A0,
    AcmConfig,
    DistributionSpec,
    NoiseModel,
    correlated_noise_matrix,
    experiment_preset,
    generate,
    kappa,
    signal_magnitude,
    tau,
    threshold_tpq,
)
from ifpca.errors import InvalidConfig, UnknownExperiment


def small_config(**over):
    base = dict(k=2, p=200, theta=0.75, vartheta=0.3, r=0.5, rep=1,
                delta=(1.0 / 3.0, 2.0 / 3.0), gamma=(0.5, 0.0, 0.5),
                g_mubar=DistributionSpec("normal", (0.0, 1.0)),
                g_mu=DistributionSpec("uniform", (1.0, 0.2)),
                g_sigma=DistributionSpec("pointmass", (1.0,)))
    base.update(over)
    return AcmConfig(**base)


# ---------------------------------------------------------------------------
# Diagnostics.

def test_kappa_tau_worked_example():
    # delta = (1/3, 2/3), m = (0.3, -0.15):
    #   kappa = sqrt(0.09/3 + 2*0.0225/3) = sqrt(0.045)
    #   tau   = sqrt(n) * |0.027/3 - 2*0.003375/3| / (6 sqrt(2 pi))
    m = np.array([[0.3], [-0.15]])
    delta = [1.0 / 3.0, 2.0 / 3.0]
    np.testing.assert_allclose(kappa(m, delta), [math.sqrt(0.045)], atol=1e-14)
    np.testing.assert_allclose(kappa(m, delta), [0.21213203], atol=1e-8)
    np.testing.assert_allclose(tau(m, delta, 10000), [0.04488101], atol=1e-8)


def test_tau_vanishes_for_symmetric_contrast():
    m = np.array([[0.4], [-0.4]])
    assert tau(m, [0.5, 0.5], 577)[0] == 0.0


def test_tail_constant_value():
    np.testing.assert_allclose(A0, 0.3014052, atol=1e-7)
    np.testing.assert_allclose(A0, math.sqrt((math.pi - 2) / (4 * math.pi)),
                               atol=1e-15)


def test_threshold_examples():
    np.testing.assert_allclose(threshold_tpq(0.05, 10**4), 0.2892601, atol=1e-6)
    assert threshold_tpq(0.0, 100) == 0.0
    with pytest.raises(ValueError):
        threshold_tpq(-0.1, 100)


def test_signal_magnitude():
    np.testing.assert_allclose(signal_magnitude(0.5, 4 * 10**4, 577, 1.0),
                               1.2678827, atol=1e-6)
    # sixth-root scaling in h
    a = signal_magnitude(0.5, 4 * 10**4, 577, 1.0)
    b = signal_magnitude(0.5, 4 * 10**4, 577, 64.0)
    np.testing.assert_allclose(b, 2.0 * a, atol=1e-12)


# ---------------------------------------------------------------------------
# Generation.

def test_generate_shapes_and_labels():
    cfg = small_config()
    x, truth = generate(cfg, seed=0)
    assert cfg.n == int(round(200 ** 0.75))
    assert x.shape == (cfg.n, cfg.p)
    assert set(np.unique(truth.y)) <= {1, 2}
    assert truth.mu.shape == (2, cfg.p)


def test_generate_contrast_means_sum_to_zero():
    cfg = small_config(k=3, delta=(0.2, 0.3, 0.5), gamma=(0.4, 0.2, 0.4))
    _, truth = generate(cfg, seed=1)
    weighted = np.asarray(cfg.delta) @ truth.mu
    assert np.abs(weighted).max() <= 1e-12


def test_generate_symmetric_two_class_is_antisymmetric():
    cfg = small_config(delta=(0.5, 0.5))
    _, truth = generate(cfg, seed=3)
    np.testing.assert_allclose(truth.mu[1], -truth.mu[0], atol=1e-14)


def test_generate_useless_features_have_zero_contrast():
    cfg = small_config()
    _, truth = generate(cfg, seed=4)
    off = ~truth.useful
    assert off.any()
    assert np.abs(truth.mu[:, off]).max() == 0.0


def test_generate_deterministic():
    cfg = small_config()
    x1, t1 = generate(cfg, seed=7)
    x2, t2 = generate(cfg, seed=7)
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(t1.y, t2.y)
    x3, _ = generate(cfg, seed=8)
    assert not np.array_equal(x1, x3)


def test_generate_accepts_seed_sequence_list():
    cfg = small_config()
    x1, _ = generate(cfg, seed=[5, 0])
    x2, _ = generate(cfg, seed=[5, 0])
    x3, _ = generate(cfg, seed=[5, 1])
    np.testing.assert_array_equal(x1, x2)
    assert not np.array_equal(x1, x3)


def test_heavy_tail_noise_is_standardized():
    # t(6) scaled by sqrt(2/3) and centered chi-square(6)/sqrt(12) both have
    # unit variance; check on a pure-noise draw.
    cfg = small_config(p=500, vartheta=0.99,
                       noise=NoiseModel(kind="student-t6"))
    x, truth = generate(cfg, seed=11)
    z = x - truth.mubar[None, :] - truth.mu[truth.y - 1]
    assert abs(z.var() - 1.0) < 0.1
    assert abs(z.mean()) < 0.05

    cfg = small_config(p=500, vartheta=0.99, noise=NoiseModel(kind="chisq6"))
    x, truth = generate(cfg, seed=12)
    z = x - truth.mubar[None, :] - truth.mu[truth.y - 1]
    assert abs(z.var() - 1.0) < 0.1
    assert abs(z.mean()) < 0.05


def test_class_scaled_noise_variances():
    cfg = small_config(p=800, vartheta=0.99,
                       noise=NoiseModel(kind="class-scaled",
                                        class_variances=(0.5, 2.0)))
    x, truth = generate(cfg, seed=13)
    z = x - truth.mubar[None, :] - truth.mu[truth.y - 1]
    v1 = z[truth.y == 1].var()
    v2 = z[truth.y == 2].var()
    assert abs(v1 - 0.5) < 0.1
    assert abs(v2 - 2.0) < 0.3


class _RecordingRng:
    """A numpy Generator that keeps a copy of each standard normal, t or
    chi-square draw it makes."""

    def __init__(self, rng):
        self._rng, self.noise = rng, []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(*args, **kwargs):
            out = method(*args, **kwargs)
            if name in ("standard_normal", "standard_t", "chisquare"):
                self.noise.append(np.array(out))
            return out
        return call


@pytest.mark.parametrize("noise", [
    NoiseModel(),
    NoiseModel(kind="correlated", variant="band", d=0.1),
    NoiseModel(kind="class-scaled", class_variances=(0.5, 2.0)),
    NoiseModel(kind="student-t6"),
    NoiseModel(kind="chisq6"),
])
def test_generate_in_place_sum_matches_expression(monkeypatch, noise):
    # X is summed and the noise scaled in place; the values are those of the
    # expressions 1 mubar' + mu[y] + Z with Z scaled out of place.
    cfg = small_config(p=300, noise=noise,
                       g_sigma=DistributionSpec("uniform", (1.1, 0.1)))
    real, drawn = np.random.default_rng, []
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: drawn.append(_RecordingRng(real(seed))) or drawn[-1])
    x, truth = generate(cfg, seed=17)
    raw = drawn[0].noise[-1]           # the n×p draw comes last
    if noise.kind == "iid-gaussian":
        z = raw * truth.sigma
    elif noise.kind == "correlated":
        a = correlated_noise_matrix("band", noise.d, 0, cfg.p, None)
        z = (a.T @ (raw * truth.sigma).T).T
    elif noise.kind == "class-scaled":
        z = raw * np.sqrt(np.asarray(noise.class_variances))[truth.y - 1][:, None]
    elif noise.kind == "student-t6":
        z = math.sqrt(2.0 / 3.0) * raw
    else:
        z = (raw - 6.0) / math.sqrt(12.0)
    assert np.array_equal(x, truth.mubar[None, :] + truth.mu[truth.y - 1] + z)


def test_class_scaled_noise_requires_k_variances():
    cfg = small_config(noise=NoiseModel(kind="class-scaled",
                                        class_variances=(1.0,)))
    with pytest.raises(InvalidConfig):
        generate(cfg, seed=0)


# ---------------------------------------------------------------------------
# Correlated noise.

def test_correlated_matrix_zero_d_is_identity():
    rng = np.random.default_rng(0)
    a = correlated_noise_matrix("band", 0.0, 0, 6, rng).toarray()
    np.testing.assert_array_equal(a, np.eye(6))


def test_correlated_matrix_band_structure():
    rng = np.random.default_rng(0)
    a = correlated_noise_matrix("band", 0.5, 0, 3, rng).toarray()
    np.testing.assert_array_equal(a, [[1.0, 0.5, 0.0],
                                      [0.0, 1.0, 0.5],
                                      [0.0, 0.0, 1.0]])


def test_correlated_matrix_random_support():
    rng = np.random.default_rng(1)
    p, nsub = 30, 5
    a = correlated_noise_matrix("random", 0.2, nsub, p, rng).toarray()
    np.testing.assert_array_equal(np.diag(a), np.ones(p))
    off = a - np.eye(p)
    per_col = (off != 0).sum(axis=0)
    np.testing.assert_array_equal(per_col, np.full(p, nsub))
    assert set(np.unique(off)) == {0.0, 0.2}


def test_correlated_matrix_rejects_large_d():
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidConfig):
        correlated_noise_matrix("band", 1.0, 0, 5, rng)


def test_correlated_generate_runs():
    cfg = small_config(noise=NoiseModel(kind="correlated", variant="band",
                                        d=0.1))
    x, _ = generate(cfg, seed=21)
    assert x.shape == (cfg.n, cfg.p)


# ---------------------------------------------------------------------------
# Config validation and serialization.

def test_config_rejects_bad_delta():
    with pytest.raises(InvalidConfig):
        small_config(delta=(0.3, 0.3))
    with pytest.raises(InvalidConfig):
        small_config(k=3, delta=(0.5, 0.5))


def test_config_rejects_bad_gamma():
    with pytest.raises(InvalidConfig):
        small_config(gamma=(0.5, 0.5))


def test_config_rejects_bad_threshold_q():
    # q~ sets the fixed simulation threshold sqrt(2 q~ log p)
    for q in (0.0, -0.06, math.nan, math.inf):
        with pytest.raises(InvalidConfig):
            small_config(threshold_q=q)


def test_distribution_validation():
    with pytest.raises(InvalidConfig):
        DistributionSpec("uniform", (1.0, -0.2))
    with pytest.raises(InvalidConfig):
        DistributionSpec("cauchy", (0.0,))


def test_config_json_round_trip():
    cfg = small_config(noise=NoiseModel(kind="correlated", variant="random",
                                        d=0.1, subset_size=5))
    blob = json.dumps(cfg.to_dict(), sort_keys=True)
    back = AcmConfig.from_dict(json.loads(blob))
    assert back == cfg


def test_config_round_trip_with_infinite_window():
    spec = DistributionSpec("truncshiftexp", (0.1, 0.9, -math.inf, math.inf))
    cfg = small_config(g_mu=spec)
    back = AcmConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert back == cfg
    # string form also accepted for hand-written configs
    d = spec.to_dict()
    d["params"] = [0.1, 0.9, "-inf", "inf"]
    assert DistributionSpec.from_dict(d) == spec


def test_every_preset_round_trips():
    presets = [cfg for exp in ("1a", "1b", "2a", "2b", "3", "4", "5")
               for cfg in experiment_preset(exp)]
    assert len(presets) == 46
    for cfg in presets:
        assert AcmConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_config_reads_old_noise_form():
    # to_dict writes every NoiseModel field; the short form, with only the
    # fields the kind uses, still reads back.
    nm = NoiseModel(kind="correlated", variant="random", d=0.1, subset_size=5)
    assert set(nm.to_dict()) == {"kind", "class_variances", "variant", "d",
                                 "subset_size"}
    short = {"kind": "correlated", "variant": "random", "d": 0.1,
             "subset_size": 5}
    assert NoiseModel.from_dict(short) == nm
    assert NoiseModel.from_dict({"kind": "student-t6"}) == \
        NoiseModel(kind="student-t6")


def test_truncated_samplers_respect_windows():
    rng = np.random.default_rng(5)
    s = DistributionSpec("truncnormal", (1.0, 0.01, 0.2)).sample(5000, rng)
    assert s.min() >= 0.8 and s.max() <= 1.2
    s = DistributionSpec("truncshiftexp", (0.1, 0.9, 0.9, 1.2)).sample(5000, rng)
    assert s.min() >= 0.9 and s.max() <= 1.2


# ---------------------------------------------------------------------------
# Experiment presets.

def test_preset_1a_grid():
    configs = experiment_preset("1a")
    assert len(configs) == 8
    asym = [c for c in configs if c.delta == (1.0 / 3.0, 2.0 / 3.0)]
    assert [c.r for c in asym] == [0.20, 0.35, 0.50, 0.65]
    sym = [c for c in configs if c.delta == (0.5, 0.5)]
    assert [c.r for c in sym] == [0.06, 0.14, 0.22, 0.30]
    assert all(c.n == 577 for c in configs)


def test_preset_1b_symmetric_scale_is_one_eighth():
    configs = experiment_preset("1b")
    sym = [c for c in configs if c.delta == (0.5, 0.5)]
    np.testing.assert_allclose([c.r for c in sym],
                               [r / 8.0 for r in (0.20, 0.35, 0.50, 0.65)],
                               atol=1e-10)


def test_preset_2_and_3_grids():
    for exp in ("2a", "2b"):
        configs = experiment_preset(exp)
        assert [c.vartheta for c in configs] == [0.68, 0.72, 0.76, 0.80]
    configs = experiment_preset("3")
    assert len(configs) == 16
    assert sorted({c.threshold_q for c in configs}) == [0.03, 0.04, 0.05, 0.06]


def test_preset_4_and_5():
    configs = experiment_preset("4")
    assert len(configs) == 3
    assert all(c.k == 4 and c.p == 2 * 10**4 for c in configs)
    assert all(c.gamma == (0.3, 0.05, 0.65) for c in configs)
    assert all(c.noise.kind == "correlated" for c in configs)

    configs = experiment_preset("5")
    assert [c.noise.kind for c in configs] == ["class-scaled", "student-t6",
                                               "chisq6"]
    assert all(c.delta == (0.25, 0.25, 1.0 / 3.0, 1.0 / 6.0) for c in configs)


def test_unknown_preset():
    with pytest.raises(UnknownExperiment):
        experiment_preset("6")
