"""Synthetic data under the asymptotic clustering model, the KS screening
signal strength tau, and the experiment presets."""

import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass

import numpy as np

from .errors import InvalidConfig, UnknownExperiment

# Tail constant of the null KS statistic: sqrt((pi - 2) / (4 pi)).
A0 = math.sqrt((math.pi - 2.0) / (4.0 * math.pi))

SIGNAL_SCALE = 72.0 * math.pi

# Cells of the class means gathered at a time when generate adds them into
# the noise: 2 MiB of float64, a few rows at paper scale.
_MEAN_ROWS_CELLS = 1 << 18


class _JsonFields:
    """JSON codec of a config dataclass, driven by its fields: to_dict is
    asdict, and from_dict takes an object with a key per field (an omitted
    one takes its default), a nested config as an object and a tuple as an
    array of numbers or "inf"/"-inf".  Anything else raises InvalidConfig."""

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d, where=None):
        where = where or cls.__name__
        if not isinstance(d, dict):
            raise InvalidConfig(f"{where}: expected a JSON object, got {d!r:.40}")
        names = [f.name for f in fields(cls)]
        for key in d:
            if key not in names:
                raise InvalidConfig(f"{where}.{key}: unknown key of {cls.__name__}")
        kwargs = {}
        for f in fields(cls):
            if f.name in d:
                kwargs[f.name] = _decode(f.type, d[f.name], f"{where}.{f.name}")
            elif f.default is MISSING and f.default_factory is MISSING:
                raise InvalidConfig(f"{where}.{f.name}: missing key of {cls.__name__}")
        return cls(**kwargs)


def _decode(tp, value, where):
    """A parsed JSON value, checked against the field type tp."""
    if is_dataclass(tp):
        return tp.from_dict(value, where)
    if tp is tuple:
        if not isinstance(value, list):
            raise InvalidConfig(f"{where}: expected an array, got {value!r:.40}")
        return tuple(_decode(float, float(x) if x in ("inf", "-inf") else x,
                             f"{where}[{i}]") for i, x in enumerate(value))
    # bool is an int to isinstance but no number here; nor is json's NaN.
    accepted = (int, float) if tp is float else tp
    if isinstance(value, bool) or not isinstance(value, accepted) or value != value:
        raise InvalidConfig(f"{where}: expected {tp.__name__}, got {value!r:.40}")
    return value


@dataclass(frozen=True)
class DistributionSpec(_JsonFields):
    """One of: pointmass(c), uniform(a, b) over (a-b, a+b), normal(m, s2),
    truncnormal(u, b2, a) = N(u, b2) conditioned on [u-a, u+a], and
    truncshiftexp(lam, b, a1, a2) = b + Exp(mean lam) conditioned on [a1, a2]."""

    kind: str
    params: tuple

    def __post_init__(self):
        kinds = {"pointmass": 1, "uniform": 2, "normal": 2, "truncnormal": 3,
                 "truncshiftexp": 4}
        if self.kind not in kinds:
            raise InvalidConfig(f"unknown distribution kind: {self.kind}")
        if len(self.params) != kinds[self.kind]:
            raise InvalidConfig(f"{self.kind} takes {kinds[self.kind]} parameters")
        if self.kind == "uniform" and self.params[1] <= 0:
            raise InvalidConfig("uniform half-width must be positive")
        if self.kind == "truncshiftexp":
            lam, b, a1, a2 = self.params
            if lam <= 0:
                raise InvalidConfig("exponential mean must be positive")
            if a1 > a2:
                raise InvalidConfig("need a1 <= a2")
            if a2 - b <= max(a1 - b, 0.0):
                raise InvalidConfig("truncshiftexp window is empty")

    def sample(self, size, rng):
        if self.kind == "pointmass":
            return np.full(size, self.params[0])
        if self.kind == "uniform":
            a, b = self.params
            return rng.uniform(a - b, a + b, size)
        if self.kind == "normal":
            m, s2 = self.params
            return m + math.sqrt(s2) * rng.standard_normal(size)
        if self.kind == "truncnormal":
            from scipy.special import ndtr, ndtri
            u, b2, a = self.params
            b = math.sqrt(b2)
            lo, hi = ndtr(-a / b), ndtr(a / b)
            return u + b * ndtri(lo + rng.uniform(size=size) * (hi - lo))
        # truncshiftexp: inverse-CDF sampling of an exponential restricted
        # to [max(a1 - b, 0), a2 - b].
        lam, b, a1, a2 = self.params
        lo = max(a1 - b, 0.0)
        hi = a2 - b
        c_lo = -math.expm1(-lo / lam)
        c_hi = 1.0 if math.isinf(hi) else -math.expm1(-hi / lam)
        u = c_lo + rng.uniform(size=size) * (c_hi - c_lo)
        return b + (-lam) * np.log1p(-u)


@dataclass(frozen=True)
class NoiseModel(_JsonFields):
    """iid-gaussian, class-scaled (per-class variances), student-t6, chisq6,
    or correlated with variant 'band' or 'random' (size-N column supports)."""

    kind: str = "iid-gaussian"
    class_variances: tuple = ()
    variant: str = "band"
    d: float = 0.0
    subset_size: int = 0

    def __post_init__(self):
        kinds = ("iid-gaussian", "class-scaled", "student-t6", "chisq6", "correlated")
        if self.kind not in kinds:
            raise InvalidConfig(f"unknown noise model: {self.kind}")
        if self.variant not in ("band", "random"):
            raise InvalidConfig(f"unknown correlation variant: {self.variant}")
        if abs(self.d) >= 1:
            raise InvalidConfig("|d| must be < 1")


@dataclass(frozen=True)
class AcmConfig(_JsonFields):
    k: int
    p: int
    theta: float
    vartheta: float
    r: float
    rep: int
    delta: tuple
    gamma: tuple
    g_mubar: DistributionSpec
    g_mu: DistributionSpec
    g_sigma: DistributionSpec
    noise: NoiseModel = field(default_factory=NoiseModel)
    threshold_q: float = 0.06

    def __post_init__(self):
        if self.k < 2 or len(self.delta) != self.k:
            raise InvalidConfig("delta must have K >= 2 entries")
        if abs(sum(self.delta) - 1.0) > 1e-12 or min(self.delta) <= 0:
            raise InvalidConfig("delta must be a positive probability vector")
        if len(self.gamma) != 3 or abs(sum(self.gamma) - 1.0) > 1e-12:
            raise InvalidConfig("gamma must be 3 probabilities summing to 1")
        if not (0 < self.theta < 1 and 0 < self.vartheta < 1):
            raise InvalidConfig("theta and vartheta must lie in (0, 1)")
        if self.r <= 0:
            raise InvalidConfig("r must be positive")
        if not (math.isfinite(self.threshold_q) and self.threshold_q > 0):
            raise InvalidConfig("threshold_q must be finite and positive")
        if self.rep < 1:
            raise InvalidConfig("AcmConfig.rep: need at least 1 replication")
        if self.p < 2 or self.n < self.k:
            raise InvalidConfig(f"AcmConfig.p: p={self.p} gives n={self.n}; "
                                f"need p >= 2 and n >= K={self.k}")
        noise = self.noise
        if (noise.kind == "correlated" and noise.variant == "random"
                and not 1 <= noise.subset_size <= self.p - 1):
            raise InvalidConfig("AcmConfig.noise.subset_size: must lie in "
                                f"[1, p-1={self.p - 1}]")
        if noise.kind == "class-scaled" and (len(noise.class_variances) != self.k
                                             or min(noise.class_variances) <= 0):
            raise InvalidConfig("AcmConfig.noise.class_variances: class-scaled "
                                f"noise needs K={self.k} positive variances")

    @property
    def n(self):
        return int(round(self.p ** self.theta))


@dataclass(frozen=True)
class GroundTruth:
    y: np.ndarray               # labels in {1..K}
    mubar: np.ndarray
    mu: np.ndarray              # K x p contrast means
    sigma: np.ndarray
    useful: np.ndarray          # boolean mask over features


# ---------------------------------------------------------------------------
# Diagnostics.

def tau(m, delta, n):
    """Weighted third-moment signal strength per feature (KS screening SNR)."""
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    delta = np.asarray(delta, dtype=np.float64)
    return np.sqrt(n) / (6.0 * math.sqrt(2.0 * math.pi)) * np.abs(delta @ (m ** 3))


# ---------------------------------------------------------------------------
# Generation.

def correlated_noise_matrix(variant, d, subset_size, p, rng):
    """Column-mixing matrix A for correlated noise: identity plus d on either
    the superdiagonal ('band') or a random size-N subset per column ('random').

    Returned sparse (CSC); at p in the tens of thousands the dense form would
    not fit in memory.
    """
    if abs(d) >= 1:
        raise InvalidConfig("|d| must be < 1")
    rows = cols = np.arange(p)
    if variant == "band":
        if d != 0.0:
            rows, cols = np.r_[rows, :p - 1], np.r_[cols, 1:p]
    elif variant == "random":
        if subset_size < 1:
            raise InvalidConfig("subset size must be >= 1")
        pool = np.array([rng.choice(p - 1, size=subset_size, replace=False)
                         for _ in range(p)]).ravel()
        col = np.repeat(cols, subset_size)
        rows, cols = np.r_[rows, pool + (pool >= col)], np.r_[cols, col]  # skip the diagonal
    else:
        raise InvalidConfig(f"unknown correlation variant: {variant}")
    from scipy import sparse
    return sparse.csc_array((np.where(rows == cols, 1.0, d), (rows, cols)), shape=(p, p))


def signal_magnitude(r, p, n, h):
    """|mu_k(j)| before sign: [72 pi * 2 r log(p) / n * h]^(1/6)."""
    return (SIGNAL_SCALE * 2.0 * r * math.log(p) / n * h) ** (1.0 / 6.0)


def generate(config, seed):
    """Draw one (X, truth) pair from the model.

    X = 1 mubar' + L [mu_1..mu_K] + Z, with labels multinomial(delta), useful
    features Bernoulli(p^-vartheta), and mu_K back-solved so the delta-weighted
    contrast means sum to zero.  Z is scaled in place and the means are
    added into it a block of rows at a time, so X is Z, in C order, and no
    n×p temporary is made beside it.
    """
    n, p, k = config.n, config.p, config.k
    rng = np.random.default_rng(seed)
    delta = np.asarray(config.delta, dtype=np.float64)
    gamma = np.asarray(config.gamma, dtype=np.float64)

    y = rng.choice(k, size=n, p=delta) + 1
    mubar = config.g_mubar.sample(p, rng)
    eps = p ** (-config.vartheta)
    b = rng.uniform(size=p) < eps
    signs = rng.choice(np.array([-1.0, 0.0, 1.0]), size=(k - 1, p), p=gamma)
    h = config.g_mu.sample((k - 1, p), rng)
    mu = np.zeros((k, p))
    mu[: k - 1] = signal_magnitude(config.r, p, n, h) * signs * b
    mu[k - 1] = -(delta[: k - 1] @ mu[: k - 1]) / delta[k - 1]

    noise = config.noise
    sigma = np.ones(p)
    if noise.kind == "iid-gaussian":
        sigma = config.g_sigma.sample(p, rng)
        z = rng.standard_normal((n, p))
        z *= sigma
    elif noise.kind == "correlated":
        sigma = config.g_sigma.sample(p, rng)
        a = correlated_noise_matrix(noise.variant, noise.d, noise.subset_size, p, rng)
        z = rng.standard_normal((n, p))
        z *= sigma
        # The product is formed p×n; X is kept in C order, as the column
        # statistics sum C-ordered blocks in their own order.
        z = np.ascontiguousarray((a.T @ z.T).T)
    elif noise.kind == "class-scaled":
        z = rng.standard_normal((n, p))
        z *= np.sqrt(np.asarray(noise.class_variances))[y - 1][:, None]
    elif noise.kind == "student-t6":
        z = rng.standard_t(6, size=(n, p))
        z *= math.sqrt(2.0 / 3.0)
    else:  # chisq6
        z = rng.chisquare(6, size=(n, p))
        z -= 6.0
        z /= math.sqrt(12.0)

    # The sum in IEEE arithmetic commutes: z + (mu + mubar) is
    # (mu + mubar) + z, bit for bit.
    means = mu + mubar
    step = max(1, _MEAN_ROWS_CELLS // p)
    for i in range(0, n, step):
        z[i:i + step] += means[y[i:i + step] - 1]
    x = z
    useful = b & (np.abs(mu).max(axis=0) > 0)
    return x, GroundTruth(y=y, mubar=mubar, mu=mu, sigma=sigma, useful=useful)


# ---------------------------------------------------------------------------
# Experiment presets.

def experiment_preset(exp_id):
    """Parameter grids of the five simulation experiments, as AcmConfig lists."""
    normal01 = DistributionSpec("normal", (0.0, 1.0))
    if exp_id in ("1a", "1b"):
        base = dict(k=2, p=4 * 10**4, theta=0.6, vartheta=0.7, rep=100,
                    gamma=(0.5, 0.0, 0.5), g_mubar=normal01,
                    g_mu=DistributionSpec("uniform", (1.0, 0.2)),
                    g_sigma=DistributionSpec("uniform", (1.1, 0.1)),
                    threshold_q=0.06)
        r_asym = [0.20, 0.35, 0.50, 0.65]
        # 1b matches kappa at unit magnitude: kappa^2 is u^2/2 for contrasts
        # (u, -u/2) at delta (1/3, 2/3) and v^2 for (v, -v) at (1/2, 1/2), so
        # v = u/sqrt(2), and u ~ r^(1/6) makes the symmetric r exactly r/8.
        r_sym = [0.06, 0.14, 0.22, 0.30] if exp_id == "1a" else [r / 8.0 for r in r_asym]
        configs = [AcmConfig(delta=(1.0 / 3.0, 2.0 / 3.0), r=r, **base)
                   for r in r_asym]
        configs += [AcmConfig(delta=(0.5, 0.5), r=r, **base) for r in r_sym]
        return configs

    if exp_id in ("2a", "2b"):
        g_mu = (DistributionSpec("truncnormal", (1.0, 0.01, 0.2)) if exp_id == "2a"
                else DistributionSpec("truncnormal", (1.0, 0.1, 0.7)))
        g_sigma = (DistributionSpec("truncnormal", (1.0, 0.01, 0.1)) if exp_id == "2a"
                   else DistributionSpec("pointmass", (1.0,)))
        return [AcmConfig(k=2, p=4 * 10**4, theta=0.6, vartheta=v, r=0.3, rep=100,
                          delta=(1.0 / 3.0, 2.0 / 3.0), gamma=(0.5, 0.0, 0.5),
                          g_mubar=normal01, g_mu=g_mu, g_sigma=g_sigma,
                          threshold_q=0.05)
                for v in (0.68, 0.72, 0.76, 0.80)]

    if exp_id == "3":
        return [AcmConfig(k=2, p=4 * 10**4, theta=0.6, vartheta=v, r=0.3, rep=100,
                          delta=(1.0 / 3.0, 2.0 / 3.0), gamma=(0.5, 0.0, 0.5),
                          g_mubar=normal01,
                          g_mu=DistributionSpec("truncnormal", (1.0, 0.1, 0.7)),
                          g_sigma=DistributionSpec("pointmass", (1.0,)),
                          threshold_q=q)
                for v in (0.68, 0.72, 0.76, 0.80)
                for q in (0.03, 0.04, 0.05, 0.06)]

    if exp_id == "4":
        base = dict(k=4, p=2 * 10**4, theta=0.5, vartheta=0.6, r=0.7, rep=100,
                    delta=(0.25, 0.25, 0.25, 0.25), gamma=(0.3, 0.05, 0.65),
                    g_mubar=normal01,
                    g_mu=DistributionSpec("truncshiftexp",
                                          (0.1, 0.9, -math.inf, math.inf)),
                    g_sigma=DistributionSpec("truncshiftexp", (0.1, 0.9, 0.9, 1.2)),
                    threshold_q=0.03)
        noises = [NoiseModel(kind="correlated", variant="band", d=0.1),
                  NoiseModel(kind="correlated", variant="random", d=0.1,
                             subset_size=5),
                  NoiseModel(kind="correlated", variant="random", d=0.1,
                             subset_size=20)]
        return [AcmConfig(noise=nm, **base) for nm in noises]

    if exp_id == "5":
        base = dict(k=4, p=2 * 10**4, theta=0.5, vartheta=0.55, r=1.0, rep=100,
                    delta=(0.25, 0.25, 1.0 / 3.0, 1.0 / 6.0),
                    gamma=(0.4, 0.1, 0.5), g_mubar=normal01,
                    g_mu=DistributionSpec("truncshiftexp",
                                          (0.1, 0.9, -math.inf, math.inf)),
                    g_sigma=DistributionSpec("pointmass", (1.0,)),
                    threshold_q=0.03)
        noises = [NoiseModel(kind="class-scaled",
                             class_variances=(0.8, 1.0, 1.2, 1.4)),
                  NoiseModel(kind="student-t6"),
                  NoiseModel(kind="chisq6")]
        return [AcmConfig(noise=nm, **base) for nm in noises]

    raise UnknownExperiment(f"unknown experiment id: {exp_id}")
