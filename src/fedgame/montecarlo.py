"""Seeded Monte Carlo oracle for the closed-form expected MSEs.

Simulates the full generative pipeline: per-player true parameters drawn
from a two-moment family, noisy samples, local estimates, then the scheme's
linear combination.  Nothing here reuses the closed forms, so agreement is
a genuine check, including the distribution-free claim (only the first two
moments of the generating families enter the formulas).

Determinism: trials are processed in fixed-size batches and batch b draws
from the substream spawned as (seed, b), so results are bit-identical for a
given plan no matter how batches would be scheduled.

Linear regression fits each player's OLS from the normal equations
``X^T X theta = X^T y``, formed by batched ``matmul``, with a Cholesky factor
``L`` computed one column at a time over the whole batch; there is no
per-trial QR.  Since ``|L_kk|`` equals ``|R_kk|`` of X's QR, a trial counts
as singular when some pivot is at most ``_SINGULAR_RTOL*sqrt(n)``, or when a
pivot's square is not positive from rounding in the Gram matrix.  Singular
trials are redrawn from the substream (seed, b, attempt) and counted as
resamples.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from . import errors
from .model import (
    Coalition,
    Coarse,
    CoarseOptimal,
    FederationScheme,
    Fine,
    FineOptimal,
    GameConfig,
    LinRegSpec,
    Local,
    Number,
    Record,
    Uniform,
    ValidationError,
    _check_finite,
    _is_count,
    scheme_name,
)
from .weights import explicit_row

BATCH_TRIALS = 4096
GAMMA_SHAPE = 2.0  # epsilon_rule="gamma": shape 2, scale mu_e/2, mean mu_e
_SINGULAR_RTOL = 1e-10
_MAX_RESAMPLE_ROUNDS = 32

THETA_FAMILIES = ("gaussian", "uniform", "lognormal-centered")
EPSILON_RULES = ("constant", "gamma")
SAMPLE_FAMILIES = ("gaussian", "uniform")


class DistributionSpec(Record):
    """Generating families for the mean-estimation simulation.

    ``theta_mean`` is checked and kept, but the true parameters are drawn
    around 0: a common shift cancels in every error (see ``_draw_theta``).
    """

    _fields = ("theta_family", "theta_mean", "epsilon_rule", "sample_family")

    theta_family: str = "gaussian"
    theta_mean: float = 0.0
    epsilon_rule: str = "constant"
    sample_family: str = "gaussian"

    def __post_init__(self) -> None:
        if self.theta_family not in THETA_FAMILIES:
            raise ValidationError(f"theta_family must be one of {THETA_FAMILIES}")
        if self.epsilon_rule not in EPSILON_RULES:
            raise ValidationError(f"epsilon_rule must be one of {EPSILON_RULES}")
        if self.sample_family not in SAMPLE_FAMILIES:
            raise ValidationError(f"sample_family must be one of {SAMPLE_FAMILIES}")
        _check_finite("theta_mean", self.theta_mean)


class TrialPlan(Record):
    _fields = ("trials", "seed")

    trials: int
    seed: int

    def __post_init__(self) -> None:
        if not (_is_count(self.trials) and _is_count(self.seed)):
            raise ValidationError(
                f"trials and seed must be integers, got {self.trials!r}, {self.seed!r}"
            )
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit in an unsigned 64-bit integer")


class McEstimate(Record):
    _fields = ("mse", "se", "resamples")

    mse: float
    se: float
    resamples: int = 0


def _batch_rng(seed: int, batch: int, attempt: int = 0) -> np.random.Generator:
    key = (batch,) if attempt == 0 else (batch, attempt)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _batches(trials: int) -> list[tuple[int, int]]:
    return [
        (b, min(BATCH_TRIALS, trials - b * BATCH_TRIALS))
        for b in range((trials + BATCH_TRIALS - 1) // BATCH_TRIALS)
    ]


def _combination_row(
    j: int, coalition: Coalition, scheme: FederationScheme, config: GameConfig
) -> dict[int, Number]:
    """Explicit weights only; optimal variants must be resolved by the caller."""
    if isinstance(scheme, (CoarseOptimal, FineOptimal)):
        raise ValidationError(
            f"simulation needs explicit weights; resolve {scheme_name(scheme)} first"
        )
    return explicit_row(j, coalition, scheme, config)


def _draw_theta(
    rng: np.random.Generator, dist: DistributionSpec, variance: float, size: tuple[int, ...]
) -> np.ndarray:
    """True parameters around 0, not ``dist.theta_mean``: every combination
    row sums to 1, so a common shift cancels in the error, and drawing
    around a large mean would round the draws themselves away."""
    if variance == 0.0:
        return np.zeros(size)
    if dist.theta_family == "gaussian":
        return rng.normal(0.0, math.sqrt(variance), size)
    if dist.theta_family == "uniform":
        half = math.sqrt(3.0 * variance)
        return (rng.random(size) * 2.0 - 1.0) * half
    # lognormal-centered: solve u^2 - u = variance for the underlying scale,
    # then shift the draw to mean 0
    u = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * variance))
    sigma_ln = math.sqrt(math.log(u))
    return rng.lognormal(0.0, sigma_ln, size) - math.sqrt(u)


def _draw_epsilon(
    rng: np.random.Generator, dist: DistributionSpec, mu_e: float, size: tuple[int, ...]
) -> np.ndarray:
    if dist.epsilon_rule == "constant":
        return np.full(size, mu_e)
    return rng.gamma(GAMMA_SHAPE, mu_e / GAMMA_SHAPE, size)


def _mean_noise(
    rng: np.random.Generator, dist: DistributionSpec, eps: np.ndarray, n: int
) -> np.ndarray:
    """Mean of n sampling-noise draws with per-trial variance eps."""
    count = eps.shape[0]
    if dist.sample_family == "gaussian":
        raw = rng.standard_normal((count, n))
    else:
        raw = (rng.random((count, n)) * 2.0 - 1.0) * math.sqrt(3.0)
    return raw.mean(axis=1) * np.sqrt(eps)


def empirical_mse_mean(
    config: GameConfig,
    coalition: Coalition,
    scheme: FederationScheme,
    j: int,
    dist: DistributionSpec,
    plan: TrialPlan,
) -> McEstimate:
    """Empirical expected MSE of player j's combined mean estimate."""
    if j not in coalition:
        raise ValidationError(f"player {j} is not in coalition {coalition.members}")
    row = _combination_row(j, coalition, scheme, config)
    members = coalition.members
    weights = np.array([row.get(i, 0.0) for i in members], dtype=float)
    counts = [config.players[i] for i in members]
    j_pos = members.index(j)
    mu_e = float(config.mu_e)
    variance = float(config.sigma_sq)

    total = 0.0
    total_sq = 0.0
    for b, count in _batches(plan.trials):
        rng = _batch_rng(plan.seed, b)
        theta = _draw_theta(rng, dist, variance, (count, len(members)))
        eps = _draw_epsilon(rng, dist, mu_e, (count, len(members)))
        estimates = np.empty_like(theta)
        for pos, n in enumerate(counts):
            estimates[:, pos] = theta[:, pos] + _mean_noise(rng, dist, eps[:, pos], n)
        combined = estimates @ weights
        sq = (combined - theta[:, j_pos]) ** 2
        total += float(sq.sum())
        total_sq += float((sq * sq).sum())
    return _estimate(total, total_sq, plan.trials, 0)


def _estimate(total: float, total_sq: float, trials: int, resamples: int) -> McEstimate:
    mean = total / trials
    if trials > 1:
        var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
        se = math.sqrt(var / trials)
    else:
        se = float("inf")
    return McEstimate(mse=mean, se=se, resamples=resamples)


def _ols_fit(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial OLS fits of ``y`` (count, n) on ``x`` (count, n, d) by
    Cholesky of the Gram matrix: (coefficients, singular-trial mask).  A
    flagged pivot is replaced by 1, which keeps the solve finite on rows that
    get redrawn."""
    count, n, d = x.shape
    xt = x.transpose(0, 2, 1)
    gram = np.matmul(xt, x)
    rhs = np.matmul(xt, y[..., None])[..., 0]
    tol = _SINGULAR_RTOL * math.sqrt(n)
    singular = np.zeros(count, dtype=bool)
    low = [[None] * d for _ in range(d)]  # low[i][k]: L_ik over the batch, k <= i
    for k in range(d):
        pivot_sq = gram[:, k, k] - sum(low[k][j] * low[k][j] for j in range(k))
        positive = pivot_sq > 0
        pivot = np.sqrt(np.where(positive, pivot_sq, 0.0))
        bad = ~positive | (pivot <= tol)
        singular |= bad
        low[k][k] = np.where(bad, 1.0, pivot)
        for i in range(k + 1, d):
            low[i][k] = (gram[:, i, k] - sum(low[i][j] * low[k][j] for j in range(k))) / low[k][k]
    # L z = X^T y, then L^T theta = z
    z: list = [None] * d
    for k in range(d):
        z[k] = (rhs[:, k] - sum(low[k][j] * z[j] for j in range(k))) / low[k][k]
    theta: list = [None] * d
    for k in reversed(range(d)):
        theta[k] = (z[k] - sum(low[j][k] * theta[j] for j in range(k + 1, d))) / low[k][k]
    return np.stack(theta, axis=1), singular


def _linreg_batch(
    rng: np.random.Generator,
    count: int,
    counts: Sequence[int],
    d: int,
    stds: np.ndarray,
    mu_e: float,
    weights: np.ndarray,
    j_pos: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(squared prediction errors, singular-trial mask) for one batch."""
    thetas = []
    theta_hats = []
    singular = np.zeros(count, dtype=bool)
    for n in counts:
        theta = rng.standard_normal((count, d)) * stds
        x = rng.standard_normal((count, n, d))
        y = np.einsum("tnd,td->tn", x, theta) + rng.standard_normal(
            (count, n)
        ) * math.sqrt(mu_e)
        theta_hat, bad = _ols_fit(x, y)
        singular |= bad
        thetas.append(theta)
        theta_hats.append(theta_hat)
    combined = sum(w * th for w, th in zip(weights, theta_hats))
    test_x = rng.standard_normal((count, d))
    err = np.einsum("td,td->t", test_x, combined - thetas[j_pos])
    return err**2, singular


def empirical_mse_linreg(
    config: GameConfig,
    coalition: Coalition,
    scheme: FederationScheme,
    j: int,
    plan: TrialPlan,
    coef_variances: Optional[Sequence[float]] = None,
) -> McEstimate:
    """Empirical expected MSE of player j's combined OLS fit.

    Inputs are standard normal (identity covariance), so the supplied
    per-dimension coefficient variances must sum to sigma_bias_sq; they
    default to an even split.  Singular fitted systems are redrawn from a
    dedicated substream and counted.
    """
    if config.linreg is None:
        raise ValidationError("empirical_mse_linreg: config has no linreg spec")
    if j not in coalition:
        raise ValidationError(f"player {j} is not in coalition {coalition.members}")
    d = config.linreg.d
    bias = float(config.linreg.sigma_bias_sq)
    if coef_variances is None:
        coef_variances = [bias / d] * d
    for k, v in enumerate(coef_variances):
        _check_finite(f"coef_variances[{k}]", v)
    coef_variances = [float(v) for v in coef_variances]
    if len(coef_variances) != d or any(v < 0 for v in coef_variances):
        raise ValidationError(f"coef_variances must be {d} non-negative values")
    if abs(sum(coef_variances) - bias) > 1e-9 * max(1.0, bias):
        raise ValidationError(
            f"coef_variances sum to {sum(coef_variances)}, expected {bias}"
        )
    row = _combination_row(j, coalition, scheme, config)
    members = coalition.members
    counts = [config.players[i] for i in members]
    weights = np.array([row.get(i, 0.0) for i in members], dtype=float)
    stds = np.sqrt(np.array(coef_variances, dtype=float))
    mu_e = float(config.mu_e)
    j_pos = members.index(j)

    total = 0.0
    total_sq = 0.0
    resamples = 0
    for b, count in _batches(plan.trials):
        rng = _batch_rng(plan.seed, b)
        sq, singular = _linreg_batch(rng, count, counts, d, stds, mu_e, weights, j_pos)
        attempt = 1
        while singular.any():
            if attempt > _MAX_RESAMPLE_ROUNDS:
                raise ValidationError("singular OLS systems persisted across redraws")
            resamples += int(singular.sum())
            redo_rng = _batch_rng(plan.seed, b, attempt)
            redo_sq, redo_bad = _linreg_batch(
                redo_rng, int(singular.sum()), counts, d, stds, mu_e, weights, j_pos
            )
            sq[singular] = redo_sq
            new_singular = np.zeros_like(singular)
            new_singular[np.flatnonzero(singular)[redo_bad]] = True
            singular = new_singular
            attempt += 1
        total += float(sq.sum())
        total_sq += float((sq * sq).sum())
    return _estimate(total, total_sq, plan.trials, resamples)


# --- agreement battery --------------------------------------------------------


class BatteryCase(Record):
    _fields = ("label", "kind", "config", "coalition", "scheme", "player", "dist", "expected")

    label: str
    kind: str  # "mean" | "linreg"
    config: GameConfig
    coalition: Coalition
    scheme: FederationScheme
    player: int
    dist: Optional[DistributionSpec]
    expected: float


def agreement_battery() -> list[BatteryCase]:
    """Twelve configurations spanning all four schemes and both tasks."""
    cases: list[BatteryCase] = []

    def mean_case(
        label: str,
        players: Sequence[int],
        coalition: Sequence[int],
        scheme: FederationScheme,
        player: int,
        dist: DistributionSpec,
        mu_e: float = 10.0,
        sigma_sq: float = 1.0,
    ) -> None:
        config = GameConfig(tuple(players), mu_e, sigma_sq)
        coal = Coalition(tuple(coalition))
        resolved = scheme
        if not isinstance(scheme, (Local, Uniform, Coarse, Fine)):
            row = explicit_row(player, coal, scheme, config)
            resolved = Fine({player: row})
        expected = errors.coalition_member_mse(player, coal, resolved, config)
        cases.append(
            BatteryCase(label, "mean", config, coal, resolved, player, dist, float(expected))
        )

    gaussian = DistributionSpec()
    uniform_fam = DistributionSpec(theta_family="uniform", sample_family="uniform")
    lognormal = DistributionSpec(theta_family="lognormal-centered")
    gamma_eps = DistributionSpec(epsilon_rule="gamma")

    mean_case("mean local n=5", [5], [0], Local(), 0, gaussian)
    mean_case("mean uniform grand (5,5,5)", [5, 5, 5], [0, 1, 2], Uniform(), 0, gaussian)
    mean_case(
        "mean uniform grand (5,5,5), uniform families",
        [5, 5, 5],
        [0, 1, 2],
        Uniform(),
        0,
        uniform_fam,
    )
    mean_case(
        "mean uniform grand (5,5,25) for c, lognormal thetas",
        [5, 5, 25],
        [0, 1, 2],
        Uniform(),
        2,
        lognormal,
    )
    mean_case(
        "mean coarse w=0.5 (5,5,25) for a",
        [5, 5, 25],
        [0, 1, 2],
        Coarse({0: 0.5}),
        0,
        gaussian,
    )
    mean_case(
        "mean optimal coarse (30,30,30,300) for a",
        [30, 30, 30, 300],
        [0, 1, 2, 3],
        CoarseOptimal(),
        0,
        gaussian,
    )
    mean_case(
        "mean optimal fine (30,30,30,300) for d, uniform families",
        [30, 30, 30, 300],
        [0, 1, 2, 3],
        FineOptimal(),
        3,
        uniform_fam,
    )
    mean_case(
        "mean fine indicator (5,5) for a, gamma noise-variance",
        [5, 5],
        [0, 1],
        Fine({0: {0: 1.0, 1: 0.0}}),
        0,
        gamma_eps,
    )

    def linreg_case(
        label: str,
        players: Sequence[int],
        d: int,
        scheme: FederationScheme,
        player: int,
    ) -> None:
        config = GameConfig(tuple(players), 10.0, 1.0, LinRegSpec(d, 1.0))
        coal = Coalition(tuple(range(len(players))))
        expected = errors.coalition_member_mse(player, coal, scheme, config)
        cases.append(
            BatteryCase(label, "linreg", config, coal, scheme, player, None, float(expected))
        )

    linreg_case("linreg local n=30 d=3", [30], 3, Local(), 0)
    linreg_case("linreg uniform (30,30) d=2", [30, 30], 2, Uniform(), 0)
    linreg_case("linreg coarse w=0.3 (30,40) d=2", [30, 40], 2, Coarse({0: 0.3}), 0)
    linreg_case(
        "linreg fine (30,40,50) d=2",
        [30, 40, 50],
        2,
        Fine({0: {0: 0.6, 1: 0.25, 2: 0.15}}),
        0,
    )
    return cases


def run_case(case: BatteryCase, plan: TrialPlan) -> McEstimate:
    if case.kind == "mean":
        assert case.dist is not None
        return empirical_mse_mean(
            case.config, case.coalition, case.scheme, case.player, case.dist, plan
        )
    return empirical_mse_linreg(case.config, case.coalition, case.scheme, case.player, plan)
