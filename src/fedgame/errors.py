"""Exact expected mean-squared errors for every federation scheme.

Mean estimation and linear regression share one structure: a variance term
with per-player multiplier (1/n_i for means, d/(n_i-d-1) for regression
under zero-mean multivariate-normal inputs) plus a bias term whose
coefficient is sigma_sq (means) or sigma_bias_sq (regression).

All formulas are rational in the sample counts and the distribution
parameters, so they evaluate exactly when called with Fraction parameters
(see ``model.exact_config``).  Expressions are ordered so that integer
subterms are multiplied by a parameter before any division.

Each scheme's formula is written once, as a function of one member and of
terms the whole coalition shares.  ``scheme_formula`` resolves a scheme once
for a config: it dispatches on the scheme, computes the per-player terms
(local errors, the optimal-fine V_i, the regression numerators and
denominators) and returns a ``Formula``: ``error(j, N, Q, terms)``, the
member's closed form given the coalition's sample sums N and Q, and
``shared(members, N)``, which gives ``terms`` once per coalition.  ``shared``
is None for the schemes whose member error needs only (n_j, N, Q): local,
mean uniform, coarse-optimal and mean coarse; the fine-grained schemes share
the member list and regression uniform and coarse the global variance.
``member_formula`` checks one coalition, takes its sums and shared term and
binds them to ``error``; ``coalition_errors`` (every member),
``coalition_member_mse`` (one member) and the per-scheme functions go
through it.  The stability scans resolve the scheme once per error table
and call ``error`` directly, once per member they ask about, with sums they
carry from mask to mask.

A float error that overflows is refused with ``ValidationError``; every
finite result keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .model import (
    Coalition,
    CoarseOptimal,
    Coarse,
    FederationScheme,
    Fine,
    FineOptimal,
    GameConfig,
    Local,
    Number,
    Partition,
    TwoSizeGame,
    Uniform,
    ValidationError,
    scheme_name,
)

_INF = math.inf

LINREG_OPTIMAL_NOTE = (
    "optimal weights for linear regression use the many-samples "
    "mean-estimation approximation (mu_e' = d*mu_e, bias = sigma_bias_sq)"
)


@dataclass(frozen=True)
class ErrorReport:
    """Per-player expected MSE for one partition under one scheme."""

    values: Mapping[int, Number]
    note: str | None = None


def _check_member(j: int, coalition: Coalition) -> None:
    if j not in coalition:
        raise ValidationError(f"player {j} is not a member of coalition {coalition.members}")


def _check_player(j: int, config: GameConfig) -> None:
    if not 0 <= j < len(config.players):
        raise ValidationError(f"player index {j} out of range for {len(config.players)} players")


def _bias_coef(config: GameConfig) -> Number:
    return config.sigma_sq if config.linreg is None else config.linreg.sigma_bias_sq


def effective_mean_params(config: GameConfig) -> tuple[Number, Number, bool]:
    """(mu, bias, is_approximation) for the optimal-weight formulas.

    Mean estimation passes through; linear regression substitutes
    mu_e' = d*mu_e and bias = sigma_bias_sq (valid when n_i >> d).
    """
    if config.linreg is None:
        return config.mu_e, config.sigma_sq, False
    return config.mu_e * config.linreg.d, config.linreg.sigma_bias_sq, True


def _variance_term(config: GameConfig, n: int) -> Number:
    """mu_e times the per-player variance multiplier."""
    if config.linreg is None:
        return config.mu_e / n
    d = config.linreg.d
    return config.mu_e * d / (n - d - 1)


def _sample_sums(members: Iterable[int], ns: Sequence[int]) -> tuple[int, int]:
    """(N, Q): the members' sample total and their sum of squared counts."""
    total = square = 0
    for i in members:
        n = ns[i]
        total += n
        square += n * n
    return total, square


def _bias_integer(n_j: int, total: int, square: int) -> int:
    """B_j: the other members' squared counts plus (N - n_j)^2."""
    return square - n_j * n_j + (total - n_j) ** 2


# --- member formulas: one scheme each, given the coalition-wide terms ---------


def _coarse_member(
    n_j: int,
    w: Number,
    total: int,
    square: int,
    global_var: Number | None,
    config: GameConfig,
) -> Number:
    if config.linreg is None:
        variance = config.mu_e * (w * w / n_j) + config.mu_e * (1 - w * w) / total
    else:
        d = config.linreg.d
        variance = (1 - w) ** 2 * global_var + config.mu_e * (
            w * w + (1 - w) * w * 2 * n_j / total
        ) * d / (n_j - d - 1)
    b = _bias_integer(n_j, total, square)
    return variance + _bias_coef(config) * b * (1 - w) ** 2 / (total * total)


def _coarse_optimal_parts(n_j: int, total: int, b: int, mu_e: Number, bias: Number) -> Number:
    """Optimal-coarse closed form from (n_j, N, B); singleton degenerates to local.

    A float mu_e near the top of the float range overflows mu_e^2; only then
    is the form evaluated again with mu_e divided out of both sides, so
    every finite result keeps its bits.
    """
    if total == n_j:
        return mu_e / n_j
    num = mu_e * mu_e * (total - n_j) + mu_e * bias * b
    den = mu_e * total * (total - n_j) + bias * n_j * b
    result = num / den
    if not result < _INF:
        result = (mu_e * (total - n_j) + bias * b) / (
            total * (total - n_j) + bias * n_j * b / mu_e
        )
        if not result < _INF:
            raise ValidationError(
                f"optimal coarse-grained error overflows for mu_e={mu_e!r}, "
                f"bias={bias!r}, n={n_j}, N={total}"
            )
    return result


def _fine_member(j: int, row: Mapping[int, Number], config: GameConfig) -> Number:
    """Fine-grained MSE of player j with weight row ``row``: the variance
    terms in row order, then the bias term from the other members' weights.
    Each sum is taken left to right (see ``_optimal_row``)."""
    ns = config.players
    mu_e = config.mu_e
    variance = off = off_sq = 0
    if config.linreg is None:
        for i, v in row.items():
            variance += mu_e * v * v / ns[i]
    else:
        d = config.linreg.d
        for i, v in row.items():
            variance += mu_e * v * v * d / (ns[i] - d - 1)
    for i, v in row.items():
        if i != j:
            off += v
            off_sq += v * v
    return variance + _bias_coef(config) * (off_sq + off * off)


def _optimal_fine_terms(
    config: GameConfig,
) -> tuple[Number, Number, list[Number], list[Number]]:
    """(mu, bias, V, 1/V) for the optimal fine rows, V_i = bias + mu/n_i,
    with V and 1/V listed per player."""
    mu, bias, _ = effective_mean_params(config)
    v_of = [bias + mu / n for n in config.players]
    inv = [1 / v for v in v_of]
    return mu, bias, v_of, inv


def _optimal_row(
    j: int,
    members: Iterable[int],
    v_of: Sequence[Number],
    inv: Sequence[Number],
    bias: Number,
) -> dict[int, Number]:
    """Player j's error-minimizing fine row over at least two members.

    The sum of 1/V_i over the other members is taken afresh for each j, in
    member order: subtracting 1/V_j from a shared total would change the
    last bits of the result.  It is a left-to-right loop, as is every float
    sum here: from CPython 3.12 on, ``sum()`` compensates float rounding,
    and the result would depend on the version.
    """
    inv_sum = 0
    for i in members:
        if i != j:
            inv_sum += inv[i]
    den = 1 + v_of[j] * inv_sum
    row: dict[int, Number] = {j: (1 + bias * inv_sum) / den}
    for k in members:
        if k != j:
            row[k] = (v_of[j] - bias) / (v_of[k] * den)
    return row


def _check_row(row: Mapping[int, Number], members: Sequence[int]) -> None:
    """Row keys must be the coalition; the row sum is checked by ``Fine``."""
    if set(row) != set(members):
        raise ValidationError(
            f"weight row keys {sorted(row)} do not match coalition {tuple(members)}"
        )


MemberError = Callable[[int], Number]


def _overflow(scheme: FederationScheme, n_j: int, total: int) -> ValidationError:
    return ValidationError(
        f"{scheme_name(scheme)} error of a member with {n_j} samples, in a coalition "
        f"of {total} samples, overflows the float range"
    )


def _listed(members: Sequence[int], total: int) -> Sequence[int]:
    """The shared term of the fine-grained schemes: the members themselves."""
    return members


class Formula(NamedTuple):
    """A scheme resolved for one config (``scheme_formula``).

    ``error(j, N, Q, terms)`` is player j's expected MSE in a coalition whose
    members have sample sums N and Q (``_sample_sums``).  ``terms`` is what
    ``shared(members, N)`` returns for that coalition, members listed in
    ascending order; a caller takes it once per coalition, when the first
    member error is needed.  ``shared`` is None, and ``terms`` is passed as
    None, for the schemes whose member error needs only (n_j, N, Q): local,
    mean uniform, coarse-optimal and mean coarse.  The fine-grained schemes
    share the member list; regression uniform and coarse share the global
    variance.

    Every float error is finite: one that overflows, or is NaN from an
    overflow, raises ``ValidationError``.
    """

    error: Callable[[int, int, int, Any], Number]
    shared: Optional[Callable[[Sequence[int], int], Any]]


def scheme_formula(scheme: FederationScheme, config: GameConfig) -> Formula:
    """Resolve the scheme once for a config: its ``Formula``.

    Everything that does not depend on the coalition is done here, once: the
    scheme dispatch, each player's local error, the optimal-weight
    parameters, the optimal-fine V_i and 1/V_i, and each player's
    linear-regression numerator mu_e*n_i*n_i*d and denominator n_i-d-1.

    A member's error costs O(1), or O(|C|) under the fine-grained schemes,
    plus the shared term, O(|C|), once per coalition.  A coarse weight or a
    fine row is looked up only for the member asked about.  A member whose
    own samples are the coalition's (N = n_j) is alone and gets their local
    error.
    """
    ns = config.players
    local = [_variance_term(config, n) for n in ns]
    if isinstance(scheme, Local):

        def local_error(j: int, total: int, square: int, terms: None) -> Number:
            err = local[j]
            if err < _INF:
                return err
            raise _overflow(scheme, ns[j], total)

        return Formula(local_error, None)
    if isinstance(scheme, Fine):
        rows = scheme.rows

        def fine(j: int, total: int, square: int, members: Sequence[int]) -> Number:
            if j not in rows:
                raise ValidationError(f"fine scheme has no row for player {j}")
            row = rows[j]
            _check_row(row, members)
            try:
                err = local[j] if len(members) == 1 else _fine_member(j, row, config)
            except OverflowError:
                # an int or Fraction term too large for a float
                err = _INF
            if err < _INF:
                return err
            raise _overflow(scheme, ns[j], total)

        return Formula(fine, _listed)
    if isinstance(scheme, CoarseOptimal):
        mu, bias, _ = effective_mean_params(config)

        def coarse_optimal(j: int, total: int, square: int, terms: None) -> Number:
            n = ns[j]
            if total != n:
                # B_j inline (``_bias_integer``): this runs once per member a scan asks about
                return _coarse_optimal_parts(n, total, square - n * n + (total - n) ** 2, mu, bias)
            err = local[j]
            if err < _INF:
                return err
            raise _overflow(scheme, n, total)

        return Formula(coarse_optimal, None)
    if isinstance(scheme, FineOptimal):
        mu, bias, v_of, inv = _optimal_fine_terms(config)

        def fine_optimal(j: int, total: int, square: int, members: Sequence[int]) -> Number:
            """The error at player j's optimal row (``_optimal_row``) in the
            mean-estimation form of ``_fine_member``, with mu and bias from
            ``effective_mean_params``, without building the row: the sum of
            1/V_i over the other members, then each entry of the row as the
            error's sums take it, j's first, in the same order and grouping."""
            n = ns[j]
            if total == n:
                err = local[j]
            else:
                inv_sum = 0
                for i in members:
                    if i != j:
                        inv_sum += inv[i]
                v_j = v_of[j]
                den = 1 + v_j * inv_sum
                own = (1 + bias * inv_sum) / den
                scale = v_j - bias
                variance = mu * own * own / n
                off = off_sq = 0
                for i in members:
                    if i != j:
                        v = scale / (v_of[i] * den)
                        variance += mu * v * v / ns[i]
                        off += v
                        off_sq += v * v
                err = variance + bias * (off_sq + off * off)
            if err < _INF:
                return err
            raise _overflow(scheme, n, total)

        return Formula(fine_optimal, _listed)
    mu_e, bias_coef = config.mu_e, _bias_coef(config)
    global_variance = None
    if config.linreg is not None:
        d = config.linreg.d
        num = [mu_e * n * n * d for n in ns]
        den = [n - d - 1 for n in ns]
        scaled = [n * n * d for n in ns]

        def global_variance(members: Sequence[int], total: int) -> Optional[Number]:
            """Variance of the coalition's sample-weighted model, from each
            member's numerator mu_e*n_i*n_i*d and denominator n_i-d-1; None
            for a member alone.

            The integer divisor (n_i-d-1)*N*N is exact in any grouping, so
            N*N is taken once; the terms are summed in member order.  A float
            mu_e near the top of the float range overflows a numerator; only
            then is the sum taken again with mu_e factored out of each
            numerator (``scaled`` is n_i*n_i*d), so every finite result keeps
            its bits."""
            if len(members) == 1:
                return None
            square_total = total * total
            variance = 0
            for i in members:
                variance += num[i] / (den[i] * square_total)
            if variance < _INF:
                return variance
            variance = 0
            for i in members:
                variance += scaled[i] / (den[i] * square_total)
            variance = mu_e * variance
            if variance < _INF:
                return variance
            raise ValidationError(
                f"linear-regression global variance overflows for mu_e={mu_e!r}, N={total}"
            )

    if isinstance(scheme, Uniform):

        def uniform(j: int, total: int, square: int, variance: Optional[Number]) -> Number:
            n = ns[j]
            if total == n:
                err = local[j]
            else:
                if variance is None:  # mean estimation: no shared term
                    variance = mu_e / total
                b = square - n * n + (total - n) ** 2  # B_j, ``_bias_integer``
                err = variance + bias_coef * b / (total * total)
            if err < _INF:
                return err
            raise _overflow(scheme, n, total)

        return Formula(uniform, global_variance)
    if isinstance(scheme, Coarse):
        weights = scheme.weights

        def coarse(j: int, total: int, square: int, global_var: Optional[Number]) -> Number:
            if j not in weights:
                raise ValidationError(f"coarse scheme has no weight for player {j}")
            n = ns[j]
            if total == n:
                err = local[j]
            else:
                err = _coarse_member(n, weights[j], total, square, global_var, config)
            if err < _INF:
                return err
            raise _overflow(scheme, n, total)

        return Formula(coarse, global_variance)
    raise ValidationError(f"unknown federation scheme {scheme!r}")


def member_formula(
    members: Sequence[int], scheme: FederationScheme, config: GameConfig
) -> MemberError:
    """Player -> expected MSE inside the coalition ``members`` under scheme.

    ``members`` are distinct player indices in ascending order.  This checks
    the coalition, takes its sample sums and its shared term, and binds them
    to the scheme's ``scheme_formula`` error: the one path to every
    coalition-member error outside the stability scans.
    """
    if not members:
        raise ValidationError("coalition: must be non-empty")
    _check_player(min(members), config)
    _check_player(max(members), config)
    total, square = _sample_sums(members, config.players)
    error, shared = scheme_formula(scheme, config)
    terms = None if shared is None else shared(members, total)
    return lambda j: error(j, total, square, terms)


def coalition_errors(
    coalition: Coalition | Sequence[int], scheme: FederationScheme, config: GameConfig
) -> dict[int, Number]:
    """Every member's expected MSE inside the coalition, in one pass.

    ``coalition`` may also be given as its members: distinct player indices
    in ascending order, as read from a membership bitmask.  Each value is
    identical, value and type, to ``coalition_member_mse`` for that member.
    """
    members = coalition.members if isinstance(coalition, Coalition) else coalition
    error_of = member_formula(members, scheme, config)
    return {j: error_of(j) for j in members}


def coalition_member_mse(
    j: int, coalition: Coalition, scheme: FederationScheme, config: GameConfig
) -> Number:
    """Expected MSE of player j inside its coalition under any scheme."""
    _check_member(j, coalition)
    return member_formula(coalition.members, scheme, config)(j)


def mse_local(j: int, config: GameConfig) -> Number:
    """Expected MSE of local estimation: mu_e/n_j, or mu_e*d/(n_j-d-1)."""
    _check_player(j, config)
    return _variance_term(config, config.players[j])


def mse_uniform(j: int, coalition: Coalition, config: GameConfig) -> Number:
    """Expected MSE of player j under the single sample-weighted model."""
    return coalition_member_mse(j, coalition, Uniform(), config)


def mse_coarse(j: int, coalition: Coalition, w: Number, config: GameConfig) -> Number:
    """Expected MSE of player j blending global and local models with w."""
    return coalition_member_mse(j, coalition, Coarse({j: w}), config)


def mse_fine(
    j: int, coalition: Coalition, row: Mapping[int, Number], config: GameConfig
) -> Number:
    """Expected MSE of player j combining member models with weight row."""
    return coalition_member_mse(j, coalition, Fine({j: row}), config)


def player_errors(
    partition: Partition, scheme: FederationScheme, config: GameConfig
) -> ErrorReport:
    """Evaluate every player within its own coalition of the partition."""
    if partition.player_count != len(config.players):
        raise ValidationError(
            f"partition covers {partition.player_count} players, "
            f"config has {len(config.players)}"
        )
    values: dict[int, Number] = {}
    for coalition in partition.coalitions:
        for j, err in coalition_errors(coalition, scheme, config).items():
            # not float(err): an exact error may lie beyond the float range
            if not 0 <= err < _INF:
                raise ValidationError(f"player {j}: computed MSE {err!r} is not usable")
            values[j] = err
    note = None
    if config.linreg is not None and isinstance(scheme, (CoarseOptimal, FineOptimal)):
        note = LINREG_OPTIMAL_NOTE
    return ErrorReport(values=dict(sorted(values.items())), note=note)


# --- two-size (count-symmetric) profile errors -------------------------------


def two_size_errors(
    game: TwoSizeGame,
    small_count: int,
    large_count: int,
    mu_e: Number,
    sigma_sq: Number,
    scheme: FederationScheme,
) -> tuple[Number | None, Number | None]:
    """(small-member error, large-member error) for a coalition profile.

    The profile is hypothetical: counts need not fit inside game.S/game.L,
    which lets grid property checks range freely.  A missing role returns
    None.  Supported schemes: Uniform and CoarseOptimal (mean estimation).
    """
    if small_count < 0 or large_count < 0 or small_count + large_count < 1:
        raise ValidationError(
            f"profile ({small_count},{large_count}) must be non-negative and non-empty"
        )
    if not isinstance(scheme, (Uniform, CoarseOptimal)):
        raise ValidationError(
            "two-size analysis supports uniform and optimal coarse-grained "
            f"federation, not {scheme_name(scheme)}"
        )
    total = small_count * game.n_s + large_count * game.n_l
    square = small_count * game.n_s**2 + large_count * game.n_l**2

    def member_error(n_j: int) -> Number:
        b = _bias_integer(n_j, total, square)
        if isinstance(scheme, Uniform):
            if total == n_j:
                return mu_e / n_j
            err = mu_e / total + sigma_sq * b / (total * total)
            if err < _INF:
                return err
            raise _overflow(scheme, n_j, total)
        return _coarse_optimal_parts(n_j, total, b, mu_e, sigma_sq)

    err_small = member_error(game.n_s) if small_count else None
    err_large = member_error(game.n_l) if large_count else None
    return err_small, err_large
