"""Closed-form optimal personalization weights and the resulting errors.

For mean estimation the formulas are exact.  For linear regression the
optimal-weight derivations only exist in the many-samples limit, where the
problem maps onto mean estimation with mu_e' = d*mu_e and bias coefficient
sigma_bias_sq (``effective_mean_params``); callers surface the approximation
note from ``errors.LINREG_OPTIMAL_NOTE``.  The closed forms themselves live in
``errors``, next to the other schemes', so every error has one formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import (
    _bias_integer,
    _check_member,
    _check_player,
    _check_row,
    _optimal_fine_terms,
    _optimal_row,
    _sample_sums,
    coalition_member_mse,
    effective_mean_params,
)
from .model import (
    Coalition,
    Coarse,
    CoarseOptimal,
    FederationScheme,
    Fine,
    FineOptimal,
    GameConfig,
    Local,
    Number,
    Uniform,
    ValidationError,
    check_row_sum,
    scheme_name,
)


@dataclass(frozen=True)
class FineWeights:
    """Optimal combination row for one target player over one coalition."""

    player: int
    row: Mapping[int, Number]

    def __post_init__(self) -> None:
        check_row_sum(self.row, "fine weight row")
        if self.player not in self.row:
            raise ValidationError("fine weight row is missing its own player")


def optimal_w(j: int, coalition: Coalition, config: GameConfig) -> Number:
    """Error-minimizing coarse weight w* for player j.

    Alone, every weight yields the same estimator; 1 ("all local") is
    returned as the honest degenerate value.
    """
    _check_member(j, coalition)
    _check_player(j, config)
    if len(coalition) == 1:
        return 1
    mu, bias, _ = effective_mean_params(config)
    n_j = config.players[j]
    total, square = _sample_sums(coalition.members, config.players)
    num = bias * _bias_integer(n_j, total, square) * n_j
    return num / (mu * total * (total - n_j) + num)


def optimal_coarse_mse(j: int, coalition: Coalition, config: GameConfig) -> Number:
    """Expected MSE of player j at the optimal coarse weight (closed form)."""
    return coalition_member_mse(j, coalition, CoarseOptimal(), config)


def optimal_v(j: int, coalition: Coalition, config: GameConfig) -> FineWeights:
    """Error-minimizing fine-grained weight row for player j.

    Built from V_i = bias + mu/n_i; every entry is strictly inside (0,1)
    whenever the coalition has at least two members.
    """
    _check_member(j, coalition)
    _check_player(j, config)
    if len(coalition) == 1:
        return FineWeights(player=j, row={j: 1})
    _, bias, v_of, inv = _optimal_fine_terms(config)
    return FineWeights(player=j, row=_optimal_row(j, coalition.members, v_of, inv, bias))


def optimal_fine_mse(j: int, coalition: Coalition, config: GameConfig) -> Number:
    """Expected MSE of player j at its optimal fine-grained row."""
    return coalition_member_mse(j, coalition, FineOptimal(), config)


def coarse_row(j: int, coalition: Coalition, w: Number, config: GameConfig) -> dict[int, Number]:
    """Fine-grained row equivalent to coarse blending with weight w."""
    if len(coalition) == 1:
        return {j: 1}
    ns = config.players
    total = sum(ns[i] for i in coalition)
    row: dict[int, Number] = {
        i: (1 - w) * ns[i] / total for i in coalition if i != j
    }
    row[j] = w + (1 - w) * ns[j] / total
    return row


def explicit_row(
    j: int, coalition: Coalition, scheme: FederationScheme, config: GameConfig
) -> dict[int, Number]:
    """Resolve any scheme to the explicit combination row of player j."""
    _check_member(j, coalition)
    if isinstance(scheme, Local):
        return {j: 1}
    if isinstance(scheme, Uniform):
        if len(coalition) == 1:
            return {j: 1}
        ns = config.players
        total = sum(ns[i] for i in coalition)
        return {i: ns[i] / total for i in coalition}
    if isinstance(scheme, Coarse):
        if j not in scheme.weights:
            raise ValidationError(f"coarse scheme has no weight for player {j}")
        return coarse_row(j, coalition, scheme.weights[j], config)
    if isinstance(scheme, CoarseOptimal):
        return coarse_row(j, coalition, optimal_w(j, coalition, config), config)
    if isinstance(scheme, Fine):
        if j not in scheme.rows:
            raise ValidationError(f"fine scheme has no row for player {j}")
        row = dict(scheme.rows[j])
        _check_row(row, coalition.members)
        return row
    if isinstance(scheme, FineOptimal):
        return dict(optimal_v(j, coalition, config).row)
    raise ValidationError(f"unknown federation scheme {scheme_name(scheme)}")
