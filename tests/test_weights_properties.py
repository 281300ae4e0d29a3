"""Property tests for the optimal fine-grained weights (mean estimation): the
optimal fine error is the error of the optimal row, bit for bit, and no row
on the simplex over the coalition does better."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st

from fedgame import (
    Coalition,
    Fine,
    FineOptimal,
    GameConfig,
    coalition_member_mse,
    exact_config,
    mse_fine,
    optimal_fine_mse,
    optimal_v,
)
from test_config_properties import MAX_COUNT, PROPERTY_SETTINGS, non_negative, positive

MAX_PLAYERS = 12

# A float optimal error carries a few roundings; a row that beats it by
# more than this relative margin would be a real counterexample.
OPTIMALITY_RTOL = 1e-9


@st.composite
def members_of_coalitions(draw):
    """(config, coalition, member): a mean-estimation game of 1 to 12
    players, float or exact, one of its coalitions and one member of it."""
    players = draw(st.lists(st.integers(1, MAX_COUNT), min_size=1, max_size=MAX_PLAYERS))
    config = GameConfig(tuple(players), draw(positive), draw(non_negative))
    if draw(st.booleans()):
        config = exact_config(config)
    coalition = Coalition.from_mask(draw(st.integers(1, (1 << len(players)) - 1)))
    return config, coalition, draw(st.sampled_from(coalition.members))


@PROPERTY_SETTINGS
@given(members_of_coalitions())
def test_the_optimal_fine_error_is_the_error_of_the_optimal_row(case):
    config, coalition, j = case
    row = optimal_v(j, coalition, config).row
    got = coalition_member_mse(j, coalition, FineOptimal(), config)
    expected = coalition_member_mse(j, coalition, Fine({j: row}), config)
    assert (type(got), got) == (type(expected), expected)


@PROPERTY_SETTINGS
@given(
    members_of_coalitions(),
    st.lists(st.floats(0.0, 1.0), min_size=MAX_PLAYERS, max_size=MAX_PLAYERS),
)
def test_no_simplex_row_beats_the_optimal_row(case, weights):
    """Exact games compare exactly; float games allow ``OPTIMALITY_RTOL``."""
    config, coalition, j = case
    exact = isinstance(config.mu_e, Fraction)
    raw = [Fraction(w) if exact else w for w in weights[: len(coalition)]]
    total = sum(raw)
    assume(total > 0)
    row = {i: w / total for i, w in zip(coalition.members, raw)}
    best = optimal_fine_mse(j, coalition, config)
    other = mse_fine(j, coalition, row, config)
    assert best <= (other if exact else other * (1 + OPTIMALITY_RTOL)), (best, other)
