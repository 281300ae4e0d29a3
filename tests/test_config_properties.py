"""Property tests: a GameConfig that constructs is a game the error layer can
answer, and one that is out of range is refused when it is built."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from fedgame import (
    Coarse,
    CoarseOptimal,
    FineOptimal,
    GameConfig,
    LinRegSpec,
    Local,
    Uniform,
    ValidationError,
    coalition_errors,
    enumerate_coalitions,
)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, database=None, derandomize=True)

MAX_PLAYERS = 5
MAX_COUNT = 200

positive = st.one_of(
    st.integers(1, 10**4), st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
)
non_negative = st.one_of(
    st.integers(0, 10**4), st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
)


@st.composite
def config_arguments(draw):
    """(players, mu_e, sigma_sq, linreg) inside the game's domain; linreg
    is None or (d, sigma_bias_sq) with every count above d + 1."""
    linreg = draw(st.none() | st.tuples(st.integers(1, 4), non_negative))
    low = 1 if linreg is None else linreg[0] + 2
    players = draw(st.lists(st.integers(low, MAX_COUNT), min_size=1, max_size=MAX_PLAYERS))
    return tuple(players), draw(positive), draw(non_negative), linreg


def build(players, mu_e, sigma_sq, linreg):
    return GameConfig(players, mu_e, sigma_sq, None if linreg is None else LinRegSpec(*linreg))


@PROPERTY_SETTINGS
@given(config_arguments(), st.lists(st.floats(0.0, 1.0), min_size=MAX_PLAYERS, max_size=MAX_PLAYERS))
def test_every_constructed_config_has_finite_non_negative_errors(arguments, coarse_weights):
    config = build(*arguments)
    m = len(config.players)
    schemes = (
        Local(),
        Uniform(),
        Coarse(dict(enumerate(coarse_weights[:m]))),
        CoarseOptimal(),
        FineOptimal(),
    )
    for coalition in enumerate_coalitions(m):
        for scheme in schemes:
            for j, err in coalition_errors(coalition, scheme, config).items():
                assert err >= 0 and math.isfinite(err), (coalition, scheme, j, err)


# One field at a time is replaced by a value outside the game's domain.
BAD_COUNTS = st.sampled_from([0, -3, True, False, 5.0, 2.5, "5", None])
BAD_MU_E = st.sampled_from(
    [0, -1, -0.5, float("nan"), float("inf"), -float("inf"), True, "10", None]
)
BAD_SIGMA_SQ = st.sampled_from([-1, -1e-9, float("nan"), float("inf"), -float("inf"), True, "1"])
BAD_D = st.sampled_from([0, -2, True, 2.5, "2", None])
BAD_BIAS = st.sampled_from([-1, float("nan"), float("inf"), True, "1"])


@st.composite
def out_of_range_arguments(draw):
    players, mu_e, sigma_sq, linreg = draw(config_arguments())
    field = draw(
        st.sampled_from(["players", "empty", "mu_e", "sigma_sq", "d", "bias", "small_n"])
    )
    if field == "players":
        players = list(players)
        players[draw(st.integers(0, len(players) - 1))] = draw(BAD_COUNTS)
    elif field == "empty":
        players = ()
    elif field == "mu_e":
        mu_e = draw(BAD_MU_E)
    elif field == "sigma_sq":
        sigma_sq = draw(BAD_SIGMA_SQ)
    elif field == "d":
        linreg = (draw(BAD_D), 1)
    elif field == "bias":
        linreg = (1, draw(BAD_BIAS))
    else:
        d = draw(st.integers(1, 4))
        players = (*players[1:], draw(st.integers(1, d + 1)))
        linreg = (d, 1)
    return tuple(players), mu_e, sigma_sq, linreg


@PROPERTY_SETTINGS
@given(out_of_range_arguments())
def test_every_out_of_range_config_is_refused_at_construction(arguments):
    with pytest.raises(ValidationError):
        build(*arguments)
