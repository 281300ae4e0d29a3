"""Differential tests against the benchmark's independent reference,
``perfbench/oracle.py``, which imports nothing from ``fedgame``: the
partition enumeration, and the stable sets of every notion in both modes.

The oracle is imported read-only from its own directory; it needs numpy.
"""

import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")
pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import oracle  # noqa: E402

from fedgame import (  # noqa: E402
    CoarseOptimal,
    FineOptimal,
    GameConfig,
    LinRegSpec,
    PreferenceOrder,
    Uniform,
    enumerate_partitions,
    find_stable_partitions,
)
from fedgame.model import _partition_masks  # noqa: E402
from test_config_properties import MAX_COUNT, PROPERTY_SETTINGS  # noqa: E402

SCHEMES = {"uniform": Uniform(), "coarse-optimal": CoarseOptimal(), "fine-optimal": FineOptimal()}


def _masks(partition):
    return tuple(c.mask for c in partition.coalitions)


@pytest.mark.parametrize("m", range(1, 9))
def test_the_mask_generator_is_the_oracles_and_the_public_enumerations_order(m):
    masks = list(_partition_masks(m))
    assert masks == oracle.partitions(m)
    assert masks == [_masks(p) for p in enumerate_partitions(m)]
    assert len(masks) == oracle.bell(m)


@st.composite
def searches(draw):
    """(oracle game, config, scheme name, notion, exact) with 1 to 6 players.

    Half the draws take integer mu_e and sigma_sq, so that counts at the
    threshold mu_e/sigma_sq give exact ties; the oracle covers linear
    regression under uniform federation only.
    """
    scheme = draw(st.sampled_from(sorted(SCHEMES)))
    linreg = None
    if scheme == "uniform" and draw(st.booleans()):
        linreg = (draw(st.integers(1, 3)), draw(st.floats(0.01, 5.0)))
    low = 1 if linreg is None else linreg[0] + 2
    players = tuple(draw(st.lists(st.integers(low, MAX_COUNT), min_size=1, max_size=6)))
    if draw(st.booleans()):
        mu_e, sigma_sq = draw(st.integers(1, 400)), draw(st.integers(1, 20))
    else:
        mu_e, sigma_sq = draw(st.floats(0.5, 500.0)), draw(st.floats(0.01, 20.0))
    game = oracle.Game(players, float(mu_e), float(sigma_sq), linreg)
    config = GameConfig(players, mu_e, sigma_sq, None if linreg is None else LinRegSpec(*linreg))
    notion = draw(st.sampled_from(["core", "strict", "individual"]))
    return game, config, scheme, notion, draw(st.booleans())


@PROPERTY_SETTINGS
@given(searches())
def test_stable_sets_equal_the_oracles(search):
    game, config, scheme, notion, exact = search
    try:
        expected = oracle.stable_partitions(game, scheme, notion, exact)
    except oracle.Ambiguous:
        assume(False)
    found = find_stable_partitions(config, SCHEMES[scheme], notion, PreferenceOrder(exact=exact))
    assert [_masks(p) for p in found] == expected
