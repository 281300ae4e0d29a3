"""Property tests: every stability verdict re-verifies against the error
layer, in float and exact modes, under every notion."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from fedgame import (
    Coalition,
    Coarse,
    CoarseOptimal,
    FineOptimal,
    Local,
    Partition,
    Uniform,
    coalition_errors,
    exact_config,
    exact_scheme,
    find_stable_partitions,
    is_core_stable,
    is_individually_stable,
    is_strict_core_stable,
)
from fedgame.stability import Deviation, PreferenceOrder
from test_config_properties import PROPERTY_SETTINGS, build, config_arguments


@st.composite
def games(draw):
    """(config, scheme, partition, prefs) with 2 to 5 players.

    Half the draws take integer mu_e and sigma_sq, so that counts at the
    threshold mu_e/sigma_sq give both modes exact ties between coalitions.
    """
    players, mu_e, sigma_sq, linreg = draw(config_arguments())
    if len(players) < 2:
        players *= 2
    if draw(st.booleans()):
        mu_e, sigma_sq = draw(st.integers(1, 400)), draw(st.integers(1, 20))
    config = build(players, mu_e, sigma_sq, linreg)
    m = len(players)
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m))
    scheme = draw(
        st.sampled_from(
            [Local(), Uniform(), Coarse(dict(enumerate(weights))), CoarseOptimal(), FineOptimal()]
        )
    )
    labels = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    blocks = [[j for j in range(m) if labels[j] == b] for b in sorted(set(labels))]
    prefs = PreferenceOrder(exact=draw(st.booleans()))
    return config, scheme, Partition.from_blocks(blocks), prefs


def _error_layer(config, scheme, prefs):
    """Member errors as the verdicts compare them, straight from the error
    layer: coalition -> {member: error}."""
    if prefs.exact:
        config, scheme = exact_config(config), exact_scheme(scheme)
    return lambda coalition: coalition_errors(coalition, scheme, config)


def _current(errors_of, partition):
    current = {}
    for coalition in partition.coalitions:
        current.update(errors_of(coalition))
    return current


def _blocks(errors_of, current, prefs, coalition, strict_notion):
    errs = errors_of(coalition)
    if not strict_notion:
        return all(prefs.strictly_less(errs[j], current[j]) for j in coalition)
    return all(prefs.weakly_less(errs[j], current[j]) for j in coalition) and any(
        prefs.strictly_less(errs[j], current[j]) for j in coalition
    )


@PROPERTY_SETTINGS
@given(games(), st.booleans())
def test_a_blocking_witness_re_verifies_and_is_the_first(game, strict_notion):
    config, scheme, partition, prefs = game
    verdict = (is_strict_core_stable if strict_notion else is_core_stable)(
        partition, scheme, config, prefs
    )
    errors_of = _error_layer(config, scheme, prefs)
    current = _current(errors_of, partition)
    last = verdict.witness.mask if verdict.witness else 1 << len(config.players)
    for mask in range(1, last):
        coalition = Coalition.from_mask(mask)
        assert not _blocks(errors_of, current, prefs, coalition, strict_notion), coalition
    if verdict.witness is not None:
        assert _blocks(errors_of, current, prefs, verdict.witness, strict_notion)


@PROPERTY_SETTINGS
@given(games(), st.booleans())
def test_an_individual_deviation_re_verifies(game, allow_singleton_deviation):
    config, scheme, partition, prefs = game
    verdict = is_individually_stable(
        partition, scheme, config, prefs, allow_singleton_deviation
    )
    if verdict.stable:
        return
    deviation = verdict.witness
    assert isinstance(deviation, Deviation)
    errors_of = _error_layer(config, scheme, prefs)
    current = _current(errors_of, partition)
    errs = errors_of(deviation.target)
    mover = deviation.player
    assert prefs.strictly_less(errs[mover], current[mover])
    hosts = [j for j in deviation.target if j != mover]
    assert hosts or (allow_singleton_deviation and len(partition.coalition_of(mover)) > 1)
    if hosts:
        assert Coalition(tuple(hosts)) in partition.coalitions
    assert all(prefs.weakly_less(errs[j], current[j]) for j in hosts)


@PROPERTY_SETTINGS
@given(games())
def test_strict_core_stable_sets_lie_inside_the_core_stable_sets(game):
    config, scheme, _, prefs = game
    strict = find_stable_partitions(config, scheme, "strict", prefs)
    core = find_stable_partitions(config, scheme, "core", prefs)
    assert set(strict) <= set(core)
