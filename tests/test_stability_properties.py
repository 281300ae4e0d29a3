"""Property tests: every stability verdict re-verifies against the error
layer, in float and exact modes, under every notion; the scans' error table
equals the error layer; the two modes agree away from ties; and the two-size
profile searches agree with the labelled verdicts."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st

from fedgame import (
    Coalition,
    Coarse,
    CoarseOptimal,
    FineOptimal,
    Local,
    Partition,
    TwoSizeGame,
    Uniform,
    coalition_errors,
    exact_config,
    exact_scheme,
    find_stable_partitions,
    is_core_stable,
    is_individually_stable,
    is_strict_core_stable,
    two_size_blocking_search,
    two_size_game_config,
    two_size_individually_stable,
    two_size_weak_blocking_search,
)
from fedgame.stability import Deviation, PreferenceOrder, _ErrorTable, _blocking_coalition
from test_config_properties import MAX_COUNT, PROPERTY_SETTINGS, build, config_arguments


def _schemes(draw, m):
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m))
    return draw(
        st.sampled_from(
            [Local(), Uniform(), Coarse(dict(enumerate(weights))), CoarseOptimal(), FineOptimal()]
        )
    )


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
    scheme = _schemes(draw, m)
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


@st.composite
def tables(draw):
    """(config, scheme, prefs) with 1 to 6 players, mean estimation or
    linear regression."""
    players, mu_e, sigma_sq, linreg = draw(config_arguments())
    low = 1 if linreg is None else linreg[0] + 2
    players += tuple(draw(st.lists(st.integers(low, MAX_COUNT), max_size=6 - len(players))))
    config = build(players, mu_e, sigma_sq, linreg)
    return config, _schemes(draw, len(players)), PreferenceOrder(exact=draw(st.booleans()))


def _typed(errors):
    return [(j, type(err), err) for j, err in errors.items()]


@PROPERTY_SETTINGS
@given(tables(), st.randoms(use_true_random=False))
def test_the_error_table_equals_the_error_layer_in_any_order(table_game, rng):
    # ``filled`` takes each mask's sums and shared term from its members, in
    # ascending or shuffled order; after a blocking scan, the masks it
    # reached hold what the scan computed from the mask without their
    # lowest player, which ``filled`` reads back.
    config, scheme, prefs = table_game
    errors_of = _error_layer(config, scheme, prefs)
    m = len(config.players)
    ascending = range(1, 1 << m)
    shuffled = list(ascending)
    rng.shuffle(shuffled)
    for order, scanned in ((ascending, False), (shuffled, False), (ascending, True)):
        table = _ErrorTable(config, scheme, prefs)
        if scanned:
            _blocking_coalition(((1 << m) - 1,), m, table, prefs, strict_notion=True)
        for mask in order:
            expected = errors_of(Coalition.from_mask(mask))
            assert _typed(table.filled(mask)) == _typed(expected), mask


@PROPERTY_SETTINGS
@given(games(), st.booleans())
def test_exact_and_float_verdicts_agree_away_from_ties(game, allow_singleton_deviation):
    """Every pair the verdicts compare, a player's error in a coalition with
    them against their current error, is either an exact tie, which the
    float mode's epsilon is there to recognize, or more than a relative 1e-6
    apart.  Then both modes give the same verdicts and witnesses."""
    config, scheme, partition, _ = game
    exact_of = _error_layer(config, scheme, PreferenceOrder(exact=True))
    current = _current(exact_of, partition)
    for mask in range(1, 1 << len(config.players)):
        for j, err in exact_of(Coalition.from_mask(mask)).items():
            assume(err == current[j] or abs(err - current[j]) > 1e-6 * max(err, current[j]))
    verdicts = (
        lambda prefs: is_core_stable(partition, scheme, config, prefs),
        lambda prefs: is_strict_core_stable(partition, scheme, config, prefs),
        lambda prefs: is_individually_stable(
            partition, scheme, config, prefs, allow_singleton_deviation
        ),
    )
    for verdict in verdicts:
        in_float = verdict(PreferenceOrder())
        in_exact = verdict(PreferenceOrder(exact=True))
        assert (in_float.stable, in_float.witness) == (in_exact.stable, in_exact.witness)


@st.composite
def two_size_games(draw):
    """(game, config, partition, scheme, prefs): a two-size population of at
    most 6 players, smalls first, and a random labelled partition of it.
    Half the draws put a size class at the threshold mu_e/sigma_sq, where
    its players tie between coalitions."""
    S = draw(st.integers(0, 6))
    L = draw(st.integers(0 if S else 1, 6 - S))
    n_s = draw(st.integers(1, 40))
    n_l = draw(st.integers(n_s + 1, 80))
    sigma_sq = draw(st.integers(1, 5))
    mu_e = draw(
        st.sampled_from([n_s * sigma_sq, n_l * sigma_sq])
        | st.integers(1, 400)
        | st.floats(1.0, 400.0)
    )
    game = TwoSizeGame(n_s, n_l, S, L)
    config = two_size_game_config(game, mu_e, sigma_sq)
    m = S + L
    labels = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    blocks = [[j for j in range(m) if labels[j] == b] for b in sorted(set(labels))]
    scheme = draw(st.sampled_from([Uniform(), CoarseOptimal()]))
    prefs = PreferenceOrder(exact=draw(st.booleans()))
    return game, config, Partition.from_blocks(blocks), scheme, prefs


def _profile(coalition, S):
    """A labelled coalition's (smalls, larges) composition."""
    smalls = sum(1 for j in coalition if j < S)
    return smalls, len(coalition) - smalls


@PROPERTY_SETTINGS
@given(two_size_games(), st.booleans())
def test_two_size_blocking_searches_agree_with_the_labelled_verdicts(case, strict_notion):
    """A profile search finds a blocking profile exactly when the labelled
    verdict on any expansion of the arrangement is blocked, and a labelled
    coalition of the profile's composition blocks."""
    game, config, partition, scheme, prefs = case
    profiles = [_profile(c, game.S) for c in partition.coalitions]
    search = two_size_weak_blocking_search if strict_notion else two_size_blocking_search
    found = search(game, profiles, scheme, config, prefs)
    verdict = (is_strict_core_stable if strict_notion else is_core_stable)(
        partition, scheme, config, prefs
    )
    assert (found is None) == verdict.stable, (found, verdict)
    if found is not None:
        errors_of = _error_layer(config, scheme, prefs)
        current = _current(errors_of, partition)
        witnesses = [
            Coalition.from_mask(mask)
            for mask in range(1, 1 << len(config.players))
            if _profile(Coalition.from_mask(mask), game.S) == found
        ]
        assert any(
            _blocks(errors_of, current, prefs, c, strict_notion) for c in witnesses
        ), found


@PROPERTY_SETTINGS
@given(two_size_games(), st.booleans())
def test_two_size_individual_search_agrees_with_the_labelled_verdict(
    case, allow_singleton_deviation
):
    """A profile deviation exists exactly when the labelled verdict finds
    one, and a labelled player of its role, in a block of its source
    composition, can make it."""
    game, config, partition, scheme, prefs = case
    profiles = [_profile(c, game.S) for c in partition.coalitions]
    found = two_size_individually_stable(
        game, profiles, scheme, config, prefs, allow_singleton_deviation
    )
    verdict = is_individually_stable(
        partition, scheme, config, prefs, allow_singleton_deviation
    )
    assert (found is None) == verdict.stable, (found, verdict)
    if found is None:
        return
    errors_of = _error_layer(config, scheme, prefs)
    current = _current(errors_of, partition)
    role = 0 if found.role == "small" else 1
    movers = [
        j for j in range(len(config.players))
        if (j >= game.S) == role and _profile(partition.coalition_of(j), game.S) == found.source
    ]
    alone = found.target == ((1, 0) if role == 0 else (0, 1))

    def deviates(mover, hosts):
        target = Coalition((mover, *hosts))
        errs = errors_of(target)
        return prefs.strictly_less(errs[mover], current[mover]) and all(
            prefs.weakly_less(errs[j], current[j]) for j in hosts
        )

    deviations = [
        (mover, host.members)
        for mover in movers
        for host in partition.coalitions
        if mover not in host and _profile(Coalition((mover, *host.members)), game.S) == found.target
    ]
    if alone and allow_singleton_deviation and sum(found.source) > 1:
        deviations += [(mover, ()) for mover in movers]
    assert any(deviates(mover, hosts) for mover, hosts in deviations), found
