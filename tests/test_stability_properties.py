"""Property tests: every stability verdict re-verifies against the error
layer, in float and exact modes, under every notion; the scans' error table
equals the error layer; the two modes agree away from ties; and the two-size
profile searches agree with the labelled verdicts; and scaling mu_e and the
bias coefficient together changes no verdict."""

import math
from fractions import Fraction
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st

from fedgame import (
    Coalition,
    Coarse,
    CoarseOptimal,
    FineOptimal,
    GameConfig,
    LinRegSpec,
    Local,
    Partition,
    TwoSizeGame,
    Uniform,
    ValidationError,
    coalition_errors,
    exact_config,
    exact_scheme,
    find_stable_partitions,
    is_core_stable,
    is_individually_stable,
    is_strict_core_stable,
    player_errors,
    two_size_blocking_search,
    two_size_game_config,
    two_size_individually_stable,
    two_size_weak_blocking_search,
)
from fedgame import stability
from fedgame.model import NOTIONS, _mask_members
from fedgame.errors import _no_floor, _optimal_fine_terms, _sample_sums, scheme_formula
from fedgame.stability import (
    Deviation,
    PreferenceOrder,
    _ErrorTable,
    _blocking_coalition,
    _individual_move,
    _single_blocking_coalition,
)
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


def _scaled(config, c):
    """The game with mu_e and the bias coefficient multiplied by c."""
    lr = config.linreg
    linreg = None if lr is None else LinRegSpec(lr.d, lr.sigma_bias_sq * c)
    return GameConfig(config.players, config.mu_e * c, config.sigma_sq * c, linreg)


def _answers(config, scheme, partition, prefs, notion):
    verdicts = [
        check(partition, scheme, config, prefs)
        for check in (is_core_stable, is_strict_core_stable, is_individually_stable)
    ]
    return [(v.stable, v.witness) for v in verdicts], find_stable_partitions(
        config, scheme, notion, prefs
    )


@PROPERTY_SETTINGS
@given(games(), st.integers(-60, 60), st.integers(-12, 12), st.sampled_from(NOTIONS))
def test_verdicts_and_stable_sets_do_not_depend_on_the_scale(game, k2, k10, notion):
    """Every closed form is homogeneous of degree 1 in (mu_e, bias), so
    scaling both by c scales every error by c.  A power of two scales a float
    exactly, and any rational scales an exact value exactly."""
    config, scheme, partition, prefs = game
    if prefs.exact:
        base = exact_config(config)
        factors = [Fraction(2) ** k2, Fraction(10) ** k10]
    else:
        base = _scaled(config, 1.0)  # float fields, so that scaling is exact
        factors = [math.ldexp(1.0, k2)]
    expected = _answers(base, scheme, partition, prefs, notion)
    for c in factors:
        assert _answers(_scaled(base, c), scheme, partition, prefs, notion) == expected, c


@st.composite
def tables(draw, max_players=6):
    """(config, scheme, prefs) with 1 to ``max_players`` players, mean
    estimation or linear regression."""
    players, mu_e, sigma_sq, linreg = draw(config_arguments())
    low = 1 if linreg is None else linreg[0] + 2
    players += tuple(
        draw(st.lists(st.integers(low, MAX_COUNT), max_size=max_players - len(players)))
    )
    config = build(players, mu_e, sigma_sq, linreg)
    return config, _schemes(draw, len(players)), PreferenceOrder(exact=draw(st.booleans()))


def _typed(errors):
    return [(j, type(err), err) for j, err in errors.items()]


@PROPERTY_SETTINGS
@given(tables(), st.randoms(use_true_random=False))
def test_the_dense_table_equals_the_error_layer(table_game, rng):
    # The stable-set search's table holds every member's error in every
    # mask, value and type, as ``coalition_errors`` gives it, and None for
    # every player outside the mask; under exact fine-optimal federation
    # it is filled from the floor, which is the error there.  A single
    # verdict's ``current_errors`` takes each block's sums and shared term
    # from its members, and reads a one-player block's error from
    # ``Formula.alone``: against a random partition, on a fresh table and
    # after a scan, it equals ``player_errors``.
    config, scheme, prefs = table_game
    errors_of = _error_layer(config, scheme, prefs)
    m = len(config.players)
    errs = _ErrorTable(config, scheme, prefs).dense()
    assert len(errs) == m and all(len(row) == 1 << m for row in errs)
    for mask in range(1, 1 << m):
        expected = errors_of(Coalition.from_mask(mask))
        found = {j: errs[j][mask] for j in range(m) if errs[j][mask] is not None}
        assert _typed(found) == _typed(expected), mask
    assert all(row[0] is None for row in errs)
    labels = [rng.randrange(m) for _ in range(m)]
    partition = Partition.from_blocks(
        [[j for j in range(m) if labels[j] == b] for b in sorted(set(labels))]
    )
    layer_config, layer_scheme = (
        (exact_config(config), exact_scheme(scheme)) if prefs.exact else (config, scheme)
    )
    current = _typed(player_errors(partition, layer_scheme, layer_config).values)
    table = _ErrorTable(config, scheme, prefs)
    assert _typed(dict(enumerate(table.current_errors(partition.masks)))) == current
    _single_blocking_coalition(partition.masks, m, table, prefs, strict_notion=True)
    assert _typed(dict(enumerate(table.current_errors(partition.masks)))) == current


@PROPERTY_SETTINGS
@given(tables(max_players=8), st.booleans())
def test_the_flat_sums_are_every_masks_sample_sums(table_game, stable):
    # Built all at once, level by level (each level asked for twice), and by
    # a single verdict's scan, which extends them as far as it scans: every
    # mask below 2^t gets N and Q as ``_sample_sums`` gives them and, under
    # fine-optimal federation, the sum of 1/V_i over its members, in
    # ascending order from 0, the value and type of the sum ``fine_optimal``
    # takes; without addends, the floor's ``rest`` is read from the sample
    # totals.  No table lists members up front: a scan lists a mask's
    # members when it takes the shared term.
    config, scheme, prefs = table_game
    m = len(config.players)
    at_once = _ErrorTable(config, scheme, prefs)
    at_once.extend(m)
    by_level = _ErrorTable(config, scheme, prefs)
    for top in range(m + 1):
        by_level.extend(top)
        by_level.extend(top)
        assert len(by_level.totals) == 1 << top
    scanned = _ErrorTable(config, scheme, prefs)
    # the grand coalition scans every mask when it is stable, the
    # singletons of the two-or-more-player games often stop early
    partition = Partition.grand(m) if stable else Partition.singletons(m)
    _single_blocking_coalition(partition.masks, m, scanned, prefs, strict_notion=False)
    layer_config = exact_config(config) if prefs.exact else config
    inverse = _optimal_fine_terms(layer_config)[3]
    for table in (at_once, by_level, scanned):
        size = len(table.totals)
        assert size & (size - 1) == 0 and len(table.squares) == size
        assert not hasattr(table, "members")
        fine = isinstance(scheme, FineOptimal)
        assert (table.addends is not None) == fine
        if table.addends is None:
            assert table.rests is table.totals
        else:
            assert len(table.rests) == size
        for mask in range(size):
            members = _mask_members(mask)
            sums = table.totals[mask], table.squares[mask]
            assert [type(x) for x in sums] == [int, int]
            assert sums == _sample_sums(members, config.players), mask
            if fine:
                expected = 0
                for i in members:
                    expected += inverse[i]
                assert (type(table.rests[mask]), table.rests[mask]) == (type(expected), expected)
    assert len(at_once.totals) == 1 << m


@st.composite
def scanned_games(draw):
    """(config, scheme, partition, prefs) with 1 to 7 players and a random
    partition.  Half the draws are the all-ties game, where every player's
    count is mu_e/sigma_sq, so that uniform federation gives every member of
    every coalition the same error."""
    if draw(st.booleans()):
        n, sigma_sq = draw(st.integers(1, 30)), draw(st.integers(1, 16))
        config = GameConfig((n,) * draw(st.integers(1, 7)), n * sigma_sq, sigma_sq)
        scheme = draw(st.sampled_from([Uniform(), CoarseOptimal(), FineOptimal()]))
        prefs = PreferenceOrder(exact=draw(st.booleans()))
    else:
        config, scheme, prefs = draw(tables(max_players=7))
    m = len(config.players)
    labels = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    blocks = [[j for j in range(m) if labels[j] == b] for b in sorted(set(labels))]
    return config, scheme, Partition.from_blocks(blocks), prefs


@PROPERTY_SETTINGS
@given(scanned_games(), st.sampled_from(NOTIONS))
def test_a_single_verdict_finds_what_the_dense_scan_finds(game, notion):
    # A single verdict, whose scan computes the member errors it asks about
    # on a fresh table, and the stable-set search's scan of the same
    # partition against its dense table give the same witness: the same
    # mask, value and type, or the same deviation.
    config, scheme, partition, prefs = game
    errs = _ErrorTable(config, scheme, prefs).dense()
    if notion == "individual":
        expected = _individual_move(partition.masks, errs, prefs)
        witness = None
        if expected is not None:
            witness = Deviation(expected[0], Coalition.from_mask(expected[1]))
        verdict = is_individually_stable(partition, scheme, config, prefs)
    else:
        strict_notion = notion == "strict"
        expected = _blocking_coalition(partition.masks, errs, prefs, strict_notion)
        m = len(config.players)
        table = _ErrorTable(config, scheme, prefs)
        found = _single_blocking_coalition(partition.masks, m, table, prefs, strict_notion)
        assert (type(found), found) == (type(expected), expected)
        witness = None if expected is None else Coalition.from_mask(expected)
        verdict = (is_strict_core_stable if strict_notion else is_core_stable)(
            partition, scheme, config, prefs
        )
    assert (verdict.stable, verdict.witness) == (expected is None, witness)


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


# --- the floor filter -----------------------------------------------------------


@st.composite
def regression_games(draw):
    """(config, scheme, partition, prefs): linear regression with 1 to 7
    players under uniform or coarse federation.  The bias coefficient may be
    0, where the floor settles nothing.  Half the draws with a bias put some
    counts at a threshold, with integer parameters so that the ties there
    are exact: n = d*mu_e/sigma_bias_sq, the many-samples threshold, or
    n = d*mu_e/sigma_bias_sq + d + 1, where every coalition of equal counts
    gives each member their error alone.  The others draw mu_e against the
    bias from 2^-60 to 2^60 times it, down to a variance part below the bias
    part's last bit.  Then mu_e and the bias are scaled together by 2^-60
    to 2^60."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 7))
    counts = st.integers(d + 2, 120)
    players = draw(st.lists(counts | st.integers(d + 2, 10**4), min_size=m, max_size=m))
    bias = draw(st.sampled_from([0, 1, 4]) | st.floats(0.01, 10.0))
    if bias and draw(st.booleans()):
        unit = draw(st.integers(1, 8))
        threshold = draw(counts)
        mu_e, bias = threshold * unit, d * unit
        if draw(st.booleans()):
            threshold += d + 1
        players = [threshold if draw(st.booleans()) else n for n in players]
    else:
        # half of these below 2^-30, where the variance part may vanish in
        # the bias part's rounding
        exponent = draw(st.integers(-60, -30) | st.integers(-60, 60))
        mu_e = draw(st.floats(0.1, 100.0)) * math.ldexp(1.0, exponent)
    scale = math.ldexp(1.0, draw(st.integers(-60, 60)))
    bias = float(bias) * scale
    config = GameConfig(tuple(players), float(mu_e) * scale, bias, LinRegSpec(d, bias))
    weights = draw(
        st.lists(st.sampled_from([0.0, 0.125, 0.5, 1.0]) | st.floats(0.0, 1.0), min_size=m, max_size=m)
    )
    scheme = draw(st.sampled_from([Uniform(), Coarse(dict(enumerate(weights)))]))
    labels = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    blocks = [[j for j in range(m) if labels[j] == b] for b in sorted(set(labels))]
    partition = draw(
        st.sampled_from([Partition.from_blocks(blocks), Partition.singletons(m), Partition.grand(m)])
    )
    return config, scheme, partition, PreferenceOrder(exact=draw(st.booleans()))


@st.composite
def fine_optimal_games(draw):
    """(config, scheme, partition, prefs): fine-optimal federation with 1 to
    7 players, drawn where the float floor's bound is tested hardest.  A
    third are all-ties games (every count at mu_e/sigma_sq), a third put some
    counts at that threshold, with integer parameters so that the ties are
    exact, and a third draw mu_e against the bias from 2^-60 to 2^60 times
    it, with bias 0 among them: there bias/(mu/n_j) reaches 2^60, and for
    the larger counts fl(bias + mu/n_j) == bias.  Then mu_e and the bias
    are scaled together by 2^-1000 to 2^1000, where the float floor is
    mostly withheld, or by 2^-60 to 2^60.  Three in four are linear
    regression, whose optimal weights take the mean-estimation form.
    Epsilon is 0 or 1e-9, in float or exact mode."""
    m = draw(st.integers(1, 7))
    d = draw(st.integers(0, 3))  # 0: mean estimation
    low = d + 2 if d else 1
    counts = st.integers(low, 120) | st.integers(low, 10**6)
    kind = draw(st.sampled_from(["ties", "threshold", "ratio"]))
    if kind == "ratio":
        players = draw(st.lists(counts, min_size=m, max_size=m))
        bias = draw(st.sampled_from([0, 1]) | st.floats(0.01, 10.0))
        mu_e = draw(st.floats(0.1, 100.0)) * math.ldexp(1.0, draw(st.integers(-60, 60)))
    else:
        # mean-estimation threshold mu/bias = d*mu_e/(d*unit) = n
        unit, threshold = draw(st.integers(1, 8)), draw(st.integers(low, 120))
        mu_e, bias = threshold * unit, (d or 1) * unit
        players = [
            threshold if kind == "ties" or draw(st.booleans()) else draw(counts) for _ in range(m)
        ]
    scale = math.ldexp(1.0, draw(st.integers(-1000, 1000) | st.integers(-60, 60)))
    mu_e, bias = float(mu_e) * scale, float(bias) * scale
    assume(0 < mu_e < math.inf and bias < math.inf)
    config = GameConfig(tuple(players), mu_e, bias, LinRegSpec(d, bias) if d else None)
    labels = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    blocks = [[j for j in range(m) if labels[j] == b] for b in sorted(set(labels))]
    partition = draw(
        st.sampled_from([Partition.from_blocks(blocks), Partition.singletons(m), Partition.grand(m)])
    )
    prefs = PreferenceOrder(epsilon=draw(st.sampled_from([0.0, 1e-9])), exact=draw(st.booleans()))
    return config, FineOptimal(), partition, prefs


def _unfiltered():
    """The scans' formula seam with each scheme's ``floor`` dropped: every
    member they ask about is evaluated in full."""
    return mock.patch.object(
        stability,
        "scheme_formula",
        lambda scheme, cfg: scheme_formula(scheme, cfg)._replace(make_floor=_no_floor),
    )


def _outcome(answer):
    """An answer, or the refusal it raised."""
    try:
        return answer()
    except ValidationError as refusal:
        return str(refusal)


@PROPERTY_SETTINGS
@given(regression_games() | fine_optimal_games(), st.booleans())
def test_the_floor_filter_changes_no_verdict_witness_or_stable_set(game, strict_notion):
    # Regression uniform and coarse have a floor, and so has fine-optimal
    # federation where its float bound holds; without it the scans evaluate
    # every member they ask about.  Both scans answer the same, or refuse
    # the same.
    config, scheme, partition, prefs = game
    regression = not isinstance(scheme, FineOptimal)
    assert (_ErrorTable(config, scheme, prefs).make_floor() is not None) or not regression
    verdict_of = is_strict_core_stable if strict_notion else is_core_stable
    notion = "strict" if strict_notion else "core"
    m = len(config.players)

    def answers():
        verdict = verdict_of(partition, scheme, config, prefs)
        # Bell(7) = 877 partitions: the stable sets from 6 players on in float mode only
        search = m <= 5 or not prefs.exact
        return verdict, search and find_stable_partitions(config, scheme, notion, prefs)

    filtered = _outcome(answers)
    with _unfiltered():
        assert _ErrorTable(config, scheme, prefs).make_floor() is None
        assert _outcome(answers) == filtered


@PROPERTY_SETTINGS
@given(regression_games(), st.booleans(), st.data())
def test_the_filtered_scans_find_what_the_full_scans_find_at_the_floor(game, strict_notion, data):
    # A single verdict's scan, against current errors drawn where the
    # settle rule is decided.  A target coalition is drawn; each of its
    # members' current error is their floor or their error in it, times 1,
    # 1.01 or 1.5 and, in float mode, 1 -/+ 1e-9 or one last-bit step down
    # or up.  A member
    # whose floor is at or just past their bound is settled; one just
    # short of it is evaluated.  Every other player's current error is 0,
    # so only the target's subsets can block.
    config, scheme, _, prefs = game
    m = len(config.players)
    layer_config, layer_scheme = (
        (exact_config(config), exact_scheme(scheme)) if prefs.exact else (config, scheme)
    )
    error, shared, make_floor = scheme_formula(layer_scheme, layer_config)[:3]
    floor = make_floor()
    members = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1)))
    total, square = _sample_sums(members, config.players)
    terms = shared(members, total)
    current = [0] * m
    for j in members:
        least = floor(j, total, square, total - config.players[j])
        value = least if data.draw(st.booleans()) else error(j, total, square, terms)
        near = [value, value * 101 / 100, value * 3 / 2]
        if not prefs.exact:
            near += [
                value * (1 - 1e-9),
                value * (1 + 1e-9),
                math.nextafter(value, -math.inf),
                math.nextafter(value, math.inf),
            ]
        current[j] = data.draw(st.sampled_from(near))
    masks = Partition.singletons(m).masks

    def scan():
        table = _ErrorTable(config, scheme, prefs)
        table.current_errors = lambda masks: current
        return _single_blocking_coalition(masks, m, table, prefs, strict_notion)

    filtered = scan()
    with _unfiltered():
        assert scan() == filtered


def _fine_optimal_tables():
    """(config, scheme, prefs) of ``fine_optimal_games``."""
    return fine_optimal_games().map(lambda game: (game[0], game[1], game[3]))


@PROPERTY_SETTINGS
@given(tables() | _fine_optimal_tables(), st.data())
def test_the_floor_is_given_for_regression_and_fine_optimal_schemes_and_bounds_the_error(
    table_game, data
):
    # Under regression uniform and coarse, ``floor`` is the part of the
    # error that ``error`` adds last to a non-negative variance part, so it
    # never exceeds the error, in float and in exact mode.  Under
    # fine-optimal federation it is the error's closed form: in exact mode
    # the error itself, value and type (``floor_is_error``), in float mode
    # reduced by its rounding-error bound, or withheld where that bound may
    # not hold.  It is None under every other scheme and under mean
    # estimation.
    config, scheme, prefs = table_game
    if prefs.exact:
        config, scheme = exact_config(config), exact_scheme(scheme)
    error, shared, make_floor, addends, floor_is_error, _ = scheme_formula(scheme, config)
    floor = make_floor()
    regression = config.linreg is not None and isinstance(scheme, (Uniform, Coarse))
    fine = isinstance(scheme, FineOptimal)
    assert (floor is not None) == regression or fine and (floor is not None or not prefs.exact)
    assert (addends is not None) == fine
    assert floor_is_error == (fine and prefs.exact)
    if floor is None:
        return
    m = len(config.players)
    # every mask under fine-optimal federation, whose float floor lies a
    # few units in the last place below the error; one under regression
    masks = range(1, 1 << m) if fine else [data.draw(st.integers(1, (1 << m) - 1))]
    for members in map(_mask_members, masks):
        total, square = _sample_sums(members, config.players)
        try:
            errs = {j: error(j, total, square, shared(members, total)) for j in members}
        except ValidationError:  # an overflow, refused
            continue
        for j, err in errs.items():
            rest = total - config.players[j]
            if addends is not None:
                rest = 0
                for i in members:
                    if i != j:
                        rest += addends[i]
            least = floor(j, total, square, rest)
            assert least <= err, (members, j)
            if floor_is_error:
                assert (type(least), least) == (type(err), err), (members, j)
