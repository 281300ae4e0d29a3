import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fedgame import (
    Coalition,
    Coarse,
    CoarseOptimal,
    Fine,
    FineOptimal,
    GameConfig,
    LinRegSpec,
    Local,
    Partition,
    TwoSizeGame,
    Uniform,
    ValidationError,
    coalition_errors,
    coalition_member_mse,
    enumerate_coalitions,
    enumerate_partitions,
    exact_config,
    exact_scheme,
    mse_coarse,
    mse_fine,
    mse_local,
    mse_uniform,
    player_errors,
    two_size_game_config,
)
from fedgame.errors import LINREG_OPTIMAL_NOTE, member_formula, scheme_formula, two_size_errors
from oracles import random_coalition, random_mean_config
from test_config_properties import PROPERTY_SETTINGS

MEAN_10_1 = dict(mu_e=10, sigma_sq=1)


def cfg(*players, **kw):
    params = dict(MEAN_10_1)
    params.update(kw)
    return GameConfig(tuple(players), **params)


def rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1.0)


def within_ulps(got, exact, ulps=4):
    """A float answer within ``ulps`` units in the last place of the exact
    value's float."""
    expected = float(exact)
    return abs(got - expected) <= ulps * math.ulp(expected)


# --- local ---------------------------------------------------------------------


def test_local_mean_values_from_reference_tables():
    assert mse_local(0, cfg(5, 5, 5)) == 2.0
    assert mse_local(0, cfg(25, 25, 25)) == 0.4


def test_local_linreg_value():
    config = GameConfig((30,), 10, 1, LinRegSpec(3, 1))
    assert rel_close(mse_local(0, config), 10 * 3 / 26)


def test_local_rejects_bad_player():
    with pytest.raises(ValidationError):
        mse_local(3, cfg(5, 5))


# --- uniform ---------------------------------------------------------------------


def test_uniform_pair_of_smalls():
    assert mse_uniform(0, Coalition((0, 1)), cfg(5, 5, 5)) == 1.5


def test_uniform_large_with_small():
    config = cfg(5, 5, 25)
    value = mse_uniform(2, Coalition((1, 2)), config)
    assert round(value, 4) == 0.3889


def test_uniform_grand_small_player():
    value = mse_uniform(0, Coalition((0, 1, 2)), cfg(5, 5, 25))
    assert round(value, 3) == 1.551


def test_uniform_requires_membership():
    with pytest.raises(ValidationError, match="not a member"):
        mse_uniform(2, Coalition((0, 1)), cfg(5, 5, 5))


def test_uniform_singleton_equals_local_exactly():
    config = cfg(7, 11)
    assert mse_uniform(1, Coalition((1,)), config) == mse_local(1, config)


def test_uniform_same_size_closed_form():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 60)
        m = rng.randint(1, 7)
        mu = rng.uniform(0.2, 30)
        sg = rng.uniform(0.0, 4)
        config = GameConfig((n,) * m, mu, sg)
        got = mse_uniform(0, Coalition(tuple(range(m))), config)
        want = mu / (m * n) + sg * (m - 1) / m
        assert rel_close(got, want)


def test_uniform_indifference_boundary():
    # n = mu_e / sigma_sq makes every coalition's error equal sigma_sq
    for m in range(1, 7):
        config = GameConfig((10,) * m, 10, 1)
        got = mse_uniform(0, Coalition(tuple(range(m))), config)
        assert rel_close(got, 1.0)


# --- coarse ----------------------------------------------------------------------


def test_coarse_weight_range_checked():
    with pytest.raises(ValidationError, match="outside"):
        mse_coarse(0, Coalition((0, 1)), 1.2, cfg(5, 5))


def test_coarse_near_optimal_value_matches_reference():
    config = cfg(30, 30, 30, 300)
    value = mse_coarse(0, Coalition((0, 1, 2, 3)), 0.82551, config)
    assert abs(value - 0.27964) < 5e-6


def test_scheme_recovery_random_configs():
    # coarse(0)=uniform, coarse(1)=local, fine(sample-share row)=uniform
    rng = random.Random(42)
    for case in range(1000):
        config = random_mean_config(rng)
        if case % 4 == 0:
            d = rng.randint(1, 3)
            players = tuple(n + d + 1 for n in config.players)
            config = GameConfig(players, config.mu_e, config.sigma_sq,
                                LinRegSpec(d, rng.uniform(0.0, 2.0)))
        c = random_coalition(rng, len(config.players))
        j = rng.choice(c.members)
        uni = mse_uniform(j, c, config)
        assert rel_close(mse_coarse(j, c, 0, config), uni)
        assert rel_close(mse_coarse(j, c, 1, config), mse_local(j, config))
        total = sum(config.players[i] for i in c)
        row = {i: config.players[i] / total for i in c}
        assert rel_close(mse_fine(j, c, row, config), uni)


def test_singleton_all_schemes_equal_local_exactly():
    config = cfg(9)
    c = Coalition((0,))
    local = mse_local(0, config)
    assert mse_uniform(0, c, config) == local
    assert mse_coarse(0, c, 0.37, config) == local
    assert mse_fine(0, c, {0: 1}, config) == local


# --- fine ------------------------------------------------------------------------


def test_fine_indicator_row_equals_local():
    config = cfg(5, 5)
    c = Coalition((0, 1))
    assert mse_fine(0, c, {0: 1, 1: 0}, config) == mse_local(0, config)


def test_fine_optimal_row_for_large_player():
    # exact optimal row for d in (30,30,30,300); displayed as 0.97744/0.0075188
    config = cfg(30, 30, 30, 300)
    c = Coalition((0, 1, 2, 3))
    row = {3: Fraction(130, 133), 0: Fraction(1, 133), 1: Fraction(1, 133), 2: Fraction(1, 133)}
    value = mse_fine(3, c, row, config)
    assert round(float(value), 5) == 0.03258


def test_fine_rejects_malformed_rows():
    config = cfg(5, 5)
    c = Coalition((0, 1))
    with pytest.raises(ValidationError, match="sums to"):
        mse_fine(0, c, {0: 0.6, 1: 0.5}, config)
    with pytest.raises(ValidationError, match="do not match"):
        mse_fine(0, c, {0: 1.0}, config)
    with pytest.raises(ValidationError, match="must be finite, got nan"):
        mse_fine(0, c, {0: float("nan"), 1: 0.5}, config)


# --- linear regression -------------------------------------------------------------


def test_linreg_singleton_reduces_to_local():
    config = GameConfig((30,), 10, 1, LinRegSpec(3, 1))
    got = coalition_member_mse(0, Coalition((0,)), Uniform(), config)
    assert got == mse_local(0, config)


def test_linreg_uniform_two_players():
    config = GameConfig((30, 30), 10, 1, LinRegSpec(2, 1))
    got = coalition_member_mse(0, Coalition((0, 1)), Uniform(), config)
    want = 10 * (2 * 900 / 3600) * (2 / 27) + (900 + 900) / 3600
    assert rel_close(got, want)
    assert round(got, 4) == 0.8704


def test_linreg_fine_indicator_equals_local():
    config = GameConfig((30, 40), 10, 1, LinRegSpec(2, 1))
    scheme = Fine({0: {0: 1, 1: 0}})
    got = coalition_member_mse(0, Coalition((0, 1)), scheme, config)
    assert got == mse_local(0, config)


def test_linreg_rejects_small_samples():
    with pytest.raises(ValidationError, match="d\\+1"):
        GameConfig((4, 40), 10, 1, LinRegSpec(3, 1))


# --- player_errors ------------------------------------------------------------------


def test_player_errors_reference_tables():
    t1 = player_errors(Partition.grand(3), Uniform(), cfg(5, 5, 5))
    assert all(round(v, 4) == 1.3333 for v in t1.values.values())
    t3 = player_errors(Partition.singletons(3), Uniform(), cfg(25, 25, 25))
    assert list(t3.values.values()) == [0.4, 0.4, 0.4]
    t4 = player_errors(Partition.grand(4), CoarseOptimal(), cfg(30, 30, 30, 300))
    assert round(t4.values[0], 5) == 0.27964
    assert round(t4.values[3], 6) == 0.032581


def test_player_errors_all_non_negative_on_random_inputs():
    rng = random.Random(3)
    for _ in range(200):
        config = random_mean_config(rng, max_players=5)
        m = len(config.players)
        blocks, pool = [], list(range(m))
        rng.shuffle(pool)
        while pool:
            take = rng.randint(1, len(pool))
            blocks.append(pool[:take])
            pool = pool[take:]
        report = player_errors(Partition.from_blocks(blocks), Uniform(), config)
        assert all(v >= 0 for v in report.values.values())
        assert sorted(report.values) == list(range(m))


def test_player_errors_notes_linreg_optimal_approximation():
    config = GameConfig((30, 40), 10, 1, LinRegSpec(2, 1))
    report = player_errors(Partition.grand(2), CoarseOptimal(), config)
    assert report.note == LINREG_OPTIMAL_NOTE
    assert player_errors(Partition.grand(2), Uniform(), config).note is None


def test_player_errors_rejects_mismatched_partition():
    with pytest.raises(ValidationError, match="covers"):
        player_errors(Partition.grand(2), Uniform(), cfg(5, 5, 5))


@pytest.mark.parametrize(
    "config", [None, [5, 5], {"players": (5, 5), "mu_e": 10, "sigma_sq": 1}],
    ids=["None", "list", "dict"],
)
def test_the_error_layer_refuses_a_config_that_is_not_a_game_config(config):
    refused = f"config: must be a GameConfig, got {type(config).__name__}$"
    pair = Coalition((0, 1))
    calls = (
        lambda: player_errors(Partition.grand(2), Uniform(), config),
        lambda: coalition_errors(pair, CoarseOptimal(), config),
        lambda: coalition_errors([0, 1], FineOptimal(), config),
        lambda: coalition_member_mse(0, pair, Uniform(), config),
        lambda: mse_uniform(0, pair, config),
        lambda: mse_local(0, config),
    )
    for call in calls:
        with pytest.raises(ValidationError, match=refused):
            call()


def test_player_errors_refuses_a_partition_that_is_not_a_partition():
    with pytest.raises(ValidationError, match="partition: must be a Partition, got list"):
        player_errors([[0, 1]], Uniform(), cfg(5, 5))


@pytest.mark.parametrize("members", [[0, 0], [1, 0], (0, 2, 1), [2, 2, 2]])
def test_a_member_list_that_repeats_a_player_or_is_not_ascending_is_refused(members):
    # [0, 0] would count player 0's samples twice: 1.5, not 2.0 alone
    config = cfg(5, 5, 25)
    for call in (
        lambda: coalition_errors(members, Uniform(), config),
        lambda: member_formula(members, CoarseOptimal(), config),
    ):
        with pytest.raises(ValidationError, match="distinct and ascending"):
            call()
    assert coalition_errors([0], Uniform(), config) == {0: 2.0}


@pytest.mark.parametrize("members", [[False, True], [0.5, 1], [0, 1.0], ["0"]])
def test_a_member_list_with_an_entry_that_is_not_an_integer_is_refused(members):
    # [False, True] used to answer {False: 1.5, True: 1.5}; [0.5, 1] raised TypeError
    config = cfg(5, 5, 25)
    for call in (
        lambda: coalition_errors(members, Uniform(), config),
        lambda: member_formula(members, CoarseOptimal(), config),
    ):
        with pytest.raises(ValidationError, match="members must be integer player indices"):
            call()


_GAME = TwoSizeGame(5, 25, 2, 1)


@pytest.mark.parametrize(
    "call, refused",
    [
        (lambda: two_size_errors(None, 1, 1, 10, 1, Uniform()), "game: must be a TwoSizeGame"),
        (lambda: two_size_errors(_GAME, 1, 1, "10", 1, Uniform()), "mu_e"),
        (lambda: two_size_errors(_GAME, 1, 1, 10, None, Uniform()), "sigma_sq"),
        (lambda: two_size_errors(_GAME, 1, 1, 0, 1, Uniform()), "mu_e"),
        (lambda: two_size_errors(_GAME, 1.5, 1, 10, 1, Uniform()), "profile"),
        (lambda: two_size_errors(_GAME, 1, 1.0, 10, 1, Uniform()), "profile"),
        (lambda: two_size_errors(_GAME, True, 1, 10, 1, Uniform()), "profile"),
        (lambda: two_size_errors(_GAME, 1, False, 10, 1, Uniform()), "profile"),
        (lambda: coalition_member_mse(0, [0, 1], Uniform(), cfg(5, 5)), "coalition: must be"),
        (lambda: enumerate_partitions("3"), "integer m"),
        (lambda: enumerate_partitions(True), "integer m"),
        (lambda: enumerate_partitions(2.0), "integer m"),
        (lambda: enumerate_coalitions("3"), "integer m"),
        (lambda: enumerate_coalitions(True), "integer m"),
        (lambda: enumerate_coalitions(2.0), "integer m"),
    ],
    ids=[
        "two_size_errors-game-None", "two_size_errors-mu_e-str", "two_size_errors-sigma_sq-None",
        "two_size_errors-mu_e-0", "two_size_errors-small-1.5", "two_size_errors-large-1.0",
        "two_size_errors-small-True", "two_size_errors-large-False",
        "coalition_member_mse-list", "enumerate_partitions-str", "enumerate_partitions-True",
        "enumerate_partitions-2.0", "enumerate_coalitions-str", "enumerate_coalitions-True",
        "enumerate_coalitions-2.0",
    ],
)
def test_ill_typed_arguments_are_refused(call, refused):
    with pytest.raises(ValidationError, match=refused):
        call()


# --- two-size profile errors ----------------------------------------------------------


COUNTEREX_GAME = TwoSizeGame(n_s=11, n_l=106, S=70, L=7)


@pytest.mark.parametrize(
    "profile, role, expected",
    [
        ((70, 3), 0, 1.107322),
        ((70, 0), 0, 1.115584),
        ((70, 3), 1, 0.932690),
        ((0, 1), 1, 0.943396),
        ((70, 4), 1, 0.943664),
        ((68, 4), 0, 1.105263),
        ((68, 4), 1, 0.943147),
    ],
)
def test_two_size_counterexample_values(profile, role, expected):
    got = two_size_errors(COUNTEREX_GAME, *profile, 100, 1, Uniform())[role]
    assert abs(got - expected) <= 1e-6


@st.composite
def two_size_profiles(draw):
    """(game, s, l, mu_e, sigma_sq, scheme): a two-size game of at most 12
    players, a profile that fits inside it, and float or Fraction parameters."""
    S = draw(st.integers(0, 6))
    L = draw(st.integers(0 if S else 1, 6))
    n_s = draw(st.integers(1, 60))
    game = TwoSizeGame(n_s, draw(st.integers(n_s + 1, 200)), S, L)
    s = draw(st.integers(0 if L else 1, S))
    l = draw(st.integers(0 if s else 1, L))
    if draw(st.booleans()):
        mu_e = draw(st.fractions(Fraction(1, 1000), 1000, max_denominator=1000))
        sigma_sq = draw(st.fractions(0, 100, max_denominator=1000))
    else:
        mu_e = draw(st.floats(1e-3, 1e3))
        sigma_sq = draw(st.floats(0.0, 100.0))
    return game, s, l, mu_e, sigma_sq, draw(st.sampled_from([Uniform(), CoarseOptimal()]))


@PROPERTY_SETTINGS
@given(two_size_profiles())
def test_two_size_profiles_match_labeled_evaluation(drawn):
    # a profile's errors are its labelled block's, in value and in type:
    # smalls 0..s-1 and larges S..S+l-1 on the game's labelled config
    game, s, l, mu_e, sigma_sq, scheme = drawn
    block = list(range(s)) + list(range(game.S, game.S + l))
    labelled = coalition_errors(block, scheme, two_size_game_config(game, mu_e, sigma_sq))
    expected = (labelled[0] if s else None, labelled[game.S] if l else None)
    got = two_size_errors(game, s, l, mu_e, sigma_sq, scheme)
    assert got == expected
    assert [type(v) for v in got] == [type(v) for v in expected]


def test_two_size_singleton_and_missing_roles():
    game = TwoSizeGame(5, 25, 1, 1)
    err_s, err_l = two_size_errors(game, 1, 0, 10, 1, Uniform())
    assert err_s == 2.0 and err_l is None
    with pytest.raises(ValidationError):
        two_size_errors(game, 0, 0, 10, 1, Uniform())
    with pytest.raises(ValidationError, match="supports uniform"):
        two_size_errors(game, 1, 1, 10, 1, Local())


def test_coarse_optimal_survives_a_squared_mu_e_overflow():
    # mu_e**2 overflows a float; the closed form is evaluated exactly and
    # rounded once, and agrees with exact arithmetic.
    config = GameConfig((5, 5), 1e155, 1)
    errs = coalition_errors(Coalition((0, 1)), CoarseOptimal(), config)
    exact = coalition_errors(Coalition((0, 1)), CoarseOptimal(), exact_config(config))
    for j in (0, 1):
        assert math.isfinite(errs[j]) and rel_close(errs[j], float(exact[j]))
    assert rel_close(errs[0], 1e154)
    # near the top of the float range too: the exact errors, about 2.82e307
    # and 2.12e307, are floats, so they are answered
    big = GameConfig((5, 5, 7), 1.7e308, 1e308)
    errs = coalition_errors(Coalition((0, 1, 2)), CoarseOptimal(), big)
    exact = coalition_errors(Coalition((0, 1, 2)), CoarseOptimal(), exact_config(big))
    for j in (0, 1, 2):
        assert within_ulps(errs[j], exact[j]), (j, errs[j], exact[j])


@pytest.mark.parametrize("sigma_sq", [1.0, 1e-200])
def test_coarse_optimal_survives_a_count_term_beyond_the_float_range(sigma_sq):
    # B_j is about 10^401, too large for a float; the closed form is
    # evaluated exactly and rounded once, and agrees with exact arithmetic
    # within a few units in the last place.
    config = GameConfig((10**200, 3 * 10**200), 1.0, sigma_sq)
    errs = coalition_errors([0, 1], CoarseOptimal(), config)
    exact = coalition_errors([0, 1], CoarseOptimal(), exact_config(config))
    for j in (0, 1):
        assert within_ulps(errs[j], exact[j]), (j, errs[j], exact[j])
    # mu_e^2 overflows as well, but the exact errors are floats: answered
    big = GameConfig(config.players, 1e200, 1.0)
    errs = coalition_errors([0, 1], CoarseOptimal(), big)
    exact = coalition_errors([0, 1], CoarseOptimal(), exact_config(big))
    for j in (0, 1):
        assert within_ulps(errs[j], exact[j]), (j, errs[j], exact[j])


@pytest.mark.parametrize("scheme", [Uniform(), Coarse({0: 0.5, 1: 0.25})])
def test_linreg_global_variance_survives_a_numerator_overflow(scheme):
    # mu_e*n*n*d overflows a float; the global variance is the exact one,
    # and the errors agree with exact arithmetic.
    config = GameConfig((200, 200), 1e306, 1, LinRegSpec(4, 1))
    errs = coalition_errors(Coalition((0, 1)), scheme, config)
    exact = coalition_errors(Coalition((0, 1)), scheme, exact_config(config))
    for j in (0, 1):
        assert math.isfinite(errs[j]) and rel_close(errs[j], float(exact[j]))
    if isinstance(scheme, Uniform):
        assert rel_close(errs[0], 1e306 * 2 / 195)  # about 1.03e304
    big = GameConfig((6, 6), 1.7e308, 1, LinRegSpec(4, 1))
    with pytest.raises(ValidationError, match="overflows"):
        coalition_errors(Coalition((0, 1)), scheme, big)


@pytest.mark.parametrize(
    "config, scheme, coalition",
    [
        # mu_e*d overflows in the local error and in the coarse member's
        # mu_e*(w*w + ...)*d
        (GameConfig((6, 200), 1e308, 1, LinRegSpec(4, 1)), Coarse({0: 0.9, 1: 1}), (0,)),
        (GameConfig((6, 200), 1e308, 1, LinRegSpec(4, 1)), Coarse({0: 0.9, 1: 1}), (0, 1)),
        (GameConfig((6, 200), 1e308, 1, LinRegSpec(4, 1)), Local(), (0,)),
        # sigma_sq*B_j/N^2 overflows, B_j/N^2 = 20000/10201 for player 0
        (GameConfig((1, 100), 1, 1e308), Uniform(), (0, 1)),
        (GameConfig((1, 100), 1, 1e308), Coarse({0: 0, 1: 0}), (0, 1)),
        # mu_e times a squared row weight overflows
        (GameConfig((1, 1), 1e300, 1), Fine({0: {0: 2.0**52, 1: 1 - 2.0**52}}), (0, 1)),
        # an integer row in an integer config: mu_e*v*v/n is an int division
        # too large for a float
        (GameConfig((1, 1), 1, 1), Fine({0: {0: 2**600, 1: 1 - 2**600}}), (0, 1)),
    ],
)
def test_a_float_member_error_that_overflows_is_refused(config, scheme, coalition):
    with pytest.raises(ValidationError, match="overflow"):
        coalition_member_mse(0, Coalition(coalition), scheme, config)
    partition = Partition.singletons(2) if len(coalition) == 1 else Partition.grand(2)
    with pytest.raises(ValidationError, match="overflow"):
        player_errors(partition, scheme, config)
    if isinstance(scheme, Local):
        with pytest.raises(ValidationError, match="overflow"):
            mse_local(0, config)


def test_a_fine_optimal_error_whose_v_i_overflows_is_answered():
    # V_i = sigma_sq + mu_e/n_i overflows a float, but the exact error,
    # 7.5e307, is a float: the formula is evaluated exactly, rounded once
    config = GameConfig((1, 1), 1e308, 1e308)
    errs = coalition_errors([0, 1], FineOptimal(), config)
    exact = coalition_errors([0, 1], FineOptimal(), exact_config(config))
    for j in (0, 1):
        assert within_ulps(errs[j], exact[j]), (j, errs[j], exact[j])
    assert errs[0] == 7.5e307


BIG_BIAS = GameConfig((3, 3000), 1.0, 1e306)
BIG_LINREG_BIAS = GameConfig((3, 3000), 1.0, 1e306, LinRegSpec(1, 1e306))


@pytest.mark.parametrize(
    "config, scheme",
    [
        # sigma_sq*B_j overflows a float, sigma_sq*B_j/N^2 does not
        (BIG_BIAS, Uniform()),
        (BIG_BIAS, Coarse({0: 0.5, 1: 0.5})),
        (BIG_LINREG_BIAS, Uniform()),
        (BIG_LINREG_BIAS, Coarse({0: 0.5, 1: 0.5})),
        (GameConfig((5, 5), 1, 1e308), Uniform()),
        # ... and times (1-w)**2 = 0 it is NaN: the bias part is 0
        (GameConfig((5, 5), 1, 1e308), Coarse({0: 1, 1: 1})),
        # B_j itself is too large for a float
        (GameConfig((10**200, 3 * 10**200), 1.0, 1.0), Uniform()),
        (GameConfig((10**200, 3 * 10**200), 1.0, 1.0), Coarse({0: 0.5, 1: 0.25})),
    ],
)
def test_a_bias_part_whose_product_overflows_is_evaluated_again(config, scheme):
    # The bias part is evaluated as sigma_sq*B_j*(1-w)^2/N^2; where that is
    # not finite, or B_j (or an exact coefficient times it) is too large
    # for a float, the error is evaluated exactly and rounded once.
    # A float config, and an exact config with the scheme's float weights,
    # give the exact errors within a few units in the last place.
    exact = coalition_errors([0, 1], exact_scheme(scheme), exact_config(config))
    for errs in (
        coalition_errors([0, 1], scheme, config),
        coalition_errors([0, 1], scheme, exact_config(config)),
    ):
        for j in (0, 1):
            expected = float(exact[j])
            assert abs(errs[j] - expected) <= 4 * math.ulp(expected), (j, errs[j], expected)


def test_an_exact_error_beyond_the_float_range_is_reported():
    # finite exact errors beyond the float range: a's local error is
    # mu_e*d/(n-d-1) = 4e308, and float() of it overflows
    config = exact_config(GameConfig((6, 200), 10**308, 1, LinRegSpec(4, 1)))
    alone = player_errors(Partition.singletons(2), Uniform(), config).values
    assert alone[0] == 4 * 10**308 > sys.float_info.max
    assert alone[1] == coalition_member_mse(1, Coalition((1,)), Uniform(), config)


def test_a_two_size_profile_error_that_overflows_is_refused():
    game = TwoSizeGame(n_s=5, n_l=20, S=2, L=1)
    with pytest.raises(ValidationError, match="overflow"):
        two_size_errors(game, 2, 1, 1, 1.7e308, Uniform())
    # sigma_sq*B_j overflows at 1e308, but sigma_sq*B_j/N^2 does not
    exact = two_size_errors(game, 2, 1, Fraction(1), Fraction(1e308), Uniform())
    assert two_size_errors(game, 2, 1, 1, 1e308, Uniform()) == tuple(map(float, exact))
    # below the overflow, every value keeps its bits
    assert two_size_errors(game, 2, 1, 1, 1e300, Uniform()) == (
        1 / 30 + 1e300 * (25 + 400 + 25**2) / 900,
        1 / 30 + 1e300 * (50 + 10**2) / 900,
    )


# --- the overflow rule ------------------------------------------------------------

# mu_e, sigma_sq and the bias coefficient: 10^-300 to 10^300
MAGNITUDES = st.floats(1e-300, 1e300) | st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
BASE_SCHEMES = (Local(), Uniform(), CoarseOptimal(), FineOptimal())


@st.composite
def float_range_games(draw):
    """(config, weights): a float config with 1 to 4 players, counts up to
    10^400, mean estimation or linear regression, and one weight in [0, 1]
    per player, for the coarse scheme and the fine rows."""
    m = draw(st.integers(1, 4))
    d = draw(st.integers(0, 4))  # 0: mean estimation
    low = d + 2 if d else 1
    counts = (
        st.integers(low, 200)
        | st.integers(low, 10**400)
        | st.builds(lambda c, k: max(low, c * 10**k), st.integers(1, 9), st.integers(0, 400))
    )
    players = tuple(draw(st.lists(counts, min_size=m, max_size=m)))
    mu_e, sigma_sq = draw(MAGNITUDES), draw(MAGNITUDES)
    linreg = LinRegSpec(d, draw(MAGNITUDES)) if d else None
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m))
    return GameConfig(players, mu_e, sigma_sq, linreg), weights


def _schemes(coalition, weights):
    """Every scheme, the fine one with a row for each member: its own
    weight, the rest split evenly."""
    k = len(coalition)
    rows = {
        j: {i: weights[j] if i == j else (1 - weights[j]) / (k - 1) for i in coalition}
        if k > 1
        else {j: 1.0}
        for j in coalition
    }
    return BASE_SCHEMES + (Coarse(dict(enumerate(weights))), Fine(rows))


def _float_or_inf(value):
    """float(value), inf where it overflows."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _rounded_or_refused(config, weights):
    # A float error agrees with exact mode within 4 units in the last place
    # wherever the exact error is a float, and a coalition is refused, with
    # ValidationError and nothing else, exactly where a member's exact error
    # rounds to inf or to 0 (no error is 0).  The fine-optimal float form
    # carries more rounding: within (5m + 41)u + 4u of the error by the
    # bound the ``Formula`` docstring derives, so (5m + 46) ulp.  A
    # regression floor never exceeds its error: it is NaN, no bound, where
    # it overflows.
    m = len(config.players)
    for coalition in enumerate_coalitions(m):
        for scheme in _schemes(coalition, weights):
            ulps = 5 * m + 46 if isinstance(scheme, FineOptimal) else 4
            exact = coalition_errors(coalition, exact_scheme(scheme), exact_config(config))
            expected = {j: _float_or_inf(err) for j, err in exact.items()}
            if any(v in (0.0, math.inf) for v in expected.values()):
                with pytest.raises(ValidationError):
                    coalition_errors(coalition, scheme, config)
                continue
            errs = coalition_errors(coalition, scheme, config)
            for j in coalition:
                assert within_ulps(errs[j], exact[j], ulps), (scheme, coalition, j, errs[j])
            floor = scheme_formula(scheme, config).make_floor()
            if floor is not None and not isinstance(scheme, FineOptimal):
                ns = [config.players[i] for i in coalition]
                total, square = sum(ns), sum(n * n for n in ns)
                for j in coalition:
                    least = floor(j, total, square, total - config.players[j])
                    assert not least > errs[j], (scheme, coalition, j, least, errs[j])


@PROPERTY_SETTINGS
@given(float_range_games())
def test_float_errors_are_exact_errors_rounded_or_refused(game):
    _rounded_or_refused(*game)


def test_counts_of_5001_digits_are_rounded_or_refused():
    # outside the property's draws: a Hypothesis report would print the
    # config, and ``repr`` refuses an int of over 4,300 digits
    _rounded_or_refused(GameConfig((10**5000, 3, 10**5000), 1e300, 1e-300), [0.5, 0.0, 1.0])
