import math
import random
import sys
from fractions import Fraction

import pytest

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
    exact_config,
    mse_coarse,
    mse_fine,
    mse_local,
    mse_uniform,
    player_errors,
)
from fedgame.errors import LINREG_OPTIMAL_NOTE, two_size_errors
from oracles import random_coalition, random_mean_config

MEAN_10_1 = dict(mu_e=10, sigma_sq=1)


def cfg(*players, **kw):
    params = dict(MEAN_10_1)
    params.update(kw)
    return GameConfig(tuple(players), **params)


def rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1.0)


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


def test_two_size_profiles_match_labeled_evaluation():
    game = TwoSizeGame(5, 25, 2, 1)
    config = GameConfig((5, 5, 25), 10, 1)
    got_s, got_l = two_size_errors(game, 2, 1, 10, 1, Uniform())
    c = Coalition((0, 1, 2))
    assert rel_close(got_s, mse_uniform(0, c, config))
    assert rel_close(got_l, mse_uniform(2, c, config))


def test_two_size_singleton_and_missing_roles():
    game = TwoSizeGame(5, 25, 1, 1)
    err_s, err_l = two_size_errors(game, 1, 0, 10, 1, Uniform())
    assert err_s == 2.0 and err_l is None
    with pytest.raises(ValidationError):
        two_size_errors(game, 0, 0, 10, 1, Uniform())
    with pytest.raises(ValidationError, match="supports uniform"):
        two_size_errors(game, 1, 1, 10, 1, Local())


def test_coarse_optimal_survives_a_squared_mu_e_overflow():
    # mu_e**2 overflows a float; the closed form is evaluated again with
    # mu_e divided out of both sides, and agrees with exact arithmetic.
    config = GameConfig((5, 5), 1e155, 1)
    errs = coalition_errors(Coalition((0, 1)), CoarseOptimal(), config)
    exact = coalition_errors(Coalition((0, 1)), CoarseOptimal(), exact_config(config))
    for j in (0, 1):
        assert math.isfinite(errs[j]) and rel_close(errs[j], float(exact[j]))
    assert rel_close(errs[0], 1e154)
    big = GameConfig((5, 5, 7), 1.7e308, 1e308)
    with pytest.raises(ValidationError, match="overflows"):
        coalition_errors(Coalition((0, 1, 2)), CoarseOptimal(), big)


@pytest.mark.parametrize("scheme", [Uniform(), Coarse({0: 0.5, 1: 0.25})])
def test_linreg_global_variance_survives_a_numerator_overflow(scheme):
    # mu_e*n*n*d overflows a float; the global variance is summed again
    # with mu_e factored out, and agrees with exact arithmetic.
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
        # sigma_sq*B_j overflows
        (GameConfig((5, 5), 1, 1e308), Uniform(), (0, 1)),
        # ... and times (1-w)**2 = 0 it is NaN, not infinite
        (GameConfig((5, 5), 1, 1e308), Coarse({0: 1, 1: 1}), (0, 1)),
        # V_i = sigma_sq + mu_e/n_i overflows, and the optimal row is NaN
        (GameConfig((1, 1), 1e308, 1e308), FineOptimal(), (0, 1)),
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
        two_size_errors(game, 2, 1, 1, 1e308, Uniform())
    # below the overflow, every value keeps its bits
    assert two_size_errors(game, 2, 1, 1, 1e300, Uniform()) == (
        1 / 30 + 1e300 * (25 + 400 + 25**2) / 900,
        1 / 30 + 1e300 * (50 + 10**2) / 900,
    )
