import random
from fractions import Fraction

import numpy as np
import pytest
from scipy import optimize

from fedgame import (
    Coalition,
    FineWeights,
    GameConfig,
    LinRegSpec,
    Uniform,
    ValidationError,
    exact_config,
    mse_coarse,
    mse_fine,
    mse_local,
    mse_uniform,
    optimal_coarse_mse,
    optimal_fine_mse,
    optimal_v,
    optimal_w,
)
from fedgame import weights
from oracles import (
    golden_section_min,
    random_coalition,
    random_mean_config,
    random_simplex_row,
)

T4_CONFIG = GameConfig((30, 30, 30, 300), 10, 1)
T4_GRAND = Coalition((0, 1, 2, 3))
T2_PAIR = Coalition((0, 1))


def rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1.0)


# --- optimal coarse weight -----------------------------------------------------


def test_optimal_w_reference_value():
    # exact value is 123/149; the derivation example displays 0.82551
    w = optimal_w(0, T4_GRAND, T4_CONFIG)
    assert abs(w - 123 / 149) < 1e-12
    assert abs(w - 0.82551) < 1e-5


def test_optimal_w_degenerate_cases():
    assert optimal_w(0, Coalition((0,)), T4_CONFIG) == 1
    zero_bias = GameConfig((5, 9), 10, 0)
    assert optimal_w(0, Coalition((0, 1)), zero_bias) == 0


def test_optimal_w_interior_for_multiplayer_coalitions():
    rng = random.Random(11)
    for _ in range(1000):
        config = random_mean_config(rng, allow_zero_sigma=False)
        c = random_coalition(rng, len(config.players))
        if len(c) < 2:
            continue
        j = rng.choice(c.members)
        w = optimal_w(j, c, config)
        assert 0 < w < 1


def test_optimal_w_matches_golden_section_oracle():
    rng = random.Random(23)
    for _ in range(200):
        config = random_mean_config(rng, allow_zero_sigma=False)
        c = random_coalition(rng, len(config.players))
        if len(c) < 2:
            continue
        j = rng.choice(c.members)
        best = golden_section_min(lambda w: mse_coarse(j, c, w, config), 0.0, 1.0)
        assert abs(optimal_w(j, c, config) - best) < 1e-6


# --- optimal coarse error ------------------------------------------------------


def test_optimal_coarse_mse_reference_values():
    assert round(optimal_coarse_mse(0, T4_GRAND, T4_CONFIG), 5) == 0.27964
    assert round(optimal_coarse_mse(3, T4_GRAND, T4_CONFIG), 6) == 0.032581
    small_trio = Coalition((0, 1, 2))
    assert round(optimal_coarse_mse(0, small_trio, T4_CONFIG), 4) == 0.2778


def test_optimal_coarse_closed_form_matches_plug_in():
    rng = random.Random(5)
    for _ in range(1000):
        config = random_mean_config(rng)
        c = random_coalition(rng, len(config.players))
        j = rng.choice(c.members)
        closed = optimal_coarse_mse(j, c, config)
        plug_in = mse_coarse(j, c, optimal_w(j, c, config), config)
        assert abs(closed - plug_in) <= 1e-10 * max(abs(closed), 1e-30)


def test_federation_beats_local_and_feasible_endpoints():
    rng = random.Random(17)
    for _ in range(1000):
        config = random_mean_config(rng, allow_zero_sigma=False)
        c = random_coalition(rng, len(config.players))
        j = rng.choice(c.members)
        best = optimal_coarse_mse(j, c, config)
        local = mse_local(j, config)
        uniform = mse_uniform(j, c, config)
        assert best <= min(uniform, local) + 1e-12
        if len(c) >= 2:
            assert best < local


def test_coarse_first_order_condition():
    rng = random.Random(29)
    step = 1e-5
    checked = 0
    while checked < 300:
        config = random_mean_config(rng, allow_zero_sigma=False)
        c = random_coalition(rng, len(config.players))
        if len(c) < 2:
            continue
        j = rng.choice(c.members)
        w = optimal_w(j, c, config)
        if not step * 2 < w < 1 - step * 2:
            continue
        deriv = (
            mse_coarse(j, c, w + step, config) - mse_coarse(j, c, w - step, config)
        ) / (2 * step)
        assert abs(deriv) < 1e-6
        checked += 1


# --- optimal fine weights ------------------------------------------------------


def test_optimal_v_reference_rows():
    fw = optimal_v(3, T4_GRAND, T4_CONFIG)
    assert fw.player == 3
    assert abs(fw.row[3] - 0.97744) < 1e-5
    for k in (0, 1, 2):
        assert abs(fw.row[k] - 0.0075188) < 1e-6
    fa = optimal_v(0, T4_GRAND, T4_CONFIG).row
    assert abs(fa[0] - 0.80827) < 1e-5
    assert abs(fa[1] - 0.058271) < 1e-6
    assert abs(fa[2] - 0.058271) < 1e-6
    assert abs(fa[3] - 0.075188) < 1e-6


def test_optimal_v_row_properties():
    rng = random.Random(31)
    for _ in range(500):
        config = random_mean_config(rng)
        c = random_coalition(rng, len(config.players))
        j = rng.choice(c.members)
        row = optimal_v(j, c, config).row
        assert abs(sum(row.values()) - 1) <= 1e-12
        if len(c) >= 2:
            assert all(0 < v < 1 for v in row.values())
        else:
            assert row == {j: 1}


def test_optimal_v_exact_mode_stays_rational():
    config = GameConfig((30, 30, 30, 300), Fraction(10), Fraction(1))
    row = optimal_v(3, T4_GRAND, config).row
    assert row[3] == Fraction(130, 133)
    assert row[0] == Fraction(1, 133)
    assert sum(row.values()) == 1


def test_optimal_v_zero_sigma_well_defined():
    config = GameConfig((5, 9, 2), 10, 0)
    row = optimal_v(0, Coalition((0, 1, 2)), config).row
    assert abs(sum(row.values()) - 1) <= 1e-12
    # zero parameter spread makes pure sample pooling optimal
    total = 5 + 9 + 2
    for i, n in enumerate((5, 9, 2)):
        assert rel_close(row[i], n / total)


def test_optimal_v_beats_scipy_minimizer():
    rng = random.Random(37)
    cases = 0
    while cases < 50:
        config = random_mean_config(rng, max_players=5)
        c = random_coalition(rng, len(config.players))
        if len(c) < 2:
            continue
        j = rng.choice(c.members)
        others = [i for i in c if i != j]

        def objective(x):
            row = dict(zip(others, x))
            row[j] = 1 - sum(x)
            return mse_fine(j, c, row, config)

        start = np.full(len(others), 1.0 / (len(others) + 1))
        result = optimize.minimize(objective, start, method="BFGS")
        ours = optimal_fine_mse(j, c, config)
        assert ours <= result.fun + 1e-9
        assert abs(ours - result.fun) < 1e-6 * max(1.0, result.fun)
        cases += 1


def test_fine_first_order_condition_along_simplex():
    rng = random.Random(41)
    step = 1e-5
    checked = 0
    while checked < 200:
        config = random_mean_config(rng, max_players=5)
        c = random_coalition(rng, len(config.players))
        if len(c) < 2:
            continue
        j = rng.choice(c.members)
        row = optimal_v(j, c, config).row
        for k in c:
            if k == j:
                continue
            up = dict(row)
            up[k] += step
            up[j] -= step
            down = dict(row)
            down[k] -= step
            down[j] += step
            deriv = (mse_fine(j, c, up, config) - mse_fine(j, c, down, config)) / (2 * step)
            assert abs(deriv) < 1e-6
        checked += 1


# --- optimal fine error --------------------------------------------------------


def test_optimal_fine_mse_reference_values():
    assert round(optimal_fine_mse(0, T4_GRAND, T4_CONFIG), 5) == 0.26942
    assert round(optimal_fine_mse(3, T4_GRAND, T4_CONFIG), 5) == 0.03258
    assert rel_close(optimal_fine_mse(0, Coalition((0,)), T4_CONFIG), 1 / 3)


def test_fine_never_worse_than_coarse():
    rng = random.Random(43)
    for _ in range(1000):
        config = random_mean_config(rng)
        c = random_coalition(rng, len(config.players))
        j = rng.choice(c.members)
        assert optimal_fine_mse(j, c, config) <= optimal_coarse_mse(j, c, config) + 1e-12


def test_grand_coalition_optimal_for_fine():
    rng = random.Random(47)
    for _ in range(300):
        config = random_mean_config(rng, max_players=6)
        m = len(config.players)
        j = rng.randrange(m)
        grand = Coalition(tuple(range(m)))
        best = optimal_fine_mse(j, grand, config)
        for mask in range(1, 1 << m):
            if not mask & (1 << j):
                continue
            sub = Coalition.from_mask(mask)
            assert best <= optimal_fine_mse(j, sub, config) + 1e-12


def test_fine_monotone_under_coalition_growth():
    rng = random.Random(53)
    for _ in range(300):
        config = random_mean_config(rng, max_players=6)
        m = len(config.players)
        c = random_coalition(rng, m)
        j = rng.choice(c.members)
        outsiders = [i for i in range(m) if i not in c]
        if not outsiders:
            continue
        grown = Coalition(tuple(c.members + (rng.choice(outsiders),)))
        assert optimal_fine_mse(j, grown, config) <= optimal_fine_mse(j, c, config) + 1e-12


# --- linear-regression substitution ---------------------------------------------


def test_linreg_weights_use_effective_parameters():
    lin = GameConfig((30, 40), 10, 1, LinRegSpec(2, 1))
    # same weights as the mean game with mu_e' = d*mu_e and sigma_sq = bias
    sub = GameConfig((30, 40), 20, 1)
    c = Coalition((0, 1))
    assert optimal_w(0, c, lin) == optimal_w(0, c, sub)
    assert optimal_coarse_mse(0, c, lin) == optimal_coarse_mse(0, c, sub)
    assert optimal_v(0, c, lin).row == optimal_v(0, c, sub).row
    assert optimal_fine_mse(0, c, lin) == optimal_fine_mse(0, c, sub)


def test_linreg_singleton_keeps_exact_local_error():
    lin = GameConfig((30,), 10, 1, LinRegSpec(2, 1))
    assert optimal_coarse_mse(0, Coalition((0,)), lin) == mse_local(0, lin)
    assert optimal_fine_mse(0, Coalition((0,)), lin) == mse_local(0, lin)


def test_membership_checked():
    with pytest.raises(ValidationError):
        optimal_w(3, Coalition((0, 1)), T4_CONFIG)
    with pytest.raises(ValidationError):
        optimal_v(2, Coalition((0, 1)), T4_CONFIG)


def test_the_weights_functions_refuse_a_coalition_or_config_of_the_wrong_type():
    # a member list is not a Coalition: it used to raise AttributeError from
    # optimal_w and optimal_v, and to answer a row from explicit_row
    calls = (
        lambda coalition, config: weights.optimal_w(0, coalition, config),
        lambda coalition, config: weights.optimal_v(0, coalition, config),
        lambda coalition, config: weights.coarse_row(0, coalition, 0.5, config),
        lambda coalition, config: weights.explicit_row(0, coalition, Uniform(), config),
    )
    for call in calls:
        with pytest.raises(ValidationError, match="^coalition: must be a Coalition, got list$"):
            call([0, 1], T4_CONFIG)
        with pytest.raises(ValidationError, match="^config: must be a GameConfig, got NoneType$"):
            call(T4_GRAND, None)


def test_fine_weights_reject_nan_row():
    with pytest.raises(ValidationError, match="sums to nan"):
        FineWeights(player=0, row={0: float("nan"), 1: 0.5})


@pytest.mark.parametrize(
    "config",
    [
        # B_j*sigma_sq*n_j is too large for a float
        GameConfig((10**200, 3 * 10**200), 1.0, 1.0),
        # every count is too large for a float
        GameConfig((10**400, 10**400), 1.0, 1.0),
        # V_i = sigma_sq + mu_e/n_i overflows a float
        GameConfig((1, 2), 1e308, 1e308),
    ],
)
def test_optimal_weights_whose_float_form_overflows_are_answered(config):
    # They used to raise a bare OverflowError, or give a finite but wrong
    # row.  The coarse weight is the exact one rounded to a float once; each
    # fine row entry lies within a few units of roundoff of the exact one.
    exact = exact_config(config)
    for j in (0, 1):
        w = optimal_w(j, T2_PAIR, config)
        assert type(w) is float and w == float(optimal_w(j, T2_PAIR, exact))
        row = optimal_v(j, T2_PAIR, config).row
        exact_row = optimal_v(j, T2_PAIR, exact).row
        assert row.keys() == exact_row.keys()
        for k, v in row.items():
            assert type(v) is float and abs(v - exact_row[k]) <= 2**-51, (j, k, v)


def test_explicit_row_refuses_an_unknown_scheme():
    with pytest.raises(ValidationError, match="^unknown federation scheme 'bogus'$"):
        weights.explicit_row(0, Coalition((0,)), "bogus", T4_CONFIG)
