import pytest

from fedgame import (
    Coalition,
    Coarse,
    CoarseOptimal,
    DistributionSpec,
    Fine,
    GameConfig,
    LinRegSpec,
    Local,
    TrialPlan,
    Uniform,
    ValidationError,
    empirical_mse_linreg,
    empirical_mse_mean,
    mse_local,
    mse_uniform,
)
from fedgame.montecarlo import agreement_battery, run_case

GAUSSIAN = DistributionSpec()


def test_seed_determinism_bit_identical():
    config = GameConfig((5, 5, 5), 10, 1)
    coalition = Coalition((0, 1, 2))
    plan = TrialPlan(trials=5000, seed=123)
    a = empirical_mse_mean(config, coalition, Uniform(), 0, GAUSSIAN, plan)
    b = empirical_mse_mean(config, coalition, Uniform(), 0, GAUSSIAN, plan)
    assert a == b
    c = empirical_mse_mean(config, coalition, Uniform(), 0, GAUSSIAN, TrialPlan(5000, 124))
    assert c != a


def test_local_singleton_matches_closed_form():
    config = GameConfig((5,), 10, 1)
    plan = TrialPlan(trials=20000, seed=7)
    result = empirical_mse_mean(config, Coalition((0,)), Local(), 0, GAUSSIAN, plan)
    closed = mse_local(0, config)
    assert abs(result.mse - closed) < 3 * result.se


def test_uniform_grand_matches_closed_form_both_families():
    config = GameConfig((5, 5, 5), 10, 1)
    coalition = Coalition((0, 1, 2))
    closed = mse_uniform(0, coalition, config)
    plan = TrialPlan(trials=20000, seed=11)
    for dist in (
        GAUSSIAN,
        DistributionSpec(theta_family="uniform", sample_family="uniform"),
        DistributionSpec(theta_family="lognormal-centered"),
        DistributionSpec(epsilon_rule="gamma"),
    ):
        result = empirical_mse_mean(config, coalition, Uniform(), 0, dist, plan)
        assert abs(result.mse - closed) < 3.5 * result.se, dist


def test_theta_mean_invariance():
    # combination weights sum to 1, so a common shift cancels exactly
    config = GameConfig((5, 5, 25), 10, 1)
    coalition = Coalition((0, 1, 2))
    plan = TrialPlan(trials=20000, seed=13)
    base = empirical_mse_mean(config, coalition, Uniform(), 0, GAUSSIAN, plan)
    shifted = empirical_mse_mean(
        config, coalition, Uniform(), 0, DistributionSpec(theta_mean=50.0), plan
    )
    assert abs(shifted.mse - base.mse) < 3 * base.se


def test_coarse_weighting_matches_closed_form():
    from fedgame import mse_coarse

    config = GameConfig((5, 5, 25), 10, 1)
    coalition = Coalition((0, 1, 2))
    closed = mse_coarse(0, coalition, 0.5, config)
    plan = TrialPlan(trials=20000, seed=17)
    result = empirical_mse_mean(config, coalition, Coarse({0: 0.5}), 0, GAUSSIAN, plan)
    assert abs(result.mse - closed) < 3 * result.se


def test_se_scales_like_inverse_root_trials():
    config = GameConfig((5,), 10, 1)
    coalition = Coalition((0,))
    small = empirical_mse_mean(config, coalition, Local(), 0, GAUSSIAN, TrialPlan(10_000, 3))
    large = empirical_mse_mean(config, coalition, Local(), 0, GAUSSIAN, TrialPlan(1_000_000, 3))
    ratio = small.se / large.se
    assert 5 < ratio < 20  # within a factor of 2 of sqrt(100)


def test_linreg_local_matches_closed_form():
    config = GameConfig((30,), 10, 1, LinRegSpec(3, 1))
    plan = TrialPlan(trials=20000, seed=19)
    result = empirical_mse_linreg(config, Coalition((0,)), Local(), 0, plan)
    closed = 10 * 3 / 26
    assert abs(result.mse - closed) < 3 * result.se
    assert result.resamples == 0


def test_linreg_small_sample_regime_still_exact():
    # n = d + 3 keeps n > d + 1 while stressing the inverse moment
    config = GameConfig((5,), 10, 1, LinRegSpec(2, 1))
    plan = TrialPlan(trials=40000, seed=23)
    result = empirical_mse_linreg(config, Coalition((0,)), Local(), 0, plan)
    closed = 10 * 2 / 2
    assert abs(result.mse - closed) < 3.5 * result.se


def test_linreg_fine_indicator_matches_local_scheme():
    config = GameConfig((30, 40), 10, 1, LinRegSpec(2, 1))
    coalition = Coalition((0, 1))
    plan = TrialPlan(trials=5000, seed=29)
    fine = empirical_mse_linreg(
        config, coalition, Fine({0: {0: 1.0, 1: 0.0}}), 0, plan
    )
    closed = mse_local(0, config)
    assert abs(fine.mse - closed) < 4 * fine.se


def test_optimal_schemes_rejected_until_resolved():
    config = GameConfig((5, 5), 10, 1)
    plan = TrialPlan(trials=10, seed=1)
    with pytest.raises(ValidationError, match="resolve"):
        empirical_mse_mean(config, Coalition((0, 1)), CoarseOptimal(), 0, GAUSSIAN, plan)


def test_distribution_and_plan_validation():
    with pytest.raises(ValidationError):
        DistributionSpec(theta_family="cauchy")
    with pytest.raises(ValidationError):
        DistributionSpec(epsilon_rule="pareto")
    with pytest.raises(ValidationError):
        TrialPlan(trials=0, seed=1)
    with pytest.raises(ValidationError):
        TrialPlan(trials=10, seed=-1)
    for trials, seed in ((2.5, 0), (10, 1.0), (True, 1), (10, True), ("10", 1)):
        with pytest.raises(ValidationError, match="must be integers"):
            TrialPlan(trials, seed)


def test_linreg_coef_variances_validation():
    config = GameConfig((30,), 10, 1, LinRegSpec(2, 1))
    plan = TrialPlan(trials=10, seed=1)
    with pytest.raises(ValidationError, match="coef_variances"):
        empirical_mse_linreg(config, Coalition((0,)), Local(), 0, plan, [0.5])
    with pytest.raises(ValidationError, match="sum"):
        empirical_mse_linreg(config, Coalition((0,)), Local(), 0, plan, [0.9, 0.9])


def test_battery_covers_every_scheme_and_task():
    cases = agreement_battery()
    assert len(cases) == 12
    kinds = {case.kind for case in cases}
    assert kinds == {"mean", "linreg"}
    labels = " ".join(case.label for case in cases)
    for token in ("local", "uniform", "coarse", "fine"):
        assert token in labels
    plan = TrialPlan(trials=4000, seed=31)
    for case in cases[:2]:
        result = run_case(case, plan)
        assert abs(result.mse - case.expected) < 5 * result.se


def test_resample_machinery_via_forced_threshold(monkeypatch):
    import fedgame.montecarlo as mc

    config = GameConfig((6,), 10, 1, LinRegSpec(2, 1))
    plan = TrialPlan(trials=4000, seed=37)
    clean = empirical_mse_linreg(config, Coalition((0,)), Local(), 0, plan)
    assert clean.resamples == 0
    # flag a slice of trials as singular so redraw rounds actually run
    monkeypatch.setattr(mc, "_SINGULAR_RTOL", 0.35)
    redone = mc.empirical_mse_linreg(config, Coalition((0,)), Local(), 0, plan)
    assert redone.resamples > 0
    closed = 10 * 2 / 3
    assert abs(redone.mse - closed) < 5 * redone.se
