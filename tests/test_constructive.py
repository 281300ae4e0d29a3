import pytest

from fedgame import (
    Coalition,
    CoarseOptimal,
    GameConfig,
    LinRegSpec,
    Partition,
    TwoSizeGame,
    Uniform,
    ValidationError,
    classify_equal_samples,
    construct_individually_stable_uniform,
    construct_strict_core_coarse,
    find_stable_partitions,
    is_individually_stable,
    is_strict_core_stable,
    optimal_coarse_mse,
    regime_predicates,
    two_size_blocking_search,
    two_size_game_config,
)
from fedgame.constructive import (
    REGIME_ALL_LARGE,
    REGIME_ALL_SMALL,
    REGIME_BOUNDARY,
    REGIME_MIXED,
    ProfilePartition,
)

MEAN = dict(mu_e=10, sigma_sq=1)


def mk_config(*players):
    return GameConfig(tuple(players), **MEAN)


# --- equal-sample classification --------------------------------------------------


def test_classify_below_threshold_grand_unique():
    got = classify_equal_samples(5, 3, mk_config(5, 5, 5), Uniform())
    assert got.regime == REGIME_ALL_SMALL
    assert got.prescriptions[0].partition == Partition.grand(3)
    assert got.prescriptions[0].unique


def test_classify_above_threshold_singletons_unique():
    got = classify_equal_samples(25, 3, mk_config(25, 25, 25), Uniform())
    assert got.regime == REGIME_ALL_LARGE
    assert got.prescriptions[0].partition == Partition.singletons(3)


def test_classify_boundary_every_partition():
    got = classify_equal_samples(10, 3, mk_config(10, 10, 10), Uniform())
    assert got.regime == REGIME_BOUNDARY
    assert got.prescriptions[0].partition is None
    assert got.prescriptions[0].description == "every partition"


def test_classify_coarse_always_grand():
    for n in (3, 10, 25):
        got = classify_equal_samples(n, 3, mk_config(n, n, n), CoarseOptimal())
        assert got.prescriptions[0].partition == Partition.grand(3)
        assert got.prescriptions[0].unique


def test_classification_matches_exhaustive_search():
    for n, scheme in [(5, Uniform()), (25, Uniform()), (5, CoarseOptimal()), (25, CoarseOptimal())]:
        config = mk_config(n, n, n)
        got = classify_equal_samples(n, 3, config, scheme)
        stable = find_stable_partitions(config, scheme, "core")
        assert stable == [got.prescriptions[0].partition]


def test_classification_refuses_a_config_that_is_not_its_population():
    with pytest.raises(ValidationError, match="3 x 5"):
        classify_equal_samples(5, 3, mk_config(25, 25, 25), Uniform())
    with pytest.raises(ValidationError, match="equal-sample"):
        classify_equal_samples(5, 2, mk_config(5, 5, 5), Uniform())
    # 5.0 and True compare equal to the counts 5 and 1, so only a type check
    # refuses them.
    for bad_n, players in ((5.5, (5, 5, 5)), (5.0, (5, 5, 5)), (True, (1, 1, 1))):
        with pytest.raises(ValidationError, match="equal-sample"):
            classify_equal_samples(bad_n, 3, mk_config(*players), CoarseOptimal())
    for config in (None, [5, 5, 5], {"players": (5, 5, 5), "mu_e": 10, "sigma_sq": 1}):
        with pytest.raises(ValidationError, match="config: must be a GameConfig"):
            classify_equal_samples(5, 3, config, Uniform())


# --- constructive individually stable arrangement ----------------------------------


def test_counterexample_population_construction():
    game = TwoSizeGame(11, 106, 70, 7)
    config = two_size_game_config(game, 100, 1)
    built = construct_individually_stable_uniform(game, config)
    assert built.profiles == ((70, 3), (0, 1), (0, 1), (0, 1), (0, 1))


def test_small_large_example_from_motivation():
    game = TwoSizeGame(5, 25, 2, 1)
    config = two_size_game_config(game, 10, 1)
    built = construct_individually_stable_uniform(game, config)
    assert built.profiles == ((2, 0), (0, 1))


def test_no_large_players_keeps_smalls_together():
    game = TwoSizeGame(5, 25, 3, 0)
    config = two_size_game_config(game, 10, 1)
    built = construct_individually_stable_uniform(game, config)
    assert built.profiles == ((3, 0),)


def test_precondition_large_threshold_enforced():
    game = TwoSizeGame(5, 9, 2, 1)
    config = two_size_game_config(game, 10, 1)
    with pytest.raises(ValidationError, match="n_l"):
        construct_individually_stable_uniform(game, config)


def test_constructed_output_is_individually_stable_small_grid():
    for n_s, n_l in [(1, 11), (5, 20), (9, 30)]:
        for S, L in [(1, 1), (2, 2), (3, 1), (2, 3)]:
            game = TwoSizeGame(n_s, n_l, S, L)
            config = two_size_game_config(game, 10, 1)
            built = construct_individually_stable_uniform(game, config)
            verdict = is_individually_stable(built.to_partition(), Uniform(), config)
            assert verdict.stable, (n_s, n_l, S, L, built.profiles)


# --- constructive strict core (optimal coarse) --------------------------------------


def test_strict_core_split_beats_grand_for_reference_population():
    game = TwoSizeGame(30, 300, 3, 1)
    config = two_size_game_config(game, 10, 1)
    built = construct_strict_core_coarse(game, config)
    assert built.profiles == ((3, 0), (0, 1))


def test_strict_core_pair_prefers_grand():
    game = TwoSizeGame(5, 25, 1, 1)
    config = two_size_game_config(game, 10, 1)
    built = construct_strict_core_coarse(game, config)
    assert built.profiles == ((1, 1),)


def test_strict_core_choice_verified_exhaustively():
    game = TwoSizeGame(5, 6, 3, 2)
    config = two_size_game_config(game, 10, 1)
    built = construct_strict_core_coarse(game, config)
    grand = optimal_coarse_mse(0, Coalition(tuple(range(5))), config)
    split = optimal_coarse_mse(0, Coalition((0, 1, 2)), config)
    expected = ((3, 0), (0, 2)) if split < grand else ((3, 2),)
    assert built.profiles == expected
    verdict = is_strict_core_stable(built.to_partition(), CoarseOptimal(), config)
    assert verdict.stable


def test_constructed_strict_core_small_grid():
    for n_s, n_l in [(1, 11), (5, 9), (9, 30), (2, 3)]:
        for S, L in [(1, 1), (2, 2), (3, 1), (1, 3)]:
            game = TwoSizeGame(n_s, n_l, S, L)
            config = two_size_game_config(game, 10, 1)
            built = construct_strict_core_coarse(game, config)
            verdict = is_strict_core_stable(built.to_partition(), CoarseOptimal(), config)
            assert verdict.stable, (n_s, n_l, S, L, built.profiles)


def test_strict_core_requires_both_roles():
    game = TwoSizeGame(5, 25, 3, 0)
    config = two_size_game_config(game, 10, 1)
    with pytest.raises(ValidationError, match="S >= 1 and L >= 1"):
        construct_strict_core_coarse(game, config)


# --- regime predicates ----------------------------------------------------------------


def test_regime_all_above_threshold():
    game = TwoSizeGame(26, 30, 2, 2)
    got = regime_predicates(game, two_size_game_config(game, 10, 1))
    assert got.regime == REGIME_ALL_LARGE
    assert got.prescriptions[0].partition == Partition.singletons(4)
    stable = find_stable_partitions(two_size_game_config(game, 10, 1), Uniform(), "core")
    assert stable == [Partition.singletons(4)]


def test_regime_all_below_threshold_includes_equality():
    for n_s, n_l in [(5, 9), (5, 10)]:
        game = TwoSizeGame(n_s, n_l, 2, 2)
        config = two_size_game_config(game, 10, 1)
        got = regime_predicates(game, config)
        assert got.regime == REGIME_ALL_SMALL
        grand = got.prescriptions[0].partition
        assert grand == Partition.grand(4)
        assert Partition.grand(4) in find_stable_partitions(config, Uniform(), "core")


def test_regime_boundary_flags_larges_alone():
    game = TwoSizeGame(10, 26, 2, 1)
    config = two_size_game_config(game, 10, 1)
    got = regime_predicates(game, config)
    assert got.regime == REGIME_BOUNDARY
    assert "alone" in got.prescriptions[0].description
    # oracle: every core-stable partition keeps the large player alone,
    # and every partition with the large player alone is core stable
    stable = find_stable_partitions(config, Uniform(), "core")
    from fedgame import enumerate_partitions

    with_large_alone = [
        p for p in enumerate_partitions(3) if p.coalition_of(2).members == (2,)
    ]
    assert stable == with_large_alone


def test_regime_mixed_produces_stable_construction():
    game = TwoSizeGame(5, 25, 2, 1)
    config = two_size_game_config(game, 10, 1)
    got = regime_predicates(game, config)
    assert got.regime == REGIME_MIXED
    partition = got.prescriptions[0].partition
    assert is_individually_stable(partition, Uniform(), config).stable


def test_regime_mixed_without_smalls_degenerates_to_singletons():
    game = TwoSizeGame(5, 25, 0, 3)
    config = two_size_game_config(game, 10, 1)
    got = regime_predicates(game, config)
    assert got.regime == REGIME_ALL_LARGE


# --- config checks ---------------------------------------------------------------------


def test_constructions_refuse_a_config_that_is_not_their_game():
    game = TwoSizeGame(11, 106, 70, 7)
    matching = two_size_game_config(game, 100, 1)
    unrelated = GameConfig((3, 4), 100, 1)
    with_linreg = GameConfig(matching.players, 100, 1, LinRegSpec(2, 1))
    for build in (
        construct_individually_stable_uniform,
        construct_strict_core_coarse,
        regime_predicates,
    ):
        build(game, matching)
        with pytest.raises(ValidationError, match="two-size game"):
            build(game, unrelated)
        with pytest.raises(ValidationError, match="linreg"):
            build(game, with_linreg)
        with pytest.raises(ValidationError, match="sigma_sq"):
            build(game, GameConfig(matching.players, 100, float("nan")))
        with pytest.raises(ValidationError, match="config: must be a GameConfig, got NoneType"):
            build(game, None)


# --- profile partitions -----------------------------------------------------------------


def test_profile_partition_expansion_and_validation():
    game = TwoSizeGame(11, 106, 70, 7)
    built = ProfilePartition(game, ((70, 3), (0, 1), (0, 1), (0, 1), (0, 1)))
    labeled = built.to_partition()
    assert labeled.player_count == 77
    assert labeled.coalition_of(0).members == tuple(range(70)) + (70, 71, 72)
    assert labeled.coalition_of(76).members == (76,)
    with pytest.raises(ValidationError, match="cover"):
        ProfilePartition(game, ((70, 3),))
    with pytest.raises(ValidationError, match="malformed"):
        ProfilePartition(game, ((70.9, 3),) + ((0, 1),) * 4)


def test_counterexample_construction_not_core_stable():
    game = TwoSizeGame(11, 106, 70, 7)
    config = two_size_game_config(game, 100, 1)
    built = construct_individually_stable_uniform(game, config)
    blocked = two_size_blocking_search(game, built.profiles, Uniform(), config)
    assert blocked == (68, 4)
