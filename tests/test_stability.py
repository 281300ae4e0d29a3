import random
from fractions import Fraction

import pytest

from fedgame import (
    Coalition,
    CoarseOptimal,
    Fine,
    GameConfig,
    LinRegSpec,
    Local,
    Partition,
    TwoSizeGame,
    Uniform,
    ValidationError,
    CapExceededError,
    coalition_errors,
    coalition_member_mse,
    find_stable_partitions,
    is_core_stable,
    is_individually_stable,
    is_strict_core_stable,
    two_size_blocking_search,
    two_size_individually_stable,
    two_size_weak_blocking_search,
)
from fedgame import stability
from fedgame.stability import Deviation, PreferenceOrder
import oracles

T1 = GameConfig((5, 5, 5), 10, 1)
T2 = GameConfig((5, 5, 25), 10, 1)
T3 = GameConfig((25, 25, 25), 10, 1)
COUNTEREX_GAME = TwoSizeGame(n_s=11, n_l=106, S=70, L=7)
COUNTEREX_CONFIG = GameConfig((11,) * 70 + (106,) * 7, 100, 1)


# --- reference verdicts ---------------------------------------------------------


def test_table1_grand_is_core_and_strict_core_stable():
    grand = Partition.grand(3)
    assert is_core_stable(grand, Uniform(), T1).stable
    assert is_strict_core_stable(grand, Uniform(), T1).stable


def test_table3_grand_blocked_by_first_singleton():
    verdict = is_core_stable(Partition.grand(3), Uniform(), T3)
    assert not verdict.stable
    assert verdict.witness == Coalition((0,))


def test_table2_small_pair_blocks():
    verdict = is_core_stable(Partition.from_blocks([[0], [1, 2]]), Uniform(), T2)
    assert not verdict.stable
    assert verdict.witness == Coalition((0, 1))


def test_table2_individual_stability():
    stable = Partition.from_blocks([[0, 1], [2]])
    assert is_individually_stable(stable, Uniform(), T2).stable
    verdict = is_individually_stable(Partition.from_blocks([[0], [1, 2]]), Uniform(), T2)
    assert not verdict.stable
    assert verdict.witness == Deviation(player=1, target=Coalition((0, 1)))


def test_unique_stable_sets_for_reference_tables():
    assert find_stable_partitions(T1, Uniform(), "core") == [Partition.grand(3)]
    assert find_stable_partitions(T3, Uniform(), "core") == [Partition.singletons(3)]
    expected = Partition.from_blocks([[0, 1], [2]])
    assert find_stable_partitions(T2, Uniform(), "core") == [expected]
    assert find_stable_partitions(T2, Uniform(), "individual") == [expected]


def test_boundary_indifference_all_partitions_stable():
    config = GameConfig((10, 10, 10), 10, 1)
    assert len(find_stable_partitions(config, Uniform(), "core")) == 5


def test_boundary_tie_is_also_strict_core_stable():
    # exact ties carry no strict preferrer, so singletons pass both notions
    config = GameConfig((10, 10), 10, 1)
    singles = Partition.singletons(2)
    assert is_core_stable(singles, Uniform(), config).stable
    assert is_strict_core_stable(singles, Uniform(), config).stable


def test_table4_grand_individually_stable_but_not_core():
    config = GameConfig((30, 30, 30, 300), 10, 1)
    grand = Partition.grand(4)
    assert is_individually_stable(grand, CoarseOptimal(), config).stable
    verdict = is_core_stable(grand, CoarseOptimal(), config)
    assert not verdict.stable
    assert verdict.witness == Coalition((0, 1, 2))


def test_singleton_deviation_flag():
    grand = Partition.grand(3)
    verdict = is_individually_stable(grand, Uniform(), T3)
    assert not verdict.stable
    assert verdict.witness.target == Coalition((verdict.witness.player,))
    allowed = is_individually_stable(
        grand, Uniform(), T3, allow_singleton_deviation=False
    )
    assert allowed.stable  # joining is impossible in the grand coalition


def test_fine_scheme_rejected_for_stability():
    with pytest.raises(ValidationError, match="fine-grained rows"):
        is_core_stable(Partition.grand(2), Fine({0: {0: 1, 1: 0}}), GameConfig((5, 5), 10, 1))


def test_player_cap_enforced():
    config = GameConfig((5,) * 21, 10, 1)
    with pytest.raises(CapExceededError):
        is_core_stable(Partition.grand(21), Uniform(), config)
    with pytest.raises(CapExceededError):
        find_stable_partitions(GameConfig((5,) * 14, 10, 1), Uniform(), "core")


def test_non_finite_config_refused_before_any_verdict():
    config = GameConfig((5, 5, 25), 10.0, float("nan"))
    singletons = Partition.singletons(3)
    for verdict in (is_core_stable, is_strict_core_stable, is_individually_stable):
        with pytest.raises(ValidationError, match="sigma_sq"):
            verdict(singletons, Uniform(), config)
    for notion in ("core", "strict", "individual"):
        with pytest.raises(ValidationError, match="sigma_sq"):
            find_stable_partitions(config, Uniform(), notion)
    with pytest.raises(ValidationError, match="sample count True"):
        is_core_stable(singletons, Uniform(), GameConfig((5, True, 25), 10, 1))


def test_single_verdict_computes_only_the_masks_it_scans(monkeypatch):
    # {a,b} blocks the singletons (n < mu_e/sigma_sq), so the scan stops at
    # mask 3 and must not have built the whole 2^14 - 1 table.
    m = 14
    config = GameConfig((5,) * m, 10, 1)
    computed = []

    def counting(members, scheme, cfg):
        computed.append(sum(1 << j for j in members))
        return coalition_errors(members, scheme, cfg)

    monkeypatch.setattr(stability, "coalition_errors", counting)
    verdict = is_core_stable(Partition.singletons(m), Uniform(), config)
    assert not verdict.stable and verdict.witness == Coalition((0, 1))
    assert sorted(computed) == sorted([1 << j for j in range(m)] + [3])


def test_unknown_notion_rejected():
    with pytest.raises(ValidationError, match="notion"):
        find_stable_partitions(T1, Uniform(), "nash")


# --- properties -----------------------------------------------------------------


def _random_instance(rng):
    m = rng.randint(2, 6)
    players = tuple(rng.randint(1, 30) for _ in range(m))
    config = GameConfig(players, rng.uniform(1, 20), rng.uniform(0.05, 2.5))
    blocks, pool = [], list(range(m))
    rng.shuffle(pool)
    while pool:
        take = rng.randint(1, len(pool))
        blocks.append(pool[:take])
        pool = pool[take:]
    scheme = rng.choice([Uniform(), CoarseOptimal(), Local()])
    return config, Partition.from_blocks(blocks), scheme


def test_implication_chain_on_random_instances():
    rng = random.Random(61)
    for _ in range(500):
        config, partition, scheme = _random_instance(rng)
        strict = is_strict_core_stable(partition, scheme, config).stable
        core = is_core_stable(partition, scheme, config).stable
        individual = is_individually_stable(partition, scheme, config).stable
        if strict:
            assert core
        if not individual:
            assert not strict


def test_witnesses_self_verify():
    rng = random.Random(67)
    prefs = PreferenceOrder()
    for _ in range(300):
        config, partition, scheme = _random_instance(rng)
        current = {}
        for c in partition.coalitions:
            for j in c:
                current[j] = coalition_member_mse(j, c, scheme, config)

        verdict = is_core_stable(partition, scheme, config)
        if not verdict.stable:
            c = verdict.witness
            assert all(
                prefs.strictly_less(coalition_member_mse(j, c, scheme, config), current[j])
                for j in c
            )
        verdict = is_strict_core_stable(partition, scheme, config)
        if not verdict.stable:
            c = verdict.witness
            news = {j: coalition_member_mse(j, c, scheme, config) for j in c}
            assert all(prefs.weakly_less(news[j], current[j]) for j in c)
            assert any(prefs.strictly_less(news[j], current[j]) for j in c)
        verdict = is_individually_stable(partition, scheme, config)
        if not verdict.stable:
            dev = verdict.witness
            target = dev.target
            news = {j: coalition_member_mse(j, target, scheme, config) for j in target}
            assert prefs.strictly_less(news[dev.player], current[dev.player])
            for j in target:
                if j != dev.player:
                    assert prefs.weakly_less(news[j], current[j])


def test_exact_and_float_modes_agree_on_random_rational_instances():
    rng = random.Random(71)
    exact_prefs = PreferenceOrder(exact=True)
    for case in range(100):
        m = rng.randint(2, 5)
        if case % 5 == 0:
            sg = Fraction(rng.randint(1, 2))
            anchor = rng.randint(2, 8)
            mu = anchor * sg
            players = tuple(
                anchor if rng.random() < 0.5 else rng.randint(1, 8) for _ in range(m)
            )
        else:
            mu = Fraction(rng.randint(1, 30), rng.choice((1, 2, 3)))
            sg = Fraction(rng.randint(0, 4), rng.choice((1, 2)))
            players = tuple(rng.randint(1, 8) for _ in range(m))
        exact_cfg = GameConfig(players, mu, sg)
        float_cfg = GameConfig(players, float(mu), float(sg))
        if float_cfg.mu_e <= 0:
            continue
        blocks, pool = [], list(range(m))
        rng.shuffle(pool)
        while pool:
            take = rng.randint(1, len(pool))
            blocks.append(pool[:take])
            pool = pool[take:]
        partition = Partition.from_blocks(blocks)
        scheme = rng.choice([Uniform(), CoarseOptimal()])
        for check in (is_core_stable, is_strict_core_stable, is_individually_stable):
            exact_v = check(partition, scheme, exact_cfg, exact_prefs)
            float_v = check(partition, scheme, float_cfg)
            assert exact_v.stable == float_v.stable
            assert exact_v.witness == float_v.witness


# --- preference orders -----------------------------------------------------------


def test_preference_order_refuses_a_bad_epsilon():
    for bad in (float("nan"), float("inf"), -float("inf"), True, "1e-9", None):
        with pytest.raises(ValidationError, match="epsilon"):
            PreferenceOrder(epsilon=bad)
    with pytest.raises(ValidationError, match="non-negative"):
        PreferenceOrder(epsilon=-1e-9)
    assert PreferenceOrder(epsilon=0).strictly_less(1.0, 2.0)
    assert PreferenceOrder(epsilon=Fraction(1, 10**9)).strictly_less(1.0, 2.0)


# --- two-size searches ------------------------------------------------------------


def test_counterexample_blocking_profile_found():
    arrangement = [(70, 3), (0, 1), (0, 1), (0, 1), (0, 1)]
    found = two_size_blocking_search(COUNTEREX_GAME, arrangement, Uniform(), COUNTEREX_CONFIG)
    assert found == (68, 4)


def test_counterexample_smalls_only_arrangement_is_blocked():
    arrangement = [(70, 0)] + [(0, 1)] * 7
    found = two_size_blocking_search(COUNTEREX_GAME, arrangement, Uniform(), COUNTEREX_CONFIG)
    assert found is not None


def test_all_large_singletons_unblocked_above_threshold():
    game = TwoSizeGame(n_s=11, n_l=106, S=0, L=7)
    config = GameConfig((106,) * 7, 100, 1)
    arrangement = [(0, 1)] * 7
    assert two_size_blocking_search(game, arrangement, Uniform(), config) is None


def test_two_size_searches_refuse_a_config_that_is_not_their_game():
    arrangement = [(70, 3), (0, 1), (0, 1), (0, 1), (0, 1)]
    matching = COUNTEREX_CONFIG
    assert two_size_blocking_search(COUNTEREX_GAME, arrangement, Uniform(), matching) == (68, 4)
    with_linreg = GameConfig(matching.players, 100, 1, LinRegSpec(2, 1))
    unrelated = GameConfig((3, 4), 100, 1)
    searches = (
        two_size_blocking_search,
        two_size_weak_blocking_search,
        two_size_individually_stable,
    )
    for search in searches:
        with pytest.raises(ValidationError, match="linreg"):
            search(COUNTEREX_GAME, arrangement, Uniform(), with_linreg)
        with pytest.raises(ValidationError, match="two-size game"):
            search(COUNTEREX_GAME, arrangement, Uniform(), unrelated)


def test_two_size_arrangement_validation():
    with pytest.raises(ValidationError, match="totals"):
        two_size_blocking_search(COUNTEREX_GAME, [(70, 3)], Uniform(), COUNTEREX_CONFIG)
    with pytest.raises(ValidationError, match="malformed"):
        two_size_blocking_search(
            COUNTEREX_GAME, [(70, 7), (0, 0)], Uniform(), COUNTEREX_CONFIG
        )
    # counts must be integers: fractional parts that sum to the totals, or a
    # bool standing in for 1, are refused by every search
    fractional = ((68.5, 3), (1.5, 0)) + ((0, 1),) * 4
    with_bool = ((69, 3), (True, 0)) + ((0, 1),) * 4
    searches = (
        two_size_blocking_search,
        two_size_weak_blocking_search,
        two_size_individually_stable,
    )
    for search in searches:
        for arrangement in (fractional, with_bool):
            with pytest.raises(ValidationError, match="malformed"):
                search(COUNTEREX_GAME, arrangement, Uniform(), COUNTEREX_CONFIG)


def test_two_size_individual_stability_matches_labeled_check():
    game = TwoSizeGame(5, 25, 2, 1)
    config = GameConfig((5, 5, 25), 10, 1)
    stable_profiles = ((2, 0), (0, 1))
    assert two_size_individually_stable(game, stable_profiles, Uniform(), config) is None
    unstable = ((1, 1), (1, 0))
    deviation = two_size_individually_stable(game, unstable, Uniform(), config)
    assert deviation is not None


def test_two_size_weak_blocking_detects_grand_pull():
    # at the small-player tie the grand coalition weakly blocks the split
    game = TwoSizeGame(5, 25, 2, 1)
    config = GameConfig((5, 5, 25), 10, 1)
    split = ((2, 0), (0, 1))
    weak = two_size_weak_blocking_search(game, split, CoarseOptimal(), config)
    strictly = two_size_blocking_search(game, split, CoarseOptimal(), config)
    got_strict = is_strict_core_stable(
        Partition.from_blocks([[0, 1], [2]]), CoarseOptimal(), config
    ).stable
    assert (weak is None) == got_strict
    if strictly is not None:
        assert weak is not None


# --- two-size monotonicity grids (stability invariants) -----------------------------


SMALL_LE_THRESHOLD = [(1, 5, 10, 1), (5, 30, 10, 1), (10, 12, 10, 1), (9, 11, 10, 1), (2, 4, 8, 2)]
LARGE_GE_THRESHOLD = [(1, 11, 10, 1), (5, 15, 10, 1), (9, 10, 10, 1), (2, 20, 10, 1), (5, 10, 10, 1)]
LARGE_LE_THRESHOLD = [(1, 5, 10, 1), (5, 10, 10, 1), (2, 9, 10, 1), (4, 8, 16, 2), (1, 2, 30, 1)]
MIXED_REGIME = [(5, 15, 10, 1), (10, 11, 10, 1), (1, 30, 10, 1), (9, 12, 10, 1), (2, 10, 10, 1)]
# the "not both prefer" proof needs n_s strictly below the threshold: at
# n_s = mu/sg exactly, (10,11,10,1) admits a real counterexample
STRICT_MIXED = [(5, 15, 10, 1), (9, 12, 10, 1), (1, 30, 10, 1), (2, 10, 10, 1), (9, 10, 10, 1)]
ANY_REGIME = [(1, 5, 10, 1), (5, 30, 10, 1), (9, 11, 10, 1), (25, 40, 10, 1), (2, 3, 100, 1)]


def test_grid_small_players_prefer_more_smalls():
    for params in SMALL_LE_THRESHOLD:
        assert oracles.check_small_prefers_smalls(*params) == []


def test_grid_large_players_dislike_more_larges():
    for params in LARGE_GE_THRESHOLD:
        assert oracles.check_large_dislikes_larges(*params) == []


def test_grid_small_players_prefer_larges_below_threshold():
    for params in LARGE_LE_THRESHOLD:
        assert oracles.check_small_prefers_larges(*params) == []


def test_grid_large_error_unimodal_in_smalls():
    for params in MIXED_REGIME:
        assert oracles.check_large_unimodal_in_smalls(*params) == []


def test_grid_never_both_prefer_smaller_block():
    for params in STRICT_MIXED:
        assert oracles.check_not_both_prefer_smaller_block(*params) == []


def test_grid_coarse_analogues():
    for params in ANY_REGIME:
        assert oracles.check_small_prefers_smalls(*params, scheme=CoarseOptimal()) == []
        assert oracles.check_large_likes_smalls_coarse(*params) == []


def test_find_stable_partitions_strict_notion():
    # every player strictly minimizes in the grand coalition, so any other
    # partition is weakly blocked by it
    assert find_stable_partitions(T1, Uniform(), "strict") == [Partition.grand(3)]


def test_profile_searches_match_labeled_checks():
    # count-symmetric searches must agree with the labeled exhaustive
    # verdicts on every two-size arrangement at desk scale
    import random as _random

    from fedgame import two_size_game_config
    from fedgame.constructive import ProfilePartition

    rng = _random.Random(97)

    def partitions_of_counts(S, L):
        # all multisets of profiles covering (S, L): enumerate labeled
        # partitions of the small+large index set and project to counts
        from fedgame import enumerate_partitions

        seen = set()
        for p in enumerate_partitions(S + L):
            profiles = tuple(
                sorted(
                    (sum(1 for j in c if j < S), sum(1 for j in c if j >= S))
                    for c in p.coalitions
                )
            )
            seen.add(profiles)
        return sorted(seen)

    cases = 0
    for n_s, n_l, mu, sg in [(5, 25, 10, 1), (2, 3, 10, 1), (11, 106, 100, 1), (9, 11, 10, 1)]:
        for S, L in [(2, 1), (1, 2), (3, 2), (2, 3)]:
            game = TwoSizeGame(n_s, n_l, S, L)
            config = two_size_game_config(game, mu, sg)
            arrangements = partitions_of_counts(S, L)
            rng.shuffle(arrangements)
            for profiles in arrangements[:6]:
                labeled = ProfilePartition(game, tuple(profiles)).to_partition()
                for scheme in (Uniform(), CoarseOptimal()):
                    blocked = two_size_blocking_search(game, profiles, scheme, config)
                    core = is_core_stable(labeled, scheme, config).stable
                    assert (blocked is None) == core, (n_s, n_l, profiles, scheme)
                    weak = two_size_weak_blocking_search(game, profiles, scheme, config)
                    strict = is_strict_core_stable(labeled, scheme, config).stable
                    assert (weak is None) == strict, (n_s, n_l, profiles, scheme)
                    deviation = two_size_individually_stable(game, profiles, scheme, config)
                    individual = is_individually_stable(labeled, scheme, config).stable
                    assert (deviation is None) == individual, (n_s, n_l, profiles, scheme)
                    cases += 1
    assert cases >= 150
