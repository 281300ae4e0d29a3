import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from fedgame import (
    Coalition,
    Coarse,
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
from fedgame import enumerate_partitions, model, stability
from fedgame.errors import Formula, scheme_formula
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


def test_large_mu_e_coarse_optimal_singletons_are_blocked_by_the_pair():
    # each member gets about 1e299 in {a,b} against 2e299 alone
    config = GameConfig((5, 5), 1e300, 1)
    verdict = is_core_stable(Partition.singletons(2), CoarseOptimal(), config)
    assert not verdict.stable and verdict.witness == Coalition((0, 1))


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize(
    "partition, notion, witness",
    [
        (Partition.singletons(2), "core", Coalition((0, 1))),
        (Partition.singletons(2), "strict", Coalition((0, 1))),
        (Partition.singletons(2), "individual", Deviation(0, Coalition((0, 1)))),
        (Partition.grand(2), "core", None),
        (Partition.grand(2), "individual", None),
    ],
)
def test_large_mu_e_linreg_verdicts_agree_in_both_modes(partition, notion, witness, exact):
    # mu_e*n*n*d overflows a float: each member gets about 1.03e304 in
    # {a,b} against 2.05e304 alone
    config = GameConfig((200, 200), 1e306, 1, LinRegSpec(4, 1))
    verdict = {
        "core": is_core_stable,
        "strict": is_strict_core_stable,
        "individual": is_individually_stable,
    }[notion](partition, Uniform(), config, PreferenceOrder(exact=exact))
    assert (verdict.stable, verdict.witness) == (witness is None, witness)


@pytest.mark.parametrize(
    "notion, witness",
    [
        ("core", None),  # b's error in {a,b} equals b's alone (w = 1)
        ("strict", Coalition((0, 1))),
        ("individual", Deviation(0, Coalition((0, 1)))),
    ],
)
def test_a_float_verdict_on_overflowing_errors_is_refused(notion, witness):
    # mu_e*d overflows in player a's local error and in the coarse member
    # formula, so in floats a seemed to gain nothing in {a,b}.  Exact errors
    # are finite: a gets about 3.3e308 in {a,b} against 4e308 alone.
    config = GameConfig((6, 200), 1e308, 1, LinRegSpec(4, 1))
    scheme = Coarse({0: 0.9, 1: 1})
    verdict = {
        "core": is_core_stable,
        "strict": is_strict_core_stable,
        "individual": is_individually_stable,
    }[notion]
    with pytest.raises(ValidationError, match="overflow"):
        verdict(Partition.singletons(2), scheme, config)
    with pytest.raises(ValidationError, match="overflow"):
        find_stable_partitions(config, scheme, notion)
    exact = verdict(Partition.singletons(2), scheme, config, PreferenceOrder(exact=True))
    assert (exact.stable, exact.witness) == (witness is None, witness)


def test_non_finite_config_refused_before_any_verdict():
    # No verdict or search can be asked about these games: their configs
    # are refused when built.
    with pytest.raises(ValidationError, match="sigma_sq"):
        GameConfig((5, 5, 25), 10.0, float("nan"))
    with pytest.raises(ValidationError, match="sample count True"):
        GameConfig((5, True, 25), 10, 1)


def _formula_seam(monkeypatch):
    """Patch the scans' formula seam, ``stability.scheme_formula``.  Count
    scheme resolutions, coalition builds (their masks) and member
    evaluations per mask.  The counting formula gives every scheme a shared
    term, the coalition's mask beside the scheme's own term, so a build is a
    scan's first member evaluation in a visit to a mask."""
    seam = SimpleNamespace(resolved=0, built=[], evaluated={})

    def resolve(scheme, cfg):
        seam.resolved += 1
        error, shared = scheme_formula(scheme, cfg)

        def counting_shared(members, total):
            mask = sum(1 << j for j in members)
            seam.built.append(mask)
            return mask, None if shared is None else shared(members, total)

        def counted(j, total, square, terms):
            mask, own = terms
            seam.evaluated[mask] = seam.evaluated.get(mask, 0) + 1
            return error(j, total, square, own)

        return Formula(counted, counting_shared)

    monkeypatch.setattr(stability, "scheme_formula", resolve)
    return seam


def test_single_verdict_computes_only_the_masks_it_scans(monkeypatch):
    # {a,b} blocks the singletons (n < mu_e/sigma_sq), so the scan stops at
    # mask 3 and must not have built the whole 2^14 - 1 table.
    m = 14
    config = GameConfig((5,) * m, 10, 1)
    computed = _formula_seam(monkeypatch).built
    verdict = is_core_stable(Partition.singletons(m), Uniform(), config)
    assert not verdict.stable and verdict.witness == Coalition((0, 1))
    assert sorted(computed) == sorted([1 << j for j in range(m)] + [3])


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("notion", ["core", "strict", "individual"])
def test_a_verdict_and_a_stable_set_search_each_resolve_the_scheme_once(
    monkeypatch, notion, exact
):
    config = GameConfig((2, 3, 5, 8, 13), 10, 1)
    prefs = PreferenceOrder(exact=exact)
    verdict = {
        "core": is_core_stable,
        "strict": is_strict_core_stable,
        "individual": is_individually_stable,
    }[notion]
    seam = _formula_seam(monkeypatch)
    verdict(Partition.singletons(5), CoarseOptimal(), config, prefs)
    assert seam.resolved == 1
    seam = _formula_seam(monkeypatch)
    find_stable_partitions(config, CoarseOptimal(), notion, prefs)
    assert seam.resolved == 1 and len(set(seam.built)) == 31


@pytest.mark.parametrize(
    "players, mu_e, scheme, blocks, strict_notion",
    [
        # coarse-optimal grand coalition below the threshold: core stable
        ((2, 3, 4, 5, 6, 7, 8, 9), 100, CoarseOptimal(), [range(8)], False),
        # a strict-core stable partition whose masks fail at members 0..3
        ((2, 3, 5, 8, 13, 21, 34, 55), 10, Uniform(), [range(5), [5], [6], [7]], True),
    ],
)
def test_a_stable_scan_stops_at_each_masks_first_non_gaining_member(
    monkeypatch, players, mu_e, scheme, blocks, strict_notion
):
    config = GameConfig(players, mu_e, 1)
    partition = Partition.from_blocks(blocks)
    prefs = PreferenceOrder()
    gains = prefs.weakly_less if strict_notion else prefs.strictly_less
    current = {}
    for coalition in partition.coalitions:
        current.update(coalition_errors(coalition, scheme, config))
    own = {coalition.mask for coalition in partition.coalitions}
    expected = {}
    for mask in range(1, 1 << len(players)):
        coalition = Coalition.from_mask(mask)
        errs = coalition_errors(coalition, scheme, config)
        fails = [k for k, j in enumerate(coalition.members) if not gains(errs[j], current[j])]
        # the partition's own coalitions are filled whole for `current`
        expected[mask] = len(coalition) if mask in own or not fails else fails[0] + 1

    evaluated = _formula_seam(monkeypatch).evaluated
    verdict = (is_strict_core_stable if strict_notion else is_core_stable)(
        partition, scheme, config, prefs
    )
    assert verdict.stable
    assert evaluated == expected


@pytest.mark.parametrize(
    "players, mu_e, sigma_sq, notion, returned",
    [
        ((2, 3, 5, 8, 13, 21, 34), 10, 1, "core", 3),
        ((2, 3, 5, 8, 13, 21, 34), 10, 1, "individual", 7),
        ((10,) * 7, 100, 10, "strict", 877),  # all ties: every partition
    ],
)
def test_a_stable_set_search_builds_a_partition_only_for_each_result(
    monkeypatch, players, mu_e, sigma_sq, notion, returned
):
    # every Partition is made by Partition._trusted
    built = []
    trusted = Partition._trusted

    def counting(cls, masks, *rest):
        built.append(masks)
        return trusted(masks, *rest)

    monkeypatch.setattr(Partition, "_trusted", classmethod(counting))
    found = find_stable_partitions(GameConfig(players, mu_e, sigma_sq), Uniform(), notion)
    assert len(found) == len(built) == returned


@pytest.mark.parametrize("scheme", [Uniform(), CoarseOptimal()], ids=["uniform", "coarse-optimal"])
def test_a_verdict_builds_no_coalition_but_its_witness(monkeypatch, scheme):
    config = GameConfig((2, 3, 5, 8, 13), 10, 1)
    # built from masks (coalitions not read yet) and from coalitions
    partitions = list(enumerate_partitions(5))
    partitions += [Partition(p.coalitions) for p in enumerate_partitions(5)]
    built = []
    post_init, trusted = Coalition.__post_init__, Coalition._trusted

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    def counting_trusted(cls, mask):
        built.append(mask)
        return trusted(mask)

    monkeypatch.setattr(Coalition, "__post_init__", counting_post_init)
    monkeypatch.setattr(Coalition, "_trusted", classmethod(counting_trusted))
    outcomes = set()
    for partition in partitions:
        for verdict_of in (is_core_stable, is_strict_core_stable, is_individually_stable):
            model._block.cache_clear()  # a coalition read back is built afresh
            built.clear()
            verdict = verdict_of(partition, scheme, config)
            assert len(built) == (0 if verdict.stable else 1)
            outcomes.add(verdict.stable)
    assert outcomes == {True, False}


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


@pytest.mark.parametrize("epsilon", [1e-9, 0, 1e-4, Fraction(1, 10**6)])
@pytest.mark.parametrize("old", [0.0, 1e-300, 0.3, 2.0512820512820514, 7.5e12])
def test_float_bounds_are_the_edges_of_strictly_and_weakly_less(epsilon, old):
    prefs = PreferenceOrder(epsilon=epsilon)
    (lower,), (upper,) = prefs.bounds([old])
    assert lower == old * (1.0 - epsilon) - stability._STRICT_FLOOR
    assert upper == old * (1.0 + epsilon)
    below, above = math.nextafter(lower, -math.inf), math.nextafter(lower, math.inf)
    assert [prefs.strictly_less(new, old) for new in (below, lower, above)] == [True, False, False]
    below, above = math.nextafter(upper, -math.inf), math.nextafter(upper, math.inf)
    assert [prefs.weakly_less(new, old) for new in (below, upper, above)] == [True, True, False]


def test_bounds_of_a_list_are_the_bounds_of_each_value():
    values = [0.1, 3.0, 2.0512820512820514, 0.1]
    for prefs in (PreferenceOrder(), PreferenceOrder(epsilon=1e-3), PreferenceOrder(exact=True)):
        lower, upper = prefs.bounds(values)
        assert (lower, upper) == tuple(
            [prefs.bounds([v])[k][0] for v in values] for k in (0, 1)
        )


def test_exact_bounds_are_the_values_themselves():
    prefs = PreferenceOrder(exact=True)
    values = [Fraction(41, 7), Fraction(1, 3), 0]
    assert prefs.bounds(values) == (values, values)
    old, tiny = Fraction(41, 7), Fraction(1, 10**40)
    assert prefs.strictly_less(old - tiny, old) and not prefs.strictly_less(old, old)
    assert prefs.weakly_less(old, old) and not prefs.weakly_less(old + tiny, old)


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
