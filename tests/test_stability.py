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
    FineOptimal,
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
    exact_config,
    exact_scheme,
    find_stable_partitions,
    is_core_stable,
    is_individually_stable,
    is_strict_core_stable,
    two_size_blocking_search,
    two_size_individually_stable,
    two_size_weak_blocking_search,
)
from fedgame import constructive, enumerate_partitions, errors, model, stability
from fedgame.errors import Formula, _no_floor, _sample_sums, scheme_formula
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


VERDICTS = (is_core_stable, is_strict_core_stable, is_individually_stable)


@pytest.mark.parametrize("verdict", VERDICTS)
def test_verdicts_refuse_ill_typed_arguments(verdict):
    grand = Partition.grand(3)
    with pytest.raises(ValidationError, match="partition: must be a Partition, got list"):
        verdict([[0, 1, 2]], Uniform(), T1)
    for prefs in (None, "exact", False):
        with pytest.raises(ValidationError, match="prefs: must be a PreferenceOrder"):
            verdict(grand, Uniform(), T1, prefs)


def test_individual_stability_refuses_a_flag_that_is_not_a_bool():
    for flag in ("no", 0, None):
        with pytest.raises(ValidationError, match="allow_singleton_deviation: must be a bool"):
            is_individually_stable(Partition.grand(3), Uniform(), T3, PreferenceOrder(), flag)


def test_stable_set_search_refuses_prefs_that_are_not_a_preference_order():
    for prefs in (None, "exact", True):
        with pytest.raises(ValidationError, match="prefs: must be a PreferenceOrder"):
            find_stable_partitions(T1, Uniform(), "core", prefs)


@pytest.mark.parametrize(
    "config", [None, [5, 5], {"players": (5, 5), "mu_e": 10, "sigma_sq": 1}],
    ids=["None", "list", "dict"],
)
def test_verdicts_and_the_search_refuse_a_config_that_is_not_a_game_config(
    monkeypatch, config
):
    refused = f"config: must be a GameConfig, got {type(config).__name__}$"
    seam = _formula_seam(monkeypatch)
    for verdict in VERDICTS:
        with pytest.raises(ValidationError, match=refused):
            verdict(Partition.grand(2), Uniform(), config)
    with pytest.raises(ValidationError, match=refused):
        find_stable_partitions(config, Uniform(), "core")
    # refused before the scheme is resolved, so before any mask is built
    assert seam.resolved == 0 and seam.built == []


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


@pytest.mark.parametrize("scheme", [Uniform(), Coarse({0: 0.5, 1: 0.5})], ids=["uniform", "coarse"])
@pytest.mark.parametrize("linreg", [None, LinRegSpec(1, 1e306)], ids=["mean", "regression"])
def test_verdicts_whose_bias_product_overflows_agree_in_both_modes(scheme, linreg):
    # sigma_sq*B_j overflows a float in {a,b}, though a's error there is
    # about 2e306 (5e305 coarse), against 1/3 (1) alone: every verdict on
    # the singletons is stable, and they are the one core-stable partition,
    # in both modes.
    config = GameConfig((3, 3000), 1.0, 1e306, linreg)
    answers = []
    for prefs in (PreferenceOrder(), PreferenceOrder(exact=True)):
        verdicts = [verdict(Partition.singletons(2), scheme, config, prefs) for verdict in VERDICTS]
        answers.append(
            (
                [(verdict.stable, verdict.witness) for verdict in verdicts],
                find_stable_partitions(config, scheme, "core", prefs),
            )
        )
    assert answers[0] == answers[1] == ([(True, None)] * 3, [Partition.singletons(2)])


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
    scan's first member evaluation in a visit to a mask.  The scheme's
    ``make_floor``, ``addends``, ``floor_is_error`` and ``alone`` are passed
    on as they are: a read of ``alone`` is neither a build nor an
    evaluation."""
    seam = SimpleNamespace(resolved=0, built=[], evaluated={})

    def resolve(scheme, cfg):
        seam.resolved += 1
        error, shared, make_floor, addends, floor_is_error, alone = scheme_formula(scheme, cfg)

        def counting_shared(members, total):
            mask = sum(1 << j for j in members)
            seam.built.append(mask)
            return mask, None if shared is None else shared(members, total)

        def counted(j, total, square, terms):
            mask, own = terms
            seam.evaluated[mask] = seam.evaluated.get(mask, 0) + 1
            return error(j, total, square, own)

        return Formula(counted, counting_shared, make_floor, addends, floor_is_error, alone)

    monkeypatch.setattr(stability, "scheme_formula", resolve)
    return seam


def test_single_verdict_computes_only_the_masks_it_scans(monkeypatch):
    # {a,b} blocks the singletons (n < mu_e/sigma_sq), and player 0 gains by
    # joining player 1, so the scan stops at mask 3 and must not have built
    # the whole 2^14 - 1 table.  In the grand coalition no player can join
    # another block, and no player gains alone: the individual scan builds
    # the grand mask once.  A player's error alone, as a one-player block
    # or in a stay-alone check, is read from ``Formula.alone``: no
    # one-player mask is built.
    m = 14
    config = GameConfig((5,) * m, 10, 1)
    for verdict_of, partition, witness, visited in (
        (is_core_stable, Partition.singletons(m), Coalition((0, 1)), 3),
        (is_individually_stable, Partition.singletons(m), Deviation(0, Coalition((0, 1))), 3),
        (is_individually_stable, Partition.grand(m), None, (1 << m) - 1),
    ):
        computed = _formula_seam(monkeypatch).built
        verdict = verdict_of(partition, Uniform(), config)
        assert (verdict.stable, verdict.witness) == (witness is None, witness)
        assert computed == [visited]


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


def test_the_fine_optimal_floor_is_built_only_for_a_scan_that_asks(monkeypatch):
    # ``Formula.make_floor`` builds the float fine-optimal floor, and with it
    # ``_fine_floor_scale``: the error layer, the individual verdict and the
    # float stable-set search never ask for it; a core verdict does, once.
    built = []
    scale = errors._fine_floor_scale
    monkeypatch.setattr(
        errors, "_fine_floor_scale", lambda *args: built.append(args) or scale(*args)
    )
    config = GameConfig((2, 3, 5, 8, 13), 10, 1)
    coalition_errors([0, 1, 2], FineOptimal(), config)
    coalition_member_mse(0, Coalition((0, 1)), FineOptimal(), config)
    errors.player_errors(Partition.grand(5), FineOptimal(), config)
    is_individually_stable(Partition.grand(5), FineOptimal(), config)
    find_stable_partitions(config, FineOptimal(), "core")
    assert built == []
    assert is_core_stable(Partition.grand(5), FineOptimal(), config).stable
    assert len(built) == 1


VERDICTS = [is_core_stable, is_strict_core_stable, is_individually_stable]


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("verdict_of", VERDICTS)
@pytest.mark.parametrize(
    "blocks, weights, player",
    [
        # {a,b} blocks the singletons, and a gains by joining b; c has no weight
        ([[0], [1], [2], [3]], {0: 0.5, 1: 0.5}, 2),
        # each block in its turn: {a} before {b,c}, and {a,b} before {c}
        ([[0], [1, 2], [3]], {2: 0.5, 3: 0.5}, 0),
        ([[0, 1], [2], [3]], {1: 0.5, 3: 0.5}, 0),
    ],
)
def test_a_verdict_refuses_a_coarse_scheme_without_a_players_weight(
    verdict_of, exact, blocks, weights, player
):
    # A verdict takes its partition's current errors up front, block by
    # block, so it refuses before its scan could find a witness, with the
    # refusal of the first block the error layer refuses.  With every
    # weight given, each partition is answered, the singletons blocked by
    # {a,b}.
    config = GameConfig((3, 4, 50, 60), 10.0, 1.0)
    prefs = PreferenceOrder(exact=exact)
    partition = Partition.from_blocks(blocks)
    weighted = verdict_of(partition, Coarse(dict.fromkeys(range(4), 0.5)), config, prefs)
    if len(blocks) == 4:
        pair = Coalition((0, 1))
        individual = verdict_of is is_individually_stable
        assert weighted.witness == (Deviation(0, pair) if individual else pair)
    with pytest.raises(ValidationError) as refused:
        verdict_of(partition, Coarse(weights), config, prefs)
    assert str(refused.value) == f"coarse scheme has no weight for player {player}"


@pytest.mark.parametrize("verdict_of", VERDICTS)
def test_a_verdict_refuses_a_one_player_block_whose_local_error_overflows(verdict_of):
    # mu_e*d = 4e308 overflows a float, and so does each player's local
    # error mu_e*d/(n-d-1): the float verdict refuses a, alone, as the
    # error layer does; the exact one answers.
    config = GameConfig((6, 200), 1e308, 1, LinRegSpec(4, 1))
    with pytest.raises(ValidationError) as alone:
        coalition_errors([0], Uniform(), config)
    with pytest.raises(ValidationError) as refused:
        verdict_of(Partition.singletons(2), Uniform(), config)
    assert str(refused.value) == str(alone.value)
    assert "overflows the float range" in str(alone.value)
    exact = verdict_of(Partition.singletons(2), Uniform(), config, PreferenceOrder(exact=True))
    assert exact.comparisons_mode == stability.EXACT_MODE


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("verdict_of", VERDICTS)
def test_a_coarse_optimal_verdict_answers_where_a_count_term_is_beyond_the_float_range(
    verdict_of, exact
):
    # B_j is about 10^401, too large for a float: the optimal-coarse form is
    # evaluated exactly and rounded once.  With
    # sigma_sq = 1e-200 each player gains about a third in {a,b}, in both
    # modes.  With sigma_sq = 1, a's gain is about 5e-201 of their error:
    # the exact verdict finds {a,b}, and in float mode it lies inside the
    # epsilon band, so the float verdict is the stable one.
    prefs = PreferenceOrder(exact=exact)
    pair = Coalition((0, 1))
    witness = Deviation(0, pair) if verdict_of is is_individually_stable else pair
    for sigma_sq, blocked in ((1e-200, True), (1.0, exact)):
        config = GameConfig((10**200, 3 * 10**200), 1.0, sigma_sq)
        verdict = verdict_of(Partition.singletons(2), CoarseOptimal(), config, prefs)
        assert (verdict.stable, verdict.witness) == (not blocked, witness if blocked else None)


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
        if mask not in own:
            expected[mask] = fails[0] + 1 if fails else len(coalition)
        elif len(coalition) > 1:
            # filled whole for `current`; a one-player block's error is read
            # from ``Formula.alone``, not evaluated
            expected[mask] = len(coalition)

    evaluated = _formula_seam(monkeypatch).evaluated
    verdict = (is_strict_core_stable if strict_notion else is_core_stable)(
        partition, scheme, config, prefs
    )
    assert verdict.stable
    assert evaluated == expected


# eight large players, d = 2: the singletons are strict-core stable under
# uniform federation and under coarse federation with weight 1/8
REGRESSION = GameConfig((101, 113, 127, 139, 151, 167, 181, 197), 20, 0.625, LinRegSpec(2, 0.625))


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("strict_notion", [False, True])
@pytest.mark.parametrize(
    "scheme", [Uniform(), Coarse(dict.fromkeys(range(8), 0.125))], ids=["uniform", "coarse"]
)
def test_a_stable_regression_scan_takes_the_global_variance_only_where_the_floor_does_not_settle(
    monkeypatch, scheme, strict_notion, exact
):
    # A single verdict's scan asks each mask's lowest member first.  The
    # shared term is taken for a mask exactly when that member's floor does
    # not settle them: in 3 (uniform) or 30 (coarse) of the 247 masks that
    # are not the partition's own blocks.  The own blocks' errors, the
    # bounds, are the players' errors alone, read from ``Formula.alone``.
    m = len(REGRESSION.players)
    prefs = PreferenceOrder(exact=exact)
    config, layer_scheme = REGRESSION, scheme
    if exact:
        config, layer_scheme = exact_config(config), exact_scheme(scheme)
    floor = scheme_formula(layer_scheme, config).make_floor()
    lower, upper = prefs.bounds(
        [coalition_errors([j], layer_scheme, config)[j] for j in range(m)]
    )
    own = [1 << j for j in range(m)]
    unsettled = []
    for mask in range(1, 1 << m):
        members = Coalition.from_mask(mask).members
        j = members[0]
        total, square = _sample_sums(members, config.players)
        least = floor(j, total, square, total - config.players[j])
        settled = least >= lower[j] and not (strict_notion and least <= upper[j])
        if mask not in own and not settled:
            unsettled.append(mask)
    assert 0 < len(unsettled) < (1 << m) / 8
    partition = Partition.singletons(m)
    seam = _formula_seam(monkeypatch)
    verdict = (is_strict_core_stable if strict_notion else is_core_stable)(
        partition, scheme, REGRESSION, prefs
    )
    assert (verdict.stable, verdict.witness) == (True, None)
    assert sorted(seam.built) == unsettled


@pytest.mark.parametrize("strict_notion", [False, True])
def test_a_member_whose_floor_is_just_inside_its_bound_is_evaluated(monkeypatch, strict_notion):
    # mu_e is so small against the bias that player 0's variance part in
    # {0, 1} is about 1e-14 of their error.  Against a current error 1e-6
    # above that error, the floor lies just below the strict bound; against
    # a current error equal to the floor, inside the epsilon band of a weak
    # gain.  Player 0 gains strictly, or weakly, player 1 (at 1.5 times
    # their error) strictly, and {0, 1} blocks the singletons.  Settling
    # player 0 by the floor would miss it.
    config = GameConfig((50, 80), 1e-12, 1.0, LinRegSpec(2, 1.0))
    prefs = PreferenceOrder()
    error, shared, make_floor = scheme_formula(Uniform(), config)[:3]
    floor = make_floor()
    total, square = _sample_sums((0, 1), config.players)
    terms = shared((0, 1), total)
    least = floor(0, total, square, total - config.players[0])
    near = least if strict_notion else error(0, total, square, terms) * (1 + 1e-6)
    current = [near, error(1, total, square, terms) * 3 / 2]
    lower, upper = prefs.bounds(current)
    if strict_notion:
        assert lower[0] <= least <= upper[0]
    else:
        assert 0.999 * lower[0] < least < lower[0]
    found = []
    for formula in (
        scheme_formula,
        lambda *args: scheme_formula(*args)._replace(make_floor=_no_floor),
    ):
        # the single verdict's scan: the stable-set search asks no floor
        monkeypatch.setattr(stability, "scheme_formula", formula)
        table = stability._ErrorTable(config, Uniform(), prefs)
        table.current_errors = lambda masks: current
        found.append(stability._single_blocking_coalition((1, 2), 2, table, prefs, strict_notion))
    assert found == [3, 3]


# ten players below the threshold mu_e/sigma_sq = 100: the fine-optimal
# grand coalition is strict-core stable
FINE_GRAND = GameConfig((2, 3, 5, 8, 13, 21, 34, 55, 89, 97), 100, 1)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("strict_notion", [False, True])
def test_a_stable_fine_optimal_grand_scan_evaluates_only_where_the_floor_does_not_settle(
    monkeypatch, strict_notion, exact
):
    # A scan asks each mask's lowest member first.  ``error`` is evaluated,
    # and the member list taken, for the grand coalition (the bounds) and,
    # in float mode, for exactly the masks whose lowest member the floor
    # does not settle: none here, for a member's fine-optimal error falls
    # with each member added.  In exact mode the floor is the error, and
    # the scan takes it as one.
    m = len(FINE_GRAND.players)
    prefs = PreferenceOrder(exact=exact)
    config = exact_config(FINE_GRAND) if exact else FINE_GRAND
    _, _, make_floor, addends, floor_is_error, _ = scheme_formula(FineOptimal(), config)
    floor = make_floor()
    assert floor_is_error == exact
    grand = (1 << m) - 1
    current = coalition_errors(list(range(m)), FineOptimal(), config)
    lower, upper = prefs.bounds([current[j] for j in range(m)])
    unsettled = []
    for mask in range(1, grand):
        j, *others = Coalition.from_mask(mask).members
        total, square = _sample_sums([j, *others], config.players)
        rest = 0
        for i in others:
            rest += addends[i]
        least = floor(j, total, square, rest)
        if not (least >= lower[j] and not (strict_notion and least <= upper[j])):
            unsettled.append(mask)
    assert unsettled == []
    partition = Partition.grand(m)
    seam = _formula_seam(monkeypatch)
    verdict = (is_strict_core_stable if strict_notion else is_core_stable)(
        partition, FineOptimal(), FINE_GRAND, prefs
    )
    assert (verdict.stable, verdict.witness) == (True, None)
    assert sorted(seam.built) == sorted(seam.evaluated) == [grand, *unsettled]


@pytest.mark.parametrize("strict_notion", [False, True])
def test_an_exact_fine_optimal_scan_takes_the_floor_as_the_error(monkeypatch, strict_notion):
    # In exact mode the fine-optimal floor is the error, so a single
    # verdict's scan evaluates no member, not even the members of the
    # witness {a,b} who gain; the singletons' own errors are read from
    # ``Formula.alone``.
    config = GameConfig((5, 5, 25), 10, 1)
    prefs = PreferenceOrder(exact=True)
    partition = Partition.singletons(3)
    seam = _formula_seam(monkeypatch)
    verdict = (is_strict_core_stable if strict_notion else is_core_stable)(
        partition, FineOptimal(), config, prefs
    )
    assert (verdict.stable, verdict.witness) == (False, Coalition((0, 1)))
    assert seam.evaluated == {}


@pytest.mark.parametrize("strict_notion", [False, True])
def test_a_fine_optimal_member_whose_floor_is_just_inside_its_bound_is_evaluated(
    monkeypatch, strict_notion
):
    # The float floor lies a few units in the last place below the error.
    # Against a current error 1e-6 above that error, the floor lies just
    # below the strict bound; against a current error equal to the floor,
    # inside the epsilon band of a weak gain.  Player 0 gains strictly, or
    # weakly, player 1 (at 1.5 times their error) strictly, and {0, 1}
    # blocks the singletons.  Settling player 0 by the floor would miss it.
    config = GameConfig((50, 80), 10.0, 1.0)
    prefs = PreferenceOrder()
    error, shared, make_floor, addends = scheme_formula(FineOptimal(), config)[:4]
    floor = make_floor()
    total, square = _sample_sums((0, 1), config.players)
    terms = shared((0, 1), total)
    least = floor(0, total, square, addends[1])
    near = least if strict_notion else error(0, total, square, terms) * (1 + 1e-6)
    current = [near, error(1, total, square, terms) * 3 / 2]
    lower, upper = prefs.bounds(current)
    if strict_notion:
        assert lower[0] <= least <= upper[0]
    else:
        assert 0.999 * lower[0] < least < lower[0]
    found = []
    for formula in (
        scheme_formula,
        lambda *args: scheme_formula(*args)._replace(make_floor=_no_floor),
    ):
        # the single verdict's scan: the stable-set search has no float
        # fine-optimal floor
        monkeypatch.setattr(stability, "scheme_formula", formula)
        table = stability._ErrorTable(config, FineOptimal(), prefs)
        table.current_errors = lambda masks: current
        found.append(stability._single_blocking_coalition((1, 2), 2, table, prefs, strict_notion))
    assert found == [3, 3]


@pytest.mark.parametrize("notion", ["core", "strict", "individual"])
@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize(
    "config, scheme",
    [
        (GameConfig(REGRESSION.players[:5], 20, 0.625, LinRegSpec(2, 0.625)), Uniform()),
        (GameConfig((2, 3, 5, 8, 13), 10, 1), FineOptimal()),
        (GameConfig((2, 3, 5, 8, 13), 10, 1), CoarseOptimal()),
    ],
    ids=["regression-uniform", "fine-optimal", "coarse-optimal"],
)
def test_the_stable_set_search_evaluates_every_member_of_every_mask_once(
    monkeypatch, config, scheme, exact, notion
):
    # The search fills its dense table once: ``error`` is called for each
    # of the m*2^(m-1) members of the 2^m - 1 masks, once, and each mask's
    # shared term is taken once.  No floor is asked, but under exact
    # fine-optimal federation, where the floor is the error
    # (``Formula.floor_is_error``): there the floor fills the table, and
    # ``error`` is never called.
    m = len(config.players)
    seam = _formula_seam(monkeypatch)
    asked = []
    resolve = stability.scheme_formula

    def counting_floors(scheme, cfg):
        formula = resolve(scheme, cfg)

        def make_floor():
            made = formula.make_floor()
            if made is None:
                return None

            def floor(*args):
                asked.append(args)
                return made(*args)

            return floor

        return formula._replace(make_floor=make_floor)

    monkeypatch.setattr(stability, "scheme_formula", counting_floors)
    prefs = PreferenceOrder(exact=exact)
    found = find_stable_partitions(config, scheme, notion, prefs)
    assert seam.resolved == 1
    members = m << (m - 1)
    if exact and isinstance(scheme, FineOptimal):
        assert (seam.evaluated, seam.built, len(asked)) == ({}, [], members)
    else:
        assert sorted(seam.built) == list(range(1, 1 << m)) and asked == []
        assert seam.evaluated == {mask: bin(mask).count("1") for mask in range(1, 1 << m)}
        assert sum(seam.evaluated.values()) == members
    monkeypatch.setattr(stability, "scheme_formula", scheme_formula)
    assert find_stable_partitions(config, scheme, notion, prefs) == found


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
    # from epsilon 1 on, no positive error is strictly preferred to another,
    # so every core verdict would answer stable
    for bad in (1, 1.0, 2.0, Fraction(3, 2)):
        with pytest.raises(ValidationError, match="below 1"):
            PreferenceOrder(epsilon=bad)
    verdict = is_core_stable(Partition.singletons(3), Uniform(), T2, PreferenceOrder(epsilon=0.2))
    assert verdict.witness == Coalition((0, 1))
    assert PreferenceOrder(epsilon=0).strictly_less(1.0, 2.0)
    assert PreferenceOrder(epsilon=Fraction(1, 10**9)).strictly_less(1.0, 2.0)


def test_preference_order_refuses_an_exact_flag_that_is_not_a_bool():
    # a truthy value that is not a bool would switch to exact mode
    for bad in ("yes", 1, 0, None):
        with pytest.raises(ValidationError, match="preference exact: must be a bool"):
            PreferenceOrder(exact=bad)


@pytest.mark.parametrize("epsilon", [1e-9, 0, 1e-4, Fraction(1, 10**6)])
@pytest.mark.parametrize("old", [0.0, 1e-300, 0.3, 2.0512820512820514, 7.5e12])
def test_float_bounds_are_the_edges_of_strictly_and_weakly_less(epsilon, old):
    prefs = PreferenceOrder(epsilon=epsilon)
    (lower,), (upper,) = prefs.bounds([old])
    assert lower == old * (1.0 - epsilon)
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


@pytest.mark.parametrize("exact", [False, True])
def test_a_small_scale_singleton_partition_is_blocked(exact):
    # an absolute floor on the strict edge once made every gain at this
    # scale look like no gain, so float mode answered stable
    config = GameConfig((5, 5, 25), 1e-15, 1e-16)
    verdict = is_core_stable(Partition.singletons(3), Uniform(), config, PreferenceOrder(exact=exact))
    assert (verdict.stable, verdict.witness) == (False, Coalition((0, 1)))


@pytest.mark.parametrize("mu_e, sigma_sq", [(1e-15, 1e-16), (1e-13, 1e-14), (10, 1)])
def test_stable_sets_do_not_depend_on_the_scale(mu_e, sigma_sq):
    config = GameConfig((5, 5, 25), mu_e, sigma_sq)
    found = {
        exact: find_stable_partitions(config, Uniform(), "core", PreferenceOrder(exact=exact))
        for exact in (False, True)
    }
    assert found[False] == found[True] == [Partition.from_blocks([[0, 1], [2]])]


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


@pytest.mark.parametrize("exact", [False, True])
def test_two_size_searches_and_constructions_resolve_the_formula_once(monkeypatch, exact):
    # each resolves errors.scheme_formula once, through two_size_formula,
    # and answers every profile from it, never through two_size_errors
    calls = SimpleNamespace(resolved=0, per_profile=0)

    def resolve(scheme, cfg):
        calls.resolved += 1
        return scheme_formula(scheme, cfg)

    def per_profile(*args):
        calls.per_profile += 1
        return errors.two_size_errors(*args)

    monkeypatch.setattr(errors, "scheme_formula", resolve)
    for module in (stability, constructive):
        monkeypatch.setattr(module, "two_size_errors", per_profile)
    prefs = PreferenceOrder(exact=exact)
    arrangement = [(70, 3), (0, 1), (0, 1), (0, 1), (0, 1)]
    game, config = COUNTEREX_GAME, COUNTEREX_CONFIG
    for run, answer in (
        (lambda: two_size_blocking_search(game, arrangement, Uniform(), config, prefs), (68, 4)),
        (lambda: two_size_weak_blocking_search(game, arrangement, Uniform(), config, prefs), (70, 3)),
        (lambda: two_size_individually_stable(game, arrangement, Uniform(), config, prefs), None),
        (
            lambda: constructive.construct_individually_stable_uniform(game, config, prefs).profiles,
            tuple(arrangement),
        ),
        (
            lambda: constructive.construct_strict_core_coarse(game, config, prefs).profiles,
            ((70, 7),),
        ),
    ):
        calls.resolved = calls.per_profile = 0
        assert run() == answer
        assert (calls.resolved, calls.per_profile) == (1, 0)


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
        for config in (None, list(matching.players)):
            with pytest.raises(ValidationError, match="config: must be a GameConfig"):
                search(COUNTEREX_GAME, arrangement, Uniform(), config)


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
