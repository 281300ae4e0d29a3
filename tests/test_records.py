"""Behaviour of every public record: construction (keyword, positional,
defaults, then the checks), class-only equality, hashing, repr, refused
assignment and deletion, pickling, copying, and the ordering of coalitions.

The per-record checks and their table live in ``smoke.py``, which also runs
them without pytest.
"""

import pytest

from fedgame import (
    Coalition,
    Coarse,
    CoarseOptimal,
    Deviation,
    Fine,
    FineOptimal,
    FineWeights,
    GameConfig,
    LinRegSpec,
    Local,
    Partition,
    PreferenceOrder,
    ProfilePartition,
    StabilityVerdict,
    TwoSizeGame,
    Uniform,
    ValidationError,
)
from fedgame.montecarlo import DistributionSpec, McEstimate, TrialPlan
from smoke import GAME, PAIR, RECORD_CHECKS, RECORDS

IDS = [text.split("(")[0] for _, _, text in RECORDS]


@pytest.mark.parametrize("check", RECORD_CHECKS, ids=lambda check: check.__name__[6:])
@pytest.mark.parametrize("by_keyword, by_position, text", RECORDS, ids=IDS)
def test_record(check, by_keyword, by_position, text):
    check(by_keyword, by_position, text)


def test_records_of_different_classes_differ():
    assert Local() != Uniform()
    assert CoarseOptimal() != FineOptimal()
    assert Local() == Local()
    assert len({Local(), Uniform(), CoarseOptimal(), FineOptimal(), Local()}) == 4
    assert StabilityVerdict(True, None, "exact-rational") != StabilityVerdict(
        True, None, "float-epsilon"
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: GameConfig((5, 5), 10),  # missing
        lambda: GameConfig((5, 5), 10, 1, None, 0),  # too many
        lambda: GameConfig((5, 5), 10, 1, bias=1),  # unknown
        lambda: GameConfig((5, 5), 10, 1, players=(5, 5)),  # repeated
        lambda: Coalition(),
        lambda: Local(1),
        lambda: Deviation(0),
        lambda: StabilityVerdict(True, None),
        lambda: McEstimate(se=0.1),
        lambda: PreferenceOrder(exact=True, mode="exact"),
    ],
)
def test_a_call_that_does_not_bind_raises_type_error(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize(
    "build, fragment",
    [
        (lambda: LinRegSpec(d=0, sigma_bias_sq=1), "linreg.d"),
        (lambda: GameConfig(players=(), mu_e=10, sigma_sq=1), "empty population"),
        (lambda: GameConfig((5,), mu_e=10, sigma_sq=-1), "sigma_sq"),
        (lambda: Coalition(members=()), "non-empty"),
        (lambda: Coalition((0, -1)), "negative"),
        (lambda: Partition([Coalition((0,)), Coalition((0, 1))]), "two coalitions"),
        (lambda: TwoSizeGame(n_s=2, n_l=1, S=1, L=1), "n_s < n_l"),
        (lambda: Coarse({0: 1.5}), "outside"),
        (lambda: Fine(rows={0: {0: 0.5}}), "sums to"),
        (lambda: ProfilePartition(GAME, ((1, 0),)), "malformed arrangement"),
        (lambda: DistributionSpec(theta_family="cauchy"), "theta_family"),
        (lambda: DistributionSpec(theta_mean=float("nan")), "theta_mean"),
        (lambda: TrialPlan(trials=0, seed=1), "trials"),
        (lambda: PreferenceOrder(epsilon=-1.0), "epsilon"),
        (lambda: PreferenceOrder(epsilon=2.0), "epsilon must be below 1"),
        (lambda: PreferenceOrder(exact="yes"), "exact: must be a bool"),
        (lambda: FineWeights(player=2, row={0: 1.0}), "own player"),
    ],
)
def test_construction_runs_the_checks(build, fragment):
    with pytest.raises(ValidationError, match=fragment):
        build()


def test_coalitions_order_by_members():
    a, b, c = Coalition((0, 2)), Coalition((0, 1)), Coalition((1,))
    assert sorted([a, b, c]) == [b, a, c]
    assert b < a <= a < c and c > a >= a > b
    assert not a < a and not a > a
    assert min(a, b) is b and max(a, c) is c


def test_coalition_comparison_with_another_type_is_not_implemented():
    for method in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(PAIR, method)((0, 1)) is NotImplemented
    with pytest.raises(TypeError):
        PAIR < (0, 1)
    with pytest.raises(TypeError):
        PAIR >= Partition.grand(2)
