import pytest
from fractions import Fraction

from fedgame import (
    CapExceededError,
    Coalition,
    Coarse,
    Fine,
    GameConfig,
    LinRegSpec,
    Partition,
    TwoSizeGame,
    ValidationError,
    enumerate_coalitions,
    enumerate_partitions,
    exact_config,
    exact_scheme,
    validate,
)
from oracles import bell_numbers


def test_validate_accepts_reference_setup():
    validate(GameConfig((5, 5, 5), 10, 1))


def test_validate_rejects_empty_population():
    with pytest.raises(ValidationError, match="empty population"):
        validate(GameConfig((), 10, 1))


@pytest.mark.parametrize(
    "config, fragment",
    [
        (GameConfig((0, 5), 10, 1), "positive integer"),
        (GameConfig((5,), 0, 1), "mu_e"),
        (GameConfig((5,), 10, -1), "sigma_sq"),
        (GameConfig((6,), 10, 1, LinRegSpec(5, 1)), "n must exceed d\\+1"),
        (GameConfig((8,), 10, 1, LinRegSpec(0, 1)), "linreg.d"),
        (GameConfig((8,), 10, 1, LinRegSpec(2, -1)), "sigma_bias_sq"),
        (GameConfig((5, 5), float("nan"), 1), "mu_e"),
        (GameConfig((5, 5), float("inf"), 1), "mu_e"),
        (GameConfig((5, 5), 10, float("nan")), "sigma_sq"),
        (GameConfig((5, 5), 10, float("inf")), "sigma_sq"),
        (GameConfig((8,), 10, 1, LinRegSpec(2, float("nan"))), "sigma_bias_sq"),
        (GameConfig((8,), 10, 1, LinRegSpec(2, float("inf"))), "sigma_bias_sq"),
        (GameConfig((5, True), 10, 1), "sample count True"),
        (GameConfig((8,), 10, 1, LinRegSpec(True, 1)), "linreg.d"),
        (GameConfig((5,), "10", 1), "real number"),
    ],
)
def test_validate_rejects_bad_fields(config, fragment):
    with pytest.raises(ValidationError, match=fragment):
        validate(config)


def test_validate_accepts_exact_parameters():
    validate(exact_config(GameConfig((8, 9), 10.5, 0.25, LinRegSpec(2, 1.5))))


def test_coalition_sorts_and_dedups():
    c = Coalition((3, 1, 1, 0))
    assert c.members == (0, 1, 3)
    assert 1 in c and 2 not in c
    assert Coalition.from_mask(c.mask) == c


def test_coalition_rejects_empty_and_negative():
    with pytest.raises(ValidationError):
        Coalition(())
    with pytest.raises(ValidationError):
        Coalition((-1, 2))


def test_partition_canonical_order_and_validation():
    p = Partition.from_blocks([[2], [0, 1]])
    assert [c.members for c in p.coalitions] == [(0, 1), (2,)]
    assert p.coalition_of(2).members == (2,)
    with pytest.raises(ValidationError, match="two coalitions"):
        Partition.from_blocks([[0, 1], [1, 2]])
    with pytest.raises(ValidationError, match="cover"):
        Partition.from_blocks([[0], [2]])


def test_two_size_game_invariants():
    TwoSizeGame(5, 25, 2, 1)
    with pytest.raises(ValidationError):
        TwoSizeGame(25, 5, 2, 1)
    with pytest.raises(ValidationError):
        TwoSizeGame(5, 25, 0, 0)
    with pytest.raises(ValidationError, match="n_s"):
        TwoSizeGame(11.5, 106, 70, 7)
    with pytest.raises(ValidationError, match="n_s"):
        TwoSizeGame(True, 106, 70, 7)


def test_scheme_weight_validation():
    with pytest.raises(ValidationError):
        Coarse({0: 1.5})
    for bad in (True, False, "0.5"):
        with pytest.raises(ValidationError, match="real number"):
            Coarse({0: bad})
    with pytest.raises(ValidationError):
        Fine({0: {0: 0.5, 1: 0.4}})
    with pytest.raises(ValidationError, match="sums to nan"):
        Fine({0: {0: float("nan"), 1: 0.5}})
    Fine({0: {0: 0.5, 1: 0.5}})


def test_partition_counts_match_bell_triangle():
    bells = bell_numbers(8)
    for m in range(1, 9):
        assert sum(1 for _ in enumerate_partitions(m)) == bells[m]


def test_partition_enumeration_is_canonical_and_deterministic():
    first = list(enumerate_partitions(3))
    second = list(enumerate_partitions(3))
    assert first == second
    blocks = [[c.members for c in p.coalitions] for p in first]
    assert blocks == [
        [(0, 1, 2)],
        [(0, 1), (2,)],
        [(0, 2), (1,)],
        [(0,), (1, 2)],
        [(0,), (1,), (2,)],
    ]


def test_every_enumerated_partition_covers_each_player_once():
    for p in enumerate_partitions(5):
        seen = sorted(j for c in p.coalitions for j in c)
        assert seen == list(range(5))


def test_partition_enumeration_caps():
    with pytest.raises(CapExceededError):
        enumerate_partitions(14)
    with pytest.raises(ValidationError):
        enumerate_partitions(0)


def test_coalition_enumeration_order_and_counts():
    masks = [c.members for c in enumerate_coalitions(2)]
    assert masks == [(0,), (1,), (0, 1)]
    assert sum(1 for _ in enumerate_coalitions(3)) == 7
    assert sum(1 for _ in enumerate_coalitions(5)) == 31
    with pytest.raises(CapExceededError):
        enumerate_coalitions(21)


def test_exact_coercion():
    config = exact_config(GameConfig((5, 5), 10, 0.5, LinRegSpec(2, 1.25)))
    assert config.mu_e == Fraction(10)
    assert config.sigma_sq == Fraction(1, 2)
    assert config.linreg.sigma_bias_sq == Fraction(5, 4)
    scheme = exact_scheme(Coarse({0: 0.5}))
    assert scheme.weights[0] == Fraction(1, 2)
