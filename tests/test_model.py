import copy
import pickle
import sys

import pytest
from dataclasses import replace
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
)
from oracles import bell_numbers


def build(players, mu_e, sigma_sq, linreg=None):
    """A GameConfig from plain arguments; ``linreg`` is ``(d, sigma_bias_sq)``."""
    return GameConfig(players, mu_e, sigma_sq, None if linreg is None else LinRegSpec(*linreg))


def test_validate_accepts_reference_setup():
    assert GameConfig((5, 5, 5), 10, 1).players == (5, 5, 5)


def test_validate_rejects_empty_population():
    with pytest.raises(ValidationError, match="empty population"):
        GameConfig((), 10, 1)


# Each case is the constructor's arguments, so a config that fails to be
# refused fails its own case rather than the module's collection.
@pytest.mark.parametrize(
    "config, fragment",
    [
        (((0, 5), 10, 1), "positive integer"),
        (((5,), 0, 1), "mu_e"),
        (((5,), 10, -1), "sigma_sq"),
        (((6,), 10, 1, (5, 1)), "n must exceed d\\+1"),
        (((8,), 10, 1, (0, 1)), "linreg.d"),
        (((8,), 10, 1, (2, -1)), "sigma_bias_sq"),
        (((5, 5), float("nan"), 1), "mu_e"),
        (((5, 5), float("inf"), 1), "mu_e"),
        (((5, 5), 10, float("nan")), "sigma_sq"),
        (((5, 5), 10, float("inf")), "sigma_sq"),
        (((8,), 10, 1, (2, float("nan"))), "sigma_bias_sq"),
        (((8,), 10, 1, (2, float("inf"))), "sigma_bias_sq"),
        (((5, True), 10, 1), "sample count True"),
        (((8,), 10, 1, (True, 1)), "linreg.d"),
        (((5,), "10", 1), "real number"),
    ],
)
def test_validate_rejects_bad_fields(config, fragment):
    with pytest.raises(ValidationError, match=fragment):
        build(*config)


def test_validate_accepts_exact_parameters():
    config = exact_config(GameConfig((8, 9), 10.5, 0.25, LinRegSpec(2, 1.5)))
    assert config.mu_e == Fraction(21, 2) and config.linreg.sigma_bias_sq == Fraction(3, 2)


def test_replace_checks_the_new_config():
    # no copy of a config escapes the checks: configs are not dataclasses,
    # so dataclasses.replace refuses them, and a changed config is built
    # with the constructor, which checks it
    valid = GameConfig((5, 5), 10, 1)
    with pytest.raises(TypeError):
        replace(valid, sigma_sq=float("nan"))
    with pytest.raises(ValidationError, match="sigma_sq"):
        GameConfig(valid.players, valid.mu_e, float("nan"), valid.linreg)
    # exact_config builds its copy with the constructor too: a config that
    # skipped its checks is refused there
    unchecked = object.__new__(GameConfig)
    unchecked.__dict__.update(players=(5, 5), mu_e=10, sigma_sq=-1, linreg=None)
    with pytest.raises(ValidationError, match="sigma_sq"):
        exact_config(unchecked)


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
    # a member that is not an int has no bit in a mask
    for members in ((0.5,), (True,), (0, "1")):
        with pytest.raises(ValidationError, match="not an integer"):
            Coalition(members)


def test_coalitions_and_partitions_survive_pickling_and_copying():
    partition = Partition.from_masks((0b0101, 0b1010))
    for copied in (pickle.loads(pickle.dumps(partition)), copy.deepcopy(partition)):
        assert copied == partition and copied.coalitions == partition.coalitions
    coalition = Coalition((2, 0))
    assert pickle.loads(pickle.dumps(coalition)) == copy.copy(coalition) == coalition
    with pytest.raises(AttributeError):
        partition.masks = (0b1111,)


@pytest.mark.parametrize("mask", [-1, -6, True, False, 3.0, "3", None, 0])
def test_from_mask_refuses_a_mask_that_is_not_a_positive_integer(mask):
    # -1 used to loop forever (-1 & -(-1) never clears a bit), and True
    # used to give Coalition((0,)).
    with pytest.raises(ValidationError):
        Coalition.from_mask(mask)


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
    with pytest.raises(ValidationError, match="must be finite, got nan"):
        Fine({0: {0: float("nan"), 1: 0.5}})
    for bad in ("1", True):
        with pytest.raises(ValidationError, match="real number"):
            Fine({0: {0: bad}})
    Fine({0: {0: 0.5, 1: 0.5}})


@pytest.mark.parametrize(
    "big",
    [10**400, Fraction(10**400, 3), 10**5000],
    ids=["int-401-digits", "fraction", "int-5001-digits"],
)
@pytest.mark.parametrize(
    "make, field",
    [
        (lambda big: GameConfig((5, 5), big, 1), "mu_e"),
        (lambda big: GameConfig((5, 5), 10, big), "sigma_sq"),
        (lambda big: LinRegSpec(2, big), "linreg.sigma_bias_sq"),
        (lambda big: Coarse({0: big}), "coarse weight for player 0"),
        (lambda big: Fine({0: {0: big, 1: 1 - big}}), "fine weight of player 0"),
    ],
)
def test_a_value_beyond_the_float_range_is_refused(make, field, big):
    # an int or Fraction is exact, but every closed form divides it in floats
    with pytest.raises(ValidationError, match=f"^{field}.*: must be finite"):
        make(big)


def test_the_largest_float_sized_integer_is_accepted():
    top = int(sys.float_info.max)
    assert GameConfig((5, 5), top, top).mu_e == top
    assert GameConfig((5, 5), Fraction(top), 1).mu_e == top


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
