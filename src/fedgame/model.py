"""Domain types, validation and enumeration for federation coalition games.

A game is a population of players, each holding ``n_i`` samples, plus two
distribution summaries: ``mu_e`` (expected sampling-noise variance) and
``sigma_sq`` (variance of the true parameters across players).  Everything
else in the package is a pure function of these values.

Coalitions and partitions carry their bitmasks (bit j for player j), which
is what the stability scans and the partition enumeration work on.  A
``Partition`` stores its block masks, sorted by lowest bit, and checks them
with bit operations; it builds its ``Coalition`` objects only when
``coalitions`` is first read.  A ``Coalition`` caches its mask, and one
built from a mask lists its members once, unchecked, since a mask's set
bits are already distinct and ascending.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import FrozenInstanceError, dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence, Union

Number = Union[int, float, Fraction]

# Enumeration caps.  Bell(13) ~ 27.6M partitions is the largest exhaustive
# search we are willing to stream; subsets cap at 2^20.
MAX_PARTITION_PLAYERS = 13
MAX_COALITION_PLAYERS = 20

ROW_SUM_TOL = 1e-12


class ValidationError(ValueError):
    """An input violates a documented invariant."""


class CapExceededError(ValueError):
    """An enumeration was requested beyond its hard player cap."""


@dataclass(frozen=True)
class LinRegSpec:
    """Linear-regression task: dimension and the aggregate bias coefficient.

    ``sigma_bias_sq`` is the sum over dimensions of (second moment of the
    input coordinate) times (variance of the coefficient); only this product
    sum enters any closed form, so per-dimension vectors are not stored.
    """

    d: int
    sigma_bias_sq: Number

    def __post_init__(self) -> None:
        if not _is_count(self.d) or self.d < 1:
            raise ValidationError(f"linreg.d: must be a positive integer, got {self.d!r}")
        _check_finite("linreg.sigma_bias_sq", self.sigma_bias_sq)
        if self.sigma_bias_sq < 0:
            raise ValidationError("linreg.sigma_bias_sq: must be non-negative")


@dataclass(frozen=True)
class GameConfig:
    """Population of sample counts plus distribution summary parameters.

    Construction refuses any value outside the game's domain, naming the field.
    """

    players: tuple[int, ...]
    mu_e: Number
    sigma_sq: Number
    linreg: LinRegSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "players", tuple(self.players))
        if len(self.players) == 0:
            raise ValidationError("players: empty population")
        for n in self.players:
            if not _is_count(n) or n < 1:
                raise ValidationError(f"players: sample count {n!r} must be a positive integer")
        _check_finite("mu_e", self.mu_e)
        if not self.mu_e > 0:
            raise ValidationError(f"mu_e: must be positive, got {self.mu_e!r}")
        _check_finite("sigma_sq", self.sigma_sq)
        if self.sigma_sq < 0:
            raise ValidationError(f"sigma_sq: must be non-negative, got {self.sigma_sq!r}")
        lr = self.linreg
        if lr is not None:
            for n in self.players:
                if n <= lr.d + 1:
                    raise ValidationError(
                        f"players: n must exceed d+1 for linear regression (n={n}, d={lr.d})"
                    )

    @property
    def player_count(self) -> int:
        return len(self.players)


def _is_count(value: object) -> bool:
    """A strict integer: ``bool`` is an ``int`` subclass but not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_finite(name: str, value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name}: must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        # an int or Fraction whose float() overflows; its digits may be too
        # many to print
        raise ValidationError(f"{name}: must be finite, got a value beyond the float range")
    if not finite:
        raise ValidationError(f"{name}: must be finite, got {value!r}")


def check_row_sum(row: Mapping[int, Number], what: str) -> None:
    """A weight row must sum to 1 within ROW_SUM_TOL; a NaN entry fails.

    The entries are added left to right: from CPython 3.12 on, ``sum()``
    compensates float rounding, and the total would depend on the version.
    """
    total = 0
    for v in row.values():
        total += v
    if not abs(total - 1) <= ROW_SUM_TOL:
        raise ValidationError(f"{what} sums to {total!r}, expected 1")


@dataclass(frozen=True, order=True)
class Coalition:
    """A non-empty set of player indices, stored sorted.

    ``mask`` (bit j set for member j) is computed on first read and cached;
    ``from_mask`` sets it at construction.
    """

    __slots__ = ("members", "_mask")

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        members = set(self.members)
        if not members:
            raise ValidationError("coalition: must be non-empty")
        for j in members:
            if not _is_count(j):
                raise ValidationError(f"coalition: player index {j!r} is not an integer")
        members = tuple(sorted(members))
        if members[0] < 0:
            raise ValidationError(f"coalition: negative player index in {members}")
        object.__setattr__(self, "members", members)

    def __reduce__(self) -> tuple:
        return self.__class__, (self.members,)

    def __contains__(self, player: int) -> bool:
        return player in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def mask(self) -> int:
        try:
            return self._mask
        except AttributeError:
            bits = 0
            for j in self.members:
                bits |= 1 << j
            _set_mask(self, bits)
            return bits

    @classmethod
    def from_mask(cls, mask: int) -> "Coalition":
        if not _is_count(mask) or mask < 1:
            raise ValidationError(f"coalition mask must be a positive integer, got {mask!r}")
        return cls._trusted(mask)

    @classmethod
    def _trusted(cls, mask: int) -> "Coalition":
        """The coalition of a positive mask, unchecked: its set bits are
        already distinct, ascending player indices."""
        coalition = object.__new__(cls)
        _set_members(coalition, tuple(_mask_members(mask)))
        _set_mask(coalition, mask)
        return coalition


# slot setters, which bypass the frozen __setattr__
_set_members = Coalition.members.__set__
_set_mask = Coalition._mask.__set__


def _mask_members(mask: int) -> list[int]:
    """The set bits of a non-negative mask in ascending order: the members
    of the coalition it encodes, found lowest set bit by lowest set bit."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return members


@lru_cache(maxsize=1 << 12)
def _block(mask: int) -> Coalition:
    """The coalition of a partition's block mask, unchecked.  Coalitions
    are immutable, so every partition that reads a mask back shares one."""
    return Coalition._trusted(mask)


def _player_count(masks: tuple[int, ...]) -> int:
    """The player count m of block masks that are pairwise disjoint and
    together cover players 0..m-1; a partition error otherwise."""
    if not masks:
        raise ValidationError("partition: must have at least one coalition")
    seen = 0
    for mask in masks:
        both = seen & mask
        if both:
            j = (both & -both).bit_length() - 1
            raise ValidationError(f"partition: player {j} appears in two coalitions")
        seen |= mask
    if seen & (seen + 1):
        raise ValidationError(
            f"partition: members {_mask_members(seen)} do not cover 0..{seen.bit_count() - 1}"
        )
    return seen.bit_length()


class Partition:
    """Disjoint coalitions covering players 0..m-1, sorted by least member.

    A partition is its block bitmasks, ``masks``, sorted by lowest bit, with
    ``player_count`` m.  ``coalitions`` is built from the masks on first
    read and cached (a partition built from coalitions keeps them).
    Equality and hashing are those of ``masks``, which are in one-to-one
    correspondence with ``coalitions``.  Instances are immutable.
    """

    __slots__ = ("masks", "player_count", "_coalitions")

    masks: tuple[int, ...]
    player_count: int

    def __new__(cls, coalitions: Iterable[Coalition]) -> "Partition":
        coals = tuple(sorted(coalitions, key=lambda c: c.members[0]))
        masks = tuple(c.mask for c in coals)
        return cls._trusted(masks, _player_count(masks), coals)

    @classmethod
    def _trusted(
        cls,
        masks: tuple[int, ...],
        player_count: int,
        coalitions: tuple[Coalition, ...] | None = None,
    ) -> "Partition":
        """The partition with these block masks, unchecked: they are
        positive, sorted by lowest bit, disjoint and cover 0..player_count-1.
        Every ``Partition`` is made here."""
        partition = object.__new__(cls)
        _set_masks(partition, masks)
        _set_player_count(partition, player_count)
        _set_coalitions(partition, coalitions)
        return partition

    @property
    def coalitions(self) -> tuple[Coalition, ...]:
        coals = self._coalitions
        if coals is None:
            coals = tuple(map(_block, self.masks))
            _set_coalitions(self, coals)
        return coals

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.masks == other.masks
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.masks)

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(coalitions={self.coalitions!r})"

    def __reduce__(self) -> tuple:
        return self.__class__.from_masks, (self.masks,)

    def coalition_of(self, player: int) -> Coalition:
        for c in self.coalitions:
            if player in c:
                return c
        raise ValidationError(f"partition: player {player} not present")

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence[int]]) -> "Partition":
        return cls(tuple(Coalition(tuple(b)) for b in blocks))

    @classmethod
    def from_masks(cls, masks: Iterable[int]) -> "Partition":
        """The partition with these block masks, in any order; each must be
        a positive ``int`` (not ``bool``)."""
        masks = tuple(masks)
        seen = overlap = least = 0
        ordered = True
        for mask in masks:
            # an exact int needs no _is_count call; a bool or non-int is
            # refused before it is compared
            if (mask.__class__ is not int and not _is_count(mask)) or mask < 1:
                raise ValidationError(
                    f"partition: block mask must be a positive integer, got {mask!r}"
                )
            low = mask & -mask
            if low < least:
                ordered = False
            least = low
            overlap |= seen & mask
            seen |= mask
        if not ordered:
            masks = tuple(sorted(masks, key=lambda mask: mask & -mask))
        if overlap or not masks or seen & (seen + 1):
            _player_count(masks)  # raises, naming the first fault
        return cls._trusted(masks, seen.bit_length())

    @classmethod
    def grand(cls, m: int) -> "Partition":
        return cls.from_blocks([range(m)])

    @classmethod
    def singletons(cls, m: int) -> "Partition":
        return cls.from_blocks([[j] for j in range(m)])


# slot setters, which bypass the refusing __setattr__
_set_masks = Partition.masks.__set__
_set_player_count = Partition.player_count.__set__
_set_coalitions = Partition._coalitions.__set__


@dataclass(frozen=True)
class TwoSizeGame:
    """Symmetric population: S small players (n_s samples), L large (n_l)."""

    n_s: int
    n_l: int
    S: int
    L: int

    def __post_init__(self) -> None:
        for name in ("n_s", "n_l", "S", "L"):
            if not _is_count(getattr(self, name)):
                raise ValidationError(f"two-size game: {name} must be an integer")
        if self.n_s < 1 or self.n_l < 1:
            raise ValidationError("two-size game: sample counts must be positive")
        if not self.n_s < self.n_l:
            raise ValidationError(f"two-size game: need n_s < n_l, got {self.n_s} >= {self.n_l}")
        if self.S < 0 or self.L < 0 or self.S + self.L < 1:
            raise ValidationError("two-size game: need S, L >= 0 and S + L >= 1")


def check_profiles(game: TwoSizeGame, profiles: Sequence[tuple[int, int]]) -> None:
    """A two-size arrangement: non-empty (small, large) pairs of integer
    counts, none negative, whose totals are exactly the game's (S, L)."""
    bad = [
        p for p in profiles
        if len(p) != 2 or not all(_is_count(c) and c >= 0 for c in p) or sum(p) < 1
    ]
    totals = (sum(s for s, _ in profiles), sum(l for _, l in profiles)) if not bad else None
    if totals != (game.S, game.L):
        got = f"profile {bad[0]!r}" if bad else f"totals {totals}"
        raise ValidationError(
            f"malformed arrangement ({got}): need non-empty pairs of non-negative "
            f"integer counts whose totals cover the game's ({game.S},{game.L})"
        )


def check_two_size_config(game: TwoSizeGame, config: GameConfig) -> None:
    """A two-size game's config: mean estimation (no linreg spec) with
    players exactly S x n_s then L x n_l samples."""
    if config.linreg is not None:
        raise ValidationError(
            "two-size games cover mean estimation only; config has a linreg spec"
        )
    if config.players != (game.n_s,) * game.S + (game.n_l,) * game.L:
        raise ValidationError(
            f"config players are not the two-size game's {game.S} x {game.n_s} "
            f"then {game.L} x {game.n_l} samples"
        )


# --- federation schemes -----------------------------------------------------


@dataclass(frozen=True)
class Local:
    """Every player keeps its own local model."""


@dataclass(frozen=True)
class Uniform:
    """One sample-count-weighted global model per coalition."""


@dataclass(frozen=True)
class Coarse:
    """Each player blends global and local models with its scalar weight."""

    weights: Mapping[int, Number]

    def __post_init__(self) -> None:
        for j, w in self.weights.items():
            _check_finite(f"coarse weight for player {j}", w)
            if not (0 <= w <= 1):
                raise ValidationError(f"coarse weight for player {j} outside [0,1]: {w!r}")


@dataclass(frozen=True)
class CoarseOptimal:
    """Coarse blending with each player's error-minimizing weight."""


@dataclass(frozen=True)
class Fine:
    """Each player combines member models with an explicit weight row."""

    rows: Mapping[int, Mapping[int, Number]]

    def __post_init__(self) -> None:
        for j, row in self.rows.items():
            for i, v in row.items():
                _check_finite(f"fine weight of player {i} in the row for player {j}", v)
            check_row_sum(row, f"fine row for player {j}")


@dataclass(frozen=True)
class FineOptimal:
    """Fine-grained combination with each player's optimal weight row."""


FederationScheme = Union[Local, Uniform, Coarse, CoarseOptimal, Fine, FineOptimal]


def scheme_name(scheme: FederationScheme) -> str:
    return {
        Local: "local",
        Uniform: "uniform",
        Coarse: "coarse",
        CoarseOptimal: "coarse-optimal",
        Fine: "fine",
        FineOptimal: "fine-optimal",
    }[type(scheme)]


# --- exact-rational coercion ------------------------------------------------


def exact_config(config: GameConfig) -> GameConfig:
    """Copy of config with distribution parameters coerced to Fraction.

    Floats convert to their exact binary value; pass Fraction/int parameters
    for decimal-exact analysis.
    """
    lr = config.linreg
    if lr is not None:
        lr = LinRegSpec(d=lr.d, sigma_bias_sq=Fraction(lr.sigma_bias_sq))
    return replace(
        config,
        mu_e=Fraction(config.mu_e),
        sigma_sq=Fraction(config.sigma_sq),
        linreg=lr,
    )


def exact_scheme(scheme: FederationScheme) -> FederationScheme:
    """Copy of scheme with any explicit weights coerced to Fraction."""
    if isinstance(scheme, Coarse):
        return Coarse({j: Fraction(w) for j, w in scheme.weights.items()})
    if isinstance(scheme, Fine):
        return Fine(
            {j: {i: Fraction(v) for i, v in row.items()} for j, row in scheme.rows.items()}
        )
    return scheme


# --- enumeration ------------------------------------------------------------


def _partition_masks(m: int) -> Iterator[tuple[int, ...]]:
    """Every set partition of {0..m-1} as a tuple of block bitmasks, blocks
    sorted by least member, in restricted-growth-string order.

    Lexicographic order on restricted growth strings is the order of their
    prefixes, then of the last digit: for each partition of the first m-1
    players, player m-1 joins each block in turn, then opens a new one
    (Knuth, TAOCP 4A, 7.2.1.5).  Neither step moves a block's least member.
    """
    if m == 1:
        yield (1,)
        return
    bit = 1 << (m - 1)
    for prefix in _partition_masks(m - 1):
        blocks = list(prefix)
        for k, block in enumerate(prefix):
            blocks[k] = block | bit
            yield tuple(blocks)
            blocks[k] = block
        yield prefix + (bit,)


def enumerate_partitions(m: int) -> Iterator[Partition]:
    """Yield every set partition of {0..m-1} in restricted-growth-string order.

    The order is deterministic: position i either joins an existing block
    (in block order) or opens a new one, which is exactly lexicographic
    order on restricted growth strings.
    """
    if m < 1:
        raise ValidationError(f"enumerate_partitions: need m >= 1, got {m}")
    if m > MAX_PARTITION_PLAYERS:
        raise CapExceededError(
            f"enumerate_partitions: m={m} exceeds cap {MAX_PARTITION_PLAYERS}"
        )
    return (Partition._trusted(masks, m) for masks in _partition_masks(m))


def enumerate_coalitions(m: int) -> Iterator[Coalition]:
    """Yield all 2^m - 1 non-empty subsets of {0..m-1} by ascending bitmask."""
    if m < 1:
        raise ValidationError(f"enumerate_coalitions: need m >= 1, got {m}")
    if m > MAX_COALITION_PLAYERS:
        raise CapExceededError(
            f"enumerate_coalitions: m={m} exceeds cap {MAX_COALITION_PLAYERS}"
        )
    return (Coalition.from_mask(mask) for mask in range(1, 1 << m))
