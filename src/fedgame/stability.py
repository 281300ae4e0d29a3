"""Core, strict-core and individual stability of coalition structures.

Verdicts carry concrete witnesses that re-verify against the error module.
Checks are exhaustive over candidate coalitions (player count capped) and,
for two-size populations, count-symmetric so they scale to large counts.
Member errors are computed per member, on demand: a candidate coalition is
settled by its first member who does not gain, and the members after that
one are never evaluated.  The scheme is resolved once per error table, to
the ``errors.Formula`` of its closed form, and a coalition costs one direct
call of that closed form per member asked about: its sample sums come from
the coalition without its lowest player, its members are listed only for a
scheme with a shared term, and that term is taken once per visit.  The
table (``_ErrorTable``) keeps, per mask reached, its sums and each member
error asked about, in flat dicts keyed by mask.

The scans work on a partition as its tuple of block bitmasks: the public
verdicts read their ``Partition``'s ``masks``, and the stable-set search
walks the mask tuples of ``model._partition_masks`` and builds a
``Partition`` from its masks only for each partition it returns.  A
verdict builds no ``Coalition`` but its witness.  Each scan computes every
player's strict and weak bounds once per partition
(``PreferenceOrder.bounds``) and compares member errors against them
inline.

Comparisons run in one of two modes: relative-epsilon floating point
(default) or exact rational arithmetic, selected on ``PreferenceOrder``.
Errors here are O(1)-scale rationals, so a relative epsilon with a small
absolute floor recognizes the designed boundary ties (n = mu_e/sigma_sq).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from .errors import _sample_sums, scheme_formula, two_size_errors

# coalition_member_mse and enumerate_partitions are not called here (the
# scans resolve the scheme once with scheme_formula and walk block masks from
# model._partition_masks); they stay importable from this module for code
# that wraps those layers by module attribute.
from .errors import coalition_member_mse  # noqa: F401
from .model import enumerate_partitions  # noqa: F401
from .model import (
    CapExceededError,
    Coalition,
    FederationScheme,
    Fine,
    GameConfig,
    MAX_COALITION_PLAYERS,
    MAX_PARTITION_PLAYERS,
    Number,
    Partition,
    TwoSizeGame,
    ValidationError,
    _check_finite,
    _mask_members,
    _partition_masks,
    check_profiles,
    check_two_size_config,
    exact_config,
    exact_scheme,
)

_STRICT_FLOOR = 1e-15

FLOAT_MODE = "float-epsilon"
EXACT_MODE = "exact-rational"

NOTIONS = ("core", "strict", "individual")


@dataclass(frozen=True)
class PreferenceOrder:
    """Comparison policy for "prefers" between expected errors."""

    epsilon: float = 1e-9
    exact: bool = False

    def __post_init__(self) -> None:
        _check_finite("preference epsilon", self.epsilon)
        if self.epsilon < 0:
            raise ValidationError("preference epsilon must be non-negative")

    def bounds(self, current: Sequence[Number]) -> tuple[list[Number], list[Number]]:
        """Per-value decision edges ``(lower, upper)``: ``new`` is strictly
        preferred to ``current[j]`` iff ``new < lower[j]``, and weakly iff
        ``new <= upper[j]``.  In float mode lower = cur*(1-eps) - floor and
        upper = cur*(1+eps); in exact mode both are cur.  For a non-negative
        ``cur``, lower <= upper, so a strict preference is also a weak one.
        """
        if self.exact:
            values = list(current)
            return values, values
        shrink, grow = 1.0 - self.epsilon, 1.0 + self.epsilon
        return [cur * shrink - _STRICT_FLOOR for cur in current], [cur * grow for cur in current]

    def strictly_less(self, new: Number, old: Number) -> bool:
        return new < self.bounds((old,))[0][0]

    def weakly_less(self, new: Number, old: Number) -> bool:
        return new <= self.bounds((old,))[1][0]

    @property
    def mode(self) -> str:
        return EXACT_MODE if self.exact else FLOAT_MODE


@dataclass(frozen=True)
class Deviation:
    """A single player moving to ``target`` (which includes the player)."""

    player: int
    target: Coalition


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    witness: Optional[Coalition | Deviation]
    comparisons_mode: str


class _ErrorTable:
    """Member errors keyed by player and coalition bitmask, computed per
    member on demand.

    The scheme is resolved once, in ``__init__``, to the ``errors.Formula``
    ``(error, shared)``.  ``memo[j]`` maps a mask to player j's error in its
    coalition.  ``coalitions`` maps a mask to ``(N, Q, members)``: its sample
    sums and, only for a scheme with a shared term, its member list in
    ascending order (else None).  A mask gets that entry the first time a
    member error in it is computed, so every mask with a memoized error has
    one; nothing is stored before a scan reaches it.  The shared term is
    taken at most once per visit to a mask, when a member asked about is
    missing.

    ``_blocking_coalition`` visits masks in ascending order, so the mask
    without its lowest player always has its entry: the scan extends it
    inline (integer sums are exact in any order; mask 0's entry is empty).
    The other callers go through ``coalition``, which starts from the
    members.  The scans read and fill ``memo`` inline, without a method call
    per coalition or member: they run once per partition in a stable-set
    search.  ``filled`` keeps each partition block's whole error dict, which
    every later partition with that block reads again.
    """

    def __init__(
        self, config: GameConfig, scheme: FederationScheme, prefs: PreferenceOrder
    ) -> None:
        if isinstance(scheme, Fine):
            raise ValidationError(
                "fine-grained rows are tied to one partition; stability search "
                "needs local, uniform, coarse, coarse-optimal or fine-optimal"
            )
        if prefs.exact:
            config = exact_config(config)
            scheme = exact_scheme(scheme)
        self.error, self.shared = scheme_formula(scheme, config)
        self.ns = config.players
        self.coalitions: dict[int, tuple[int, int, Optional[list[int]]]] = {
            0: (0, 0, None if self.shared is None else [])
        }
        self.memo: list[dict[int, Number]] = [{} for _ in config.players]
        self._blocks: dict[int, dict[int, Number]] = {}

    def coalition(
        self, mask: int, members: Optional[list[int]] = None
    ) -> tuple[int, int, Any]:
        """The mask's sample sums N and Q and its shared term; ``members``,
        when given, are the mask's members in ascending order."""
        entry = self.coalitions.get(mask)
        if entry is None:
            if members is None:
                members = _mask_members(mask)
            total, square = _sample_sums(members, self.ns)
            entry = self.coalitions[mask] = (
                total, square, None if self.shared is None else members
            )
        total, square, members = entry
        return total, square, None if members is None else self.shared(members, total)

    def filled(self, mask: int) -> dict[int, Number]:
        """Every member's error in the mask's coalition, by player.  The
        members are listed once, and the sums and shared term taken once,
        when the first missing error is needed."""
        values = self._blocks.get(mask)
        if values is None:
            members = _mask_members(mask)
            total = None
            values = {}
            for j in members:
                err = self.memo[j].get(mask)
                if err is None:
                    if total is None:
                        total, square, terms = self.coalition(mask, members)
                    err = self.memo[j][mask] = self.error(j, total, square, terms)
                values[j] = err
            self._blocks[mask] = values
        return values

    def current_errors(self, masks: Sequence[int]) -> list[Number]:
        """Every player's error in its own coalition, indexed by player,
        given the partition's block masks."""
        current: list[Number] = [0] * len(self.ns)
        for mask in masks:
            for j, err in self.filled(mask).items():
                current[j] = err
        return current


def _require_cap(m: int, cap: int, what: str) -> None:
    if m > cap:
        raise CapExceededError(f"{what}: player count {m} exceeds cap {cap}")


def _check_partition(partition: Partition, config: GameConfig) -> None:
    if partition.player_count != len(config.players):
        raise ValidationError(
            f"partition covers {partition.player_count} players, "
            f"config has {len(config.players)}"
        )


def _blocking_coalition(
    masks: Sequence[int],
    m: int,
    table: _ErrorTable,
    prefs: PreferenceOrder,
    strict_notion: bool,
) -> Optional[int]:
    """Mask of the first blocking coalition in ascending-bitmask order, if
    any, against the partition with block masks ``masks``.

    strict_notion=False: every member strictly gains (core blocking).
    strict_notion=True: every member weakly gains, at least one strictly.
    Members are asked about in ascending order, and a mask is settled by its
    first member who does not gain; later members' errors are not computed.
    A strict gain is also a weak one (``PreferenceOrder.bounds``).
    """
    lower, upper = prefs.bounds(table.current_errors(masks))
    error, shared, memo = table.error, table.shared, table.memo
    coalitions, ns = table.coalitions, table.ns
    for mask in range(1, 1 << m):
        low = mask & -mask
        j = low.bit_length() - 1
        rest = mask ^ low
        total = None
        strict = False
        while True:
            err = memo[j].get(mask)
            if err is None:
                if total is None:
                    entry = coalitions.get(mask)
                    if entry is None:
                        # extend the entry of the mask without its lowest
                        # player, visited earlier in this scan
                        bottom = mask & -mask
                        i = bottom.bit_length() - 1
                        total, square, members = coalitions[mask ^ bottom]
                        n = ns[i]
                        total += n
                        square += n * n
                        if members is not None:
                            members = [i] + members
                        coalitions[mask] = total, square, members
                    else:
                        total, square, members = entry
                    terms = None if members is None else shared(members, total)
                err = memo[j][mask] = error(j, total, square, terms)
            if err < lower[j]:
                strict = True
            elif not (strict_notion and err <= upper[j]):
                break
            if not rest:
                if strict:
                    return mask
                break
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
    return None


def _verdict_table(
    partition: Partition,
    scheme: FederationScheme,
    config: GameConfig,
    prefs: PreferenceOrder,
    what: str,
) -> _ErrorTable:
    """Check a verdict's inputs, then give it an empty, lazily filled table."""
    _check_partition(partition, config)
    _require_cap(partition.player_count, MAX_COALITION_PLAYERS, what)
    return _ErrorTable(config, scheme, prefs)


def _core_verdict(
    partition: Partition,
    scheme: FederationScheme,
    config: GameConfig,
    prefs: PreferenceOrder,
    strict_notion: bool,
) -> StabilityVerdict:
    what = "strict core stability" if strict_notion else "core stability"
    table = _verdict_table(partition, scheme, config, prefs, what)
    mask = _blocking_coalition(partition.masks, partition.player_count, table, prefs, strict_notion)
    witness = None if mask is None else Coalition._trusted(mask)
    return StabilityVerdict(witness is None, witness, prefs.mode)


def is_core_stable(
    partition: Partition,
    scheme: FederationScheme,
    config: GameConfig,
    prefs: PreferenceOrder = PreferenceOrder(),
) -> StabilityVerdict:
    """No coalition exists that every member strictly prefers."""
    return _core_verdict(partition, scheme, config, prefs, strict_notion=False)


def is_strict_core_stable(
    partition: Partition,
    scheme: FederationScheme,
    config: GameConfig,
    prefs: PreferenceOrder = PreferenceOrder(),
) -> StabilityVerdict:
    """No coalition all members weakly prefer with one strict preference."""
    return _core_verdict(partition, scheme, config, prefs, strict_notion=True)


def _individual_deviation(
    masks: Sequence[int],
    m: int,
    table: _ErrorTable,
    prefs: PreferenceOrder,
    allow_singleton_deviation: bool,
) -> Optional[tuple[int, int]]:
    """First deviation ``(mover, target mask)``, movers in index order.  In
    each coalition a mover could join, the mover's error is computed first,
    then each host's in ascending order until one host would lose."""
    lower, upper = prefs.bounds(table.current_errors(masks))
    error, coalition, memo = table.error, table.coalition, table.memo
    for i in range(m):
        bit = 1 << i
        own = bit
        for host_mask in masks:
            if host_mask & bit:
                own = host_mask
                continue
            joined = host_mask | bit
            total = None
            err = memo[i].get(joined)
            if err is None:
                total, square, terms = coalition(joined)
                err = memo[i][joined] = error(i, total, square, terms)
            if not err < lower[i]:
                continue
            for j in _mask_members(host_mask):
                err = memo[j].get(joined)
                if err is None:
                    if total is None:
                        total, square, terms = coalition(joined)
                    err = memo[j][joined] = error(j, total, square, terms)
                if not err <= upper[j]:
                    break
            else:
                return i, joined
        if allow_singleton_deviation and own != bit:
            if table.filled(bit)[i] < lower[i]:
                return i, bit
    return None


def is_individually_stable(
    partition: Partition,
    scheme: FederationScheme,
    config: GameConfig,
    prefs: PreferenceOrder = PreferenceOrder(),
    allow_singleton_deviation: bool = True,
) -> StabilityVerdict:
    """No player strictly gains by joining an existing coalition (members
    weakly agreeing) or, unless disabled, by leaving to be alone."""
    table = _verdict_table(partition, scheme, config, prefs, "individual stability")
    found = _individual_deviation(
        partition.masks, partition.player_count, table, prefs, allow_singleton_deviation
    )
    witness = None
    if found is not None:
        witness = Deviation(player=found[0], target=Coalition._trusted(found[1]))
    return StabilityVerdict(witness is None, witness, prefs.mode)


def find_stable_partitions(
    config: GameConfig,
    scheme: FederationScheme,
    notion: str,
    prefs: PreferenceOrder = PreferenceOrder(),
) -> list[Partition]:
    """All partitions satisfying the notion, in canonical enumeration order.

    Partitions are searched as block-mask tuples; a ``Partition`` is built
    only for each one returned."""
    if notion not in NOTIONS:
        raise ValidationError(f"unknown stability notion {notion!r}, expected {NOTIONS}")
    m = len(config.players)
    _require_cap(m, MAX_PARTITION_PLAYERS, "stable-partition search")
    table = _ErrorTable(config, scheme, prefs)
    if notion == "individual":
        stable = (
            masks for masks in _partition_masks(m)
            if _individual_deviation(masks, m, table, prefs, True) is None
        )
    else:
        strict_notion = notion == "strict"
        stable = (
            masks for masks in _partition_masks(m)
            if _blocking_coalition(masks, m, table, prefs, strict_notion) is None
        )
    return [Partition._trusted(masks, m) for masks in stable]


# --- two-size (count-symmetric) searches -------------------------------------


@dataclass(frozen=True)
class TwoSizeDeviation:
    """A single small/large player moving from one profile to another."""

    role: str  # "small" | "large"
    source: tuple[int, int]
    target: tuple[int, int]  # profile after the move, including the mover


def _exact_params(config: GameConfig, prefs: PreferenceOrder) -> tuple[Number, Number]:
    if prefs.exact:
        config = exact_config(config)
    return config.mu_e, config.sigma_sq


def _two_size_blocking(
    game: TwoSizeGame,
    arrangement: Sequence[tuple[int, int]],
    scheme: FederationScheme,
    config: GameConfig,
    prefs: PreferenceOrder,
    strict_notion: bool,
) -> Optional[tuple[int, int]]:
    """First coalition profile (s, l) that blocks the arrangement, if any.

    strict_notion=False: every participant strictly gains (core blocking).
    strict_notion=True: every participant weakly gains, at least one strictly.
    Players are symmetric within a size class, so a profile blocks when
    enough willing smalls and larges exist to populate it.  Candidates are
    scanned with s descending from S and l ascending from 0.
    """
    check_two_size_config(game, config)
    check_profiles(game, arrangement)
    mu_e, sigma_sq = _exact_params(config, prefs)
    # per role (0 small, 1 large): (count, lower, upper) of each block with
    # it, the bounds of its current error (``PreferenceOrder.bounds``)
    held: list[list[tuple[int, Number, Number]]] = [[], []]
    for profile in arrangement:
        current = two_size_errors(game, *profile, mu_e, sigma_sq, scheme)
        for role in (0, 1):
            if profile[role]:
                (lower,), (upper,) = prefs.bounds((current[role],))
                held[role].append((profile[role], lower, upper))

    def strict_gainers(role: int, need: int, new: Number) -> Optional[int]:
        """How many players of the role strictly gain from ``new``, or None
        when fewer than ``need`` of them gain at all."""
        willing = strict = 0
        for count, lower, upper in held[role]:
            if new < lower:
                willing += count
                strict += count
            elif strict_notion and new <= upper:
                willing += count
        return strict if willing >= need else None

    for s_cand in range(game.S, -1, -1):
        for l_cand in range(0, game.L + 1):
            if s_cand + l_cand == 0:
                continue
            new = two_size_errors(game, s_cand, l_cand, mu_e, sigma_sq, scheme)
            strict = 0
            for role, need in ((0, s_cand), (1, l_cand)):
                gainers = strict_gainers(role, need, new[role]) if need else 0
                if gainers is None:
                    break
                strict += gainers
            else:
                if strict:
                    return (s_cand, l_cand)
    return None


def two_size_blocking_search(
    game: TwoSizeGame,
    arrangement: Sequence[tuple[int, int]],
    scheme: FederationScheme,
    config: GameConfig,
    prefs: PreferenceOrder = PreferenceOrder(),
) -> Optional[tuple[int, int]]:
    """First coalition profile where every participant strictly gains."""
    return _two_size_blocking(game, arrangement, scheme, config, prefs, strict_notion=False)


def two_size_weak_blocking_search(
    game: TwoSizeGame,
    arrangement: Sequence[tuple[int, int]],
    scheme: FederationScheme,
    config: GameConfig,
    prefs: PreferenceOrder = PreferenceOrder(),
) -> Optional[tuple[int, int]]:
    """First profile all participants weakly prefer, at least one strictly."""
    return _two_size_blocking(game, arrangement, scheme, config, prefs, strict_notion=True)


def two_size_individually_stable(
    game: TwoSizeGame,
    arrangement: Sequence[tuple[int, int]],
    scheme: FederationScheme,
    config: GameConfig,
    prefs: PreferenceOrder = PreferenceOrder(),
    allow_singleton_deviation: bool = True,
) -> Optional[TwoSizeDeviation]:
    """Profile-level individual-stability check; None means stable.

    Valid for any player counts because members of a size class are
    interchangeable: a labeled deviation exists iff a profile deviation does.
    """
    check_two_size_config(game, config)
    check_profiles(game, arrangement)
    mu_e, sigma_sq = _exact_params(config, prefs)

    def errs(s: int, l: int) -> tuple[Number | None, Number | None]:
        return two_size_errors(game, s, l, mu_e, sigma_sq, scheme)

    blocks = []
    for profile in arrangement:
        # an absent role's error is None; it is never compared
        current = [0 if err is None else err for err in errs(*profile)]
        blocks.append((profile, *prefs.bounds(current)))
    for idx, ((s_k, l_k), lower, _) in enumerate(blocks):
        for r, role, count in ((0, "small", s_k), (1, "large", l_k)):
            if not count:
                continue
            for t_idx, ((s_t, l_t), _, upper) in enumerate(blocks):
                if t_idx == idx:
                    continue
                new_s, new_l = s_t + (r == 0), l_t + (r == 1)
                new = errs(new_s, new_l)
                if not new[r] < lower[r]:
                    continue
                if (not s_t or new[0] <= upper[0]) and (not l_t or new[1] <= upper[1]):
                    return TwoSizeDeviation(role, (s_k, l_k), (new_s, new_l))
            if allow_singleton_deviation and s_k + l_k > 1:
                alone = (1, 0) if r == 0 else (0, 1)
                if errs(*alone)[r] < lower[r]:
                    return TwoSizeDeviation(role, (s_k, l_k), alone)
    return None
