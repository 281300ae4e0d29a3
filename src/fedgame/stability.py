"""Core, strict-core and individual stability of coalition structures.

Verdicts carry concrete witnesses that re-verify against the error module.
Checks are exhaustive over candidate coalitions (player count capped) and,
for two-size populations, count-symmetric so they scale to large counts.
The scheme is resolved once per error table (``_ErrorTable``), to the
``errors.Formula`` of its closed form.  A coalition's sample sums are read
from flat per-mask lists, built one top player at a time (the masks in
``[2^t, 2^(t+1))`` are the masks below ``2^t`` plus player t), and its
shared term, if any, is taken once per visit, its members listed then.

The stable-set search fills one dense table once: ``errs[j][mask]``, every
member error of every mask below 2^m, m*2^(m-1) calls of the closed form
with each mask's sums and shared term taken once (``_ErrorTable.dense``).
Under exact fine-optimal federation the table is filled from the scheme's
floor (``Formula.make_floor``), which is the error there
(``Formula.floor_is_error``).
Each of the Bell(m) partitions is then scanned by lookups only: a blocking
scan (``_blocking_coalition``) or an individual-deviation scan
(``_individual_move``), current errors looked up too.

A single verdict computes only the member errors it asks about, on a table
of its own: a candidate coalition is settled by its first member who does
not gain, and the members after that one are never evaluated.  A core or
strict-core verdict (``_single_blocking_coalition``) extends the sum lists
only as far as it scans and skips the partition's own blocks.  Under a
scheme with a floor (``Formula.make_floor``, built once per scan:
regression uniform and coarse, whose shared term is the global variance,
and fine-optimal, whose shared term is the member list) it asks the
member's floor first: a lower bound on the error that costs O(1), given the
sum of the scheme's addends over the mask's other members, read from a
third flat list.  A member is settled as not gaining when
``floor >= lower[j]`` and, for the strict core, also ``floor > upper[j]``;
only a member it does not settle costs the shared term and a call of the
closed form, and a floor that is the error is taken as the error.  A
one-player block's current error, and a player's stay-alone check
(``_individual_deviation``), are read from ``Formula.alone`` without a
call; only where that entry is not positive and finite is the closed form
called, which evaluates it again or refuses it.

The scans work on a partition as its tuple of block bitmasks: the public
verdicts read their ``Partition``'s ``masks``, and the stable-set search
walks the mask tuples of ``model._partition_masks`` and builds a
``Partition`` from its masks only for each partition it returns.  A
verdict builds no ``Coalition`` but its witness.  Each scan compares
member errors inline against each player's strict and weak bounds
(``PreferenceOrder.bounds``).  The stable-set search's scans and the
individual-deviation verdict take every player's bounds once per partition;
a core or strict-core verdict takes player t's when its scan reaches level
t, so one whose witness is among the first masks computes only the bounds
of the players it reaches.  Every verdict takes its partition's current
errors up front, so it raises any refusal among them before it scans.

Comparisons run in one of two modes: relative-epsilon floating point
(default) or exact rational arithmetic, selected on ``PreferenceOrder``.
The relative epsilon recognizes the designed boundary ties
(n = mu_e/sigma_sq).  It needs no absolute floor: errors are positive, and
scaling mu_e and the bias coefficient together scales every error alike.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from .errors import _INF, _sample_sums, scheme_formula, two_size_formula

# coalition_member_mse, two_size_errors and enumerate_partitions are not
# called here (the scans resolve the scheme once with scheme_formula, the
# two-size searches with two_size_formula, and walk block masks from
# model._partition_masks); they stay importable from this module, and
# two_size_errors from constructive, for code that wraps them by attribute.
from .errors import coalition_member_mse, two_size_errors  # noqa: F401
from .model import enumerate_partitions  # noqa: F401
from .model import (
    CapExceededError,
    Coalition,
    FederationScheme,
    Fine,
    GameConfig,
    MAX_COALITION_PLAYERS,
    MAX_PARTITION_PLAYERS,
    NOTIONS,
    Number,
    Partition,
    Record,
    TwoSizeGame,
    ValidationError,
    _check_finite,
    _check_type,
    _mask_members,
    _partition_masks,
    check_profiles,
    check_two_size_config,
    exact_config,
    exact_scheme,
)

FLOAT_MODE = "float-epsilon"
EXACT_MODE = "exact-rational"


class PreferenceOrder(Record):
    """Comparison policy for "prefers" between expected errors."""

    _fields = ("epsilon", "exact")

    epsilon: float = 1e-9
    exact: bool = False

    def __post_init__(self) -> None:
        _check_finite("preference epsilon", self.epsilon)
        if self.epsilon < 0:
            raise ValidationError("preference epsilon must be non-negative")
        if self.epsilon >= 1:
            # the strict edge cur*(1-eps) would be at most 0, so no positive
            # error could ever be strictly preferred
            raise ValidationError(f"preference epsilon must be below 1, got {self.epsilon!r}")
        _check_type("preference exact", self.exact, bool)

    def bounds(self, current: Sequence[Number]) -> tuple[list[Number], list[Number]]:
        """Per-value decision edges ``(lower, upper)``: ``new`` is strictly
        preferred to ``current[j]`` iff ``new < lower[j]``, and weakly iff
        ``new <= upper[j]``.  In float mode lower = cur*(1-eps) and
        upper = cur*(1+eps); in exact mode both are cur.  For a non-negative
        ``cur``, lower <= upper, so a strict preference is also a weak one.
        """
        if self.exact:
            values = list(current)
            return values, values
        shrink, grow = 1.0 - self.epsilon, 1.0 + self.epsilon
        return [cur * shrink for cur in current], [cur * grow for cur in current]

    def strictly_less(self, new: Number, old: Number) -> bool:
        return new < self.bounds((old,))[0][0]

    def weakly_less(self, new: Number, old: Number) -> bool:
        return new <= self.bounds((old,))[1][0]

    @property
    def mode(self) -> str:
        return EXACT_MODE if self.exact else FLOAT_MODE


class Deviation(Record):
    """A single player moving to ``target`` (which includes the player)."""

    _fields = ("player", "target")

    player: int
    target: Coalition

    # an explicit __init__, as StabilityVerdict's: one is built per verdict,
    # and Record's generic one costs more
    def __init__(self, player: int, target: Coalition) -> None:
        object.__setattr__(self, "player", player)
        object.__setattr__(self, "target", target)


class StabilityVerdict(Record):
    _fields = ("stable", "witness", "comparisons_mode")

    stable: bool
    witness: Optional[Coalition | Deviation]
    comparisons_mode: str

    def __init__(
        self, stable: bool, witness: Optional[Coalition | Deviation], comparisons_mode: str
    ) -> None:
        object.__setattr__(self, "stable", stable)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "comparisons_mode", comparisons_mode)


class _ErrorTable:
    """A scheme resolved once for a search or a verdict, and the sample sums
    of every mask below ``2^t``.

    ``__init__`` resolves the scheme to the ``errors.Formula``
    ``(error, shared, make_floor, addends, floor_is_error, alone)``; a scan
    that asks for the floor builds it with ``make_floor()``.  ``totals[mask]``
    and ``squares[mask]`` are the mask's sample sums N and Q, and
    ``rests[mask]`` the sum of the scheme's addends over its members in
    ascending order from 0 (under fine-optimal federation the sum of 1/V_i
    that ``error`` takes), which a member's floor reads at the mask without
    them; without addends ``rests`` is ``totals``.  The lists start at mask 0
    and grow one top player at a time (``extend``): the masks in
    ``[2^t, 2^(t+1))`` are the masks below ``2^t`` plus player t, one list
    comprehension each.  No list holds a mask's members: they are listed
    (``_mask_members``) when the shared term is taken.
    """

    def __init__(
        self, config: GameConfig, scheme: FederationScheme, prefs: PreferenceOrder
    ) -> None:
        _check_type("prefs", prefs, PreferenceOrder)
        if isinstance(scheme, Fine):
            raise ValidationError(
                "fine-grained rows are tied to one partition; stability search "
                "needs local, uniform, coarse, coarse-optimal or fine-optimal"
            )
        if prefs.exact:
            config = exact_config(config)
            scheme = exact_scheme(scheme)
        formula = scheme_formula(scheme, config)
        (
            self.error, self.shared, self.make_floor, self.addends, self.floor_is_error, self.alone
        ) = formula
        self.ns = config.players
        self.totals: list[int] = [0]
        self.squares: list[int] = [0]
        # without addends, a floor's ``rest`` sums the sample counts
        self.rests: list[Number] = self.totals if self.addends is None else [0]

    def extend(self, top: int) -> None:
        """Give the sum lists every mask below ``2^top``: per player t not
        yet added, each mask below ``2^t`` again with player t."""
        totals, squares, rests, addends = self.totals, self.squares, self.rests, self.addends
        for t in range(len(totals).bit_length() - 1, top):
            n = self.ns[t]
            square = n * n
            totals += [total + n for total in totals]
            squares += [sq + square for sq in squares]
            if addends is not None:
                addend = addends[t]
                rests += [rest + addend for rest in rests]

    def dense(self) -> list[list[Any]]:
        """Every member error of every mask below ``2^m``: ``errs[j][mask]``
        is player j's error in the coalition ``mask``, None where j is not a
        member.  Each mask's members are listed, and its sums and shared term
        taken, once.  A floor that is the error (exact fine-optimal,
        ``Formula.floor_is_error``) fills the table, and ``error`` is not
        called."""
        m = len(self.ns)
        self.extend(m)
        totals, squares, rests = self.totals, self.squares, self.rests
        errs: list[list[Any]] = [[None] * (1 << m) for _ in range(m)]
        error, shared = self.error, self.shared
        floor = self.make_floor() if self.floor_is_error else None
        by_floor = floor is not None
        for mask in range(1, 1 << m):
            members = _mask_members(mask)
            total, square = totals[mask], squares[mask]
            if by_floor:
                for j in members:
                    errs[j][mask] = floor(j, total, square, rests[mask ^ (1 << j)])
            else:
                terms = None if shared is None else shared(members, total)
                for j in members:
                    errs[j][mask] = error(j, total, square, terms)
        return errs

    def coalition(self, members: list[int]) -> tuple[int, int, Any]:
        """The sample sums N and Q and the shared term of the coalition of
        ``members``, listed in ascending order."""
        total, square = _sample_sums(members, self.ns)
        return total, square, None if self.shared is None else self.shared(members, total)

    def current_errors(self, masks: Sequence[int]) -> list[Number]:
        """Every player's error in its own coalition, indexed by player,
        given the partition's block masks, block by block in their order.  A
        one-player block's error is its ``Formula.alone`` entry, read without
        a call: a verdict on m singletons asks for m of them, and such
        verdicts hold the median rank of single-verdict latencies.  Where
        that entry is not positive and finite, ``error_alone`` meets
        ``error``'s answer in the block's turn, as a call would have."""
        error = self.error
        current = list(self.alone)
        if len(masks) == len(current) and 0 < min(current) and max(current) < _INF:
            # one player per block, and no entry refused: ``alone`` itself
            return current
        for mask in masks:
            if mask & (mask - 1):
                members = _mask_members(mask)
                total, square, terms = self.coalition(members)
                for j in members:
                    current[j] = error(j, total, square, terms)
            else:
                j = mask.bit_length() - 1
                if not 0 < current[j] < _INF:
                    current[j] = self.error_alone(j)
        return current

    def error_alone(self, j: int) -> Number:
        """Player j's error alone by a call of ``error``, N = n_j: for a
        player whose ``Formula.alone`` entry is not positive and finite."""
        return self.error(j, *self.coalition([j]))


def _require_cap(m: int, cap: int, what: str) -> None:
    if m > cap:
        raise CapExceededError(f"{what}: player count {m} exceeds cap {cap}")


def _check_partition(partition: Partition, config: GameConfig) -> None:
    _check_type("partition", partition, Partition)
    _check_type("config", config, GameConfig)
    if partition.player_count != len(config.players):
        raise ValidationError(
            f"partition covers {partition.player_count} players, "
            f"config has {len(config.players)}"
        )


def _dense_bounds(
    masks: Sequence[int], errs: list[list[Any]], prefs: PreferenceOrder
) -> tuple[list[Number], list[Number]]:
    """Every player's ``PreferenceOrder.bounds`` in the partition with block
    masks ``masks``, their current errors read from the dense table."""
    current: list[Number] = [0] * len(errs)
    for mask in masks:
        for j in _mask_members(mask):
            current[j] = errs[j][mask]
    return prefs.bounds(current)


def _blocking_coalition(
    masks: Sequence[int], errs: list[list[Any]], prefs: PreferenceOrder, strict_notion: bool
) -> Optional[int]:
    """Mask of the first blocking coalition in ascending-bitmask order, if
    any, against the partition with block masks ``masks``: lookups in the
    dense table ``errs`` (``_ErrorTable.dense``) only.

    strict_notion=False: every member strictly gains (core blocking).
    strict_notion=True: every member weakly gains, at least one strictly.
    Members are asked about in ascending order, and a mask is settled by its
    first member who does not gain.  A strict gain is also a weak one
    (``PreferenceOrder.bounds``).
    """
    lower, upper = _dense_bounds(masks, errs, prefs)
    for mask in range(1, 1 << len(errs)):
        rest = mask
        strict = False
        while True:
            low = rest & -rest
            j = low.bit_length() - 1
            err = errs[j][mask]
            if err < lower[j]:
                strict = True
            elif not (strict_notion and err <= upper[j]):
                break
            rest ^= low
            if not rest:
                if strict:
                    return mask
                break
    return None


def _single_blocking_coalition(
    masks: Sequence[int],
    m: int,
    table: _ErrorTable,
    prefs: PreferenceOrder,
    strict_notion: bool,
) -> Optional[int]:
    """``_blocking_coalition`` for one partition, on a fresh table of its
    own: the same mask, with member errors computed as the scan asks.

    The scan extends the table's sum lists one top player at a time, only
    as far as it scans, and evaluates each member at most once.  It skips
    the partition's own blocks: their members' errors are the current ones,
    so they cannot block.  Under a scheme with a ``floor``, the member's
    floor is asked first, before the shared term is taken: a member is
    settled as not gaining when ``floor >= lower[j]`` and, for the strict
    core, also ``floor > upper[j]``.  A floor that is the error is taken as
    the error.  The current errors are taken up front, so a refusal among
    them comes before any witness; player t's bounds
    (``PreferenceOrder.bounds``) when the scan reaches the masks in
    ``[2^t, 2^(t+1))``, the first with t as a member.
    """
    current = table.current_errors(masks)
    exact = prefs.exact
    lower, upper = (current, current) if exact else ([], [])
    # the factors of ``PreferenceOrder.bounds``, applied one player at a time
    shrink, grow = 1.0 - prefs.epsilon, 1.0 + prefs.epsilon
    error, shared, floor, ns = table.error, table.shared, table.make_floor(), table.ns
    totals, squares, rests, addends = table.totals, table.squares, table.rests, table.addends
    own = set(masks)
    floor_is_error = floor is not None and table.floor_is_error
    # a shared term is taken on the visit to a mask; under a floor (every
    # scheme with one has a shared term) only for a member it does not settle
    eager = floor is None and shared is not None
    for top in range(m):
        # ``_ErrorTable.extend(top + 1)``, inline: a method call per level
        # shows on a verdict whose witness is among the first masks
        if not exact:
            cur = current[top]
            lower.append(cur * shrink)
            upper.append(cur * grow)
        n = ns[top]
        n_square = n * n
        totals += [total + n for total in totals]
        squares += [sq + n_square for sq in squares]
        if addends is not None:
            addend = addends[top]
            rests += [rest + addend for rest in rests]
        for mask in range(1 << top, 2 << top):
            if mask in own:
                continue
            total = totals[mask]
            square = squares[mask]
            terms = shared(_mask_members(mask), total) if eager else None
            rest = mask
            strict = False
            while True:
                low = rest & -rest
                j = low.bit_length() - 1
                if floor_is_error:
                    err = floor(j, total, square, rests[mask ^ low])
                else:
                    if floor is not None:
                        least = floor(j, total, square, rests[mask ^ low])
                        if least >= lower[j] and not (strict_notion and least <= upper[j]):
                            break
                        if terms is None:
                            # the shared term, once per visit (None only for
                            # a one-player mask, which has one member)
                            terms = shared(_mask_members(mask), total)
                    err = error(j, total, square, terms)
                if err < lower[j]:
                    strict = True
                elif not (strict_notion and err <= upper[j]):
                    break
                rest ^= low
                if not rest:
                    if strict:
                        return mask
                    break
    return None


def _verdict_table(
    partition: Partition,
    scheme: FederationScheme,
    config: GameConfig,
    prefs: PreferenceOrder,
    what: str,
) -> _ErrorTable:
    """Check a verdict's inputs, then give it a fresh table."""
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
    mask = _single_blocking_coalition(
        partition.masks, partition.player_count, table, prefs, strict_notion
    )
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
    """First deviation ``(mover, target mask)``, movers in index order, on a
    fresh table.  In each coalition a mover could join, the mover's error is
    computed first, then each host's in ascending order until one host
    would lose."""
    lower, upper = prefs.bounds(table.current_errors(masks))
    error, alone = table.error, table.alone
    for i in range(m):
        bit = 1 << i
        own = bit
        for host_mask in masks:
            if host_mask & bit:
                own = host_mask
                continue
            joined = host_mask | bit
            total, square, terms = table.coalition(_mask_members(joined))
            if not error(i, total, square, terms) < lower[i]:
                continue
            for j in _mask_members(host_mask):
                if not error(j, total, square, terms) <= upper[j]:
                    break
            else:
                return i, joined
        if allow_singleton_deviation and own != bit:
            # player i alone: their ``Formula.alone`` entry, inline
            err = alone[i]
            if (err if 0 < err < _INF else table.error_alone(i)) < lower[i]:
                return i, bit
    return None


def _individual_move(
    masks: Sequence[int], errs: list[list[Any]], prefs: PreferenceOrder
) -> Optional[tuple[int, int]]:
    """``_individual_deviation`` with singleton deviations allowed, by
    lookups in the dense table ``errs`` (``_ErrorTable.dense``) only."""
    lower, upper = _dense_bounds(masks, errs, prefs)
    for i, mine in enumerate(errs):
        bit = 1 << i
        own = bit
        for host_mask in masks:
            if host_mask & bit:
                own = host_mask
                continue
            joined = host_mask | bit
            if not mine[joined] < lower[i]:
                continue
            for j in _mask_members(host_mask):
                if not errs[j][joined] <= upper[j]:
                    break
            else:
                return i, joined
        if own != bit and mine[bit] < lower[i]:
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
    _check_type("allow_singleton_deviation", allow_singleton_deviation, bool)
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
    _check_type("config", config, GameConfig)
    m = len(config.players)
    _require_cap(m, MAX_PARTITION_PLAYERS, "stable-partition search")
    # Bell(m) partitions revisit the same masks: every member error up front
    errs = _ErrorTable(config, scheme, prefs).dense()
    if notion == "individual":
        stable = (
            masks for masks in _partition_masks(m) if _individual_move(masks, errs, prefs) is None
        )
    else:
        strict_notion = notion == "strict"
        stable = (
            masks for masks in _partition_masks(m)
            if _blocking_coalition(masks, errs, prefs, strict_notion) is None
        )
    return [Partition._trusted(masks, m) for masks in stable]


# --- two-size (count-symmetric) searches -------------------------------------


class TwoSizeDeviation(Record):
    """A single small/large player moving from one profile to another."""

    _fields = ("role", "source", "target")

    role: str  # "small" | "large"
    source: tuple[int, int]
    target: tuple[int, int]  # profile after the move, including the mover


def _exact_params(config: GameConfig, prefs: PreferenceOrder) -> tuple[Number, Number]:
    if prefs.exact:
        config = exact_config(config)
    return config.mu_e, config.sigma_sq


def _two_size_blocks(
    game: TwoSizeGame,
    arrangement: Sequence[tuple[int, int]],
    scheme: FederationScheme,
    config: GameConfig,
    prefs: PreferenceOrder,
) -> tuple[Any, list[tuple[Any, list[Number], list[Number]]]]:
    """The two-size searches' prologue: the profile errors, resolved once
    (``two_size_formula``), and each block's ``(profile, lower, upper)``, its
    per-role bounds (``PreferenceOrder.bounds``; an absent role's are 0)."""
    check_two_size_config(game, config)
    check_profiles(game, arrangement)
    errs = two_size_formula(game, *_exact_params(config, prefs), scheme)
    blocks = []
    for profile in arrangement:
        current = [0 if err is None else err for err in errs(*profile)]
        blocks.append((profile, *prefs.bounds(current)))
    return errs, blocks


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
    errs, blocks = _two_size_blocks(game, arrangement, scheme, config, prefs)
    # per role (0 small, 1 large): (count, lower, upper) of each block with it
    held = [
        [(p[role], lower[role], upper[role]) for p, lower, upper in blocks if p[role]]
        for role in (0, 1)
    ]

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
            new = errs(s_cand, l_cand)
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
    errs, blocks = _two_size_blocks(game, arrangement, scheme, config, prefs)
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
