"""Core, strict-core and individual stability of coalition structures.

Verdicts carry concrete witnesses that re-verify against the error module.
Checks are exhaustive over candidate coalitions (player count capped) and,
for two-size populations, count-symmetric so they scale to large counts.
Member errors are computed per member, on demand: a candidate coalition is
settled by its first member who does not gain, and the members after that
one are never evaluated.  The scheme is resolved once per error table, to
the ``errors.Formula`` of its closed form, and a coalition costs one direct
call of that closed form per member asked about: its sample sums are read
from flat per-mask lists, and its shared term, if any, is taken once per
visit, its members listed then.  No table lists members up front.  Under a
scheme with a ``Formula.floor`` (regression uniform and coarse, whose shared
term is the global variance, and fine-optimal, whose shared term is the
member list), both blocking scans ask the member's floor first: a lower
bound on the error that costs O(1).  A member is settled as not gaining
when ``floor >= lower[j]`` and, for the strict core, also
``floor > upper[j]``; only a member it does not settle costs the shared
term (once per visit) and a call of the closed form.  A floor that is the
error (exact fine-optimal, ``Formula.floor_is_error``) is taken as the
error, and the closed form is not called.  The fine-optimal floor reads
the sum of 1/V_i over the mask's other members from a third flat list
beside the sample sums.  The table (``_ErrorTable``) builds those
lists one top player at a time: the masks in ``[2^t, 2^(t+1))`` are the
masks below ``2^t`` plus player t.

A single core or strict-core verdict scans on a table of its own and keeps
no member memo: it extends the sum lists only as far as it scans,
evaluates each member at most once and skips the partition's own blocks
(``_single_blocking_coalition``).  The stable-set search shares one table
between Bell(m) partitions that revisit the same masks: it builds all 2^m
sums up front and memoises member errors in per-player dicts keyed by mask
(``_blocking_coalition``).  It asks the regression floors on every memo
miss, and memoises a floor that is the error as the error.  It leaves the
float fine-optimal floor out: that floor lies just below the error, and
across those partitions nearly every such error comes to be needed.  A
one-player mask (a partition's one-player block, or a player's stay-alone
check) skips the member list, sums and block dict of
``_ErrorTable.filled``: its error is one call of the closed form with
N = n_j (``_ErrorTable.alone``).

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
The relative epsilon recognizes the designed boundary ties
(n = mu_e/sigma_sq).  It needs no absolute floor: errors are positive, and
scaling mu_e and the bias coefficient together scales every error alike.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from .errors import _sample_sums, scheme_formula, two_size_formula

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
    """Member errors keyed by player and coalition bitmask, computed per
    member on demand, and the sample sums of every mask below ``2^t``.

    The scheme is resolved once, in ``__init__``, to the ``errors.Formula``
    ``(error, shared, floor, addends, floor_is_error)``.  ``memo[j]`` maps a
    mask to player j's error in its coalition.  ``totals[mask]`` and
    ``squares[mask]`` are the mask's sample sums N and Q, and
    ``rests[mask]`` the sum of the scheme's addends over its members in
    ascending order from 0 (under fine-optimal federation the sum of 1/V_i
    that ``error`` takes), which a member's floor reads at the mask without
    them; without addends ``rests`` is ``totals``.  No list holds a mask's members: a scan lists
    them (``_mask_members``) when it takes the shared term.  The lists
    start at mask 0 and grow one top player at a time (``extend``): the
    masks in ``[2^t, 2^(t+1))`` are the masks below ``2^t`` plus player t,
    one list comprehension each.  A mask beyond them takes its sums from
    its members (``coalition``).  The shared term is taken at most once per
    visit to a mask, when a member asked about is missing.

    The stable-set search extends the lists over all 2^m masks up front and
    runs ``_blocking_coalition`` on each partition, reading and filling
    ``memo`` inline, without a method call per coalition or member.  A
    single core or strict-core verdict runs ``_single_blocking_coalition``
    instead: it extends the lists only as far as it scans and keeps no
    member memo.  ``filled`` keeps each partition block of two or more
    players' whole error dict, which every later partition with that block
    reads again.  A one-player mask skips ``filled``: ``alone`` reads or
    makes its one memo entry.
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
        self.error, self.shared, self.floor, self.addends, self.floor_is_error = formula
        self.ns = config.players
        self.totals: list[int] = [0]
        self.squares: list[int] = [0]
        # without addends, a floor's ``rest`` sums the sample counts
        self.rests: list[Number] = self.totals if self.addends is None else [0]
        self.memo: list[dict[int, Number]] = [{} for _ in config.players]
        self._blocks: dict[int, dict[int, Number]] = {}

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

    def coalition(
        self, mask: int, members: Optional[list[int]] = None
    ) -> tuple[int, int, Any]:
        """The mask's sample sums N and Q and its shared term; ``members``,
        when given, are the mask's members in ascending order."""
        if mask < len(self.totals):
            total, square = self.totals[mask], self.squares[mask]
        else:
            if members is None:
                members = _mask_members(mask)
            total, square = _sample_sums(members, self.ns)
        if self.shared is None:
            return total, square, None
        if members is None:
            members = _mask_members(mask)
        return total, square, self.shared(members, total)

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

    def alone(self, j: int) -> Number:
        """Player j's error alone, in mask ``1 << j``: one call of ``error``
        with N = n_j and Q = n_j^2, and the shared term of ``[j]`` only for a
        scheme with one."""
        bit = 1 << j
        err = self.memo[j].get(bit)
        if err is None:
            n = self.ns[j]
            terms = None if self.shared is None else self.shared([j], n)
            err = self.memo[j][bit] = self.error(j, n, n * n, terms)
        return err

    def current_errors(self, masks: Sequence[int]) -> list[Number]:
        """Every player's error in its own coalition, indexed by player,
        given the partition's block masks.  A one-player block is ``alone``
        inline, without a method call per player: a verdict on m singletons
        asks for m of them, and such verdicts hold the median rank of
        single-verdict latencies."""
        current: list[Number] = [0] * len(self.ns)
        memo, ns, error, shared = self.memo, self.ns, self.error, self.shared
        for mask in masks:
            if mask & (mask - 1):
                for j, err in self.filled(mask).items():
                    current[j] = err
            else:
                j = mask.bit_length() - 1
                err = memo[j].get(mask)
                if err is None:
                    n = ns[j]
                    terms = None if shared is None else shared([j], n)
                    err = memo[j][mask] = error(j, n, n * n, terms)
                current[j] = err
        return current


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


def _blocking_coalition(
    masks: Sequence[int],
    m: int,
    table: _ErrorTable,
    prefs: PreferenceOrder,
    strict_notion: bool,
) -> Optional[int]:
    """Mask of the first blocking coalition in ascending-bitmask order, if
    any, against the partition with block masks ``masks``, reading and
    filling the table's member memo.  The table's sum lists must cover all
    2^m masks (``_ErrorTable.extend(m)``).

    strict_notion=False: every member strictly gains (core blocking).
    strict_notion=True: every member weakly gains, at least one strictly.
    Members are asked about in ascending order, and a mask is settled by its
    first member who does not gain; later members' errors are not computed.
    A strict gain is also a weak one (``PreferenceOrder.bounds``).  On a
    memo miss, a scheme's ``floor`` may settle the member first: that member
    is neither evaluated nor memoised, and the shared term is not taken.  A
    floor that is the error (``Formula.floor_is_error``) is memoised as the
    error instead, and the member is never evaluated.
    """
    lower, upper = prefs.bounds(table.current_errors(masks))
    error, shared, floor, memo = table.error, table.shared, table.floor, table.memo
    totals, squares, rests = table.totals, table.squares, table.rests
    floor_is_error = floor is not None and table.floor_is_error
    for mask in range(1, 1 << m):
        low = mask & -mask
        j = low.bit_length() - 1
        rest = mask ^ low
        terms = total = None
        strict = False
        while True:
            err = memo[j].get(mask)
            if err is None:
                if floor_is_error:
                    err = memo[j][mask] = floor(j, totals[mask], squares[mask], rests[mask ^ low])
                else:
                    if floor is not None:
                        least = floor(j, totals[mask], squares[mask], rests[mask ^ low])
                        if least >= lower[j] and not (strict_notion and least <= upper[j]):
                            break
                    if total is None:
                        total = totals[mask]
                        if shared is not None:
                            terms = shared(_mask_members(mask), total)
                    err = memo[j][mask] = error(j, total, squares[mask], terms)
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


def _single_blocking_coalition(
    masks: Sequence[int],
    m: int,
    table: _ErrorTable,
    prefs: PreferenceOrder,
    strict_notion: bool,
) -> Optional[int]:
    """``_blocking_coalition`` for one partition on a fresh table of its
    own: the same mask, computed without a member memo.

    The scan extends the table's sum lists one top player at a time, only
    as far as it scans, and evaluates each member at most once.  It skips
    the partition's own blocks: their members' errors are the current ones,
    already filled for the bounds, so they cannot block.  ``memo`` ends up
    holding those blocks' errors only.  A scheme's ``floor`` settles members
    as in ``_blocking_coalition``, before the shared term is taken, and a
    floor that is the error is taken as the error.
    """
    lower, upper = prefs.bounds(table.current_errors(masks))
    error, shared, floor, ns = table.error, table.shared, table.floor, table.ns
    totals, squares, rests, addends = table.totals, table.squares, table.rests, table.addends
    own = set(masks)
    floor_is_error = floor is not None and table.floor_is_error
    # a shared term is taken on the visit to a mask; under a floor (every
    # scheme with one has a shared term) only for a member it does not settle
    eager = floor is None and shared is not None
    for top in range(m):
        # ``_ErrorTable.extend(top + 1)``, inline: a method call per level
        # shows on a verdict whose witness is among the first masks
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
            if table.alone(i) < lower[i]:
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
    table = _ErrorTable(config, scheme, prefs)
    if table.addends is not None and not table.floor_is_error:
        # a float floor over addends (fine-optimal) lies just below the
        # error, so it settles a member nearly where the error would, and
        # Bell(m) partitions come to need nearly every such error: asked on
        # each memo miss it would only add calls
        table.floor = None
    # Bell(m) partitions revisit the same masks: every mask's sums up front
    table.extend(m)
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
