"""The benchmark's four workloads: seeded inputs, the queries, their checks.

``build(name, seed, out_dir)`` returns a ``Workload``: a fixed list of queries
(each calls the program once and returns its answer in a plain, comparable
form) and a ``check`` that judges those answers against ``oracle`` and the
paper's anchors.

The seed varies the numbers, not the amount of work.  Each query slot fixes
its sizes and the shape of its game (which players sit below the threshold
``mu_e/sigma_sq``, in ascending order); the seed draws the sample counts and
parameters inside that shape.  Where a slot needs a particular outcome to
keep its work fixed (a verdict that must scan every coalition, a two-size
arrangement whose searches must run to the end), the draw is repeated until
the oracle confirms the outcome.  So the per-layer counts repeat exactly
from seed to seed, and the timings move with the host, not with the inputs.

Program calls go through module attributes (``stability.find_stable_partitions``
and so on), so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

import oracle as O
from fedgame import cli, constructive, stability
from fedgame.model import (
    CoarseOptimal,
    Coalition,
    FineOptimal,
    GameConfig,
    LinRegSpec,
    Partition,
    TwoSizeGame,
    Uniform,
)

WORKLOADS = ("stable-sets", "verdicts", "two-size", "cli")

SCHEME = {"uniform": Uniform(), "coarse-optimal": CoarseOptimal(), "fine-optimal": FineOptimal()}
VERDICT = {
    "core": "is_core_stable",
    "strict": "is_strict_core_stable",
    "individual": "is_individually_stable",
}
LETTERS = "abcdefghijklm"


class Query(NamedTuple):
    name: str
    run: Callable[[], object]
    # cli only: the same command through fedgame.cli.main in this process
    run_in_process: Optional[Callable[[], object]] = None


class Workload(NamedTuple):
    queries: list
    check: Callable[[list], list]  # answers -> per query, does it hold?
    child_peak_kb: list  # cli only: peak RSS of every child run


class _Plan:
    """Queries with their expected answers and cross-query relations."""

    def __init__(self) -> None:
        self.queries: list[Query] = []
        self.expected: list[Callable[[object], bool]] = []
        self.relations: list[tuple[int, int, Callable[[object, object], bool]]] = []

    def add(self, query: Query, holds: Callable[[object], bool]) -> int:
        self.queries.append(query)
        self.expected.append(holds)
        return len(self.queries) - 1

    def workload(self, child_peak_kb: Optional[list] = None) -> Workload:
        def check(answers: list) -> list[bool]:
            ok = [holds(a) for holds, a in zip(self.expected, answers)]
            for i, j, rel in self.relations:
                ok[j] = ok[j] and rel(answers[i], answers[j])
            return ok

        return Workload(self.queries, check, child_peak_kb if child_peak_kb is not None else [])


def _equals(expected: Callable[[], object]) -> Callable[[object], bool]:
    return lambda answer: answer == expected()


def build(name: str, seed: int, out_dir: Path) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "stable-sets":
        return _stable_sets(rng)
    if name == "verdicts":
        return _verdicts(rng)
    if name == "two-size":
        return _two_size(rng)
    if name == "cli":
        return _cli(rng, seed, out_dir)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


# --- seeded games ---------------------------------------------------------------


def _game(rng: random.Random, m: int, small: int, linreg: bool = False) -> O.Game:
    """m distinct counts in ascending order: ``small`` of them below the
    threshold T = mu_e/sigma_sq (in [0.2T, 0.8T)), the rest above it (in
    [1.5T, 4T)).  Linear-regression games (d=2, sigma_bias_sq = sigma_sq)
    draw T from a higher range, keep every count at 8 or more, and put the
    large counts in [2.5T, 5T), above their threshold d*T."""
    threshold = rng.uniform(30.0, 60.0) if linreg else rng.uniform(15.0, 35.0)
    mu_e = rng.uniform(10.0, 30.0)
    sigma_sq = mu_e / threshold
    lo = max(8 if linreg else 3, int(0.2 * threshold))
    large = (2.5, 5.0) if linreg else (1.5, 4.0)
    counts = rng.sample(range(lo, int(0.8 * threshold)), small)
    counts += rng.sample(range(int(large[0] * threshold), int(large[1] * threshold)), m - small)
    return O.Game(tuple(sorted(counts)), mu_e, sigma_sq, (2, sigma_sq) if linreg else None)


def _all_ties(rng: random.Random, m: int) -> O.Game:
    """Equal counts at n = mu_e/sigma_sq: every coalition gives every member
    the same error.  sigma_sq is a multiple of 1/8, so the tie is exact."""
    n = rng.randint(5, 30)
    sigma_sq = rng.randint(4, 16) / 8
    return O.Game((n,) * m, n * sigma_sq, sigma_sq)


def _config(game: O.Game) -> GameConfig:
    lr = None if game.linreg is None else LinRegSpec(*game.linreg)
    return GameConfig(tuple(game.players), game.mu_e, game.sigma_sq, lr)


def _masks(partition: Partition) -> tuple:
    return tuple(c.mask for c in partition.coalitions)


def _partition(blocks: Sequence[int]) -> Partition:
    return Partition(tuple(Coalition.from_mask(b) for b in blocks))


# --- stable-sets ----------------------------------------------------------------

# (m, scheme, notions, exact) per seeded game.  Uniform games put every
# player below the threshold, optimal-scheme games three of them: in these
# shapes the search's scan length varies by a few per cent across seeds.
STABLE_SETS = (
    (7, "uniform", ("core", "strict", "individual"), False),
    (7, "coarse-optimal", ("core", "strict", "individual"), False),
    (7, "fine-optimal", ("core", "strict", "individual"), False),
    (8, "uniform", ("core",), False),
    (8, "coarse-optimal", ("strict",), False),
    (8, "fine-optimal", ("individual",), False),
    (7, "uniform", ("core", "strict"), True),
    (6, "coarse-optimal", ("core",), True),
    (6, "fine-optimal", ("strict",), True),
)

# The paper's three-player tables (mu_e=10, sigma_sq=1), uniform, core.
ANCHORS = (
    ((5, 5, 5), ((0b111,),)),
    ((5, 5, 25), ((0b011, 0b100),)),
    ((25, 25, 25), ((0b001, 0b010, 0b100),)),
)


def _find(game: O.Game, scheme: str, notion: str, exact: bool) -> Callable[[], tuple]:
    config = _config(game)
    prefs = stability.PreferenceOrder(exact=exact)

    def run() -> tuple:
        found = stability.find_stable_partitions(config, SCHEME[scheme], notion, prefs)
        return tuple(_masks(p) for p in found)

    return run


def _stable_sets(rng: random.Random) -> Workload:
    plan = _Plan()
    for m, scheme, notions, exact in STABLE_SETS:
        game = _game(rng, m, m if scheme == "uniform" else 3)
        index = {}
        for notion in notions:
            name = f"{scheme}/{notion}/m={m}" + ("/exact" if exact else "")
            expected = _equals(
                lambda g=game, n=notion, s=scheme, e=exact: tuple(O.stable_partitions(g, s, n, e))
            )
            index[notion] = plan.add(Query(name, _find(game, scheme, notion, exact)), expected)
        if "core" in index and "strict" in index:  # strict-core stable implies core stable
            plan.relations.append(
                (index["core"], index["strict"], lambda core, strict: set(strict) <= set(core))
            )
    for m, notion, exact in ((7, "core", False), (6, "strict", True)):
        name = f"all-ties/{notion}/m={m}" + ("/exact" if exact else "")
        every = tuple(O.partitions(m))
        plan.add(
            Query(name, _find(_all_ties(rng, m), "uniform", notion, exact)),
            lambda a, every=every, m=m: a == every and len(a) == O.bell(m),
        )
    for players, answer in ANCHORS:
        game = O.Game(players, 10.0, 1.0)
        expected = tuple(O.stable_partitions(game, "uniform", "core", False))
        plan.add(
            Query(f"anchor{players}", _find(game, "uniform", "core", False)),
            lambda a, answer=answer, expected=expected: a == answer == expected,
        )
    return plan.workload()


# --- verdicts -------------------------------------------------------------------


def _pair_blocks(game: O.Game, scheme: str) -> bool:
    """Both of the two smallest players strictly gain in {a,b} over being alone."""
    table = O.error_table(game, scheme, masks=[1, 2, 3])
    return all(
        O.strictly_less(table[3, j], table[1 << j, j], exact=False) for j in (0, 1)
    )


def _draw(make: Callable[[], object], accept: Callable[[object], bool]):
    """Draw until the oracle confirms the slot's outcome, clear of its margin."""
    while True:
        game = make()
        try:
            if accept(game):
                return game
        except O.Ambiguous:
            pass


def _verdict_answer(verdict) -> tuple:
    w = verdict.witness
    if w is None:
        return verdict.stable, None
    if isinstance(w, Coalition):
        return verdict.stable, w.mask
    return verdict.stable, (w.player, w.target.mask)


def _verdict(game: O.Game, scheme: str, notion: str, blocks: tuple) -> Callable[[], tuple]:
    config = _config(game)
    partition = _partition(blocks)

    def run() -> tuple:
        return _verdict_answer(getattr(stability, VERDICT[notion])(partition, SCHEME[scheme], config))

    return run


def _verdicts(rng: random.Random) -> Workload:
    plan = _Plan()

    def grand(m):
        return ((1 << m) - 1,)

    def alone(m):
        return tuple(1 << i for i in range(m))

    def add(game, scheme, notion, blocks, tag, expect_stable, witness=None):
        m = len(game.players)
        name = f"{scheme}{'+linreg' if game.linreg else ''}/{notion}/m={m}/{tag}"

        def holds(answer, g=game):
            return (
                answer == O.verdict(g, scheme, notion, blocks, exact=False)
                and answer[0] == expect_stable
                and (witness is None or answer[1] == witness)
            )

        plan.add(Query(name, _verdict(game, scheme, notion, blocks)), holds)

    # Stable partitions: the verdict scans every coalition.  Games are redrawn
    # until the oracle finds the partition strictly core stable (so core
    # stable too): the grand coalition under optimal federation, and
    # singletons of large players in linear-regression games.
    for m, scheme, blocks, tag, linreg in (
        (12, "coarse-optimal", grand(12), "grand", False),
        (11, "fine-optimal", grand(11), "grand", False),
        (12, "uniform", alone(12), "stable-singletons", True),
    ):
        game = _draw(
            lambda: _game(rng, m, 0 if linreg else 3, linreg),
            lambda g: O.verdict(g, scheme, "strict", blocks, exact=False)[0],
        )
        for notion in ("core", "strict"):
            add(game, scheme, notion, blocks, tag, True)

    # Early witnesses: singletons are blocked by {a,b}, the third mask.
    for m, scheme, notion in (
        (12, "coarse-optimal", "core"),
        (13, "coarse-optimal", "strict"),
        (13, "fine-optimal", "core"),
        (14, "fine-optimal", "strict"),
    ):
        add(_game(rng, m, 3), scheme, notion, alone(m), "singletons", False, witness=3)
    for m, notion, linreg in (
        (12, "core", False),
        (13, "strict", False),
        (12, "core", True),
        (14, "strict", True),
    ):
        game = _draw(lambda: _game(rng, m, m // 2, linreg), lambda g: _pair_blocks(g, "uniform"))
        add(game, "uniform", notion, alone(m), "singletons", False, witness=3)

    # Individual stability: nobody leaves the grand coalition under optimal
    # federation; on singletons, player a joins b.
    add(_game(rng, 13, 3), "coarse-optimal", "individual", grand(13), "grand", True)
    add(_game(rng, 14, 3), "fine-optimal", "individual", grand(14), "grand", True)
    for m, linreg in ((13, False), (12, True)):
        game = _draw(lambda: _game(rng, m, m // 2, linreg), lambda g: _pair_blocks(g, "uniform"))
        add(game, "uniform", "individual", alone(m), "singletons", False, witness=(0, 3))
    return plan.workload()


# --- two-size -------------------------------------------------------------------

COUNTEREXAMPLE = O.TwoSize(n_s=11, n_l=106, S=70, L=7, mu_e=100.0, sigma_sq=1.0)
COUNTEREXAMPLE_ARRANGEMENT = ((70, 3),) + ((0, 1),) * 4


def _two_size_inputs(g: O.TwoSize, exact: bool):
    game = TwoSizeGame(g.n_s, g.n_l, g.S, g.L)
    config = constructive.two_size_game_config(game, g.mu_e, g.sigma_sq)
    return game, config, stability.PreferenceOrder(exact=exact)


def _construct(g: O.TwoSize, scheme: str, exact: bool) -> Callable[[], tuple]:
    game, config, prefs = _two_size_inputs(g, exact)
    fn = "construct_individually_stable_uniform" if scheme == "uniform" else "construct_strict_core_coarse"

    def run() -> tuple:
        return getattr(constructive, fn)(game, config, prefs).profiles

    return run


def _search(g: O.TwoSize, arrangement: tuple, scheme: str, kind: str, exact: bool) -> Callable[[], object]:
    game, config, prefs = _two_size_inputs(g, exact)
    fn = {
        "core": stability.two_size_blocking_search,
        "strict": stability.two_size_weak_blocking_search,
        "individual": stability.two_size_individually_stable,
    }[kind].__name__

    def run():
        found = getattr(stability, fn)(game, arrangement, SCHEME[scheme], config, prefs)
        if kind == "individual" and found is not None:
            return found.role, found.source, found.target
        return found

    return run


def _expected_search(g: O.TwoSize, arrangement, scheme: str, kind: str, exact: bool):
    if kind == "individual":
        return O.two_size_deviation(g, arrangement, scheme, exact)
    return O.two_size_blocking(g, arrangement, scheme, exact, weak_notion=kind == "strict")


def _larges_stay_alone(g: O.TwoSize) -> bool:
    """No large player weakly prefers joining all the smalls to being alone,
    so the uniform construction is pi(S,0) plus L singletons."""
    _, err_l = O.two_size_grid(g, "uniform", g.S, g.L)
    return bool(np.all(~O.weakly_less(err_l[g.S, 1:], err_l[0, 1], exact=False)))


def _seeded_two_size(rng: random.Random, S: int, L: int) -> O.TwoSize:
    n_l = rng.randint(90, 130)
    return O.TwoSize(rng.randint(8, 14), n_l, S, L, rng.uniform(80.0, 0.95 * n_l), rng.uniform(0.95, 1.05))


def _two_size(rng: random.Random) -> Workload:
    plan = _Plan()

    def add_search(g, arrangement, scheme, kind, exact, tag, *anchor):
        """A search query; ``anchor``, if given, is the paper's answer."""
        name = f"{tag}/{kind}" + ("/exact" if exact else "")

        def holds(answer):
            expected = _expected_search(g, arrangement, scheme, kind, exact)
            return answer == expected and all(answer == a for a in anchor)

        plan.add(Query(name, _search(g, arrangement, scheme, kind, exact)), holds)

    # The paper's counterexample: pi(70,3) + 4 singletons is individually
    # stable and blocked by pi(68,4).
    for exact in (False, True):
        g = COUNTEREXAMPLE
        plan.add(
            Query("counterexample/construct" + ("/exact" if exact else ""), _construct(g, "uniform", exact)),
            lambda a, g=g, exact=exact: a == COUNTEREXAMPLE_ARRANGEMENT
            and O.two_size_deviation(g, a, "uniform", exact) is None,
        )
        add_search(g, COUNTEREXAMPLE_ARRANGEMENT, "uniform", "individual", exact, "counterexample", None)
        add_search(g, COUNTEREXAMPLE_ARRANGEMENT, "uniform", "core", exact, "counterexample", (68, 4))
    # From singletons several profiles block on the first row; the answer
    # pins the scan order (s descending, then l ascending).
    singletons = ((1, 0),) * COUNTEREXAMPLE.S + ((0, 1),) * COUNTEREXAMPLE.L
    add_search(COUNTEREXAMPLE, singletons, "uniform", "core", False, "counterexample-singletons", (70, 0))

    # Scaled uniform game: larges stay alone, and no profile blocks the
    # constructed arrangement, so both searches scan every profile.
    def stable_everywhere(g, arrangement, scheme):
        kinds = ("individual", "core", "strict")
        return all(_expected_search(g, arrangement, scheme, kind, False) is None for kind in kinds)

    S, L = 500, 50
    arrangement = ((S, 0),) + ((0, 1),) * L
    g = _draw(
        lambda: _seeded_two_size(rng, S, L),
        lambda g: _larges_stay_alone(g) and stable_everywhere(g, arrangement, "uniform"),
    )
    plan.add(
        Query(f"uniform-{S}x{L}/construct", _construct(g, "uniform", False)),
        lambda a, g=g, want=arrangement: a == want and O.two_size_deviation(g, a, "uniform", False) is None,
    )
    for kind in ("individual", "core", "strict"):
        add_search(g, arrangement, "uniform", kind, False, f"uniform-{S}x{L}")

    # Scaled optimal-coarse games: the construction is strictly core stable,
    # so the searches scan every profile.  Draws where the smalls would split
    # off are redrawn, so the construction is always the grand coalition.
    def grand_is_built(g):
        err_s, _ = O.two_size_grid(g, "coarse-optimal", g.S, g.L)
        return not O.strictly_less(err_s[g.S, 0], err_s[g.S, g.L], exact=False) and stable_everywhere(
            g, ((g.S, g.L),), "coarse-optimal"
        )

    for (S, L), exact, kinds in (
        ((300, 100), False, ("strict", "core", "individual")),
        ((150, 15), True, ("strict",)),
    ):
        g = _draw(lambda: _seeded_two_size(rng, S, L), grand_is_built)
        grand = ((S, L),)
        tag = f"coarse-{S}x{L}"
        plan.add(
            Query(tag + "/construct" + ("/exact" if exact else ""), _construct(g, "coarse-optimal", exact)),
            lambda a, g=g, exact=exact, want=grand: a == want
            and O.two_size_blocking(g, a, "coarse-optimal", exact, weak_notion=True) is None,
        )
        for kind in kinds:
            add_search(g, grand, "coarse-optimal", kind, exact, tag)
    return plan.workload()


# --- cli ------------------------------------------------------------------------

BATTERY_TRIALS = 8192

# The agreement battery's twelve cases (mu_e=10, sigma_sq=1, linear
# regression with sigma_bias_sq=1): label -> (players, d, row, player).  A
# row is a scheme name, a coarse weight, or an explicit weight row.
BATTERY = {
    "mean local n=5": ((5,), None, "local", 0),
    "mean uniform grand (5,5,5)": ((5, 5, 5), None, "uniform", 0),
    "mean uniform grand (5,5,5), uniform families": ((5, 5, 5), None, "uniform", 0),
    "mean uniform grand (5,5,25) for c, lognormal thetas": ((5, 5, 25), None, "uniform", 2),
    "mean coarse w=0.5 (5,5,25) for a": ((5, 5, 25), None, 0.5, 0),
    "mean optimal coarse (30,30,30,300) for a": ((30, 30, 30, 300), None, "coarse-optimal", 0),
    "mean optimal fine (30,30,30,300) for d, uniform families": ((30, 30, 30, 300), None, "fine-optimal", 3),
    "mean fine indicator (5,5) for a, gamma noise-variance": ((5, 5), None, {0: 1.0, 1: 0.0}, 0),
    "linreg local n=30 d=3": ((30,), 3, "local", 0),
    "linreg uniform (30,30) d=2": ((30, 30), 2, "uniform", 0),
    "linreg coarse w=0.3 (30,40) d=2": ((30, 40), 2, 0.3, 0),
    "linreg fine (30,40,50) d=2": ((30, 40, 50), 2, {0: 0.6, 1: 0.25, 2: 0.15}, 0),
}

# A correct simulator's z-score at the battery's trial count stays inside
# this bound except with probability about 1e-6 per case.
Z_BOUND = 5.0


def _battery_closed_form(label: str) -> float:
    players, d, spec, j = BATTERY[label]
    game = O.Game(players, 10.0, 1.0, None if d is None else (d, 1.0))
    n = np.asarray(players, dtype=float)
    uniform = {i: float(n[i] / n.sum()) for i in range(len(players))}
    everyone = range(len(players))
    if spec == "local":
        row = {j: 1.0}
    elif spec == "uniform":
        row = uniform
    elif spec == "coarse-optimal":
        w = O.optimal_coarse_weight(game, everyone, j)
        row = {i: (1 - w) * u + (w if i == j else 0.0) for i, u in uniform.items()}
    elif spec == "fine-optimal":
        row = O.optimal_fine_row(game, everyone, j)
    elif isinstance(spec, float):
        row = {i: (1 - spec) * u + (spec if i == j else 0.0) for i, u in uniform.items()}
    else:
        row = spec
    return O.row_error(game, row, j)


def _fmt(value: float) -> str:
    return f"{float(value):.6f}"


def _letters(mask: int) -> str:
    return "{" + ",".join(LETTERS[i] for i in range(13) if mask >> i & 1) + "}"


def _parse_partition(text: str) -> tuple:
    blocks = []
    for piece in text.split("|"):
        blocks.append(sum(1 << LETTERS.index(t) for t in piece.strip("{}").split(",")))
    return tuple(sorted(blocks, key=lambda b: b & -b))


def _table(lines: list[str]) -> tuple[list[str], list[list[str]]]:
    return lines[0].split(), [line.split() for line in lines[1:]]


def _cli_game(rng: random.Random, m: int, small: int) -> O.Game:
    """Counts and parameters whose printed errors all stay below 10, so every
    cell has the same width and the output length does not depend on the seed."""
    threshold = rng.uniform(10.0, 20.0)
    mu_e = round(rng.uniform(5.0, 15.0), 3)
    sigma_sq = round(mu_e / threshold, 4)
    counts = rng.sample(range(max(3, int(0.3 * threshold)), int(0.8 * threshold)), small)
    counts += rng.sample(range(int(1.5 * threshold), int(3 * threshold)), m - small)
    return O.Game(tuple(sorted(counts)), mu_e, sigma_sq)


def _game_args(game: O.Game) -> list[str]:
    players = ",".join(map(str, game.players))
    return ["--players", players, "--mue", repr(game.mu_e), "--sigma2", repr(game.sigma_sq)]


def _check_reproduce(text: str) -> bool:
    sections = text.strip("\n").split("\n\n")
    title = re.compile(
        r"Table (\d): (uniform|optimal coarse-grained|optimal fine-grained) federation, "
        r"players with ([\d,]+) samples \(mu_e=(\d+), sigma_sq=(\d+)\)"
    )
    scheme_of = {
        "uniform": "uniform",
        "optimal coarse-grained": "coarse-optimal",
        "optimal fine-grained": "fine-optimal",
    }
    seen = []
    for section in sections[:-1]:
        lines = section.split("\n")
        match = title.fullmatch(lines[0])
        if match is None:
            return False
        seen.append(int(match.group(1)))
        players = tuple(int(t) for t in match.group(3).split(","))
        game = O.Game(players, float(match.group(4)), float(match.group(5)))
        table = O.error_table(game, scheme_of[match.group(2)])
        header, rows = _table(lines[1:])
        shown = [LETTERS.index(h[len("err_"):]) for h in header[1:]]
        for row in rows:
            blocks = _parse_partition(row[0])
            owner = {j: b for b in blocks for j in range(len(players)) if b >> j & 1}
            if row[1:] != [_fmt(table[owner[j], j]) for j in shown]:
                return False
    if seen != [1, 2, 3, 4, 5]:
        return False
    # The counterexample: every quantity, then the paper's verdicts.
    lines = sections[-1].split("\n")
    g = COUNTEREXAMPLE
    err_s, err_l = O.two_size_grid(g, "uniform", g.S + 1, g.L + 1)
    _, rows = _table(lines[1:-3])
    for name, value in rows:
        role, s, l = re.fullmatch(r"err_([sl])\(pi\((\d+),(\d+)\)\)", name).groups()
        grid = err_s if role == "s" else err_l
        if value != _fmt(grid[int(s), int(l)]):
            return False
    blocked = O.two_size_blocking(g, COUNTEREXAMPLE_ARRANGEMENT, "uniform", False, weak_notion=False)
    return (
        lines[-3:]
        == [
            "constructed: pi(70,3) + 4 singletons",
            "individually stable: yes",
            "core stable: no (blocked by pi(68,4))",
        ]
        and O.two_size_deviation(g, COUNTEREXAMPLE_ARRANGEMENT, "uniform", False) is None
        and blocked == (68, 4)
    )


def _check_errors_table(text: str, game: O.Game, scheme: str) -> bool:
    m = len(game.players)
    table = O.error_table(game, scheme)
    header, rows = _table(text.strip("\n").split("\n"))
    if header != ["structure"] + [f"err_{LETTERS[j]}" for j in range(m)]:
        return False
    if [_parse_partition(r[0]) for r in rows] != O.partitions(m):
        return False
    for row in rows:
        owner = {j: b for b in _parse_partition(row[0]) for j in range(m) if b >> j & 1}
        if row[1:] != [_fmt(table[owner[j], j]) for j in range(m)]:
            return False
    return True


def _check_weights(text: str, game: O.Game) -> bool:
    m = len(game.players)
    full = (1 << m) - 1
    coarse = O.error_table(game, "coarse-optimal", masks=[full])
    fine = O.error_table(game, "fine-optimal", masks=[full])
    lines = text.strip("\n").split("\n")
    header, rows = _table(lines[: m + 1])
    if header != ["player", "w_opt", "coarse_opt_mse", "fine_opt_mse"] or len(rows) != m:
        return False
    for j, row in enumerate(rows):
        w_opt = O.optimal_coarse_weight(game, range(m), j)
        if row != [LETTERS[j], _fmt(w_opt), _fmt(coarse[full, j]), _fmt(fine[full, j])]:
            return False
    for j, line in enumerate(lines[m + 1:]):
        row = O.optimal_fine_row(game, range(m), j)
        want = f"v[{LETTERS[j]}]: " + " ".join(f"{LETTERS[i]}={_fmt(v)}" for i, v in sorted(row.items()))
        if line != want:
            return False
    return len(lines) == 2 * m + 1


def _check_player_errors(text: str, game: O.Game, blocks: tuple) -> bool:
    m = len(game.players)
    table = O.error_table(game, "uniform")
    owner = {j: b for b in blocks for j in range(m) if b >> j & 1}
    header, rows = _table(text.strip("\n").split("\n"))
    want = [[LETTERS[j], _fmt(table[owner[j], j])] for j in range(m)]
    return header == ["player", "err"] and rows == want


def _check_battery(text: str) -> bool:
    header, rows = _table(text.strip("\n").split("\n"))
    if header != ["case", "closed_form", "empirical", "se", "z"] or len(rows) != len(BATTERY):
        return False
    labels = set()
    for row in rows:
        label = " ".join(row[:-4])
        closed, _, se, z = row[-4:]
        if label not in BATTERY or closed != _fmt(_battery_closed_form(label)):
            return False
        if not float(se) > 0 or not abs(float(z)) < Z_BOUND:
            return False
        labels.add(label)
    return labels == set(BATTERY)


def _command(name: str, argv: list[str], root: Path, child_peak_kb: list) -> Query:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    args = [sys.executable, "-m", "fedgame.cli", *argv]

    def run() -> tuple:
        proc = subprocess.Popen(
            args, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
        )
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        child_peak_kb.append(usage.ru_maxrss)
        return proc.returncode, out.decode()

    def run_in_process() -> tuple:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(list(argv))
        return code, buffer.getvalue()

    return Query(name, run, run_in_process)


def _cli(rng: random.Random, seed: int, out_dir: Path) -> Workload:
    root = Path(cli.__file__).resolve().parents[2]
    plan = _Plan()
    peaks: list = []

    def add(name: str, argv: list[str], holds: Callable[[str], bool]) -> None:
        plan.add(_command(name, argv, root, peaks), lambda a: a[0] == 0 and holds(a[1]))

    add("reproduce", ["reproduce", "--all"], _check_reproduce)

    # One core-stable partition with three blocks, so the listing's length
    # does not depend on the seed.
    game = _draw(
        lambda: _cli_game(rng, 5, 3),
        lambda g: [len(p) for p in O.stable_partitions(g, "uniform", "core", False)] == [3],
    )
    add(
        "stability-enumerate",
        ["stability", *_game_args(game), "--scheme", "uniform", "--enumerate", "--notion", "core"],
        lambda out, g=game: tuple(map(_parse_partition, out.split()))
        == tuple(O.stable_partitions(g, "uniform", "core", False)),
    )

    game = _cli_game(rng, 5, 3)
    alone = tuple(1 << i for i in range(5))

    def blocked_by_pair(out, g=game):
        _, witness = O.verdict(g, "coarse-optimal", "strict", alone, exact=False)
        return out == f"unstable (blocking coalition {_letters(witness)})\n"

    add(
        "stability-verdict",
        ["stability", *_game_args(game), "--scheme", "coarse-optimal",
         "--partition", "|".join(map(_letters, alone)), "--notion", "strict"],
        blocked_by_pair,
    )

    game = _cli_game(rng, 4, 2)
    add(
        "errors-table",
        ["errors", *_game_args(game), "--scheme", "fine-optimal"],
        lambda out, g=game: _check_errors_table(out, g, "fine-optimal"),
    )

    game = _cli_game(rng, 4, 2)
    add("weights", ["weights", *_game_args(game)], lambda out, g=game: _check_weights(out, g))

    # Linear regression from a JSON config document.
    base = _cli_game(rng, 4, 2)
    game = O.Game(tuple(n + 8 for n in base.players), base.mu_e, base.sigma_sq, (2, base.sigma_sq))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"cli-{seed}.json"
    path.write_text(json.dumps({
        "players": list(game.players), "mu_e": game.mu_e, "sigma_sq": game.sigma_sq,
        "scheme": "uniform", "linreg": {"d": 2, "sigma_bias_sq": game.sigma_sq},
    }))
    add(
        "errors-linreg",
        ["errors", "--config", str(path), "--partition", "{a,b}|{c,d}"],
        lambda out, g=game: _check_player_errors(out, g, (0b0011, 0b1100)),
    )

    battery = ["verify", "--battery", "--trials", str(BATTERY_TRIALS), "--seed", str(seed % 2**32)]
    add("verify-battery", battery, _check_battery)
    return plan.workload(peaks)
