"""The stable-set golden file: stable sets and verdicts with their witnesses.

``render()`` writes, over a fixed, seeded set of games (m <= 7; distinct
counts, an all-ties game, a two-size game and a linear-regression game),
for every stability scheme (local, uniform, coarse with weights,
coarse-optimal and fine-optimal) and both comparison modes:

* one line per notion with ``find_stable_partitions``' answer, each
  partition written as its tuple of block masks;
* one line per checked partition with the verdicts of the three notions
  (and individual stability without singleton deviations): ``None`` when
  stable, else the witness, a blocking coalition's mask or a deviation's
  ``(player, target mask)``.

Every partition is checked for m <= 4; for larger games a seeded sample,
plus the singletons and the grand coalition.  Exact comparisons, about
four times the cost of float ones, are rendered for m <= 6.  No line
depends on float ``sum()`` rounding: every float comparison made here lies
at least a relative 1e-9 from its decision edge.

Regenerate it (only when a change of answer is intended) with

    PYTHONPATH=src python tests/stable_sets_golden.py > tests/golden/stable_sets.txt
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from fedgame import (
    Coalition,
    Coarse,
    CoarseOptimal,
    FineOptimal,
    GameConfig,
    LinRegSpec,
    Local,
    Partition,
    PreferenceOrder,
    Uniform,
    enumerate_partitions,
    find_stable_partitions,
    is_core_stable,
    is_individually_stable,
    is_strict_core_stable,
)

GOLDEN = Path(__file__).parent / "golden" / "stable_sets.txt"
SEED = 20201009
SAMPLED_PARTITIONS = 16
FULL_CHECK_MAX_PLAYERS = 4
EXACT_MAX_PLAYERS = 6
NOTIONS = ("core", "strict", "individual")


def _games(rng: random.Random) -> Iterator[tuple[str, GameConfig]]:
    for m in range(1, 8):
        players = tuple(rng.randint(1, 40) for _ in range(m))
        mu_e = rng.choice((10, 100, rng.uniform(5.0, 200.0)))
        sigma_sq = rng.choice((1, 0.5, rng.uniform(0.05, 3.0)))
        yield f"mean m={m}", GameConfig(players, mu_e, sigma_sq)
    yield "all ties m=5", GameConfig((10,) * 5, 100, 10)
    yield "two sizes m=6", GameConfig((5, 5, 5, 5, 25, 25), 10, 1)
    yield "boundary m=5", GameConfig((4, 10, 10, 17, 30), Fraction(1), Fraction(1, 10))
    players = tuple(rng.randint(5, 60) for _ in range(4))
    yield "linreg m=4", GameConfig(players, rng.uniform(1.0, 50.0), 1, LinRegSpec(2, 0.5))


def _masks(partition: Partition) -> tuple[int, ...]:
    return tuple(c.mask for c in partition.coalitions)


def _witness(witness) -> object:
    if witness is None or isinstance(witness, Coalition):
        return witness and witness.mask
    return (witness.player, witness.target.mask)


def _checked(rng: random.Random, m: int) -> list[Partition]:
    every = list(enumerate_partitions(m))
    if m <= FULL_CHECK_MAX_PLAYERS:
        return every
    drawn = rng.sample(every, SAMPLED_PARTITIONS)
    return list(dict.fromkeys([Partition.singletons(m), Partition.grand(m)] + drawn))


def render(out=None) -> None:
    out = out or sys.stdout
    rng = random.Random(SEED)
    for label, config in _games(rng):
        m = len(config.players)
        schemes = (
            ("local", Local()),
            ("uniform", Uniform()),
            ("coarse", Coarse({j: rng.randint(0, 8) / 8 for j in range(m)})),
            ("coarse-optimal", CoarseOptimal()),
            ("fine-optimal", FineOptimal()),
        )
        checked = _checked(rng, m)
        for exact in (False, True)[: 1 + (m <= EXACT_MAX_PLAYERS)]:
            prefs = PreferenceOrder(exact=exact)
            for name, scheme in schemes:
                out.write(f"# {label} {prefs.mode} {name} {config!r}\n")
                for notion in NOTIONS:
                    found = find_stable_partitions(config, scheme, notion, prefs)
                    out.write(f"{notion}: {tuple(_masks(p) for p in found)}\n")
                for partition in checked:
                    args = (partition, scheme, config, prefs)
                    answers = (
                        is_core_stable(*args).witness,
                        is_strict_core_stable(*args).witness,
                        is_individually_stable(*args).witness,
                        is_individually_stable(*args, allow_singleton_deviation=False).witness,
                    )
                    out.write(f"{_masks(partition)} {tuple(map(_witness, answers))}\n")


if __name__ == "__main__":
    render()
