"""The two-size witness golden file: every answer of the three profile searches.

``render()`` writes one line per arrangement over a fixed, seeded set of
two-size games (S <= 8, L <= 5; uniform and optimal coarse-grained
federation; float and exact comparisons; parameters at the n_s and n_l
ties mu_e/sigma_sq included).  Each line holds the ``repr`` of the answers
of ``two_size_blocking_search``, ``two_size_weak_blocking_search`` and
``two_size_individually_stable`` (with and without singleton deviations),
so a different first witness shows, not only a different verdict.

Regenerate it (only when a change of answer is intended) with

    PYTHONPATH=src python tests/two_size_witnesses_golden.py > tests/golden/two_size_witnesses.txt
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from fedgame import (
    CoarseOptimal,
    PreferenceOrder,
    TwoSizeGame,
    Uniform,
    two_size_blocking_search,
    two_size_game_config,
    two_size_individually_stable,
    two_size_weak_blocking_search,
)

GOLDEN = Path(__file__).parent / "golden" / "two_size_witnesses.txt"
SEED = 20201004
ARRANGEMENTS_PER_GAME = 4


def _games(rng: random.Random) -> Iterator[tuple[TwoSizeGame, object, object]]:
    """(game, mu_e, sigma_sq): random games, then games at each tie."""
    for _ in range(8):
        n_s = rng.randint(1, 30)
        game = TwoSizeGame(n_s, rng.randint(n_s + 1, 120), rng.randint(0, 8), rng.randint(1, 5))
        yield game, rng.choice((10, 100, rng.uniform(1.0, 80.0))), rng.choice((1, 0.5, 0.0))
    for _ in range(4):
        n_s = rng.randint(2, 20)
        n_l = rng.randint(n_s + 1, 60)
        S, L = rng.randint(1, 8), rng.randint(1, 5)
        yield TwoSizeGame(n_s, n_l, S, L), n_s, 1  # small-player tie
        yield TwoSizeGame(n_s, n_l, S, L), Fraction(n_l, 10), Fraction(1, 10)  # large tie
        yield TwoSizeGame(n_s, n_l, S, L), n_s * 0.1, 0.1  # small tie, rounded
    yield TwoSizeGame(5, 25, 2, 1), 10, 1


def _random_arrangement(rng: random.Random, game: TwoSizeGame) -> tuple[tuple[int, int], ...]:
    """Deal the smalls and larges into random non-empty blocks."""
    players = ["s"] * game.S + ["l"] * game.L
    rng.shuffle(players)
    blocks: list[list[int]] = []
    for role in players:
        if not blocks or rng.random() < 0.4:
            blocks.append([0, 0])
            block = blocks[-1]
        else:
            block = rng.choice(blocks)
        block[role == "l"] += 1
    return tuple(sorted((tuple(b) for b in blocks), reverse=True))


def _arrangements(rng: random.Random, game: TwoSizeGame) -> list[tuple[tuple[int, int], ...]]:
    fixed = [
        ((game.S, game.L),),
        ((1, 0),) * game.S + ((0, 1),) * game.L,
    ]
    if game.S and game.L:
        fixed.append(((game.S, 0), (0, game.L)))
        fixed.append(((game.S, 1),) + ((0, 1),) * (game.L - 1))
    drawn = [_random_arrangement(rng, game) for _ in range(ARRANGEMENTS_PER_GAME)]
    return list(dict.fromkeys(fixed + drawn))


def render(out=None) -> None:
    out = out or sys.stdout
    rng = random.Random(SEED)
    for game, mu_e, sigma_sq in _games(rng):
        config = two_size_game_config(game, mu_e, sigma_sq)
        arrangements = _arrangements(rng, game)
        for exact in (False, True):
            prefs = PreferenceOrder(exact=exact)
            for name, scheme in (("uniform", Uniform()), ("coarse-optimal", CoarseOptimal())):
                out.write(f"# {game!r} mu_e={mu_e!r} sigma_sq={sigma_sq!r} {prefs.mode} {name}\n")
                for arrangement in arrangements:
                    args = (game, arrangement, scheme, config, prefs)
                    answers = (
                        two_size_blocking_search(*args),
                        two_size_weak_blocking_search(*args),
                        two_size_individually_stable(*args),
                        two_size_individually_stable(*args, allow_singleton_deviation=False),
                    )
                    out.write(f"{arrangement} " + " ".join(map(repr, answers)) + "\n")


if __name__ == "__main__":
    render()
