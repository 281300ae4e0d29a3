"""The member-error golden file: every member error of every coalition.

``render(errors_of)`` writes one line per member error over a fixed, seeded
set of games (m <= 6; mean estimation and linear regression; float and
exact parameters; every scheme, with Fine given valid rows per coalition).
``errors_of(coalition, scheme, config)`` returns ``{player: error}``; the
line holds the ``repr`` of each error, so any change in value or type shows.

The errors add floats left to right, never with ``sum()`` (which
compensates float rounding from CPython 3.12 on), so the file is the same
on every supported CPython.  Regenerate it (only when a change of value is
intended) with

    PYTHONPATH=src python tests/member_errors_golden.py > tests/golden/member_errors.txt
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

from fedgame import (
    Coalition,
    Coarse,
    CoarseOptimal,
    Fine,
    FineOptimal,
    GameConfig,
    LinRegSpec,
    Local,
    Uniform,
    enumerate_coalitions,
    exact_config,
    exact_scheme,
)

GOLDEN = Path(__file__).parent / "golden" / "member_errors.txt"
SEED = 20201002


def _games(rng: random.Random) -> Iterator[tuple[str, GameConfig]]:
    """Two mean-estimation and one linear-regression game per size."""
    for m in range(1, 7):
        for k in range(2):
            players = tuple(rng.randint(1, 60) for _ in range(m))
            mu_e = rng.choice((10, 100, 3.5, rng.uniform(0.5, 50.0)))
            sigma_sq = rng.choice((1, 0.25, 0.0, rng.uniform(0.01, 5.0)))
            yield f"mean m={m} #{k}", GameConfig(players, mu_e, sigma_sq)
        d = rng.randint(1, 3)
        players = tuple(rng.randint(d + 2, 80) for _ in range(m))
        linreg = LinRegSpec(d, rng.choice((1, 0.5, rng.uniform(0.01, 3.0))))
        yield f"linreg m={m}", GameConfig(players, rng.uniform(0.5, 50.0), 1, linreg)


def _fine_rows(rng: random.Random, coalition: Coalition) -> Fine:
    """Valid rows over the coalition: integer weights over their total."""
    rows = {}
    for j in coalition:
        weights = {i: rng.randint(1, 9) for i in coalition}
        total = sum(weights.values())
        rows[j] = {i: w / total for i, w in weights.items()}
    return Fine(rows)


def render(
    errors_of: Callable[[Coalition, object, GameConfig], dict], out=None
) -> None:
    out = out or sys.stdout
    rng = random.Random(SEED)
    for label, config in _games(rng):
        m = len(config.players)
        coarse = Coarse({j: rng.randint(0, 8) / 8 for j in range(m)})
        fine = {c.mask: _fine_rows(rng, c) for c in enumerate_coalitions(m)}
        for exact in (False, True):
            cfg = exact_config(config) if exact else config
            mode = "exact" if exact else "float"
            out.write(f"# {label} {mode} {cfg!r}\n")
            for coalition in enumerate_coalitions(m):
                schemes = (
                    ("local", Local()),
                    ("uniform", Uniform()),
                    ("coarse", coarse),
                    ("coarse-optimal", CoarseOptimal()),
                    ("fine", fine[coalition.mask]),
                    ("fine-optimal", FineOptimal()),
                )
                for name, scheme in schemes:
                    if exact:
                        scheme = exact_scheme(scheme)
                    errs = errors_of(coalition, scheme, cfg)
                    for j in coalition:
                        out.write(f"{coalition.members} {name} {j} {errs[j]!r}\n")


if __name__ == "__main__":
    from fedgame import coalition_member_mse

    render(lambda c, s, cfg: {j: coalition_member_mse(j, c, s, cfg) for j in c})
