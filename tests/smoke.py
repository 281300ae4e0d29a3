"""A record, verdict and start-up smoke check that needs no pytest.

``RECORDS`` builds every public record by keyword and by position, with the
repr both must print; ``check_*`` assert how a record behaves, and
``tests/test_records.py`` runs the same checks under pytest.
``check_verdicts`` asks known verdicts, in float and exact mode: full scans
of an optimal grand coalition and of linear-regression singletons under
uniform and coarse federation among them, and the stable-set search on the
paper's three anchor populations.  ``check_two_size`` asks
the paper's two-size counterexample, as ``fedgame reproduce --all`` prints
it, in float and exact mode.  ``check_float_range`` asks errors and
verdicts whose counts are beyond the float range.
``check_start_up`` runs each closed-form command in a fresh interpreter and
asserts that it exits 0 without loading a module of ``SLOW_STDLIB``.  Run
it from the repository root on any supported CPython; without numpy it
leaves out the Monte Carlo records:

    PYTHONPATH=src:tests python3.12 tests/smoke.py

It prints one line per part and exits non-zero on the first failure.
"""

from __future__ import annotations

import copy
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

from fractions import Fraction

from fedgame import (
    Coalition,
    Coarse,
    CoarseOptimal,
    Deviation,
    ErrorReport,
    Fine,
    FineOptimal,
    FineWeights,
    GameConfig,
    LinRegSpec,
    Local,
    Partition,
    PreferenceOrder,
    Prescription,
    ProfilePartition,
    RegimeClassification,
    StabilityVerdict,
    TwoSizeDeviation,
    TwoSizeGame,
    Uniform,
    ValidationError,
    coalition_errors,
    find_stable_partitions,
    is_core_stable,
    is_individually_stable,
    is_strict_core_stable,
    construct_individually_stable_uniform,
    two_size_blocking_search,
    two_size_errors,
    two_size_game_config,
    two_size_individually_stable,
)
from fedgame.cli import format_profiles

PAIR = Coalition((0, 1))
GAME = TwoSizeGame(1, 2, 1, 1)
CONFIG = GameConfig((5, 5), 10, 1)
PAIR_REPR = "Coalition(members=(0, 1))"
CONFIG_REPR = "GameConfig(players=(5, 5), mu_e=10, sigma_sq=1, linreg=None)"

# (built by keyword, built by position, repr)
RECORDS = [
    (
        lambda: LinRegSpec(d=2, sigma_bias_sq=1.5),
        lambda: LinRegSpec(2, 1.5),
        "LinRegSpec(d=2, sigma_bias_sq=1.5)",
    ),
    (
        lambda: GameConfig(players=(5, 5), mu_e=10, sigma_sq=1),
        lambda: GameConfig([5, 5], 10, 1),
        CONFIG_REPR,
    ),
    (
        lambda: GameConfig(players=(8, 9), mu_e=10, sigma_sq=0.5, linreg=LinRegSpec(2, 1)),
        lambda: GameConfig([8, 9], 10, 0.5, LinRegSpec(2, 1)),
        "GameConfig(players=(8, 9), mu_e=10, sigma_sq=0.5, "
        "linreg=LinRegSpec(d=2, sigma_bias_sq=1))",
    ),
    (lambda: Coalition(members=(1, 0, 1)), lambda: Coalition([0, 1]), PAIR_REPR),
    (
        lambda: Partition(coalitions=[Coalition((2,)), PAIR]),
        lambda: Partition.from_masks([0b011, 0b100]),
        f"Partition(coalitions=({PAIR_REPR}, Coalition(members=(2,))))",
    ),
    (
        lambda: TwoSizeGame(n_s=11, n_l=106, S=70, L=7),
        lambda: TwoSizeGame(11, 106, 70, 7),
        "TwoSizeGame(n_s=11, n_l=106, S=70, L=7)",
    ),
    (Local, Local, "Local()"),
    (Uniform, Uniform, "Uniform()"),
    (CoarseOptimal, CoarseOptimal, "CoarseOptimal()"),
    (FineOptimal, FineOptimal, "FineOptimal()"),
    (
        lambda: Coarse(weights={0: 0.5, 1: 1}),
        lambda: Coarse({0: 0.5, 1: 1}),
        "Coarse(weights={0: 0.5, 1: 1})",
    ),
    (
        lambda: Fine(rows={0: {0: 0.75, 1: 0.25}}),
        lambda: Fine({0: {0: 0.75, 1: 0.25}}),
        "Fine(rows={0: {0: 0.75, 1: 0.25}})",
    ),
    (
        lambda: Prescription(description="grand", notion="core", unique=True, partition=None),
        lambda: Prescription("grand", "core", True),
        "Prescription(description='grand', notion='core', unique=True, partition=None)",
    ),
    (
        lambda: RegimeClassification(regime="boundary", prescriptions=()),
        lambda: RegimeClassification("boundary", ()),
        "RegimeClassification(regime='boundary', prescriptions=())",
    ),
    (
        lambda: ProfilePartition(game=GAME, profiles=[[1, 1]]),
        lambda: ProfilePartition(GAME, ((1, 1),)),
        "ProfilePartition(game=TwoSizeGame(n_s=1, n_l=2, S=1, L=1), profiles=((1, 1),))",
    ),
    (
        lambda: ErrorReport(values={0: 1.5}, note=None),
        lambda: ErrorReport({0: 1.5}),
        "ErrorReport(values={0: 1.5}, note=None)",
    ),
    (
        lambda: PreferenceOrder(epsilon=1e-9, exact=False),
        PreferenceOrder,
        "PreferenceOrder(epsilon=1e-09, exact=False)",
    ),
    (
        lambda: Deviation(player=0, target=PAIR),
        lambda: Deviation(0, Coalition((0, 1))),
        f"Deviation(player=0, target={PAIR_REPR})",
    ),
    (
        lambda: StabilityVerdict(stable=False, witness=PAIR, comparisons_mode="float-epsilon"),
        lambda: StabilityVerdict(False, PAIR, "float-epsilon"),
        f"StabilityVerdict(stable=False, witness={PAIR_REPR}, comparisons_mode='float-epsilon')",
    ),
    (
        lambda: TwoSizeDeviation(role="small", source=(2, 1), target=(1, 0)),
        lambda: TwoSizeDeviation("small", (2, 1), (1, 0)),
        "TwoSizeDeviation(role='small', source=(2, 1), target=(1, 0))",
    ),
    (
        lambda: FineWeights(player=0, row={0: 0.5, 1: 0.5}),
        lambda: FineWeights(0, {0: 0.5, 1: 0.5}),
        "FineWeights(player=0, row={0: 0.5, 1: 0.5})",
    ),
]

# the Monte Carlo records need numpy; without it they are left out
try:
    from fedgame.montecarlo import BatteryCase, DistributionSpec, McEstimate, TrialPlan
except ModuleNotFoundError:
    pass
else:
    GAUSSIAN_REPR = (
        "DistributionSpec(theta_family='gaussian', theta_mean=0.0, "
        "epsilon_rule='constant', sample_family='gaussian')"
    )
    RECORDS += [
        (
            lambda: DistributionSpec(
                theta_family="gaussian", theta_mean=0.0, epsilon_rule="constant",
                sample_family="gaussian",
            ),
            DistributionSpec,
            GAUSSIAN_REPR,
        ),
        (
            lambda: TrialPlan(trials=100, seed=3),
            lambda: TrialPlan(100, 3),
            "TrialPlan(trials=100, seed=3)",
        ),
        (
            lambda: McEstimate(mse=1.5, se=0.25, resamples=0),
            lambda: McEstimate(1.5, 0.25),
            "McEstimate(mse=1.5, se=0.25, resamples=0)",
        ),
        (
            lambda: BatteryCase(
                label="m1", kind="mean", config=CONFIG, coalition=PAIR, scheme=Uniform(),
                player=0, dist=DistributionSpec(), expected=1.5,
            ),
            lambda: BatteryCase("m1", "mean", CONFIG, PAIR, Uniform(), 0, DistributionSpec(), 1.5),
            f"BatteryCase(label='m1', kind='mean', config={CONFIG_REPR}, coalition={PAIR_REPR}, "
            f"scheme=Uniform(), player=0, dist={GAUSSIAN_REPR}, expected=1.5)",
        ),
    ]

# records holding a dict cannot be hashed, as frozen dataclasses could not
UNHASHABLE = {"Coarse", "Fine", "ErrorReport", "FineWeights"}


def _raises(error: type, call) -> None:
    try:
        call()
    except error:
        return
    raise AssertionError(f"expected {error.__name__}")


def check_construction(by_keyword, by_position, text: str) -> None:
    """Keyword and positional construction agree: equal, same hash (or
    both unhashable, for a record holding a dict) and the pinned repr."""
    a, b = by_keyword(), by_position()
    assert type(a) is type(b)
    assert a == b and not a != b
    assert repr(a) == repr(b) == text, repr(a)
    if type(a).__name__ in UNHASHABLE:
        _raises(TypeError, lambda: hash(a))
    else:
        assert hash(a) == hash(b) and len({a, b}) == 1


def check_class_only_equality(by_keyword, by_position, text: str) -> None:
    a = by_keyword()
    assert a.__eq__(object()) is NotImplemented
    assert a != text and a is not None


def check_frozen(by_keyword, by_position, text: str) -> None:
    """Assigning or deleting a field, or any other name, raises."""
    record = by_keyword()
    for name in re.findall(r"(\w+)=", text) + ["extra"]:
        _raises(AttributeError, lambda: setattr(record, name, 0))
        _raises(AttributeError, lambda: delattr(record, name))
    assert repr(record) == text


def check_round_trips(by_keyword, by_position, text: str) -> None:
    """Every pickle protocol, ``copy.copy`` and ``copy.deepcopy``."""
    record = by_keyword()
    twins = [pickle.loads(pickle.dumps(record, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in twins + [copy.copy(record), copy.deepcopy(record)]:
        assert type(twin) is type(record) and twin == record and repr(twin) == text


RECORD_CHECKS = (check_construction, check_class_only_equality, check_frozen, check_round_trips)

# the paper's anchor populations at mu_e=10, sigma_sq=1, and the one
# partition that is core stable under uniform federation in each
ANCHORS = (
    ((5, 5, 5), Partition.grand(3)),
    ((5, 5, 25), Partition.from_blocks([[0, 1], [2]])),
    ((25, 25, 25), Partition.singletons(3)),
)


def check_verdicts() -> None:
    """The singletons of (5, 5, 25) are blocked by {a,b}, and the (5, 5, 5)
    grand coalition is core and individually stable, in both modes.  The
    stable-set search finds each anchor's one core-stable partition under
    uniform federation, in both modes.  Below
    the threshold, the optimal grand coalition of eight players is core and
    strict-core stable: a full scan of its 255 coalitions, where the floor
    settles most coalitions under fine-optimal federation and none has one
    under coarse-optimal.  Eight
    large linear-regression players alone are core and strict-core stable
    under uniform and coarse federation: a full scan where the floor settles
    most coalitions without the global variance.  Early witnesses: {a,b}
    blocks the singletons, and a joins b, under coarse-optimal, fine-optimal
    and regression uniform federation, settled by two players' errors.  A
    coarse scheme without c's weight is refused, though {a,b} would block."""
    grand, config = Partition.grand(3), GameConfig((5, 5, 5), 10, 1)
    eight = GameConfig((2, 3, 4, 5, 6, 7, 8, 9), 100, 1)
    large = GameConfig((101, 113, 127, 139, 151, 167, 181, 197), 20, 0.625, LinRegSpec(2, 0.625))
    early = [
        (CoarseOptimal(), GameConfig((5, 6, 25), 10, 1)),
        (FineOptimal(), GameConfig((5, 6, 25), 10, 1)),
        (Uniform(), GameConfig((10, 12, 200), 20, 1, LinRegSpec(2, 1))),
    ]
    for prefs in (PreferenceOrder(), PreferenceOrder(exact=True)):
        blocked = is_core_stable(
            Partition.singletons(3), Uniform(), GameConfig((5, 5, 25), 10, 1), prefs
        )
        assert (blocked.stable, blocked.witness) == (False, PAIR), blocked
        for verdict_of in (is_core_stable, is_individually_stable):
            verdict = verdict_of(grand, Uniform(), config, prefs)
            assert verdict.stable and verdict.comparisons_mode == prefs.mode, verdict
        for scheme in (CoarseOptimal(), FineOptimal()):
            for verdict_of in (is_core_stable, is_strict_core_stable):
                verdict = verdict_of(Partition.grand(8), scheme, eight, prefs)
                assert (verdict.stable, verdict.witness) == (True, None), verdict
        for scheme in (Uniform(), Coarse(dict.fromkeys(range(8), 0.125))):
            for verdict_of in (is_core_stable, is_strict_core_stable):
                verdict = verdict_of(Partition.singletons(8), scheme, large, prefs)
                assert (verdict.stable, verdict.witness) == (True, None), verdict
        for players, stable in ANCHORS:
            found = find_stable_partitions(GameConfig(players, 10, 1), Uniform(), "core", prefs)
            assert found == [stable], (players, found, prefs)
        for scheme, game in early:
            for verdict_of in (is_core_stable, is_strict_core_stable):
                verdict = verdict_of(Partition.singletons(3), scheme, game, prefs)
                assert (verdict.stable, verdict.witness) == (False, PAIR), verdict
            verdict = is_individually_stable(Partition.singletons(3), scheme, game, prefs)
            assert verdict.witness == Deviation(0, PAIR), verdict
        unweighted = Coarse({0: 0.5, 1: 0.5})
        try:
            is_core_stable(
                Partition.singletons(4), unweighted, GameConfig((3, 4, 50, 60), 10.0, 1.0), prefs
            )
        except ValidationError as refusal:
            assert str(refusal) == "coarse scheme has no weight for player 2", refusal
        else:
            raise AssertionError(f"{unweighted} was not refused")


def check_float_range() -> None:
    """Counts beyond the float range: the uniform errors of two players
    with 10^308 samples each are 0.5, their bias part.  Singletons of
    10^400 or 10^5000 samples, mu_e = 1, are refused in float mode, as each
    local error rounds to 0, with a message that prints no count's digits,
    and answered stable in exact mode."""
    errs = coalition_errors([0, 1], Uniform(), GameConfig((10**308, 10**308), 1.0, 1.0))
    assert errs == {0: 0.5, 1: 0.5}, errs
    for count in (10**400, 10**5000):
        config = GameConfig((count, count), 1.0, 1.0)
        try:
            is_core_stable(Partition.singletons(2), Uniform(), config)
        except ValidationError as refusal:
            assert "overflows the float range or rounds to 0" in str(refusal), refusal
        else:
            raise AssertionError(f"singletons of {count.bit_length()}-bit counts were not refused")
        exact = is_core_stable(Partition.singletons(2), Uniform(), config, PreferenceOrder(exact=True))
        assert exact.stable, exact


# the counterexample's quantities and values, as ``reproduce --all`` prints them
COUNTEREXAMPLE = [
    ("err_s(pi(70,3))", (70, 3), 0, "1.107322"),
    ("err_s(pi(70,0))", (70, 0), 0, "1.115584"),
    ("err_l(pi(70,3))", (70, 3), 1, "0.932690"),
    ("err_l(pi(0,1))", (0, 1), 1, "0.943396"),
    ("err_l(pi(70,4))", (70, 4), 1, "0.943664"),
    ("err_s(pi(68,4))", (68, 4), 0, "1.105263"),
    ("err_l(pi(68,4))", (68, 4), 1, "0.943147"),
]


def check_two_size() -> None:
    """The counterexample (n_s=11, n_l=106, S=70, L=7, mu_e=100,
    sigma_sq=1): its seven errors, the constructed arrangement
    pi(70,3) + 4 singletons, individually stable and blocked by pi(68,4)."""
    game = TwoSizeGame(n_s=11, n_l=106, S=70, L=7)
    config = two_size_game_config(game, 100, 1)
    for prefs, mu_e, sigma_sq in (
        (PreferenceOrder(), 100, 1),
        (PreferenceOrder(exact=True), Fraction(100), Fraction(1)),
    ):
        for name, profile, role, printed in COUNTEREXAMPLE:
            value = two_size_errors(game, *profile, mu_e, sigma_sq, Uniform())[role]
            assert f"{float(value):.6f}" == printed, (name, value, prefs)
        built = construct_individually_stable_uniform(game, config, prefs)
        text = format_profiles(built.profiles)
        assert text == "pi(70,3) + 4 singletons", (text, prefs)
        deviation = two_size_individually_stable(game, built.profiles, Uniform(), config, prefs)
        assert deviation is None, (deviation, prefs)
        blocked = two_size_blocking_search(game, built.profiles, Uniform(), config, prefs)
        assert blocked == (68, 4), (blocked, prefs)


# standard-library modules that no closed-form command loads without an
# option that needs one (--exact, --config, --format csv); dataclasses
# brings inspect, fractions brings decimal
SLOW_STDLIB = ("dataclasses", "inspect", "fractions", "decimal", "json", "csv")

LIGHT_COMMANDS = [
    ["reproduce", "--all"],
    ["errors", "--players", "5,5,25", "--mue", "10", "--sigma2", "1", "--scheme", "uniform"],
    ["weights", "--players", "30,30,30,300", "--mue", "10", "--sigma2", "1"],
    [
        "stability", "--players", "5,5,25", "--mue", "10", "--sigma2", "1",
        "--scheme", "uniform", "--partition", "{a}|{b,c}", "--notion", "core",
    ],
    [
        "construct", "--uniform", "--ns", "11", "--nl", "106", "--S", "70", "--L", "7",
        "--mue", "100", "--sigma2", "1",
    ],
]

# runs fedgame.cli as __main__, then writes the SLOW_STDLIB modules it
# loaded to stderr
_RUN = """
import runpy, sys
sys.argv = ["fedgame", *{argv!r}]
try:
    runpy.run_module("fedgame.cli", run_name="__main__")
finally:
    print(*[m for m in {slow!r} if m in sys.modules], file=sys.stderr)
"""


def check_start_up() -> None:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for argv in LIGHT_COMMANDS:
        source = _RUN.format(argv=argv, slow=SLOW_STDLIB)
        run = subprocess.run(
            [sys.executable, "-c", source], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0 and run.stdout, (argv, run.stderr)
        loaded = run.stderr.split("\n")[-2]
        assert loaded == "", f"fedgame {argv[0]} loaded {loaded}"


if __name__ == "__main__":
    for check in RECORD_CHECKS:
        for case in RECORDS:
            check(*case)
    print(f"records ok: {len(RECORDS)} records, {len(RECORD_CHECKS)} checks each")
    check_verdicts()
    print("verdicts ok: core, strict core and individual, anchor stable sets, float and exact")
    check_two_size()
    print("two-size ok: counterexample values, construction and witness, float and exact")
    check_float_range()
    print("float range ok: counts of 10^308, 10^400 and 10^5000 answered or refused")
    check_start_up()
    print(f"start-up ok: {len(LIGHT_COMMANDS)} commands load none of {', '.join(SLOW_STDLIB)}")
