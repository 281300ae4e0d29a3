"""Start-up: ``import fedgame`` loads no submodule, each command loads only
the modules it runs, numpy is loaded only by Monte Carlo code, and the
closed-form commands load none of the slower standard-library modules
(``dataclasses``, ``json``, ``csv``, ``fractions`` ...) unless an option
needs one.

Each check runs in a fresh interpreter, because the test process itself
has numpy and every fedgame module loaded already.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from smoke import LIGHT_COMMANDS, SLOW_STDLIB

SRC = Path(__file__).resolve().parent.parent / "src"

# runs fedgame.cli as __main__ with the given arguments, then reports on
# stderr whether numpy was loaded, the exit code, the fedgame modules loaded
# and which of SLOW_STDLIB were loaded ("-" for none)
RUN_CLI = """
import runpy, sys
sys.argv = ["fedgame", *{argv!r}]
try:
    runpy.run_module("fedgame.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
loaded = ",".join(sorted(m for m in sys.modules if m.startswith("fedgame.")))
slow = ",".join(m for m in {slow!r} if m in sys.modules) or "-"
print("numpy" in sys.modules, code, loaded, slow, file=sys.stderr)
"""

# the public names ``import fedgame`` offered before its exports were loaded
# lazily; the Monte Carlo ones stay out of ``from fedgame import *``
PUBLIC_NAMES = {
    "CapExceededError", "Coalition", "Coarse", "CoarseOptimal", "Deviation", "ErrorReport",
    "FederationScheme", "Fine", "FineOptimal", "FineWeights", "GameConfig", "LinRegSpec",
    "Local", "Partition", "PreferenceOrder", "Prescription", "ProfilePartition",
    "RegimeClassification", "StabilityVerdict", "TwoSizeDeviation", "TwoSizeGame", "Uniform",
    "ValidationError", "classify_equal_samples", "coalition_errors", "coalition_member_mse",
    "construct_individually_stable_uniform", "construct_strict_core_coarse",
    "enumerate_coalitions", "enumerate_partitions", "exact_config", "exact_scheme",
    "explicit_row", "find_stable_partitions", "is_core_stable", "is_individually_stable",
    "is_strict_core_stable", "mse_coarse", "mse_fine", "mse_local", "mse_uniform",
    "optimal_coarse_mse", "optimal_fine_mse", "optimal_v", "optimal_w", "player_errors",
    "regime_predicates", "two_size_blocking_search", "two_size_errors",
    "two_size_game_config", "two_size_individually_stable", "two_size_weak_blocking_search",
}


def run_python(source: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(source)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )


def cli_loads(argv: list[str]) -> tuple[bool, set[str], set[str]]:
    """(whether numpy was loaded, the fedgame submodules loaded, the
    SLOW_STDLIB modules loaded) by one command, which must exit 0."""
    result = run_python(RUN_CLI.format(argv=argv, slow=SLOW_STDLIB))
    numpy, code, modules, slow = result.stderr.split("\n")[-2].split(" ")
    assert code == "0", result.stderr
    assert result.stdout
    return numpy == "True", set(modules.split(",")), set(slow.split(",")) - {"-"}


@pytest.mark.parametrize("module", ["fedgame", "fedgame.cli"])
def test_import_does_not_load_numpy(module):
    out = run_python(f"import sys, {module}; print('numpy' in sys.modules)").stdout
    assert out.split() == ["False"]


def test_import_fedgame_loads_no_submodule():
    out = run_python(
        "import sys, fedgame; print(sorted(m for m in sys.modules if m.startswith('fedgame')))"
    ).stdout
    assert out.split() == ["['fedgame']"]


@pytest.mark.parametrize("argv", LIGHT_COMMANDS[1:3], ids=lambda argv: argv[0])
def test_errors_and_weights_load_neither_stability_nor_constructive(argv):
    _, modules, _ = cli_loads(argv)
    assert "fedgame.errors" in modules
    assert not modules & {"fedgame.stability", "fedgame.constructive", "fedgame.montecarlo"}


def test_star_import_binds_the_public_names_without_numpy():
    out = run_python(
        """
        import sys
        namespace = {}
        exec("from fedgame import *", namespace)
        import fedgame
        names = sorted(name for name in namespace if name != "__builtins__")
        print(",".join(names))
        print(all(namespace[name] is getattr(fedgame, name) for name in names))
        print("numpy" in sys.modules)
        """
    ).stdout
    names, same, numpy = out.split()
    assert set(names.split(",")) == PUBLIC_NAMES
    assert (same, numpy) == ("True", "False")


@pytest.mark.parametrize("argv", LIGHT_COMMANDS, ids=lambda argv: argv[0])
def test_closed_form_commands_do_not_load_numpy(argv):
    assert not cli_loads(argv)[0]


def test_verify_loads_numpy():
    assert cli_loads(["verify", "--battery", "--trials", "64"])[0]


def test_montecarlo_exports_resolve_on_first_use():
    out = run_python(
        """
        import sys
        import fedgame
        print("TrialPlan" in dir(fedgame), "montecarlo" in dir(fedgame), "numpy" in sys.modules)
        from fedgame import TrialPlan, agreement_battery
        print(TrialPlan is fedgame.montecarlo.TrialPlan, callable(fedgame.montecarlo.run_case))
        print(len(agreement_battery()) > 0, "numpy" in sys.modules)
        try:
            fedgame.no_such_name
        except AttributeError as exc:
            print("no_such_name" in str(exc))
        """
    ).stdout
    assert out.split() == ["True", "True", "False", "True", "True", "True", "True", "True"]


@pytest.mark.parametrize("argv", LIGHT_COMMANDS, ids=lambda argv: argv[0])
def test_closed_form_commands_load_no_slow_stdlib_module(argv):
    assert cli_loads(argv)[2] == set()


def test_options_that_need_a_slow_module_still_run(tmp_path):
    document = tmp_path / "game.json"
    document.write_text('{"players": [5, 5, 25], "mu_e": 10.5, "sigma_sq": 1, "scheme": "uniform"}')
    errors = LIGHT_COMMANDS[1]
    runs = {
        "exact": (errors + ["--exact"], {"fractions", "decimal"}),
        "config": (["errors", "--config", str(document)], {"json"}),
        "config exact": (["errors", "--config", str(document), "--exact"], {"json", "fractions"}),
        "csv": (errors + ["--format", "csv"], {"csv"}),
        "reproduce csv": (["reproduce", "--all", "--format", "csv"], {"csv"}),
    }
    for name, (argv, needed) in runs.items():
        slow = cli_loads(argv)[2]
        assert needed <= slow and not slow & {"dataclasses", "inspect"}, name
