"""numpy is loaded only by Monte Carlo code.

Each check runs in a fresh interpreter, because the test process itself
has numpy loaded already.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# runs fedgame.cli as __main__ with the given arguments, then reports on
# stderr whether numpy was loaded
RUN_CLI = """
import runpy, sys
sys.argv = ["fedgame", *{argv!r}]
try:
    runpy.run_module("fedgame.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print("numpy" in sys.modules, code, file=sys.stderr)
"""

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


def run_python(source: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(source)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )


def cli_loads_numpy(argv: list[str]) -> bool:
    result = run_python(RUN_CLI.format(argv=argv))
    loaded, code = result.stderr.split()[-2:]
    assert code == "0", result.stderr
    assert result.stdout
    return loaded == "True"


@pytest.mark.parametrize("module", ["fedgame", "fedgame.cli"])
def test_import_does_not_load_numpy(module):
    out = run_python(f"import sys, {module}; print('numpy' in sys.modules)").stdout
    assert out.split() == ["False"]


@pytest.mark.parametrize("argv", LIGHT_COMMANDS, ids=lambda argv: argv[0])
def test_closed_form_commands_do_not_load_numpy(argv):
    assert not cli_loads_numpy(argv)


def test_verify_loads_numpy():
    assert cli_loads_numpy(["verify", "--battery", "--trials", "64"])


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
