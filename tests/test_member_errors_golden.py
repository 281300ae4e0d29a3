import io
import sys

import pytest

from fedgame import coalition_errors, coalition_member_mse
from member_errors_golden import GOLDEN, render

# The file holds float reprs summed by CPython 3.11's sum(); from 3.12 on,
# sum() compensates float rounding, so the last bits differ on any code.
from_golden = pytest.mark.skipif(
    sys.version_info >= (3, 12), reason="golden floats were summed by CPython < 3.12"
)


def _rendered(errors_of) -> bytes:
    out = io.StringIO()
    render(errors_of, out)
    return out.getvalue().encode()


def _one_at_a_time(coalition, scheme, config):
    return {j: coalition_member_mse(j, coalition, scheme, config) for j in coalition}


def test_coalition_errors_equal_one_member_at_a_time():
    assert _rendered(coalition_errors) == _rendered(_one_at_a_time)


@from_golden
def test_coalition_errors_match_golden_bytes():
    assert _rendered(coalition_errors) == GOLDEN.read_bytes()


@from_golden
def test_coalition_member_mse_matches_golden_bytes():
    assert _rendered(_one_at_a_time) == GOLDEN.read_bytes()
