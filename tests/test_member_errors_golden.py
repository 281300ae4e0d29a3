import io

from fedgame import coalition_errors, coalition_member_mse
from member_errors_golden import GOLDEN, render


def _rendered(errors_of) -> bytes:
    out = io.StringIO()
    render(errors_of, out)
    return out.getvalue().encode()


def _one_at_a_time(coalition, scheme, config):
    return {j: coalition_member_mse(j, coalition, scheme, config) for j in coalition}


def test_coalition_errors_equal_one_member_at_a_time():
    assert _rendered(coalition_errors) == _rendered(_one_at_a_time)


def test_coalition_errors_match_golden_bytes():
    assert _rendered(coalition_errors) == GOLDEN.read_bytes()


def test_coalition_member_mse_matches_golden_bytes():
    assert _rendered(_one_at_a_time) == GOLDEN.read_bytes()
