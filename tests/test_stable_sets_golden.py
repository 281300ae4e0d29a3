import io

from stable_sets_golden import GOLDEN, render


def test_stable_sets_and_verdicts_match_golden_bytes():
    out = io.StringIO()
    render(out)
    assert out.getvalue().encode() == GOLDEN.read_bytes()
