import io

from two_size_witnesses_golden import GOLDEN, render


def test_two_size_searches_match_golden_bytes():
    out = io.StringIO()
    render(out)
    assert out.getvalue().encode() == GOLDEN.read_bytes()
