"""The distinct windows of a word, read from its distinct 64-letter chunks.

`analysis._factor_bytes` slices one chunk per `_CHUNK` start positions and
then the windows of the distinct chunks only; `complexity`,
`special_factors`, `factors` and `extremal.local_balance_check` all read
their windows from it.  It is checked here against one slice per position
(`oracle.factor_windows_by_position`): exhaustively on short binary words,
by hypothesis around the chunk boundaries, and through its callers on
10^5-letter prefixes of generated words.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmlex.analysis import _CHUNK, _factor_bytes, complexity, special_factors
from sturmlex.extremal import local_balance_check
from sturmlex.generators import characteristic, fibonacci_slope, kbonacci, thue_morse
from sturmlex.oracle import (
    complexity_by_length,
    factor_windows_by_position,
    local_balance_by_length,
    special_factors_by_window,
)


def test_every_short_binary_word():
    for length in range(13):
        for bits in itertools.product(b"\x00\x01", repeat=length):
            data = bytes(bits)
            for n in range(length + 2):
                assert _factor_bytes(data, n) == factor_windows_by_position(data, n), (data, n)


# lengths at, one past and one short of a multiple of the chunk stride
BOUNDARY_LENGTHS = [m for m in range(301) if m % _CHUNK in (0, 1, _CHUNK - 1)]


@st.composite
def materials(draw):
    """Words of length 0-300 over 2-4 letters: random letters, or a repeated block so that chunks recur."""
    size = draw(st.integers(2, 4))
    length = draw(st.one_of(st.sampled_from(BOUNDARY_LENGTHS), st.integers(0, 300)))
    if draw(st.booleans()):
        letters = draw(st.lists(st.integers(0, size - 1), min_size=length, max_size=length))
        return bytes(letters)
    block = bytes(draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=70)))
    return (block * (length // len(block) + 1))[:length]


@given(materials(), st.data())
@settings(max_examples=400, deadline=None)
def test_windows_match_one_slice_per_position(data, draw):
    n = draw.draw(st.one_of(st.sampled_from([1, 63, 64, 65, 127, len(data)]), st.integers(0, len(data) + 1)))
    assert _factor_bytes(data, n) == factor_windows_by_position(data, n)


PREFIX = 100_000


@pytest.mark.parametrize(
    "word", [characteristic(fibonacci_slope()), kbonacci(3), thue_morse()], ids=["fib", "tribonacci", "thue-morse"]
)
def test_callers_on_long_prefixes(word):
    data = word.prefix_bytes(PREFIX)
    assert complexity(word, 66, PREFIX) == complexity_by_length(data, 66)
    for n in (0, 5, 63, 64):
        for side in ("left", "right"):
            fast = {f.data for f in special_factors(word, n, side, PREFIX)}
            assert fast == special_factors_by_window(data, n, side), (n, side)
    assert local_balance_check(word, 8, PREFIX).to_obj() == local_balance_by_length(word, 8, PREFIX).to_obj()
