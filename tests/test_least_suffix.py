"""The Lyndon-factorization kernel behind least factors, min(w), max(w) and greatest rotations, against slice scans."""

import functools
import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmlex import words
from sturmlex.extremal import _finite_extremal, max_factor, max_finite, min_factor, min_finite
from sturmlex.generators import DirectiveWord, characteristic, epistandard, fibonacci_slope, kbonacci, thue_morse
from sturmlex.oracle import finite_extremal_by_chain, least_suffix_by_letters, naive_min_max
from sturmlex.surds import QuadraticSurd
from sturmlex.words import Alphabet, FiniteWord, LexOrder, _least_suffix


def test_least_suffix_of_every_short_word_and_every_last():
    for size, longest in ((2, 10), (3, 7)):
        for n in range(1, longest + 1):
            for letters in itertools.product(range(size), repeat=n):
                s = bytes(letters)
                for last in range(n):
                    assert _least_suffix(s, last) == min(range(last + 1), key=lambda i: s[i:]), (s, last)


@st.composite
def near_periodic(draw):
    """A periodic word with 0-3 letters changed, over 2-8 letters, and a random order of them."""
    size = draw(st.integers(2, 8))
    period = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=9))
    n = draw(st.integers(1, 120))
    data = bytearray((period * (n // len(period) + 1))[:n])
    for _ in range(draw(st.integers(0, 3))):
        data[draw(st.integers(0, n - 1))] = draw(st.integers(0, size - 1))
    order = LexOrder(tuple(draw(st.permutations(range(size)))))
    return FiniteWord(bytes(data), Alphabet.of_size(size)), order


@given(near_periodic(), st.data())
@settings(max_examples=400, deadline=None)
def test_min_max_factor_match_sorting_every_window(word_order, data):
    w, order = word_order
    k = data.draw(st.integers(1, len(w)))
    lo, hi = naive_min_max(w, k, order)
    assert min_factor(w, k, order) == lo
    assert max_factor(w, k, order) == hi


@given(near_periodic())
@settings(max_examples=400, deadline=None)
def test_min_max_finite_match_the_chain_rescan(word_order):
    w, order = word_order
    assert min_finite(w, order) == finite_extremal_by_chain(w, order, want_max=False)
    greatest = finite_extremal_by_chain(w, order, want_max=True)
    assert _finite_extremal(w, order, want_max=True) == greatest
    if w.alphabet.size == 2:
        assert max_finite(w, order) == greatest


@pytest.mark.parametrize("run", [1, 2])
def test_equal_runs_finished_in_c_on_every_short_word_and_every_last(run):
    # a trigger of 1 or 2 letters sends every equal run of at least 2 or 4 letters through _common_run
    with mock.patch.object(words, "_RUN", run):
        for size, longest in ((2, 10), (3, 7)):
            for n in range(1, longest + 1):
                for letters in itertools.product(range(size), repeat=n):
                    for s in (bytes(letters), bytes(letters) + b"\xff"):
                        for last in range(n):
                            assert _least_suffix(s, last) == least_suffix_by_letters(s, last), (run, s, last)


@functools.lru_cache(maxsize=None)
def _prefixes() -> tuple[bytes, ...]:
    """5000-letter prefixes of Sturmian, episturmian, Thue-Morse and tribonacci words."""
    sturmian = [characteristic(fibonacci_slope()), characteristic(QuadraticSurd(-1, 1, 2, 1))]
    sturmian.append(characteristic(QuadraticSurd(-1, 1, 3, 2)))
    episturmian = epistandard(DirectiveWord.from_text("aab|cab*"))
    return tuple(w.prefix_bytes(5000) for w in [*sturmian, episturmian, thue_morse(), kbonacci(3)])


@st.composite
def long_runs(draw):
    """(s, last): a periodic word or a word prefix of up to 5000 letters with 0-3 letters changed.

    last is often the end of s or next to a changed letter, where an equal run stops.
    """
    if draw(st.booleans()):
        size = draw(st.integers(2, 4))
        period = bytes(draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=12)))
        n = draw(st.integers(1, 5000))
        data = bytearray((period * (n // len(period) + 1))[:n])
    else:
        source = draw(st.sampled_from(_prefixes()))
        size = max(source) + 1
        data = bytearray(source[: draw(st.integers(1, 5000))])
    n = len(data)
    changed = draw(st.lists(st.integers(0, n - 1), max_size=3))
    for c in changed:
        data[c] = draw(st.integers(0, size - 1))
    if draw(st.booleans()):
        data.append(0xFF)
    stops = [n - 1] + [x for c in changed for x in (c - 1, c, c + 1) if 0 <= x < n]
    last = draw(st.sampled_from(stops) | st.integers(0, n - 1))
    return bytes(data), last


@given(long_runs(), st.sampled_from([1, 2, 16]))
@settings(max_examples=300, deadline=None)
def test_long_equal_runs_match_the_letter_loop(s_last, run):
    s, last = s_last
    with mock.patch.object(words, "_RUN", run):
        assert _least_suffix(s, last) == least_suffix_by_letters(s, last)


@pytest.mark.parametrize(
    "s", [bytes(200000) + b"\x01", b"\x00\x01" * 100000 + b"\x00"], ids=["0^200000.1", "(01)^100000.0"]
)
def test_runs_longer_than_one_window(s):
    # each equal run crosses several 64 KB windows of _common_run
    n = len(s)
    for t in (s, s + b"\xff"):
        for last in (0, 1, n // 2, n - 3, n - 2, n - 1):
            assert _least_suffix(t, last) == least_suffix_by_letters(t, last), (len(t), last)
