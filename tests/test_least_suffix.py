"""The Lyndon-factorization kernel behind least factors, min(w), max(w) and greatest rotations, against slice scans."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from sturmlex.extremal import _finite_extremal, max_factor, max_finite, min_factor, min_finite
from sturmlex.oracle import finite_extremal_by_chain, naive_min_max
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
