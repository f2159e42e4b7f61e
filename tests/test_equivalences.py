"""The paper's equivalences as cross-leaf properties: two leaves that state one
characterization never contradict each other where both are decided.

- Finite binary words: Sturmian = balanced = episturmian on two letters, so
  ``finite_episturmian_test`` and ``is_balanced`` agree, and the least
  certificate is max(w)[1:] followed by the least letter.
- Finite words over 3 to 5 letters: episturmian = locally balanced, so
  ``finite_episturmian_test`` agrees with ``local_balance_check`` at every
  length (every factor u has a letter c with AuA ∩ F(w) ⊆ cuA ∪ Auc).  A dead
  end of the certificate search is a factor with no such letter, which is why
  the search never backtracks.
- Binary infinite words: ``characteristic`` and ``epistandard-ineq`` state one
  inequality, 0.s <= T^k(s) <= 1.s (Pirillo, TCS 341, 2005): the pair
  (0, 0<1) is its lower half and (1, 1<0) its upper half.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmlex.analysis import is_balanced
from sturmlex.commands import word_from_spec
from sturmlex.extremal import (
    characteristic_check,
    check_epistandard_ineq,
    finite_episturmian_test,
    local_balance_check,
    max_finite,
    min_finite,
)
from sturmlex.words import Alphabet, FiniteWord

BINARY = Alphabet.of_size(2)


@pytest.mark.parametrize("length", range(1, 13))
def test_finite_episturmian_is_balanced_on_two_letters(length):
    for bits in itertools.product((0, 1), repeat=length):
        w = FiniteWord(bytes(bits), BINARY)
        ok, certificate = finite_episturmian_test(w)
        assert ok == is_balanced(w), w
        if ok:
            # a.u <= m under 0<1 bounds u by min(w)[1:] from above, under 1<0 by max(w)[1:] from below
            n = max(len(min_finite(w)), len(max_finite(w))) - 1
            assert certificate.data == (max_finite(w).data[1:] + b"\x00" * n)[:n], w


@pytest.mark.parametrize("size, n_max", [(3, 8), (4, 6), (5, 5)])
def test_finite_episturmian_is_locally_balanced(size, n_max):
    alphabet = Alphabet.of_size(size)
    for n in range(2, n_max + 1):
        for letters in itertools.product(range(size), repeat=n):
            w = FiniteWord(bytes(letters), alphabet)
            assert finite_episturmian_test(w)[0] == local_balance_check(w, n - 2).holds, w


# binary specs, views included: aperiodic balanced, periodic, and unbalanced words
SPECS = [
    "fib",
    "characteristic:(-1+1*sqrt(5))/2",
    "characteristic:(2-1*sqrt(2))/2",
    "mechanical:(3-1*sqrt(5))/2:1/3",
    "mechanical-upper:(-1+1*sqrt(2)):0",
    "epistandard:aab*",
    "epistandard:ab|ba",
    "thue-morse",
    "periodic:01",
    "periodic:0010",
    "periodic:00101",
    "up:1|0",
    "shift:1:fib",
    "shift:5:thue-morse",
    "complement:fib",
    "complement:characteristic:(2-1*sqrt(3))",
    "prepend:0:fib",
    "prepend:1:fib",
    "prepend:11:fib",
    "morphic:0>01,1>0:periodic:0",
]
WORDS = {spec: word_from_spec(spec) for spec in SPECS}


def characteristic_and_epistandard_agree(spec, K, L):
    s = WORDS[spec]
    one = characteristic_check(s, K, L)
    pairs = check_epistandard_ineq(s, K, L).pairs
    assert one.holds == all(p.verdict.holds for p in pairs)
    if one.holds:
        assert one.undecided == sum(p.verdict.undecided for p in pairs)
    else:
        assert one.witness["shift"] == min(p.verdict.witness["shift"] for p in pairs if not p.verdict.holds)


@given(st.sampled_from(SPECS), st.integers(1, 300), st.integers(1, 400))
@settings(max_examples=400, deadline=None)
def test_characteristic_and_epistandard_ineq_state_one_inequality(spec, K, L):
    characteristic_and_epistandard_agree(spec, K, L)


@pytest.mark.parametrize("spec", SPECS)
def test_characteristic_and_epistandard_ineq_agree_at_the_corners(spec):
    for K, L in itertools.product((1, 2, 300), (1, 2, 400)):
        characteristic_and_epistandard_agree(spec, K, L)
