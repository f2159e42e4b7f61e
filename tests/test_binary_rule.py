"""The binary rule: every two-letter notion refuses a larger alphabet through `words._check_binary`.

The paper's Sturmian notions (balance, the block condition, the shift
inequalities, complement, max(w), skew and periodic balanced words) live on
two letters.  Each entry point refuses the first word that is not binary with
`binary words required: NAME has N letters`, NAME its argument, and a command
that reaches one exits 2 with that text.  Every shift inequality has its own
rows in `test_comparison_kernel.py`; one stands for them here.
"""

import pytest

from sturmlex.analysis import balance_violation, block_condition, is_balanced
from sturmlex.cli import main
from sturmlex.extremal import characteristic_check, check_sturmian_extremal, max_finite, not_balanced_witness
from sturmlex.generators import Morphism, kbonacci, periodic_balanced, skew_word, thue_morse
from sturmlex.words import Alphabet, FiniteWord, complement

TRIB = kbonacci(3)
TM = thue_morse()
ABC = FiniteWord.from_str("abcab")
MU3 = Morphism.identity(Alphabet.of_size(3))


def refusal(name: str) -> str:
    return f"binary words required: {name} has 3 letters"


@pytest.mark.parametrize("call, name", [
    (lambda: check_sturmian_extremal(TM, TRIB, 5, 5), "u"),
    (lambda: is_balanced(TRIB, 50), "w"),
    (lambda: balance_violation(ABC), "w"),
    (lambda: block_condition(TRIB, 50), "w"),
    (lambda: complement(TRIB), "w"),
    (lambda: complement(ABC), "w"),
    (lambda: max_finite(ABC), "w"),
    (lambda: not_balanced_witness(ABC), "w"),
    (lambda: skew_word(MU3, 0, 1, 2), "mu"),
    (lambda: periodic_balanced(ABC, 0, 1), "v"),
])
def test_library_refuses_three_letters(call, name):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == refusal(name)


@pytest.mark.parametrize("argv, name", [
    (["extremal", "characteristic", "--word", "tribonacci"], "s"),
    (["analyze", "balance", "--word", "tribonacci"], "w"),
    (["analyze", "balance", "--word", "periodic:abc"], "w"),
    (["analyze", "block-condition", "--word", "tribonacci"], "w"),
    (["extremal", "min-max", "--word", "complement:tribonacci", "--k", "2"], "w"),
    (["generate", "periodic-balanced", "--v", "abc"], "v"),
])
def test_commands_refuse_three_letters(capsys, argv, name):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {refusal(name)}\n")


@pytest.mark.parametrize("call, message", [
    # the material is read before the alphabet is checked
    (lambda: is_balanced(TRIB, -1), "prefix length must be non-negative, got -1"),
    (lambda: balance_violation(TRIB), "infinite word: a prefix length is required"),
    (lambda: block_condition(TRIB, -2), "prefix length must be non-negative, got -2"),
    # the alphabet is checked before the bounds
    (lambda: characteristic_check(TRIB, -1, 0), refusal("s")),
    # and before the letters x, y
    (lambda: skew_word(MU3, 0, 0, 2), refusal("mu")),
    (lambda: periodic_balanced(ABC, 2, 2), refusal("v")),
])
def test_refusal_order(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("call", [
    lambda: skew_word(Morphism.identity(Alphabet.of_size(2)), 0, 0, 2),
    lambda: periodic_balanced(FiniteWord.from_str("ab"), 1, 1),
])
def test_binary_words_need_both_letters_for_x_and_y(call):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == "x, y must be the two letters of a binary alphabet"
