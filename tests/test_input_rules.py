"""The two input rules every command and library entry point share.

Letter names: `Alphabet.for_text` names the letters of text, for words
(`FiniteWord.from_str`, `up:`), directives (`DirectiveWord.from_text`) and the
letters `prepend:` and `morphic:` add to a base word (`commands._widen`).

Material: `words._material` gives the letters an analysis reads.  A finite
word is its own material; `prefix_length` (else a default) is a prefix of an
infinite word, and an infinite word with neither is an error.
"""

import pytest

from sturmlex.analysis import (
    balance_violation,
    block_condition,
    classify_eventually_periodic,
    complexity,
    factors,
    is_balanced,
    lex_compare,
    special_factors,
)
from sturmlex.cli import main
from sturmlex.commands import _widen, word_from_spec
from sturmlex.extremal import local_balance_check, max_factor, min_factor
from sturmlex.generators import DirectiveWord, characteristic, fibonacci_slope
from sturmlex.oracle import naive_min_max
from sturmlex.words import Alphabet, FiniteWord, Relation, word_from_text

FIB = characteristic(fibonacci_slope())
NAMING_RULE = "default names are digits 0-9 for all-digit text, else letters a-h"


@pytest.mark.parametrize("argv", [
    ["extremal", "min-max", "--word", "prepend:2:periodic:01", "--k", "2"],
    ["extremal", "min-max", "--word", "morphic:0>01,1>2,2>0:periodic:0", "--k", "2"],
    ["extremal", "min-max", "--word", "epistandard:012*", "--k", "2"],
    ["generate", "epistandard", "--directive", "012*"],
])
def test_digit_letters_extend_a_digit_word(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_digit_letters_name_the_widened_word():
    assert word_from_spec("prepend:2:periodic:01").prefix(5).as_str() == "20101"
    assert word_from_spec("morphic:0>01,1>2,2>0:periodic:0").alphabet.names == ("0", "1", "2")
    assert word_from_spec("morphic:0>01,1>2,2>0:periodic:01").prefix(7).as_str() == "0120120"
    assert word_from_spec("morphic:0 > 01, 1 > 2:periodic:01").prefix(7).as_str() == "0120120"
    assert DirectiveWord.from_text("012*").text() == "012*"


@pytest.mark.parametrize("text, names", [
    ("", "01"),
    ("0", "01"),
    ("0110", "01"),          # binary digits
    ("0120", "012"),
    ("9", "0123456789"),
    ("a", "ab"),
    ("abab", "ab"),          # letter text
    ("abcb", "abc"),
    ("h", "abcdefgh"),
    ("a1b", "ab"),           # mixed text reads as letters; 1 is b's alias
    ("01c", "abc"),
])
def test_names_for_text(text, names):
    assert "".join(Alphabet.for_text(text).names) == names


@pytest.mark.parametrize("text, letter", [("xy", "x"), ("xyc", "x"), ("abz", "z"), ("0 1", " ")])
def test_names_outside_both_pools_are_refused(text, letter):
    with pytest.raises(ValueError) as info:
        Alphabet.for_text(text)
    assert str(info.value) == f"unknown letter {letter!r}: {NAMING_RULE}"


@pytest.mark.parametrize("argv, letter", [
    (["extremal", "finite-epi", "--body", "fabdice"], "i"),
    (["generate", "epistandard", "--directive", "abi*"], "i"),
    (["extremal", "min-max", "--word", "periodic:abz", "--k", "2"], "z"),
    (["extremal", "min-max", "--word", "up:ab|xy", "--k", "2"], "x"),
])
def test_commands_refuse_names_outside_both_pools(capsys, argv, letter):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: unknown letter {letter!r}: {NAMING_RULE}\n")


def test_widening_keeps_custom_names_unless_letters_are_added():
    w = word_from_text("x,y\nxyyx\n")
    assert _widen(w, "x") is w and _widen(w, "yx") is w  # custom file names stay
    assert "".join(_widen(w, "c").alphabet.names) == "abc"
    assert _widen(w, "c").data == w.data
    ac = word_from_text("a,c\nac\n")
    assert "".join(_widen(ac, "c").alphabet.names) == "abc"  # c past its size: a..h names
    binary = FiniteWord.from_str("0110")
    assert _widen(binary, "a") is binary and _widen(binary, "1") is binary
    assert "".join(_widen(binary, "2").alphabet.names) == "012"


@pytest.mark.parametrize("names, letters", [
    ("0,2", "2"),    # digit names that are not 0..n-1
    ("0,2", "0220"),
    ("0,2", "3"),    # an unknown digit is still an unknown letter
    ("a,c", "a"),    # pool letters that are not a..n
    ("c,a", "ab"),
    ("1,0", "1"),
    ("x", "x"),      # one letter: the two-letter floor of for_text adds none
    ("x", "a"),
    ("0", "0"),
])
def test_widening_keeps_file_names_the_letters_do_not_outgrow(names, letters):
    w = word_from_text(f"{names}\n{names[0]}\n")
    assert _widen(w, letters) is w


@pytest.mark.parametrize("spec, names, prefix", [
    ("prepend:2:file:{}", "02", "2022020"),
    ("morphic:0>02,2>0:file:{}", "02", "0200020"),
    ("prepend:a:file:{}", "ac", "aaccaca"),
])
def test_added_letters_that_a_file_word_names_keep_its_names(tmp_path, spec, names, prefix):
    path = tmp_path / "w.txt"
    path.write_text(f"{names[0]},{names[1]}\n{names[0]}{names[1]}|{names[1]}{names[0]}\n")
    w = word_from_spec(spec.format(path))
    assert "".join(w.alphabet.names) == names
    assert w.prefix(7).as_str() == prefix


FINITE = FiniteWord.from_str("01001010011")
BINARY_ENTRY_POINTS = [
    ("factors", lambda w, n: factors(w, 2, n)),
    ("complexity", lambda w, n: complexity(w, 2, n)),
    ("special_factors", lambda w, n: special_factors(w, 1, "left", n)),
    ("balance_violation", lambda w, n: balance_violation(w, n)),
    ("is_balanced", lambda w, n: is_balanced(w, n)),
    ("block_condition", lambda w, n: block_condition(w, n)),
    ("naive_min_max", lambda w, n: naive_min_max(w, 2, None, n)),
]


WITH_DEFAULTS = BINARY_ENTRY_POINTS + [
    ("min_factor", lambda w, n: min_factor(w, 2, None, n)),
    ("max_factor", lambda w, n: max_factor(w, 2, None, n)),
    ("local_balance_check", lambda w, n: local_balance_check(w, 1, n).to_obj()),
]
WITHOUT_DEFAULTS = BINARY_ENTRY_POINTS + [
    ("classify_eventually_periodic", lambda w, n: classify_eventually_periodic(w, n)),
]


@pytest.mark.parametrize("call", [call for _, call in WITH_DEFAULTS], ids=[name for name, _ in WITH_DEFAULTS])
def test_a_finite_word_is_its_own_material(call):
    assert call(FINITE, None) == call(FINITE, 6) == call(FINITE, 60)


def test_a_finite_word_is_its_own_material_when_classified():
    w = FiniteWord.from_str("000000111")
    assert classify_eventually_periodic(w, 6) == classify_eventually_periodic(w, None) is None


@pytest.mark.parametrize("call", [call for _, call in WITHOUT_DEFAULTS], ids=[name for name, _ in WITHOUT_DEFAULTS])
def test_an_infinite_word_needs_a_prefix_length(call):
    with pytest.raises(ValueError, match="^infinite word: a prefix length is required$"):
        call(FIB, None)
    call(FIB, 30)


def test_lex_compare_stops_at_depth_on_finite_words():
    u, v = FiniteWord.from_str("0101"), FiniteWord.from_str("0110")
    assert lex_compare(u, v, depth=2).relation is Relation.EQUAL_THROUGH_DEPTH
    assert lex_compare(u, v, depth=3).relation is Relation.LESS
    # a finite word longer than the depth against an infinite one
    outcome = lex_compare(FiniteWord.from_str("01011"), FIB, depth=4)
    assert (outcome.relation, outcome.depth) == (Relation.GREATER, 3)
    head = FiniteWord(FIB.prefix_bytes(9) + b"\x01", FIB.alphabet)
    assert lex_compare(head, FIB, depth=9).relation is Relation.EQUAL_THROUGH_DEPTH
    with pytest.raises(ValueError, match="requested depth"):
        lex_compare(u, FIB, depth=5)
