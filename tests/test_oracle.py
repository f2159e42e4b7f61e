"""Brute-force oracle: enumeration counts, corpus soundness, differential tests."""

import itertools
import random

import pytest

from sturmlex.analysis import block_condition
from sturmlex.words import Alphabet, FiniteWord, LexOrder
from sturmlex.generators import DirectiveWord, epistandard, kbonacci
from sturmlex.extremal import finite_episturmian_test, max_factor, min_factor
from sturmlex.oracle import (
    balanced_by_definition,
    default_roster,
    enumerate_balanced,
    episturmian_factor_corpus,
    naive_min_max,
)

B = Alphabet(("0", "1"))

# Counts computed independently by the definition scan and the
# block-condition filter (both below); they also match 1 + sum (n-i+1)phi(i).
BALANCED_COUNTS = [2, 4, 8, 14, 24, 36, 54, 76, 104, 136, 178, 224, 282, 346]


class TestEnumerateBalanced:
    def test_single_letters(self):
        assert {w.as_str() for w in enumerate_balanced(1)} == {"0", "1"}

    def test_length_two_all_balanced(self):
        assert len(enumerate_balanced(2)) == 4

    def test_length_four_exclusions(self):
        words = {w.as_str() for w in enumerate_balanced(4)}
        assert len(words) == 14
        # the only way to break balance by length 4 is to contain both 00 and 11
        assert {"0011", "1100"} == set("".join(p) for p in
                                       ("".join(map(str, bits)) for bits in
                                        itertools.product((0, 1), repeat=4))) - words
        assert "0110" in words and "1001" in words

    def test_counts_match_block_condition_filter(self):
        for n in range(1, 15):
            by_def = 0
            by_bc = 0
            for bits in itertools.product((0, 1), repeat=n):
                data = bytes(bits)
                if balanced_by_definition(data):
                    by_def += 1
                if block_condition(FiniteWord(data, B)):
                    by_bc += 1
            assert by_def == by_bc == BALANCED_COUNTS[n - 1]

    def test_length_cap(self):
        with pytest.raises(ValueError):
            enumerate_balanced(17)


class TestCorpus:
    def test_known_members(self):
        fib_only = [kbonacci(2)]
        corpus = episturmian_factor_corpus(fib_only, 5, 300)
        assert FiniteWord.from_str("aabab") in corpus.words
        assert FiniteWord.from_str("aaa") not in corpus.words

    def test_tribonacci_prefix_member(self):
        corpus = episturmian_factor_corpus([kbonacci(3)], 7, 300)
        assert FiniteWord.from_str("abacaba") in corpus.words

    def test_soundness(self):
        corpus = episturmian_factor_corpus(default_roster(), 6, 400)
        for w in corpus.words:
            ok, _ = finite_episturmian_test(w)
            assert ok, w.as_str()

    def test_binary_words_are_balanced(self):
        corpus = episturmian_factor_corpus(default_roster(), 8, 400)
        for n in range(1, 9):
            balanced = {w.data for w in enumerate_balanced(n)}
            for w in corpus.words:
                if w.alphabet.size == 2 and len(w) == n:
                    assert w.data in balanced

    def test_dump_format(self):
        corpus = episturmian_factor_corpus([kbonacci(2)], 3, 100)
        dump = corpus.dump()
        header, *rest = dump.strip().split("\n")
        assert header.startswith("# corpus:")
        body = [line for line in rest if not line.startswith("#")]
        assert body == sorted(body)
        assert f"count={len(body)}" in rest[0] or f"count={len(body)}" in dump

    def test_deterministic(self):
        a = episturmian_factor_corpus(None, 5, 300).dump()
        b = episturmian_factor_corpus(None, 5, 300).dump()
        assert a == b


class TestNaiveMinMax:
    def test_periodic_example(self):
        from sturmlex.words import UltimatelyPeriodicWord

        w = UltimatelyPeriodicWord.purely_periodic(FiniteWord.from_str("abaab"))
        lo, hi = naive_min_max(w, 5, prefix_length=30)
        assert lo.as_str() == "aabab" and hi.as_str() == "babaa"

    def test_single_letters(self):
        w = FiniteWord.from_str("bcab", Alphabet.of_size(3))
        lo, hi = naive_min_max(w, 1)
        assert lo.as_str() == "a" and hi.as_str() == "c"

    def test_differential_500_cases(self):
        rng = random.Random(0)
        for _ in range(500):
            size = rng.choice((2, 2, 3, 4))
            alphabet = Alphabet.of_size(size)
            length = rng.randrange(5, 40)
            w = FiniteWord(bytes(rng.randrange(size) for _ in range(length)), alphabet)
            k = rng.randrange(1, length + 1)
            perm = list(range(size))
            rng.shuffle(perm)
            order = LexOrder(tuple(perm))
            lo, hi = naive_min_max(w, k, order)
            assert lo == min_factor(w, k, order)
            assert hi == max_factor(w, k, order)

    def test_differential_on_generated_words(self):
        rng = random.Random(1)
        roster = [kbonacci(2), kbonacci(3), epistandard(DirectiveWord.from_text("aab*"))]
        for w in roster:
            for _ in range(20):
                k = rng.randrange(1, 30)
                L = rng.randrange(k + 50, 400)
                order_perm = list(range(w.alphabet.size))
                rng.shuffle(order_perm)
                order = LexOrder(tuple(order_perm))
                lo, hi = naive_min_max(w, k, order, prefix_length=L)
                assert lo == min_factor(w, k, order, prefix_length=L)
                assert hi == max_factor(w, k, order, prefix_length=L)
