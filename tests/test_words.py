"""Word-core operations: examples and structural invariants."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmlex.analysis import (
    balance_violation,
    block_condition,
    classify_eventually_periodic,
    complexity,
    detect_period,
    factors,
    is_balanced,
    lex_compare,
    special_factors,
)
from sturmlex.words import (
    BINARY,
    BINARY_AB,
    Alphabet,
    ComparisonOutcome,
    FiniteWord,
    LexOrder,
    Relation,
    UltimatelyPeriodicWord,
    prepend,
    shift,
    word_from_text,
    word_to_text,
)
from sturmlex.generators import (
    DirectiveWord,
    epistandard,
    characteristic,
    fibonacci_slope,
    kbonacci,
)


def W(text, alphabet=None):
    return FiniteWord.from_str(text, alphabet)


def periodic(text):
    return UltimatelyPeriodicWord.purely_periodic(W(text))


@pytest.fixture(scope="module")
def fib():
    return characteristic(fibonacci_slope())


@pytest.fixture(scope="module")
def trib():
    return kbonacci(3)


class TestShift:
    def test_fibonacci_shift(self, fib):
        assert shift(fib, 1).prefix(7).as_str() == "1001010"

    def test_zero_shift_is_identity(self, fib):
        assert shift(fib, 0) is fib
        w = W("abc")
        assert shift(w, 0) == w

    def test_circular(self):
        assert shift(W("abc"), 1).as_str() == "bca"
        assert shift(W("abc"), 4).as_str() == "bca"

    def test_empty_circular_rejected(self):
        with pytest.raises(ValueError):
            shift(FiniteWord(b"", BINARY), 1)

    def test_shift_prefix_coherence(self, fib):
        for k in (1, 3, 10):
            assert shift(fib, k).prefix_bytes(50) == fib.prefix_bytes(50 + k)[k:]


class TestReversal:
    def test_reversal(self):
        assert W("abac").reversal().as_str() == "caba"

    def test_palindromes(self):
        assert W("abacaba").is_palindrome()
        assert FiniteWord(b"", BINARY).is_palindrome()
        assert not W("ab").is_palindrome()


class TestFactors:
    def test_abaab(self):
        assert {f.as_str() for f in factors(W("abaab"), 2)} == {"ab", "ba", "aa"}

    def test_fibonacci_letters(self, fib):
        assert {f.as_str() for f in factors(fib, 1, prefix_length=20)} == {"0", "1"}

    def test_tribonacci_pairs(self, trib):
        assert len(factors(trib, 2, prefix_length=30)) == 5

    def test_too_long_rejected(self):
        with pytest.raises(ValueError):
            factors(W("ab"), 3)


class TestComplexity:
    def test_fibonacci(self, fib):
        assert complexity(fib, 3, 1000) == [2, 3, 4]

    def test_tribonacci(self, trib):
        assert complexity(trib, 3, 1000) == [3, 5, 7]

    def test_periodic(self):
        assert complexity(periodic("ab"), 4, 100) == [2, 2, 2, 2]

    @given(st.binary(min_size=4, max_size=40))
    def test_near_monotone_on_finite_material(self, data):
        # on finite material only the terminal suffix can fail to extend
        w = FiniteWord(bytes(b & 1 for b in data), BINARY)
        p = complexity(w, len(w))
        assert all(p[i] <= p[i + 1] + 1 for i in range(len(p) - 1))

    def test_monotone_on_generated_prefixes(self, fib, trib):
        for w in (fib, trib):
            p = complexity(w, 20, 400)
            assert all(p[i + 1] >= p[i] for i in range(len(p) - 1))


class TestSpecialFactors:
    def test_fibonacci_unique_left_special(self, fib):
        assert len(special_factors(fib, 2, "left", 1000)) == 1

    def test_periodic_no_right_special(self):
        assert special_factors(periodic("ab"), 1, "right", 100) == set()

    def test_tribonacci_left_special_letters(self, trib):
        assert {f.as_str() for f in special_factors(trib, 1, "left", 1000)} == {"a"}

    def test_counting_identity(self, fib, trib):
        # p(n+1) - p(n) equals the excess extension count over right-special factors
        for w, L in ((fib, 1200), (trib, 1500)):
            data = w.prefix(L)
            p = complexity(data, 9)
            for n in range(1, 8):
                specials = special_factors(data, n, "right")
                excess = 0
                for s in specials:
                    exts = {f.data[-1] for f in factors(data, n + 1) if f.data[:-1] == s.data}
                    excess += len(exts) - 1
                assert p[n] - p[n - 1] == excess


class TestBalance:
    def test_balanced_examples(self):
        assert is_balanced(W("aabab"))
        assert is_balanced(W("0110"))  # no 00 factor, so no violating pair

    def test_violation_witness(self):
        u, v = balance_violation(W("0011"))
        assert (u.as_str(), v.as_str()) == ("00", "11")

    def test_fibonacci_prefix(self, fib):
        assert is_balanced(fib, 500)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            is_balanced(W("abc"))


class TestBlockCondition:
    def test_periodic_balanced(self):
        assert block_condition(periodic("aabab"), 100)

    def test_violating_word(self):
        assert not block_condition(W("0011"))

    def test_fibonacci(self, fib):
        assert block_condition(fib, 300)

    def test_equivalence_with_balance_exhaustive(self):
        # every binary word up to length 14
        import itertools

        for n in range(1, 15):
            for bits in itertools.product((0, 1), repeat=n):
                w = FiniteWord(bytes(bits), BINARY)
                assert is_balanced(w) == block_condition(w), w.as_str()


class TestLexCompare:
    def test_first_difference(self):
        out = lex_compare(W("aab"), W("aba"), depth=3)
        assert out.relation is Relation.LESS and out.depth == 1

    def test_equal_through_depth(self):
        out = lex_compare(W("abab"), W("abab"))
        assert out == ComparisonOutcome(Relation.EQUAL_THROUGH_DEPTH, 4)

    def test_prefixed_words(self, fib):
        zero = prepend(W("0"), fib)
        one = prepend(W("1"), fib)
        out = lex_compare(zero, one, depth=1)
        assert out.relation is Relation.LESS and out.depth == 0

    def test_custom_order(self):
        order = LexOrder.from_text("b<a", BINARY_AB)
        assert lex_compare(W("b"), W("a"), order).relation is Relation.LESS

    def test_depth_required_for_infinite(self, fib):
        with pytest.raises(ValueError):
            lex_compare(fib, fib)

    def test_rank_table_maps_letters_to_ranks(self):
        for size in range(1, 5):
            for by_rank in itertools.permutations(range(size)):
                table = bytearray(range(256))
                for rank, letter in enumerate(by_rank):
                    table[letter] = rank
                assert LexOrder(by_rank).table == bytes(table)


class TestPeriods:
    def test_detect(self):
        assert detect_period(W("abaab" * 3)) == 5
        assert detect_period(W("aaaa")) == 1
        assert detect_period(W("abaab")) == 3  # abaab = (aba)(ab), w[i] == w[i+3]

    def test_classify_skew_prefix(self):
        cert = classify_eventually_periodic(W("b" + "a" * 50))
        assert cert.preperiod.as_str() == "b" and cert.period.as_str() == "a"

    def test_classify_periodic(self):
        cert = classify_eventually_periodic(periodic("01"), 200)
        assert cert.preperiod.as_str() == "" and cert.period.as_str() == "01"

    def test_classify_aperiodic_prefix(self, fib):
        assert classify_eventually_periodic(fib, 200) is None
        assert classify_eventually_periodic(fib, 300) is None

    def test_canonical_form(self):
        # ab(ba)^w == a(bb... no: absorb the shared trailing letter
        w = UltimatelyPeriodicWord(W("ab"), W("ab"))
        assert w.preperiod.as_str() == "" and w.period.as_str() == "ab"
        w = UltimatelyPeriodicWord(W("a"), W("aa"))
        assert w.preperiod.as_str() == "" and w.period.as_str() == "a"


class TestInfiniteWord:
    def test_prefix_monotone(self, fib, trib):
        for w in (fib, trib):
            for m, n in ((5, 17), (17, 120), (120, 600)):
                assert w.prefix_bytes(n)[:m] == w.prefix_bytes(m)

    def test_ultimately_periodic_shift(self):
        w = UltimatelyPeriodicWord(W("b"), W("ab"))
        assert shift(w, 1).prefix(6).as_str() == "ababab"
        assert shift(w, 2).prefix(6).as_str() == "bababa"

    def test_finite_stream_exhaustion(self):
        w = epistandard(DirectiveWord(W("ab")))
        assert w.prefix(3).as_str() == "aba"
        with pytest.raises(ValueError):
            w.prefix(4)


class TestSerialization:
    def test_finite_round_trip(self):
        w = W("abaab")
        assert word_from_text(word_to_text(w)) == w

    def test_periodic_round_trip(self):
        w = UltimatelyPeriodicWord(W("b"), W("ab"))
        again = word_from_text(word_to_text(w))
        assert again.preperiod == w.preperiod and again.period == w.period

    def test_binary_aliases(self):
        assert word_from_text("0,1\nabab\n").as_str() == "0101"

    def test_malformed(self):
        with pytest.raises(ValueError):
            word_from_text("a,b\n")


class TestConcurrency:
    def test_parallel_prefix_reads(self):
        import threading

        w = characteristic(fibonacci_slope())
        results = []

        def reader(n):
            results.append(w.prefix_bytes(n))

        threads = [threading.Thread(target=reader, args=(500 + 37 * i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        reference = w.prefix_bytes(800)
        assert all(reference[: len(r)] == r for r in results)


class TestAlphabet:
    def test_distinct_names_required(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            FiniteWord([2], BINARY)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            Alphabet.of_size(9)


@given(st.integers(2, 4), st.binary(min_size=1, max_size=30))
@settings(max_examples=80)
def test_detect_period_definition(size, raw):
    data = bytes(b % size for b in raw)
    w = FiniteWord(data, Alphabet.of_size(size))
    p = detect_period(w)
    assert all(data[i] == data[i + p] for i in range(len(data) - p))
    for q in range(1, p):
        assert any(data[i] != data[i + q] for i in range(len(data) - q))
