"""Generator constructions against their defining identities."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmlex.surds import QuadraticSurd
from sturmlex.words import (
    BINARY,
    BINARY_AB,
    Alphabet,
    FiniteWord,
    detect_period,
    factors,
    is_balanced,
    lex_compare,
    prepend,
    reversal,
    special_factors,
    Relation,
)
from sturmlex.generators import (
    DirectiveWord,
    Morphism,
    characteristic,
    epistandard,
    fibonacci_slope,
    iterated_pal,
    kbonacci,
    mechanical_lower,
    mechanical_upper,
    pal_closure,
    periodic_balanced,
    skew_word,
    thue_morse,
)


def W(text, alphabet=None):
    return FiniteWord.from_str(text, alphabet)


class TestDirectiveWord:
    def test_parsing(self):
        d = DirectiveWord.from_text("abc*")
        assert [d.letter(i) for i in range(7)] == [0, 1, 2, 0, 1, 2, 0]
        d = DirectiveWord.from_text("ab|cd")
        assert [d.letter(i) for i in range(6)] == [0, 1, 2, 3, 2, 3]
        d = DirectiveWord.from_text("ab")
        assert d.cycle is None
        with pytest.raises(IndexError):
            d.letter(2)

    def test_text_round_trip(self):
        for text in ("abc*", "ab|cd", "ab"):
            assert DirectiveWord.from_text(text).text() in (text, text.rstrip("*") + "*")


class TestPalClosure:
    def test_named_examples(self):
        tie = Alphabet(("t", "i", "e"))
        assert pal_closure(W("tie", tie)).as_str() == "tieit"
        assert pal_closure(W("abac")).as_str() == "abacaba"
        assert pal_closure(W("aba")).as_str() == "aba"

    def test_iterated(self):
        assert iterated_pal(W("abc")).as_str() == "abacaba"
        assert iterated_pal(FiniteWord(b"", BINARY)).as_str() == ""
        assert iterated_pal(W("ab")).as_str() == "aba"

    @given(st.binary(min_size=1, max_size=8))
    @settings(max_examples=60)
    def test_closure_is_shortest_palindrome(self, raw):
        w = bytes(b % 2 for b in raw)
        closed = pal_closure(FiniteWord(w, BINARY)).data
        assert closed == closed[::-1]
        assert closed[: len(w)] == w
        # exhaustively: no shorter extension of w is a palindrome
        for m in range(len(w), len(closed)):
            for tail in product((0, 1), repeat=m - len(w)):
                cand = w + bytes(tail)
                assert cand != cand[::-1]

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=10))
    @settings(max_examples=60)
    def test_pal_prefix_closure(self, letters):
        alphabet = Alphabet.of_size(3)
        w = FiniteWord(letters, alphabet)
        full = iterated_pal(w).data
        for cut in range(len(letters)):
            part = iterated_pal(FiniteWord(letters[:cut], alphabet)).data
            assert full[: len(part)] == part


class TestEpistandard:
    def test_tribonacci_prefix(self):
        r = epistandard(DirectiveWord.from_text("abc*"))
        assert r.prefix(16).as_str() == "abacabaabacababa"

    def test_fibonacci_directive(self):
        f = epistandard(DirectiveWord.from_text("ab*"))
        mech = characteristic(fibonacci_slope())
        assert f.prefix_bytes(2000) == mech.prefix_bytes(2000)

    def test_degenerate_directive(self):
        w = epistandard(DirectiveWord.from_text("a*", BINARY_AB))
        assert w.prefix(40).as_str() == "a" * 40

    def test_kbonacci(self):
        assert kbonacci(2).prefix_bytes(200) == epistandard(
            DirectiveWord.from_text("ab*")
        ).prefix_bytes(200)
        assert kbonacci(3).prefix(16).as_str() == "abacabaabacababa"
        from sturmlex.words import complexity

        assert complexity(kbonacci(3), 10, 2000) == [2 * n + 1 for n in range(1, 11)]
        with pytest.raises(ValueError):
            kbonacci(1)
        with pytest.raises(ValueError):
            kbonacci(9)


class TestMechanical:
    def test_fibonacci_example(self):
        s = mechanical_lower(fibonacci_slope(), fibonacci_slope())
        assert s.prefix(8).as_str() == "01001010"

    def test_rational_slope_periodic_balanced(self):
        s = mechanical_lower(Fraction(2, 5), Fraction(2, 5))
        prefix = s.prefix(40)
        assert detect_period(prefix) == 5
        assert is_balanced(prefix)

    def test_rational_slopes_period_is_denominator(self):
        for num, den in ((1, 2), (2, 5), (3, 7), (5, 12)):
            s = mechanical_lower(Fraction(num, den), Fraction(1, 3))
            prefix = s.prefix(6 * den)
            assert detect_period(prefix) == den
            assert is_balanced(prefix)

    def test_upper_equals_lower_at_characteristic_intercept(self):
        alpha = fibonacci_slope()
        lo = mechanical_lower(alpha, alpha)
        hi = mechanical_upper(alpha, alpha)
        assert lo.prefix_bytes(1000) == hi.prefix_bytes(1000)

    def test_upper_differs_generally(self):
        alpha = fibonacci_slope()
        lo = mechanical_lower(alpha, Fraction(0))
        hi = mechanical_upper(alpha, Fraction(0))
        assert lo.prefix_bytes(50) != hi.prefix_bytes(50)

    def test_slope_must_be_positive(self):
        with pytest.raises(ValueError):
            mechanical_lower(Fraction(0), Fraction(1, 2))

    def test_first_letter_formula(self):
        alpha = QuadraticSurd(-1, 1, 5, 2)  # ~0.618
        s = characteristic(alpha)
        expected = 0 if (alpha * 2).floor() - alpha.floor() == alpha.floor() else 1
        assert s.letter(0) == expected

    def test_characteristic_prefixes_left_special(self):
        c = characteristic(fibonacci_slope())
        for n in range(1, 9):
            specials = special_factors(c, n, "left", 500)
            assert c.prefix(n) in specials

    def test_intercept_order_property(self):
        # larger intercept gives lexicographically larger word, same slope
        alpha = fibonacci_slope()
        rhos = [Fraction(0), Fraction(1, 7), Fraction(1, 3), Fraction(2, 3), Fraction(6, 7)]
        words = [mechanical_lower(alpha, rho) for rho in rhos]
        for (r1, w1), (r2, w2) in zip(zip(rhos, words), zip(rhos[1:], words[1:])):
            out = lex_compare(w1, w2, depth=500)
            assert out.relation is Relation.LESS, (r1, r2)


class TestMorphism:
    def test_psi_images(self):
        psi_a = Morphism.psi(0, BINARY_AB)
        assert psi_a.apply(W("ab")).as_str() == "aab"
        f = epistandard(DirectiveWord.from_text("ab*"))
        assert psi_a.apply(f).prefix(19).as_str() == "aabaaabaabaaabaaaba"

    def test_psi_c_on_prefixed_word(self):
        A3 = Alphabet.of_size(3)
        f = epistandard(DirectiveWord.from_text("ab*", A3))
        cf = prepend(W("c", A3), f)
        image = Morphism.psi(2, A3).apply(cf)
        assert image.prefix(17).as_str() == "ccacbcacacbcacbca"

    def test_classic_generator_decomposition(self):
        psi_a = Morphism.psi(0, BINARY_AB)
        theta = Morphism.exchange(0, 1, BINARY_AB)
        phi = psi_a.compose(theta)
        assert phi.apply(W("a")).as_str() == "ab"
        assert phi.apply(W("b")).as_str() == "a"
        # psi_a . theta agrees with the direct definition on all short words
        direct = Morphism.from_text("a>ab,b>a", BINARY_AB)
        for n in range(0, 7):
            for bits in product((0, 1), repeat=n):
                w = FiniteWord(bits, BINARY_AB)
                assert phi.apply(w) == direct.apply(w)

    def test_compose_property(self):
        A3 = Alphabet.of_size(3)
        m1 = Morphism.psi(1, A3)
        m2 = Morphism.exchange(0, 2, A3)
        for n in range(0, 5):
            for letters in product(range(3), repeat=n):
                w = FiniteWord(letters, A3)
                assert m1.compose(m2).apply(w) == m1.apply(m2.apply(w))

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            Morphism.psi(0, BINARY).apply(FiniteWord([0, 1, 2], Alphabet.of_size(3)))

    def test_erasing_rejected_on_infinite(self):
        erasing = Morphism(BINARY_AB, (W("ab"), FiniteWord(b"", BINARY_AB)))
        assert erasing.is_erasing
        with pytest.raises(ValueError):
            erasing.apply(thue_morse())

    def test_episturmian_image_property(self):
        # images of the Fibonacci word under short generator compositions keep
        # one left special factor per length and reversal-closed factors
        A = BINARY_AB
        f = epistandard(DirectiveWord.from_text("ab*"))
        gens = [Morphism.psi(0, A), Morphism.psi(1, A), Morphism.exchange(0, 1, A)]
        compositions = [
            gens[0],
            gens[1].compose(gens[0]),
            gens[2].compose(gens[1]).compose(gens[0]),
            gens[0].compose(gens[2]).compose(gens[1]),
        ]
        for mu in compositions:
            image = mu.apply(f)
            material = image.prefix(3000)
            for n in range(1, 9):
                assert len(special_factors(material, n, "left")) == 1
                fs = factors(material, n)
                assert {reversal(x) for x in fs} == fs


class TestThueMorse:
    def test_prefix(self):
        assert thue_morse().prefix(8).as_str() == "01101001"

    def test_first_letter_and_powers_of_two(self):
        t = thue_morse()
        assert t.letter(0) == 0
        assert all(t.letter(2**k) == 1 for k in range(21))

    def test_matches_morphism_fixed_point(self):
        rules = Morphism.from_text("a>ab,b>ba", BINARY_AB)
        w = W("a", BINARY_AB)
        for _ in range(10):
            w = rules.apply(w)
        assert w.data == thue_morse().prefix_bytes(len(w))


class TestSkewAndPeriodicBalanced:
    def test_identity_skew(self):
        sk = skew_word(Morphism.identity(BINARY_AB), 0, 1, 2)
        assert sk.preperiod.as_str() == "aab" and sk.period.as_str() == "a"

    def test_factors_balanced(self):
        mu = Morphism.psi(0, BINARY_AB)
        sk = skew_word(mu, 0, 1, 1)
        assert not sk.is_purely_periodic
        prefix = sk.prefix(60)
        assert is_balanced(prefix)

    def test_single_marker_letter(self):
        sk = skew_word(Morphism.identity(BINARY_AB), 0, 1, 3)
        assert sk.prefix(50).count(1) == 1

    def test_periodic_balanced_examples(self):
        assert periodic_balanced(W("ab"), 0, 1).period.as_str() == "abaab"
        assert periodic_balanced(W("ab"), 1, 0).period.as_str() == "ababa"
        empty = FiniteWord(b"", BINARY_AB)
        assert periodic_balanced(empty, 0, 1).period.as_str() == "ab"

    def test_equal_letters_rejected(self):
        with pytest.raises(ValueError):
            periodic_balanced(W("ab"), 0, 0)
