"""Exact rational bridges between digit words and the torus."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmlex.surds import QuadraticSurd
from sturmlex.words import Alphabet, FiniteWord, UltimatelyPeriodicWord, prepend
from sturmlex.generators import characteristic, fibonacci_slope, thue_morse
from sturmlex.extremal import gamma_membership
from sturmlex.modone import (
    DigitExpansion,
    RationalInterval,
    bugeaud_dubickas_classify,
    digits_from_rational,
    fractional_parts,
    gamma_tilde_member,
    gamma_tilde_orbit,
    min_covering_interval,
    real_bounds_from_digits,
    self_sturmian_test,
    thue_morse_constant,
    veerman_interval,
)

D2 = Alphabet.digits(2)


def periodic(text):
    return UltimatelyPeriodicWord.purely_periodic(FiniteWord.from_str(text))


class TestDigits:
    def test_third(self):
        d = digits_from_rational(Fraction(1, 3), 2, 4)
        assert d.digits.as_str() == "0101"

    def test_half(self):
        assert digits_from_rational(Fraction(1, 2), 2, 3).digits.as_str() == "100"

    def test_bounds(self):
        d = digits_from_rational(Fraction(1, 3), 2, 4)
        iv = real_bounds_from_digits(d)
        assert iv.lo == Fraction(5, 16) and iv.hi == Fraction(6, 16)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            digits_from_rational(Fraction(3, 2), 2, 4)

    @given(st.integers(2, 600), st.integers(1, 599), st.integers(2, 10), st.integers(1, 64))
    @settings(max_examples=200)
    def test_round_trip_contains_value(self, q, p, base, n):
        xi = Fraction(p % (q - 1) + 1, q)
        d = digits_from_rational(xi, base, n)
        assert real_bounds_from_digits(d).contains(xi)

    def test_shift_multiply_coherence(self):
        rng = random.Random(7)
        for _ in range(50):
            q = rng.randrange(3, 400)
            p = rng.randrange(1, q)
            xi = Fraction(p, q)
            base = rng.choice((2, 3, 10))
            L = 48
            d = digits_from_rational(xi, base, L + 2)
            shifted = fractional_parts(d, 2, L)[1]
            scaled = (base * xi) % 1
            if scaled == 0:
                # b*xi integral: the digit tail is all zeros
                assert shifted.lo == 0
            else:
                assert shifted.lo <= scaled <= shifted.hi


class TestFractionalParts:
    def test_periodic_thirds(self):
        d = DigitExpansion(2, periodic("01"))
        parts = fractional_parts(d, 2, 30)
        assert parts[0].contains(Fraction(1, 3)) and parts[1].contains(Fraction(2, 3))

    def test_zero_word(self):
        d = DigitExpansion(2, periodic("0"))
        assert all(p.contains(Fraction(0)) for p in fractional_parts(d, 5, 20))

    def test_widths(self):
        d = DigitExpansion(2, characteristic(fibonacci_slope()))
        parts = fractional_parts(d, 50, 60)
        assert len(parts) == 50
        assert all(p.width == Fraction(1, 2**60) for p in parts)

    def test_insufficient_digits(self):
        d = DigitExpansion(2, FiniteWord.from_str("0101", Alphabet.digits(2)))
        with pytest.raises(ValueError):
            fractional_parts(d, 3, 8)


class TestCovering:
    def test_point_example(self):
        pts = [Fraction(1, 10), Fraction(7, 20), Fraction(2, 5)]
        length, arc = min_covering_interval(pts)
        assert length == Fraction(3, 10)
        assert (arc.lo, arc.hi) == (Fraction(1, 10), Fraction(2, 5))

    def test_single_point(self):
        length, _ = min_covering_interval([Fraction(1, 4)])
        assert length == 0

    def test_wrap_around(self):
        pts = [Fraction(9, 10), Fraction(1, 10)]
        length, arc = min_covering_interval(pts)
        assert length == Fraction(1, 5)
        assert arc.lo == Fraction(9, 10) and arc.hi == Fraction(11, 10)

    def test_linear(self):
        pts = [Fraction(9, 10), Fraction(1, 10)]
        length, arc = min_covering_interval(pts, circular=False)
        assert length == Fraction(4, 5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            min_covering_interval([])

    def test_fibonacci_digits_cover_half(self):
        d = DigitExpansion(2, characteristic(fibonacci_slope()))
        parts = fractional_parts(d, 200, 256)
        length, _ = min_covering_interval(parts)
        assert abs(length - Fraction(1, 2)) <= Fraction(1, 2**40)

    def test_monotone_precision(self):
        d = DigitExpansion(2, characteristic(fibonacci_slope()))
        prev_width = None
        lengths = []
        for L in (32, 64, 128):
            parts = fractional_parts(d, 60, L)
            width = parts[0].width
            assert prev_width is None or width < prev_width
            prev_width = width
            lengths.append(min_covering_interval(parts)[0])
        # reported lengths settle as precision grows
        assert abs(lengths[1] - lengths[2]) <= Fraction(120, 2**64)


class TestClassify:
    def test_fibonacci_consistent(self):
        rep = bugeaud_dubickas_classify(DigitExpansion(2, characteristic(fibonacci_slope())), 200)
        assert rep.verdict == "consistent-with-sturmian"
        assert rep.adjacent_pair and rep.low_digit == 0 and rep.balanced

    def test_rational_periodic(self):
        rep = bugeaud_dubickas_classify(digits_from_rational(Fraction(1, 3), 2, 60), 60)
        assert rep.verdict == "periodic-balanced"
        assert rep.periodic_certificate is not None

    def test_non_adjacent_excluded(self):
        d = DigitExpansion(3, FiniteWord([0, 2, 1, 0], Alphabet.digits(3)))
        assert bugeaud_dubickas_classify(d, 4).verdict == "excluded"

    def test_unbalanced_excluded(self):
        d = DigitExpansion(2, FiniteWord.from_str("0011" * 20, D2))
        assert bugeaud_dubickas_classify(d, 80).verdict == "excluded"

    def test_sturmian_on_shifted_alphabet(self):
        # digits {1,2} in base 3: k = 1
        base = Alphabet.digits(3)
        f = characteristic(fibonacci_slope())
        digits = FiniteWord(bytes(1 + c for c in f.prefix_bytes(200)), base)
        rep = bugeaud_dubickas_classify(DigitExpansion(3, digits), 200)
        assert rep.verdict == "consistent-with-sturmian" and rep.low_digit == 1


class TestSelfSturmian:
    def test_holds_for_one_prefixed_characteristic(self):
        u = characteristic(QuadraticSurd(-1, 1, 5, 2))
        s = prepend(FiniteWord.from_str("1"), u)
        assert self_sturmian_test(s, 200, 400).holds

    def test_fails_without_11(self):
        u = characteristic(QuadraticSurd(-1, 1, 5, 2))
        s = prepend(FiniteWord.from_str("10"), u)
        v = self_sturmian_test(s, 200, 400)
        assert not v.holds and v.witness["reason"] == "must begin with 11"

    def test_fails_for_ultimately_periodic(self):
        s = UltimatelyPeriodicWord(FiniteWord.from_str("11"), FiniteWord.from_str("0"))
        assert not self_sturmian_test(s, 200, 400).holds

    def test_periodic_tail_is_undecided(self):
        # the 601-letter prefix of 1(10)^w is also a prefix of 1c_alpha for an
        # irrational alpha just above 1/2, so a low factor count refutes nothing
        s = prepend(FiniteWord.from_str("1"), periodic("10"))
        v = self_sturmian_test(s, 200, 400)
        assert v.holds and v.undecided > 0

    @pytest.mark.parametrize("alpha, K, L", [
        (QuadraticSurd(998998, 1, 2, 999998), 200, 400),
        (QuadraticSurd(-1, 1, 5, 2), 10, 20),
        (QuadraticSurd(-1, 1, 5, 2), 3, 3),
    ])
    def test_holds_for_characteristic_tails_at_any_bounds(self, alpha, K, L):
        s = prepend(FiniteWord.from_str("1"), characteristic(alpha))
        v = self_sturmian_test(s, K, L)
        assert v.holds and v.detail["complexity_depth"] == min(30, K + L)

    def test_fails_on_an_excess_factor_count(self):
        # at depth 1 every tail passes the inequalities; Thue-Morse has 4 factors of length 2
        s = prepend(FiniteWord.from_str("11"), thue_morse())
        v = self_sturmian_test(s, 20, 1)
        assert not v.holds
        assert v.witness == {"reason": "factor count is not k+1", "k": 2, "p": 4}


class TestGammaTilde:
    def test_one_is_member(self):
        assert gamma_tilde_member(Fraction(1))

    def test_two_thirds(self):
        assert gamma_tilde_member(Fraction(2, 3))
        assert gamma_tilde_orbit(Fraction(2, 3)) == [Fraction(2, 3), Fraction(1, 3)]

    def test_small_values_fail(self):
        assert not gamma_tilde_member(Fraction(1, 3))
        assert not gamma_tilde_member(Fraction(0))

    def test_range_check(self):
        with pytest.raises(ValueError):
            gamma_tilde_member(Fraction(3, 2))

    def test_gamma_word_coherence(self):
        # a word in Gamma gives rationals whose orbit prefix is not refuted
        u = characteristic(QuadraticSurd(-1, 1, 5, 2))
        w = prepend(FiniteWord.from_str("1"), u)
        assert gamma_membership(w, 100, 200).holds
        bounds = real_bounds_from_digits(DigitExpansion(2, w), 120)
        parts = fractional_parts(DigitExpansion(2, w), 40, 60)
        for part in parts:
            # no decided violation of 1-x <= {2^k x} <= x at interval precision
            assert part.hi >= 1 - bounds.hi
            assert part.lo <= bounds.hi


class TestConstants:
    def test_thue_morse_constant_brackets(self):
        rough = thue_morse_constant(20)
        fine = thue_morse_constant(60)
        assert rough.width == Fraction(2, 2**20)
        assert rough.lo <= fine.lo and fine.hi <= rough.hi
        # the digit word after the point is the shifted Thue-Morse sequence
        assert fine.lo > Fraction(8249, 10000) and fine.hi < Fraction(825, 1000)

    def test_veerman_intervals(self):
        for alpha in (fibonacci_slope(), QuadraticSurd(-1, 1, 5, 2), QuadraticSurd(2, -1, 2, 2)):
            r0, r1 = veerman_interval(alpha, 64)
            assert r1.lo - r0.lo == Fraction(1, 2)
            assert r0.width == Fraction(1, 2**64)
            mid_gap = r1.midpoint - r0.midpoint
            assert abs(mid_gap - Fraction(1, 2)) <= Fraction(1, 2**62)

    def test_veerman_leading_digits(self):
        r0, r1 = veerman_interval(fibonacci_slope(), 64)
        # digit words are 0 resp. 1 followed by the Fibonacci word 0100101...
        assert real_bounds_from_digits(
            DigitExpansion(2, FiniteWord.from_str("00100101", D2))
        ).contains(r0.lo)
        assert real_bounds_from_digits(
            DigitExpansion(2, FiniteWord.from_str("10100101", D2))
        ).contains(r1.lo)

    def test_veerman_rejects_rational(self):
        with pytest.raises(ValueError):
            veerman_interval(QuadraticSurd.from_fraction(Fraction(1, 3)), 32)


class TestIntervalType:
    def test_order_enforced(self):
        with pytest.raises(ValueError):
            RationalInterval(Fraction(1), Fraction(0))

    def test_json_obj(self):
        iv = RationalInterval(Fraction(1, 3), Fraction(1, 2))
        assert iv.to_obj() == {"lo": "1/3", "hi": "1/2"}
