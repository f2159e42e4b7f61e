"""modone's integer-numerator kernels against the Fraction references in oracle."""

import contextlib
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmlex import words
from sturmlex.cli import main
from sturmlex.generators import characteristic, fibonacci_slope
from sturmlex.modone import (
    DigitExpansion,
    RationalInterval,
    _doubling_points,
    digits_from_rational,
    fractional_parts,
    gamma_tilde_member,
    gamma_tilde_orbit,
    real_bounds_from_digits,
    thue_morse_constant,
)
from sturmlex.oracle import (
    digits_by_fractions,
    doubling_orbit_by_fractions,
    gamma_tilde_by_fractions,
    thue_morse_constant_by_sum,
)
from sturmlex.words import Alphabet, FiniteWord


def same_interval(a: RationalInterval, b: RationalInterval) -> None:
    assert a == b and b == a and not a != b
    assert hash(a) == hash(b)
    assert (a.lo, a.hi, a.width, a.midpoint) == (b.lo, b.hi, b.width, b.midpoint)
    assert a.to_obj() == b.to_obj() and repr(a) == repr(b)
    assert all(type(x) is Fraction for x in (a.lo, a.hi, a.width, a.midpoint))


@st.composite
def digit_words(draw):
    base = draw(st.integers(2, 10))
    precision = draw(st.integers(1, 40))
    shifts = draw(st.integers(0, 30))
    data = draw(st.lists(st.integers(0, base - 1), min_size=shifts + precision,
                         max_size=shifts + precision))
    return DigitExpansion(base, FiniteWord(data, Alphabet.digits(base))), shifts, precision


@given(digit_words())
@settings(max_examples=300, deadline=None)
def test_fractional_parts_agree_with_fraction_intervals(case):
    d, shifts, precision = case
    scale = d.base**precision
    data = d.prefix_digits(shifts + precision)
    parts = fractional_parts(d, shifts, precision)
    assert len(parts) == shifts
    for n, part in enumerate(parts):
        value = 0
        for digit in data[n : n + precision]:
            value = value * d.base + digit
        same_interval(part, RationalInterval(Fraction(value, scale), Fraction(value + 1, scale)))


@given(digit_words())
@settings(max_examples=100, deadline=None)
def test_digit_bounds_agree_with_fraction_intervals(case):
    d, _, _ = case
    digits = d.prefix_digits(len(d.digits))
    value = sum(Fraction(x, d.base ** (i + 1)) for i, x in enumerate(digits))
    same_interval(real_bounds_from_digits(d),
                  RationalInterval(value, value + Fraction(1, d.base ** len(digits))))


@given(st.integers(-50, 50), st.integers(1, 60), st.integers(-50, 50), st.integers(1, 60))
def test_public_constructor_keeps_reduced_endpoints(a, b, c, e):
    lo, hi = sorted((Fraction(a, b), Fraction(c, e)))
    iv = RationalInterval(lo, hi)
    assert (iv.lo, iv.hi) == (lo, hi)
    assert (iv.lo.denominator, iv.hi.denominator) == (lo.denominator, hi.denominator)
    same_interval(iv, RationalInterval._over(lo.numerator * hi.denominator,
                                             hi.numerator * lo.denominator,
                                             lo.denominator * hi.denominator))


def test_integer_endpoints_need_no_common_reduction():
    # 2/4 and 1/2 are one endpoint over different denominators
    a, b = RationalInterval._over(2, 3, 4), RationalInterval(Fraction(1, 2), Fraction(3, 4))
    same_interval(a, b)
    assert RationalInterval(0, 1) == RationalInterval._over(0, 1, 1)
    assert a.contains(Fraction(1, 2)) and a.contains(Fraction(3, 4)) and not a.contains(Fraction(4, 5))


# x in [0, 1] with odd and even denominators; 0 and 1 included
rationals = st.builds(Fraction, st.integers(0, 400), st.integers(1, 400)).filter(lambda x: x <= 1)


@given(rationals, st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_gamma_tilde_matches_fraction_oracle(x, k):
    orbit = doubling_orbit_by_fractions(x)
    assert gamma_tilde_orbit(x) == orbit
    assert all(type(y) is Fraction for y in gamma_tilde_orbit(x))
    member = gamma_tilde_by_fractions(x)
    assert gamma_tilde_member(x) is member
    # the same rational written unreduced, as the command line may give it
    unreduced = Fraction(f"{k * x.numerator}/{k * x.denominator}")
    assert gamma_tilde_member(unreduced) is member
    assert list(_doubling_points(unreduced)) == [y.numerator * (x.denominator // y.denominator)
                                                 for y in orbit]


@pytest.mark.parametrize("x, member, orbit", [
    (Fraction(0), False, [Fraction(0)]),
    (Fraction(1), True, [Fraction(0)]),
    (Fraction(2, 3), True, [Fraction(2, 3), Fraction(1, 3)]),
    (Fraction(4, 6), True, [Fraction(2, 3), Fraction(1, 3)]),
    (Fraction(3, 4), False, [Fraction(3, 4), Fraction(1, 2), Fraction(0)]),
    (Fraction(5, 8), False, [Fraction(5, 8), Fraction(1, 4), Fraction(1, 2), Fraction(0)]),
])
def test_gamma_tilde_edges(x, member, orbit):
    assert gamma_tilde_member(x) is member is gamma_tilde_by_fractions(x)
    assert gamma_tilde_orbit(x) == orbit == doubling_orbit_by_fractions(x)


@given(st.builds(Fraction, st.integers(-30, 30), st.integers(1, 60)))
def test_gamma_tilde_orbit_of_any_rational(x):
    # the orbit starts at x - int(x), negative for negative non-integers
    assert gamma_tilde_orbit(x) == doubling_orbit_by_fractions(x)


@given(rationals)
@settings(max_examples=200, deadline=None)
def test_orbit_cap_threshold(x):
    size = len(doubling_orbit_by_fractions(x))
    # the walks read the prefix cap, STURMLEX_MAX_LEN: an orbit of cap + 1 points passes; cap + 2 points raise
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(words, "MAX_PREFIX", size - 1)
        assert len(gamma_tilde_orbit(x)) == size
        assert gamma_tilde_member(x) is gamma_tilde_by_fractions(x)
        if size >= 2:
            mp.setattr(words, "MAX_PREFIX", size - 2)
            message = rf"^orbit point {size - 1} exceeds cap {size - 2} \(STURMLEX_MAX_LEN\)$"
            for run in (gamma_tilde_orbit, gamma_tilde_member, doubling_orbit_by_fractions,
                        gamma_tilde_by_fractions):
                with pytest.raises(ValueError, match=message):
                    run(x)


def test_gamma_tilde_command_reports_the_orbit_size():
    # the command walks the orbit once, for membership and for its size
    for q in range(1, 61):
        for p in range(q + 1):
            if math.gcd(p, q) != 1:
                continue
            x = Fraction(p, q)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["--format", "json", "modone", "gamma-tilde", "--x", f"{p}/{q}"])
            obj = json.loads(out.getvalue())
            assert obj["orbit_size"] == len(doubling_orbit_by_fractions(x)), x
            assert code == (0 if obj["member"] else 1) and obj["member"] is gamma_tilde_by_fractions(x)


def test_gamma_tilde_range_is_checked_before_the_orbit(monkeypatch):
    monkeypatch.setattr(words, "MAX_PREFIX", 0)
    for x in (Fraction(-1, 3), Fraction(3, 2)):
        for run in (gamma_tilde_member, gamma_tilde_by_fractions):
            with pytest.raises(ValueError, match=r"^x must lie in \[0, 1\]$"):
                run(x)


@given(st.integers(2, 10**6), st.integers(1, 10**6), st.integers(2, 10), st.integers(1, 200))
@settings(max_examples=200, deadline=None)
def test_digits_match_fraction_oracle(q, p, base, n):
    xi = Fraction(p % (q - 1) + 1, q)
    d = digits_from_rational(xi, base, n)
    assert d.digits.data == digits_by_fractions(xi, base, n)
    assert d.digits.alphabet == Alphabet.digits(base)


def test_digits_of_an_infinite_word_need_a_count():
    d = DigitExpansion(2, characteristic(fibonacci_slope()))
    with pytest.raises(ValueError, match="^infinite word: a prefix length is required$"):
        real_bounds_from_digits(d)
    assert d.prefix_digits(5) == bytes([0, 1, 0, 0, 1])
    assert real_bounds_from_digits(d, 5) == RationalInterval(Fraction(9, 32), Fraction(10, 32))


def test_digits_of_a_finite_word_are_read_whole():
    d = DigitExpansion(3, FiniteWord(bytes([2, 0, 1]), Alphabet.digits(3)))
    assert real_bounds_from_digits(d) == RationalInterval(Fraction(19, 27), Fraction(20, 27))
    assert d.prefix_digits(2) == bytes([2, 0]) and d.prefix_digits(3) == bytes([2, 0, 1])
    with pytest.raises(ValueError, match="^only 3 digits available, 4 requested$"):
        d.prefix_digits(4)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 64, 65, 1000])
def test_thue_morse_constant_matches_fraction_sum(n):
    same_interval(thue_morse_constant(n), thue_morse_constant_by_sum(n))


def test_thue_morse_constant_width():
    for n in (1, 10, 100):
        iv = thue_morse_constant(n)
        assert iv.width == Fraction(1, 2 ** (n - 1))
        assert math.gcd(iv.lo.numerator, iv.lo.denominator) == 1


@pytest.mark.parametrize("digits", [
    FiniteWord(b"\x01\x00\x01\x01", Alphabet.digits(2)),
    characteristic(fibonacci_slope()),
])
def test_negative_digit_counts_are_refused(digits):
    d = DigitExpansion(2, digits)
    for n in (-1, -3, -5):
        with pytest.raises(ValueError, match=rf"^prefix length must be non-negative, got {n}$"):
            d.prefix_digits(n)
        with pytest.raises(ValueError, match=rf"^prefix length must be non-negative, got {n}$"):
            real_bounds_from_digits(d, n)
