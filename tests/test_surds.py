"""Exact surd arithmetic against Fraction and float oracles."""

import contextlib
import io
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sturmlex import generators
from sturmlex.cli import main
from sturmlex.commands import word_from_spec
from sturmlex.oracle import floor_letters
from sturmlex.surds import MAX_RADICAND, QuadraticSurd, _squarefree, parse_surd


def test_floor_examples():
    assert QuadraticSurd(3, -1, 5, 2).floor() == 0
    assert parse_surd("7/2").floor() == 3
    assert QuadraticSurd.from_fraction(Fraction(-7, 2)).floor() == -4


def test_compare_golden_ratio():
    golden = QuadraticSurd(1, 1, 5, 2)
    assert golden.compare(parse_surd("8/5")) == 1
    assert golden.compare(Fraction(13, 8)) == -1


def test_canonical_form():
    x = QuadraticSurd(2, 0, 5, 4)
    assert (x.p, x.q, x.d, x.r) == (1, 0, 0, 2)
    y = QuadraticSurd(2, 4, 5, 6)
    assert (y.p, y.q, y.d, y.r) == (1, 2, 5, 3)


def test_square_free_required():
    with pytest.raises(ValueError):
        QuadraticSurd(0, 1, 12)


def test_squarefree_matches_trial_division_to_the_square_root():
    def by_definition(d):
        return all(d % (f * f) for f in range(2, math.isqrt(d) + 1))

    assert [d for d in range(1, 20000) if _squarefree(d) != by_definition(d)] == []
    p, q = 1000003, 999983  # primes above the cube root of their product and square
    assert not _squarefree(p * p) and not _squarefree(2 * p * p)
    assert _squarefree(p * q) and _squarefree(2 * p * q)


def test_radicand_bound():
    assert QuadraticSurd(0, 1, MAX_RADICAND - 11).d == MAX_RADICAND - 11  # the largest prime below 10**18
    with pytest.raises(ValueError, match=f"^radicand {MAX_RADICAND + 1} is above the bound {MAX_RADICAND}$"):
        QuadraticSurd(0, 1, MAX_RADICAND + 1)


def test_a_large_radicand_is_checked_quickly():
    # trial division up to sqrt(d) took longer than 20 s here
    argv = ["generate", "mechanical", "--alpha", "(0+1*sqrt(10000000000000061))/100000000",
            "--rho", "1/3", "--len", "5"]
    out = io.StringIO()
    began = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert time.perf_counter() - began < 2
    assert (code, out.getvalue()) == (0, "00000\n")


def test_d_one_folds_into_rational():
    x = QuadraticSurd(1, 3, 1, 2)
    assert x.is_rational and x.as_fraction() == Fraction(2)


@pytest.mark.parametrize("x, p, r", [(-3, -3, 1), (Fraction(6, -4), -3, 2), ("1/3", 1, 3), (True, 1, 1)])
def test_from_fraction_of_an_int_a_fraction_and_text(x, p, r):
    y = QuadraticSurd.from_fraction(x)
    assert (y.p, y.q, y.d, y.r) == (p, 0, 0, r)
    assert y.as_fraction() == Fraction(p, r)


def test_fraction_and_bool_operands():
    x = QuadraticSurd(1, 1, 5, 2)  # the golden ratio, 1.618...
    half = Fraction(1, 2)
    assert x + half == half + x == QuadraticSurd(2, 1, 5, 2)
    assert x - half == QuadraticSurd(0, 1, 5, 2) and half - x == QuadraticSurd(0, -1, 5, 2)
    assert x * half == half * x == QuadraticSurd(1, 1, 5, 4)
    assert x + True == True + x == QuadraticSurd(3, 1, 5, 2)
    assert x - True == QuadraticSurd(-1, 1, 5, 2) and True - x == QuadraticSurd(1, -1, 5, 2)
    assert x * True == x and x * False == 0
    assert Fraction(8, 5) < x < Fraction(13, 8) and x > half >= QuadraticSurd(1, 0, 0, 2)
    assert not x <= Fraction(8, 5) and not x >= Fraction(13, 8)
    assert True < x and x > True and False < x and QuadraticSurd(1) == True and QuadraticSurd(0) == False
    assert QuadraticSurd(1, 0, 0, 2) == half and half == QuadraticSurd(1, 0, 0, 2) and x != half
    with pytest.raises(TypeError, match="cannot combine QuadraticSurd with float"):
        x + 0.5
    assert x != 0.5


def test_a_rational_surd_hashes_as_its_fraction():
    assert hash(QuadraticSurd(1, 0, 0, 2)) == hash(Fraction(1, 2))
    assert hash(QuadraticSurd(-6, 0, 0, 3)) == hash(Fraction(-2)) == hash(-2)
    assert {QuadraticSurd(2, 0, 0, 4): "half"}[Fraction(1, 2)] == "half"


@pytest.mark.parametrize("spec", [
    "mechanical:(3-sqrt(5))/2:(5-sqrt(5))/2",  # R = A + 1
    "mechanical-upper:(3-sqrt(5))/2:(5-sqrt(5))/2",
    "mechanical:(3-sqrt(5))/2:(-1-sqrt(5))/2",  # R = A - 2
])
def test_an_integer_intercept_offset_gives_the_characteristic_word(spec, monkeypatch):
    """R - A an integer: the word is read off the standard words of A, and no floor is taken."""
    alpha = QuadraticSurd(3, -1, 5, 2)
    expected = bytes(letter for letter, _ in zip(floor_letters(alpha, alpha), range(3000)))
    monkeypatch.setattr(generators, "_floor_differences", None)
    assert word_from_spec(spec).prefix_bytes(3000) == expected


def test_a_fractional_intercept_offset_takes_the_floors():
    alpha = QuadraticSurd(3, -1, 5, 2)
    rho = alpha + Fraction(1, 2)
    expected = bytes(letter for letter, _ in zip(floor_letters(alpha, rho), range(3000)))
    assert word_from_spec("mechanical:(3-sqrt(5))/2:(4-sqrt(5))/2").prefix_bytes(3000) == expected


def test_incompatible_radicands():
    with pytest.raises(ValueError):
        QuadraticSurd(0, 1, 2) + QuadraticSurd(0, 1, 3)


def test_parse_forms():
    assert parse_surd("(3-1*sqrt(5))/2") == QuadraticSurd(3, -1, 5, 2)
    assert parse_surd("(3-sqrt(5))/2") == QuadraticSurd(3, -1, 5, 2)
    assert parse_surd("(0+1*sqrt(2))") == QuadraticSurd(0, 1, 2)
    assert parse_surd("5") == QuadraticSurd(5)
    with pytest.raises(ValueError):
        parse_surd("sqrt five")


def test_ceil():
    x = QuadraticSurd(3, -1, 5, 2)  # ~0.38
    assert x.ceil() == 1
    assert QuadraticSurd(4, 0, 0, 2).ceil() == 2


rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=999
)


@given(rationals)
def test_rational_floor_matches_fraction(x):
    assert QuadraticSurd.from_fraction(x).floor() == math.floor(x)


@given(
    st.integers(-50, 50),
    st.integers(-20, 20),
    st.sampled_from([2, 3, 5, 7, 10, 13]),
    st.integers(1, 30),
)
def test_floor_brackets_value(p, q, d, r):
    x = QuadraticSurd(p, q, d, r)
    f = x.floor()
    assert QuadraticSurd.from_fraction(f) <= x < QuadraticSurd.from_fraction(f + 1)
    assert x.ceil() == -((-x).floor())


@given(
    st.integers(-30, 30), st.integers(-10, 10), st.integers(-30, 30), st.integers(-10, 10)
)
def test_arithmetic_matches_float(p1, q1, p2, q2):
    a = QuadraticSurd(p1, q1, 5, 3)
    b = QuadraticSurd(p2, q2, 5, 7)
    assert math.isclose(float(a + b), float(a) + float(b), abs_tol=1e-9)
    assert math.isclose(float(a - b), float(a) - float(b), abs_tol=1e-9)
    assert math.isclose(float(a * b), float(a) * float(b), abs_tol=1e-6)
    if abs(float(a) - float(b)) > 1e-9:
        assert (a.compare(b) > 0) == (float(a) > float(b))


@given(st.integers(-40, 40), st.integers(-15, 15), st.integers(1, 9))
def test_compare_is_exact_near_equality(p, q, r):
    # x == x with independently scaled components
    x = QuadraticSurd(p, q, 7, r)
    y = QuadraticSurd(3 * p, 3 * q, 7, 3 * r)
    assert x.compare(y) == 0
    assert x == y


# square-free radicands up to MAX_RADICAND: products of distinct primes, the
# largest 999999937 * 1000003 * 997, and the largest prime below the bound
PRIMES = [2, 3, 5, 7, 11, 13, 97, 997, 999983, 1000003, 999999937]
radicands = st.one_of(
    st.sets(st.sampled_from(PRIMES), min_size=1, max_size=4).map(math.prod).filter(lambda d: d <= MAX_RADICAND),
    st.just(MAX_RADICAND - 11),
)


def sign_by_squaring(p, q, d):
    """The sign of p + q*sqrt(d): t -> t*|t| is increasing, so it is the sign of p*|p| + q*|q|*d."""
    s = p * abs(p) + q * abs(q) * d
    return (s > 0) - (s < 0)


@given(
    radicands,
    st.integers(-(10**9), 10**9),
    st.integers(-2, 2),
    st.integers(1, 10**6),
    st.tuples(st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
)
def test_compare_matches_squaring_near_cancellation(d, q, delta, r, other):
    # x - y = (p + q*sqrt(d))/r with p = -q*sqrt(d) rounded, plus delta: nearly 0
    s = math.isqrt(q * q * d)
    p = (s if q < 0 else -s) + delta
    y = QuadraticSurd._of(other[0], other[1], d, other[2])
    x = y + QuadraticSurd._of(p, q, d, r)
    expected = sign_by_squaring(p, q, d)
    assert x.compare(y) == expected == -y.compare(x)
    assert (x == y) == (expected == 0) == (p == q == 0)
