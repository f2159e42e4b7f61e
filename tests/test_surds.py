"""Exact surd arithmetic against Fraction and float oracles."""

import contextlib
import io
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sturmlex.cli import main
from sturmlex.surds import MAX_RADICAND, QuadraticSurd, _squarefree, parse_surd, surd_compare, surd_floor


def test_floor_examples():
    assert surd_floor(QuadraticSurd(3, -1, 5, 2)) == 0
    assert surd_floor(parse_surd("7/2")) == 3
    assert surd_floor(QuadraticSurd.from_fraction(Fraction(-7, 2))) == -4


def test_compare_golden_ratio():
    golden = QuadraticSurd(1, 1, 5, 2)
    assert surd_compare(golden, parse_surd("8/5")) == 1
    assert surd_compare(golden, Fraction(13, 8)) == -1


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


def test_incompatible_radicands():
    with pytest.raises(ValueError):
        QuadraticSurd(0, 1, 2) + QuadraticSurd(0, 1, 3)


def test_parse_forms():
    assert parse_surd("(3-1*sqrt(5))/2") == QuadraticSurd(3, -1, 5, 2)
    assert parse_surd("(3-sqrt(5))/2") == QuadraticSurd(3, -1, 5, 2)
    assert parse_surd("(0+1*sqrt(2))") == QuadraticSurd.sqrt(2)
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
