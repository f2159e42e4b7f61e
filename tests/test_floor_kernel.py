"""The fixed-point floor kernel against one exact surd floor per term.

`surds.progression_floors` brackets each block of floors in fixed point and
certifies the block by two floor sums, walking it with exact floors only
where the sums differ.  Here it is checked against
`oracle.progression_floors_by_term`, one isqrt per term, at the production bit
width and at widths of 2 to 16 bits, where the brackets are loose enough that
the exact walk runs in most blocks.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from sturmlex import surds
from sturmlex.oracle import progression_floors_by_term
from sturmlex.surds import QuadraticSurd, _floor_sum, progression_floors

RADICANDS = [2, 3, 5, 7, 13, 10**6 + 3]


@st.composite
def progressions(draw):
    """(alpha, rho, start, stop): slopes of either sign, three kinds of intercept, long ranges."""
    d = draw(st.sampled_from(RADICANDS))
    r = draw(st.integers(1, 40))
    if draw(st.booleans()):
        alpha = QuadraticSurd(draw(st.integers(-90, 90)), draw(st.integers(-9, 9)), d, r)
    else:
        alpha = QuadraticSurd(draw(st.integers(-90, 90)), 0, 0, r)
    kind = draw(st.sampled_from(["rational", "surd", "on the orbit"]))
    if kind == "rational":
        rho = QuadraticSurd(draw(st.integers(-99, 99)), 0, 0, draw(st.integers(1, 40)))
    elif kind == "surd":
        rho = QuadraticSurd(draw(st.integers(-99, 99)), draw(st.integers(-9, 9)), d, draw(st.integers(1, 40)))
    else:  # rho = m*alpha + j: some term k*alpha + rho with k = -m is an integer
        rho = alpha * draw(st.integers(-12, 12)) + draw(st.integers(-5, 5))
    start = draw(st.one_of(st.integers(-20, 20), st.integers(0, 10**6)))
    # lengths on both sides of one and two blocks
    length = draw(st.one_of(
        st.integers(0, 40),
        st.sampled_from([surds._BLOCK - 1, surds._BLOCK, surds._BLOCK + 1, 2 * surds._BLOCK + 3]),
    ))
    return alpha, rho, start, start + length


@given(progressions())
@settings(max_examples=150, deadline=None)
def test_progression_floors_match_one_floor_per_term(case):
    assert progression_floors(*case) == progression_floors_by_term(*case)


@given(progressions(), st.integers(2, 16))
@settings(max_examples=150, deadline=None)
def test_narrow_brackets_fall_back_to_exact_floors(case, bits):
    with mock.patch.object(surds, "_BITS", bits):
        assert progression_floors(*case) == progression_floors_by_term(*case)


def test_a_straddled_integer_takes_the_exact_floor():
    # 3*sqrt(2) + 3 - 3*sqrt(2) = 3 is an integer: with the fractional slope
    # sqrt(2) - 1 that term is 0, its lower bracket reads -1 and its upper 0,
    # so the block's sums differ and one exact floor decides that term
    alpha = QuadraticSurd(0, 1, 2)
    rho = QuadraticSurd(3, -3, 2)
    with mock.patch.object(surds, "_floor", wraps=surds._floor) as exact:
        got = progression_floors(alpha, rho, 0, 7)
    assert got == progression_floors_by_term(alpha, rho, 0, 7)
    assert got[3] == 3
    # the integer part and the fixed-point step of the slope, the block's start, the term
    assert exact.call_count == 4


def test_empty_and_reversed_ranges():
    alpha = QuadraticSurd(3, -1, 5, 2)
    assert progression_floors(alpha, alpha, 5, 5) == []
    assert progression_floors(alpha, alpha, 9, 5) == []
    assert progression_floors(QuadraticSurd(2, 0, 0, 3), QuadraticSurd(1), 9, 5) == []


@given(
    st.integers(0, 300),
    st.integers(1, 2**50),
    st.integers(0, 2**51),
    st.integers(-(2**51), 2**51),
)
def test_floor_sum_matches_a_plain_sum(n, m, a, b):
    assert _floor_sum(n, m, a, b) == sum((a * j + b) // m for j in range(n))


def test_floor_sum_at_a_bracket_of_the_kernel():
    n, m = surds._BLOCK, 1 << surds._BITS
    for a, b in [(m - 1, m - 1), (m // 3, 0), (0, 5), (m, 0), (12345678901, m - 2)]:
        assert _floor_sum(n, m, a, b) == sum((a * j + b) // m for j in range(n))
