"""The fixed-point floor kernel against one exact surd floor per term.

`surds.progression_letters` brackets each block of floors in fixed point and
certifies the block by two floor sums, reading its letters from a table of
carry words; where the sums differ it walks the block with exact floors.
Its letters are checked against the differences of
`oracle.progression_floors_by_term`, one isqrt per term, at the production bit
width and at widths of 2 to 16 bits, where the brackets are loose enough that
the exact walk runs in most blocks and the table's cut points collide.
"""

from bisect import bisect_right
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from sturmlex import surds
from sturmlex.oracle import progression_floors_by_term
from sturmlex.generators import fibonacci_slope, mechanical_lower
from sturmlex.surds import QuadraticSurd, _carry_table, _floor_sum, progression_letters

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


def letters_by_term(alpha, rho, start, stop):
    f = progression_floors_by_term(alpha, rho, start, stop + 1)
    return bytes(b - a - alpha.floor() for a, b in zip(f, f[1:]))


def floors_from_letters(alpha, rho, start, stop):
    """floor(k*alpha + rho) for start <= k < stop: one exact floor, then the letters' running sum."""
    if stop <= start:
        return []
    floors = [(alpha * start + rho).floor()]
    for letter in progression_letters(alpha, rho)(start, stop - 1):
        floors.append(floors[-1] + letter + alpha.floor())
    return floors


@given(progressions())
@settings(max_examples=150, deadline=None)
def test_progression_floors_match_one_floor_per_term(case):
    assert floors_from_letters(*case) == progression_floors_by_term(*case)


def test_empty_and_reversed_ranges():
    alpha = QuadraticSurd(3, -1, 5, 2)
    assert progression_letters(alpha, alpha)(5, 5) == b""
    assert progression_letters(alpha, alpha)(9, 5) == b""
    assert progression_letters(QuadraticSurd(2, 0, 0, 3), QuadraticSurd(1))(9, 5) == b""


def test_a_straddled_integer_takes_the_exact_floor():
    # 3*sqrt(2) + 3 - 3*sqrt(2) = 3 is an integer: with the fractional slope
    # sqrt(2) - 1 that term is 0, its lower bracket reads -1 and its upper 0,
    # so the block's sums differ and one exact floor decides that term
    alpha = QuadraticSurd(0, 1, 2)
    rho = QuadraticSurd(3, -3, 2)
    with mock.patch.object(surds, "_floor", wraps=surds._floor) as exact:
        got = progression_letters(alpha, rho)(0, 6)
    assert got == letters_by_term(alpha, rho, 0, 6)
    assert got[2:4] == b"\x01\x00"  # the floors 1, 3, 4 around floor(3*alpha + rho) = 3, less floor(alpha) = 1
    # the integer part and the fixed-point step of the slope, the block's start, the term
    assert exact.call_count == 4


@st.composite
def letter_ranges(draw):
    """(alpha, rho, start, stop) of progressions(), starting on or off a block of 4096 letters."""
    alpha, rho, start, stop = draw(progressions())
    if draw(st.booleans()):
        block_start = (surds._BLOCK - 1) * draw(st.integers(0, 300))
        start, stop = block_start, block_start + stop - start
    return alpha, rho, start, stop


def check_letters(case):
    alpha, rho, start, stop = case
    letters = progression_letters(alpha, rho)
    assert letters(start, stop) == letters_by_term(*case)
    # a grower asks for consecutive ranges of one table
    mid = (start + stop) // 2
    assert letters(start, mid) + letters(mid, stop) == letters(start, stop)


@given(letter_ranges())
@settings(max_examples=200, deadline=None)
def test_letters_match_floor_differences(case):
    check_letters(case)


@given(letter_ranges(), st.integers(2, 16))
@settings(max_examples=150, deadline=None)
def test_narrow_brackets_fall_back_to_exact_floors(case, bits):
    with mock.patch.object(surds, "_BITS", bits):
        check_letters(case)


def carries(x, step, bits):
    """The _CARRY carries of x -> x + step mod 2**bits, one shift per term."""
    return bytes(((x + (i + 1) * step) >> bits) - ((x + i * step) >> bits) for i in range(surds._CARRY))


@given(st.integers(2, 48).flatmap(lambda bits: st.tuples(st.just(bits), st.integers(0, 2**bits - 1))))
@settings(max_examples=200, deadline=None)
def test_each_carry_word_holds_on_its_whole_arc(case):
    bits, step = case
    one = 1 << bits
    cuts, words = _carry_table(step, bits)
    assert cuts == sorted({-i * step % one for i in range(surds._CARRY + 1)} - {0})
    assert len(words) == len(cuts) + 1
    for first, stop, word in zip([0, *cuts], [*cuts, one], words):
        assert word == carries(first, step, bits) == carries(stop - 1, step, bits)
        assert words[bisect_right(cuts, first)] is word


def test_a_rotation_point_on_a_cut_reads_the_arc_it_starts():
    # rho = 1/4 + eps with 0 < eps = (3 - 2*sqrt(2))**22 < 2**-48: slope 1/4 has
    # A = 2**46 and the block's T = 2**46 = -3*A mod 2**48 is a cut point.  The
    # block is certified, and its letters are those of the arc [T, next cut)
    x, y = 1, 0
    for _ in range(22):
        x, y = 3 * x + 4 * y, 2 * x + 3 * y
    alpha = QuadraticSurd(1, 0, 0, 4)
    rho = alpha + QuadraticSurd(x, -y, 2)
    assert 2**46 in _carry_table(2**46, surds._BITS)[0]
    floor, exact = surds._floor, []
    with mock.patch.object(surds, "_floor", lambda *args: exact.append(floor(*args)) or exact[-1]):
        got = progression_letters(alpha, rho)(0, 4096)
    # floor(alpha), A = 2**46 and the block's T = floor(rho * 2**48), and no
    # exact floor of a term: the block is certified
    assert exact == [0, 2**46, 2**46]
    assert got == b"\x00\x00\x01\x00" * 1024 == letters_by_term(alpha, rho, 0, 4096)


def test_fibonacci_word_takes_one_exact_floor_per_block():
    n = 10**5
    alpha = fibonacci_slope()
    with mock.patch.object(surds, "_floor", wraps=surds._floor) as exact:
        got = mechanical_lower(alpha, Fraction(1, 3)).prefix_bytes(n)
    assert got == letters_by_term(alpha, QuadraticSurd(1, 0, 0, 3), 0, n)
    # the slope's sign test, its integer part and fixed-point step, then one
    # isqrt per block of 4096 letters: every block is certified
    blocks = -(-n // (surds._BLOCK - 1))
    assert exact.call_count == 3 + blocks
