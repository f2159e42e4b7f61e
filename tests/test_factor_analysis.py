"""Linear-time factor analysis and orbit covering against their reference recomputations."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmlex.analysis import balance_violation, complexity, is_balanced
from sturmlex import modone
from sturmlex.cli import main
from sturmlex.extremal import max_finite, min_finite
from sturmlex.generators import characteristic, fibonacci_slope, kbonacci, thue_morse
from sturmlex.modone import (
    DigitExpansion,
    RationalInterval,
    digits_from_rational,
    fractional_parts,
    min_covering_interval,
)
from sturmlex.oracle import (
    balanced_by_definition,
    complexity_by_length,
    covering_by_fractions,
    enumerate_balanced,
    finite_extremal_by_chain,
    fractional_parts_by_shift,
)
from sturmlex.words import Alphabet, FiniteWord, LexOrder

B2 = Alphabet.of_size(2)


def binary(data):
    return FiniteWord(bytes(data), B2)


def shortest_violation(data):
    """The witness by definition: at the least violating length, the first least and first greatest window."""
    n = len(data)
    for length in range(1, n + 1):
        windows = [data[i : i + length] for i in range(n - length + 1)]
        counts = [w.count(1) for w in windows]
        if max(counts) - min(counts) >= 2:
            return windows[counts.index(min(counts))], windows[counts.index(max(counts))]
    return None


def near_sturmian(rng, n):
    """A Fibonacci factor with up to two flipped letters, so about half are unbalanced."""
    start = rng.randrange(200)
    data = bytearray(characteristic(fibonacci_slope()).prefix_bytes(start + n)[start:])
    for _ in range(rng.randrange(3)):
        data[rng.randrange(n)] ^= 1
    return bytes(data)


# ---------------------------------------------------------------------------
# balance


@pytest.mark.parametrize("n", range(1, 17))
def test_is_balanced_exhaustive(n):
    fast = {bits for bits in itertools.product((0, 1), repeat=n) if is_balanced(binary(bits))}
    assert fast == {w.letters for w in enumerate_balanced(n)}


def test_is_balanced_empty_and_single_letters():
    assert is_balanced(binary(b""))
    assert is_balanced(binary(b"\x00")) and is_balanced(binary(b"\x01"))


def test_balance_violation_witness_matches_definition():
    rng = random.Random(7)
    unbalanced = 0
    for _ in range(400):
        data = near_sturmian(rng, rng.randrange(2, 80))
        pair = balance_violation(binary(data))
        expected = shortest_violation(data)
        assert (pair is None) == (expected is None) == balanced_by_definition(data)
        if pair is not None:
            unbalanced += 1
            assert (pair[0].data, pair[1].data) == expected
    assert unbalanced > 50


@given(st.lists(st.integers(0, 1), max_size=40))
@settings(max_examples=300)
def test_is_balanced_hypothesis(bits):
    data = bytes(bits)
    assert is_balanced(binary(data)) == balanced_by_definition(data)
    assert balance_violation(binary(data)) == (
        None if shortest_violation(data) is None else tuple(binary(w) for w in shortest_violation(data))
    )


def test_balance_long_prefixes():
    fib = characteristic(fibonacci_slope())
    assert is_balanced(fib, 200000)
    assert balance_violation(fib, 200000) is None
    pair = balance_violation(thue_morse(), 200000)
    assert (pair[0].as_str(), pair[1].as_str()) == ("00", "11")


def test_balance_rejects_larger_alphabets():
    with pytest.raises(ValueError, match="binary"):
        is_balanced(FiniteWord(b"\x00\x01\x02", Alphabet.of_size(3)))


# ---------------------------------------------------------------------------
# complexity


@pytest.mark.parametrize(
    "word, n",
    [(characteristic(fibonacci_slope()), 3000), (kbonacci(3), 3000), (kbonacci(4), 2000), (thue_morse(), 4000)],
)
def test_complexity_matches_per_length_sets(word, n):
    data = word.prefix_bytes(n)
    for k_max in (1, 2, 17, 60):
        assert complexity(word, k_max, n) == complexity_by_length(data, k_max)


def test_complexity_full_length_and_short_material():
    rng = random.Random(3)
    for _ in range(300):
        size = rng.randrange(1, 5)
        n = rng.randrange(1, 30)
        period = bytes(rng.randrange(size) for _ in range(rng.randrange(1, 6)))
        data = (period * n)[:n] if rng.random() < 0.5 else bytes(rng.randrange(size) for _ in range(n))
        w = FiniteWord(data, Alphabet.of_size(max(size, 2)))
        assert complexity(w, n) == complexity_by_length(data, n)


@given(st.integers(1, 4).flatmap(lambda size: st.binary(min_size=1, max_size=60).map(
    lambda raw: (size, bytes(c % size for c in raw)))), st.data())
@settings(max_examples=300)
def test_complexity_hypothesis(sized, draw):
    size, data = sized
    k_max = draw.draw(st.integers(1, len(data)))
    w = FiniteWord(data, Alphabet.of_size(max(size, 2)))
    assert complexity(w, k_max) == complexity_by_length(data, k_max)


@pytest.mark.parametrize("k_max", [0, -3])
def test_complexity_rejects_non_positive_k_max(k_max):
    with pytest.raises(ValueError, match="k_max"):
        complexity(characteristic(fibonacci_slope()), k_max, 100)


# ---------------------------------------------------------------------------
# fractional parts and covering arcs


def test_fractional_parts_match_per_shift_numerators():
    fib = characteristic(fibonacci_slope())
    cases = [
        (DigitExpansion(2, fib), 300, 256),
        (DigitExpansion(2, thue_morse()), 100, 1),
        (DigitExpansion(3, kbonacci(3)), 80, 17),
        (digits_from_rational(Fraction(5, 11), 10, 60), 40, 20),
        (digits_from_rational(Fraction(2, 7), 7, 30), 29, 1),
    ]
    for d, shifts, precision in cases:
        assert fractional_parts(d, shifts, precision) == fractional_parts_by_shift(d, shifts, precision)


@given(st.integers(2, 9), st.lists(st.integers(0, 8), min_size=2, max_size=50), st.data())
@settings(max_examples=200)
def test_fractional_parts_and_cover_hypothesis(base, raw, draw):
    digits = FiniteWord(bytes(c % base for c in raw), Alphabet.digits(base))
    precision = draw.draw(st.integers(1, len(raw) - 1))
    shifts = draw.draw(st.integers(0, len(raw) - precision))
    d = DigitExpansion(base, digits)
    parts = fractional_parts(d, shifts, precision)
    assert parts == fractional_parts_by_shift(d, shifts, precision)
    if parts:
        for circular in (True, False):
            assert min_covering_interval(parts, circular) == covering_by_fractions(parts, circular)


def test_fractional_parts_rejects_out_of_domain_arguments():
    with pytest.raises(ValueError, match="precision"):
        fractional_parts(DigitExpansion(2, thue_morse()), 5, 0)
    with pytest.raises(ValueError, match="shift count"):
        fractional_parts(DigitExpansion(2, thue_morse()), -3, 4)
    assert fractional_parts(DigitExpansion(2, thue_morse()), 0, 4) == []


def test_cover_on_orbit_intervals():
    fib = characteristic(fibonacci_slope())
    parts = fractional_parts(DigitExpansion(2, fib), 2000, 256)
    assert min_covering_interval(parts) == covering_by_fractions(parts)
    assert min_covering_interval(parts, circular=False) == covering_by_fractions(parts, circular=False)


def test_cover_on_unrelated_rationals():
    rng = random.Random(11)
    for _ in range(100):
        points = [Fraction(rng.randrange(q), q) for q in rng.sample(range(2, 400), rng.randrange(1, 12))]
        for circular in (True, False):
            assert min_covering_interval(points, circular) == covering_by_fractions(points, circular)
        # intervals of unequal widths starting in [0, 1), some nested in others and some past 1
        ends = [(Fraction(rng.randrange(q), q), Fraction(rng.randrange(q), q)) for q in rng.sample(range(2, 60), 6)]
        intervals = [RationalInterval(lo, lo + width) for lo, width in ends]
        for circular in (True, False):
            assert min_covering_interval(intervals, circular) == covering_by_fractions(intervals, circular)
    mixed = [RationalInterval(Fraction(1, 3), Fraction(2, 5)), Fraction(9, 10), 0]
    assert min_covering_interval(mixed) == covering_by_fractions(mixed)
    full = [RationalInterval(Fraction(0), Fraction(3, 5)), RationalInterval(Fraction(1, 2), Fraction(1))]
    assert min_covering_interval(full) == covering_by_fractions(full) == (Fraction(1), RationalInterval(0, 1))
    with pytest.raises(ValueError, match="empty"):
        min_covering_interval([])


@pytest.mark.parametrize("items", [
    [Fraction(3, 2), Fraction(1, 10)],  # was the arc (3/2, 11/10), of length -2/5
    [Fraction(-1, 10), Fraction(1, 2)],
    [Fraction(0), Fraction(1)],
    [RationalInterval(Fraction(1), Fraction(11, 10))],
    [RationalInterval(Fraction(1, 2), Fraction(3, 5)), RationalInterval(Fraction(-1, 10), Fraction(1, 10))],
], ids=["point past 1", "negative point", "point at 1", "interval start at 1", "negative interval start"])
def test_circle_points_and_interval_starts_lie_in_the_unit_interval(items):
    # a point of R/Z is a number in [0, 1); on the line any start is allowed
    for cover in (min_covering_interval, covering_by_fractions):
        with pytest.raises(ValueError, match=r"^points must lie in \[0, 1\)$"):
            cover(items)
    assert min_covering_interval(items, circular=False) == covering_by_fractions(items, circular=False)


# ---------------------------------------------------------------------------
# finite min and max words


def test_finite_min_max_match_chain_rescan():
    rng = random.Random(5)
    for _ in range(2000):
        size = rng.choice((2, 2, 3, 4))
        n = rng.randrange(1, 30)
        data = bytes(rng.randrange(rng.randrange(1, size + 1)) for _ in range(n))
        if rng.random() < 0.3:
            data = (data[: rng.randrange(1, 5)] * n)[:n]
        w = FiniteWord(data, Alphabet.of_size(size))
        perm = list(range(size))
        rng.shuffle(perm)
        order = LexOrder(tuple(perm))
        assert min_finite(w, order) == finite_extremal_by_chain(w, order, want_max=False)
        if size == 2:
            assert max_finite(w, order) == finite_extremal_by_chain(w, order, want_max=True)
    natural = LexOrder.natural(2)
    w = binary(b"\x00\x01" * 120)
    assert min_finite(w) == finite_extremal_by_chain(w, natural, want_max=False) == w
    assert max_finite(w) == finite_extremal_by_chain(w, natural, want_max=True) == w[1:]
    w = binary(b"\x00\x01" * 1200)
    assert min_finite(w) == w and max_finite(w) == w[1:]


def test_finite_min_max_errors():
    with pytest.raises(ValueError, match="min of the empty word"):
        min_finite(binary(b""))
    with pytest.raises(ValueError, match="max of the empty word"):
        max_finite(binary(b""))
    with pytest.raises(ValueError, match="binary"):
        max_finite(FiniteWord(b"", Alphabet.of_size(3)))


# ---------------------------------------------------------------------------
# exit codes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "complexity", "--word", "fib", "--k-max", "0"),
        ("analyze", "complexity", "--word", "fib", "--k-max", "-3"),
        ("modone", "cover", "--word", "fib", "--L", "0"),
        ("modone", "frac-parts", "--word", "fib", "--L", "0"),
        ("modone", "frac-parts", "--word", "fib", "--N", "-3"),
        ("modone", "gamma-tilde", "--x", "1/0"),
        ("modone", "cover", "--xi", "1/0"),
    ],
)
def test_out_of_domain_arguments_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ")


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    def broken(x):
        raise RuntimeError("boom")

    monkeypatch.setattr(modone, "_gamma_tilde_walk", broken)
    code, out, err = run(capsys, "modone", "gamma-tilde", "--x", "1/3")
    assert code == 3 and out == ""
    assert err.rstrip().endswith("internal error: RuntimeError: boom")


def test_checked_verdicts_keep_their_codes(capsys):
    assert run(capsys, "analyze", "balance", "--word", "fib", "--prefix", "5000")[0] == 0
    code, out, _ = run(capsys, "--format", "json", "analyze", "balance", "--word", "periodic:0011")
    assert code == 1 and '"violation": ["00", "11"]' in out
