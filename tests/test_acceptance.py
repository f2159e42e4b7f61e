"""Acceptance suite: one test per criterion, at the stated bounds and tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Each test asserts the criterion exactly and prints PASS with its
measured runtime (a FAIL surfaces as an ordinary assertion error).
"""

import itertools
import random
import time
from fractions import Fraction

from sturmlex.analysis import block_condition, complexity, is_balanced
from sturmlex.surds import QuadraticSurd
from sturmlex.words import BINARY, Alphabet, FiniteWord, LexOrder, UltimatelyPeriodicWord, prepend, shift
from sturmlex.generators import (
    DirectiveWord,
    Morphism,
    characteristic,
    epistandard,
    fibonacci_slope,
    kbonacci,
    mechanical_lower,
    periodic_balanced,
    thue_morse,
)
from sturmlex.extremal import (
    check_epistandard_ineq,
    check_sturmian_extremal,
    fine_test,
    finite_episturmian_test,
    gamma_membership,
    max_factor,
    min_factor,
    not_balanced_witness,
)
from sturmlex.modone import (
    DigitExpansion,
    fractional_parts,
    min_covering_interval,
    veerman_interval,
)
from sturmlex.oracle import naive_min_max

A3 = Alphabet.of_size(3)

SLOPES = (
    fibonacci_slope(),            # (3 - sqrt(5))/2
    QuadraticSurd(-1, 1, 5, 2),   # (sqrt(5) - 1)/2
    QuadraticSurd(2, -1, 2, 2),   # (2 - sqrt(2))/2
)


def report(number: int, detail: str, t0: float, budget: float):
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE {number}: PASS — {detail} [{elapsed:.2f}s, budget {budget:.0f}s]")
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


def test_criterion_1_fibonacci_reproduction():
    t0 = time.perf_counter()
    mech = mechanical_lower(fibonacci_slope(), fibonacci_slope())
    assert mech.prefix(8).as_str() == "01001010"
    standard = epistandard(DirectiveWord.from_text("ab*"))
    assert mech.prefix_bytes(2000) == standard.prefix_bytes(2000)
    report(1, "mechanical prefix 01001010; agrees with iterated closure to 2000", t0, 1.0)


def test_criterion_2_complexity_laws():
    t0 = time.perf_counter()
    words = [
        characteristic(SLOPES[0]),
        characteristic(SLOPES[1]),
        mechanical_lower(SLOPES[2], Fraction(1, 3)),
    ]
    for w in words:
        assert complexity(w, 50, 2000) == [k + 1 for k in range(1, 51)]
    assert complexity(kbonacci(3), 30, 2000) == [2 * k + 1 for k in range(1, 31)]
    report(2, "p(k)=k+1 (3 surd slopes, k<=50); p(k)=2k+1 (tribonacci, k<=30)", t0, 10.0)


def test_criterion_3_balance_oracle_equivalence():
    t0 = time.perf_counter()
    count = 0
    for n in range(1, 13):
        for bits in itertools.product((0, 1), repeat=n):
            w = FiniteWord(bytes(bits), BINARY)
            b1 = is_balanced(w)
            b2, _ = finite_episturmian_test(w)
            b3 = not_balanced_witness(w) is None
            b4 = block_condition(w)
            assert b1 == b2 == b3 == b4, w.as_str()
            count += 1
    assert count == 8190
    report(3, f"4-way equivalence on all {count} binary words of length <= 12", t0, 120.0)


def test_criterion_4_extremal_bounded_suite():
    t0 = time.perf_counter()
    sturmians = [
        mechanical_lower(SLOPES[0], Fraction(1, 3)),
        characteristic(SLOPES[1]),
        mechanical_lower(SLOPES[2], Fraction(2, 7)),
    ]
    for slope, s in zip(SLOPES, sturmians):
        u = characteristic(slope)
        for j in range(10):
            verdict = check_sturmian_extremal(shift(s, j), u, 200, 400)
            assert verdict.holds, (slope, j)

    controls = [shift(thue_morse(), j) for j in range(4)]
    for i in range(6):
        base = characteristic(SLOPES[i % 3])
        head = bytearray(base.prefix_bytes(60 + i))
        head[30 + i] ^= 1  # plant an unbalanced patch
        controls.append(prepend(FiniteWord(bytes(head), BINARY), shift(base, 60 + i)))
    assert len(controls) == 10
    u = characteristic(SLOPES[0])
    for control in controls:
        verdict = check_sturmian_extremal(control, u, 200, 400)
        assert not verdict.holds and verdict.witness is not None
        assert 0 <= verdict.witness["shift"] <= 200
    report(4, "30 Sturmian shift checks hold; 10 controls fail with witnesses", t0, 30.0)


def test_criterion_5_pirillo_glen_suite():
    t0 = time.perf_counter()
    for word in (kbonacci(3), kbonacci(4)):
        rep = check_epistandard_ineq(word, 100, 300)
        assert rep.holds and rep.strict, word.recipe
        assert all(p.verdict.holds and p.equality for p in rep.pairs)

    f = epistandard(DirectiveWord.from_text("ab*"))
    f3 = epistandard(DirectiveWord.from_text("ab*", A3))
    cf = prepend(FiniteWord.from_str("c", A3), f3)
    fine_words = [
        f,
        cf,
        Morphism.psi(0, f.alphabet).apply(f),
        Morphism.psi(2, A3).apply(cf),
    ]
    for w in fine_words:
        assert fine_test(w, 100).holds, w.recipe
    not_fine = Morphism.psi(2, A3).apply(f3)
    assert not fine_test(not_fine, 100).holds
    report(5, "strict inequalities on tribonacci/kbonacci(4); fine verdicts reproduced", t0, 60.0)


def test_criterion_6_exact_min_max_values():
    t0 = time.perf_counter()
    s = periodic_balanced(FiniteWord.from_str("ab"), 0, 1)   # (abaab)^w
    s2 = periodic_balanced(FiniteWord.from_str("ab"), 1, 0)  # (ababa)^w
    expected_min = UltimatelyPeriodicWord.purely_periodic(FiniteWord.from_str("aabab"))
    expected_max = UltimatelyPeriodicWord.purely_periodic(FiniteWord.from_str("babaa"))
    assert min_factor(s, 50).data == expected_min.prefix_bytes(50)
    assert max_factor(s2, 50).data == expected_max.prefix_bytes(50)
    report(6, "min((abaab)^w)=(aabab)^w and max((ababa)^w)=(babaa)^w to depth 50", t0, 5.0)


def test_criterion_7_covering_lengths():
    t0 = time.perf_counter()
    fib_digits = DigitExpansion(2, characteristic(fibonacci_slope()))
    parts = fractional_parts(fib_digits, 200, 256)
    length, _ = min_covering_interval(parts)
    assert abs(length - Fraction(1, 2)) <= Fraction(1, 2**40)

    rng = random.Random(20090714)
    for _ in range(20):
        while True:
            bits = bytes(rng.randrange(2) for _ in range(300))
            w = FiniteWord(bits, Alphabet.digits(2))
            if not is_balanced(w):
                break
        parts = fractional_parts(DigitExpansion(2, w), 236, 64)
        length, _ = min_covering_interval(parts)
        assert length - Fraction(1, 2) >= Fraction(1, 2**8)
    report(7, "fib covering within 2^-40 of 1/2; 20 unbalanced words exceed by 2^-8", t0, 60.0)


def test_criterion_8_veerman_endpoints():
    t0 = time.perf_counter()
    for alpha in SLOPES:
        r0, r1 = veerman_interval(alpha, 64)
        assert abs((r1.lo - r0.lo) - Fraction(1, 2)) <= Fraction(1, 2**62)
        assert abs((r1.hi - r0.hi) - Fraction(1, 2)) <= Fraction(1, 2**62)
    report(8, "|(r1 - r0) - 1/2| <= 2^-62 at L=64 for three surd slopes", t0, 5.0)


def test_criterion_9_gamma_self_sturmian():
    t0 = time.perf_counter()
    high_slopes = [QuadraticSurd(-1, 1, 5, 2), QuadraticSurd(0, 1, 2, 2), QuadraticSurd(-1, 1, 3, 1)]
    for alpha in high_slopes:
        u = characteristic(alpha)
        assert u.letter(0) == 1, alpha
        assert gamma_membership(prepend(FiniteWord.from_str("1"), u), 200, 400).holds

    for alpha in SLOPES:
        u = characteristic(alpha)
        if u.letter(0) == 0:
            w = prepend(FiniteWord.from_str("1"), u)  # starts 10...
            verdict = gamma_membership(w, 200, 400)
            assert not verdict.holds and verdict.witness is not None
    report(9, "1u in Gamma for characteristic u starting 1; 10-prefixed words fail", t0, 30.0)


def test_criterion_10_differential_min_max():
    t0 = time.perf_counter()
    rng = random.Random(0)
    mismatches = 0
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
        if lo != min_factor(w, k, order) or hi != max_factor(w, k, order):
            mismatches += 1
    assert mismatches == 0
    report(10, "naive sort-based min/max agrees with scan on 500 randomized cases", t0, 30.0)
