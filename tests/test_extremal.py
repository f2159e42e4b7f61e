"""Extremal machinery: examples, invariants, and oracle equivalences."""

import itertools
import math
from fractions import Fraction

import pytest

from sturmlex.analysis import balance_violation, is_balanced
from sturmlex.surds import QuadraticSurd
from sturmlex.words import BINARY, BINARY_AB, Alphabet, FiniteWord, LexOrder, UltimatelyPeriodicWord, prepend, shift
from sturmlex.generators import (
    DirectiveWord,
    Morphism,
    characteristic,
    epistandard,
    fibonacci_slope,
    iterated_pal,
    kbonacci,
    mechanical_lower,
    periodic_balanced,
    thue_morse,
)
from sturmlex.extremal import (
    _characteristic_roster,
    _pair_text,
    acceptable_pairs,
    allowed_pair_check,
    characteristic_check,
    check_epistandard_ineq,
    check_sturmian_extremal,
    fine_test,
    finite_episturmian_test,
    gamma_membership,
    gan_phi_approx,
    local_balance_check,
    max_factor,
    max_finite,
    min_factor,
    min_finite,
    not_balanced_witness,
    sigma_xy_member,
)
from sturmlex.oracle import finite_episturmian_by_enumeration

A3 = Alphabet.of_size(3)


def W(text, alphabet=None):
    return FiniteWord.from_str(text, alphabet)


def periodic(text):
    return UltimatelyPeriodicWord.purely_periodic(W(text))


@pytest.fixture(scope="module")
def fib01():
    return characteristic(fibonacci_slope())


@pytest.fixture(scope="module")
def fib_ab():
    return epistandard(DirectiveWord.from_text("ab*"))


@pytest.fixture(scope="module")
def trib():
    return kbonacci(3)


@pytest.fixture(scope="module")
def f3():
    # Fibonacci word embedded in a 3-letter alphabet
    return epistandard(DirectiveWord.from_text("ab*", A3))


class TestAcceptablePairs:
    def test_counts(self):
        assert len(acceptable_pairs(BINARY)) == 2
        assert len(acceptable_pairs(A3)) == 6

    def test_letter_is_minimum(self):
        # a pair (a, <) is its order: a is the least letter, written first in the pair's text
        for order in acceptable_pairs(A3):
            letter, ranked = _pair_text(order, A3)[1:-1].split(", ")
            assert ranked.split("<")[0] == letter == A3.names[order.by_rank[0]]
        assert _pair_text(LexOrder((2, 0, 1)), A3) == "(c, c<a<b)"

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_one_distinct_order_per_permutation(self, size):
        orders = acceptable_pairs(Alphabet.of_size(size))
        assert all(isinstance(order, LexOrder) for order in orders)
        assert len(set(orders)) == len(orders) == math.factorial(size)

    def test_cap(self):
        assert len(acceptable_pairs(Alphabet.of_size(4))) == 24
        with pytest.raises(ValueError):
            acceptable_pairs(Alphabet(tuple("abcdefghi")))


class TestExtremalFactors:
    def test_periodic_examples(self):
        assert min_factor(periodic("abaab"), 5).as_str() == "aabab"
        assert max_factor(periodic("ababa"), 5).as_str() == "babaa"
        assert min_factor(W("aaa"), 2).as_str() == "aa"

    def test_min_word_examples(self, fib_ab):
        assert min_factor(fib_ab, 8).as_str() == "aabaabab"
        assert max_factor(fib_ab, 8).as_str() == "babaabab"
        assert min_factor(periodic("abaab"), 10).as_str() == "aababaabab"

    def test_prefix_monotonicity(self, fib_ab, trib):
        for w in (fib_ab, trib, periodic("abaab")):
            prev = min_factor(w, 1).data
            for k in range(2, 40):
                cur = min_factor(w, k).data
                assert cur[: k - 1] == prev
                prev = cur

    def test_custom_order(self):
        order = LexOrder.from_text("b<a", BINARY_AB)
        assert min_factor(periodic("abaab"), 5, order).as_str() == "babaa"

    def test_material_too_short(self):
        with pytest.raises(ValueError):
            min_factor(W("ab"), 3)


class TestFiniteMinMax:
    def test_examples(self):
        assert min_finite(W("ba")).as_str() == "a"
        assert min_finite(W("aab")).as_str() == "aab"
        assert min_finite(W("abab")).as_str() == "abab"

    def test_max_examples(self):
        assert max_finite(W("0011")).as_str() == "11"
        # windows of abab: chain b, ba, bab; baba is not a factor
        assert max_finite(W("abab")).as_str() == "bab"

    def test_max_needs_binary(self):
        with pytest.raises(ValueError):
            max_finite(FiniteWord([0, 1, 2], A3))


class TestSturmianExtremal:
    def test_characteristic_word_holds(self, fib01):
        v = check_sturmian_extremal(fib01, fib01, 200, 400)
        assert v.holds and v.shift_bound == 200 and v.depth_bound == 400

    def test_shifted_sturmian_holds(self, fib01):
        v = check_sturmian_extremal(shift(fib01, 3), fib01, 200, 400)
        assert v.holds

    def test_thue_morse_fails_with_witness(self, fib01):
        v = check_sturmian_extremal(thue_morse(), fib01, 200, 400)
        assert not v.holds
        assert v.witness is not None and "shift" in v.witness

    def test_json_shape(self, fib01):
        obj = check_sturmian_extremal(thue_morse(), fib01, 50, 100).to_obj()
        assert obj["status"] == "fails"
        assert set(obj["witness"]) == {"shift", "bound", "depth", "expected", "found"}


class TestCharacteristicCheck:
    def test_characteristic_words_hold(self, fib01):
        for alpha in (fibonacci_slope(), QuadraticSurd(-1, 1, 5, 2), QuadraticSurd(2, -1, 2, 2)):
            assert characteristic_check(characteristic(alpha), 200, 400).holds

    def test_periodic_characteristic_holds(self):
        s = periodic_balanced(W("ab"), 0, 1)  # characteristic periodic balanced
        assert characteristic_check(s, 100, 200).holds

    def test_perturbed_word_fails(self):
        # flip one letter of (01)^w: introduces 00 and 11 into the orbit
        data = bytearray(bytes([0, 1]) * 100)
        data[50] ^= 1
        control = prepend(FiniteWord(bytes(data), BINARY), periodic("01"))
        v = characteristic_check(control, 200, 300)
        assert not v.holds and v.witness is not None

    def test_non_characteristic_sturmian_fails(self):
        # a Sturmian word with intercept != slope is not characteristic
        s = mechanical_lower(fibonacci_slope(), Fraction(1, 3))
        assert not characteristic_check(s, 200, 400).holds


class TestEpistandardInequality:
    def test_tribonacci_strict(self, trib):
        rep = check_epistandard_ineq(trib, 100, 300)
        assert rep.holds and rep.strict
        assert len(rep.pairs) == 6
        assert all(p.verdict.holds and p.equality for p in rep.pairs)

    def test_nonstrict_epistandard(self, f3):
        s = Morphism.psi(2, A3).apply(f3)  # directive c(ab)^w: c occurs once
        rep = check_epistandard_ineq(s, 100, 300)
        assert rep.holds and not rep.strict
        for p in rep.pairs:
            expected = p.pair.by_rank[0] != 2  # only the pairs with minimum c miss equality
            assert p.equality == expected

    def test_periodic_balanced_case(self):
        rep = check_epistandard_ineq(periodic("ab"), 100, 300)
        assert rep.holds

    def test_equality_tracks_recurrent_directive_letters(self, f3):
        # epistandard over {a,b,c} directed by b(ac)^w: b occurs once
        s = epistandard(DirectiveWord.from_text("b|ac", A3))
        rep = check_epistandard_ineq(s, 100, 300)
        assert rep.holds and not rep.strict
        for p in rep.pairs:
            assert p.equality == (p.pair.by_rank[0] != 1)

    def test_non_episturmian_fails(self):
        rep = check_epistandard_ineq(thue_morse(), 100, 300)
        assert not rep.holds


class TestFiniteEpisturmian:
    def test_fibonacci_factor(self):
        ok, cert = finite_episturmian_test(W("aabab"))
        assert ok and cert is not None

    def test_unbalanced_binary_rejected(self):
        ok, cert = finite_episturmian_test(W("0011"))
        assert not ok and cert is None

    def test_single_letter(self):
        ok, cert = finite_episturmian_test(W("a", BINARY_AB))
        assert ok and len(cert) == 0

    def test_ternary_factor(self, trib):
        w = trib.prefix(7)
        ok, _ = finite_episturmian_test(w)
        assert ok

    def test_ternary_non_episturmian(self):
        # abc.acb contains two distinct left special factors worth of structure
        ok, _ = finite_episturmian_test(W("abcacb"))
        assert not ok

    def test_oracle_equivalence_small(self):
        for n in range(1, 11):
            for bits in itertools.product((0, 1), repeat=n):
                w = FiniteWord(bytes(bits), BINARY)
                ok, _ = finite_episturmian_test(w)
                assert ok == is_balanced(w), w.as_str()

    @pytest.mark.parametrize("size, n_max", [(2, 10), (3, 6), (4, 5), (5, 4)])
    def test_verdict_and_least_certificate_match_enumeration(self, size, n_max):
        alphabet = Alphabet(tuple("abcde"[:size]))
        for n in range(n_max + 1):
            for letters in itertools.product(range(size), repeat=n):
                w = FiniteWord(bytes(letters), alphabet)
                assert finite_episturmian_test(w) == finite_episturmian_by_enumeration(w), w.as_str()


class TestNotBalancedWitness:
    def test_example(self):
        u = not_balanced_witness(W("0011"))
        assert u is not None and len(u) == 0

    def test_balanced_words_have_none(self):
        for n in range(1, 11):
            for bits in itertools.product((0, 1), repeat=n):
                w = FiniteWord(bytes(bits), BINARY)
                assert (not_balanced_witness(w) is None) == (balance_violation(w) is None)

    def test_longer_witness(self):
        w = W("00100110110")
        u = not_balanced_witness(w)
        assert u is not None
        m, x = min_finite(w).data, max_finite(w).data
        ell = len(u)
        assert m[: ell + 2] == bytes([0]) + u.data + bytes([0])
        assert x[: ell + 2] == bytes([1]) + u.data + bytes([1])


class TestFineWords:
    def test_fibonacci_fine(self, fib_ab):
        assert fine_test(fib_ab, 100).holds

    def test_episkew_cf_fine(self, f3):
        cf = prepend(W("c", A3), f3)
        assert fine_test(cf, 100).holds

    def test_morphic_images(self, fib_ab, f3):
        assert fine_test(Morphism.psi(0, BINARY_AB).apply(fib_ab), 100).holds
        cf = prepend(W("c", A3), f3)
        assert fine_test(Morphism.psi(2, A3).apply(cf), 100).holds

    def test_nonstrict_epistandard_not_fine(self, f3):
        v = fine_test(Morphism.psi(2, A3).apply(f3), 100)
        assert not v.holds and v.witness is not None


class TestLocalBalance:
    def test_tribonacci(self, trib):
        v = local_balance_check(trib, 6, 2000)
        assert v.holds and v.detail["palindromic_variant_holds"]

    def test_violating_word(self):
        v = local_balance_check(W("00110"), 2)
        assert not v.holds and v.witness["factor"] == ""

    def test_constant_word(self):
        v = local_balance_check(periodic("a"), 3, 100)
        assert v.holds

    def test_richomme_consistency_on_roster(self, fib_ab):
        roster = [kbonacci(k) for k in (2, 3, 4)]
        mu = Morphism.psi(0, BINARY_AB).compose(Morphism.exchange(0, 1, BINARY_AB))
        roster.append(mu.apply(fib_ab))
        A4 = Alphabet.of_size(4)
        nu = Morphism.psi(3, A4).compose(Morphism.psi(1, A4)).compose(Morphism.psi(0, A4))
        roster.append(nu.apply(kbonacci(4)))
        for w in roster:
            assert local_balance_check(w, 6, 2000).holds, w.recipe


class TestGamma:
    def test_one_prefixed_characteristic(self):
        u = characteristic(QuadraticSurd(-1, 1, 5, 2))  # slope > 1/2, starts with 1
        assert u.letter(0) == 1
        assert gamma_membership(prepend(W("1"), u), 200, 400).holds

    def test_periodic_member(self):
        assert gamma_membership(periodic("10"), 100, 200).holds

    def test_zero_start_fails_immediately(self, fib01):
        v = gamma_membership(prepend(W("0"), fib01), 10, 50)
        assert not v.holds and v.witness["shift"] == 0

    def test_wrong_tail_fails(self, fib01):
        # 1 . (characteristic starting with 0)
        v = gamma_membership(prepend(W("1"), fib01), 200, 400)
        assert not v.holds


class TestAllowedPairs:
    def test_characteristic_pair(self, fib01):
        r = prepend(W("0"), fib01)
        s = prepend(W("1"), fib01)
        assert allowed_pair_check(r, s, 200, 400).holds

    def test_constant_pair(self):
        assert allowed_pair_check(periodic("0"), periodic("1"), 100, 200).holds

    def test_swapped_fails(self, fib01):
        r = prepend(W("1"), fib01)
        s = prepend(W("0"), fib01)
        assert not allowed_pair_check(r, s, 100, 200).holds

    def test_equal_inputs_rejected(self, fib01):
        with pytest.raises(ValueError):
            allowed_pair_check(fib01, fib01, 100, 200)


class TestSigmaAndPhi:
    def test_sigma_membership(self, fib01):
        x = prepend(W("0"), fib01)
        y = prepend(W("1"), fib01)
        assert sigma_xy_member(y, x, y, 200, 400).holds
        assert not sigma_xy_member(thue_morse(), x, y, 100, 200).holds

    def test_phi_of_one_start(self, fib01):
        res = gan_phi_approx(prepend(W("1"), fib01), 4, 50, 100)
        assert res.word is not None
        assert res.word.prefix(8).as_str() == "1" * 8

    def test_phi_of_periodic(self):
        x = prepend(W("0"), periodic("10"))
        res = gan_phi_approx(x, 4, 100, 200)
        assert res.word is not None
        assert res.word.prefix_bytes(200) == periodic("10").prefix_bytes(200)
        # the result is shift-maximal at the bounds
        assert check_shift_maximal(res.word, 100, 200)

    def test_phi_of_characteristic(self, fib01):
        res = gan_phi_approx(prepend(W("0"), fib01), 4, 200, 400)
        assert res.word is not None
        expected = prepend(W("1"), fib01)
        assert res.word.prefix_bytes(400) == expected.prefix_bytes(400)
        assert "P=4" in res.label and "K=200" in res.label

    def test_roster_words_after_one_are_shift_maximal(self):
        # gan_phi_approx checks no T^i(s) <= s: every shift of c lies below 1c
        for c in _characteristic_roster():
            assert check_shift_maximal(prepend(FiniteWord(b"\x01", c.alphabet), c), 2000, 400), c.recipe

    def test_greatest_rotation_of_pal_v_xy_is_the_upper_christoffel_word(self):
        # gan_phi_approx builds its periodic candidates as (1 Pal(v) 0)^w
        for n in range(11):
            for bits in itertools.product((0, 1), repeat=n):
                pal = iterated_pal(FiniteWord(bits, BINARY)).data
                for xy in (b"\x00\x01", b"\x01\x00"):
                    z = pal + xy
                    assert max(z[i:] + z[:i] for i in range(len(z))) == b"\x01" + pal + b"\x00"


def check_shift_maximal(w, K, L):
    data = w.prefix_bytes(K + L)
    top = data[:L]
    return all(data[k : k + L] <= top for k in range(K + 1))
