"""The shift-chain comparison kernel against letter-by-letter references.

`words._first_violation` decides where a shift first leaves its bounds and
`words._first_difference` where two words first differ.  Every shift-chain
check in `extremal` and the characteristic-shift search of `modone` run on
them; here they are checked against `oracle.shift_chain_by_letters`, a loop
over shifts and letters, and against searches by definition.  The usage
errors at the end guard the entry points' argument checks.
"""

import contextlib
import io
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmlex.cli import main
from sturmlex.commands import word_from_spec
from sturmlex.extremal import (
    MAX_PHI_DEPTH,
    GanCandidate,
    _characteristic_roster,
    _shift_chain_check,
    allowed_pair_check,
    characteristic_check,
    check_sturmian_extremal,
    gamma_membership,
    gan_phi_approx,
    not_balanced_witness,
    sigma_xy_member,
)
from sturmlex.generators import characteristic, fibonacci_slope, iterated_pal, kbonacci, mechanical_lower, thue_morse
from sturmlex.modone import DigitExpansion, bugeaud_dubickas_classify, self_sturmian_test
from sturmlex.oracle import finite_extremal_by_chain, shift_chain_by_letters
from sturmlex.surds import QuadraticSurd
from sturmlex.words import (
    BINARY,
    Alphabet,
    FiniteWord,
    InfiniteWord,
    LexOrder,
    UltimatelyPeriodicWord,
    _first_difference,
    prepend,
    shift,
)

FIB = characteristic(fibonacci_slope())


def letter_difference(x: bytes, y: bytes) -> int:
    n = min(len(x), len(y))
    return next((i for i in range(n) if x[i] != y[i]), n)


@given(st.binary(max_size=40), st.binary(max_size=40), st.integers(0, 40))
def test_first_difference_matches_a_letter_loop(x, y, shared):
    # a shared head makes late differences and equal prefixes common
    head = bytes(range(shared))
    assert _first_difference(head + x, head + y) == letter_difference(head + x, head + y)


@pytest.mark.parametrize("x,y,expected", [
    (b"", b"", 0), (b"\x00", b"", 0), (b"\x00\x01", b"\x00\x01\x00", 2),
    (b"\x00\x00\x01", b"\x00\x00\x00", 2), (b"\x01", b"\x00", 0), (b"\x00" * 9, b"\x00" * 8 + b"\x01", 8),
])
def test_first_difference_examples(x, y, expected):
    assert _first_difference(x, y) == _first_difference(y, x) == expected


def periodic(letters, size, preperiod=b""):
    alphabet = Alphabet.of_size(size)
    return UltimatelyPeriodicWord(FiniteWord(preperiod, alphabet), FiniteWord(bytes(letters), alphabet))


NAMED = {2: [FIB, thue_morse(), mechanical_lower(QuadraticSurd(-1, 1, 2, 1), QuadraticSurd(1, 0, 1, 3))],
         3: [kbonacci(3)], 4: [kbonacci(4)]}


@st.composite
def words(draw):
    size = draw(st.sampled_from([2, 2, 3, 4]))
    if draw(st.booleans()):
        return draw(st.sampled_from(NAMED[size]))
    letters = st.integers(0, size - 1)
    period = draw(st.lists(letters, min_size=1, max_size=8))
    preperiod = draw(st.lists(letters, max_size=4))
    return periodic(period, size, bytes(preperiod))


@st.composite
def bound(draw, s, K, L):
    """The L-letter prefix of some shift of s, with at most one letter changed."""
    j = draw(st.integers(0, K + 5))
    b = bytearray(s.prefix_bytes(j + L)[j:])
    if draw(st.booleans()):
        b[draw(st.integers(0, L - 1))] = draw(st.integers(0, s.alphabet.size - 1))
    return bytes(b)


def same_verdict(s, lower, upper, K, L, order):
    """The order-free check on s relabelled by rank, each rank named as its letter, against the letter loop under order."""
    table = order.table
    names = Alphabet(tuple(s.alphabet.names[c] for c in order.by_rank))
    ranked = InfiniteWord(lambda n: s.prefix_bytes(n).translate(table), names, s.recipe)
    fast = _shift_chain_check(ranked, lower.translate(table), upper.translate(table), K, L).to_obj()
    assert fast == shift_chain_by_letters(s, lower, upper, K, L, order).to_obj()
    return fast


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_shift_chain_check_matches_the_letter_loop(data):
    s = data.draw(words())
    order = LexOrder(tuple(data.draw(st.permutations(range(s.alphabet.size)))))
    K = data.draw(st.integers(0, 60))
    L = data.draw(st.integers(1, 40))
    lower = data.draw(bound(s, K, L))
    upper = data.draw(bound(s, K, L))
    same_verdict(s, lower, upper, K, L, order)


@pytest.mark.parametrize("s", [FIB, thue_morse(), kbonacci(3), periodic([0, 2, 1, 3], 4)], ids=repr)
def test_both_bounds_broken_at_one_shift_names_the_lower(s):
    for perm in itertools.permutations(range(s.alphabet.size)):
        order = LexOrder(perm)
        lower, upper = bytes([order.by_rank[-1]]) * 12, bytes([order.by_rank[0]]) * 12
        obj = same_verdict(s, lower, upper, 30, 12, order)
        assert obj["witness"]["shift"] == 0 and obj["witness"]["bound"] == "lower"


@pytest.mark.parametrize("K,L", [(0, 1), (10, 7), (60, 40)])
def test_ties_through_depth_are_counted_not_failed(K, L):
    # every third shift of (110)^w equals it, the greatest rotation, through any depth
    s = periodic([1, 1, 0], 2)
    top = s.prefix_bytes(L)
    # 0^L lies below every shift and ties none of them
    obj = same_verdict(s, bytes(L), top, K, L, LexOrder.natural(2))
    assert obj == {"status": "holds", "K": K, "L": L, "undecided": K // 3 + 1}
    obj = same_verdict(s, top, top, K, L, LexOrder.natural(2))
    if K == 0:
        assert obj == {"status": "holds", "K": K, "L": L, "undecided": 2}
    else:  # T(s) = (101)^w leaves the lower bound
        assert obj["status"] == "fails" and obj["witness"]["shift"] == 1


def test_one_sided_and_missing_bounds():
    # every check takes two bounds; the least and the greatest L-letter words stand for a missing side
    for order in (LexOrder((0, 1)), LexOrder((1, 0))):
        low = bytes([order.by_rank[0]]) * 20
        high = bytes([order.by_rank[-1]]) * 20
        assert same_verdict(FIB, low, high, 40, 20, order)["status"] == "holds"
        assert same_verdict(FIB, high, high, 40, 20, order)["witness"]["bound"] == "lower"
        assert same_verdict(FIB, low, low, 40, 20, order)["witness"]["bound"] == "upper"


def characteristic_shift_by_letters(data: bytes) -> int | None:
    """The first tail j >= 1 with a.u <= T^k(u) <= b.u for u = data[j:], k <= span, by the oracle loop."""
    n = len(data)
    span = max(32, n // 6)
    for j in range(1, n - 2 * span):
        u = data[j:]
        tail = InfiniteWord(lambda _, u=u: u, BINARY, f"tail {j}")
        verdict = shift_chain_by_letters(
            tail, b"\x00" + u[: span - 1], b"\x01" + u[: span - 1], span, span, LexOrder.natural(2)
        )
        if verdict.holds:
            return j
    return None


def rho(p, q):
    return QuadraticSurd(p, 0, 1, q)


@pytest.mark.parametrize("w,n", [
    (FIB, 200),
    (FIB, 400),
    (mechanical_lower(fibonacci_slope(), rho(1, 3)), 300),
    (mechanical_lower(fibonacci_slope(), rho(1, 3)), 600),
    (mechanical_lower(QuadraticSurd(-1, 1, 2, 1), rho(1, 5)), 300),
    (shift(characteristic(QuadraticSurd(-1, 1, 3, 2)), 11), 400),
    (thue_morse(), 300),
], ids=lambda v: v.recipe[:30] if hasattr(v, "recipe") else str(v))
def test_characteristic_shift_matches_the_letter_loop(w, n):
    report = bugeaud_dubickas_classify(DigitExpansion(2, w), n)
    data = w.prefix_bytes(n)
    if report.verdict != "consistent-with-sturmian":
        assert report.characteristic_shift is None
        return
    assert report.characteristic_shift == characteristic_shift_by_letters(data)


def test_a_characteristic_tail_is_found():
    # the tail of a.c after its first letter is the characteristic word c itself
    for head in (b"\x00", b"\x01"):
        w = prepend(FiniteWord(head, BINARY), FIB)
        report = bugeaud_dubickas_classify(DigitExpansion(2, w), 300)
        assert report.characteristic_shift == characteristic_shift_by_letters(w.prefix_bytes(300)) == 1


def phi_approx_by_both_chains(x, P, K, L):
    """`gan_phi_approx` as an enumeration: every candidate built, sorted by prefix, and checked by two letter loops.

    A candidate is accepted when x <= T^i(w) <= 1u and T^i(w) <= w hold at
    the bounds; the second chain is the one `gan_phi_approx` leaves out.
    """
    label, alphabet, natural = f"candidate at bounds (P={P}, K={K}, L={L})", x.alphabet, LexOrder.natural(2)
    one = FiniteWord(b"\x01", alphabet)
    if x.letter(0) == 1:
        return GanCandidate(UltimatelyPeriodicWord.purely_periodic(one), label, 0)
    lower = x.prefix_bytes(L)
    upper = b"\x01" + lower[1:]
    built = [prepend(one, c) for c in _characteristic_roster()]
    for n in range(P + 1):
        for bits in itertools.product((0, 1), repeat=n):
            period = b"\x01" + iterated_pal(FiniteWord(bits, alphabet)).data + b"\x00"
            built.append(UltimatelyPeriodicWord.purely_periodic(FiniteWord(period, alphabet)))
    candidates, seen = [], set()
    for w in built:
        if w.prefix_bytes(L) not in seen:
            seen.add(w.prefix_bytes(L))
            candidates.append(w)
    for w in sorted(candidates, key=lambda w: w.prefix_bytes(L)):
        if (shift_chain_by_letters(w, lower, upper, K, L, natural).holds
                and shift_chain_by_letters(w, None, w.prefix_bytes(L), K, L, natural).holds):
            return GanCandidate(w, label, len(candidates))
    return GanCandidate(None, label, len(candidates))


PHI_X = [prepend(FiniteWord(b"\x00", BINARY), c) for c in _characteristic_roster()] + [
    word_from_spec(spec)
    for spec in ("periodic:0", "periodic:01", "up:0|01", "shift:3:fib", "prepend:1:fib", "thue-morse", "complement:fib")
]


@pytest.mark.parametrize("K,L", [(0, 1), (1, 1), (5, 7), (20, 30), (100, 200), (200, 400)])
def test_phi_approx_matches_the_enumeration_with_both_chains(K, L):
    for x in PHI_X:
        for P in range(9):
            expected = phi_approx_by_both_chains(x, P, K, L).to_obj()
            assert gan_phi_approx(x, P, K, L).to_obj() == expected, (x.recipe, P)


def witness_by_definition(w: FiniteWord) -> FiniteWord | None:
    """The shortest u with 0u0 a prefix of min(w) and 1u1 a prefix of max(w), from the chain rescans."""
    m = finite_extremal_by_chain(w, LexOrder.natural(2), want_max=False).data
    x = finite_extremal_by_chain(w, LexOrder.natural(2), want_max=True).data
    for ell in range(min(len(m), len(x)) - 1):
        u = m[1 : ell + 1]
        if m[: ell + 2] == b"\x00" + u + b"\x00" and x[: ell + 2] == b"\x01" + u + b"\x01":
            return FiniteWord(u, w.alphabet)
    return None


def test_not_balanced_witness_matches_the_definition_on_every_short_word():
    found = 0
    for n in range(1, 13):
        for bits in itertools.product((0, 1), repeat=n):
            w = FiniteWord(bytes(bits), BINARY)
            expected = witness_by_definition(w)
            assert not_balanced_witness(w) == expected, w
            found += expected is not None and len(expected) > 0
    assert found > 100  # witnesses with a non-empty u occur


# ---------------------------------------------------------------------------
# usage errors of the entry points


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv,message", [
    ("extremal sigma --word fib --x tribonacci --y fib", "error: binary words required: x has 3 letters\n"),
    ("extremal sigma --word fib --x thue-morse --y kbonacci:3 --K 5 --L 5",
     "error: binary words required: y has 3 letters\n"),
    ("extremal characteristic --word fib --L 0", "error: bounds must be positive (K >= 0 shifts, L >= 1 depth)\n"),
    ("extremal phi-approx --word fib --L 0", "error: bounds must be positive (K >= 0 shifts, L >= 1 depth)\n"),
    ("extremal epistandard-ineq --word tribonacci --K -100",
     "error: bounds must be positive (K >= 0 shifts, L >= 1 depth)\n"),
    ("extremal allowed-pair --r fib --s fib --L 0",
     "error: bounds must be positive (K >= 0 shifts, L >= 1 depth)\n"),
    ("modone self-sturmian --word fib --K -3 --L -3",
     "error: bounds must be positive (K >= 0 shifts, L >= 1 depth)\n"),
    ("extremal gamma --word fib --L -1", "error: bounds must be positive (K >= 0 shifts, L >= 1 depth)\n"),
    ("extremal sigma --word fib --x fib --y fib --L -1",
     "error: bounds must be positive (K >= 0 shifts, L >= 1 depth)\n"),
    ("extremal phi-approx --word fib --P 30", "error: P must be between 0 and 12, got 30\n"),
    ("extremal phi-approx --word fib --P 13", "error: P must be between 0 and 12, got 13\n"),
    ("extremal phi-approx --word prepend:1:fib --P -1", "error: P must be between 0 and 12, got -1\n"),
    ("modone digits --xi 1/3 --base 0 --n 5", "error: digit alphabets supported for bases 2..10, got 0\n"),
    ("modone frac-parts --xi 1/3 --base 0", "error: digit alphabets supported for bases 2..10, got 0\n"),
    ("modone cover --word fib --base 0", "error: base must be at least 2, got 0\n"),
    ("modone cover --word fib --N 0", "error: no points or intervals to cover\n"),
    ("modone classify --word fib --base 0", "error: base must be at least 2, got 0\n"),
    ("modone classify --word fib --prefix 0", "error: need at least two digits\n"),
    ("extremal characteristic --word tribonacci", "error: binary words required: s has 3 letters\n"),
    ("extremal gamma --word tribonacci", "error: binary words required: u has 3 letters\n"),
    ("extremal allowed-pair --r fib --s tribonacci", "error: binary words required: s has 3 letters\n"),
    ("extremal allowed-pair --r tribonacci --s kbonacci:4", "error: binary words required: r has 3 letters\n"),
    ("extremal phi-approx --word tribonacci", "error: binary words required: x has 3 letters\n"),
    ("modone self-sturmian --word tribonacci", "error: binary words required: s has 3 letters\n"),
    ("extremal finite-epi --body abcde", "error: certificate search supported for alphabets of size <= 4\n"),
    ("modone veerman --alpha (1+1*sqrt(5))/2", "error: slope must lie in (0, 1)\n"),
    ("extremal fine --word fib --K 200000", "error: default material 8K + 256 = 1600256 for K = 200000 "
     "exceeds cap 1000000 (STURMLEX_MAX_LEN); --material sets the material\n"),
    ("extremal epistandard-ineq --word fib --K 200000 --L 10", "error: default material 8K + 256 = 1600256 "
     "for K = 200000 exceeds cap 1000000 (STURMLEX_MAX_LEN); --material sets the material\n"),
    ("extremal min-max --word fib --k 200000", "error: default material 8k + 256 = 1600256 for k = 200000 "
     "exceeds cap 1000000 (STURMLEX_MAX_LEN); --prefix sets the material\n"),
])
def test_out_of_domain_arguments_are_usage_errors(argv, message):
    assert run(argv.split()) == (2, "", message)


def test_a_material_under_the_cap_keeps_working_at_a_large_k():
    code, out, err = run(["--format", "json", "extremal", "fine", "--word", "fib", "--K", "200000",
                          "--material", "1000000"])
    assert (code, err, json.loads(out)["detail"]["material"]) == (0, "", 1000000)
    code, out, err = run(["--format", "json", "extremal", "min-max", "--word", "fib", "--k", "200000",
                          "--prefix", "1000000"])
    assert (code, err, len(json.loads(out)["min"])) == (0, "", 200000)


def test_negative_trials_are_a_usage_error():
    code, out, err = run(["oracle", "diff", "--trials", "-3"])
    assert (code, out) == (2, "")
    assert "argument --trials: must be >= 0, got -3" in err


def test_digit_file_base_contradicts_base_zero(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("2\n0100101001001010\n")
    argv = ["modone", "classify", "--xi-digits", str(path), "--base", "0", "--prefix", "16"]
    assert run(argv) == (2, "", "error: digit file base 2 contradicts --base 0\n")


def test_digit_file_of_one_line(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("2\n")
    argv = ["modone", "frac-parts", "--xi-digits", str(path)]
    assert run(argv) == (2, "", "error: digit file must have two lines: base, digits\n")


def test_bounds_are_checked_after_the_alphabet():
    tri = kbonacci(3)
    for check in (lambda: characteristic_check(tri, 5, 0), lambda: check_sturmian_extremal(tri, FIB, 5, 0),
                  lambda: allowed_pair_check(FIB, tri, 5, 0), lambda: gamma_membership(tri, -1, 5),
                  lambda: gan_phi_approx(tri, 99, -1, 0), lambda: self_sturmian_test(tri, -3, -3)):
        with pytest.raises(ValueError, match="^binary word"):
            check()
    with pytest.raises(ValueError, match="^binary words required: s has 3 letters$"):
        sigma_xy_member(tri, FIB, FIB, -1, 0)


def test_the_alphabet_refusal_names_the_first_word_not_binary():
    tri = kbonacci(3)
    for check, name in ((lambda: characteristic_check(tri, 5, 0), "s"),
                        (lambda: check_sturmian_extremal(FIB, tri, 5, 0), "u"),
                        (lambda: gamma_membership(tri, -1, 5), "u"),
                        (lambda: allowed_pair_check(tri, kbonacci(4), 5, 0), "r"),
                        (lambda: allowed_pair_check(FIB, tri, 5, 0), "s"),
                        (lambda: sigma_xy_member(FIB, FIB, tri, -1, 0), "y"),
                        (lambda: gan_phi_approx(tri, 99, -1, 0), "x"),
                        (lambda: self_sturmian_test(tri, -3, -3), "s")):
        with pytest.raises(ValueError, match=f"^binary words required: {name} has 3 letters$"):
            check()


def test_phi_depth_range():
    assert MAX_PHI_DEPTH == 12
    assert gan_phi_approx(FIB, 0, 20, 40).searched > 0
    with pytest.raises(ValueError, match="got 13"):
        gan_phi_approx(FIB, 13, 20, 40)
