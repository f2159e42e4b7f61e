"""Order-free extremal checks against the per-order reference loops."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmlex.extremal import check_epistandard_ineq, fine_test
from sturmlex.generators import DirectiveWord, Morphism, epistandard, kbonacci, thue_morse
from sturmlex.oracle import epistandard_ineq_by_order, fine_by_order
from sturmlex.words import Alphabet, FiniteWord, UltimatelyPeriodicWord

A3 = Alphabet.of_size(3)
DIRECTIVES = ["ab*", "abcb*", "aab*", "ab|ba", "abc*"]
# (K, L): L above K, L below K, and equal bounds
BOUNDS = [(100, 300), (20, 5), (60, 40), (200, 50), (30, 30)]


def periodic(letters, alphabet, preperiod=()):
    return UltimatelyPeriodicWord(FiniteWord(bytes(preperiod), alphabet), FiniteWord(bytes(letters), alphabet))


def corpus():
    words = [kbonacci(k) for k in range(2, 7)]
    words += [epistandard(DirectiveWord.from_text(text, A3)) for text in DIRECTIVES]
    words.append(Morphism.psi(2, A3).apply(epistandard(DirectiveWord.from_text("ab*", A3))))
    words.append(thue_morse())
    words.append(periodic([0, 0, 1, 0, 2], A3))
    # every tail ties with the bound, or every tail but the first
    words.append(periodic([0], Alphabet.of_size(2)))
    words.append(periodic([1], Alphabet.of_size(2), preperiod=[0]))
    return words


WORDS = corpus()


def same_report(w, K, L, material=None):
    fast = check_epistandard_ineq(w, K, L, material).to_obj(w.alphabet)
    slow = epistandard_ineq_by_order(w, K, L, material).to_obj(w.alphabet)
    assert fast == slow
    return fast


def same_fine(w, K, material=None):
    fast = fine_test(w, K, material).to_obj()
    assert fast == fine_by_order(w, K, material).to_obj()
    return fast


@pytest.mark.parametrize("w", WORDS, ids=lambda w: w.recipe[:40])
class TestMatchesPerOrderLoop:
    @pytest.mark.parametrize("K,L", BOUNDS)
    def test_epistandard_ineq(self, w, K, L):
        same_report(w, K, L)

    @pytest.mark.parametrize("K", [1, 7, 100])
    def test_fine(self, w, K):
        same_fine(w, K)

    @pytest.mark.parametrize("K", [1, 12, 50])
    def test_material_just_at_K(self, w, K):
        # at L = 1 the shifts' bound is empty, and at K = 1 so is the windows' bound
        same_report(w, K, 1, material=K)
        same_report(w, K, 9, material=K)
        same_report(w, K, 9, material=K + 1)
        same_fine(w, K, material=K)


def test_failing_pairs_keep_their_witnesses():
    # over {a,b,c}, (aabac)^w breaks a.s <= T^k(s) for some orders and not others
    obj = same_report(periodic([0, 0, 1, 0, 2], A3), 20, 10)
    statuses = {p["status"] for p in obj["pairs"]}
    assert statuses == {"holds", "fails"}
    assert all("witness" in p for p in obj["pairs"] if p["status"] == "fails")
    assert same_fine(thue_morse(), 10)["status"] == "fails"


def test_kbonacci8_all_orders():
    rep = check_epistandard_ineq(kbonacci(8), 100, 300)
    assert rep.holds and len(rep.pairs) == 40320


def ultimately_periodic_words(sizes):
    """(alphabet size, preperiod, period) over letters 0..size-1, the letters used drawn as a subset."""
    def over(size):
        letters = st.lists(st.integers(0, size - 1), min_size=1, max_size=size, unique=True)
        return letters.flatmap(lambda used: st.tuples(
            st.just(size),
            st.lists(st.sampled_from(used), max_size=6),
            st.lists(st.sampled_from(used), min_size=1, max_size=6),
        ))
    return sizes.flatmap(over)


@given(
    ultimately_periodic_words(st.integers(2, 5)),
    st.integers(1, 30),
    st.integers(1, 30),
    st.one_of(st.none(), st.integers(0, 60)),
)
@settings(max_examples=150, deadline=None)
def test_random_ultimately_periodic(word, K, L, extra):
    size, pre, per = word
    w = periodic(per, Alphabet.of_size(size), pre)
    material = None if extra is None else K + extra
    same_report(w, K, L, material)
    same_fine(w, K, material)


@pytest.mark.parametrize(
    "letters,preperiod",
    [
        # {a,b,d,e} over five letters: c never occurs, so no window begins with it
        ([0, 1, 0, 3, 0, 4], ()),
        ([3, 1, 3, 4], (0,)),
        # only b and e occur: under most orders the least leading letter is not the pair's letter
        ([1, 4, 1, 1, 4], ()),
        ([4], (1, 1)),
    ],
)
@pytest.mark.parametrize("K", [1, 3, 40, 100])
def test_words_that_omit_letters_of_a_five_letter_alphabet(letters, preperiod, K):
    w = periodic(letters, Alphabet.of_size(5), preperiod)
    same_report(w, K, 70)
    same_fine(w, K)
    same_fine(w, K, material=K + 5)


# ties run past 64 letters, and some tails first differ there, after a long
# agreement with the bound
LONG_AGREEMENT = [
    periodic([0] * 70 + [1], Alphabet.of_size(3)),
    periodic([0] * 70 + [2] + [0] * 70 + [1], Alphabet.of_size(3)),
    periodic([2, 0, 1] * 30 + [2, 1], Alphabet.of_size(3), preperiod=[1]),
]


@pytest.mark.parametrize("w", LONG_AGREEMENT, ids=lambda w: w.recipe[:40])
@pytest.mark.parametrize("K,L", [(100, 300), (300, 80), (500, 500)])
def test_tails_that_agree_past_the_first_width(w, K, L):
    same_report(w, K, L)
    same_fine(w, K)


@pytest.mark.parametrize("w", [kbonacci(2), kbonacci(3), thue_morse()], ids=lambda w: w.recipe[:40])
def test_tails_that_agree_past_the_second_width(w):
    # at depth 5000 tails agree with the bound over thousands of letters
    same_report(w, 5000, 5000)
    same_fine(w, 5000)


def error_of(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize(
    "args,message",
    [
        ((-1, 5), "bounds must be positive"),
        ((5, 0), "bounds must be positive"),
        ((-1, 0, 3), "bounds must be positive"),
        ((0, 5), "factor length must be positive"),
        ((200, 5, 100), "factor length 200 exceeds available material 100"),
        ((5, 5, 0), "factor length 5 exceeds available material 0"),
        ((5, 5, -1), "prefix length must be non-negative, got -1"),
        ((5, 5, -3), "prefix length must be non-negative, got -3"),
        ((-100, 5), "bounds must be positive"),
        ((200000, 5), "default material 8K + 256 = 1600256 for K = 200000 exceeds cap"),
    ],
)
def test_epistandard_ineq_errors(args, message):
    w = kbonacci(3)
    fast = error_of(check_epistandard_ineq, w, *args)
    assert fast == error_of(epistandard_ineq_by_order, w, *args)
    assert fast.startswith(message)


@pytest.mark.parametrize("args", [(-1,), (0,), (200, 100), (5, 0), (5, -3), (5, -1), (200000,)])
def test_fine_errors(args):
    w = kbonacci(3)
    assert error_of(fine_test, w, *args) == error_of(fine_by_order, w, *args)


@pytest.mark.parametrize("args", [(-1, 5), (0, 5), (200, 5, 100)])
def test_alphabet_cap_is_checked_before_the_bounds(args):
    w = periodic(range(9), Alphabet(tuple("abcdefghi")))
    for fn in (check_epistandard_ineq, epistandard_ineq_by_order):
        assert error_of(fn, w, *args) == "order enumeration capped at alphabet size 8"
    for fn in (fine_test, fine_by_order):
        assert error_of(fn, w, args[0]) == "order enumeration capped at alphabet size 8"
