"""Value semantics of the record classes: constructor, equality, hashing, freezing and repr.

The expected reprs and messages were read from the classes as first written
(as dataclasses); the plain classes must keep every one of them.  The
benchmark keys its outcomes by ``repr``, so a repr holding an ``id()`` would
also keep every result alive.
"""

from fractions import Fraction

import pytest

from sturmlex.extremal import BoundedVerdict, EpistandardReport, GanCandidate, PairInequality, not_balanced_witness
from sturmlex.generators import DirectiveWord, Morphism, kbonacci, skew_word, thue_morse
from sturmlex.modone import (
    ClassifyReport,
    DigitExpansion,
    RationalInterval,
    digits_from_rational,
    min_covering_interval,
    thue_morse_constant,
)
from sturmlex.oracle import OracleCorpus
from sturmlex.words import (
    BINARY,
    BINARY_AB,
    Alphabet,
    ComparisonOutcome,
    FiniteWord,
    LexOrder,
    Relation,
    UltimatelyPeriodicWord,
    word_to_text,
)

AB = FiniteWord.from_str("ab")
BA = FiniteWord.from_str("ba")
FIB = kbonacci(2)  # one InfiniteWord object: InfiniteWords compare by identity


def report(**changes):
    cert = UltimatelyPeriodicWord(FiniteWord.from_str("", BINARY), FiniteWord.from_str("1"))
    fields = dict(base=2, values=(0, 1), adjacent_pair=True, low_digit=0, balanced=True,
                  periodic_certificate=cert, verdict="x", prefix_length=10)
    fields.update(changes)
    return ClassifyReport(**fields)


# class: (sample, an equal one built from keywords, an unequal one, repr of the sample)
RECORDS = {
    Alphabet: (
        lambda: Alphabet(("a", "b")), lambda: Alphabet(names=("a", "b")),
        lambda: Alphabet(("a", "c")), "Alphabet('ab')",
    ),
    LexOrder: (
        lambda: LexOrder((1, 0, 2)), lambda: LexOrder(by_rank=(1, 0, 2)),
        lambda: LexOrder((0, 1, 2)), "LexOrder(1<0<2)",
    ),
    ComparisonOutcome: (
        lambda: ComparisonOutcome(Relation.LESS, 3),
        lambda: ComparisonOutcome(relation=Relation.LESS, depth=3),
        lambda: ComparisonOutcome(Relation.LESS, 4),
        "ComparisonOutcome(relation=<Relation.LESS: 'less'>, depth=3)",
    ),
    DirectiveWord: (
        lambda: DirectiveWord(AB, BA), lambda: DirectiveWord(preperiod=AB, cycle=BA),
        lambda: DirectiveWord(AB), "DirectiveWord(preperiod=FiniteWord('ab'), cycle=FiniteWord('ba'))",
    ),
    Morphism: (
        lambda: Morphism(BINARY_AB, (AB, BA)), lambda: Morphism(alphabet=BINARY_AB, images=(AB, BA)),
        lambda: Morphism(BINARY, (AB, BA)),
        "Morphism(alphabet=Alphabet('ab'), images=(FiniteWord('ab'), FiniteWord('ba')))",
    ),
    BoundedVerdict: (
        lambda: BoundedVerdict(False, 3, 4, {"k": 1}, 2, {"a": 1}),
        lambda: BoundedVerdict(holds=False, shift_bound=3, depth_bound=4, witness={"k": 1},
                               undecided=2, detail={"a": 1}),
        lambda: BoundedVerdict(False, 3, 4, {"k": 1}, 2),
        "BoundedVerdict(holds=False, shift_bound=3, depth_bound=4, witness={'k': 1}, "
        "undecided=2, detail={'a': 1})",
    ),
    PairInequality: (
        lambda: PairInequality(LexOrder((0, 1)), BoundedVerdict(True), True),
        lambda: PairInequality(pair=LexOrder((0, 1)), verdict=BoundedVerdict(True), equality=True),
        lambda: PairInequality(LexOrder((0, 1)), BoundedVerdict(True), False),
        "PairInequality(pair=LexOrder(0<1), "
        "verdict=BoundedVerdict(holds=True, shift_bound=None, depth_bound=None, witness=None, "
        "undecided=0, detail={}), equality=True)",
    ),
    EpistandardReport: (
        lambda: EpistandardReport(True, False, [], 5, 6, 7),
        lambda: EpistandardReport(holds=True, strict=False, pairs=[], shift_bound=5,
                                  depth_bound=6, material=7),
        lambda: EpistandardReport(True, True, [], 5, 6, 7),
        "EpistandardReport(holds=True, strict=False, pairs=[], shift_bound=5, depth_bound=6, "
        "material=7)",
    ),
    GanCandidate: (
        lambda: GanCandidate(FIB, "fib", 2), lambda: GanCandidate(word=FIB, label="fib", searched=2),
        lambda: GanCandidate(None, "fib", 2),
        "GanCandidate(word=InfiniteWord(epistandard(ab*)), label='fib', searched=2)",
    ),
    RationalInterval: (
        lambda: RationalInterval(Fraction(1, 3), Fraction(1, 2)),
        lambda: RationalInterval(lo=Fraction(1, 3), hi=Fraction(1, 2)),
        lambda: RationalInterval(Fraction(1, 3), Fraction(2, 3)), "RationalInterval(1/3, 1/2)",
    ),
    DigitExpansion: (
        lambda: DigitExpansion(3, AB), lambda: DigitExpansion(base=3, digits=AB),
        lambda: DigitExpansion(3, BA), "DigitExpansion(base=3, digits=FiniteWord('ab'))",
    ),
    ClassifyReport: (
        report, lambda: report(interval_refinement="not-applicable", characteristic_shift=None),
        lambda: report(characteristic_shift=4),
        "ClassifyReport(base=2, values=(0, 1), adjacent_pair=True, low_digit=0, balanced=True, "
        "periodic_certificate=InfiniteWord((1)^w), verdict='x', prefix_length=10, "
        "interval_refinement='not-applicable', characteristic_shift=None)",
    ),
    OracleCorpus: (
        lambda: OracleCorpus(1, 20, ("fib",), {AB}),
        lambda: OracleCorpus(n_max=1, prefix_budget=20, generators=("fib",), words={AB}),
        lambda: OracleCorpus(1, 20, ("fib",), {BA}),
        "OracleCorpus(n_max=1, prefix_budget=20, generators=('fib',), words={FiniteWord('ab')})",
    ),
}
FROZEN = {Alphabet, LexOrder, ComparisonOutcome, DirectiveWord, Morphism, RationalInterval, DigitExpansion}
CLASSES = list(RECORDS)


def test_thirteen_records():
    assert len(RECORDS) == 13


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr(cls):
    sample, _, _, text = RECORDS[cls]
    assert repr(sample()) == text


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality(cls):
    sample, keywords, unequal, _ = RECORDS[cls]
    a = sample()
    assert a == keywords() and not a != keywords()
    assert a != unequal() and not a == unequal()
    assert a != object() and a.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_hash_and_freezing(cls):
    sample, keywords, _, _ = RECORDS[cls]
    a = sample()
    name = next(iter(vars(a))) if hasattr(a, "__dict__") else a.__slots__[0]
    if cls in FROZEN:
        assert hash(a) == hash(keywords())
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert a == keywords()
    else:
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, name, None)
        assert getattr(a, name) is None


@pytest.mark.parametrize("make, message", [
    (lambda: Alphabet(()), "alphabet must have at least one letter"),
    (lambda: Alphabet(("a", "a")), "display names must be distinct"),
    (lambda: Alphabet(("a", "bc")), "display names must be single characters"),
    (lambda: LexOrder((0, 2)), r"order must be a permutation of 0\.\.size-1"),
    (lambda: DirectiveWord(AB, FiniteWord.from_str("", BINARY_AB)), "directive cycle must be non-empty"),
    (lambda: DirectiveWord(AB, FiniteWord.from_str("abc")), "alphabet mismatch"),
    (lambda: Morphism(BINARY_AB, (AB,)), "one image per letter required"),
    (lambda: Morphism(BINARY_AB, (AB, FiniteWord.from_str("abc"))),
     "images must live over the same alphabet"),
    (lambda: RationalInterval(Fraction(1, 2), Fraction(1, 3)), "interval endpoints out of order"),
    (lambda: DigitExpansion(1, AB), "base must be at least 2, got 1"),
    (lambda: DigitExpansion(2, FiniteWord.from_str("abc")),
     "digit word uses letters outside the base range"),
    (lambda: min_covering_interval([Fraction(1, 2), Fraction(1)]), r"points must lie in \[0, 1\)"),
    (lambda: not_balanced_witness(FiniteWord.from_str("abc")), "binary alphabet required"),
    (lambda: thue_morse_constant(0), "need at least one term"),
    (lambda: digits_from_rational(Fraction(1, 3), 2, 0), "need at least one digit"),
    (lambda: skew_word(Morphism.from_text("a>,b>b", BINARY_AB), 0, 1, 2), "erasing morphism"),
    (lambda: skew_word(Morphism.from_text("a>ab,b>ab", BINARY_AB), 0, 1, 2),
     "degenerate morphism: image collapsed to a periodic word"),
    (lambda: word_to_text(thue_morse()), "only finite and ultimately periodic words serialize to text"),
])
def test_validation_messages(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_defaults():
    assert DirectiveWord(AB).cycle is None
    v = BoundedVerdict(True)
    assert (v.shift_bound, v.depth_bound, v.witness, v.undecided, v.detail) == (None, None, None, 0, {})
    r = report()
    assert (r.interval_refinement, r.characteristic_shift) == ("not-applicable", None)
    assert OracleCorpus(1, 2, (), set()).dump().startswith("# corpus: subset of finite episturmian words\n")


def test_each_verdict_has_its_own_detail():
    a, b = BoundedVerdict(True), BoundedVerdict(True)
    assert a.detail is not b.detail
    a.detail["x"] = 1
    assert b.detail == {}


def test_rational_interval_has_slots_and_no_dict():
    iv = RationalInterval(Fraction(0), Fraction(1))
    assert set(RationalInterval.__slots__) == {"_lo", "_hi", "_den"}
    assert not hasattr(iv, "__dict__")


def test_torus_points_are_sorted_and_deduplicated():
    # the points of R/Z that min_covering_interval takes come in any order, repeats included
    once = min_covering_interval([Fraction(0), Fraction(1, 2)])
    assert min_covering_interval([Fraction(1, 2), Fraction(0), Fraction(1, 2)]) == once == (
        Fraction(1, 2), RationalInterval(Fraction(1, 2), Fraction(1)))
