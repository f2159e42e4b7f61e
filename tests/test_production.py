"""Chunked word production against the letter-by-letter oracle constructions."""

import json
import re
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sturmlex.words
from sturmlex.cli import main
from sturmlex.generators import (
    DirectiveWord,
    Morphism,
    characteristic,
    epistandard,
    kbonacci,
    mechanical_lower,
    mechanical_upper,
    thue_morse,
)
from sturmlex.oracle import closure_letters, floor_letters, progression_floors_by_term
from sturmlex.surds import QuadraticSurd
from sturmlex.words import (
    BINARY,
    Alphabet,
    FiniteWord,
    complement,
    prepend,
    shift,
)

N = 10000

# the slopes of the benchmark's workloads, (p, q, d, r) = (p + q*sqrt(d))/r,
# and one slope above 1
SLOPES = [
    (3, -1, 5, 2),
    (2, -1, 2, 2),
    (-1, 1, 2, 1),
    (-1, 1, 3, 2),
    (2, -1, 3, 1),
    (-1, 1, 5, 2),
    (0, 1, 2, 2),
    (-1, 1, 3, 1),
    (1, 1, 5, 2),
]


def closure_prefix(delta: DirectiveWord, n: int) -> bytes:
    return bytes(islice(closure_letters(delta), n))


def floor_prefix(alpha, rho, n: int, use_ceiling: bool = False) -> bytes:
    return bytes(islice(floor_letters(alpha, rho, use_ceiling), n))


class TestEpistandardMatchesClosures:
    @pytest.mark.parametrize("text", ["ab*", "abc*", "aab*", "ab|ba", "abcb*", "a|ab", "ab|b"])
    def test_directive(self, text):
        delta = DirectiveWord.from_text(text)
        assert epistandard(delta).prefix_bytes(N) == closure_prefix(delta, N)

    def test_finite_directive_ends_at_the_same_length(self):
        delta = DirectiveWord.from_text("abcab")
        whole = closure_prefix(delta, N)
        w = epistandard(delta)
        assert w.prefix_bytes(len(whole)) == whole
        with pytest.raises(ValueError, match=rf"^epistandard\(abcab\): word only defined up to length {len(whole)}$"):
            w.prefix_bytes(len(whole) + 1)

    @given(
        st.lists(st.integers(0, 3), max_size=4),
        st.lists(st.integers(0, 3), min_size=1, max_size=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_directives(self, pre, cycle):
        alphabet = Alphabet.of_size(4)
        delta = DirectiveWord(FiniteWord(pre, alphabet), FiniteWord(cycle, alphabet))
        assert epistandard(delta).prefix_bytes(2000) == closure_prefix(delta, 2000)


class TestMechanicalMatchesFloors:
    @pytest.mark.parametrize("slope", SLOPES)
    def test_characteristic(self, slope):
        alpha = QuadraticSurd(*slope)
        assert characteristic(alpha).prefix_bytes(N) == floor_prefix(alpha, alpha, N)

    @pytest.mark.parametrize("rho", [Fraction(2, 7), QuadraticSurd(1, 1, 5, 3)])
    @pytest.mark.parametrize("use_ceiling", [False, True])
    def test_general_intercept(self, rho, use_ceiling):
        alpha = QuadraticSurd(*SLOPES[0])
        make = mechanical_upper if use_ceiling else mechanical_lower
        surd_rho = rho if isinstance(rho, QuadraticSurd) else QuadraticSurd.from_fraction(rho)
        assert make(alpha, rho).prefix_bytes(N) == floor_prefix(alpha, surd_rho, N, use_ceiling)

    @pytest.mark.parametrize("slope", SLOPES)
    def test_long_prefixes_of_every_slope(self, slope):
        # 10^5 letters: about 25 chunks, each certified by its own floor sums
        alpha = QuadraticSurd(*slope)
        rho = QuadraticSurd(1, 1, alpha.d, 3)
        assert mechanical_lower(alpha, Fraction(2, 7)).prefix_bytes(10**5) == floor_prefix(
            alpha, QuadraticSurd.from_fraction(Fraction(2, 7)), 10**5
        )
        assert mechanical_upper(alpha, rho).prefix_bytes(10**5) == floor_prefix(alpha, rho, 10**5, True)

    def test_rational_slope_period(self):
        alpha = QuadraticSurd.from_fraction(Fraction(5, 12))
        rho = QuadraticSurd(0, 1, 2, 3)
        for use_ceiling, make in ((False, mechanical_lower), (True, mechanical_upper)):
            assert make(alpha, rho).prefix_bytes(120) == floor_prefix(alpha, rho, 120, use_ceiling)

    @pytest.mark.parametrize("slope", SLOPES)
    @pytest.mark.parametrize("m, j", [(-1, 0), (-3, 2), (-4096, -1), (-5000, 7)])
    def test_on_orbit_intercept(self, slope, m, j):
        # rho = m*alpha + j makes the term -m*alpha + rho = j an integer, so the
        # lower and upper words differ exactly at letters -m - 1 and -m
        alpha = QuadraticSurd(*slope)
        rho = alpha * m + j
        lower, upper = floor_prefix(alpha, rho, N), floor_prefix(alpha, rho, N, True)
        got_lower, got_upper = mechanical_lower(alpha, rho).prefix_bytes(N), mechanical_upper(alpha, rho).prefix_bytes(N)
        assert got_lower == lower and got_upper == upper
        differ = [k for k in range(N) if got_lower[k] != got_upper[k]]
        assert differ == [k for k in range(N) if lower[k] != upper[k]] == [k for k in (-m - 1, -m) if 0 <= k < N]

    def test_upper_on_orbit_word_at_the_cap(self):
        # ceil(x) = -floor(-x): upper letters from one exact floor per term of (-alpha, -rho)
        n = 10**6
        alpha = QuadraticSurd(*SLOPES[0])
        rho = QuadraticSurd(-3, 1, 5, 2)  # -alpha: the term k = 1 is the integer 0
        f = progression_floors_by_term(-alpha, -rho, 0, n + 1)
        expected = bytes(a - b - alpha.floor() for a, b in zip(f, f[1:]))
        assert mechanical_upper(alpha, rho).prefix_bytes(n) == expected
        assert expected[:2] == b"\x00\x01" and expected.count(1) == f[0] - f[n]


class TestViewsMatchParent:
    def test_shift_complement_prepend(self):
        alpha = QuadraticSurd(*SLOPES[1])
        base = floor_prefix(alpha, alpha, N + 37)
        parent = characteristic(alpha)
        swap = bytes.maketrans(b"\x00\x01", b"\x01\x00")
        assert shift(parent, 37).prefix_bytes(N) == base[37:]
        assert complement(parent).prefix_bytes(N) == base[:N].translate(swap)
        head = FiniteWord.from_str("10")
        assert prepend(head, parent).prefix_bytes(N) == b"\x01\x00" + base[: N - 2]

    def test_letter_by_letter_reads_of_a_view(self):
        parent = epistandard(DirectiveWord.from_text("ab|b"))
        view = shift(parent, 5)
        letters = bytes(view.letter(i) for i in range(N))
        assert letters == closure_prefix(DirectiveWord.from_text("ab|b"), N + 5)[5:]

    def test_morphic_image(self):
        A3 = Alphabet.of_size(3)
        delta = DirectiveWord.from_text("ab*", A3)
        mu = Morphism.from_text("c>c,a>ca,b>cb", A3)
        images = [im.data for im in mu.images]
        expected = b"".join(images[x] for x in closure_prefix(delta, N))
        assert mu.apply(epistandard(delta)).prefix_bytes(N) == expected[:N]

    def test_image_of_a_finite_word_raises_the_parent_error(self):
        delta = DirectiveWord.from_text("abcab")
        whole = closure_prefix(delta, N)
        mu = Morphism.from_text("a>ab,b>a,c>c", Alphabet.of_size(3))
        image = mu.apply(epistandard(delta))
        full = b"".join(mu.images[x].data for x in whole)
        assert image.prefix_bytes(len(full)) == full
        with pytest.raises(ValueError, match=rf"^epistandard\(abcab\): word only defined up to length {len(whole)}$"):
            image.prefix_bytes(len(full) + 1)

    @pytest.mark.parametrize(
        "directive, view, extra",
        [
            ("abcab", lambda w: shift(w, 5), -5),
            ("abcab", lambda w: prepend(FiniteWord.from_str("ca"), w), 2),
            ("abaab", complement, 0),
        ],
    )
    def test_views_of_a_finite_word_raise_the_parent_error(self, directive, view, extra):
        delta = DirectiveWord.from_text(directive)
        whole = closure_prefix(delta, N)
        parent, w = epistandard(delta), view(epistandard(delta))
        assert len(w.prefix_bytes(len(whole) + extra)) == len(whole) + extra
        with pytest.raises(ValueError, match=rf"^{re.escape(parent.recipe)}: word only defined up to length {len(whole)}$"):
            w.prefix_bytes(len(whole) + extra + 1)

    def test_cap_edge_read_directly_and_through_an_identity_morphism(self, monkeypatch, capsys):
        monkeypatch.setattr(sturmlex.words, "MAX_PREFIX", 1000)
        view = shift(characteristic(QuadraticSurd(*SLOPES[0])), 7)
        image = Morphism.identity(BINARY).apply(view)
        assert image.prefix_bytes(993) == view.prefix_bytes(993)
        for w in (view, image):
            with pytest.raises(ValueError, match=r"^prefix request 1001 exceeds cap 1000 \(STURMLEX_MAX_LEN\)$"):
                w.prefix_bytes(1000)
        assert main(["generate", "morphic", "--morphism", "a>a", "--word", "shift:7:fib", "--len", "1000"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error: prefix request 1001 exceeds cap 1000" in err


class TestViewsOfFiniteWords:
    """shift:, complement:, prepend: and morphic: over a finite file word are finite words too."""

    @pytest.fixture
    def word_file(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("a,b\nabaababaabaab\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize(
        "spec, letters",
        [
            ("shift:2:{}", "aababaabaabab"),
            ("complement:{}", "babbababbabba"),
            ("prepend:b:{}", "babaababaabaab"),
            ("morphic:a>ab,b>a:{}", "abaababaabaababaababa"),
        ],
    )
    def test_generate_prints_the_whole_view(self, word_file, spec, letters, capsys):
        argv = ["--format", "json", "generate", "morphic", "--morphism", "a>a"]
        assert main([*argv, "--word", spec.format(f"file:{word_file}"), "--len", "100"]) == 0
        assert json.loads(capsys.readouterr().out) == {"recipe": "finite", "length": len(letters), "word": letters}

    def test_generate_cuts_a_finite_word_at_len(self, word_file, capsys):
        assert main(["generate", "morphic", "--morphism", "a>ab,b>a", "--word", f"file:{word_file}", "--len", "5"]) == 0
        assert capsys.readouterr().out == "abaab\n"

    def test_analysis_of_a_prepended_file_word(self, word_file, capsys):
        assert main(["analyze", "complexity", "--word", f"prepend:0:file:{word_file}", "--k-max", "3"]) == 0
        assert capsys.readouterr().out == "p(1) = 2\np(2) = 3\np(3) = 4\n"


class TestLengths:
    def test_negative_prefix_rejected(self):
        w = kbonacci(2)
        w.prefix_bytes(20)
        with pytest.raises(ValueError):
            w.prefix_bytes(-5)
        with pytest.raises(ValueError):
            w.prefix(-1)

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "epistandard", "--directive", "ab*"],
            ["generate", "mechanical", "--alpha", "2/5"],
            ["generate", "morphic", "--morphism", "a>ab,b>a", "--word", "fib"],
            ["generate", "thue-morse"],
            ["generate", "skew"],
            ["generate", "periodic-balanced"],
        ],
    )
    def test_negative_len_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--len", "-5"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_thue_morse_doubling(self):
        t = thue_morse().prefix_bytes(N)
        assert t == bytes(bin(i).count("1") & 1 for i in range(N))


def test_as_str_names():
    names = Alphabet(("α", "x", "☃"))
    w = FiniteWord(bytes([0, 2, 1, 1, 0]), names)
    assert w.as_str() == "α☃xxα"
    assert FiniteWord(b"\x01\x00", BINARY).as_str() == "10"
