"""The balance witness, the periodic certificate and the canonical u v^omega, read off kernels in `analysis` and `words`.

`balance_violation` returns 0u0 and 1u1 for the u of the balance kernel,
`classify_eventually_periodic` and `detect_period` read one Z-array of the
reversed material (`analysis._periods`), and `UltimatelyPeriodicWord` moves
the common suffix of u and ...vvv into v with one first-difference search.
Each is checked here against the search loop it replaced, kept in `oracle`:
exhaustively on short words, by hypothesis on periodic, generated and
one-letter-tailed words, and in a child process on inputs where those loops
were quadratic.  The Z-array itself is checked against `_first_difference`
of each tail, and the shift of u v^omega against its letters.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmlex.analysis import (
    _periods,
    _z_array,
    balance_violation,
    classify_eventually_periodic,
    detect_period,
)
from sturmlex.generators import DirectiveWord, characteristic, epistandard, fibonacci_slope, kbonacci, thue_morse
from sturmlex.oracle import (
    balance_violation_by_length,
    canonical_uv_by_letters,
    eventually_periodic_by_tails,
    smallest_period_by_shifts,
)
from sturmlex.words import Alphabet, FiniteWord, UltimatelyPeriodicWord, _first_difference, shift

SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))

GENERATED = [
    characteristic(fibonacci_slope()).prefix_bytes(600),
    thue_morse().prefix_bytes(600),
    kbonacci(3).prefix_bytes(600),
    epistandard(DirectiveWord.from_text("aab*")).prefix_bytes(600),
]


def witness_bytes(pair):
    return pair and (pair[0].data, pair[1].data)


def assert_matches_references(data: bytes, size: int) -> None:
    """Period, certificate and (over two letters) balance witness of data equal the oracle's."""
    w = FiniteWord(data, Alphabet.of_size(size))
    period, cert = _periods(data, w.alphabet)
    assert detect_period(w) == period == smallest_period_by_shifts(data), data
    assert classify_eventually_periodic(w) == cert
    expected = eventually_periodic_by_tails(data)
    if expected is None:
        assert cert is None, data
    else:
        assert (cert.preperiod.data, cert.period.data) == canonical_uv_by_letters(*expected), data
    if size == 2:
        assert witness_bytes(balance_violation(w)) == balance_violation_by_length(data), data


@pytest.mark.parametrize("n", range(1, 17))
def test_balance_witness_of_every_binary_word(n):
    for bits in itertools.product(b"\x00\x01", repeat=n):
        data = bytes(bits)
        assert witness_bytes(balance_violation(FiniteWord(data, Alphabet.of_size(2)))) == balance_violation_by_length(data)


@pytest.mark.parametrize("size, longest", [(2, 14), (3, 8)])
def test_certificate_and_period_of_every_short_word(size, longest):
    for n in range(1, longest + 1):
        for letters in itertools.product(range(size), repeat=n):
            assert_matches_references(bytes(letters), size)


def test_period_of_words_with_a_long_certified_tail():
    """u v^k and a^i b a^m: the period scan starts past the tail's overlap z[c] when the tail starts after 0."""
    tails = [b"\x00", b"\x01", b"\x00\x01", b"\x00\x00\x01", b"\x00\x01\x01"]
    inputs = preperiods = 0
    for n in range(1, 7):
        for u in itertools.product(b"\x00\x01", repeat=n):
            for v in tails:
                for k in range(max(3, n), n + 9):
                    data = bytes(u) + v * k
                    assert_matches_references(data, 2)
                    inputs += 1
                    preperiods += len(_periods(data, Alphabet.of_size(2))[1].preperiod) > 0
    for i in range(6):
        for m in range(60):
            assert_matches_references(b"\x00" * i + b"\x01" + b"\x00" * m, 2)
    # most tails start after 0, where the scan starts past z[c]
    assert preperiods > inputs // 2


@pytest.mark.parametrize("size, longest_u, longest_v", [(2, 7, 5), (3, 4, 4)])
def test_canonical_form_of_every_short_pair(size, longest_u, longest_v):
    alphabet = Alphabet.of_size(size)

    def words(shortest, longest):
        return [bytes(b) for n in range(shortest, longest + 1) for b in itertools.product(range(size), repeat=n)]

    periods = words(1, longest_v)
    for u in words(0, longest_u):
        for v in periods:
            w = UltimatelyPeriodicWord(FiniteWord(u, alphabet), FiniteWord(v, alphabet))
            assert (w.preperiod.data, w.period.data) == canonical_uv_by_letters(u, v), (u, v)


def assert_z_array(s: bytes) -> None:
    z = _z_array(s)
    assert z.itemsize == 4
    assert list(z) == [_first_difference(s[i:], s) for i in range(len(s) + 1)], s


@pytest.mark.parametrize("size, longest", [(2, 14), (3, 8)])
def test_z_array_of_every_short_word(size, longest):
    for n in range(longest + 1):
        for letters in itertools.product(range(size), repeat=n):
            assert_z_array(bytes(letters))


@st.composite
def z_materials(draw):
    """A prefix of u v^k, of a generated word, of 0^n, or random letters, up to a few thousand letters."""
    kind = draw(st.sampled_from(["periodic", "generated", "zeros", "random"]))
    n = draw(st.integers(0, 3000))
    if kind == "periodic":
        u = draw(st.lists(st.integers(0, 2), max_size=8))
        v = draw(st.lists(st.integers(0, 2), min_size=1, max_size=300))
        return bytes(u + v * (n // len(v) + 1))[:n]
    if kind == "generated":
        source = draw(st.sampled_from(LONG_GENERATED))
        start = draw(st.integers(0, 100))
        return source[start : start + n]
    if kind == "zeros":
        return bytes(n)
    return draw(st.binary(max_size=n).map(lambda b: bytes(c % 3 for c in b)))


LONG_GENERATED = [
    characteristic(fibonacci_slope()).prefix_bytes(3100),
    thue_morse().prefix_bytes(3100),
    kbonacci(3).prefix_bytes(3100),
    epistandard(DirectiveWord.from_text("aab*")).prefix_bytes(3100),
]


@given(z_materials())
@settings(max_examples=150, deadline=None)
def test_z_array_on_structured_words(s):
    # agreements of hundreds of letters run through several windows of _common_run
    assert_z_array(s)


def test_shift_of_every_short_periodic_word():
    """T^k(u v^omega) is u[k:] v' in canonical form, v' being v rotated by the letters read past u."""
    binary = Alphabet.of_size(2)

    def words(shortest, longest):
        return [bytes(b) for n in range(shortest, longest + 1) for b in itertools.product(range(2), repeat=n)]

    for u in words(0, 5):
        for v in words(1, 4):
            w = UltimatelyPeriodicWord(FiniteWord(u, binary), FiniteWord(v, binary))
            n = len(u) + len(v)
            for k in range(len(u) + 2 * len(v) + 1):
                got = shift(w, k)
                # the same word, built from the letters after k and the unrotated period
                tail = (u + v * (k // len(v) + 1))[k:]
                assert got == UltimatelyPeriodicWord(FiniteWord(tail, binary), FiniteWord(v, binary)), (u, v, k)
                assert got.prefix_bytes(n) == w.prefix_bytes(k + n)[k:], (u, v, k)


@st.composite
def materials(draw):
    """(data, size): a prefix of u v^k, a generated prefix with up to 3 letters changed, or a one-letter second half."""
    kind = draw(st.sampled_from(["periodic", "generated", "half"]))
    if kind == "periodic":
        size = draw(st.integers(2, 4))
        u = draw(st.lists(st.integers(0, size - 1), max_size=8))
        v = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=6))
        data = bytes(u + v * draw(st.integers(1, 30)))
        data = data[: draw(st.integers(1, len(data)))]
    elif kind == "generated":
        source = draw(st.sampled_from(GENERATED))
        size = max(source) + 1
        start = draw(st.integers(0, 200))
        buf = bytearray(source[start : start + draw(st.integers(1, 300))])
        for _ in range(draw(st.integers(0, 3))):
            buf[draw(st.integers(0, len(buf) - 1))] = draw(st.integers(0, size - 1))
        data = bytes(buf)
    else:
        size = draw(st.integers(2, 3))
        n = draw(st.integers(1, 200))
        head = draw(st.lists(st.integers(0, size - 1), min_size=n - n // 2, max_size=n - n // 2))
        data = bytes(head) + bytes([draw(st.integers(0, size - 1))]) * (n // 2)
    return data, size


@given(materials())
@settings(max_examples=400, deadline=None)
def test_readings_match_references_on_structured_words(material):
    assert_matches_references(*material)


def run_child(argv, tmp_path, body):
    """Exit code, stdout and wall seconds of one command over the word file ``a,b`` / body, in a fresh process."""
    path = tmp_path / "w.txt"
    path.write_text(f"a,b\n{body}\n")
    start = time.perf_counter()
    child = subprocess.run([sys.executable, "-m", "sturmlex.cli", *argv, "--word", f"file:{path}"],
                           env=CHILD_ENV, capture_output=True, text=True, timeout=10)
    return child.returncode, child.stdout, time.perf_counter() - start


def test_period_of_a_word_ending_in_just_under_half_one_letter(tmp_path):
    """100001 letters ending in b a^50000: about 0.2 s; one backward scan per period took about 100 s."""
    code, out, seconds = run_child(["analyze", "period"], tmp_path, "ab" * 25000 + "b" + "a" * 50000)
    assert code == 0
    obj = json.loads(out)
    assert (obj["prefix"], obj["certificate"]) == (100001, None)
    assert seconds < 10


def test_canonical_form_of_a_long_preperiod(tmp_path):
    """a (ab)^500000 | ab is a | ab: about 0.3 s; one copy of u and v per stripped letter took about 19 s."""
    code, out, seconds = run_child(["analyze", "period", "--prefix", "100"], tmp_path, "a" + "ab" * 500000 + "|ab")
    assert code == 0
    assert json.loads(out)["certificate"] == {"preperiod": "a", "period": "ab"}
    assert seconds < 10


def test_closed_stdout_is_an_error_without_a_traceback():
    child = subprocess.Popen([sys.executable, "-m", "sturmlex.cli", "generate", "thue-morse", "--len", "1000000"],
                             env=CHILD_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert child.stdout.read(10) == b"0110100110"
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait(timeout=10) == 3
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
