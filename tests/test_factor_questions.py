"""Special factors, local balance and the block condition against their per-window references.

`words.special_factors` groups the distinct windows of one length,
`extremal.local_balance_check` reads every length from one key set
(`words._factor_keys`), and `block_condition` reads the balance kernel
`words._unbalanced_core` off min(w) and max(w).  Each is checked
here against a per-window or per-length loop kept in `oracle`: exhaustively
on short binary words, and by hypothesis on random, periodic and generated
words over one to four letters.  The command-line cases at the end cover
negative rationals given as their own token and out-of-range counts.
"""

import contextlib
import io
import itertools
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmlex.cli import _GROUPS, _SWITCHES, _join_negative_values, main
from sturmlex.extremal import local_balance_check
from sturmlex.generators import (
    DirectiveWord,
    characteristic,
    epistandard,
    fibonacci_slope,
    kbonacci,
    thue_morse,
)
from sturmlex.oracle import (
    block_violation_by_length,
    local_balance_by_length,
    special_factors_by_window,
)
from sturmlex.words import (
    BINARY,
    Alphabet,
    FiniteWord,
    _unbalanced_core,
    block_condition,
    special_factors,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")

GENERATED = [
    characteristic(fibonacci_slope()),
    thue_morse(),
    kbonacci(3),
    kbonacci(4),
    epistandard(DirectiveWord.from_text("aab*")),
    epistandard(DirectiveWord.from_text("abcb*")),
]


def assert_block_verdict(data: bytes) -> None:
    balanced = block_condition(FiniteWord(data, BINARY))
    assert balanced == (block_violation_by_length(data) is None), data
    u = _unbalanced_core(data)
    assert (u is None) == balanced, data
    if u is not None:
        assert b"\x00" + u + b"\x00" in data and b"\x01" + u + b"\x01" in data, (data, u)


# ---------------------------------------------------------------------------
# balance and the block condition, read off min(w) and max(w)


def test_block_condition_on_every_short_binary_word():
    violations = 0
    for n in range(13):
        for bits in itertools.product(b"\x00\x01", repeat=n):
            data = bytes(bits)
            assert_block_verdict(data)
            violations += not block_condition(FiniteWord(data, BINARY))
    # 8191 words; exactly the balanced ones (1, 2, 4, 8, 14, ... by length from 0) satisfy the condition
    assert violations == 8191 - (1 + 2 + 4 + 8 + 14 + 24 + 36 + 54 + 76 + 104 + 136 + 178 + 224)


def test_block_condition_on_near_sturmian_words():
    rng = random.Random(8)
    fib = characteristic(fibonacci_slope()).prefix_bytes(400)
    verdicts = set()
    for _ in range(600):
        start, n = rng.randrange(200), rng.randrange(1, 120)
        data = bytearray(fib[start : start + n])
        for _ in range(rng.randrange(3)):
            data[rng.randrange(n)] ^= 1
        assert_block_verdict(bytes(data))
        verdicts.add(block_condition(FiniteWord(bytes(data), BINARY)))
    assert verdicts == {True, False}


def test_block_condition_on_long_prefixes():
    assert block_condition(characteristic(fibonacci_slope()), 100000)
    assert not block_condition(thue_morse(), 100000)
    # a balanced periodic word, and one flipped letter deep inside it
    data = bytearray(b"\x00\x01\x00\x00\x01" * 4000)
    assert block_condition(FiniteWord(bytes(data), BINARY))
    data[15001] ^= 1
    assert_block_verdict(bytes(data[14900:15100]))
    assert not block_condition(FiniteWord(bytes(data), BINARY))
    u = _unbalanced_core(bytes(data))
    assert b"\x00" + u + b"\x00" in data and b"\x01" + u + b"\x01" in data


# one child process runs the command in process and reports its own peak RSS;
# Linux keeps the peak RSS of the image a process replaces at exec, so a small
# launcher starts it and the test runner's own peak does not count
LAUNCH = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
AT_THE_CAP = """
import contextlib, io, resource, sys, time
from sturmlex.cli import main
out = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
print(code, out.getvalue().split()[0], time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def in_a_child(argv, **env):
    """Exit code, first word of the output, seconds and peak RSS in kB of one command, in a child process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])), **env)
    child = subprocess.run([sys.executable, "-c", LAUNCH, sys.executable, "-c", AT_THE_CAP, *argv], env=env,
                           capture_output=True, text=True, timeout=60, check=True)
    code, verdict, seconds, peak_kb = child.stdout.split()
    return int(code), verdict, float(seconds), int(peak_kb)


def at_the_cap(what, word):
    """`analyze <what>` on 10^6 letters, in a child process."""
    return in_a_child(["analyze", what, "--word", word, "--prefix", "1000000"])


@pytest.mark.parametrize("word, code, verdict", [("fib", 0, "true"), ("thue-morse", 1, "false")])
def test_block_condition_at_the_prefix_cap(word, code, verdict):
    """10^6 letters: under a second and about 25 MB; one factor set per length did not finish in a minute."""
    got_code, got_verdict, seconds, peak_kb = at_the_cap("block-condition", word)
    assert (got_code, got_verdict) == (code, verdict)
    assert seconds < 10
    assert peak_kb < 40 * 1024


def test_balance_violation_at_the_prefix_cap():
    """The witness is read off the balance kernel's u: about 20 MB; a scan by length took 31-74 MB."""
    code, verdict, seconds, peak_kb = at_the_cap("balance", "thue-morse")
    assert (code, verdict) == (1, "false")
    assert seconds < 10
    assert peak_kb < 40 * 1024


def test_period_at_the_prefix_cap():
    """10^6 Fibonacci letters: about 0.6 s and 27 MB; two KMP border tables as lists of ints took 68 MB."""
    code, _, seconds, peak_kb = at_the_cap("period", "fib")
    assert code == 0
    assert seconds < 10
    assert peak_kb < 40 * 1024


def test_balance_violation_at_ten_million_letters():
    """10^7 Thue-Morse letters: about 0.2 s and 65 MB; a scan by length took 4-5 s and 173 MB."""
    argv = ["analyze", "balance", "--word", "thue-morse", "--prefix", "10000000"]
    code, verdict, seconds, peak_kb = in_a_child(argv, STURMLEX_MAX_LEN="10000000")
    assert (code, verdict) == (1, "false")
    assert seconds < 10
    assert peak_kb < 100 * 1024


@pytest.mark.parametrize("argv", [
    ["extremal", "fine", "--word", "tribonacci", "--K", "10000"],
    ["extremal", "epistandard-ineq", "--word", "tribonacci", "--K", "10000", "--L", "100"],
], ids=["fine", "epistandard-ineq"])
def test_all_orders_checks_in_small_memory(argv):
    """K = 10^4: about 16 MB; the sorted set of every distinct length-K factor took 209 MB."""
    code, verdict, seconds, peak_kb = in_a_child(argv)
    assert (code, verdict) == (0, "holds")
    assert peak_kb < 64 * 1024


def test_phi_approx_candidates_buffer_only_what_they_read():
    """P = 12: 8191 periodic candidates read to L = 400 letters in about 38 MB; 4096 letters each took 65 MB."""
    argv = ["extremal", "phi-approx", "--word", "prepend:0:fib", "--P", "12", "--K", "200", "--L", "400"]
    code, _, _, peak_kb = in_a_child(argv)
    assert code == 0
    assert peak_kb < 45 * 1024


def test_block_condition_rejects_larger_alphabets():
    with pytest.raises(ValueError, match="binary"):
        block_condition(FiniteWord(b"\x00\x01\x02", Alphabet.of_size(3)))


# ---------------------------------------------------------------------------
# special factors and local balance


@st.composite
def materials(draw):
    """(alphabet size, material): random, periodic, or a window of a generated word."""
    kind = draw(st.sampled_from(["random", "periodic", "generated"]))
    if kind == "generated":
        w = draw(st.sampled_from(GENERATED))
        start = draw(st.integers(0, 300))
        n = draw(st.integers(1, 200))
        return w.alphabet.size, w.prefix_bytes(start + n)[start:]
    size = draw(st.integers(1, 4))
    if kind == "random":
        raw = draw(st.binary(min_size=1, max_size=80))
    else:
        period = draw(st.binary(min_size=1, max_size=6))
        raw = period * draw(st.integers(1, 30))
    return size, bytes(c % size for c in raw)


@given(materials(), st.data())
@settings(max_examples=300, deadline=None)
def test_special_factors_match_the_window_loop(sized, draw):
    size, data = sized
    w = FiniteWord(data, Alphabet.of_size(max(size, 2)))
    n = draw.draw(st.integers(0, len(data) - 1))
    for side in ("left", "right"):
        assert {f.data for f in special_factors(w, n, side)} == special_factors_by_window(data, n, side)


@given(materials(), st.data())
@settings(max_examples=300, deadline=None)
def test_local_balance_matches_the_per_length_loop(sized, draw):
    size, data = sized
    w = FiniteWord(data, Alphabet.of_size(max(size, 2)))
    # n_max = len - 2 makes the material exactly n_max + 2 letters long
    n_max = draw.draw(st.sampled_from([len(data) - 2, *range(-1, len(data) - 1)]))
    if n_max < 0:
        for check in (local_balance_check, local_balance_by_length):
            with pytest.raises(ValueError, match="n_max"):
                check(w, n_max)
        return
    assert local_balance_check(w, n_max).to_obj() == local_balance_by_length(w, n_max).to_obj()


@pytest.mark.parametrize("w", GENERATED, ids=lambda w: w.recipe[:24])
def test_generated_prefixes_match_the_references(w):
    data = w.prefix_bytes(3000)
    for n in (0, 1, 5, 20):
        for side in ("left", "right"):
            assert {f.data for f in special_factors(w, n, side, 3000)} == special_factors_by_window(data, n, side)
    for n_max in (0, 6, 30):
        assert local_balance_check(w, n_max, 3000).to_obj() == local_balance_by_length(w, n_max, 3000).to_obj()


def test_local_balance_failure_keeps_its_witness():
    w = FiniteWord.from_str("0011010011")
    for n_max in range(len(w) - 1):
        fast, slow = local_balance_check(w, n_max), local_balance_by_length(w, n_max)
        assert fast.to_obj() == slow.to_obj()
    assert not fast.holds and fast.witness == {"factor": "", "extensions": ["0_0", "0_1", "1_0", "1_1"]}


# ---------------------------------------------------------------------------
# negative rationals as their own token


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse: --help or a usage error
            code = e.code
    return code, out.getvalue(), err.getvalue()


def test_negative_rational_token_is_the_option_value():
    joined = run(["generate", "mechanical", "--alpha", "1/3", "--rho=-2/7", "--len", "5"])
    assert joined == (0, "10010\n", "")
    assert run(["generate", "mechanical", "--alpha", "1/3", "--rho", "-2/7", "--len", "5"]) == joined
    assert run(["modone", "gamma-tilde", "--x", "-1/3"]) == (2, "", "error: x must lie in [0, 1]\n")


def test_negative_integers_and_switches_are_unchanged():
    assert run(["analyze", "block-condition", "--word", "fib", "--prefix", "-3"]) == (
        2, "", "error: prefix length must be non-negative, got -3\n"
    )
    code, out, err = run(["generate", "mechanical", "--alpha", "1/3", "--upper", "-2/7"])
    assert code == 2 and out == "" and "unrecognized arguments: -2/7" in err
    code, out, _ = run(["generate", "mechanical", "--help", "-2/7"])
    assert code == 0 and "--rho RHO" in out


@pytest.mark.parametrize("argv, joined", [
    (["--rho", "-2/7"], ["--rho=-2/7"]),
    (["--al", "-1/3", "--prefix", "-3"], ["--al=-1/3", "--prefix=-3"]),
    (["--rho=1", "-2/7"], None),
    (["--upper", "-2/7"], None),
    (["--up", "-2/7"], None),
    (["--", "-2/7"], None),
    (["--rho", "-x"], None),
    (["mechanical", "-2/7"], None),
])
def test_join_negative_values(argv, joined):
    assert _join_negative_values(argv) == (argv if joined is None else joined)


def leaf_help(group, leaf):
    code, out, _ = run([group, leaf, "--help"])
    assert code == 0
    return out


def test_switches_are_the_options_without_a_value():
    """Every option shown without a metavar in some leaf's help is listed in cli._SWITCHES."""
    switches = set()
    for group in _GROUPS:
        leaves = re.search(r"\{([\w,-]+)\}", run([group, "--help"])[1]).group(1).split(",")
        for leaf in leaves:
            for match in re.finditer(r"^  (?:-\w, )?(--[\w-]+)( \S+)?", leaf_help(group, leaf), re.M):
                if match.group(2) is None:
                    switches.add(match.group(1))
    assert switches == set(_SWITCHES)


# ---------------------------------------------------------------------------
# out-of-range counts are usage errors


@pytest.mark.parametrize("argv, message", [
    (["analyze", "local-balance", "--word", "fib", "--n-max", "-3"], "n_max must be non-negative, got -3"),
    (["generate", "skew", "--ell", "-2", "--len", "5"], "ell must be non-negative, got -2"),
    (["oracle", "corpus", "--n-max", "-1"], "n_max must be at least 1, got -1"),
    (["oracle", "corpus", "--n-max", "0"], "n_max must be at least 1, got 0"),
])
def test_out_of_range_counts_are_usage_errors(argv, message):
    assert run(argv) == (2, "", f"error: {message}\n")


def test_smallest_counts_still_answer():
    assert run(["analyze", "local-balance", "--word", "fib", "--n-max", "0", "--prefix", "20"])[0] == 0
    assert run(["generate", "skew", "--ell", "0", "--len", "5"]) == (0, "baaaa\n", "")
    code, out, _ = run(["oracle", "corpus", "--n-max", "1", "--budget", "20"])
    assert code == 0 and "n_max=1 prefix_budget=20" in out
