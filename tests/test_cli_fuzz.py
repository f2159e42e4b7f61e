"""Random `sturmlex` command lines: every one is a verdict (0/1) or a usage error (2).

Exit code 3 means an unexpected exception, a bug: a handler that crashes on an
odd but well-formed argument, or one that lost an import.  The commands run
in process through `main(argv)` at small sizes (--prefix <= 2000, K and L <= 200)
so the whole test stays within a few seconds.  Sizes whose cost is known to
grow steeply are drawn smaller: `phi-approx` is exponential in P and
`oracle enumerate` in n.  `block-condition` keeps the smaller prefix it was
given when it was cubic; it is linear now.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sturmlex.cli import main

LETTERS = st.text("abc", max_size=6)
LETTER = st.sampled_from(["a", "b", "c", "0", "x"])
RATIONAL = st.one_of(
    st.builds("{}/{}".format, st.integers(0, 13), st.integers(1, 13)),
    st.sampled_from(["0", "1", "0.25", "1/0", "x", ""]),
)
SURD = st.one_of(
    RATIONAL,
    st.builds(
        "({}+{}*sqrt({}))/{}".format,
        st.integers(-5, 5),
        st.integers(-3, 3),
        st.integers(0, 13),
        st.integers(0, 8),
    ),
    st.sampled_from(["(3-1*sqrt(5))/2", "(-1+1*sqrt(2))/1"]),
)
RULES = st.lists(
    st.builds("{}>{}".format, st.sampled_from("abc"), st.text("abc", max_size=3)), max_size=3
).map(",".join)

# two word files, written once: a finite word and u v^omega
WORD_FILES = tempfile.TemporaryDirectory()
for name, body in (("finite.txt", "a,b\nabaababaabaab\n"), ("periodic.txt", "a,b\nab|aab\n")):
    with open(os.path.join(WORD_FILES.name, name), "w", encoding="utf-8") as fh:
        fh.write(body)

# the word-spec grammar of `word_from_spec`, leaves first
WORD_LEAF = st.one_of(
    st.sampled_from([f"file:{os.path.join(WORD_FILES.name, name)}" for name in ("finite.txt", "periodic.txt")]),
    st.sampled_from(["fib", "fibonacci", "tribonacci", "thue-morse", "tm", "bogus", ""]),
    st.builds("kbonacci:{}".format, st.integers(-1, 4)),
    st.builds(
        "{}:{}:{}".format,
        st.sampled_from(["mechanical", "mechanical-upper"]),
        SURD,
        SURD | st.just("same"),
    ),
    st.builds("characteristic:{}".format, SURD),
    st.builds("epistandard:{}".format, st.text("abc*|", max_size=6)),
    st.builds("periodic:{}".format, LETTERS),
    st.builds("up:{}|{}".format, LETTERS, LETTERS),
)
WORD = st.recursive(
    WORD_LEAF,
    lambda inner: st.one_of(
        st.builds("morphic:{}:{}".format, RULES, inner),
        st.builds("prepend:{}:{}".format, LETTERS, inner),
        st.builds("shift:{}:{}".format, st.integers(-2, 40), inner),
        st.builds("complement:{}".format, inner),
    ),
    max_leaves=3,
)


def ints(lo, hi):
    """An integer flag value, one time in ten a value that is not an integer."""
    return st.tuples(st.integers(0, 9), st.integers(lo, hi)).map(lambda t: str(t[1]) if t[0] else "x")


PREFIX = ints(-3, 2000)
KL = ints(-3, 200)
SWITCH = st.just(None)  # a flag that takes no value

# group -> leaf -> [(flag, values)]; each flag is given seven times in eight,
# so a required flag is sometimes missing
LEAVES = {
    "generate": {
        "mechanical": [("--alpha", SURD), ("--rho", SURD | st.just("same")), ("--upper", SWITCH),
                       ("--len", PREFIX)],
        "epistandard": [("--directive", st.text("abc*|", max_size=6)), ("--len", PREFIX)],
        "morphic": [("--morphism", RULES), ("--word", WORD), ("--len", PREFIX)],
        "thue-morse": [("--len", PREFIX)],
        "skew": [("--morphism", RULES), ("--x", LETTER), ("--y", LETTER), ("--ell", ints(-2, 10)),
                 ("--len", PREFIX)],
        "periodic-balanced": [("--v", LETTERS), ("--x", LETTER), ("--y", LETTER), ("--len", PREFIX)],
    },
    "analyze": {
        "complexity": [("--word", WORD), ("--k-max", KL), ("--prefix", PREFIX)],
        "balance": [("--word", WORD), ("--prefix", PREFIX)],
        "special": [("--word", WORD), ("--n", KL), ("--side", st.sampled_from(["left", "right"])),
                    ("--prefix", PREFIX)],
        "local-balance": [("--word", WORD), ("--n-max", ints(-2, 20)), ("--prefix", PREFIX)],
        "block-condition": [("--word", WORD), ("--prefix", ints(-3, 300))],
        "period": [("--word", WORD), ("--prefix", PREFIX)],
    },
    "extremal": {
        "min-max": [("--word", WORD), ("--k", KL),
                    ("--order", st.sampled_from(["a<b", "b<a", "1<0", "c<a<b", "a<a", "x"])),
                    ("--prefix", PREFIX)],
        "characteristic": [("--word", WORD), ("--K", KL), ("--L", KL)],
        "epistandard-ineq": [("--word", WORD), ("--K", KL), ("--L", KL), ("--material", PREFIX)],
        "fine": [("--word", WORD), ("--K", KL), ("--material", PREFIX)],
        "finite-epi": [("--body", st.text("abcde01", min_size=1, max_size=30))],
        "gamma": [("--word", WORD), ("--K", KL), ("--L", KL)],
        "allowed-pair": [("--r", WORD), ("--s", WORD), ("--K", KL), ("--L", KL)],
        "sigma": [("--word", WORD), ("--x", WORD), ("--y", WORD), ("--K", KL), ("--L", KL)],
        "phi-approx": [("--word", WORD), ("--P", ints(-2, 4)), ("--K", KL), ("--L", KL)],
    },
    "modone": {
        "digits": [("--xi", RATIONAL), ("--base", ints(-1, 11)), ("--n", PREFIX)],
        "frac-parts": [("--xi", RATIONAL), ("--word", WORD), ("--base", ints(-1, 11)),
                       ("--N", KL), ("--L", KL), ("--csv", SWITCH)],
        "cover": [("--xi", RATIONAL), ("--word", WORD), ("--base", ints(-1, 11)),
                  ("--N", KL), ("--L", KL), ("--linear", SWITCH)],
        "classify": [("--xi", RATIONAL), ("--word", WORD), ("--base", ints(-1, 11)),
                     ("--prefix", PREFIX)],
        "self-sturmian": [("--word", WORD), ("--K", KL), ("--L", KL)],
        "gamma-tilde": [("--x", RATIONAL)],
        "veerman": [("--alpha", SURD), ("--L", KL)],
    },
    "oracle": {
        "enumerate": [("--n", ints(-2, 10))],
        "corpus": [("--n-max", ints(-2, 5)), ("--budget", ints(-2, 100))],
        "diff": [("--trials", ints(-2, 20)), ("--seed", ints(0, 10**6))],
    },
}


@st.composite
def command_lines(draw):
    argv = draw(st.sampled_from([[], ["--format", "json"]]))
    group = draw(st.sampled_from(sorted(LEAVES)))
    leaf = draw(st.sampled_from(sorted(LEAVES[group])))
    argv += [group, leaf]
    for flag, values in LEAVES[group][leaf]:
        if draw(st.integers(0, 7)):
            value = draw(values)
            # --flag=value, so that a value starting with '-' stays a value
            argv.append(flag if value is None else f"{flag}={value}")
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse: --help or a usage error
            code = e.code
    return code, err.getvalue()


@given(command_lines())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_command_line_is_a_verdict_or_a_usage_error(argv):
    code, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "internal error" not in err, (argv, err)


# one well-formed command per leaf, so every handler runs at least once
# whatever the random draw
ONE_PER_LEAF = [
    "generate mechanical --alpha 2/5 --rho 1/3 --len 20",
    "generate epistandard --directive abc* --len 20",
    "generate morphic --morphism a>ab,b>a --word fib --len 20",
    "generate thue-morse --len 20",
    "generate skew --morphism a>ab,b>a --ell 2 --len 20",
    "generate periodic-balanced --v aba --len 20",
    "analyze complexity --word fib --k-max 5 --prefix 200",
    "analyze balance --word thue-morse --prefix 200",
    "analyze special --word tribonacci --n 3 --prefix 200",
    "analyze local-balance --word fib --n-max 4 --prefix 200",
    "analyze block-condition --word fib --prefix 60",
    "analyze period --word up:b|ab --prefix 50",
    "extremal min-max --word tribonacci --k 4 --order c<a<b --prefix 200",
    "extremal characteristic --word fib --K 20 --L 40",
    "extremal epistandard-ineq --word kbonacci:3 --K 20 --L 40",
    "extremal fine --word kbonacci:3 --K 20",
    "extremal finite-epi --body aabab",
    "extremal gamma --word fib --K 20 --L 40",
    "extremal allowed-pair --r prepend:0:fib --s prepend:1:fib --K 20 --L 40",
    "extremal sigma --word fib --x fib --y fib --K 20 --L 40",
    "extremal phi-approx --word fib --P 2 --K 20 --L 40",
    "modone digits --xi 2/7 --base 3 --n 20",
    "modone frac-parts --xi 2/7 --N 10 --L 16 --csv",
    "modone cover --word fib --N 40 --L 32",
    "modone classify --word fib --prefix 100",
    "modone self-sturmian --word prepend:1:characteristic:(-1+1*sqrt(5))/2 --K 100 --L 200",
    "modone gamma-tilde --x 2/3",
    "modone veerman --alpha (3-1*sqrt(5))/2 --L 16",
    "oracle enumerate --n 5",
    "oracle corpus --n-max 4 --budget 50",
    "oracle diff --trials 5",
]


def test_one_command_per_leaf_reaches_its_verdict():
    assert {tuple(line.split()[:2]) for line in ONE_PER_LEAF} == {
        (group, leaf) for group, leaves in LEAVES.items() for leaf in leaves
    }
    for line in ONE_PER_LEAF:
        code, err = run(line.split())
        assert code in (0, 1), (line, code, err)


def test_usage_errors_name_the_bad_argument():
    """Out-of-domain values that once surfaced as other errors, or as a verdict."""
    code, err = run(["analyze", "special", "--word", "fib", "--n", "-1"])
    assert (code, err) == (2, "error: factor length must be non-negative, got -1\n")
    for argv in (["extremal", "epistandard-ineq", "--word", "fib", "--K", "5", "--L", "5", "--material", "-1"],
                 ["extremal", "fine", "--word", "fib", "--K", "5", "--material", "-1"]):
        code, err = run(argv)
        assert (code, err) == (2, "error: prefix length must be non-negative, got -1\n"), argv
    for L in ("0", "-2"):
        code, err = run(["modone", "veerman", "--alpha", "(3-1*sqrt(5))/2", "--L", L])
        assert (code, err) == (2, f"error: precision must be at least 1 digit, got {L}\n")
