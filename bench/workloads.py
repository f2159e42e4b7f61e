"""The benchmark's workloads: seeded library tasks and the matching `sturmlex` commands.

Every task builds fresh word objects, so no prefix buffer carries over
between tasks or passes.  Before a kernel is timed, the task materializes the
prefix the kernel reads in its own span, so letter production is charged to
`generators`/`words` and never to the kernel.  A span name that ends in a
size (`.n20000`, `.K200`, `.A4`, `.N200`) or is listed in TIMED_ROWS is a
per-layer row.

The seed picks only inputs whose cost does not depend on it: slopes from
fixed lists of quadratic irrationals, rational intercepts, a letter renaming
of a fixed directive, shift offsets, and numerators p of p/1019 and p/1061
(2 is a primitive root modulo both primes, so every doubling orbit is full).
Sizes, and the inputs of `bugeaud_dubickas_classify` and
`classify_eventually_periodic`, are fixed: their cost depends on where a
search stops.

Every timed operation has a right answer at seed code.  The documented
soundness defects are probes of their own (`Workload.probes`, fixed inputs):
each runs once per run, untimed, and reports whether its defect still shows.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import expect
from sturmlex import (
    Alphabet,
    DigitExpansion,
    DirectiveWord,
    FiniteWord,
    LexOrder,
    Morphism,
    QuadraticSurd,
    block_condition,
    bugeaud_dubickas_classify,
    characteristic,
    characteristic_check,
    check_epistandard_ineq,
    check_sturmian_extremal,
    classify_eventually_periodic,
    complement,
    complexity,
    epistandard,
    fine_test,
    finite_episturmian_test,
    fractional_parts,
    gamma_membership,
    gamma_tilde_member,
    gan_phi_approx,
    is_balanced,
    kbonacci,
    local_balance_check,
    max_factor,
    mechanical_lower,
    min_covering_interval,
    min_factor,
    min_finite,
    prepend,
    self_sturmian_test,
    shift,
    sigma_xy_member,
    special_factors,
    thue_morse,
    veerman_interval,
)
from sturmlex.extremal import allowed_pair_check
from sturmlex.oracle import naive_min_max

# Slopes (p, q, d, r) = (p + q*sqrt(d))/r.  LOW_SLOPES are the roster slopes
# of gan_phi_approx below 1/2; HIGH_SLOPES lie above 1/2, so their
# characteristic words start with 1.
FIB = (3, -1, 5, 2)
LOW_SLOPES = [FIB, (2, -1, 2, 2), (-1, 1, 2, 1), (-1, 1, 3, 2), (2, -1, 3, 1)]
# allowed_pair_check(0c, 1c, 200, 400) ties on a strict side through depth L
# for sqrt(2)-1 and (sqrt(3)-1)/2, a known defect; those two slopes are
# defect probes, and the timed allowed-pair task draws from the other three.
TIE_SLOPES = [(-1, 1, 2, 1), (-1, 1, 3, 2)]
PAIR_SLOPES = [s for s in LOW_SLOPES if s not in TIE_SLOPES]
HIGH_SLOPES = [(-1, 1, 5, 2), (0, 1, 2, 2), (-1, 1, 3, 1)]
SLOPES = LOW_SLOPES + HIGH_SLOPES

A3 = Alphabet.of_size(3)
BINARY_NAMES = bytes.maketrans(b"\x00\x01", b"01")
ABC_NAMES = bytes.maketrans(b"\x00\x01\x02", b"abc")

# Rows without a size suffix.  The remaining rows are the sized span names.
TIMED_ROWS = [
    "extremal.allowed_pair",
    "extremal.phi_approx",
    "extremal.finite_epi",
    "extremal.gamma",
    "extremal.sigma",
    "modone.self_sturmian",
    "modone.veerman",
    "modone.gamma_tilde",
]
# Two-size rows, (row, size 1, size 2): each reports <row>.growth =
# log(t2/t1)/log(n2/n1).  The epistandard-ineq and fine sizes are |A|!, the
# number of orders they loop over.
GROWTH = [
    ("surds.floor", ("n20000", 20000), ("n100000", 100000)),
    ("generators.epistandard", ("n10000", 10000), ("n30000", 30000)),
    ("generators.characteristic", ("n20000", 20000), ("n100000", 100000)),
    ("generators.mechanical", ("n20000", 20000), ("n100000", 100000)),
    ("generators.morphic", ("n10000", 10000), ("n30000", 30000)),
    ("words.complexity", ("n10000", 10000), ("n50000", 50000)),
    ("words.special_factors", ("n10000", 10000), ("n50000", 50000)),
    ("words.is_balanced", ("n1000", 1000), ("n2000", 2000)),
    ("words.block_condition", ("n150", 150), ("n300", 300)),
    ("words.classify_eventually_periodic", ("n2000", 2000), ("n8000", 8000)),
    ("extremal.shift_chain", ("K200", 200), ("K1000", 1000)),
    ("extremal.epistandard_ineq", ("A4", 24), ("A6", 720)),
    ("extremal.fine", ("A5", 120), ("A6", 720)),
    ("extremal.min_max", ("n2000", 2000), ("n20000", 20000)),
    ("extremal.min_finite", ("n200", 200), ("n400", 400)),
    ("extremal.local_balance", ("n2000", 2000), ("n8000", 8000)),
    ("modone.classify", ("n300", 300), ("n900", 900)),
    ("modone.cover", ("N200", 200), ("N2000", 2000)),
]
SINGLE_ROWS = [
    "generators.thue_morse.n100000",
    "words.view.shift.n50000",
    "words.view.complement.n50000",
    "words.view.prepend.n50000",
]
MODULES = ["surds", "generators", "words", "extremal", "modone"]


def span_rows() -> list[str]:
    """Every span name reported as a per-layer time row."""
    rows = [f"{row}.{a[0]}" for row, a, _ in GROWTH] + [f"{row}.{b[0]}" for row, _, b in GROWTH]
    return sorted(rows + SINGLE_ROWS + TIMED_ROWS)


@dataclass(frozen=True)
class Raised:
    """The outcome of a task that raised instead of returning."""

    exc: BaseException

    def __repr__(self):
        return f"Raised({type(self.exc).__name__})"


@dataclass
class Task:
    """One in-process library call.  ``check`` returns None when the result is
    right and a reason otherwise; ``defect``, set on probes only, recognizes
    the documented symptom of a known defect."""

    name: str
    module: str
    run: Callable
    check: Callable[[object], str | None]
    defect: Callable[[object], bool] | None = None


@dataclass
class Command:
    """One `sturmlex` command line; ``check`` and ``defect`` see (exit code, stdout, stderr)."""

    argv: list[str]
    module: str
    check: Callable[[int, str, str], str | None]
    defect: Callable[[int, str, str], bool] | None = None


@dataclass
class Workload:
    name: str
    tasks: list[Task]
    commands: list[Command]
    probes: list[Task | Command] = field(default_factory=list)


# ---------------------------------------------------------------------------
# helpers


def surd(s: tuple) -> QuadraticSurd:
    return QuadraticSurd(*s)


def surd_text(s: tuple) -> str:
    p, q, d, r = s
    return f"({p}{'+' if q > 0 else '-'}{abs(q)}*sqrt({d}))/{r}"


def materialize(tr, name: str, w, n: int) -> bytes:
    """Fill n letters of w in their own span."""
    with tr.span(name):
        data = w.prefix_bytes(n)
    if name.startswith("generators."):
        tr.count("generators.letters", n)
    return data


def one(text: str) -> FiniteWord:
    return FiniteWord.from_str(text)


def want(cond: bool, reason: str) -> str | None:
    return None if cond else reason


def same(got, expected, what: str) -> str | None:
    return None if got == expected else f"{what} differs from the independent construction"


def holds(v) -> str | None:
    return want(v.holds, f"verdict {v.status}, expected holds: {v.witness}")


def counted(tr, v):
    """Add a verdict's undecided comparisons to the extremal counter."""
    tr.count("extremal.undecided", v.undecided)
    return v


def cli_json(check: Callable[[dict], str | None], code: int = 0):
    """A command check for --format json output with a fixed expected exit code."""

    def run(rc: int, out: str, err: str) -> str | None:
        if rc != code:
            return f"exit {rc}, expected {code}: {err.strip()[-200:]}"
        try:
            obj = json.loads(out)
        except ValueError:
            return "stdout is not one JSON object"
        return check(obj)

    return run


def cli_text(expected: Callable[[], str]):
    """A command check for text output that must equal expected() exactly."""

    def run(rc: int, out: str, err: str) -> str | None:
        if rc != 0:
            return f"exit {rc}, expected 0: {err.strip()[-200:]}"
        return same(out, expected(), "stdout")

    return run


def status_is(status: str):
    return lambda obj: want(obj.get("status") == status, f"status {obj.get('status')}, expected {status}")


def json_cmd(*argv: str) -> list[str]:
    return ["--format", "json", *argv]


# Expected words, each built once per process and sliced per task.


@functools.cache
def _characteristic(slope: tuple) -> bytes:
    return expect.characteristic(slope, 120000)


@functools.cache
def _epistandard(cycle: bytes) -> bytes:
    return expect.epistandard(cycle, 30000)


@functools.cache
def _mechanical(slope: tuple, rho: Fraction) -> bytes:
    return expect.mechanical(slope, rho, 100000)


@functools.cache
def _tribonacci_certificate(n: int) -> tuple[int, int] | None:
    return expect.periodic_certificate(kbonacci_bytes(3, n))


@functools.cache
def min_words(size: int) -> list[tuple[tuple, bytes]]:
    """(order, least length-100 factor of 1056 letters of kbonacci(size)), recomputed by sorting."""
    w = FiniteWord(kbonacci_bytes(size, 1056), Alphabet.of_size(size))
    return [(perm, naive_min_max(w, 100, LexOrder(perm))[0].data)
            for perm in itertools.permutations(range(size))]


def char_bytes(slope: tuple, n: int) -> bytes:
    return _characteristic(slope)[:n]


def kbonacci_bytes(k: int, n: int) -> bytes:
    return _epistandard(bytes(range(k)))[:n]


# ---------------------------------------------------------------------------
# produce: letter production at large n, no extremal work


def produce(seed: int) -> Workload:
    rng = random.Random(f"produce-{seed}")
    slope = rng.choice(SLOPES)
    mslope = rng.choice(SLOPES)
    b = rng.randrange(3, 30)
    rho = Fraction(rng.randrange(1, b), b)
    renaming = rng.sample(range(3), 3)
    cycle2 = bytes(renaming[x] for x in (0, 1, 2, 1))  # a letter renaming of abcb
    directive2 = cycle2.translate(ABC_NAMES).decode() + "*"
    k = rng.randrange(1, 1000)
    tasks: list[Task] = []
    commands: list[Command] = []

    for label, make, cycle, directive in (
        ("kbonacci3", lambda: kbonacci(3), b"\x00\x01\x02", "abc*"),
        ("renamed_abcb", lambda: epistandard(DirectiveWord.from_text(directive2)), cycle2, directive2),
    ):
        for n in (10000, 30000):
            tasks.append(Task(
                f"epistandard.{label}.n{n}", "generators",
                lambda tr, make=make, n=n: materialize(tr, f"generators.epistandard.n{n}", make(), n),
                lambda got, cycle=cycle, n=n: same(got, _epistandard(cycle)[:n], "epistandard prefix"),
            ))
            commands.append(Command(
                ["generate", "epistandard", "--directive", directive, "--len", str(n)], "generators",
                cli_text(lambda cycle=cycle, n=n: _epistandard(cycle)[:n].translate(ABC_NAMES).decode() + "\n"),
            ))

    for n in (20000, 100000):
        tasks.append(Task(
            f"characteristic.n{n}", "generators",
            lambda tr, n=n: materialize(tr, f"generators.characteristic.n{n}", characteristic(surd(slope)), n),
            lambda got, n=n: same(got, char_bytes(slope, n), "characteristic prefix"),
        ))
        commands.append(Command(
            ["generate", "mechanical", "--alpha", surd_text(slope), "--rho", "same", "--len", str(n)],
            "generators",
            cli_text(lambda n=n: char_bytes(slope, n).translate(BINARY_NAMES).decode() + "\n"),
        ))
        tasks.append(Task(
            f"mechanical.n{n}", "generators",
            lambda tr, n=n: materialize(
                tr, f"generators.mechanical.n{n}", mechanical_lower(surd(mslope), rho), n),
            lambda got, n=n: same(got, _mechanical(mslope, rho)[:n], "mechanical prefix"),
        ))
        commands.append(Command(
            ["generate", "mechanical", "--alpha", surd_text(mslope), "--rho", str(rho), "--len", str(n)],
            "generators",
            cli_text(lambda n=n: _mechanical(mslope, rho)[:n].translate(BINARY_NAMES).decode() + "\n"),
        ))

    tasks.append(Task(
        "thue_morse.n100000", "generators",
        lambda tr: materialize(tr, "generators.thue_morse.n100000", thue_morse(), 100000),
        lambda got: same(got, expect.thue_morse(100000), "Thue-Morse prefix"),
    ))
    commands.append(Command(
        ["generate", "thue-morse", "--len", "100000"], "generators",
        cli_text(lambda: expect.thue_morse(100000).translate(BINARY_NAMES).decode() + "\n"),
    ))

    view_n = 50000
    swap = bytes([1, 0]) + bytes(range(2, 256))
    view_expected = {
        "shift": lambda: char_bytes(slope, k + view_n)[k:],
        "complement": lambda: char_bytes(slope, view_n).translate(swap),
        "prepend": lambda: b"\x01" + char_bytes(slope, view_n - 1),
    }

    def views(tr):
        parent = characteristic(surd(slope))
        materialize(tr, "generators.characteristic", parent, view_n + k)
        out = {}
        for name, view in (
            ("shift", shift(parent, k)),
            ("complement", complement(parent)),
            ("prepend", prepend(one("1"), parent)),
        ):
            out[name] = materialize(tr, f"words.view.{name}.n{view_n}", view, view_n)
        return out

    tasks.append(Task(
        "views.n50000", "words", views,
        lambda got: same(got, {name: make() for name, make in view_expected.items()}, "view prefixes"),
    ))
    for name, spec in (
        ("shift", f"shift:{k}:characteristic:{surd_text(slope)}"),
        ("complement", f"complement:characteristic:{surd_text(slope)}"),
        ("prepend", f"prepend:1:characteristic:{surd_text(slope)}"),
    ):
        commands.append(Command(
            ["generate", "morphic", "--morphism", "a>a", "--word", spec, "--len", str(view_n)], "words",
            cli_text(lambda name=name: view_expected[name]().translate(BINARY_NAMES).decode() + "\n"),
        ))

    def morphic_expected(n: int) -> bytes:
        base = _epistandard(b"\x00\x01")
        return b"".join((b"\x02\x00", b"\x02\x01")[x] for x in base[: n // 2 + 1])[:n]

    for n in (10000, 30000):
        tasks.append(Task(
            f"morphic.n{n}", "generators",
            lambda tr, n=n: materialize(
                tr, f"generators.morphic.n{n}",
                Morphism.from_text("c>c,a>ca,b>cb", A3).apply(epistandard(DirectiveWord.from_text("ab*", A3))),
                n),
            lambda got, n=n: same(got, morphic_expected(n), "morphic image prefix"),
        ))
        commands.append(Command(
            ["generate", "morphic", "--morphism", "c>c,a>ca,b>cb", "--word", "epistandard:ab*", "--len", str(n)],
            "generators",
            cli_text(lambda n=n: morphic_expected(n).translate(ABC_NAMES).decode() + "\n"),
        ))
    return Workload("produce", tasks, commands)


# ---------------------------------------------------------------------------
# verify: extremal kernels on short material


def verify(seed: int) -> Workload:
    rng = random.Random(f"verify-{seed}")
    slope = rng.choice(LOW_SLOPES)
    high = rng.choice(HIGH_SLOPES)
    k = rng.randrange(1, 1000)
    pair_slope = rng.choice(PAIR_SLOPES)
    A, H = surd_text(slope), surd_text(high)
    char_spec, high_spec = f"characteristic:{A}", f"characteristic:{H}"
    tasks: list[Task] = []
    commands: list[Command] = []
    probes: list[Task | Command] = []

    for K, L in ((200, 400), (1000, 2000)):
        row = f"extremal.shift_chain.K{K}"

        def char_check(tr, K=K, L=L, row=row):
            c = characteristic(surd(slope))
            materialize(tr, "generators.characteristic", c, K + L)
            with tr.span(row):
                return counted(tr, characteristic_check(c, K, L))

        def shifted_check(tr, K=K, L=L, row=row):
            c = characteristic(surd(slope))
            materialize(tr, "generators.characteristic", c, k + K + L)
            s = shift(c, k)
            materialize(tr, "words.view.shift", s, K + L)
            with tr.span(row):
                return counted(tr, check_sturmian_extremal(s, c, K, L))

        tasks.append(Task(f"characteristic_check.K{K}", "extremal", char_check, holds))
        tasks.append(Task(f"sturmian_extremal_shift.K{K}", "extremal", shifted_check, holds))
        commands.append(Command(
            json_cmd("extremal", "characteristic", "--word", char_spec, "--K", str(K), "--L", str(L)),
            "extremal", cli_json(status_is("holds")),
        ))
        commands.append(Command(
            json_cmd("extremal", "sigma", "--word", f"shift:{k}:{char_spec}", "--x", f"prepend:0:{char_spec}",
                     "--y", f"prepend:1:{char_spec}", "--K", str(K), "--L", str(L)),
            "extremal", cli_json(status_is("holds")),
        ))

    K, L = 1000, 2000

    def gamma(tr, K=K, L=L):
        c = characteristic(surd(high))
        materialize(tr, "generators.characteristic", c, K + L)
        u = prepend(one("1"), c)
        materialize(tr, "words.view.prepend", u, K + L)
        with tr.span("extremal.gamma"):
            return counted(tr, gamma_membership(u, K, L))

    def sigma(tr, K=K, L=L):
        c = characteristic(surd(slope))
        materialize(tr, "generators.characteristic", c, K + L)
        x, y = prepend(one("0"), c), prepend(one("1"), c)
        materialize(tr, "words.view.prepend", x, L)
        materialize(tr, "words.view.prepend", y, K + L)
        with tr.span("extremal.sigma"):
            return counted(tr, sigma_xy_member(y, x, y, K, L))

    tasks.append(Task("gamma_membership", "extremal", gamma, holds))
    tasks.append(Task("sigma_xy_member", "extremal", sigma, holds))
    commands.append(Command(
        json_cmd("extremal", "gamma", "--word", f"prepend:1:{high_spec}", "--K", str(K), "--L", str(L)),
        "extremal", cli_json(status_is("holds")),
    ))
    commands.append(Command(
        json_cmd("extremal", "sigma", "--word", f"prepend:1:{char_spec}", "--x", f"prepend:0:{char_spec}",
                 "--y", f"prepend:1:{char_spec}", "--K", str(K), "--L", str(L)),
        "extremal", cli_json(status_is("holds")),
    ))

    def strict_expected(size: int) -> bool:
        """Equality a.s = min(s) is attained inside the material for every order."""
        head = kbonacci_bytes(size, 99)
        return all(m == bytes([perm[0]]) + head for perm, m in min_words(size))

    def fine_expected(size: int) -> bool:
        """The min-words of all orders agree after their first letter."""
        return len({m[1:] for _, m in min_words(size)}) == 1

    # a.s <= T^k(s) holds for every acceptable pair of an epistandard word
    for size in (4, 6):
        def ineq(tr, size=size):
            w = kbonacci(size)
            materialize(tr, "generators.epistandard", w, 1056)
            tr.count("extremal.orders", math.factorial(size))
            with tr.span(f"extremal.epistandard_ineq.A{size}"):
                rep = check_epistandard_ineq(w, 100, 300)
            tr.count("extremal.undecided", sum(p.verdict.undecided for p in rep.pairs))
            return rep

        tasks.append(Task(
            f"epistandard_ineq.A{size}", "extremal", ineq,
            lambda rep, size=size: want(rep.holds and rep.strict == strict_expected(size),
                                        f"holds={rep.holds} strict={rep.strict}"),
        ))
        commands.append(Command(
            json_cmd("extremal", "epistandard-ineq", "--word", f"kbonacci:{size}", "--K", "100", "--L", "300"),
            "extremal",
            cli_json(lambda obj, size=size: want(obj["status"] == "holds" and obj["strict"] == strict_expected(size),
                                                 f"status {obj['status']} strict {obj['strict']}")),
        ))

    for size in (5, 6):
        def fine(tr, size=size):
            w = kbonacci(size)
            materialize(tr, "generators.epistandard", w, 1056)
            tr.count("extremal.orders", math.factorial(size))
            with tr.span(f"extremal.fine.A{size}"):
                return fine_test(w, 100)

        def fine_cli(rc: int, out: str, err: str, size=size) -> str | None:
            ok = fine_expected(size)
            return cli_json(status_is("holds" if ok else "fails"), 0 if ok else 1)(rc, out, err)

        tasks.append(Task(
            f"fine.A{size}", "extremal", fine,
            lambda v, size=size: want(v.holds == fine_expected(size),
                                      f"fine verdict {v.status} disagrees with the recomputed min-words"),
        ))
        commands.append(Command(
            json_cmd("extremal", "fine", "--word", f"kbonacci:{size}", "--K", "100"), "extremal", fine_cli))

    def min_max_expected(n: int):
        lo, hi = naive_min_max(FiniteWord(char_bytes(slope, n), Alphabet.of_size(2)), 200)
        return lo.data, hi.data

    for n in (2000, 20000):
        def min_max(tr, n=n):
            c = characteristic(surd(slope))
            materialize(tr, "generators.characteristic", c, n)
            with tr.span(f"extremal.min_max.n{n}"):
                return min_factor(c, 200, None, n).data, max_factor(c, 200, None, n).data

        tasks.append(Task(f"min_max.n{n}", "extremal", min_max,
                          lambda got, n=n: same(got, min_max_expected(n), "min/max factors")))
        commands.append(Command(
            json_cmd("extremal", "min-max", "--word", char_spec, "--k", "200", "--prefix", str(n)), "extremal",
            cli_json(lambda obj, n=n: same(
                (obj["min"], obj["max"]),
                tuple(x.translate(BINARY_NAMES).decode() for x in min_max_expected(n)), "min/max factors")),
        ))

    for n in (200, 400):
        def min_fin(tr, n=n):
            c = characteristic(surd(slope))
            w = FiniteWord(materialize(tr, "generators.characteristic", c, n), c.alphabet)
            with tr.span(f"extremal.min_finite.n{n}"):
                return min_finite(w).data

        tasks.append(Task(
            f"min_finite.n{n}", "extremal", min_fin,
            lambda got, n=n: same(got, expect.min_finite(
                FiniteWord(char_bytes(slope, n), Alphabet.of_size(2)), LexOrder.natural(2)), "min(w)"),
        ))

    # finite balanced binary words are exactly the finite episturmian ones
    body = char_bytes(slope, 300).translate(BINARY_NAMES).decode()
    periodic_body = "ab" * 1200

    def finite_epi(text: str):
        def run(tr):
            w = one(text)
            tr.count("extremal.orders", 2)
            with tr.span("extremal.finite_epi"):
                return finite_episturmian_test(w)
        return run

    epi_ok = lambda got: want(got[0] is True and got[1] is not None, "expected episturmian with a certificate")
    epi_cli = cli_json(lambda obj: want(obj["episturmian"] is True and obj["certificate"] is not None,
                                        "expected episturmian with a certificate"))
    tasks.append(Task("finite_epi.sturmian300", "extremal", finite_epi(body), epi_ok))
    commands.append(Command(json_cmd("extremal", "finite-epi", "--body", body), "extremal", epi_cli))
    # known defect: the certificate search recurses to depth |w| and raises RecursionError
    probes.append(Task(
        "finite_epi.ab1200", "extremal", finite_epi(periodic_body), epi_ok,
        defect=lambda got: isinstance(got, Raised) and isinstance(got.exc, RecursionError),
    ))
    probes.append(Command(
        json_cmd("extremal", "finite-epi", "--body", periodic_body), "extremal", epi_cli,
        defect=lambda rc, out, err: rc == 1 and out == "" and "RecursionError" in err,
    ))

    def allowed(s: tuple, K: int, L: int):
        def run(tr):
            c = characteristic(surd(s))
            materialize(tr, "generators.characteristic", c, K + L)
            r, t = prepend(one("0"), c), prepend(one("1"), c)
            materialize(tr, "words.view.prepend", r, K + L)
            materialize(tr, "words.view.prepend", t, K + L)
            with tr.span("extremal.allowed_pair"):
                return counted(tr, allowed_pair_check(r, t, K, L))
        return run

    # Known defect: a strict-side comparison that stays equal through depth L is
    # reported as a failure instead of as undecided.
    def tie(L: int):
        return lambda v: (not isinstance(v, Raised) and not v.holds
                          and v.witness["bound"].endswith("-strict") and v.witness["depth"] == L)

    def cli_tie(L: int):
        def run(rc: int, out: str, err: str) -> bool:
            try:
                w = json.loads(out)["witness"]
            except (ValueError, KeyError, TypeError):
                return False
            return rc == 1 and w["bound"].endswith("-strict") and w["depth"] == L
        return run

    def pair_argv(spec: str, K: int, L: int) -> list[str]:
        return json_cmd("extremal", "allowed-pair", "--r", f"prepend:0:{spec}", "--s", f"prepend:1:{spec}",
                        "--K", str(K), "--L", str(L))

    pair_spec = f"characteristic:{surd_text(pair_slope)}"
    tasks.append(Task("allowed_pair.K200.L400", "extremal", allowed(pair_slope, 200, 400), holds))
    commands.append(Command(pair_argv(pair_spec, 200, 400), "extremal", cli_json(status_is("holds"))))
    for s, spec, K, L in [(s, f"characteristic:{surd_text(s)}", 200, 400) for s in TIE_SLOPES] + [
            (FIB, "fib", 2000, 100)]:
        probes.append(Task(f"allowed_pair.{surd_text(s)}.K{K}.L{L}", "extremal", allowed(s, K, L), holds,
                           defect=tie(L)))
        probes.append(Command(pair_argv(spec, K, L), "extremal", cli_json(status_is("holds")),
                              defect=cli_tie(L)))

    def phi(tr):
        c = characteristic(surd(slope))
        materialize(tr, "generators.characteristic", c, 600)
        x = prepend(one("0"), c)
        materialize(tr, "words.view.prepend", x, 600)
        with tr.span("extremal.phi_approx"):
            res = gan_phi_approx(x, 4, 200, 400)
        return res.word.prefix_bytes(400) if res.word is not None else None

    # the least shift-maximal companion of 0c is 1c
    tasks.append(Task("phi_approx", "extremal", phi,
                      lambda got: same(got, b"\x01" + char_bytes(slope, 399), "phi candidate")))
    commands.append(Command(
        json_cmd("extremal", "phi-approx", "--word", f"prepend:0:{char_spec}", "--P", "4", "--K", "200",
                 "--L", "400"),
        "extremal",
        cli_json(lambda obj: same(obj.get("prefix"),
                                  "1" + char_bytes(slope, 39).translate(BINARY_NAMES).decode(), "phi prefix")),
    ))
    return Workload("verify", tasks, commands, probes)


# ---------------------------------------------------------------------------
# analyze: factor analysis and modone on binary prefixes


def analyze(seed: int) -> Workload:
    rng = random.Random(f"analyze-{seed}")
    slope = rng.choice(SLOPES)
    high = rng.choice(HIGH_SLOPES)
    p1, p2 = rng.randrange(1, 1019), rng.randrange(1, 1061)
    A = surd_text(slope)
    char_spec = f"characteristic:{A}"
    tasks: list[Task] = []
    commands: list[Command] = []

    def on_char(row: str, n: int, kernel: Callable):
        def run(tr):
            c = characteristic(surd(slope))
            materialize(tr, "generators.characteristic", c, n)
            with tr.span(row):
                return kernel(c)
        return run

    sturmian_p = [k + 1 for k in range(1, 51)]
    for n in (10000, 50000):
        tasks.append(Task(f"complexity.n{n}", "words",
                          on_char(f"words.complexity.n{n}", n, lambda c, n=n: complexity(c, 50, n)),
                          lambda got: want(got == sturmian_p, "p(k) != k+1")))
        commands.append(Command(
            json_cmd("analyze", "complexity", "--word", char_spec, "--k-max", "50", "--prefix", str(n)), "words",
            cli_json(lambda obj: want([e["p"] for e in obj["table"]] == sturmian_p, "p(k) != k+1")),
        ))
        # the left special factors of a Sturmian word are the prefixes of its characteristic word
        tasks.append(Task(
            f"special_factors.n{n}", "words",
            on_char(f"words.special_factors.n{n}", n, lambda c, n=n: special_factors(c, 20, "left", n)),
            lambda got: same({f.data for f in got}, {char_bytes(slope, 20)}, "left special factors"),
        ))
        commands.append(Command(
            json_cmd("analyze", "special", "--word", char_spec, "--n", "20", "--prefix", str(n)), "words",
            cli_json(lambda obj: same(obj["factors"], [char_bytes(slope, 20).translate(BINARY_NAMES).decode()],
                                      "left special factors")),
        ))
    for n in (1000, 2000):
        tasks.append(Task(f"is_balanced.n{n}", "words",
                          on_char(f"words.is_balanced.n{n}", n, lambda c, n=n: is_balanced(c, n)),
                          lambda got: want(got is True, "Sturmian prefix reported unbalanced")))
        commands.append(Command(
            json_cmd("analyze", "balance", "--word", char_spec, "--prefix", str(n)), "words",
            cli_json(lambda obj: want(obj["balanced"] is True, "Sturmian prefix reported unbalanced")),
        ))
    for n in (150, 300):
        tasks.append(Task(f"block_condition.n{n}", "words",
                          on_char(f"words.block_condition.n{n}", n, lambda c, n=n: block_condition(c, n)),
                          lambda got: want(got is True, "block condition fails on a Sturmian prefix")))
        commands.append(Command(
            json_cmd("analyze", "block-condition", "--word", char_spec, "--prefix", str(n)), "words",
            cli_json(lambda obj: want(obj["block_condition"] is True, "block condition fails")),
        ))

    tribonacci_p = [2 * k + 1 for k in range(1, 51)]

    def trib_complexity(tr):
        t = kbonacci(3)
        materialize(tr, "generators.epistandard", t, 2000)
        with tr.span("words.complexity"):
            return complexity(t, 50, 2000)

    tasks.append(Task("complexity.tribonacci.n2000", "words", trib_complexity,
                      lambda got: want(got == tribonacci_p, "p(k) != 2k+1")))
    commands.append(Command(
        json_cmd("analyze", "complexity", "--word", "tribonacci", "--k-max", "50", "--prefix", "2000"), "words",
        cli_json(lambda obj: want([e["p"] for e in obj["table"]] == tribonacci_p, "p(k) != 2k+1")),
    ))

    def cert_matches(cert, n: int) -> str | None:
        expected = _tribonacci_certificate(n)
        if cert is None or expected is None:
            return want(cert is None and expected is None, "periodic certificate differs")
        _, p = expected
        return want(len(cert.period) == p and cert.prefix_bytes(n) == kbonacci_bytes(3, n),
                    "periodic certificate differs")

    for n in (2000, 8000):
        def periodic(tr, n=n):
            t = kbonacci(3)
            material = FiniteWord(materialize(tr, "generators.epistandard", t, n), t.alphabet)
            with tr.span(f"words.classify_eventually_periodic.n{n}"):
                return classify_eventually_periodic(material)

        tasks.append(Task(f"classify_eventually_periodic.n{n}", "words", periodic,
                          lambda got, n=n: cert_matches(got, n)))

        def local_balance(tr, n=n):
            t = kbonacci(3)
            materialize(tr, "generators.epistandard", t, n)
            with tr.span(f"extremal.local_balance.n{n}"):
                return counted(tr, local_balance_check(t, 6, n))

        # episturmian words are locally balanced
        lb_ok = lambda v: want(v.holds and v.detail["palindromic_variant_holds"], "local balance fails")
        tasks.append(Task(f"local_balance.n{n}", "extremal", local_balance, lb_ok))
        commands.append(Command(
            json_cmd("analyze", "local-balance", "--word", "tribonacci", "--n-max", "6", "--prefix", str(n)),
            "extremal",
            cli_json(lambda obj: want(obj["status"] == "holds" and obj["detail"]["palindromic_variant_holds"],
                                      "local balance fails")),
        ))
        commands.append(Command(
            json_cmd("analyze", "period", "--word", "tribonacci", "--prefix", str(n)), "words",
            cli_json(lambda obj, n=n: want(
                (obj["certificate"] is None)
                == (_tribonacci_certificate(n) is None),
                "periodic certificate differs")),
        ))

    def classify_ok(report, n: int) -> str | None:
        data = char_bytes(FIB, n)
        cert = expect.periodic_certificate(data)
        verdict = "periodic-balanced" if cert is not None else "consistent-with-sturmian"
        shift_ = expect.characteristic_shift(data) if cert is None else None
        # a Sturmian digit word is balanced on two adjacent digits, so never excluded
        return same((report["classification"], report["balanced"], report["adjacent_pair"],
                     report["characteristic_shift"]), (verdict, True, True, shift_), "classification")

    for n in (300, 900):
        def classify(tr, n=n):
            c = characteristic(surd(FIB))
            materialize(tr, "generators.characteristic", c, n)
            with tr.span(f"modone.classify.n{n}"):
                return bugeaud_dubickas_classify(DigitExpansion(2, c), n)

        tasks.append(Task(f"classify.n{n}", "modone", classify,
                          lambda got, n=n: classify_ok(got.to_obj(), n)))
        commands.append(Command(
            json_cmd("modone", "classify", "--word", "fib", "--prefix", str(n)), "modone",
            cli_json(lambda obj, n=n: classify_ok(obj, n)),
        ))

    tolerance = Fraction(1, 2**40)
    for N in (200, 2000):
        def cover(tr, N=N):
            c = characteristic(surd(slope))
            materialize(tr, "generators.characteristic", c, N + 256)
            with tr.span(f"modone.cover.N{N}"):
                return min_covering_interval(fractional_parts(DigitExpansion(2, c), N, 256))[0]

        # the orbit closure of 0.c under doubling spans an arc of length exactly 1/2
        tasks.append(Task(f"cover.N{N}", "modone", cover,
                          lambda got: want(abs(got - Fraction(1, 2)) <= tolerance, f"covering length {got}")))
        commands.append(Command(
            json_cmd("modone", "cover", "--word", char_spec, "--N", str(N), "--L", "256"), "modone",
            cli_json(lambda obj: want(abs(Fraction(obj["covering_length"]) - Fraction(1, 2)) <= tolerance,
                                      "covering length off 1/2")),
        ))

    def self_sturmian(tr):
        c = characteristic(surd(high))
        materialize(tr, "generators.characteristic", c, 600)
        s = prepend(one("1"), c)
        materialize(tr, "words.view.prepend", s, 601)
        with tr.span("modone.self_sturmian"):
            return self_sturmian_test(s, 200, 400)

    tasks.append(Task("self_sturmian", "modone", self_sturmian, holds))
    commands.append(Command(
        json_cmd("modone", "self-sturmian", "--word", f"prepend:1:characteristic:{surd_text(high)}",
                 "--K", "200", "--L", "400"),
        "modone", cli_json(status_is("holds")),
    ))

    def veerman(tr):
        with tr.span("modone.veerman"):
            return veerman_interval(surd(slope), 256)

    half, width = Fraction(1, 2), Fraction(1, 2**256)
    tasks.append(Task(
        "veerman", "modone", veerman,
        lambda got: want(got[1].lo - got[0].lo == half and got[0].width == width == got[1].width,
                         "endpoints do not differ by exactly 1/2"),
    ))
    commands.append(Command(
        json_cmd("modone", "veerman", "--alpha", A, "--L", "256"), "modone",
        cli_json(lambda obj: want(obj["difference"] == "1/2", "difference is not 1/2")),
    ))

    for p, q in ((p1, 1019), (p2, 1061)):
        def gamma_tilde(tr, p=p, q=q):
            with tr.span("modone.gamma_tilde"):
                return gamma_tilde_member(Fraction(p, q))

        member = expect.gamma_tilde(p, q)
        tasks.append(Task(f"gamma_tilde.{q}", "modone", gamma_tilde,
                          lambda got, member=member: want(got is member, "membership differs")))
        commands.append(Command(
            json_cmd("modone", "gamma-tilde", "--x", f"{p}/{q}"), "modone",
            cli_json(lambda obj, member=member: want(obj["member"] is member, "membership differs"),
                     0 if member else 1),
        ))
    return Workload("analyze", tasks, commands)


# ---------------------------------------------------------------------------
# surd floors: a traced probe with no command of its own


def surd_probes(seed: int) -> list[Task]:
    rng = random.Random(f"surds-{seed}")
    slope = rng.choice(SLOPES)
    b = rng.randrange(3, 30)
    rho = Fraction(rng.randrange(1, b), b)
    tasks = []
    for n in (20000, 100000):
        def floors(tr, n=n):
            alpha, x, out = surd(slope), QuadraticSurd.from_fraction(rho), []
            with tr.span(f"surds.floor.n{n}"):
                for _ in range(n):
                    out.append(x.floor())
                    x = x + alpha
            return out

        tasks.append(Task(f"floor.n{n}", "surds", floors,
                          lambda got, n=n: same(got, expect.floors(slope, rho, n), "floors")))
    return tasks


WORKLOADS = {"produce": produce, "verify": verify, "analyze": analyze}
