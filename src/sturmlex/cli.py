"""Command-line surface: generate, analyze, extremal, modone, oracle.

Exit codes: 0 for holds/true (and plain generation), 1 for fails/false,
2 for usage errors, 3 for an internal error (a bug, reported on stderr).
JSON output is deterministic: fixed key order, rationals in lowest terms.
Word sources are builtin names, inline constructions, or serialized word
files; see ``--help`` of each subcommand.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

# extremal, modone, oracle and random are imported by the commands that use
# them, so a command loads and compiles only the layers it runs.
try:  # words reads STURMLEX_MAX_LEN as it loads; a malformed value is a usage error
    from .words import (
        Alphabet,
        FiniteWord,
        InfiniteWord,
        LexOrder,
        UltimatelyPeriodicWord,
        _image,
        _material,
        _periods,
        balance_violation,
        block_condition,
        complement,
        complexity,
        prepend,
        shift,
        special_factors,
        word_from_text,
    )
except ValueError as e:
    print(f"error: {e}", file=sys.stderr)
    sys.exit(2)
from .generators import (
    DirectiveWord,
    Morphism,
    characteristic,
    epistandard,
    fibonacci_slope,
    kbonacci,
    mechanical_lower,
    mechanical_upper,
    periodic_balanced,
    skew_word,
    thue_morse,
)
from .surds import parse_surd

if TYPE_CHECKING:
    from . import modone

class SpecError(ValueError):
    pass


def _rational(text: str) -> Fraction:
    """A rational from p/q or decimal text; a zero denominator is a usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise SpecError(f"{text!r} has a zero denominator") from None


def _widen(w, letters: str):
    """w over the default names of the larger alphabet ``letters`` call for (indices unchanged), else w.

    They call for ``Alphabet.for_text(letters)`` when its greatest letter is
    one of them, not only its two-letter floor.  Letters a..h re-embed any
    word; digits only extend a word over 0..n-1.  So a file word keeps its own
    names unless letters a..h past its size are added.
    """
    names = w.alphabet.names
    target = Alphabet.for_text(letters)
    if target.size <= len(names) or target.names[-1] not in letters:
        return w
    if target.names[0] == "0" and target.names[: len(names)] != names:
        return w
    return _image(w, bytes, target, str)


def word_from_spec(spec: str):
    """Build a word from a source description.

    Builtins: fib, tribonacci, kbonacci:K, thue-morse.  Constructions:
    mechanical:A:R (R may be "same"), mechanical-upper:A:R, characteristic:A,
    epistandard:DIRECTIVE, periodic:BODY, up:U|V, morphic:RULES:BASE,
    prepend:LETTERS:BASE, shift:K:BASE, complement:BASE, file:PATH.
    """
    spec = spec.strip()
    name = spec.lower()
    if name in ("fib", "fibonacci"):
        return characteristic(fibonacci_slope())
    if name == "tribonacci":
        return kbonacci(3)
    if name in ("thue-morse", "tm"):
        return thue_morse()
    head, _, rest = spec.partition(":")
    head = head.lower()
    if head == "kbonacci":
        return kbonacci(int(rest))
    if head in ("mechanical", "mechanical-upper"):
        parts = rest.split(":")
        if len(parts) != 2:
            raise SpecError(f"{head}: expected {head}:ALPHA:RHO")
        alpha = parse_surd(parts[0])
        rho = alpha if parts[1].strip().lower() == "same" else parse_surd(parts[1])
        make = mechanical_upper if head == "mechanical-upper" else mechanical_lower
        return make(alpha, rho)
    if head == "characteristic":
        return characteristic(parse_surd(rest))
    if head == "epistandard":
        return epistandard(DirectiveWord.from_text(rest))
    if head == "periodic":
        return UltimatelyPeriodicWord.purely_periodic(FiniteWord.from_str(rest))
    if head == "up":
        u_text, _, v_text = rest.partition("|")
        alphabet = Alphabet.for_text(u_text + v_text)
        return UltimatelyPeriodicWord(
            FiniteWord.from_str(u_text, alphabet), FiniteWord.from_str(v_text, alphabet)
        )
    if head == "morphic":
        rules, _, base_spec = rest.partition(":")
        base = _widen(word_from_spec(base_spec), Morphism.letters_of(rules))
        return Morphism.from_text(rules, base.alphabet).apply(base)
    if head == "prepend":
        letters, _, base_spec = rest.partition(":")
        base = _widen(word_from_spec(base_spec), letters)
        return prepend(FiniteWord.from_str(letters, base.alphabet), base)
    if head == "shift":
        k_text, _, base_spec = rest.partition(":")
        return shift(word_from_spec(base_spec), int(k_text))
    if head == "complement":
        return complement(word_from_spec(rest))
    if head == "file":
        with open(rest, encoding="utf-8") as fh:
            return word_from_text(fh.read())
    raise SpecError(f"unknown word spec {spec!r}")


def _infinite(w) -> InfiniteWord:
    if isinstance(w, InfiniteWord):
        return w
    raise SpecError("this command needs an infinite word (periodic:, up:, or a generator)")


def _digit_file(path: str) -> modone.DigitExpansion:
    """Digit file format: one line base, one line digits."""
    from . import modone

    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if len(lines) != 2:
        raise SpecError("digit file must have two lines: base, digits")
    base = int(lines[0])
    digits = FiniteWord([int(c) for c in lines[1]], Alphabet.digits(base))
    return modone.DigitExpansion(base, digits, "from-word")


def _digit_source(args, shifts_plus_precision: int) -> modone.DigitExpansion:
    from . import modone

    if args.xi_digits:
        d = _digit_file(args.xi_digits)
        if args.base is not None and args.base != d.base:
            raise SpecError(f"digit file base {d.base} contradicts --base {args.base}")
        return d
    base = 2 if args.base is None else args.base
    if args.xi:
        xi = _rational(args.xi)
        return modone.digits_from_rational(xi, base, shifts_plus_precision)
    if args.word:
        w = word_from_spec(args.word)
        return modone.DigitExpansion(base, w, "from-word")
    raise SpecError("one of --xi, --xi-digits, --word is required")


def _dumps(obj) -> str:
    import json  # only where JSON is written: text output never loads it

    return json.dumps(obj)


class Report:
    """Collects an exit code, a JSON object, and text lines for one command."""

    def __init__(self):
        self.code = 0
        self.obj: dict = {}
        self.lines: list[str] = []

    def verdict(self, v) -> "Report":
        self.code = 0 if v.holds else 1
        self.obj = v.to_obj()
        bounds = [
            f"{name}={value}"
            for name, value in (("K", v.shift_bound), ("L", v.depth_bound))
            if value is not None
        ]
        self.lines.append(f"{v.status}  ({', '.join(bounds)})" if bounds else v.status)
        if v.undecided:
            self.lines.append(f"undecided comparisons: {v.undecided}")
        if v.witness:
            self.lines.append(f"witness: {_dumps(v.witness)}")
        if v.detail:
            self.lines.append(f"detail: {_dumps(v.detail)}")
        return self

    def boolean(self, value: bool, obj: dict | None = None) -> "Report":
        self.code = 0 if value else 1
        self.obj = obj if obj is not None else {"result": value}
        self.lines.append("true" if value else "false")
        return self


def _emit(args, rep: Report) -> int:
    if args.format == "json":
        print(_dumps(rep.obj))
    else:
        for line in rep.lines:
            print(line)
    return rep.code


# ---------------------------------------------------------------------------
# command implementations


def cmd_generate(args) -> Report:
    rep = Report()
    # a leaf with a spec form builds the word its options spell
    if args.what == "mechanical":
        w = word_from_spec(f"mechanical{'-upper' if args.upper else ''}:{args.alpha}:{args.rho}")
    elif args.what == "epistandard":
        w = word_from_spec(f"epistandard:{args.directive}")
    elif args.what == "morphic":
        w = word_from_spec(f"morphic:{args.morphism}:{args.word}")
    elif args.what == "thue-morse":
        w = word_from_spec("thue-morse")
    elif args.what == "skew":
        alphabet = Alphabet.of_size(2)
        mu = Morphism.from_text(args.morphism, alphabet) if args.morphism else Morphism.identity(alphabet)
        w = skew_word(mu, alphabet.index(args.x), alphabet.index(args.y), args.ell)
    elif args.what == "periodic-balanced":
        v = FiniteWord.from_str(args.v) if args.v else FiniteWord(b"", Alphabet.of_size(2))
        w = periodic_balanced(v, v.alphabet.index(args.x), v.alphabet.index(args.y))
    else:  # pragma: no cover
        raise SpecError(args.what)
    data = _material(w, args.len)[: args.len]
    text = FiniteWord(data, w.alphabet).as_str()
    rep.obj = {"recipe": getattr(w, "recipe", "finite"), "length": len(data), "word": text}
    rep.lines.append(text)
    return rep


def cmd_analyze(args) -> Report:
    rep = Report()
    w = word_from_spec(args.word)
    L = args.prefix
    if args.what == "complexity":
        values = complexity(w, args.k_max, L)
        rep.obj = {
            "word": args.word,
            "prefix": L,
            "table": [{"k": k + 1, "p": p} for k, p in enumerate(values)],
        }
        rep.lines.extend(f"p({k + 1}) = {p}" for k, p in enumerate(values))
    elif args.what == "balance":
        pair = balance_violation(w, L)
        ok = pair is None
        rep.boolean(ok, {"word": args.word, "prefix": L, "balanced": ok,
                         "violation": None if ok else [pair[0].as_str(), pair[1].as_str()]})
    elif args.what == "special":
        out = special_factors(w, args.n, args.side, L)
        names = sorted(f.as_str() for f in out)
        rep.obj = {"word": args.word, "n": args.n, "side": args.side, "factors": names}
        rep.lines.append(" ".join(names) if names else "(none)")
    elif args.what == "local-balance":
        from . import extremal

        rep.verdict(extremal.local_balance_check(w, args.n_max, L))
    elif args.what == "block-condition":
        ok = block_condition(w, L)
        rep.boolean(ok, {"word": args.word, "prefix": L, "block_condition": ok})
    elif args.what == "period":
        material = _material(w, L)
        period, cert = _periods(material, w.alphabet)
        obj = {"word": args.word, "prefix": len(material), "smallest_period": period}
        if cert is None:
            obj["certificate"] = None
        else:
            obj["certificate"] = {"preperiod": cert.preperiod.as_str(), "period": cert.period.as_str()}
        rep.obj = obj
        rep.lines.append(_dumps(obj))
    else:  # pragma: no cover
        raise SpecError(args.what)
    return rep


def cmd_extremal(args) -> Report:
    from . import extremal

    rep = Report()
    if args.what == "min-max":
        w = word_from_spec(args.word)
        order = None if args.order is None else LexOrder.from_text(args.order, w.alphabet)
        lo = extremal.min_factor(w, args.k, order, args.prefix)
        hi = extremal.max_factor(w, args.k, order, args.prefix)
        rep.obj = {"word": args.word, "k": args.k, "min": lo.as_str(), "max": hi.as_str()}
        rep.lines.append(f"min: {lo.as_str()}")
        rep.lines.append(f"max: {hi.as_str()}")
    elif args.what == "characteristic":
        w = _infinite(word_from_spec(args.word))
        rep.verdict(extremal.characteristic_check(w, args.K, args.L))
    elif args.what == "epistandard-ineq":
        w = _infinite(word_from_spec(args.word))
        report = extremal.check_epistandard_ineq(w, args.K, args.L, args.material)
        rep.code = 0 if report.holds else 1
        rep.obj = report.to_obj(w.alphabet)
        rep.lines.append(f"{'holds' if report.holds else 'fails'} (strict={report.strict}, "
                         f"K={report.shift_bound}, L={report.depth_bound}, material={report.material})")
        for p in report.pairs:
            rep.lines.append(
                f"  {p.pair.text(w.alphabet)}: {p.verdict.status} equality={p.equality}"
            )
    elif args.what == "fine":
        w = _infinite(word_from_spec(args.word))
        rep.verdict(extremal.fine_test(w, args.K, args.material))
    elif args.what == "finite-epi":
        w = FiniteWord.from_str(args.body)
        ok, cert = extremal.finite_episturmian_test(w)
        rep.boolean(ok, {"word": args.body, "episturmian": ok,
                         "certificate": cert.as_str() if cert is not None else None})
        if ok:
            rep.lines.append(f"certificate: {cert.as_str()!r}")
    elif args.what == "gamma":
        w = _infinite(word_from_spec(args.word))
        rep.verdict(extremal.gamma_membership(w, args.K, args.L))
    elif args.what == "allowed-pair":
        r = _infinite(word_from_spec(args.r))
        s = _infinite(word_from_spec(args.s))
        rep.verdict(extremal.allowed_pair_check(r, s, args.K, args.L))
    elif args.what == "sigma":
        s = _infinite(word_from_spec(args.word))
        x = _infinite(word_from_spec(args.x))
        y = _infinite(word_from_spec(args.y))
        rep.verdict(extremal.sigma_xy_member(s, x, y, args.K, args.L))
    elif args.what == "phi-approx":
        x = _infinite(word_from_spec(args.word))
        res = extremal.gan_phi_approx(x, args.P, args.K, args.L)
        rep.code = 0 if res.word is not None else 1
        rep.obj = res.to_obj()
        if res.word is not None:
            rep.obj["prefix"] = res.word.prefix(min(args.L, 40)).as_str()
            rep.lines.append(f"{res.word.recipe}  [{res.label}]")
        else:
            rep.lines.append(f"no candidate found  [{res.label}]")
    else:  # pragma: no cover
        raise SpecError(args.what)
    return rep


def cmd_modone(args) -> Report:
    from . import modone

    rep = Report()
    if args.what == "digits":
        d = modone.digits_from_rational(_rational(args.xi), args.base, args.n)
        text = d.digits.as_str()
        rep.obj = {"xi": args.xi, "base": d.base, "digits": text}
        rep.lines.append(text)
    elif args.what == "frac-parts":
        d = _digit_source(args, args.N + args.L)
        parts = modone.fractional_parts(d, args.N, args.L)
        if args.csv:
            rep.lines.append("n,lo,hi")
            rep.lines.extend(
                f"{n},{modone._frac_str(p.lo)},{modone._frac_str(p.hi)}" for n, p in enumerate(parts)
            )
            rep.obj = {"csv": "\n".join(rep.lines)}
        else:
            rep.obj = {"base": d.base, "N": args.N, "L": args.L,
                       "parts": [p.to_obj() for p in parts]}
            rep.lines.extend(
                f"{n}: [{modone._frac_str(p.lo)}, {modone._frac_str(p.hi)}]" for n, p in enumerate(parts)
            )
    elif args.what == "cover":
        d = _digit_source(args, args.N + args.L)
        parts = modone.fractional_parts(d, args.N, args.L)
        length, arc = modone.min_covering_interval(parts, circular=not args.linear)
        rep.obj = {
            "base": d.base,
            "N": args.N,
            "L": args.L,
            "covering_length": modone._frac_str(length),
            "interval": arc.to_obj(),
        }
        rep.lines.append(f"covering length = {modone._frac_str(length)} ~= {float(length):.12f}")
        rep.lines.append(f"interval [{modone._frac_str(arc.lo)}, {modone._frac_str(arc.hi)}]")
    elif args.what == "classify":
        n = args.prefix
        d = _digit_source(args, n)
        report = modone.bugeaud_dubickas_classify(d, n)
        rep.code = 0 if report.verdict != "excluded" else 1
        rep.obj = report.to_obj()
        rep.lines.append(report.verdict)
        rep.lines.append(_dumps(rep.obj))
    elif args.what == "self-sturmian":
        w = _infinite(word_from_spec(args.word))
        rep.verdict(modone.self_sturmian_test(w, args.K, args.L))
    elif args.what == "gamma-tilde":
        x = _rational(args.x)
        member, orbit_size = modone._gamma_tilde_walk(x)
        rep.boolean(member, {"x": modone._frac_str(x), "member": member, "orbit_size": orbit_size})
    elif args.what == "veerman":
        r0, r1 = modone.veerman_interval(parse_surd(args.alpha), args.L)
        gap = r1.lo - r0.lo
        rep.obj = {"L": args.L, "r0": r0.to_obj(), "r1": r1.to_obj(), "difference": modone._frac_str(gap)}
        rep.lines.append(f"r0 in [{modone._frac_str(r0.lo)}, {modone._frac_str(r0.hi)}]")
        rep.lines.append(f"r1 in [{modone._frac_str(r1.lo)}, {modone._frac_str(r1.hi)}]")
        rep.lines.append(f"r1.lo - r0.lo = {modone._frac_str(gap)}")
    else:  # pragma: no cover
        raise SpecError(args.what)
    return rep


def cmd_oracle(args) -> Report:
    from . import extremal, oracle

    rep = Report()
    if args.what == "enumerate":
        words = oracle.enumerate_balanced(args.n)
        names = sorted(w.as_str() for w in words)
        rep.obj = {"n": args.n, "count": len(names), "words": names}
        rep.lines.append(f"count = {len(names)}")
        rep.lines.extend(names)
    elif args.what == "corpus":
        corpus = oracle.episturmian_factor_corpus(None, args.n_max, args.budget)
        dump = corpus.dump()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(dump)
            rep.lines.append(f"wrote {corpus.count()} words to {args.out}")
        else:
            rep.lines.append(dump.rstrip("\n"))
        rep.obj = {"n_max": corpus.n_max, "prefix_budget": corpus.prefix_budget,
                   "count": corpus.count()}
    elif args.what == "diff":
        import random

        rng = random.Random(args.seed)
        mismatches = 0
        for _ in range(args.trials):
            size = rng.choice((2, 2, 3, 4))
            alphabet = Alphabet.of_size(size)
            length = rng.randrange(5, 40)
            w = FiniteWord(bytes(rng.randrange(size) for _ in range(length)), alphabet)
            k = rng.randrange(1, length + 1)
            perm = list(range(size))
            rng.shuffle(perm)
            order = LexOrder(tuple(perm))
            lo, hi = oracle.naive_min_max(w, k, order)
            if lo != extremal.min_factor(w, k, order) or hi != extremal.max_factor(w, k, order):
                mismatches += 1
        rep.boolean(mismatches == 0, {"trials": args.trials, "seed": args.seed,
                                      "mismatches": mismatches})
        rep.lines.append(f"{args.trials} trials, {mismatches} mismatches")
    else:  # pragma: no cover
        raise SpecError(args.what)
    return rep


# ---------------------------------------------------------------------------
# parser


def _length(text: str) -> int:
    """argparse type for --len and --trials: a non-negative integer."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _generate_leaves(gen) -> None:
    g = gen.add_parser("mechanical")
    g.add_argument("--alpha", required=True)
    g.add_argument("--rho", default="same")
    g.add_argument("--upper", action="store_true", help="use the ceiling variant")
    g.add_argument("--len", type=_length, default=32)
    g = gen.add_parser("epistandard")
    g.add_argument("--directive", required=True, help='e.g. "abc*" or "ab|cd"')
    g.add_argument("--len", type=_length, default=32)
    g = gen.add_parser("morphic")
    g.add_argument("--morphism", required=True, help='e.g. "a>ab,b>a"')
    g.add_argument("--word", required=True)
    g.add_argument("--len", type=_length, default=32)
    g = gen.add_parser("thue-morse")
    g.add_argument("--len", type=_length, default=32)
    g = gen.add_parser("skew")
    g.add_argument("--morphism", default=None)
    g.add_argument("--x", default="a")
    g.add_argument("--y", default="b")
    g.add_argument("--ell", type=int, default=1)
    g.add_argument("--len", type=_length, default=32)
    g = gen.add_parser("periodic-balanced")
    g.add_argument("--v", default="")
    g.add_argument("--x", default="a")
    g.add_argument("--y", default="b")
    g.add_argument("--len", type=_length, default=32)


def _analyze_leaves(ana) -> None:
    a = ana.add_parser("complexity")
    a.add_argument("--word", required=True)
    a.add_argument("--k-max", type=int, required=True, dest="k_max")
    a.add_argument("--prefix", type=int, default=1000)
    a = ana.add_parser("balance")
    a.add_argument("--word", required=True)
    a.add_argument("--prefix", type=int, default=500)
    a = ana.add_parser("special")
    a.add_argument("--word", required=True)
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--side", choices=("left", "right"), default="left")
    a.add_argument("--prefix", type=int, default=1000)
    a = ana.add_parser("local-balance")
    a.add_argument("--word", required=True)
    a.add_argument("--n-max", type=int, default=6, dest="n_max")
    a.add_argument("--prefix", type=int, default=2000)
    a = ana.add_parser("block-condition")
    a.add_argument("--word", required=True)
    a.add_argument("--prefix", type=int, default=300)
    a = ana.add_parser("period")
    a.add_argument("--word", required=True)
    a.add_argument("--prefix", type=int, default=2000)


def _extremal_leaves(ext) -> None:
    e = ext.add_parser("min-max")
    e.add_argument("--word", required=True)
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--order", default=None, help='e.g. "b<a"')
    e.add_argument("--prefix", type=int, default=None)
    e = ext.add_parser("characteristic")
    e.add_argument("--word", required=True)
    e.add_argument("--K", type=int, default=200)
    e.add_argument("--L", type=int, default=400)
    e = ext.add_parser("epistandard-ineq")
    e.add_argument("--word", required=True)
    e.add_argument("--K", type=int, default=100)
    e.add_argument("--L", type=int, default=300)
    e.add_argument("--material", type=int, default=None)
    e = ext.add_parser("fine")
    e.add_argument("--word", required=True)
    e.add_argument("--K", type=int, default=100)
    e.add_argument("--material", type=int, default=None)
    e = ext.add_parser("finite-epi")
    e.add_argument("--body", required=True, help="finite word, e.g. aabab or 01101")
    e = ext.add_parser("gamma")
    e.add_argument("--word", required=True)
    e.add_argument("--K", type=int, default=200)
    e.add_argument("--L", type=int, default=400)
    e = ext.add_parser("allowed-pair")
    e.add_argument("--r", required=True)
    e.add_argument("--s", required=True)
    e.add_argument("--K", type=int, default=100)
    e.add_argument("--L", type=int, default=200)
    e = ext.add_parser("sigma")
    e.add_argument("--word", required=True)
    e.add_argument("--x", required=True)
    e.add_argument("--y", required=True)
    e.add_argument("--K", type=int, default=100)
    e.add_argument("--L", type=int, default=200)
    e = ext.add_parser("phi-approx")
    e.add_argument("--word", required=True)
    e.add_argument("--P", type=int, default=4)
    e.add_argument("--K", type=int, default=100)
    e.add_argument("--L", type=int, default=200)


def _modone_leaves(mod) -> None:
    # the digit sources of frac-parts, cover and classify
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--xi")
    source.add_argument("--xi-digits", dest="xi_digits")
    source.add_argument("--word")
    source.add_argument("--base", type=int, default=None)
    m = mod.add_parser("digits")
    m.add_argument("--xi", required=True, help="rational p/q in (0,1)")
    m.add_argument("--base", type=int, default=2)
    m.add_argument("--n", type=int, default=32)
    m = mod.add_parser("frac-parts", parents=[source])
    m.add_argument("--N", type=int, default=50)
    m.add_argument("--L", type=int, default=64)
    m.add_argument("--csv", action="store_true")
    m = mod.add_parser("cover", parents=[source])
    m.add_argument("--N", type=int, default=200)
    m.add_argument("--L", type=int, default=256)
    m.add_argument("--linear", action="store_true")
    m = mod.add_parser("classify", parents=[source])
    m.add_argument("--prefix", type=int, default=200)
    m = mod.add_parser("self-sturmian")
    m.add_argument("--word", required=True)
    m.add_argument("--K", type=int, default=200)
    m.add_argument("--L", type=int, default=400)
    m = mod.add_parser("gamma-tilde")
    m.add_argument("--x", required=True, help="rational p/q in [0,1]")
    m = mod.add_parser("veerman")
    m.add_argument("--alpha", required=True)
    m.add_argument("--L", type=int, default=64)


def _oracle_leaves(orc) -> None:
    o = orc.add_parser("enumerate")
    o.add_argument("--n", type=int, required=True)
    o = orc.add_parser("corpus")
    o.add_argument("--n-max", type=int, default=8, dest="n_max")
    o.add_argument("--budget", type=int, default=600)
    o.add_argument("--out", default=None)
    o = orc.add_parser("diff")
    o.add_argument("--trials", type=_length, default=500)
    o.add_argument("--seed", type=int, default=0)


# group -> (help, adds its leaf subcommands, runs a parsed command)
_GROUPS = {
    "generate": ("construct words", _generate_leaves, cmd_generate),
    "analyze": ("factor/balance analysis", _analyze_leaves, cmd_analyze),
    "extremal": ("lexicographic extremal checks", _extremal_leaves, cmd_extremal),
    "modone": ("distribution modulo one", _modone_leaves, cmd_modone),
    "oracle": ("brute-force ground truth", _oracle_leaves, cmd_oracle),
}


def build_parser(group: str | None = None) -> argparse.ArgumentParser:
    """The command parser; with ``group``, only that group gets its leaf subcommands.

    Every group parser exists either way, so the top-level help and errors do
    not depend on ``group``.
    """
    parser = argparse.ArgumentParser(
        prog="sturmlex",
        description="Exact-arithmetic toolkit for Sturmian/episturmian words and "
        "distribution of fractional parts modulo 1.",
        epilog="Prefix evaluation is capped by the STURMLEX_MAX_LEN environment variable.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    top = parser.add_subparsers(dest="group", required=True)
    for name, (help_text, add_leaves, _) in _GROUPS.items():
        sub = top.add_parser(name, help=help_text)
        if group is None or group == name:
            add_leaves(sub.add_subparsers(dest="what", required=True))
    return parser


# the options that take no value; every other option takes one
_SWITCHES = ("--help", "--upper", "--csv", "--linear")


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each token such as -2/7 after a value-taking option joined to it as --rho=-2/7.

    argparse reads a token that starts with '-' as an option unless it has
    the form of a negative number such as -3 or -0.5, so a negative rational
    given as its own token would be a usage error.  A switch, or a prefix of
    one (argparse accepts it as an abbreviation; "--" is a prefix of every
    switch), takes no value and is left alone.
    """
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if (
            token[:1] == "-"
            and token[1:2].isdigit()
            and prev.startswith("--")
            and "=" not in prev
            and not any(switch.startswith(prev) for switch in _SWITCHES)
        ):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_negative_values(argv)
    # the first token naming a group picks the leaves to build; with none
    # (--help, a bad group) the full parser reports it
    group = next((token for token in argv if token in _GROUPS), None)
    args = build_parser(group).parse_args(argv)
    _, _, run = _GROUPS[args.group]
    try:
        rep = run(args)
    except (SpecError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        import traceback  # only on this path: it would add to every start

        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    try:
        code = _emit(args, rep)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # what is still buffered goes nowhere, so the interpreter's last flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout closed before the output was written", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
