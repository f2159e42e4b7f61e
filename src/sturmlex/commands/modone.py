"""``sturmlex modone``: digit words as reals, their fractional parts modulo one, Gamma-tilde."""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING

from ..words import Alphabet, FiniteWord
from . import Report, _dumps, _infinite, _leaf, _rational, word_from_spec

if TYPE_CHECKING:
    from ..modone import DigitExpansion


def _digit_file(path: str) -> DigitExpansion:
    """Digit file format: one line base, one line digits."""
    from .. import modone

    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if len(lines) != 2:
        raise ValueError("digit file must have two lines: base, digits")
    base = int(lines[0])
    digits = FiniteWord([int(c) for c in lines[1]], Alphabet.digits(base))
    return modone.DigitExpansion(base, digits)


def _digit_source(args, shifts_plus_precision: int) -> DigitExpansion:
    from .. import modone

    if args.xi_digits is not None:
        d = _digit_file(args.xi_digits)
        if args.base is not None and args.base != d.base:
            raise ValueError(f"digit file base {d.base} contradicts --base {args.base}")
        return d
    base = 2 if args.base is None else args.base
    if args.xi is not None:
        return modone.digits_from_rational(_rational(args.xi), base, shifts_plus_precision)
    return modone.DigitExpansion(base, word_from_spec(args.word))


def add_leaves(mod, leaf: str | None = None) -> None:
    if m := _leaf(mod, "digits", leaf):
        m.add_argument("--xi", required=True, help="rational p/q in (0,1)")
        m.add_argument("--base", type=int, default=2)
        m.add_argument("--n", type=int, default=32)
    if leaf in (None, "frac-parts", "cover", "classify"):
        # the digit sources of these three leaves: exactly one of three
        source = argparse.ArgumentParser(add_help=False)
        one = source.add_mutually_exclusive_group(required=True)
        one.add_argument("--xi")
        one.add_argument("--xi-digits", dest="xi_digits")
        one.add_argument("--word")
        source.add_argument("--base", type=int, default=None)
        if m := _leaf(mod, "frac-parts", leaf, parents=[source]):
            m.add_argument("--N", type=int, default=50)
            m.add_argument("--L", type=int, default=64)
            m.add_argument("--csv", action="store_true")
        if m := _leaf(mod, "cover", leaf, parents=[source]):
            m.add_argument("--N", type=int, default=200)
            m.add_argument("--L", type=int, default=256)
            m.add_argument("--linear", action="store_true")
        if m := _leaf(mod, "classify", leaf, parents=[source]):
            m.add_argument("--prefix", type=int, default=200)
    if m := _leaf(mod, "self-sturmian", leaf):
        m.add_argument("--word", required=True)
        m.add_argument("--K", type=int, default=200)
        m.add_argument("--L", type=int, default=400)
    if m := _leaf(mod, "gamma-tilde", leaf):
        m.add_argument("--x", required=True, help="rational p/q in [0,1]")
    if m := _leaf(mod, "veerman", leaf):
        m.add_argument("--alpha", required=True)
        m.add_argument("--L", type=int, default=64)


def run(args) -> Report:
    from .. import modone

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
        from ..surds import parse_surd

        r0, r1 = modone.veerman_interval(parse_surd(args.alpha), args.L)
        gap = r1.lo - r0.lo
        rep.obj = {"L": args.L, "r0": r0.to_obj(), "r1": r1.to_obj(), "difference": modone._frac_str(gap)}
        rep.lines.append(f"r0 in [{modone._frac_str(r0.lo)}, {modone._frac_str(r0.hi)}]")
        rep.lines.append(f"r1 in [{modone._frac_str(r1.lo)}, {modone._frac_str(r1.hi)}]")
        rep.lines.append(f"r1.lo - r0.lo = {modone._frac_str(gap)}")
    return rep
