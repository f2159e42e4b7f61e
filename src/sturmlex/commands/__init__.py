"""What the command groups share: word specs, rationals, reports and output.

Each group of the ``sturmlex`` command lives in its own module here
(``generate``, ``analyze``, ``extremal``, ``modone``, ``oracle``) with two
functions: ``add_leaves(sub, leaf=None)`` adds its leaf subcommands to a
subparsers action, or only the one named ``leaf``, and ``run(args)`` runs a
parsed command and returns its ``Report``.  A group module imports the
library layers it runs inside ``run``, so a parser that lists every leaf
compiles no analysis, and ``run`` imports only what its leaf runs; and it
never imports ``sturmlex.cli``, which runs as ``__main__`` under ``python -m``.
"""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING

from ..words import (
    Alphabet,
    FiniteWord,
    InfiniteWord,
    UltimatelyPeriodicWord,
    _image,
    complement,
    prepend,
    shift,
    word_from_text,
)

if TYPE_CHECKING:
    from fractions import Fraction


def _rational(text: str) -> Fraction:
    """A rational from p/q or decimal text; a zero denominator is a usage error."""
    from fractions import Fraction

    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


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
    from ..generators import (
        DirectiveWord,
        Morphism,
        characteristic,
        epistandard,
        fibonacci_slope,
        kbonacci,
        mechanical_lower,
        mechanical_upper,
        thue_morse,
    )

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
        from ..surds import parse_surd

        parts = rest.split(":")
        if len(parts) != 2:
            raise ValueError(f"{head}: expected {head}:ALPHA:RHO")
        alpha = parse_surd(parts[0])
        rho = alpha if parts[1].strip().lower() == "same" else parse_surd(parts[1])
        make = mechanical_upper if head == "mechanical-upper" else mechanical_lower
        return make(alpha, rho)
    if head == "characteristic":
        from ..surds import parse_surd

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
    raise ValueError(f"unknown word spec {spec!r}")


def _infinite(w) -> InfiniteWord:
    if isinstance(w, InfiniteWord):
        return w
    raise ValueError("this command needs an infinite word (periodic:, up:, or a generator)")


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

    def boolean(self, value: bool, obj: dict) -> "Report":
        self.code = 0 if value else 1
        self.obj = obj
        self.lines.append("true" if value else "false")
        return self


def _emit(args, rep: Report) -> int:
    if args.format == "json":
        print(_dumps(rep.obj))
    else:
        for line in rep.lines:
            print(line)
    return rep.code


def _leaf(sub, name: str, leaf: str | None, **kwargs):
    """The parser of leaf ``name`` added to ``sub``, or None when the command names another ``leaf``."""
    return sub.add_parser(name, **kwargs) if leaf in (None, name) else None


def _length(text: str) -> int:
    """argparse type for --len and --trials: a non-negative integer."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n
