"""``sturmlex generate``: the letters of a word."""

from __future__ import annotations

from ..words import Alphabet, FiniteWord, _material
from . import Report, _leaf, _length, word_from_spec


def add_leaves(gen, leaf: str | None = None) -> None:
    if g := _leaf(gen, "mechanical", leaf):
        g.add_argument("--alpha", required=True)
        g.add_argument("--rho", default="same")
        g.add_argument("--upper", action="store_true", help="use the ceiling variant")
        g.add_argument("--len", type=_length, default=32)
    if g := _leaf(gen, "epistandard", leaf):
        g.add_argument("--directive", required=True, help='e.g. "abc*" or "ab|cd"')
        g.add_argument("--len", type=_length, default=32)
    if g := _leaf(gen, "morphic", leaf):
        g.add_argument("--morphism", required=True, help='e.g. "a>ab,b>a"')
        g.add_argument("--word", required=True)
        g.add_argument("--len", type=_length, default=32)
    if g := _leaf(gen, "thue-morse", leaf):
        g.add_argument("--len", type=_length, default=32)
    if g := _leaf(gen, "skew", leaf):
        g.add_argument("--morphism", default=None)
        g.add_argument("--x", default="a")
        g.add_argument("--y", default="b")
        g.add_argument("--ell", type=int, default=1)
        g.add_argument("--len", type=_length, default=32)
    if g := _leaf(gen, "periodic-balanced", leaf):
        g.add_argument("--v", default="")
        g.add_argument("--x", default="a")
        g.add_argument("--y", default="b")
        g.add_argument("--len", type=_length, default=32)


def run(args) -> Report:
    from ..generators import Morphism, periodic_balanced, skew_word

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
    data = _material(w, args.len)[: args.len]
    text = FiniteWord(data, w.alphabet).as_str()
    rep.obj = {"recipe": getattr(w, "recipe", "finite"), "length": len(data), "word": text}
    rep.lines.append(text)
    return rep
