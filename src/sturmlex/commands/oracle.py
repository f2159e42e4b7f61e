"""``sturmlex oracle``: brute-force ground truth, and the fast extremal factors checked against it."""

from __future__ import annotations

from ..words import Alphabet, FiniteWord, LexOrder
from . import Report, _leaf, _length


def add_leaves(orc, leaf: str | None = None) -> None:
    if o := _leaf(orc, "enumerate", leaf):
        o.add_argument("--n", type=int, required=True)
    if o := _leaf(orc, "corpus", leaf):
        o.add_argument("--n-max", type=int, default=8, dest="n_max")
        o.add_argument("--budget", type=int, default=600)
        o.add_argument("--out", default=None)
    if o := _leaf(orc, "diff", leaf):
        o.add_argument("--trials", type=_length, default=500)
        o.add_argument("--seed", type=int, default=0)


def run(args) -> Report:
    from .. import oracle

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

        from .. import extremal

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
    return rep
