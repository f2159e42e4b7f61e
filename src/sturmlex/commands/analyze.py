"""``sturmlex analyze``: factor counts, special factors, balance and periods of a prefix."""

from __future__ import annotations

from ..words import FiniteWord, _material
from . import Report, _dumps, _leaf, word_from_spec


def add_leaves(ana, leaf: str | None = None) -> None:
    if a := _leaf(ana, "complexity", leaf):
        a.add_argument("--word", required=True)
        a.add_argument("--k-max", type=int, required=True, dest="k_max")
        a.add_argument("--prefix", type=int, default=1000)
    if a := _leaf(ana, "balance", leaf):
        a.add_argument("--word", required=True)
        a.add_argument("--prefix", type=int, default=500)
    if a := _leaf(ana, "special", leaf):
        a.add_argument("--word", required=True)
        a.add_argument("--n", type=int, required=True)
        a.add_argument("--side", choices=("left", "right"), default="left")
        a.add_argument("--prefix", type=int, default=1000)
    if a := _leaf(ana, "local-balance", leaf):
        a.add_argument("--word", required=True)
        a.add_argument("--n-max", type=int, default=6, dest="n_max")
        a.add_argument("--prefix", type=int)
    if a := _leaf(ana, "block-condition", leaf):
        a.add_argument("--word", required=True)
        a.add_argument("--prefix", type=int, default=300)
    if a := _leaf(ana, "period", leaf):
        a.add_argument("--word", required=True)
        a.add_argument("--prefix", type=int, default=2000)


def run(args) -> Report:
    from ..analysis import _periods, balance_violation, block_condition, complexity, special_factors

    rep = Report()
    w = word_from_spec(args.word)
    L = args.prefix
    read = len(w) if isinstance(w, FiniteWord) else L  # the material: a finite word whole
    if args.what == "complexity":
        values = complexity(w, args.k_max, L)
        rep.obj = {
            "word": args.word,
            "prefix": read,
            "table": [{"k": k + 1, "p": p} for k, p in enumerate(values)],
        }
        rep.lines.extend(f"p({k + 1}) = {p}" for k, p in enumerate(values))
    elif args.what == "balance":
        pair = balance_violation(w, L)
        ok = pair is None
        rep.boolean(ok, {"word": args.word, "prefix": read, "balanced": ok,
                         "violation": None if ok else [pair[0].as_str(), pair[1].as_str()]})
    elif args.what == "special":
        out = special_factors(w, args.n, args.side, L)
        names = sorted(f.as_str() for f in out)
        rep.obj = {"word": args.word, "n": args.n, "side": args.side, "factors": names}
        rep.lines.append(" ".join(names) if names else "(none)")
    elif args.what == "local-balance":
        from .. import extremal

        rep.verdict(extremal.local_balance_check(w, args.n_max, L))
    elif args.what == "block-condition":
        ok = block_condition(w, L)
        rep.boolean(ok, {"word": args.word, "prefix": read, "block_condition": ok})
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
    return rep
