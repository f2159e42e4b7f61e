"""``sturmlex extremal``: least and greatest factors and the bounded extremal checks."""

from __future__ import annotations

from ..words import FiniteWord, LexOrder
from . import Report, _infinite, word_from_spec


def add_leaves(ext) -> None:
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


def run(args) -> Report:
    from .. import extremal

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
    return rep
