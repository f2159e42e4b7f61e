"""Brute-force ground truth: exhaustive enumerations and naive recomputations.

These routines deliberately avoid the analysis code paths they are used to
check.  Balance is tested straight from the definition (all pairs of
equal-length factors), extremal factors by sorting the full factor list,
least suffixes by Duval's loop one letter per step, the episturmian corpus
by collecting factors of explicitly generated words, word letters one at a
time (epistandard words by one palindromic closure per directive letter,
mechanical words by one surd floor per letter), floors along a progression
by one isqrt per term, shift-chain checks by one ranked slice per shift and
bound, compared letter by letter, the all-orders extremal checks by one such
check and one min over every window per acceptable pair, fine words by
those mins compared letter by letter, distinct windows by one slice per
position, factor complexity by one set of factors per length, special
factors and local balance by one entry per window (local balance as one set
inclusion per letter), the block condition by one factor set per length, finite
min/max words by one such min per prefix length, balance witnesses by one
count array per length, periodic certificates by one backward scan per
period, the canonical form of u v^omega by one letter per step, smallest
periods by one slice comparison per shift, fractional parts and covering
arcs by one numerator per shift and Fraction arithmetic, and rational
digits, doubling orbits and the Thue-Morse constant by Fraction arithmetic
step by step.

A reference shares with the code it checks only records (``BoundedVerdict``,
``PairInequality``, ``EpistandardReport``), argument and material rules
(``_check_bounds``, ``words._check_factor_length``, ``acceptable_pairs``,
``_factor_material``, ``words._material``) and witness text (``_names``,
``_pair_text``), never a verdict rule.  Each layer is imported inside the
references that use it, so enumerating balanced words loads none.
"""

from __future__ import annotations

import itertools
from array import array
from operator import sub
from typing import TYPE_CHECKING, Iterator

from .words import Alphabet, FiniteWord, InfiniteWord, LexOrder, _check_cap, _check_factor_length, _material, _Record

if TYPE_CHECKING:
    from fractions import Fraction

    from .extremal import BoundedVerdict, EpistandardReport
    from .generators import DirectiveWord
    from .modone import DigitExpansion, RationalInterval
    from .surds import QuadraticSurd

__all__ = [
    "closure_letters",
    "floor_letters",
    "progression_floors_by_term",
    "enumerate_balanced",
    "balanced_by_definition",
    "OracleCorpus",
    "episturmian_factor_corpus",
    "default_roster",
    "naive_min_max",
    "least_suffix_by_letters",
    "shift_chain_by_letters",
    "epistandard_ineq_by_order",
    "fine_by_order",
    "factor_windows_by_position",
    "complexity_by_length",
    "special_factors_by_window",
    "local_balance_by_length",
    "block_violation_by_length",
    "balance_violation_by_length",
    "eventually_periodic_by_tails",
    "canonical_uv_by_letters",
    "smallest_period_by_shifts",
    "extremal_factor_by_windows",
    "finite_extremal_by_chain",
    "finite_episturmian_by_enumeration",
    "fractional_parts_by_shift",
    "covering_by_fractions",
    "digits_by_fractions",
    "doubling_orbit_by_fractions",
    "gamma_tilde_by_fractions",
    "thue_morse_constant_by_sum",
]

MAX_ENUM_LENGTH = 16


def closure_letters(delta: DirectiveWord) -> Iterator[int]:
    """The letters of epistandard(delta): one palindromic closure per directive letter.

    Quadratic in the prefix length.  Ends after the last closure of a finite
    directive.
    """
    from .generators import _pal_closure_bytes

    pal = b""
    i = 0
    while True:
        try:
            x = delta.letter(i)
        except IndexError:
            return
        closed = _pal_closure_bytes(pal + bytes([x]))
        yield from closed[len(pal) :]
        pal = closed
        i += 1


def floor_letters(alpha: QuadraticSurd, rho: QuadraticSurd, use_ceiling: bool = False) -> Iterator[int]:
    """The letters of the lower (or upper) mechanical word: one surd floor (or ceiling) per letter."""
    from .surds import QuadraticSurd

    floor_alpha = alpha.floor()
    value = QuadraticSurd.ceil if use_ceiling else QuadraticSurd.floor
    acc = rho
    prev = value(acc)
    while True:
        acc = acc + alpha
        cur = value(acc)
        yield 0 if cur - prev == floor_alpha else 1
        prev = cur


def progression_floors_by_term(alpha: QuadraticSurd, rho: QuadraticSurd, start: int, stop: int) -> list[int]:
    """The floors behind surds.progression_letters, by one exact surd floor (isqrt) each."""
    from .surds import _floor

    alpha, rho = alpha._common(rho)
    d, r = alpha.d or rho.d, alpha.r * rho.r
    # k*alpha + rho = (k*ap + bp + (k*aq + bq)*sqrt(d)) / r
    ap, aq = alpha.p * rho.r, alpha.q * rho.r
    bp, bq = rho.p * alpha.r, rho.q * alpha.r
    return [_floor(k * ap + bp, k * aq + bq, d, r) for k in range(start, stop)]


def balanced_by_definition(data: bytes) -> bool:
    """Balance tested literally: every pair of equal-length windows, counted."""
    n = len(data)
    for length in range(1, n + 1):
        counts = {data[i : i + length].count(1) for i in range(n - length + 1)}
        if max(counts) - min(counts) >= 2:
            return False
    return True


def enumerate_balanced(n: int) -> set[FiniteWord]:
    """All balanced binary words of length n, by testing every word."""
    if not 1 <= n <= MAX_ENUM_LENGTH:
        raise ValueError(f"enumeration supported for lengths 1..{MAX_ENUM_LENGTH}")
    alphabet = Alphabet(("0", "1"))
    out = set()
    for bits in itertools.product((0, 1), repeat=n):
        data = bytes(bits)
        if balanced_by_definition(data):
            out.add(FiniteWord(data, alphabet))
    return out


def default_roster() -> list[InfiniteWord]:
    """Epistandard words used as the corpus generators: k-bonacci plus sampled directives."""
    from .generators import DirectiveWord, epistandard, kbonacci

    roster: list[InfiniteWord] = [kbonacci(2), kbonacci(3), kbonacci(4)]
    for text in ("aab*", "abb*", "ab|ba", "abcb*", "a|ab"):
        roster.append(epistandard(DirectiveWord.from_text(text)))
    return roster


class OracleCorpus(_Record):
    """A deterministic subset of the finite episturmian words."""

    _fields = ("n_max", "prefix_budget", "generators", "words")

    def __init__(self, n_max: int, prefix_budget: int, generators: tuple[str, ...], words: set[FiniteWord]):
        self.n_max = n_max
        self.prefix_budget = prefix_budget
        self.generators = generators
        self.words = words

    def count(self) -> int:
        return len(self.words)

    def dump(self) -> str:
        lines = [
            "# corpus: subset of finite episturmian words",
            f"# n_max={self.n_max} prefix_budget={self.prefix_budget} count={self.count()}",
            f"# generators: {'; '.join(self.generators)}",
        ]
        lines.extend(sorted(w.as_str() for w in self.words))
        return "\n".join(lines) + "\n"


def episturmian_factor_corpus(
    roster: list[InfiniteWord] | None = None,
    n_max: int = 8,
    prefix_budget: int = 600,
) -> OracleCorpus:
    """Union of the length <= n_max factors of the roster's prefixes.

    Sound but deliberately incomplete beyond two letters: no exhaustive
    enumeration of episturmian factors exists at desk scale.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    roster = roster if roster is not None else default_roster()
    # one entry per letter string: the roster words share the names a-h, and
    # a factor met in several (over alphabets of several sizes) is one word
    words: dict[bytes, FiniteWord] = {}
    for w in roster:
        data = w.prefix_bytes(prefix_budget)
        for n in range(1, n_max + 1):
            for i in range(len(data) - n + 1):
                factor = data[i : i + n]
                if factor not in words:
                    words[factor] = FiniteWord(factor, w.alphabet)
    return OracleCorpus(
        n_max, prefix_budget, tuple(w.recipe for w in roster), set(words.values())
    )


def naive_min_max(
    w: FiniteWord | InfiniteWord,
    k: int,
    order: LexOrder | None = None,
    prefix_length: int | None = None,
) -> tuple[FiniteWord, FiniteWord]:
    """Extremal length-k factors recomputed by sorting the full factor list."""
    data = _material(w, prefix_length)
    _check_factor_length(data, k)
    order = order or LexOrder.natural(w.alphabet.size)
    table = order.table
    ranked = sorted(
        (data[i : i + k].translate(table), data[i : i + k])
        for i in range(len(data) - k + 1)
    )
    return (
        FiniteWord(ranked[0][1], w.alphabet),
        FiniteWord(ranked[-1][1], w.alphabet),
    )


def extremal_factor_by_windows(data: bytes, k: int, order: LexOrder, want_max: bool) -> bytes:
    """The least (greatest) length-k factor of data under the order, by one min (max) over every window."""
    _check_factor_length(data, k)
    ranked = data.translate(order.table)
    best = (max if want_max else min)(ranked[i : i + k] for i in range(len(data) - k + 1))
    pos = ranked.find(best)
    return data[pos : pos + k]


def least_suffix_by_letters(s: bytes, last: int) -> int:
    """Start of the least suffix of s starting at or before last, by Duval's loop one letter per step."""
    n = len(s)
    i = 0
    while True:
        j, k = i + 1, i
        while j < n:
            a, b = s[k], s[j]
            if a == b:
                k += 1
            elif a < b:
                k = i
            else:
                break
            j += 1
        # factors of length p start at i, i + p, ... up to k
        p = j - k
        nxt = i + ((k - i) // p + 1) * p
        if nxt > last:
            return i + (min(k, last) - i) // p * p
        i = nxt


def shift_chain_by_letters(
    s: InfiniteWord, lower: bytes | None, upper: bytes | None, K: int, L: int, order: LexOrder
) -> BoundedVerdict:
    """extremal._shift_chain_check recomputed shift by shift, each comparison letter by letter."""
    from .extremal import BoundedVerdict, _check_bounds, _names

    _check_bounds(K, L)
    data = s.prefix_bytes(K + L)
    table = order.table
    undecided = 0
    for k in range(K + 1):
        seg = data[k : k + L].translate(table)
        for raw, name, sign in ((lower, "lower", -1), (upper, "upper", 1)):
            if raw is None:
                continue
            bound = raw.translate(table)
            depth = next((i for i in range(min(len(seg), len(bound))) if seg[i] != bound[i]), None)
            if depth is None:
                undecided += 1
            elif (seg[depth] - bound[depth]) * sign > 0:
                witness = {
                    "shift": k,
                    "bound": name,
                    "depth": depth,
                    "expected": _names(s.alphabet, raw[: depth + 1]),
                    "found": _names(s.alphabet, data[k : k + depth + 1]),
                }
                return BoundedVerdict(False, K, L, witness=witness)
    return BoundedVerdict(True, K, L, undecided=undecided)


def epistandard_ineq_by_order(
    s: InfiniteWord, K: int, L: int, material: int | None = None
) -> EpistandardReport:
    """check_epistandard_ineq recomputed with a full shift-chain check and factor scan per order."""
    from .extremal import EpistandardReport, PairInequality, _check_bounds, _factor_material, acceptable_pairs

    pairs = acceptable_pairs(s.alphabet)
    _check_bounds(K, L)
    factors = _factor_material(s, K, material, "--material")
    data = s.prefix_bytes(max(len(factors), K + L))
    results = []
    for pair in pairs:
        prefixed = bytes([pair.by_rank[0]]) + data[: max(L, K) - 1]
        verdict = shift_chain_by_letters(s, prefixed[:L], None, K, L, pair)
        m = extremal_factor_by_windows(factors, K, pair, want_max=False)
        results.append(PairInequality(pair, verdict, equality=(m == prefixed[:K])))
    return EpistandardReport(
        holds=all(r.verdict.holds for r in results),
        strict=all(r.equality for r in results),
        pairs=results,
        shift_bound=K,
        depth_bound=L,
        material=len(factors),
    )


def fine_by_order(t: InfiniteWord, K: int, material: int | None = None) -> BoundedVerdict:
    """fine_test recomputed: the first pair whose min-word, by a full factor scan, differs letter by letter
    from the first pair's after the first letter fails at that letter."""
    from .extremal import BoundedVerdict, _factor_material, _names, _pair_text, acceptable_pairs

    data = _factor_material(t, K, material, "--material")
    pairs = acceptable_pairs(t.alphabet)
    base = extremal_factor_by_windows(data, K, pairs[0], want_max=False)
    for pair in pairs[1:]:
        m = extremal_factor_by_windows(data, K, pair, want_max=False)
        for i in range(1, K):
            if m[i] != base[i]:
                witness = {
                    "pair_a": _pair_text(pairs[0], t.alphabet),
                    "pair_b": _pair_text(pair, t.alphabet),
                    "depth": i,
                    "expected": _names(t.alphabet, base[: i + 1]),
                    "found": _names(t.alphabet, m[: i + 1]),
                }
                return BoundedVerdict(False, None, K, witness=witness, detail={"material": len(data)})
    common_tail = _names(t.alphabet, base[1:21])
    return BoundedVerdict(True, None, K, detail={"material": len(data), "common_tail": common_tail})


def factor_windows_by_position(data: bytes, n: int) -> set[bytes]:
    """The distinct length-n windows of data, one slice per start position."""
    return {data[i : i + n] for i in range(len(data) - n + 1)}


def complexity_by_length(data: bytes, k_max: int) -> list[int]:
    """p(1..k_max) of the material, one set of distinct factors per length."""
    return [len(factor_windows_by_position(data, k)) for k in range(1, k_max + 1)]


def special_factors_by_window(data: bytes, n: int, side: str) -> set[bytes]:
    """The length-n factors of the material with two or more extensions on one side, one dict entry per window."""
    ext: dict[bytes, set[int]] = {}
    for f in (data[i : i + n + 1] for i in range(len(data) - n)):
        core = f[1:] if side == "left" else f[:-1]
        letter = f[0] if side == "left" else f[-1]
        ext.setdefault(core, set()).add(letter)
    return {core for core, letters in ext.items() if len(letters) >= 2}


def local_balance_by_length(
    t: InfiniteWord | FiniteWord, n_max: int, prefix_length: int | None = None
) -> BoundedVerdict:
    """local_balance_check recomputed from every window x.u.y of every length m + 2, m = 0..n_max.

    A factor u fails when no letter a gives {(x, y)} ⊆ {a} × A ∪ A × {a}, the pairs of auA ∪ Aua;
    the first failing u, by length and then in bytes order, is the witness.
    """
    from .extremal import BoundedVerdict, _names

    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    data = _material(t, prefix_length, 2000)
    if len(data) < n_max + 2:
        raise ValueError("material too short for the requested factor length")
    letters = range(t.alphabet.size)
    failing = []
    for m in range(n_max + 1):
        sides: dict[bytes, set[tuple[int, int]]] = {}
        for i in range(len(data) - m - 1):
            sides.setdefault(data[i + 1 : i + m + 1], set()).add((data[i], data[i + m + 1]))
        for u in sorted(sides):
            if not any(sides[u] <= {(a, y) for y in letters} | {(x, a) for x in letters} for a in letters):
                failing.append((u, sides[u]))
    detail = {"n_max": n_max, "material": len(data)}
    verdict = BoundedVerdict(True, None, None, detail=detail)
    if failing:
        u, pairs = failing[0]
        extensions = sorted(_names(t.alphabet, bytes([x])) + "_" + _names(t.alphabet, bytes([y])) for x, y in pairs)
        witness = {"factor": _names(t.alphabet, u), "extensions": extensions}
        verdict = BoundedVerdict(False, None, None, witness=witness, detail=detail)
    detail["palindromic_variant_holds"] = all(u != bytes(reversed(u)) for u, _ in failing)
    return verdict


def block_violation_by_length(data: bytes) -> bytes | None:
    """The block condition by one set of factors per length: some u with 0u0 and 1u1 both factors, or None."""
    for m in range(2, len(data) + 1):
        facs = {data[i : i + m] for i in range(len(data) - m + 1)}
        for f in facs:
            if f[0] == 0 and f[-1] == 0 and b"\x01" + f[1:-1] + b"\x01" in facs:
                return f[1:-1]
    return None


def balance_violation_by_length(data: bytes) -> tuple[bytes, bytes] | None:
    """analysis.balance_violation by one count array per length: the first least and greatest windows, or None."""
    # 4-byte ints: n + 1 Python ints would take about 36 bytes each
    pre = array("i", itertools.accumulate(data, initial=0))
    for length in range(1, len(data) + 1):
        counts = array("i", map(sub, itertools.islice(pre, length, None), pre))
        lo, hi = min(counts), max(counts)
        if hi - lo >= 2:
            i, j = counts.index(lo), counts.index(hi)
            return data[i : i + length], data[j : j + length]
    return None


def eventually_periodic_by_tails(data: bytes) -> tuple[bytes, bytes] | None:
    """analysis.classify_eventually_periodic by one backward scan per period: (u, v) before canonical form, or None."""
    n = len(data)
    for p in range(1, n // 3 + 1):
        a = 0
        for i in range(n - p - 1, -1, -1):
            if data[i] != data[i + p]:
                a = i + 1
                break
        tail = n - a
        if tail >= 3 * p and 2 * tail >= n:
            return data[:a], data[a : a + p]
    return None


def canonical_uv_by_letters(u: bytes, v: bytes) -> tuple[bytes, bytes]:
    """The canonical u v^omega: v cut to its primitive root, then one shared last letter of u moved into v per step."""
    m = len(v)
    v = v[: next(d for d in range(1, m + 1) if m % d == 0 and v[:d] * (m // d) == v)]
    while u and u[-1] == v[-1]:
        u, v = u[:-1], v[-1:] + v[:-1]
    return u, v


def smallest_period_by_shifts(data: bytes) -> int:
    """analysis.detect_period by one slice comparison per shift p: the least p with data[p:] == data[:n - p]."""
    return next(p for p in range(1, len(data) + 1) if data[p:] == data[: len(data) - p])


def finite_extremal_by_chain(w: FiniteWord, order: LexOrder, want_max: bool) -> FiniteWord:
    """min(w) (or max(w)): extend the least (greatest) length-k factor while each is a prefix of the next.

    Rescans the whole word once per prefix length.
    """
    prev = extremal_factor_by_windows(w.data, 1, order, want_max)
    k = 1
    while k < len(w):
        nxt = extremal_factor_by_windows(w.data, k + 1, order, want_max)
        if nxt[:k] != prev:
            break
        prev = nxt
        k += 1
    return FiniteWord(prev, w.alphabet)


def finite_episturmian_by_enumeration(w: FiniteWord) -> tuple[bool, FiniteWord | None]:
    """finite_episturmian_test recomputed: the first u of length max|m| - 1 with a.u <= m for every m."""
    if len(w) == 0:
        return True, FiniteWord(b"", w.alphabet)
    mins = []
    for order in itertools.permutations(range(w.alphabet.size)):
        mins.append((order.index, finite_extremal_by_chain(w, LexOrder(order), False).data))
    for u in itertools.product(range(w.alphabet.size), repeat=max(len(m) for _, m in mins) - 1):
        # a.u cut to |m| letters, in ranks (a ranks 0)
        if all([0, *map(rank, u[: len(m) - 1])] <= list(map(rank, m)) for rank, m in mins):
            return True, FiniteWord(bytes(u), w.alphabet)
    return False, None


def fractional_parts_by_shift(d: DigitExpansion, shifts: int, precision: int) -> list[RationalInterval]:
    """fractional_parts recomputed with a fresh numerator from ``precision`` digits per shift."""
    from fractions import Fraction

    from .modone import RationalInterval

    data = d.prefix_digits(shifts + precision - 1 if shifts else 0)
    scale = d.base**precision
    out = []
    for n in range(shifts):
        value = 0
        for digit in data[n : n + precision]:
            value = value * d.base + digit
        out.append(RationalInterval(Fraction(value, scale), Fraction(value + 1, scale)))
    return out


def covering_by_fractions(
    items: list[RationalInterval] | list[Fraction], circular: bool = True
) -> tuple[Fraction, RationalInterval]:
    """min_covering_interval recomputed on sorted Fraction pairs."""
    from fractions import Fraction

    from .modone import RationalInterval

    intervals = [
        (it.lo, it.hi) if isinstance(it, RationalInterval) else (Fraction(it), Fraction(it))
        for it in items
    ]
    if not intervals:
        raise ValueError("empty input")
    intervals.sort()
    if not circular:
        lo = min(a for a, _ in intervals)
        hi = max(b for _, b in intervals)
        return hi - lo, RationalInterval(lo, hi)
    # on the circle every point, and every interval's start, is a number in [0, 1)
    if any(not 0 <= a < 1 for a, _ in intervals):
        raise ValueError("points must lie in [0, 1)")
    n = len(intervals)
    best_gap = None
    best_start = 0
    max_hi = intervals[0][1]
    for i in range(n):
        nxt = i + 1
        if nxt < n:
            gap = intervals[nxt][0] - max_hi
            start = nxt
        else:
            gap = intervals[0][0] + 1 - max_hi
            start = 0
        if best_gap is None or gap > best_gap:
            best_gap, best_start = gap, start
        if nxt < n:
            max_hi = max(max_hi, intervals[nxt][1])
    if best_gap <= 0:
        return Fraction(1), RationalInterval(Fraction(0), Fraction(1))
    length = 1 - best_gap
    lo = intervals[best_start][0]
    return length, RationalInterval(lo, lo + length)


def digits_by_fractions(xi: Fraction, base: int, n: int) -> bytes:
    """The first n greedy base-b digits of xi in (0, 1), one Fraction multiply and floor per digit."""
    out = bytearray()
    x = xi
    for _ in range(n):
        x *= base
        d = int(x)  # 0 < x, floor
        out.append(d)
        x -= d
    return bytes(out)


def doubling_orbit_by_fractions(x: Fraction) -> list[Fraction]:
    """modone.gamma_tilde_orbit recomputed with one Fraction doubling mod 1 per point."""
    orbit = []
    seen = set()
    y = x - int(x)  # {x}; x = 1 maps to 0
    while y not in seen:
        _check_cap(len(orbit), "orbit point {}")
        seen.add(y)
        orbit.append(y)
        y = (2 * y) % 1
    return orbit


def gamma_tilde_by_fractions(x: Fraction) -> bool:
    """modone.gamma_tilde_member recomputed by comparing every Fraction orbit point with x and 1 - x."""
    from fractions import Fraction

    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError("x must lie in [0, 1]")
    return all(1 - x <= y <= x for y in doubling_orbit_by_fractions(x))


def thue_morse_constant_by_sum(n_terms: int) -> RationalInterval:
    """modone.thue_morse_constant recomputed as a sum of n_terms Fractions t_n / 2^n."""
    from fractions import Fraction

    from .generators import thue_morse
    from .modone import RationalInterval

    digits = thue_morse().prefix_bytes(n_terms)
    value = sum(Fraction(d, 2**n) for n, d in enumerate(digits))
    return RationalInterval(value, value + Fraction(2, 2**n_terms))
