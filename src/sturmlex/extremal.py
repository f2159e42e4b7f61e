"""Lexicographic extremal machinery: min/max factors and the bounded checks.

Universally quantified statements about infinite words are verified at
explicit bounds: a shift bound K (how many shifts are inspected), a depth
bound L (how deep each comparison goes), and, for min/max words, a material
length (how much prefix the factor scan sees).  Every verdict records its
bounds.  A comparison that stays equal through the horizon is never counted
as a violation, but it is recorded; equality claims are made only when the
extremal factor is attained inside the material.
"""

from __future__ import annotations

import itertools
from typing import Iterator

# analysis, generators and surds are imported where they are used, so a
# shift-chain check loads no factor analysis, and a check of a word with no
# slope no surds
from .words import (
    Alphabet,
    FiniteWord,
    InfiniteWord,
    LexOrder,
    UltimatelyPeriodicWord,
    _check_binary,
    _check_cap,
    _check_factor_length,
    _first_difference,
    _first_violation,
    _material,
    _rank_table,
    _Record,
    _SWAP,
    prepend,
)

__all__ = [
    "BoundedVerdict",
    "acceptable_pairs",
    "min_factor",
    "max_factor",
    "min_finite",
    "max_finite",
    "check_sturmian_extremal",
    "characteristic_check",
    "PairInequality",
    "EpistandardReport",
    "check_epistandard_ineq",
    "finite_episturmian_test",
    "not_balanced_witness",
    "fine_test",
    "local_balance_check",
    "gamma_membership",
    "allowed_pair_check",
    "sigma_xy_member",
    "gan_phi_approx",
    "GanCandidate",
    "default_material",
]

MAX_ORDER_ALPHABET = 8
# gan_phi_approx enumerates 2^P words; P = 12 takes about 0.15 s in process
MAX_PHI_DEPTH = 12


def default_material(k: int) -> int:
    """Material length used for length-k extremal factors when none is given."""
    return 8 * k + 256


def _factor_material(
    w: FiniteWord | InfiniteWord, k: int, given: int | None, option: str, name: str = "K"
) -> bytes:
    """The material for length-k factors: ``given`` letters, else default_material(k),
    whose refusal over the cap names k, the rule and the option that sets the material."""
    n = default_material(k)
    if given is None and not isinstance(w, FiniteWord):
        _check_cap(n, f"default material 8{name} + 256 = {{}} for {name} = {k}", f"; {option} sets the material")
    return _material(w, given, n)


def acceptable_pairs(alphabet: Alphabet) -> list[LexOrder]:
    """All |A|! acceptable pairs (a, <) of an alphabet (capped at size 8), each as its order <.

    The letter a of a pair is the least letter of its order, ``order.by_rank[0]``.
    """
    return list(_orders(alphabet))


def _orders(alphabet: Alphabet) -> Iterator[LexOrder]:
    """The orders of ``acceptable_pairs``, each built when it is reached."""
    if alphabet.size > MAX_ORDER_ALPHABET:
        raise ValueError(f"order enumeration capped at alphabet size {MAX_ORDER_ALPHABET}")
    return map(LexOrder, itertools.permutations(range(alphabet.size)))


def _pair_text(order: LexOrder, alphabet: Alphabet) -> str:
    """The pair (a, <) of an order as text, e.g. "(a, a<b<c)"."""
    return f"({alphabet.names[order.by_rank[0]]}, {order.text(alphabet)})"


class BoundedVerdict(_Record):
    """Outcome of a bounded check: holds, or fails with a reproducible witness.

    ``undecided`` counts comparisons that stayed equal through the depth
    horizon (treated as non-violations).
    """

    _fields = ("holds", "shift_bound", "depth_bound", "witness", "undecided", "detail")

    def __init__(
        self,
        holds: bool,
        shift_bound: int | None = None,
        depth_bound: int | None = None,
        witness: dict | None = None,
        undecided: int = 0,
        detail: dict | None = None,
    ):
        self.holds = holds
        self.shift_bound = shift_bound
        self.depth_bound = depth_bound
        self.witness = witness
        self.undecided = undecided
        self.detail = {} if detail is None else detail

    @property
    def status(self) -> str:
        return "holds" if self.holds else "fails"

    def to_obj(self) -> dict:
        obj = {"status": self.status, "K": self.shift_bound, "L": self.depth_bound}
        if self.undecided:
            obj["undecided"] = self.undecided
        if self.witness is not None:
            obj["witness"] = self.witness
        if self.detail:
            obj["detail"] = self.detail
        return obj


# ---------------------------------------------------------------------------
# extremal factors


def _ranked(data: bytes, order: LexOrder, want_max: bool) -> bytes:
    """data as ranks under the order, reversed for max so that the greatest letter ranks least."""
    return data.translate(_rank_table(order.by_rank[::-1] if want_max else order.by_rank))


def _extremal_bytes(data: bytes, k: int, order: LexOrder, want_max: bool) -> bytes:
    """The least (greatest) length-k factor of data under the order: the k-prefix of the least long enough suffix."""
    from .analysis import _least_suffix

    _check_factor_length(data, k)
    p = _least_suffix(_ranked(data, order, want_max), len(data) - k)
    return data[p : p + k]


def _extremal_factor(w, k: int, order: LexOrder | None, prefix_length: int | None, want_max: bool):
    if isinstance(w, UltimatelyPeriodicWord):
        # every factor of u v^w occurs inside u v . first k-1 letters of v^w
        data = _material(w, prefix_length, len(w.preperiod) + len(w.period) + k - 1)
    else:
        data = _factor_material(w, k, prefix_length, "--prefix", "k")
    order = order or LexOrder.natural(w.alphabet.size)
    return FiniteWord(_extremal_bytes(data, k, order, want_max), w.alphabet)


def min_factor(
    w: FiniteWord | InfiniteWord,
    k: int,
    order: LexOrder | None = None,
    prefix_length: int | None = None,
) -> FiniteWord:
    """Lexicographically smallest length-k factor of the material.

    For an infinite word w it is the length-k prefix of min(w), the least
    infinite word whose prefixes are all factors of w, when the material
    holds the least length-k factor of w.
    """
    return _extremal_factor(w, k, order, prefix_length, want_max=False)


def max_factor(
    w: FiniteWord | InfiniteWord,
    k: int,
    order: LexOrder | None = None,
    prefix_length: int | None = None,
) -> FiniteWord:
    """Lexicographically greatest length-k factor of the material; dually, the length-k prefix of max(w)."""
    return _extremal_factor(w, k, order, prefix_length, want_max=True)


def min_finite(w: FiniteWord, order: LexOrder | None = None) -> FiniteWord:
    """min(w) for finite w: min(w|k) for the largest k keeping the chain of prefixes."""
    return _finite_extremal(w, order, want_max=False)


def max_finite(w: FiniteWord, order: LexOrder | None = None) -> FiniteWord:
    """max(w) for finite binary w, dual to min_finite: the max(w) of the paper's balance criterion."""
    _check_binary(w=w)
    return _finite_extremal(w, order, want_max=True)


def _finite_extremal(w: FiniteWord, order: LexOrder | None, want_max: bool) -> FiniteWord:
    """min(w) or max(w) as one suffix of w, in linear time.

    The least length-k factors form a chain of prefixes exactly up to the
    length of the least suffix of w when a suffix ranks above its own
    extensions, as it does with a sentinel above every rank; max(w) is the
    same under the reversed ranks.
    """
    from .analysis import _least_suffix

    if len(w) == 0:
        raise ValueError(f"{'max' if want_max else 'min'} of the empty word is undefined")
    order = order or LexOrder.natural(w.alphabet.size)
    p = _least_suffix(_ranked(w.data, order, want_max) + b"\xff", len(w) - 1)
    return FiniteWord(w.data[p:], w.alphabet)


# ---------------------------------------------------------------------------
# shift-inequality checks


def _names(alphabet: Alphabet, data: bytes) -> str:
    return "".join(alphabet.names[c] for c in data)


def _check_bounds(K: int, L: int, **words: InfiniteWord) -> None:
    """Refuse the first of ``words`` (named by its keyword) that is not binary, then K < 0 or L < 1."""
    _check_binary(**words)
    if K < 0 or L < 1:
        raise ValueError("bounds must be positive (K >= 0 shifts, L >= 1 depth)")


def _shift_witness(alphabet: Alphabet, data: bytes, k: int, name: str, bound: bytes, depth: int) -> dict:
    """The witness of T^k(data) first leaving ``bound`` (named lower or upper) at index ``depth``."""
    expected, found = _names(alphabet, bound[: depth + 1]), _names(alphabet, data[k : k + depth + 1])
    return {"shift": k, "bound": name, "depth": depth, "expected": expected, "found": found}


def _shift_chain_check(s: InfiniteWord, lower: bytes, upper: bytes, K: int, L: int) -> BoundedVerdict:
    """Verify lower <= T^k(s) <= upper for all k <= K at comparison depth L, letters in their natural order.

    Each bound has L letters, and the callers check K and L.  Each shift costs
    one slice comparison per bound (``words._first_violation``), and the depth of
    the first difference is found for a witness only.
    ``oracle.shift_chain_by_letters`` is the reference.
    """
    data = s.prefix_bytes(K + L)
    found, undecided = _first_violation(data, lower, upper, K, L)
    if found is None:
        return BoundedVerdict(True, K, L, undecided=undecided)
    k, name = found
    bound = lower if name == "lower" else upper
    depth = _first_difference(data[k : k + L], bound)
    return BoundedVerdict(False, K, L, witness=_shift_witness(s.alphabet, data, k, name, bound, depth))


def check_sturmian_extremal(s: InfiniteWord, u: InfiniteWord, K: int, L: int) -> BoundedVerdict:
    """Bounded check of 0u <= T^k(s) <= 1u for all k <= K at depth L (binary)."""
    _check_bounds(K, L, s=s, u=u)
    up = u.prefix_bytes(L - 1)
    return _shift_chain_check(s, b"\x00" + up, b"\x01" + up, K, L)


def characteristic_check(s: InfiniteWord, K: int, L: int) -> BoundedVerdict:
    """Bounded check of a.s <= T^k(s) <= b.s for all k <= K at depth L (binary)."""
    return check_sturmian_extremal(s, s, K, L)


class PairInequality(_Record):
    _fields = ("pair", "verdict", "equality")

    def __init__(self, pair: LexOrder, verdict: BoundedVerdict, equality: bool):
        self.pair = pair
        self.verdict = verdict
        self.equality = equality

    def to_obj(self, alphabet: Alphabet) -> dict:
        obj = {"pair": _pair_text(self.pair, alphabet), "equality": self.equality}
        obj.update(self.verdict.to_obj())
        return obj


class EpistandardReport(_Record):
    """Per-pair verdicts on a.s <= min(s), with equality-attainment flags.

    ``strict`` is True when equality is attained for every pair inside the
    material, the observable trace of a strict (Arnoux-Rauzy) standard word.
    """

    _fields = ("holds", "strict", "pairs", "shift_bound", "depth_bound", "material")

    def __init__(
        self,
        holds: bool,
        strict: bool,
        pairs: list[PairInequality],
        shift_bound: int,
        depth_bound: int,
        material: int,
    ):
        self.holds = holds
        self.strict = strict
        self.pairs = pairs
        self.shift_bound = shift_bound
        self.depth_bound = depth_bound
        self.material = material

    def to_obj(self, alphabet: Alphabet) -> dict:
        return {
            "status": "holds" if self.holds else "fails",
            "strict": self.strict,
            "K": self.shift_bound,
            "L": self.depth_bound,
            "material": self.material,
            "pairs": [p.to_obj(alphabet) for p in self.pairs],
        }


def _first_differences(data: bytes, bound: bytes, windows: int) -> tuple[list[int], list[dict]]:
    """Where the tail of each window first differs from ``bound``, keyed by the window's first letter.

    Window k < ``windows`` has lead data[k] and tail data[k+1 : k+1+len(bound)];
    ``data`` holds every tail in full.  Returns, indexed by lead, the number of
    tails equal to ``bound``, and a dict from each (found, expected) letter pair
    met at a first difference to the earliest window k and the index d of that
    difference in its tail.  No order enters: under an order, a tail compares
    less than ``bound`` exactly when its found letter ranks below the expected one.

    Each d is read off the Z-array of bound . sentinel . data at the tail's
    start; the sentinel is never a letter, so d stops at len(bound).
    """
    from .analysis import _z_array

    depth = len(bound)
    z = _z_array(bound + b"\xff" + data[: windows + depth])
    ties = [0] * 256
    first: list[dict[tuple[int, int], tuple[int, int]]] = [{} for _ in range(256)]
    for k in range(windows):
        d = z[depth + 2 + k]
        if d == depth:
            ties[data[k]] += 1
        else:
            first[data[k]].setdefault((data[k + 1 + d], bound[d]), (k, d))
    return ties, first


def _earliest_below(first: dict[tuple[int, int], tuple[int, int]], rank) -> tuple[int, int] | None:
    """The earliest (k, d) of a ``_first_differences`` entry whose found letter ``rank`` puts below the expected one."""
    return min((kd for (f, e), kd in first.items() if rank(f) < rank(e)), default=None)


def check_epistandard_ineq(
    s: InfiniteWord, K: int, L: int, material: int | None = None
) -> EpistandardReport:
    """Bounded check of a.s <= T^k(s) for every acceptable pair (a, <).

    The inequality itself is verified shift by shift (k <= K, depth L).  The
    equality flag per pair reports whether the minimal length-K factor seen in
    the material equals (a.s) truncated to K letters, i.e. whether the
    infimum is attained by the material.

    Under a pair (a, <) the letter a ranks lowest, so a window that does not
    begin with a never falls below a.s, and a.x compares with a.s exactly as x
    compares with s.  So every order reads two tables of window tails against
    a prefix of s (``_first_differences``): the K+1 shifts at depth L-1, and
    the material's length-K windows at depth K-1.  A pair fails at the
    earliest shift behind a whose tail its order ranks below s; equality holds
    when some window is (a.s) truncated and no tail behind a ranks below it.
    ``oracle.epistandard_ineq_by_order`` is the per-order reference.
    """
    pairs = acceptable_pairs(s.alphabet)
    _check_bounds(K, L)
    factors = _factor_material(s, K, material, "--material")
    data = s.prefix_bytes(max(len(factors), K + L))
    _check_factor_length(factors, K)
    shift_ties, shift_first = _first_differences(data, data[: L - 1], K + 1)
    head_ties, head_first = _first_differences(factors, data[: K - 1], len(factors) - K + 1)
    results = []
    for pair in pairs:
        a, rank = pair.by_rank[0], pair.by_rank.index
        fail = _earliest_below(shift_first[a], rank)
        if fail is None:
            verdict = BoundedVerdict(True, K, L, undecided=shift_ties[a])
        else:
            k, d = fail
            witness = _shift_witness(s.alphabet, data, k, "lower", bytes([a]) + data[: L - 1], d + 1)
            verdict = BoundedVerdict(False, K, L, witness=witness)
        equality = head_ties[a] > 0 and _earliest_below(head_first[a], rank) is None
        results.append(PairInequality(pair, verdict, equality))
    return EpistandardReport(
        holds=all(r.verdict.holds for r in results),
        strict=all(r.equality for r in results),
        pairs=results,
        shift_bound=K,
        depth_bound=L,
        material=len(factors),
    )


# ---------------------------------------------------------------------------
# finite-word characterizations


def finite_episturmian_test(w: FiniteWord) -> tuple[bool, FiniteWord | None]:
    """Decide whether some word u satisfies a.u_{|m|-1} <= m for every acceptable pair.

    Here m = min(w) under the pair's order, so u is bounded by m[1:].  One
    greedy pass builds u and keeps the orders whose bound u still equals; an
    order whose bound u falls below, or runs past, holds for every longer u
    and is dropped.  Each letter of u is the least one that every kept order
    allows, and the pass returns (False, None) at the first position where no
    letter is allowed; else (True, u).  ``oracle.finite_episturmian_by_enumeration``
    is the reference, verdict and least certificate alike.

    A dead end is final.  Say it comes after u with kept orders T.  For p in
    T let a_p be the p-least letter of w and b_p the bound letter after u:
    a_p.u.b_p is a prefix of min_p(w), a suffix of w, so a factor of w.  The
    dead end says every letter c has some p in T with c >_p b_p >=_p a_p, so
    c is neither end of that factor, and no letter c has
    AuA ∩ F(w) ⊆ cuA ∪ Auc.  But every factor u of an episturmian word has
    such a letter.  w is a factor of an epistandard t = L_a(t'), with
    L_a: a -> a, b -> ab, and in t every letter other than a is preceded and
    followed by a.  So c = a serves when u is empty, or starts or ends with a
    letter other than a.  Otherwise u = L_a(v).a, and x.u.y is a factor of t
    iff x.v.y is a factor of t', so induction on |u| gives c.  A dead end
    therefore proves w is not episturmian, and by the criterion no
    certificate exists.  When one exists, each letter the pass takes is the
    least that any certificate could have there, so u is the least one.
    """
    if len(w) == 0:
        return True, FiniteWord(b"", w.alphabet)
    bounds = [(p.table, min_finite(w, p).data[1:].translate(p.table)) for p in acceptable_pairs(w.alphabet)]
    u: list[int] = []
    tight = [(rank, m) for rank, m in bounds if m]
    for i in range(max(len(m) for _, m in bounds)):
        for letter in range(w.alphabet.size):
            nxt = []
            for rank, m in tight:
                if rank[letter] > m[i]:
                    break
                if rank[letter] == m[i] and i + 1 < len(m):
                    nxt.append((rank, m))
            else:
                tight = nxt
                u.append(letter)
                break
        else:
            return False, None
    return True, FiniteWord(u, w.alphabet)


def not_balanced_witness(w: FiniteWord) -> FiniteWord | None:
    """The word u with aua a prefix of min(w) and bub a prefix of max(w), if any.

    The paper's criterion: a finite binary word w is unbalanced iff such a u exists.
    """
    from .analysis import _unbalanced_core

    _check_binary(w=w)
    u = _unbalanced_core(w.data)
    return None if u is None else FiniteWord(u, w.alphabet)


# ---------------------------------------------------------------------------
# fine words and local balance


def fine_test(t: InfiniteWord, K: int, material: int | None = None) -> BoundedVerdict:
    """Check that the min-words of all acceptable pairs agree after their first letter.

    Min-words are length-K extremal factors of the material.  The least one
    under an order is c.x, with c the order's lowest-ranked letter leading a
    window and x the least tail behind c.  So with b.t the first pair's
    min-word, another pair agrees iff some window c.t occurs and no tail behind
    c first differs from t at a letter its order ranks lower: one table of
    tails against t (``_first_differences``) decides every order.  A pair that
    disagrees has a least tail that differs from t inside the K-1 letters, a
    definitive failure, witnessed by one more scan; agreement holds at the
    recorded bounds.  ``oracle.fine_by_order`` is the per-order reference.
    """
    data = _factor_material(t, K, material, "--material")
    orders = _orders(t.alphabet)
    base_pair = next(orders)
    base = _extremal_bytes(data, K, base_pair, want_max=False)
    windows = len(data) - K + 1
    ties, first = _first_differences(data, base[1:], windows)
    leads = set(data[:windows])
    for pair in orders:
        rank = pair.by_rank.index
        c = min(leads, key=rank)
        if not ties[c] or _earliest_below(first[c], rank) is not None:
            m = _extremal_bytes(data, K, pair, want_max=False)
            i = 1 + _first_difference(m[1:], base[1:])
            witness = {
                "pair_a": _pair_text(base_pair, t.alphabet),
                "pair_b": _pair_text(pair, t.alphabet),
                "depth": i,
                "expected": _names(t.alphabet, base[: i + 1]),
                "found": _names(t.alphabet, m[: i + 1]),
            }
            return BoundedVerdict(False, None, K, witness=witness, detail={"material": len(data)})
    common_tail = _names(t.alphabet, base[1:21])
    return BoundedVerdict(True, None, K, detail={"material": len(data), "common_tail": common_tail})


def local_balance_check(
    t: InfiniteWord | FiniteWord, n_max: int, prefix_length: int | None = None
) -> BoundedVerdict:
    """Check that each factor u (|u| <= n_max) admits a letter a with AuA ⊆ auA ∪ Aua.

    Also records whether the weaker palindromic-factors-only variant holds.
    The distinct length-(m+2) factors are the (m+2)-prefixes of one key set
    (``analysis._factor_keys``), so the material is sliced once, not once per m.
    ``oracle.local_balance_by_length`` is the per-window reference.
    """
    from .analysis import _factor_keys

    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    data = _material(t, prefix_length, 2000)
    if len(data) < n_max + 2:
        raise ValueError("material too short for the requested factor length")
    keys = _factor_keys(data, n_max + 2)
    alphabet = t.alphabet
    detail = {"n_max": n_max, "material": len(data)}
    palindromic_ok = True
    verdict = None
    for m in range(n_max + 1):
        ext: dict[bytes, set[tuple[int, int]]] = {}
        for window in {key[: m + 2] for key in keys if len(key) >= m + 2}:
            ext.setdefault(window[1:-1], set()).add((window[0], window[-1]))
        for u, sides in sorted(ext.items()):
            if not any(all(x == a or y == a for x, y in sides) for a in range(alphabet.size)):
                if verdict is None:
                    extensions = sorted(f"{alphabet.names[x]}_{alphabet.names[y]}" for x, y in sides)
                    witness = {"factor": _names(alphabet, u), "extensions": extensions}
                    verdict = BoundedVerdict(False, None, None, witness=witness, detail=detail)
                if u == u[::-1]:
                    palindromic_ok = False
    detail["palindromic_variant_holds"] = palindromic_ok
    return BoundedVerdict(True, None, None, detail=detail) if verdict is None else verdict


# ---------------------------------------------------------------------------
# Gamma, allowed pairs, and the lexicographic world


def gamma_membership(u: InfiniteWord, K: int, L: int) -> BoundedVerdict:
    """Bounded check of complement(u) <= T^k(u) <= u for all k <= K at depth L."""
    _check_bounds(K, L, u=u)
    data = u.prefix_bytes(L)
    return _shift_chain_check(u, data.translate(_SWAP), data, K, L)


def allowed_pair_check(r: InfiniteWord, s: InfiniteWord, K: int, L: int) -> BoundedVerdict:
    """Bounded check of r <= T^i(r) < s and r < T^i(s) <= s for all i <= K.

    A shift that equals r or s through depth L is undecided on the strict
    side too: equality of infinite words is never proven at a finite depth.
    So each word is checked with the non-strict bounds r <= T^i(.) <= s.
    """
    _check_bounds(K, L, r=r, s=s)
    rp = r.prefix_bytes(L)
    sp = s.prefix_bytes(L)
    if rp == sp:
        raise ValueError("allowed pairs must be distinct (equal through the depth bound)")
    undecided = 0
    for source in (r, s):
        verdict = _shift_chain_check(source, rp, sp, K, L)
        if not verdict.holds:
            w = verdict.witness
            return BoundedVerdict(
                False,
                K,
                L,
                witness={"word": source.recipe, "shift": w["shift"], "bound": w["bound"], "depth": w["depth"]},
            )
        undecided += verdict.undecided
    return BoundedVerdict(True, K, L, undecided=undecided)


def sigma_xy_member(
    s: InfiniteWord, x: InfiniteWord, y: InfiniteWord, K: int, L: int
) -> BoundedVerdict:
    """Bounded membership of s in the set of words with x <= T^i(s) <= y for all i."""
    _check_bounds(K, L, s=s, x=x, y=y)
    return _shift_chain_check(s, x.prefix_bytes(L), y.prefix_bytes(L), K, L)


class GanCandidate(_Record):
    """Result of the bounded search for the least upper companion of x."""

    _fields = ("word", "label", "searched")

    def __init__(self, word: InfiniteWord | None, label: str, searched: int):
        self.word = word
        self.label = label
        self.searched = searched

    def to_obj(self) -> dict:
        return {
            "candidate": None if self.word is None else self.word.recipe,
            "label": self.label,
            "searched": self.searched,
        }


def _characteristic_roster() -> list[InfiniteWord]:
    from .generators import characteristic, fibonacci_slope
    from .surds import QuadraticSurd

    slopes = [
        fibonacci_slope(),                 # (3-sqrt(5))/2
        QuadraticSurd(-1, 1, 5, 2),        # (sqrt(5)-1)/2
        QuadraticSurd(2, -1, 2, 2),        # (2-sqrt(2))/2
        QuadraticSurd(-1, 1, 2, 1),        # sqrt(2)-1
        QuadraticSurd(-1, 1, 3, 2),        # (sqrt(3)-1)/2
        QuadraticSurd(2, -1, 3, 1),        # 2-sqrt(3)
    ]
    return [characteristic(a) for a in slopes]


def gan_phi_approx(
    x: InfiniteWord,
    P: int,
    K: int,
    L: int,
) -> GanCandidate:
    """Bounded search for the least shift-maximal companion word of x.

    When x begins with 1 the answer is 1^w.  Otherwise, writing x = 0u, the
    candidates are 1.c for the roster of characteristic words together with
    the shift-maximal rotations of the periodic balanced words (Pal(v)xy)^w
    with |v| <= P, which for xy = 01 and xy = 10 alike are the upper
    Christoffel words (1.Pal(v).0)^w; the lexicographically least candidate
    satisfying x <= T^i(s) <= 1u at the bounds is returned.  Every candidate
    is its own greatest shift (each shift of c lies below 1c, and 1.Pal(v).0
    is the greatest of its conjugates), so T^i(s) <= s needs no check.
    This is a candidate at bounds (P, K, L), never an exact infimum.
    """
    from .generators import iterated_pal

    _check_bounds(K, L, x=x)
    if not 0 <= P <= MAX_PHI_DEPTH:
        raise ValueError(f"P must be between 0 and {MAX_PHI_DEPTH}, got {P}")
    label = f"candidate at bounds (P={P}, K={K}, L={L})"
    alphabet = x.alphabet
    if x.letter(0) == 1:
        ones = UltimatelyPeriodicWord.purely_periodic(FiniteWord(b"\x01", alphabet))
        return GanCandidate(ones, label, searched=0)
    lower = x.prefix_bytes(L)
    upper = b"\x01" + lower[1:]

    # one candidate per L-letter prefix, the first one built; a periodic one is kept as its period until checked
    candidates: dict[bytes, InfiniteWord | bytes] = {}
    for c in _characteristic_roster():
        w = prepend(FiniteWord(b"\x01", alphabet), c)
        candidates.setdefault(w.prefix_bytes(L), w)
    for n in range(0, P + 1):
        for bits in itertools.product((0, 1), repeat=n):
            v = b"\x01" + iterated_pal(FiniteWord(bits, alphabet)).data + b"\x00"
            candidates.setdefault((v * (L // len(v) + 1))[:L], v)

    for key in sorted(candidates):
        if key > upper:  # fails at shift 0, as every later key does
            break
        w = candidates[key]
        if isinstance(w, bytes):
            w = UltimatelyPeriodicWord.purely_periodic(FiniteWord(w, alphabet))
        if _shift_chain_check(w, lower, upper, K, L).holds:
            return GanCandidate(w, label, searched=len(candidates))
    return GanCandidate(None, label, searched=len(candidates))
