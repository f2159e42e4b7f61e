"""Factor analysis of the material of a word: factors, complexity, balance, comparisons, periods.

The material is a finite word whole or a prefix of an infinite word of the
caller's length (``words._material``), so every answer about an infinite word
is a claim about that prefix.  Three kernels on byte strings serve the rest:
Duval's Lyndon factorization for least suffixes (balance, the block
condition, and the extremal factors of ``sturmlex.extremal``), one Z-array
for periods, and an early-exit loop over the shifts of a shift-chain check.
"""

from __future__ import annotations

from collections import Counter

from .words import (
    _SWAP,
    Alphabet,
    ComparisonOutcome,
    FiniteWord,
    InfiniteWord,
    LexOrder,
    Relation,
    UltimatelyPeriodicWord,
    _first_difference,
    _material,
)

__all__ = [
    "factors",
    "complexity",
    "special_factors",
    "is_balanced",
    "balance_violation",
    "block_condition",
    "lex_compare",
    "detect_period",
    "classify_eventually_periodic",
]

# Length at which Duval's loop checks if an equal run goes on as far again, and then finishes it in C.
_RUN = 16
# Letters per chunk of `_factor_bytes`: only the windows of the distinct chunks are sliced.
_CHUNK = 64


def factors(w: FiniteWord | InfiniteWord, n: int, prefix_length: int | None = None) -> set[FiniteWord]:
    """The set of distinct length-n factors of the supplied material."""
    if n < 1:
        raise ValueError("factor length must be positive")
    data = _material(w, prefix_length)
    if n > len(data):
        raise ValueError(f"factor length {n} exceeds available material {len(data)}")
    alphabet = w.alphabet
    return {FiniteWord(f, alphabet) for f in _factor_bytes(data, n)}


def _factor_bytes(data: bytes, n: int) -> set[bytes]:
    """The distinct length-n windows of data: the window at i lies in the chunk at i - i % _CHUNK."""
    chunks = {data[i : i + _CHUNK - 1 + n] for i in range(0, len(data) - n + 1, _CHUNK)}
    return {c[j : j + n] for c in chunks for j in range(len(c) - n + 1)}


def _factor_keys(data: bytes, k: int) -> set[bytes]:
    """The distinct length-k factors of data and its k - 1 shorter suffixes (1 <= k <= len(data)).

    Every factor of length j <= k occurs as the j-prefix of some key: an
    occurrence starting at i is a prefix of data[i:i+k], which is a window
    or, near the end, a suffix.
    """
    keys = _factor_bytes(data, k)
    keys.update(data[len(data) - j :] for j in range(1, k))
    return keys


def complexity(w: FiniteWord | InfiniteWord, k_max: int, prefix_length: int | None = None) -> list[int]:
    """Factor-counting function p(1..k_max) of the supplied material.

    For infinite words this is computed on the prefix of the given length and
    is a lower bound of the true complexity unless the prefix is long enough
    for p(k) to have stabilized.

    One sorted set holds the distinct length-k_max factors and the k_max - 1
    shorter suffixes of the material; every length-k factor is the k-prefix of
    exactly one run of adjacent keys sharing a prefix of length >= k, so
    p(k) = |keys| - (k - 1) - #{adjacent pairs with common prefix >= k}.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be positive, got {k_max}")
    data = _material(w, prefix_length)
    n = len(data)
    if k_max > n:
        raise ValueError("k_max exceeds available material")
    keys = sorted(_factor_keys(data, k_max))
    # the longest common prefix of neighbours, from the top set bit of their
    # XOR on zero-padded big-endian ints; padding can only lengthen a match
    # past a short key, which sorts first when it is a prefix of its neighbour
    vals = [int.from_bytes(key, "big") << (8 * (k_max - len(key))) for key in keys]
    at_least = [0] * (k_max + 1)
    for key, x, y in zip(keys, vals, vals[1:]):
        lcp = k_max - ((x ^ y).bit_length() + 7) // 8
        at_least[min(lcp, len(key))] += 1
    for k in range(k_max - 1, -1, -1):
        at_least[k] += at_least[k + 1]
    return [len(keys) - (k - 1) - at_least[k] for k in range(1, k_max + 1)]


def special_factors(
    w: FiniteWord | InfiniteWord,
    n: int,
    side: str = "left",
    prefix_length: int | None = None,
) -> set[FiniteWord]:
    """Length-n factors with >= 2 distinct one-letter extensions on the given side."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    data = _material(w, prefix_length)
    if n < 0:
        raise ValueError(f"factor length must be non-negative, got {n}")
    if n + 1 > len(data):
        raise ValueError("material too short to witness extensions")
    # distinct windows sharing a core differ in the extension letter, so a
    # core is special iff two distinct windows have it
    windows = _factor_bytes(data, n + 1)
    cores = Counter(f[1:] for f in windows) if side == "left" else Counter(f[:-1] for f in windows)
    return {FiniteWord(core, w.alphabet) for core, count in cores.items() if count >= 2}


def balance_violation(
    w: FiniteWord | InfiniteWord, prefix_length: int | None = None
) -> tuple[FiniteWord, FiniteWord] | None:
    """The first least- and greatest-count windows of the shortest violating length, or None when balanced.

    They are 0u0 and 1u1 for the u of ``_unbalanced_core``.  At the shortest
    violating length every least-count window is 0u0 and every greatest-count
    window 1u1, for one u: a first or last place where two such middles differ
    would give a shorter violation.  And the kernel's u has that length, since
    min(w) begins at or below 0u'0 and max(w) at or above 1u'1 for every
    violating u', so a u longer than u' would begin with a word
    at least u'1 and at most u'0.
    """
    u = _unbalanced_core(_binary_material(w, prefix_length))
    if u is None:
        return None
    return FiniteWord(b"\x00" + u + b"\x00", w.alphabet), FiniteWord(b"\x01" + u + b"\x01", w.alphabet)


def is_balanced(w: FiniteWord | InfiniteWord, prefix_length: int | None = None) -> bool:
    return _unbalanced_core(_binary_material(w, prefix_length)) is None


def _binary_material(w: FiniteWord | InfiniteWord, prefix_length: int | None, what: str = "balance") -> bytes:
    data = _material(w, prefix_length)
    if w.alphabet.size != 2:
        raise ValueError(f"{what} is defined for binary alphabets only")
    return data


def block_condition(w: FiniteWord | InfiniteWord, prefix_length: int | None = None) -> bool:
    """True iff no word u has both 0u0 and 1u1 among the material's factors."""
    return _unbalanced_core(_binary_material(w, prefix_length, "the block condition")) is None


def _unbalanced_core(data: bytes) -> bytes | None:
    """The word u with 0u0 a prefix of min(w) and 1u1 a prefix of max(w), or None, for binary data w.

    Such a u exists iff w is unbalanced, and then 0u0 and 1u1 are factors of
    w, which is the block condition (Lothaire, Algebraic Combinatorics on
    Words, ch. 2).  min(w) is the least suffix of w and a sentinel above both
    letters, max(w) the same with 0 and 1 swapped; the two agree after their
    first letter up to index c, so a shorter u is followed by equal letters in
    both, and a longer u differs.
    """
    if not data:
        return None
    view = memoryview(data)  # slices share data's buffer
    last = len(data) - 1
    m = view[_least_suffix(data + b"\xff", last) :]
    x = view[_least_suffix(data.translate(_SWAP) + b"\xff", last) :]
    c = _first_difference(m[1:], x[1:])
    if c < min(len(m), len(x)) - 1 and (m[0], m[c + 1], x[0], x[c + 1]) == (0, 0, 1, 1):
        return bytes(m[1 : c + 1])
    return None


def _least_suffix(s: bytes, last: int) -> int:
    """Start of the least suffix of s starting at or before last: the last Lyndon factor starting there or earlier.

    Duval's factorization (Lothaire, Combinatorics on Words, ch. 5), O(len(s)), stopped past last; an equal
    run of _RUN letters whose next _RUN letters agree too is finished by one `_common_run`.
    """
    n = len(s)
    i = 0
    while True:
        j, k, t = i + 1, i, i + _RUN
        while True:
            for j in range(j, n):
                a, b = s[k], s[j]
                if a == b:
                    k += 1
                    if k == t and s[k : k + _RUN] == s[j + 1 : j + 1 + _RUN]:
                        break
                elif a < b:
                    k = i
                else:
                    t = 0  # s[k] > s[j] ends the scan
                    break
            else:
                j = n
                break
            if not t:
                break
            r = _common_run(s, k, j + 1)
            k += r
            j += r + 1
        # factors of length p start at i, i + p, ... up to k
        p = j - k
        nxt = i + ((k - i) // p + 1) * p
        if nxt > last:
            return i + (min(k, last) - i) // p * p
        i = nxt


def _common_run(s: bytes, k: int, j: int) -> int:
    """Length of the common prefix of s[k:] and s[j:] for k < j, in windows doubling up to 64 KB."""
    start, w = j, 8 * _RUN
    while True:
        x, y = s[k : k + w], s[j : j + w]
        if x != y:
            return j - start + _first_difference(x, y)
        k, j, w = k + w, j + w, min(2 * w, 1 << 16)


def _first_violation(data: bytes, lo: bytes, hi: bytes, K: int, L: int) -> tuple[tuple[int, str] | None, int]:
    """Where a shift first leaves its bounds: ((k, "lower" or "upper") or None, ties met before k).

    k is the least shift <= K with data[k:k+L] < lo or > hi, the lower bound checked first.  data holds
    K + L letters or more and each bound L, compared raw: bytes order is then the depth-L comparison,
    and equality a tie through depth L, undecided and never a violation.
    """
    undecided = 0
    for k in range(K + 1):
        seg = data[k : k + L]
        if seg < lo:
            return (k, "lower"), undecided
        if seg > hi:
            return (k, "upper"), undecided
        undecided += (seg == lo) + (seg == hi)
    return None, undecided


def lex_compare(
    u: FiniteWord | InfiniteWord,
    v: FiniteWord | InfiniteWord,
    order: LexOrder | None = None,
    depth: int | None = None,
) -> ComparisonOutcome:
    """Depth-bounded lexicographic comparison of two words.

    Both words must supply ``depth`` letters, and are read that far: depth
    cuts finite words too (shorter ones are rejected; omit depth to use their
    common length).
    """
    if depth is None:
        if isinstance(u, InfiniteWord) or isinstance(v, InfiniteWord):
            raise ValueError("a comparison depth is required for infinite words")
        depth = min(len(u), len(v))
    ud, vd = _material(u, depth)[:depth], _material(v, depth)[:depth]
    if len(ud) < depth or len(vd) < depth:
        raise ValueError("both words must supply prefixes of the requested depth")
    if order is None:
        order = LexOrder.natural(max(u.alphabet.size, v.alphabet.size))
    t = order.table
    x, y = ud.translate(t), vd.translate(t)
    i = _first_difference(x, y)
    if i == depth:
        return ComparisonOutcome(Relation.EQUAL_THROUGH_DEPTH, depth)
    return ComparisonOutcome(Relation.LESS if x[i] < y[i] else Relation.GREATER, i)


def _z_array(s: bytes) -> memoryview:
    """z[i], i <= len(s), is the length of the common prefix of s and s[i:] (Gusfield's Z-array, O(len(s))).

    Inside the box [l, r) of the last match z is read from the box; a position reaching r
    compares letters one by one; after _RUN equal ones it extends by `_common_run`.
    """
    n = len(s)
    z = memoryview(bytearray(4 * n + 4)).cast("i")  # 4-byte ints, z[n] = 0
    z[0] = n
    l = r = 0
    for i in range(1, n):
        j = i
        if i < r:
            k = z[i - l]
            if k < r - i:
                z[i] = k
                continue
            j = r
        t = j + _RUN
        while j < n and s[j - i] == s[j]:
            j += 1
            if j == t:
                j += _common_run(s, j - i, j)
                break
        l, r = i, j
        z[i] = j - i
    return z


def _periods(data: bytes, alphabet: Alphabet) -> tuple[int, UltimatelyPeriodicWord | None]:
    """Smallest period of data and the `classify_eventually_periodic` certificate, off one Z-array.

    With z that of data reversed, the longest tail of period p starts at a = n - p - z[p]: p is a period
    iff a = 0 and certifies iff a <= n - max(3p, ceil(n/2)), as any period p <= n/3 does.
    """
    n = len(data)
    if n == 0:
        raise ValueError("empty material")
    z, half = _z_array(data[::-1]), (n + 1) // 2
    c = next((p for p in range(1, n // 3 + 1) if z[p] + p >= half and z[p] >= 2 * p), 0)
    if not c:
        return next((p for p in range(n // 3 + 1, n) if z[p] + p == n), n), None
    # a > 0: a period p <= z[c] would give the tail period gcd(p, c) (Fine-Wilf) and extend it past a
    a = n - c - z[c]
    period = next((p for p in range(z[c] + 1, n) if z[p] + p == n), n) if a else c
    return period, UltimatelyPeriodicWord(FiniteWord(data[:a], alphabet), FiniteWord(data[a : a + c], alphabet))


def detect_period(w: FiniteWord) -> int:
    """Smallest p with w[i] == w[i+p] for all valid i."""
    if len(w) == 0:
        raise ValueError("period of the empty word is undefined")
    return _periods(w.data, w.alphabet)[0]


def classify_eventually_periodic(
    w: FiniteWord | InfiniteWord, prefix_length: int | None = None
) -> UltimatelyPeriodicWord | None:
    """Heuristic certificate that the material is consistent with u v^omega.

    Returns the candidate with minimal period (then minimal preperiod), or
    None.  A candidate requires the periodic tail to cover at least three
    full periods and at least half of the material.  This is a consistency
    claim about the prefix, never a proof of ultimate periodicity: aperiodic
    words contain high powers, so certain prefix lengths admit candidates.
    """
    return _periods(_material(w, prefix_length), w.alphabet)[1]
