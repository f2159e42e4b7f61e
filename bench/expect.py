"""Expected outputs, fixed by theorems or rebuilt by independent constructions.

Nothing here calls the sturmlex code path a task measures.  Words are rebuilt
by other algorithms: Justin's formula for epistandard words, standard words
from continued fractions for characteristic words, integer floors for
mechanical words, doubling for Thue-Morse.  Extremal factors are recomputed
by sorting (``sturmlex.oracle``, the repository's slow-on-purpose reference).

A slope is a tuple (p, q, d, r) standing for (p + q*sqrt(d))/r, with r > 0
and d not a perfect square.
"""

from __future__ import annotations

import math
from fractions import Fraction

from sturmlex.oracle import naive_min_max
from sturmlex.words import FiniteWord, LexOrder


def floor_surd(p: int, q: int, d: int, r: int) -> int:
    """floor((p + q*sqrt(d))/r) for r > 0; q*sqrt(d) is never an integer unless q == 0."""
    s = math.isqrt(q * q * d)
    return (p + (s if q >= 0 else -s - 1)) // r


def floors(slope: tuple, rho: Fraction, n: int) -> list[int]:
    """floor(k*alpha + rho) for k = 0..n-1."""
    p, q, d, r = slope
    a, b = rho.numerator, rho.denominator
    return [floor_surd(k * p * b + a * r, k * q * b, d, r * b) for k in range(n)]


def mechanical(slope: tuple, rho: Fraction, n: int) -> bytes:
    """Lower mechanical word: floor((k+1)a + rho) - floor(k*a + rho) - floor(a)."""
    fl = floors(slope, rho, n + 1)
    base = floor_surd(*slope)
    return bytes(fl[k + 1] - fl[k] - base for k in range(n))


def partial_quotients(slope: tuple):
    """Continued fraction of a quadratic irrational, in exact integer arithmetic."""
    P, Q, d, R = slope
    while True:
        a = floor_surd(P, Q, d, R)
        yield a
        P1 = P - a * R
        P, Q, R = R * P1, -R * Q, P1 * P1 - Q * Q * d
        if R < 0:
            P, Q, R = -P, -Q, -R
        g = math.gcd(math.gcd(P, Q), R)
        P, Q, R = P // g, Q // g, R // g


def characteristic(slope: tuple, n: int) -> bytes:
    """Prefix of c_alpha, alpha in (0,1), from standard words.

    With alpha = [0; d1 + 1, d2, d3, ...], s_{-1} = 1, s_0 = 0 and
    s_k = s_{k-1}^{d_k} s_{k-2}; every s_k with k >= 1 is a prefix of c_alpha
    (Lothaire, Algebraic Combinatorics on Words, ch. 2).
    """
    cf = partial_quotients(slope)
    if next(cf) != 0:
        raise ValueError("slope must lie in (0, 1)")
    prev, cur = b"\x01", b"\x00"
    first = True
    while first or len(cur) < n:
        a = next(cf)
        prev, cur = cur, cur * (a - 1 if first else a) + prev
        first = False
    return cur[:n]


def epistandard(cycle: bytes, n: int) -> bytes:
    """Prefix of the epistandard word directed by cycle^omega, by Justin's formula.

    Pal(wx) = Pal(w) x Pal(w) when x does not occur in w; otherwise
    Pal(wx) = Pal(w) Pal(w)[|Pal(w')|:], w' the prefix of w before its last x.
    """
    pal = b""
    pal_len = []  # pal_len[i] = |Pal(w[:i])|
    last: dict[int, int] = {}
    i = 0
    while len(pal) < n:
        x = cycle[i % len(cycle)]
        pal_len.append(len(pal))
        if x in last:
            pal = pal + pal[pal_len[last[x]]:]
        else:
            pal = pal + bytes([x]) + pal
        last[x] = i
        i += 1
    return pal[:n]


def thue_morse(n: int) -> bytes:
    """t_{[0, 2m)} = t_{[0, m)} followed by its complement."""
    t = b"\x00"
    swap = bytes([1, 0]) + bytes(range(2, 256))
    while len(t) < n:
        t = t + t.translate(swap)
    return t[:n]


def periodic_certificate(data: bytes) -> tuple[int, int] | None:
    """(preperiod length, period) of the least period whose periodic tail covers
    three periods and half the material, found by binary search on tail length."""
    n = len(data)
    mv = memoryview(data)
    for p in range(1, n // 3 + 1):
        lo, hi = p, n  # a suffix of length t has period p iff mv[n-t:n-p] == mv[n-t+p:]
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if mv[n - mid : n - p] == mv[n - mid + p :]:
                lo = mid
            else:
                hi = mid - 1
        if lo >= 3 * p and 2 * lo >= n:
            return n - lo, p
    return None


def min_finite(w: FiniteWord, order: LexOrder) -> bytes:
    """min(w): the longest chain min(w|1), min(w|2), ... of prefix-related minima,
    each minimum recomputed by sorting every factor."""
    prev = naive_min_max(w, 1, order)[0].data
    k = 1
    while k < len(w):
        nxt = naive_min_max(w, k + 1, order)[0].data
        if nxt[:k] != prev:
            break
        prev, k = nxt, k + 1
    return prev


def characteristic_shift(data: bytes) -> int | None:
    """Least j >= 1 whose tail u passes 0u <= T^k(u) <= 1u for k <= span at depth span,
    span = max(32, n // 6), as the classification report defines it."""
    n = len(data)
    span = max(32, n // 6)
    for j in range(1, n - 2 * span):
        u = data[j:]
        lower, upper = b"\x00" + u[: span - 1], b"\x01" + u[: span - 1]
        if all(lower <= u[k : k + span] <= upper for k in range(span + 1)):
            return j
    return None


def gamma_tilde(p: int, q: int) -> bool:
    """Whether 1 - x <= {2^k x} <= x for all k, x = p/q, on integer residues."""
    y, seen = p % q, set()
    while y not in seen:
        if not q - p <= y <= p:
            return False
        seen.add(y)
        y = 2 * y % q
    return True
