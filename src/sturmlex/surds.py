"""Exact arithmetic on quadratic surds (p + q*sqrt(d))/r with integer parts.

All floors, ceilings, and comparisons are computed with integer arithmetic
only (isqrt bracketing plus sign analysis by squaring), so mechanical-word
letters derived from these values are exact.  Rationals are the q == 0 case;
mixing two irrational surds requires a common radicand d.  Floors along an
arithmetic progression are bracketed in fixed point and certified by two
floor sums, so a block of them costs one isqrt, not one per term, and its
letters are read from a table of carry words, 64 per bisect.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from fractions import Fraction
from itertools import repeat
from operator import add, and_, floordiv, rshift, sub
from typing import Iterator

__all__ = [
    "QuadraticSurd",
    "surd_floor",
    "surd_compare",
    "progression_floors",
    "progression_letters",
    "parse_surd",
]

# the largest radicand a user may give: square-freeness is decided by trial
# division up to its cube root, 10**6 steps at this bound
MAX_RADICAND = 10**18

# progression_floors works in fixed point with _BITS fractional bits, over
# blocks of at most _BLOCK terms (one chunk of letters needs CHUNK + 1
# floors).  Every bracket numerator stays below 2**61, a C long, and the
# bracket of the j-th term of a block is (j + 1) / 2**48 wide, so it rarely
# straddles an integer.  A certified block's letters are read _CARRY per bisect
_BITS = 48
_BLOCK = 4097
_CARRY = 64


def _floor(p: int, q: int, d: int, r: int) -> int:
    """floor((p + q*sqrt(d))/r) for r >= 1 and square-free d (q*sqrt(d) is never a nonzero integer)."""
    s = math.isqrt(q * q * d)
    return (p + (s if q >= 0 else -s - 1)) // r


def _squarefree(d: int) -> bool:
    """Trial division up to the cube root: what is left has at most two prime factors."""
    if d < 0:
        return False
    f = 2
    while f * f * f <= d:
        if d % f == 0:
            d //= f
            if d % f == 0:
                return False
        f += 1
    s = math.isqrt(d)
    return d == 1 or s * s != d


class QuadraticSurd:
    """The exact real number (p + q*sqrt(d))/r in canonical reduced form."""

    __slots__ = ("p", "q", "d", "r")

    def __init__(self, p: int, q: int = 0, d: int = 0, r: int = 1):
        self._set(p, q, d, r, check_radicand=True)

    @classmethod
    def _of(cls, p: int, q: int, d: int, r: int) -> "QuadraticSurd":
        """An arithmetic result: d is 0 or the radicand of an operand, so already square-free."""
        x = object.__new__(cls)
        x._set(p, q, d, r, check_radicand=False)
        return x

    def _set(self, p: int, q: int, d: int, r: int, check_radicand: bool) -> None:
        if r == 0:
            raise ValueError("zero denominator")
        if r < 0:
            p, q, r = -p, -q, -r
        if d == 1:
            p, q, d = p + q, 0, 0
        if q == 0:
            d = 0
        if d == 0:
            q = 0
        if check_radicand and d:
            if d > MAX_RADICAND:
                raise ValueError(f"radicand {d} is above the bound {MAX_RADICAND}")
            if not _squarefree(d):
                raise ValueError(f"radicand {d} is not square-free")
        g = math.gcd(math.gcd(abs(p), abs(q)), r)
        object.__setattr__(self, "p", p // g)
        object.__setattr__(self, "q", q // g)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "r", r // g)

    def __setattr__(self, *_):
        raise AttributeError("QuadraticSurd is immutable")

    @classmethod
    def from_fraction(cls, x: Fraction | int) -> "QuadraticSurd":
        x = Fraction(x)
        return cls(x.numerator, 0, 0, x.denominator)

    @classmethod
    def sqrt(cls, d: int) -> "QuadraticSurd":
        return cls(0, 1, d, 1)

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("not a rational value")
        return Fraction(self.p, self.r)

    def _common(self, other) -> tuple["QuadraticSurd", "QuadraticSurd"]:
        if isinstance(other, (int, Fraction)):
            other = QuadraticSurd.from_fraction(other)
        if not isinstance(other, QuadraticSurd):
            raise TypeError(f"cannot combine QuadraticSurd with {type(other).__name__}")
        if self.d and other.d and self.d != other.d:
            raise ValueError(f"incompatible radicands {self.d} and {other.d}")
        return self, other

    def __add__(self, other):
        a, b = self._common(other)
        d = a.d or b.d
        return QuadraticSurd._of(a.p * b.r + b.p * a.r, a.q * b.r + b.q * a.r, d, a.r * b.r)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticSurd._of(-self.p, -self.q, self.d, self.r)

    def __sub__(self, other):
        a, b = self._common(other)
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._common(other)
        d = a.d or b.d
        return QuadraticSurd._of(
            a.p * b.p + a.q * b.q * d, a.p * b.q + a.q * b.p, d, a.r * b.r
        )

    __rmul__ = __mul__

    def _sign(self) -> int:
        """Sign of the value, by exact squaring (r > 0 so only the numerator matters)."""
        p, q, d = self.p, self.q, self.d
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return (q > 0) - (q < 0)
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        lhs, rhs = p * p, q * q * d  # compare |p| vs |q|*sqrt(d)
        if p > 0:  # q < 0: sign of p - |q|sqrt(d)
            return 1 if lhs > rhs else -1 if lhs < rhs else 0
        return 1 if rhs > lhs else -1 if rhs < lhs else 0

    def floor(self) -> int:
        """Exact floor; uses floor(x/r) == floor(floor(x)/r) for integer r >= 1."""
        return _floor(self.p, self.q, self.d, self.r)

    def ceil(self) -> int:
        return -((-self).floor())

    def partial_quotients(self) -> Iterator[int]:
        """The continued fraction [a0; a1, a2, ...] of the value, exactly; finite for rationals."""
        p, q, d, r = self.p, self.q, self.d, self.r
        while True:
            a = _floor(p, q, d, r)
            yield a
            p -= a * r
            if p == 0 and q == 0:
                return
            # 1/((p + q*sqrt(d))/r) = r*(p - q*sqrt(d)) / (p^2 - q^2*d)
            p, q, r = r * p, -r * q, p * p - q * q * d
            if r < 0:
                p, q, r = -p, -q, -r
            g = math.gcd(p, q, r)
            p, q, r = p // g, q // g, r // g

    def __float__(self):
        return (self.p + self.q * math.sqrt(self.d)) / self.r

    def compare(self, other) -> int:
        a, b = self._common(other)
        return (a - b)._sign()

    def __eq__(self, other):
        try:
            return self.compare(other) == 0
        except (TypeError, ValueError):
            return NotImplemented

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __hash__(self):
        if self.is_rational:
            return hash(Fraction(self.p, self.r))
        return hash((self.p, self.q, self.d, self.r))

    def __repr__(self):
        if self.is_rational:
            return f"QuadraticSurd({self.p}/{self.r})"
        return f"QuadraticSurd(({self.p}+{self.q}*sqrt({self.d}))/{self.r})"


def surd_floor(x: QuadraticSurd) -> int:
    return x.floor()


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum(floor((a*j + b)/m) for j in range(n)) for n >= 0, m >= 1 and a >= 0, in O(log m) steps.

    Graham, Knuth & Patashnik, Concrete Mathematics, section 3.5: reduce a and
    b below m, then swap the roles of m and a as in Euclid's algorithm.
    """
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if not 0 <= b < m:
            total += n * (b // m)
            b %= m
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def _terms(first: int, step: int, n: int):
    """first, first + step, ..., n terms."""
    return range(first, first + n * step, step) if step else repeat(first, n)


def _bracket(alpha, rho, bits):
    """(floor(alpha), A, block): block(k0, n) brackets floor(k*alpha + rho), k0 <= k < k0 + n.

    With frac = alpha - floor(alpha) and theta_j = (k0 + j)*frac + rho, one
    exact floor T of theta_0 * 2**B (B = bits) and A = floor(frac * 2**B)
    bracket theta_j * 2**B in [T + j*A, T + j*(A + 1) + 1), so floor(theta_j)
    lies between (T + j*A) >> B and (T + j*(A + 1)) >> B.  No upper value is
    below its lower one, so the block is exact iff the two brackets' sums
    agree; where they do not, the terms whose brackets differ take an exact
    surd floor.  block returns (whole, T mod 2**B, exact), exact None if the
    block is exact and else the list of floor(theta_j) - whole.  Rational
    slope and intercept take one exact division per term.
    """
    alpha, rho = alpha._common(rho)
    d, r = alpha.d or rho.d, alpha.r * rho.r
    # k*alpha + rho = (k*ap + bp + (k*aq + bq)*sqrt(d)) / r
    ap, aq = alpha.p * rho.r, alpha.q * rho.r
    bp, bq = rho.p * alpha.r, rho.q * alpha.r
    base = _floor(ap, aq, d, r)
    ap -= base * r  # now the numerator of frac
    if not d:
        return base, 0, lambda k0, n: (0, 0, list(map(floordiv, _terms(k0 * ap + bp, ap, n), repeat(r, n))))
    one = 1 << bits
    step = _floor(ap << bits, aq << bits, d, r)

    def block(k0, n):
        p, q = k0 * ap + bp, k0 * aq + bq
        t = _floor(p << bits, q << bits, d, r)
        whole, t = t >> bits, t & (one - 1)  # theta_0 = whole + t / 2**B + (less than 2**-B)
        if _floor_sum(n, one, step, t) == _floor_sum(n, one, step + 1, t):
            return whole, t, None
        p -= whole * r
        lows = map(rshift, _terms(t, step, n), repeat(bits, n))
        highs = map(rshift, _terms(t, step + 1, n), repeat(bits, n))
        return whole, t, [
            lo if lo == hi else _floor(p + j * ap, q + j * aq, d, r)
            for j, (lo, hi) in enumerate(zip(lows, highs))
        ]

    return base, step, block


def progression_floors(alpha: QuadraticSurd, rho: QuadraticSurd, start: int, stop: int) -> list[int]:
    """floor(k*alpha + rho) for start <= k < stop, exactly, with one isqrt per block of terms."""
    bits = _BITS
    base, step, block = _bracket(alpha, rho, bits)
    out: list[int] = []
    for k0 in range(start, stop, _BLOCK):
        n = min(_BLOCK, stop - k0)
        whole, t, lows = block(k0, n)
        if lows is None:
            lows = map(rshift, _terms(t, step, n), repeat(bits, n))
        out += map(add, lows, _terms(whole + k0 * base, base, n))
    return out


def _carry_table(step, bits):
    """(cuts, words): words[bisect_right(cuts, x)] is the _CARRY carries of x -> x + step mod 2**bits.

    The sorted cuts are the nonzero points -i*step, i <= _CARRY.
    """
    one, m = 1 << bits, _CARRY
    f = list(map(rshift, _terms(-m * step % one, step, 2 * m + 1), repeat(bits, 2 * m + 1)))
    carries = bytes(map(sub, f[1:], f))
    arcs = sorted({-i * step % one: m - i for i in range(m + 1)}.items())
    return [x for x, _ in arcs[1:]], [carries[j : j + m] for _, j in arcs]


def progression_letters(alpha: QuadraticSurd, rho: QuadraticSurd):
    """letters(start, stop): the bytes floor((k+1)*alpha + rho) - floor(k*alpha + rho) - floor(alpha).

    Letter j of a certified block is the carry of (T + j*A) mod 2**B plus A.
    As the m + 1 arcs cut by the points -i*A, i <= m, give the factors of
    length m (Lothaire, Algebraic Combinatorics on Words, ch. 2), a table reads
    m = _CARRY letters per bisect.  Other blocks take exact floors.
    """
    bits = _BITS
    mask = (1 << bits) - 1
    _, step, block = _bracket(alpha, rho, bits)
    cuts, words = _carry_table(step, bits)
    jump = _CARRY * step

    def letters(start, stop):
        out = bytearray()
        for k0 in range(start, stop, _BLOCK - 1):
            n = min(_BLOCK - 1, stop - k0)  # letters, from n + 1 floors
            _, x, exact = block(k0, n + 1)
            if exact is None:
                g = -(-n // _CARRY)
                arcs = map(bisect_right, repeat(cuts, g), map(and_, _terms(x, jump, g), repeat(mask, g)))
                out += b"".join(map(words.__getitem__, arcs))[:n]
            else:
                out.extend(map(sub, exact[1:], exact))
        return bytes(out)

    return letters


def surd_compare(x: QuadraticSurd, y: QuadraticSurd | int | Fraction) -> int:
    """-1, 0, or 1 as x is less than, equal to, or greater than y."""
    return x.compare(y)


_SURD_RE = re.compile(
    r"""^\(\s*(?P<p>[+-]?\d+)\s*(?P<sign>[+-])\s*(?:(?P<q>\d+)\s*\*\s*)?
        sqrt\(\s*(?P<d>\d+)\s*\)\s*\)\s*(?:/\s*(?P<r>\d+))?$""",
    re.VERBOSE,
)
_RAT_RE = re.compile(r"^(?P<p>[+-]?\d+)\s*(?:/\s*(?P<r>\d+))?$")


def parse_surd(text: str) -> QuadraticSurd:
    """Parse "p/q" or "(p+q*sqrt(d))/r" (the q* coefficient may be omitted)."""
    text = text.strip()
    m = _RAT_RE.match(text)
    if m:
        return QuadraticSurd(int(m["p"]), 0, 0, int(m["r"] or 1))
    m = _SURD_RE.match(text)
    if m:
        q = int(m["q"] or 1)
        if m["sign"] == "-":
            q = -q
        return QuadraticSurd(int(m["p"]), q, int(m["d"]), int(m["r"] or 1))
    raise ValueError(f"cannot parse surd {text!r}; expected p/q or (p+q*sqrt(d))/r")
