"""Bridging digit words and real numbers: fractional parts, covering arcs, Gamma-tilde.

All real quantities are exact rationals derived from digit prefixes; verdict
paths contain no floating point.  A truncated expansion is carried as an
interval [value, value + b^-N] so the error is explicit everywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator

from . import words
# analysis, generators, surds and extremal are imported where they are used,
# so the doubling orbit and the covering arc load no factor analysis
from .words import (
    Alphabet,
    FiniteWord,
    InfiniteWord,
    UltimatelyPeriodicWord,
    _check_cap,
    _first_violation,
    _FrozenRecord,
    _material,
    _Record,
    shift,
)

if TYPE_CHECKING:
    from .extremal import BoundedVerdict
    from .surds import QuadraticSurd

__all__ = [
    "RationalInterval",
    "DigitExpansion",
    "digits_from_rational",
    "real_bounds_from_digits",
    "fractional_parts",
    "min_covering_interval",
    "ClassifyReport",
    "bugeaud_dubickas_classify",
    "self_sturmian_test",
    "gamma_tilde_member",
    "gamma_tilde_orbit",
    "thue_morse_constant",
    "veerman_interval",
]


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


class RationalInterval(_FrozenRecord):
    """A closed interval [lo, hi] with exact rational endpoints.

    The endpoints are kept as integer numerators over one positive
    denominator; ``lo`` and ``hi`` build the reduced Fractions on demand.
    """

    # fractional_parts returns thousands at a time, all over base^precision
    __slots__ = ("_lo", "_hi", "_den")
    _fields = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        den = math.lcm(lo.denominator, hi.denominator)
        object.__setattr__(self, "_lo", lo.numerator * (den // lo.denominator))
        object.__setattr__(self, "_hi", hi.numerator * (den // hi.denominator))
        object.__setattr__(self, "_den", den)

    @classmethod
    def _over(cls, lo: int, hi: int, den: int) -> RationalInterval:
        """[lo/den, hi/den] for integers lo <= hi and den > 0, with no Fraction built."""
        self = object.__new__(cls)
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_hi", hi)
        object.__setattr__(self, "_den", den)
        return self

    @property
    def lo(self) -> Fraction:
        return Fraction(self._lo, self._den)

    @property
    def hi(self) -> Fraction:
        return Fraction(self._hi, self._den)

    @property
    def width(self) -> Fraction:
        return Fraction(self._hi - self._lo, self._den)

    @property
    def midpoint(self) -> Fraction:
        return Fraction(self._lo + self._hi, 2 * self._den)

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def to_obj(self) -> dict:
        return {"lo": _frac_str(self.lo), "hi": _frac_str(self.hi)}

    def __repr__(self):
        return f"RationalInterval({self.lo}, {self.hi})"


class DigitExpansion(_FrozenRecord):
    """A base-b digit word (finite prefix or infinite stream)."""

    _fields = ("base", "digits")

    def __init__(self, base: int, digits: FiniteWord | InfiniteWord):
        if base < 2:
            raise ValueError(f"base must be at least 2, got {base}")
        if digits.alphabet.size > base:
            raise ValueError("digit word uses letters outside the base range")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "digits", digits)

    def prefix_digits(self, n: int) -> bytes:
        digits = _material(self.digits, n)
        if n > len(digits):
            raise ValueError(f"only {len(digits)} digits available, {n} requested")
        return digits[:n]


def digits_from_rational(xi: Fraction, base: int, n: int) -> DigitExpansion:
    """Greedy base-b digits of a rational in (0, 1)."""
    if not 0 < xi < 1:
        raise ValueError("xi must lie strictly between 0 and 1")
    if n < 1:
        raise ValueError("need at least one digit")
    _check_cap(n, "digit request {}")
    alphabet = Alphabet.digits(base)
    out = bytearray()
    # xi = r/q: the next digit and remainder are divmod(base * r, q)
    r, q = xi.numerator, xi.denominator
    for _ in range(n):
        d, r = divmod(r * base, q)
        out.append(d)
    return DigitExpansion(base, FiniteWord(out, alphabet))


def real_bounds_from_digits(d: DigitExpansion, n: int | None = None) -> RationalInterval:
    """Interval of width base^-N holding every real with the given digit prefix.

    Those reals are the xi = sum d_n b^-n of the paper's covering question.
    """
    digits = _material(d.digits, None) if n is None else d.prefix_digits(n)
    value = 0
    for digit in digits:
        value = value * d.base + digit
    return RationalInterval._over(value, value + 1, d.base ** len(digits))


def fractional_parts(d: DigitExpansion, shifts: int, precision: int) -> list[RationalInterval]:
    """Intervals around the first ``shifts`` orbit points, each of width base^-precision.

    One numerator slides along the digits: dropping the leading digit and
    appending the next takes v to (v - d_n.b^(P-1)).b + d_(n+P).
    """
    if precision < 1:
        raise ValueError(f"precision must be at least 1 digit, got {precision}")
    if shifts < 0:
        raise ValueError(f"shift count must be non-negative, got {shifts}")
    data = d.prefix_digits(shifts + precision)
    base = d.base
    scale = base**precision
    top = base ** (precision - 1)
    value = 0
    for digit in data[:precision]:
        value = value * base + digit
    out = []
    for n in range(shifts):
        if n:
            value = (value - data[n - 1] * top) * base + data[n + precision - 1]
        out.append(RationalInterval._over(value, value + 1, scale))
    return out


def _endpoints(items: list[RationalInterval] | list[Fraction]) -> Iterator[tuple[int, int, int]]:
    """(lo, hi, den) per point or interval: integer numerators over a positive denominator."""
    for it in items:
        if isinstance(it, RationalInterval):
            yield it._lo, it._hi, it._den
        else:
            x = Fraction(it)
            yield x.numerator, x.numerator, x.denominator


def min_covering_interval(
    items: list[RationalInterval] | list[Fraction], circular: bool = True
) -> tuple[Fraction, RationalInterval]:
    """Shortest closed arc (or interval) covering all the points/intervals.

    On the circle R/Z this is the complement of the largest empty gap; each
    point, and each interval's start, must lie in [0, 1), and the result
    interval may have hi > 1 to represent an arc wrapping through 0.
    """
    # integer numerators over the common denominator (base^precision for
    # fractional parts, which share it); the endpoints are read twice rather
    # than stored
    den = math.lcm(*{d for _, _, d in _endpoints(items)})

    # (start, length) sorts as (start, end); an orbit interval's length is
    # the shared small int 1, so the sorted list costs little beyond its tuples
    intervals = []
    for lo, hi, d in _endpoints(items):
        if d != den:
            lo, hi = lo * (den // d), hi * (den // d)
        intervals.append((lo, hi - lo))
    intervals.sort()
    if not intervals:
        raise ValueError("empty input")
    if not circular:
        lo = intervals[0][0]
        hi = max(a + b for a, b in intervals)
        return Fraction(hi - lo, den), RationalInterval._over(lo, hi, den)
    if not 0 <= intervals[0][0] <= intervals[-1][0] < den:
        raise ValueError("points must lie in [0, 1)")
    # the largest gap between an interval's start and the furthest end before
    # it, the gap through 0 last; the first of equal gaps wins
    best_gap, best_start = None, 0
    max_hi = sum(intervals[0])
    for i in range(1, len(intervals)):
        lo, length = intervals[i]
        if best_gap is None or lo - max_hi > best_gap:
            best_gap, best_start = lo - max_hi, i
        max_hi = max(max_hi, lo + length)
    if best_gap is None or intervals[0][0] + den - max_hi > best_gap:
        best_gap, best_start = intervals[0][0] + den - max_hi, 0
    if best_gap <= 0:
        return Fraction(1), RationalInterval._over(0, 1, 1)
    lo = intervals[best_start][0]
    return Fraction(den - best_gap, den), RationalInterval._over(lo, lo + den - best_gap, den)


# ---------------------------------------------------------------------------
# digit-word classification


class ClassifyReport(_Record):
    """Desk-scale structure report for a digit-word prefix.

    ``interval_refinement`` addresses whether the minimal covering interval
    would be open: it is not open exactly when some shift of the digit word
    is characteristic, which a prefix can never certify, so the report says
    "undetermined-at-bounds" unless a shift passes the bounded
    characteristic-attainment test inside the material.
    """

    _fields = (
        "base", "values", "adjacent_pair", "low_digit", "balanced", "periodic_certificate",
        "verdict", "prefix_length", "interval_refinement", "characteristic_shift",
    )

    def __init__(
        self,
        base: int,
        values: tuple[int, ...],
        adjacent_pair: bool,
        low_digit: int | None,
        balanced: bool | None,
        periodic_certificate: UltimatelyPeriodicWord | None,
        verdict: str,
        prefix_length: int,
        interval_refinement: str = "not-applicable",
        characteristic_shift: int | None = None,
    ):
        self.base = base
        self.values = values
        self.adjacent_pair = adjacent_pair
        self.low_digit = low_digit
        self.balanced = balanced
        self.periodic_certificate = periodic_certificate
        self.verdict = verdict
        self.prefix_length = prefix_length
        self.interval_refinement = interval_refinement
        self.characteristic_shift = characteristic_shift

    def to_obj(self) -> dict:
        cert = None
        if self.periodic_certificate is not None:
            cert = {
                "preperiod": self.periodic_certificate.preperiod.as_str(),
                "period": self.periodic_certificate.period.as_str(),
            }
        return {
            "base": self.base,
            "values": list(self.values),
            "adjacent_pair": self.adjacent_pair,
            "low_digit": self.low_digit,
            "balanced": self.balanced,
            "periodic_certificate": cert,
            "classification": self.verdict,
            "prefix_length": self.prefix_length,
            "interval_refinement": self.interval_refinement,
            "characteristic_shift": self.characteristic_shift,
        }


def _characteristic_shift_candidate(data: bytes) -> int | None:
    """Smallest j >= 1 whose tail passes the bounded characteristic inequalities.

    Runs a.u <= T^k(u) <= b.u for u = data[j:] at bounds derived from the
    material.  A pass marks the tail as a characteristic candidate (the
    covering interval would then not be open); absence proves nothing.
    """
    n = len(data)
    span = max(32, n // 6)  # comparison depth and shift count for each tail
    for j in range(1, n - 2 * span):
        u = data[j : j + 2 * span]  # the K + L letters the check reads
        lower, upper = b"\x00" + u[: span - 1], b"\x01" + u[: span - 1]
        if _first_violation(u, lower, upper, span, span)[0] is None:
            return j
    return None


def bugeaud_dubickas_classify(d: DigitExpansion, prefix_length: int) -> ClassifyReport:
    """Check a digit prefix against the structure forced by the covering theorem.

    The orbit of a number can stay inside a closed interval of length 1/b
    only when the digits form a balanced word on two adjacent values {k, k+1}
    (aperiodic for irrationals).  The verdict is a statement about this
    prefix only: "consistent-with-sturmian", "periodic-balanced", or
    "excluded".
    """
    from .analysis import classify_eventually_periodic, is_balanced

    if prefix_length < 2:
        raise ValueError("need at least two digits")
    data = d.prefix_digits(prefix_length)
    values = tuple(sorted(set(data)))
    low = values[0]
    if len(values) == 1:
        word = UltimatelyPeriodicWord.purely_periodic(FiniteWord(b"\x00", Alphabet(("0", "1"))))
        return ClassifyReport(
            d.base, values, False, low, True, word, "periodic-balanced", prefix_length
        )
    adjacent = len(values) == 2 and values[1] == values[0] + 1
    if not adjacent:
        return ClassifyReport(d.base, values, False, None, None, None, "excluded", prefix_length)
    induced = FiniteWord(bytes(c - low for c in data), Alphabet(("0", "1")))
    balanced = is_balanced(induced)
    certificate = classify_eventually_periodic(induced)
    if not balanced:
        verdict = "excluded"
    elif certificate is not None:
        verdict = "periodic-balanced"
    else:
        verdict = "consistent-with-sturmian"
    refinement = "not-applicable"
    shift_candidate = None
    if verdict == "consistent-with-sturmian":
        shift_candidate = _characteristic_shift_candidate(induced.data)
        refinement = (
            "interval-not-open-candidate" if shift_candidate is not None
            else "undetermined-at-bounds"
        )
    return ClassifyReport(
        d.base, values, True, low, balanced, certificate, verdict, prefix_length,
        refinement, shift_candidate,
    )


# factor lengths at which self_sturmian_test checks the Sturmian count k + 1
SELF_STURMIAN_DEPTH = 30


def self_sturmian_test(s: InfiniteWord, K: int, L: int) -> BoundedVerdict:
    """Bounded test that s = 1u with u a characteristic word beginning with 1.

    Requires the 11 prefix, the characteristic shift inequalities for u at
    (K, L), and at most k+1 factors of each length k <= complexity_depth =
    min(SELF_STURMIAN_DEPTH, K + L) in the first K + L letters of u: only an
    excess count proves that u is not Sturmian, so only an excess count fails.
    """
    from .analysis import complexity
    from .extremal import BoundedVerdict, _check_bounds, check_sturmian_extremal

    _check_bounds(K, L, s=s)
    head = s.prefix_bytes(2)
    if head != b"\x01\x01":
        return BoundedVerdict(
            False, K, L, witness={"reason": "must begin with 11", "found": f"{head[0]}{head[1]}"}
        )
    u = shift(s, 1)
    verdict = check_sturmian_extremal(u, u, K, L)
    if not verdict.holds:
        verdict.detail["reason"] = "tail fails the characteristic inequalities"
        return verdict
    depth = min(SELF_STURMIAN_DEPTH, K + L)
    p = complexity(u, depth, K + L)
    bad = next((k for k, v in enumerate(p, start=1) if v > k + 1), None)
    if bad is not None:
        return BoundedVerdict(
            False,
            K,
            L,
            witness={"reason": "factor count is not k+1", "k": bad, "p": p[bad - 1]},
            detail={"complexity_depth": depth},
        )
    verdict.detail["complexity_depth"] = depth
    return verdict


# ---------------------------------------------------------------------------
# Gamma-tilde and named constants


def _doubling_points(x: Fraction) -> Iterator[int]:
    """Numerators over q = x.denominator of the doubling-map orbit of {x}, to the first repeat.

    With q = 2^a m and m odd, the first a points (and a negative start) are
    never met again and the rest is a cycle, so the walk stops when it comes
    back to the point after them, and keeps no set.  An orbit of more than
    STURMLEX_MAX_LEN + 1 points raises.
    """
    q = x.denominator
    y = x.numerator - int(x) * q  # {x}; x = 1 maps to 0
    start = max((q & -q).bit_length() - 1, int(y < 0))  # index of the first point on the cycle
    cycle = None
    for i in range(words.MAX_PREFIX + 1):
        if i == start:
            cycle = y
        yield y
        y = 2 * y % q
        if y == cycle:
            return
    _check_cap(i + 1, "orbit point {}")  # one point more than the cap allows: raises


def gamma_tilde_orbit(x: Fraction) -> list[Fraction]:
    """Doubling-map orbit of a rational until the first repeat (exact)."""
    x = Fraction(x)
    return [Fraction(y, x.denominator) for y in _doubling_points(x)]


def gamma_tilde_member(x: Fraction) -> bool:
    """Exact membership of a rational in {x : 1-x <= {2^k x} <= x for all k}.

    Rational orbits under doubling are eventually periodic, so cycle
    detection makes the check exact; the prefix cap only guards degenerate inputs.
    """
    return _gamma_tilde_walk(x)[0]


def _gamma_tilde_walk(x: Fraction) -> tuple[bool, int]:
    """``gamma_tilde_member(x)`` and the size of the doubling orbit of x, from one walk of the orbit."""
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError("x must lie in [0, 1]")
    # 1 - x <= y/q <= x at every point y/q; the whole orbit is walked,
    # so an orbit over the cap raises whatever its points
    lo, hi = x.denominator - x.numerator, x.numerator
    inside, size = True, 0
    for size, y in enumerate(_doubling_points(x), 1):
        if not lo <= y <= hi:
            inside = False
    return inside, size


def thue_morse_constant(n_terms: int) -> RationalInterval:
    """Bounds for sum(t_n / 2^n) from the first n_terms terms; width 2^-(n_terms-1)."""
    from .generators import thue_morse

    if n_terms < 1:
        raise ValueError("need at least one term")
    digits = thue_morse().prefix_bytes(n_terms)
    # the sum over 2^(n_terms-1): the digits read as one binary numeral
    value = int(digits.translate(bytes.maketrans(b"\x00\x01", b"01")), 2)
    return RationalInterval._over(value, value + 1, 2 ** (n_terms - 1))


def veerman_interval(alpha: QuadraticSurd, precision: int) -> tuple[RationalInterval, RationalInterval]:
    """Digit bounds for the reals with binary expansions 0.c and 1.c, c characteristic.

    The two intervals have width 2^-precision and their lower endpoints differ
    by exactly 1/2, the length of the arc spanned by the slope-alpha orbit
    closure.
    """
    from .generators import characteristic
    from .surds import QuadraticSurd

    if alpha.is_rational:
        raise ValueError("slope must be irrational")
    if not (QuadraticSurd(0) < alpha < QuadraticSurd(1)):
        raise ValueError("slope must lie in (0, 1)")
    if precision < 1:
        raise ValueError(f"precision must be at least 1 digit, got {precision}")
    c = characteristic(alpha)
    tail = c.prefix_bytes(precision - 1)
    base = Alphabet.digits(2)
    d0 = DigitExpansion(2, FiniteWord(bytes([0]) + tail, base))
    d1 = DigitExpansion(2, FiniteWord(bytes([1]) + tail, base))
    return real_bounds_from_digits(d0), real_bounds_from_digits(d1)
