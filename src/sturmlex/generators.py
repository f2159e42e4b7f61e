"""Constructions of the classical word families, all from exact data.

Every infinite word grows its prefix buffer in chunks, in time linear in the
prefix length: epistandard words by Justin's formula for iterated
palindromic closure, characteristic words of irrational slope by standard
words built from the slope's continued fraction, other mechanical words from
the carries of a fixed-point rotation, certified with one isqrt per chunk and
read 64 letters per bisect from a table of carry words, morphic images by
substitution over blocks of the parent's letters, and the Thue-Morse word by
doubling.
Everything irrational is a quadratic surd, so no floating point enters any
construction.  The letter-by-letter constructions these replace live in
``sturmlex.oracle`` as the reference the tests compare against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .words import (
    _SWAP,
    BINARY,
    CHUNK,
    Alphabet,
    FiniteWord,
    InfiniteWord,
    UltimatelyPeriodicWord,
    _check_cap,
    _FrozenRecord,
    _image,
)

# surds is imported where a slope is used, so a word with no slope loads no surd arithmetic
if TYPE_CHECKING:
    from .surds import QuadraticSurd

__all__ = [
    "DirectiveWord",
    "Morphism",
    "pal_closure",
    "iterated_pal",
    "epistandard",
    "kbonacci",
    "mechanical_lower",
    "mechanical_upper",
    "characteristic",
    "thue_morse",
    "skew_word",
    "periodic_balanced",
    "fibonacci_slope",
]


def fibonacci_slope() -> QuadraticSurd:
    """(3 - sqrt(5))/2, the slope whose characteristic word starts 01001010."""
    from .surds import QuadraticSurd

    return QuadraticSurd(3, -1, 5, 2)


# ---------------------------------------------------------------------------
# directive words

class DirectiveWord(_FrozenRecord):
    """A finite directive word, or an eventually periodic one (preperiod + cycle)."""

    _fields = ("preperiod", "cycle")

    def __init__(self, preperiod: FiniteWord, cycle: FiniteWord | None = None):
        if cycle is not None and len(cycle) == 0:
            raise ValueError("directive cycle must be non-empty")
        if cycle is not None and cycle.alphabet.size != preperiod.alphabet.size:
            raise ValueError("alphabet mismatch")
        object.__setattr__(self, "preperiod", preperiod)
        object.__setattr__(self, "cycle", cycle)

    @staticmethod
    def from_text(text: str, alphabet: Alphabet | None = None) -> "DirectiveWord":
        """Parse "abc" (finite), "abc*" for (abc)^w, or "ab|cd" for ab(cd)^w."""
        text = text.strip()
        cycle_text = None
        if "|" in text:
            pre_text, cycle_text = text.split("|", 1)
            cycle_text = cycle_text.rstrip("*")
        elif text.endswith("*"):
            pre_text, cycle_text = "", text[:-1]
        else:
            pre_text = text
        alphabet = alphabet or Alphabet.for_text(pre_text + (cycle_text or ""))
        pre = FiniteWord.from_str(pre_text, alphabet)
        return DirectiveWord(pre, None if cycle_text is None else FiniteWord.from_str(cycle_text, alphabet))

    @property
    def alphabet(self) -> Alphabet:
        return self.preperiod.alphabet

    def letter(self, i: int) -> int:
        if i < len(self.preperiod):
            return self.preperiod[i]
        if self.cycle is None:
            raise IndexError("finite directive word exhausted")
        return self.cycle[(i - len(self.preperiod)) % len(self.cycle)]

    def text(self) -> str:
        pre = self.preperiod.as_str()
        if self.cycle is None:
            return pre
        cyc = self.cycle.as_str()
        return f"{pre}|{cyc}" if pre else f"{cyc}*"


# ---------------------------------------------------------------------------
# palindromic closure

def _pal_closure_bytes(data: bytes) -> bytes:
    # scan for the longest palindromic suffix, longest first
    for start in range(len(data)):
        suf = data[start:]
        if suf == suf[::-1]:
            return data + data[:start][::-1]
    return data  # empty


def pal_closure(w: FiniteWord) -> FiniteWord:
    """The shortest palindrome having w as a prefix: w^(+), iterated by the paper's epistandard words."""
    return FiniteWord(_pal_closure_bytes(w.data), w.alphabet)


def _justin_step(pal: bytearray, last: dict[int, int], x: int) -> None:
    """Pal(w) -> Pal(wx) in place, by Justin's formula.

    Pal(wx) = Pal(w) x Pal(w) when x does not occur in w; otherwise
    Pal(wx) = Pal(w) Pal(w)[|Pal(w')|:], where w' is the prefix of w before its
    last x (Droubay, Justin & Pirillo, TCS 255, 2001).  ``last`` maps each
    letter read so far to |Pal(w')|.
    """
    m = len(pal)
    if x in last:
        pal += pal[last[x] :]
    else:
        pal.append(x)
        pal += pal[:m]
    last[x] = m


def iterated_pal(directive: FiniteWord) -> FiniteWord:
    """Iterated palindromic closure of a finite directive word."""
    pal, last = bytearray(), {}
    for x in directive.data:
        _justin_step(pal, last, x)
    return FiniteWord(pal, directive.alphabet)


def epistandard(delta: DirectiveWord) -> InfiniteWord:
    """The standard word directed by delta: the limit of its iterated closures.

    With a finite directive the word is only defined up to the final closure;
    prefix requests past that point raise ValueError.
    """
    pal, last = bytearray(), {}
    read = 0

    def grow(n: int) -> bytearray:
        nonlocal read
        n = max(n, len(pal) + CHUNK)
        while len(pal) < n:
            try:
                x = delta.letter(read)
            except IndexError:
                break
            _justin_step(pal, last, x)
            read += 1
        return pal

    return InfiniteWord(grow, delta.alphabet, f"epistandard({delta.text()})")


def kbonacci(k: int) -> InfiniteWord:
    """The k-bonacci word: the standard word cyclically directed by all k letters."""
    if not 2 <= k <= 8:
        raise ValueError("k must be between 2 and 8")
    alphabet = Alphabet.of_size(k)
    cycle = FiniteWord(range(k), alphabet)
    return epistandard(DirectiveWord(FiniteWord(b"", alphabet), cycle))


# ---------------------------------------------------------------------------
# mechanical words

def _as_surd(x) -> QuadraticSurd:
    from .surds import QuadraticSurd

    if isinstance(x, QuadraticSurd):
        return x
    return QuadraticSurd.from_fraction(x)


def _floor_differences(alpha: QuadraticSurd, rho: QuadraticSurd, use_ceiling: bool):
    """Grower of value((k+1)*alpha + rho) - value(k*alpha + rho) - floor(alpha), k >= 0.

    value is floor, or ceil when use_ceiling.  As ceil(x) = -floor(-x), the
    upper letters are ceil(alpha) - floor(alpha) minus the lower letters of
    (-alpha, -rho): those letters swapped, or all 0 when alpha is an integer.
    """
    from .surds import progression_letters

    letters = progression_letters(-alpha, -rho) if use_ceiling else progression_letters(alpha, rho)
    swap = _SWAP if use_ceiling and alpha != alpha.floor() else None
    buf = bytearray()

    def grow(n: int) -> bytearray:
        k = len(buf)
        if k < n:
            buf.extend(letters(k, max(n, k + CHUNK)).translate(swap))
        return buf

    return grow


def _standard_word(alpha: QuadraticSurd):
    """Grower of the characteristic word of an irrational slope, by standard words.

    With frac(alpha) = [0; d1 + 1, d2, d3, ...], s_{-1} = 1, s_0 = 0 and
    s_k = s_{k-1}^{d_k} s_{k-2}, every s_k with k >= 1 is a prefix of the
    characteristic word (Lothaire, Algebraic Combinatorics on Words, ch. 2).
    The buffer always holds s_{k-1}^j for some j <= d_k, a prefix of s_k, so a
    huge partial quotient costs only the letters requested.
    """
    cf = alpha.partial_quotients()
    next(cf)  # the integer part of the slope does not change the letters
    buf = bytearray()
    base, tail = b"\x00", b"\x01"  # s_{k-1}, s_{k-2}
    reps, done = next(cf) - 1, 0  # d_k, and copies of s_{k-1} in buf

    def grow(n: int) -> bytearray:
        nonlocal base, tail, reps, done
        n = max(n, len(buf) + CHUNK)
        while len(buf) < n:
            if done < reps:
                m = min(reps - done, (n - len(buf)) // len(base) + 1)
                buf.extend(base * m)
                done += m
            else:
                buf.extend(tail)
                base, tail = bytes(buf), base
                reps, done = next(cf), 1
        return buf

    return grow


def _mechanical(alpha, rho, use_ceiling: bool, kind: str) -> InfiniteWord:
    alpha = _as_surd(alpha)
    rho = _as_surd(rho)
    if alpha.compare(0) <= 0:
        raise ValueError("slope must be positive")
    if alpha.is_rational:
        # slope p/q: the letter sequence repeats with period q from the start;
        # the whole period is buffered, so it must fit under the cap
        q = alpha.r
        _check_cap(q, f"period {q} of slope {alpha.p}" + (f"/{q}" if q != 1 else ""))
        period = bytes(_floor_differences(alpha, rho, use_ceiling)(q)[:q])
        return UltimatelyPeriodicWord.purely_periodic(FiniteWord(period, BINARY))
    offset = rho - alpha
    if offset.is_rational and offset.r == 1:
        # rho = alpha + m: the floors (and ceilings) of (k+2)*alpha + m differ
        # as those of (k+2)*alpha, which is irrational, so this is c_alpha
        grow = _standard_word(alpha)
    else:
        grow = _floor_differences(alpha, rho, use_ceiling)
    return InfiniteWord(grow, BINARY, f"{kind}({alpha!r},{rho!r})")


def mechanical_lower(alpha, rho) -> InfiniteWord:
    """Letters from floor differences of n*alpha + rho; Sturmian when alpha is irrational."""
    return _mechanical(alpha, rho, False, "mechanical_lower")


def mechanical_upper(alpha, rho) -> InfiniteWord:
    """Ceiling-difference variant of the mechanical construction."""
    return _mechanical(alpha, rho, True, "mechanical_upper")


def characteristic(alpha) -> InfiniteWord:
    """The mechanical word with intercept equal to its slope.

    Irrational slopes give characteristic Sturmian words; rational slopes are
    routed to the periodic constructor and come back as purely periodic
    characteristic balanced words.
    """
    return mechanical_lower(alpha, alpha)


# ---------------------------------------------------------------------------
# morphisms

class Morphism(_FrozenRecord):
    """A letter-to-word substitution over a fixed alphabet."""

    _fields = ("alphabet", "images")

    def __init__(self, alphabet: Alphabet, images: tuple[FiniteWord, ...]):
        if len(images) != alphabet.size:
            raise ValueError("one image per letter required")
        if any(im.alphabet.size != alphabet.size for im in images):
            raise ValueError("images must live over the same alphabet")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "images", images)

    @property
    def is_erasing(self) -> bool:
        return any(len(im) == 0 for im in self.images)

    @staticmethod
    def identity(alphabet: Alphabet) -> "Morphism":
        return Morphism(alphabet, tuple(FiniteWord([c], alphabet) for c in range(alphabet.size)))

    @staticmethod
    def psi(letter: int, alphabet: Alphabet) -> "Morphism":
        """letter -> letter, x -> letter.x for every other letter x."""
        images = tuple(
            FiniteWord([c] if c == letter else [letter, c], alphabet)
            for c in range(alphabet.size)
        )
        return Morphism(alphabet, images)

    @staticmethod
    def exchange(a: int, b: int, alphabet: Alphabet) -> "Morphism":
        perm = list(range(alphabet.size))
        perm[a], perm[b] = perm[b], perm[a]
        return Morphism(alphabet, tuple(FiniteWord([c], alphabet) for c in perm))

    @staticmethod
    def _rules(text: str) -> list[tuple[str, str]]:
        """The (letter, image) texts of a literal like "a>ab,b>a", blanks around them stripped."""
        return [(src.strip(), dst.strip()) for src, _, dst in (rule.partition(">") for rule in text.split(","))]

    @staticmethod
    def letters_of(text: str) -> str:
        """Every letter a literal like "a>ab,b>a" names, in order."""
        return "".join(src + dst for src, dst in Morphism._rules(text))

    @staticmethod
    def from_text(text: str, alphabet: Alphabet) -> "Morphism":
        """Parse a literal like "a>ab,b>a"; unlisted letters map to themselves."""
        images = [FiniteWord([c], alphabet) for c in range(alphabet.size)]
        for src, dst in Morphism._rules(text):
            images[alphabet.index(src)] = FiniteWord([alphabet.index(c) for c in dst], alphabet)
        return Morphism(alphabet, tuple(images))

    def apply(self, w: FiniteWord | InfiniteWord):
        if w.alphabet.size != self.alphabet.size:
            raise ValueError("alphabet mismatch")
        if self.is_erasing and isinstance(w, InfiniteWord):
            raise ValueError("cannot apply an erasing morphism to an infinite word")
        images = [im.data for im in self.images]
        return _image(w, lambda block: b"".join(map(images.__getitem__, block)), self.alphabet, "image({})".format)

    def compose(self, inner: "Morphism") -> "Morphism":
        """self after inner: apply(compose(m1, m2), w) == apply(m1, apply(m2, w))."""
        if inner.alphabet.size != self.alphabet.size:
            raise ValueError("alphabet mismatch")
        return Morphism(self.alphabet, tuple(self.apply(im) for im in inner.images))


# ---------------------------------------------------------------------------
# named families

class _ThueMorseWord(InfiniteWord):
    """The Thue-Morse word, whose single letters are exact at any index, past the prefix cap."""

    def letter(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"letter index must be non-negative, got {n}")
        return bin(n).count("1") & 1


def thue_morse() -> InfiniteWord:
    """Fixed point starting with 0 of 0 -> 01, 1 -> 10: bit-parity of the index."""
    buf = bytearray(b"\x00")

    def grow(n: int) -> bytearray:
        while len(buf) < n:  # t_{2^k .. 2^(k+1)-1} is the complement of t_{0 .. 2^k-1}
            buf.extend(buf.translate(_SWAP))
        return buf

    return _ThueMorseWord(grow, BINARY, "thue_morse")


def skew_word(mu: Morphism, x: int, y: int, ell: int) -> UltimatelyPeriodicWord:
    """mu(x^ell y x^omega): ultimately periodic, non-periodic, with balanced factors."""
    alphabet = mu.alphabet
    if alphabet.size != 2 or {x, y} != {0, 1}:
        raise ValueError("x, y must be the two letters of a binary alphabet")
    if mu.is_erasing:
        raise ValueError("erasing morphism")
    if ell < 0:
        raise ValueError(f"ell must be non-negative, got {ell}")
    head = mu.apply(FiniteWord([x] * ell + [y], alphabet))
    period = mu.apply(FiniteWord([x], alphabet))
    word = UltimatelyPeriodicWord(head, period)
    if word.is_purely_periodic:
        raise ValueError("degenerate morphism: image collapsed to a periodic word")
    return word


def periodic_balanced(v: FiniteWord, x: int, y: int) -> UltimatelyPeriodicWord:
    """The purely periodic word (Pal(v) x y)^omega."""
    alphabet = v.alphabet
    if alphabet.size != 2 or x == y or not {x, y} <= {0, 1}:
        raise ValueError("x, y must be the two distinct letters of a binary alphabet")
    period = iterated_pal(v) + FiniteWord([x, y], alphabet)
    return UltimatelyPeriodicWord.purely_periodic(period)
