"""Finite and infinite words over small alphabets: letters, the prefix buffer, views, serialization.

Letters are integers 0..size-1; display names are cosmetic.  Finite words are
immutable byte strings, so factor extraction and lexicographic scans run at
C speed.  Infinite words grow one memoized prefix buffer in chunks, on
demand; every analysis of an infinite word (``sturmlex.analysis``) is
explicitly performed on a finite prefix supplied by the caller, and results
are only claims about that prefix.
"""

from __future__ import annotations

import os
import threading
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterable, Iterator

__all__ = [
    "Alphabet",
    "BINARY",
    "BINARY_AB",
    "FiniteWord",
    "InfiniteWord",
    "UltimatelyPeriodicWord",
    "LexOrder",
    "Relation",
    "ComparisonOutcome",
    "shift",
    "complement",
    "prepend",
    "word_to_text",
    "word_from_text",
]

# The most letters one prefix may hold (STURMLEX_MAX_LEN).
_cap_text = os.environ.get("STURMLEX_MAX_LEN", "1000000")
try:
    MAX_PREFIX = int(_cap_text)
except ValueError:
    MAX_PREFIX = -1
if MAX_PREFIX < 0:
    raise ValueError(f"STURMLEX_MAX_LEN must be a non-negative integer, got {_cap_text!r}")

# Letters a generator adds at least per growth, and most parent letters a
# view reads at a time.
CHUNK = 4096

_LETTER_POOL = "abcdefgh"


def _check_cap(n: int, what: str = "prefix request {}", hint: str = "") -> None:
    """ValueError naming what (n fills its {}), then the hint, if n letters are more than one word may buffer."""
    if n > MAX_PREFIX:
        raise ValueError(f"{what.format(n)} exceeds cap {MAX_PREFIX} (STURMLEX_MAX_LEN){hint}")


class _Record:
    """A record: ``__init__`` sets the attributes ``_fields`` lists; equal by class and fields, unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"


class _FrozenRecord(_Record):
    """A hashable record; ``__init__`` sets each field once, through object.__setattr__."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Alphabet(_FrozenRecord):
    """An ordered set of letters 0..size-1 with single-character display names."""

    _fields = ("names",)

    def __init__(self, names: tuple[str, ...]):
        if not names:
            raise ValueError("alphabet must have at least one letter")
        if len(set(names)) != len(names):
            raise ValueError("display names must be distinct")
        if any(len(n) != 1 for n in names):
            raise ValueError("display names must be single characters")
        object.__setattr__(self, "names", names)

    @staticmethod
    def of_size(size: int) -> "Alphabet":
        if size < 1:
            raise ValueError("alphabet size must be >= 1")
        if size > len(_LETTER_POOL):
            raise ValueError(f"default names only cover sizes up to {len(_LETTER_POOL)}")
        return Alphabet(tuple(_LETTER_POOL[:size]))

    @staticmethod
    def for_text(text: str) -> "Alphabet":
        """Digits 0..max for all-digit text, else letters a..max; at least two.  Other names are refused."""
        digits = "0123456789"
        if stray := set(text) - set(digits + _LETTER_POOL):
            rule = "default names are digits 0-9 for all-digit text, else letters a-h"
            raise ValueError(f"unknown letter {min(stray, key=text.index)!r}: {rule}")
        pool = digits if set(text) <= set(digits) else _LETTER_POOL
        return Alphabet(tuple(pool[: max(2, 1 + max(map(pool.find, text), default=0))]))

    @staticmethod
    def digits(base: int) -> "Alphabet":
        """Alphabet 0..base-1 displayed as decimal digits (base <= 10)."""
        if not 2 <= base <= 10:
            raise ValueError(f"digit alphabets supported for bases 2..10, got {base}")
        return Alphabet(tuple(str(i) for i in range(base)))

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        if name in self.names:
            return self.names.index(name)
        if self.size == 2 and name in ("0", "1", "a", "b"):  # binary words are written equally with 0/1 and a/b
            return "01ab".index(name) % 2
        raise ValueError(f"unknown letter {name!r} for alphabet {''.join(self.names)}")

    def __repr__(self):
        return f"Alphabet({''.join(self.names)!r})"


BINARY = Alphabet(("0", "1"))
BINARY_AB = Alphabet(("a", "b"))  # a < b, the letters of as <= T^k(s) <= bs


class FiniteWord:
    """An immutable finite word; the empty word is allowed."""

    __slots__ = ("data", "alphabet")

    def __init__(self, letters: Iterable[int] | bytes, alphabet: Alphabet):
        data = bytes(letters)
        if data and max(data) >= alphabet.size:
            raise ValueError("letter out of range for alphabet")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "alphabet", alphabet)

    def __setattr__(self, *_):
        raise AttributeError("FiniteWord is immutable")

    @classmethod
    def from_str(cls, text: str, alphabet: Alphabet | None = None) -> "FiniteWord":
        alphabet = alphabet or Alphabet.for_text(text)
        return cls([alphabet.index(c) for c in text], alphabet)

    @property
    def letters(self) -> tuple[int, ...]:
        return tuple(self.data)

    def __len__(self):
        return len(self.data)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return FiniteWord(self.data[i], self.alphabet)
        return self.data[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.data)

    def __add__(self, other: "FiniteWord") -> "FiniteWord":
        if self.alphabet.size != other.alphabet.size:
            raise ValueError("alphabet mismatch")
        return FiniteWord(self.data + other.data, self.alphabet)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteWord)
            and self.data == other.data
            and self.alphabet.size == other.alphabet.size
        )

    def __hash__(self):
        return hash((self.data, self.alphabet.size))

    def count(self, letter: int) -> int:
        return self.data.count(letter)

    def reversal(self) -> "FiniteWord":
        return FiniteWord(self.data[::-1], self.alphabet)

    def is_palindrome(self) -> bool:
        return self.data == self.data[::-1]

    def as_str(self) -> str:
        return self.data.decode("latin-1").translate(_name_table(self.alphabet.names))

    def __repr__(self):
        return f"FiniteWord({self.as_str()!r})"


@lru_cache(maxsize=None)
def _name_table(names: tuple[str, ...]) -> dict[int, str]:
    """str.translate table from letters (decoded as latin-1) to display names."""
    return dict(enumerate(names))


class InfiniteWord:
    """A deterministic lazy infinite word with a memoized prefix buffer.

    ``grow(n)`` returns a prefix of at least n letters, or the whole word when
    it ends sooner; the word keeps what it returns as its buffer.  A grower
    may return the same append-only bytearray on every call, and should
    extend it by at least CHUNK letters at a time: a view reads one block of
    its parent's buffer per ``_fill`` call, from that slack, and never copies
    the buffer (u v^omega, which no view reads, adds min(n, CHUNK)).  A
    request past the end of a word that ends raises ValueError (the word is
    only defined up to the material the construction can supply).
    """

    def __init__(self, grow: Callable[[int], bytes | bytearray], alphabet: Alphabet, recipe: str):
        self.alphabet = alphabet
        self.recipe = recipe
        self._grow = grow
        self._buf: bytes | bytearray = b""
        self._lock = threading.RLock()

    def _fill(self, n: int) -> bytes | bytearray:
        """The buffer, holding at least n letters; ValueError past the cap or the end of the word."""
        _check_cap(n)
        with self._lock:
            if len(self._buf) < n:
                self._buf = self._grow(n)
            buf = self._buf
        if len(buf) < n:
            raise ValueError(f"{self.recipe}: word only defined up to length {len(buf)}")
        return buf

    def prefix_bytes(self, n: int) -> bytes:
        if n < 0:
            raise ValueError(f"prefix length must be non-negative, got {n}")
        return bytes(self._fill(n)[:n])

    def prefix(self, n: int) -> FiniteWord:
        return FiniteWord(self.prefix_bytes(n), self.alphabet)

    def letter(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"letter index must be non-negative, got {n}")
        return self._fill(n + 1)[n]

    def __repr__(self):
        return f"InfiniteWord({self.recipe})"


class UltimatelyPeriodicWord(InfiniteWord):
    """The word u v^omega in canonical form (primitive v, minimal preperiod)."""

    def __init__(self, preperiod: FiniteWord, period: FiniteWord):
        if len(period) == 0:
            raise ValueError("period must be non-empty")
        if preperiod.alphabet.size != period.alphabet.size:
            raise ValueError("alphabet mismatch")
        u, v = _canonical_uv(preperiod.data, period.data)
        alphabet = period.alphabet
        self.preperiod = FiniteWord(u, alphabet)
        self.period = FiniteWord(v, alphabet)
        label_u = self.preperiod.as_str()
        label_v = self.period.as_str()
        recipe = f"{label_u}|{label_v}" if label_u else f"({label_v})^w"
        super().__init__(lambda n: u + v * ((n + min(n, CHUNK) - len(u)) // len(v) + 1), alphabet, recipe)

    @classmethod
    def purely_periodic(cls, period: FiniteWord) -> "UltimatelyPeriodicWord":
        return cls(FiniteWord(b"", period.alphabet), period)

    @property
    def is_purely_periodic(self) -> bool:
        return len(self.preperiod) == 0

    def __eq__(self, other):
        return (
            isinstance(other, UltimatelyPeriodicWord)
            and self.preperiod == other.preperiod
            and self.period == other.period
        )

    def __hash__(self):
        return hash((self.preperiod, self.period))


def _canonical_uv(u: bytes, v: bytes) -> tuple[bytes, bytes]:
    """v cut to its primitive root, then the longest common suffix of u and ...vvv, s letters, moved into v (rotated by s).

    The root ends where v first recurs in vv.
    """
    v = v[: (v + v).find(v, 1)]
    s = _first_difference(u[::-1], v[::-1] * (len(u) // len(v) + 1))
    r = len(v) - s % len(v)
    return u[: len(u) - s], v[r:] + v[:r]


# ---------------------------------------------------------------------------
# lexicographic orders and comparison outcomes


class LexOrder(_FrozenRecord):
    """A total order on an alphabet, given as letters from smallest to largest."""

    _fields = ("by_rank",)

    def __init__(self, by_rank: tuple[int, ...]):
        if sorted(by_rank) != list(range(len(by_rank))):
            raise ValueError("order must be a permutation of 0..size-1")
        object.__setattr__(self, "by_rank", by_rank)

    @staticmethod
    def natural(size: int) -> "LexOrder":
        return LexOrder(tuple(range(size)))

    @staticmethod
    def from_text(text: str, alphabet: Alphabet) -> "LexOrder":
        letters = [alphabet.index(name) for name in text.split("<")]
        if sorted(letters) != list(range(alphabet.size)):
            raise ValueError(f"order {text!r} must list every letter exactly once")
        return LexOrder(tuple(letters))

    @property
    def table(self) -> bytes:
        """256-byte translation table mapping letters to their ranks."""
        return _rank_table(self.by_rank)

    def text(self, alphabet: Alphabet) -> str:
        return "<".join(alphabet.names[c] for c in self.by_rank)

    def __repr__(self):
        return f"LexOrder({'<'.join(map(str, self.by_rank))})"


def _rank_table(by_rank: tuple[int, ...]) -> bytes:
    return bytes.maketrans(bytes(by_rank), bytes(range(len(by_rank))))


class Relation(Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL_THROUGH_DEPTH = "equal-through-depth"


class ComparisonOutcome(_FrozenRecord):
    """Result of a depth-bounded lexicographic comparison.

    ``depth`` is the index of the first difference for a decided outcome, or
    the examined depth when the prefixes agree throughout.
    """

    _fields = ("relation", "depth")

    def __init__(self, relation: Relation, depth: int):
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "depth", depth)


def _first_difference(x: bytes, y: bytes) -> int:
    """Index of the first letter where x and y differ, or the shorter length if none does (one XOR, in C)."""
    n = min(len(x), len(y))
    diff = int.from_bytes(x[:n], "big") ^ int.from_bytes(y[:n], "big")
    return n - (diff.bit_length() + 7) // 8


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


def _check_binary(**words) -> None:
    """Refuse the first of ``words`` (named by its keyword) whose alphabet is not binary."""
    for name, w in words.items():
        if w.alphabet.size != 2:
            raise ValueError(f"binary words required: {name} has {w.alphabet.size} letters")


def _check_factor_length(data: bytes, k: int) -> None:
    if k < 1:
        raise ValueError("factor length must be positive")
    if k > len(data):
        raise ValueError(f"factor length {k} exceeds available material {len(data)}")


def _material(w: FiniteWord | InfiniteWord, prefix_length: int | None, default: int | None = None) -> bytes:
    """The material of w: a finite word whole, else its first prefix_length (or default) letters."""
    if (prefix_length or 0) < 0:
        raise ValueError(f"prefix length must be non-negative, got {prefix_length}")
    if isinstance(w, FiniteWord):
        return w.data
    n = default if prefix_length is None else prefix_length
    if n is None:
        raise ValueError("infinite word: a prefix length is required")
    return w.prefix_bytes(n)


# ---------------------------------------------------------------------------
# basic operations


def shift(w: FiniteWord | InfiniteWord, k: int = 1):
    """Shift map: drops k letters of an infinite word; circular shift of a finite one."""
    if k < 0:
        raise ValueError("shift count must be non-negative")
    if isinstance(w, InfiniteWord):
        return _image(w, bytes, w.alphabet, f"T^{k}({{}})".format, start=k) if k else w
    if len(w) == 0:
        raise ValueError("circular shift of the empty word is undefined")
    j = k % len(w)
    return FiniteWord(w.data[j:] + w.data[:j], w.alphabet)


_SWAP = bytes([1, 0]) + bytes(range(2, 256))


def complement(w: FiniteWord | InfiniteWord):
    """Exchange the two letters of a binary word."""
    _check_binary(w=w)
    return _image(w, lambda block: block.translate(_SWAP), w.alphabet, "complement({})".format)


def prepend(head: FiniteWord, tail: FiniteWord | InfiniteWord):
    """The word head . tail (alphabet sizes must agree)."""
    if head.alphabet.size != tail.alphabet.size:
        raise ValueError("alphabet mismatch")
    return _image(tail, bytes, tail.alphabet, lambda recipe: f"{head.as_str()}.{recipe}", head.data)


def _image(w, f: Callable, alphabet: Alphabet, recipe: Callable[[str], str], head: bytes = b"", start: int = 0):
    """The view head . f(w) over alphabet, for a map f of letter blocks with f(xy) = f(x) f(y).

    A finite word maps whole, and u v^omega as u[start:] and v rotated by the letters read
    past u.  Any other w gives a word named recipe(w.recipe) that reads w from letter
    ``start`` on, one block per ``_fill`` call and never past the cap, so w's own error names
    the first letter it cannot give.
    """
    if isinstance(w, FiniteWord):
        return FiniteWord(head + f(w.data), alphabet)
    if isinstance(w, UltimatelyPeriodicWord):
        u, v = head + f(w.preperiod.data[start:]), f(shift(w.period, max(0, start - len(w.preperiod))).data)
        return UltimatelyPeriodicWord(FiniteWord(u, alphabet), FiniteWord(v, alphabet))
    out = bytearray(head)
    read = start

    def grow(n: int) -> bytearray:
        nonlocal read
        while len(out) < n:
            block = w._fill(read + 1)[read : min(read + CHUNK, MAX_PREFIX)]
            out.extend(f(block))
            read += len(block)
        return out

    return InfiniteWord(grow, alphabet, recipe(w.recipe))


# ---------------------------------------------------------------------------
# serialization

def word_to_text(w: FiniteWord | UltimatelyPeriodicWord) -> str:
    """The two-line text of a ``file:`` word: letter names, then the body (u|v when periodic)."""
    names = ",".join(w.alphabet.names)
    if isinstance(w, UltimatelyPeriodicWord):
        return f"{names}\n{w.preperiod.as_str()}|{w.period.as_str()}\n"
    if isinstance(w, InfiniteWord):
        raise ValueError("only finite and ultimately periodic words serialize to text")
    return f"{names}\n{w.as_str()}\n"


def word_from_text(text: str) -> FiniteWord | UltimatelyPeriodicWord:
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) != 2:
        raise ValueError("expected two lines: alphabet, body")
    alphabet = Alphabet(tuple(name.strip() for name in lines[0].split(",")))
    body = lines[1].strip()
    if "|" in body:
        u_text, v_text = body.split("|", 1)
        return UltimatelyPeriodicWord(FiniteWord.from_str(u_text, alphabet), FiniteWord.from_str(v_text, alphabet))
    return FiniteWord.from_str(body, alphabet)

