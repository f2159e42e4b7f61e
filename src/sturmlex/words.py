"""Finite and infinite words over small alphabets, with exact combinatorial analysis.

Letters are integers 0..size-1; display names are cosmetic.  Finite words are
immutable byte strings, so factor extraction and lexicographic scans run at
C speed.  Infinite words grow one memoized prefix buffer in chunks, on
demand; every analysis of an infinite word is explicitly performed on
a finite prefix supplied by the caller, and results are only claims about
that prefix.
"""

from __future__ import annotations

import os
import threading
from collections import Counter
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
    "reversal",
    "is_palindrome",
    "complement",
    "prepend",
    "factors",
    "complexity",
    "special_factors",
    "is_balanced",
    "balance_violation",
    "block_condition",
    "lex_compare",
    "detect_period",
    "classify_eventually_periodic",
    "word_to_text",
    "word_from_text",
]

# Safety cap for any single prefix evaluation; overridable via environment.
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

# Length at which Duval's loop checks if an equal run goes on as far again, and then finishes it in C.
_RUN = 16


def _check_cap(n: int, what: str = "prefix request {}") -> None:
    """ValueError naming what (n fills its {}) if n letters are more than one word may buffer."""
    if n > MAX_PREFIX:
        raise ValueError(f"{what.format(n)} exceeds cap {MAX_PREFIX} (STURMLEX_MAX_LEN)")


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
        """Digits 0..max for all-digit text, else letters a..max; at least two."""
        pool = "0123456789" if set(text) <= set("0123456789") else _LETTER_POOL
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
BINARY_AB = Alphabet(("a", "b"))


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

    def shifted(self, k: int) -> "InfiniteWord":
        if k < 0:
            raise ValueError("shift must be non-negative")
        return _image(self, bytes, self.alphabet, f"T^{k}({{}})".format, start=k) if k else self

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
    def size(self) -> int:
        return len(self.by_rank)

    @property
    def table(self) -> bytes:
        """256-byte translation table mapping letters to their ranks."""
        return _rank_table(self.by_rank)

    def text(self, alphabet: Alphabet) -> str:
        return "<".join(alphabet.names[c] for c in self.by_rank)

    def __repr__(self):
        return f"LexOrder({'<'.join(map(str, self.by_rank))})"


@lru_cache(maxsize=None)
def _rank_table(by_rank: tuple[int, ...]) -> bytes:
    table = bytearray(range(256))
    for rank, letter in enumerate(by_rank):
        table[letter] = rank
    return bytes(table)


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


def _material(w: FiniteWord | InfiniteWord, prefix_length: int | None, default: int | None = None) -> bytes:
    """The material of w: a finite word whole, else its first prefix_length (or default) letters."""
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
        return w.shifted(k)
    if len(w) == 0:
        raise ValueError("circular shift of the empty word is undefined")
    j = k % len(w)
    return FiniteWord(w.data[j:] + w.data[:j], w.alphabet)


def reversal(w: FiniteWord) -> FiniteWord:
    return w.reversal()


def is_palindrome(w: FiniteWord) -> bool:
    return w.is_palindrome()


_SWAP = bytes([1, 0]) + bytes(range(2, 256))


def complement(w: FiniteWord | InfiniteWord):
    """Exchange the two letters of a binary word."""
    if w.alphabet.size != 2:
        raise ValueError("complement requires a binary alphabet")
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
    return {data[i : i + n] for i in range(len(data) - n + 1)}


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


# ---------------------------------------------------------------------------
# serialization

def word_to_text(w: FiniteWord | UltimatelyPeriodicWord) -> str:
    """Two-line text form: letter names, then the word body (u|v when periodic)."""
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

