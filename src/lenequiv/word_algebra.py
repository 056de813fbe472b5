"""Exact combinatorics of free groups: reduction, cyclic forms, conjugacy.

Words are tuples of signed generator indices: +i is the i-th generator,
-i its inverse.  Text I/O uses lowercase letters for generators and
uppercase for inverses ("aB" = a * b^-1).  The total order used for
canonical rotations is a < A < b < B < ... (generator before its inverse,
then by index).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from ._records import FrozenRecord
from .errors import AlphabetError, DegenerateInputError

# least translation parameter t a sampled representation may ask for: a
# generator conjugate to diag(t, 1/t) with t near 1 has ping-pong intervals
# too wide to be disjoint
SPREAD_FLOOR = 1.5


class SurfaceSpec(FrozenRecord):
    """Orientable surface with free fundamental group of rank >= 2."""

    __slots__ = ("genus", "boundary_components", "punctures")

    def __init__(self, genus: int, boundary_components: int, punctures: int = 0):
        g, b, p = genus, boundary_components, punctures
        object.__setattr__(self, "genus", g)
        object.__setattr__(self, "boundary_components", b)
        object.__setattr__(self, "punctures", p)
        if g < 0 or b < 0 or p < 0:
            raise ValueError("surface parameters must be nonnegative")
        if 2 - 2 * g - b - p >= 0:
            raise ValueError("Euler characteristic must be negative")
        if b + p < 1:
            raise ValueError("need at least one boundary component or puncture")
        if self.rank < 2:
            raise ValueError("fundamental group rank must be at least 2")

    @property
    def euler_characteristic(self) -> int:
        return 2 - 2 * self.genus - self.boundary_components - self.punctures

    @property
    def rank(self) -> int:
        return 2 * self.genus + self.boundary_components + self.punctures - 1


def _letter_rank(letter: int) -> int:
    # a -> 0, A -> 1, b -> 2, B -> 3, ...
    return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)


# signed letter -> its text: +1 -> "a", -1 -> "A", ..., -26 -> "Z"
_LETTER_TEXT = {
    sign * i: chr((ord("a") if sign > 0 else ord("A")) + i - 1)
    for i in range(1, 27)
    for sign in (1, -1)
}


# letter text -> a character that sorts by _letter_rank: a < A < b < B < ...
_RANK_TEXT = str.maketrans({text: chr(_letter_rank(x)) for x, text in _LETTER_TEXT.items()})


def letters_to_str(letters: Iterable[int]) -> str:
    """Text form of a letter sequence ("aB" for (1, -2)), one table lookup
    per letter."""
    try:
        return "".join(map(_LETTER_TEXT.__getitem__, letters))
    except KeyError as exc:
        raise AlphabetError("letter %d has no text form (a-z only)" % exc.args[0]) from None


def letter_to_str(letter: int) -> str:
    return letters_to_str((letter,))


class _Letters(FrozenRecord):
    """A letter tuple as an immutable record.  Equality and hash read the
    one field directly, as they run in the inner loops."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[int, ...] = ()):
        _set_letters(self, letters)

    def _values(self) -> tuple:
        return (self.letters,)  # a subclass's own __slots__ is empty

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.letters == other.letters
        return NotImplemented

    def __hash__(self):
        return hash((self.letters,))

    def __repr__(self) -> str:
        return "%s(letters=%r)" % (type(self).__qualname__, self.letters)


_set_letters = _Letters.letters.__set__  # the slot's own setter, past __setattr__


class Word(_Letters):
    """A freely reduced word.  Construct via free_reduce/parse_word."""

    __slots__ = ()

    def __str__(self) -> str:
        return letters_to_str(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters


class CyclicWord(_Letters):
    """Canonical rotation of a cyclically reduced word; a conjugacy class."""

    __slots__ = ()

    @property
    def key(self) -> str:
        return letters_to_str(self.letters)

    def __str__(self) -> str:
        return self.key


def _check_letters(letters: Iterable[int], rank: Optional[int] = None) -> tuple[int, ...]:
    out = tuple(letters)
    for x in out:
        if x == 0:
            raise AlphabetError("letter 0 is not a generator")
        if rank is not None and abs(x) > rank:
            raise AlphabetError("letter %d outside rank-%d alphabet" % (x, rank))
    return out


def free_reduce(raw: Iterable[int], rank: Optional[int] = None) -> Word:
    """Freely reduce a raw letter sequence (cancel adjacent inverse pairs)."""
    stack: list[int] = []
    for x in _check_letters(raw, rank):
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return Word(tuple(stack))


def junction_product(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """Letters of the product of two freely reduced letter tuples.

    Each operand is already reduced, so cancellation happens only where
    they meet: strip the tail of u that matches the inverse of v's head.
    """
    n = min(len(u), len(v))
    i = 0
    while i < n and u[-1 - i] == -v[i]:
        i += 1
    return u[: len(u) - i] + v[i:]


def parse_word(text: str, rank: Optional[int] = None) -> Word:
    """Parse "aB" style text into a freely reduced Word."""
    letters = []
    for ch in text:
        if ch in " \t":
            continue
        if not ch.isalpha():
            raise AlphabetError("invalid character %r in word" % ch)
        idx = ord(ch.lower()) - ord("a") + 1
        letters.append(idx if ch.islower() else -idx)
    return free_reduce(letters, rank)


def word_str(w: Word) -> str:
    return str(w)


def compose(u: Word, v: Word) -> Word:
    """u * v.  Both operands must be freely reduced (the Word invariant);
    only the junction between them is cancelled."""
    return Word(junction_product(u.letters, v.letters))


def invert(u: Word) -> Word:
    return Word(tuple(-x for x in reversed(u.letters)))


def power(u: Word, n: int) -> Word:
    if n == 0:
        return Word()
    base = u if n > 0 else invert(u)
    return free_reduce(base.letters * abs(n))


def conjugate(u: Word, g: Word) -> Word:
    """g * u * g^-1."""
    return free_reduce(g.letters + u.letters + invert(g).letters)


def cyclic_reduce(u: Word) -> Word:
    """Strip matching first/last inverse pairs until cyclically reduced."""
    letters = u.letters
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    return Word(letters[i:j])


def _common_prefix(d: str, i: int, j: int, n: int) -> int:
    """Length of the common prefix of d[i:i+n] and d[j:j+n], at most n.

    Gallops over slices of 1, 2, 4, ... letters, then halves the first
    unequal slice; each slice comparison runs at C speed, so the Python
    steps are O(log k) and the letters compared O(k) for a prefix of k.
    """
    lo, step = 0, 1  # d[i:i+lo] == d[j:j+lo]
    while True:
        hi = min(lo + step, n)
        if d[i + lo : i + hi] != d[j + lo : j + hi]:
            break
        lo = hi
        if lo == n:
            return n
        step *= 2
    while hi - lo > 1:  # d[i+lo:i+hi] differs from d[j+lo:j+hi]
        mid = (lo + hi) // 2
        if d[i + lo : i + mid] == d[j + lo : j + mid]:
            lo = mid
        else:
            hi = mid
    return lo


def _least_rotation(s: str) -> int:
    """Index of the least rotation of s (the first one if s is periodic).

    The two-pointer minimum-rotation scan over d = s + s, with the best
    start i and a challenger j > i, both at the least letter of s.  At their
    first disagreement, k letters in, the loser's starts up to k past it are
    ruled out, so i + j grows by at least k + 1 each round.  Each stretch of
    k equal letters is measured by _common_prefix in O(log k) slice
    comparisons of O(k) letters in total: O(n) letters at C speed overall
    (within O(n log n), never O(n^2)), and Python steps per mismatch, not
    per letter.
    """
    n = len(s)
    d = s + s
    least = min(s)
    i = s.find(least)
    j = i + 1
    while True:
        j = s.find(least, j)  # a least rotation starts with the least letter
        if j < 0:
            return i
        k = _common_prefix(d, i, j, n)
        if k == n:  # s is periodic with period j - i
            return i
        if d[i + k] < d[j + k]:
            j += k + 1
        else:
            i, j = j, max(i + k + 1, j + 1)


def cyclic_normal_form(u: Word) -> CyclicWord:
    """Canonical conjugacy-class representative: cyclically reduce, then
    take the lexicographically least rotation under a < A < b < B < ...

    The core becomes text by one table lookup per letter and one
    str.translate into characters that sort in that order; the rotation is
    then found by _least_rotation in O(n) letter comparisons at C speed and
    Python steps per mismatch.

    Invariant under conjugation: cyclic_normal_form(conjugate(u, g)) ==
    cyclic_normal_form(u) for every g.
    """
    core = cyclic_reduce(u).letters
    if not core:
        return CyclicWord()
    k = _least_rotation(letters_to_str(core).translate(_RANK_TEXT))
    return CyclicWord(core[k:] + core[:k])


def unoriented_class_key(w: Word) -> str:
    """Least cyclic normal form key of w and w^-1 (of equal length)."""
    return min(cyclic_normal_form(w).key, cyclic_normal_form(invert(w)).key)


def are_conjugate(u: Word, v: Word) -> bool:
    return cyclic_normal_form(u) == cyclic_normal_form(v)


def is_conjugate_to_inverse(u: Word, v: Word) -> bool:
    return are_conjugate(u, invert(v))


def primitive_root(u: Word) -> Word:
    """The word r with u = r^k for the largest k: u itself when u is not a
    proper power.  A power of a conjugate c r c^-1 keeps the c letters."""
    core = cyclic_reduce(u).letters
    n = len(core)
    for d in range(1, n):
        if not n % d and core == core[d:] + core[:d]:
            i = (len(u.letters) - n) // 2
            return Word(u.letters[:i] + core[:d] + u.letters[i + n :])
    return u


def is_proper_power(u: Word) -> tuple[bool, Word, int]:
    """Least root r and maximal k with u conjugate to r^k (as cyclic words).

    The returned root is read off the canonical cyclic form, so it is a
    conjugacy representative of the actual root of u.
    """
    if u.is_identity:
        raise DegenerateInputError("identity word has no root")
    cyc = Word(cyclic_normal_form(u).letters)
    r = primitive_root(cyc)
    k = len(cyc.letters) // len(r.letters)
    return k > 1, r, k


def word_sort_key(letters: tuple[int, ...]) -> tuple:
    """Deterministic (length, letter-order) sort key for words."""
    return (len(letters), tuple(_letter_rank(x) for x in letters))
