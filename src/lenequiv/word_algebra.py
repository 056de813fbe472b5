"""Exact combinatorics of free groups: reduction, cyclic forms, conjugacy.

Words are tuples of signed generator indices: +i is the i-th generator,
-i its inverse.  Text I/O uses lowercase letters for generators and
uppercase for inverses ("aB" = a * b^-1).  The total order used for
canonical rotations is a < A < b < B < ... (generator before its inverse,
then by index).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .errors import AlphabetError, DegenerateInputError


@dataclass(frozen=True)
class SurfaceSpec:
    """Orientable surface with free fundamental group of rank >= 2."""

    genus: int
    boundary_components: int
    punctures: int = 0

    def __post_init__(self):
        g, b, p = self.genus, self.boundary_components, self.punctures
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


def letter_to_str(letter: int) -> str:
    idx = abs(letter) - 1
    if idx >= 26:
        raise AlphabetError("letter index %d too large for text form" % abs(letter))
    ch = chr(ord("a") + idx)
    return ch if letter > 0 else ch.upper()


@dataclass(frozen=True)
class Word:
    """A freely reduced word.  Construct via free_reduce/parse_word."""

    letters: tuple[int, ...] = ()

    def __str__(self) -> str:
        return "".join(letter_to_str(x) for x in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters


@dataclass(frozen=True)
class CyclicWord:
    """Canonical rotation of a cyclically reduced word; a conjugacy class."""

    letters: tuple[int, ...] = ()

    @property
    def key(self) -> str:
        return "".join(letter_to_str(x) for x in self.letters)

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


def _least_rotation(ranks: tuple[int, ...]) -> int:
    """Booth's algorithm: index of the lexicographically least rotation."""
    n = len(ranks)
    if n <= 1:
        return 0
    doubled = ranks + ranks
    f = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = doubled[j]
        i = f[j - k - 1]
        while i != -1 and sj != doubled[k + i + 1]:
            if sj < doubled[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != doubled[k + i + 1]:
            if sj < doubled[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


def cyclic_normal_form(u: Word) -> CyclicWord:
    """Canonical conjugacy-class representative: cyclically reduce, then
    take the lexicographically least rotation under a < A < b < B < ...

    Invariant under conjugation: cyclic_normal_form(conjugate(u, g)) ==
    cyclic_normal_form(u) for every g.
    """
    core = cyclic_reduce(u).letters
    if not core:
        return CyclicWord()
    ranks = tuple(_letter_rank(x) for x in core)
    k = _least_rotation(ranks)
    return CyclicWord(core[k:] + core[:k])


def are_conjugate(u: Word, v: Word) -> bool:
    return cyclic_normal_form(u) == cyclic_normal_form(v)


def is_conjugate_to_inverse(u: Word, v: Word) -> bool:
    return are_conjugate(u, invert(v))


def is_proper_power(u: Word) -> tuple[bool, Word, int]:
    """Least root r and maximal k with u conjugate to r^k (as cyclic words).

    The returned root is read off the canonical cyclic form, so it is a
    conjugacy representative of the actual root of u.
    """
    if u.is_identity:
        raise DegenerateInputError("identity word has no root")
    cyc = cyclic_normal_form(u).letters
    n = len(cyc)
    for d in range(1, n):
        if n % d:
            continue
        if cyc == cyc[d:] + cyc[:d]:
            return True, Word(cyc[:d]), n // d
    return False, Word(cyc), 1


def word_sort_key(letters: tuple[int, ...]) -> tuple:
    """Deterministic (length, letter-order) sort key for words."""
    return (len(letters), tuple(_letter_rank(x) for x in letters))


def enumerate_reduced_words(rank: int, max_len: int, min_len: int = 1) -> Iterator[tuple[int, ...]]:
    """All freely reduced words with min_len <= length <= max_len, in
    (length, letter-order) order.  Letter order is a < A < b < B < ...
    """
    alphabet = []
    for i in range(1, rank + 1):
        alphabet.append(i)
        alphabet.append(-i)
    if min_len == 0:
        yield ()
    level: list[tuple[int, ...]] = [()]
    for length in range(1, max_len + 1):
        nxt = []
        for w in level:
            last = w[-1] if w else 0
            for x in alphabet:
                if x == -last:
                    continue
                nxt.append(w + (x,))
        level = nxt
        if length >= min_len:
            yield from level
