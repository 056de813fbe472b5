"""Enumeration of reduced words, and the simple classes found by scanning
them: a reference for the closed-form classification that
lenequiv.pipeline.simple_candidates uses.

The scan visits every reduced word up to the bound, so its cost triples
per letter; it is kept for tests, where the bounds stay small.
"""

from typing import Iterator

from lenequiv.intersections import exact_count
from lenequiv.word_algebra import Word, cyclic_normal_form, is_proper_power, unoriented_class_key


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


def scanned_simple_classes(order: tuple[int, ...], bound: int) -> tuple[Word, ...]:
    """Simple primitive classes of word length <= bound, one per unoriented
    class: the first cyclically reduced spelling the scan meets, sorted by
    (length, text) of unoriented_class_key."""
    seen: dict[str, Word] = {}
    for letters in enumerate_reduced_words(len(order) // 2, bound):
        w = Word(letters)
        cnf = cyclic_normal_form(w)
        if len(cnf.letters) != len(letters):
            continue  # keep only cyclically reduced representatives
        key = unoriented_class_key(w)
        if key in seen:
            continue
        proper, _, _ = is_proper_power(w)
        if proper:
            continue
        seen[key] = Word(cnf.letters)
    out = []
    for key in sorted(seen, key=lambda s: (len(s), s)):
        z = seen[key]
        if not exact_count(z, z, order):
            out.append(z)
    return tuple(out)
