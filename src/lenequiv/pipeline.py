"""Construction and verification of length-equivalent curve pairs.

The self family comes from a self-intersection witness g of a curve alpha:

    left  = alpha^n * (g alpha g^-1)
    right = (g alpha g^-1)^n * alpha

Conjugating right by g^-1 and rotating shows right ~ alpha^n * alpha^(g^-1),
so the pair is also the general family at (beta, g, h) = (alpha, g, g^-1).
Equal length for every metric follows from the exact trace identity
tr(A^n B) = tr(B^n A) on the equal-trace locus, once the pair's terms are
conjugate; non-conjugacy and not-conjugate-to-inverse are exact
cyclic-word decisions.  None of these verdicts reads a representation.
Filling is tested against enumerated simple classes, with exact
intersection counts: a simple curve never fills, a "no" names a disjoint
simple class, and a "yes" is evidence at the stated bound on the
candidates' length, never a completeness claim.  The sampled lengths that
show the equal-length verdict on given metrics belong to the report layer.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from ._records import same_class_equality
from .errors import DegenerateInputError, HypothesisViolationError
from .intersections import cyclic_order, exact_count
from .word_algebra import (
    Word,
    are_conjugate,
    compose,
    conjugate,
    cyclic_normal_form,
    enumerate_reduced_words,
    is_conjugate_to_inverse,
    is_proper_power,
    power,
    unoriented_class_key,
    word_sort_key,
)


@same_class_equality
class CurvePair(NamedTuple):
    left: Word
    right: Word
    n: int
    provenance: tuple  # ("self", alpha, g) | ("general", alpha, beta, g, h)


def build_pair_self(alpha: Word, g: Word, n: int) -> CurvePair:
    """The pair (alpha^n alpha^g, (alpha^g)^n alpha) for a self-intersection
    witness g."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    conj_copy = conjugate(alpha, g)
    left = compose(power(alpha, n), conj_copy)
    right = compose(power(conj_copy, n), alpha)
    return CurvePair(left, right, n, ("self", alpha, g))


def build_pair_general(alpha: Word, beta: Word, g: Word, h: Word, n: int) -> CurvePair:
    """The pair (alpha^n beta^g, alpha^n beta^h) for an equal-term witness
    pair; re-checks the hypothesis <alpha beta^g> = <alpha beta^h>."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if g.letters == h.letters:
        raise DegenerateInputError("degenerate pair: g = h gives left = right")
    term_g = compose(alpha, conjugate(beta, g))
    term_h = compose(alpha, conjugate(beta, h))
    if not are_conjugate(term_g, term_h):
        raise HypothesisViolationError("<alpha beta^g> and <alpha beta^h> are not conjugate")
    left = compose(power(alpha, n), conjugate(beta, g))
    right = compose(power(alpha, n), conjugate(beta, h))
    return CurvePair(left, right, n, ("general", alpha, beta, g, h))


def check_equal_length_symbolic(pair: CurvePair) -> bool:
    """The part of the metric-free equal-length verdict that depends on
    the pair: are its terms conjugate?

    The trace identity tr(A^n B) = tr(B^n A) holds exactly on the
    equal-trace locus, for every n (trace_poly.trace_identity checks it
    over a range of n in one pass).  Both families lie on the locus when
    their terms are conjugate: alpha and alpha^g, and beta^g and beta^h,
    are conjugate by construction, so the one condition left to check is
    <alpha beta^g> = <alpha beta^h> for the general family.  Conjugate
    words have equal traces in every representation, so with the
    identity the verdict holds for every metric.
    """
    if pair.provenance[0] == "self":
        return True
    _, alpha, beta, g, h = pair.provenance
    return are_conjugate(compose(alpha, conjugate(beta, g)), compose(alpha, conjugate(beta, h)))


def check_nonconjugate(pair: CurvePair) -> tuple[bool, bool]:
    """(left not conjugate to right, left not conjugate to right^-1).
    Exact, metric-independent."""
    return (
        not are_conjugate(pair.left, pair.right),
        not is_conjugate_to_inverse(pair.left, pair.right),
    )


def find_min_N(alpha: Word, g: Word, n_max: int):
    """Least N with both non-conjugacy verdicts passing for every n in
    (N, n_max]; returns (N or None, per-n table).  The table rows are
    (n, nonconjugate, not_conjugate_to_inverse); nothing is extrapolated
    beyond n_max.  The n = 1 members alpha alpha^g and alpha^g alpha are
    conjugate (xy against yx), so n = 1 always fails and N >= 1."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    table = []
    for n in range(1, n_max + 1):
        table.append((n, *check_nonconjugate(build_pair_self(alpha, g, n))))
    n_observed = max(n for n, nonconj, not_inv in table if not (nonconj and not_inv))
    if n_observed >= n_max:
        return None, table
    return n_observed, table


def simple_candidates(rep, bound: int):
    """Simple (zero self-intersection) primitive classes of word length
    <= bound, one representative per unoriented conjugacy class, sorted.
    They depend on the representation only through its cyclic order."""
    return _simple_classes(cyclic_order(rep), bound)


@functools.lru_cache(maxsize=16)
def _simple_classes(order: tuple[int, ...], bound: int) -> tuple[Word, ...]:
    """Cached for the 16 most recent (cyclic order, bound) pairs, so every
    seed of a run shares one scan, and every caller gets the same tuple."""
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


def is_filling(w: Word, rep, scc_word_bound: int):
    """Filling verdict {"yes" | "no" | "inconclusive"} with details.

    "no" comes with an explicit witness: an essential non-peripheral
    simple class disjoint from w, or w itself when w is simple (a simple
    curve, or a power of one, fills nothing).  "yes" means w is not simple,
    every essential non-peripheral simple class of length <=
    scc_word_bound + 1 intersects w, and some candidate has length <=
    scc_word_bound — evidence at the bound, not a proof.
    Returns (verdict, witnesses, candidate_table).
    """
    w = Word(cyclic_normal_form(w).letters)
    if w.is_identity:
        raise DegenerateInputError("the identity is not a curve")
    peripherals = rep.peripheral_words()
    if peripherals is None:
        raise DegenerateInputError("peripheral classes unknown for this representation")
    order = cyclic_order(rep)
    w_key = unoriented_class_key(w)
    peripheral_keys = {unoriented_class_key(p) for p in peripherals}
    witnesses = []
    table = []
    candidates = simple_candidates(rep, scc_word_bound + 1)
    for z in candidates:
        z_key = unoriented_class_key(z)
        peripheral = z_key in peripheral_keys
        if z_key == w_key:
            count = 0  # z is simple, so its class meets <w> = <z> nowhere transversally
        else:
            count = exact_count(z, w, order)
        table.append({"class": str(z), "peripheral": peripheral, "count": count})
        if not peripheral and count == 0:
            witnesses.append(z)
    if witnesses:
        witnesses.sort(key=lambda z: word_sort_key(z.letters))
        return "no", witnesses, table
    _, root, _ = is_proper_power(w)
    if not exact_count(root, root, order):
        return "no", [w], table
    if not any(len(z.letters) <= scc_word_bound for z in candidates):
        return "inconclusive", [], table
    return "yes", [], table
