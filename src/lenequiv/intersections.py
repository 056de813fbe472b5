"""Intersection points of closed geodesics via crossing axis translates.

A self-intersection of the geodesic of alpha corresponds to a double coset
<alpha> g <alpha> whose translate g.A_alpha crosses A_alpha; the two branch
views g and g^-1 describe the same point on the surface, so self keys are
canonicalized over both.  A mutual intersection of alpha and beta is a
double coset <alpha> h <beta> with A_alpha crossing h.A_beta.

Both cases share one walk over the word ball, one shell of word length at
a time; the coset key (a Word) decides identity and is the record's
witness.  Each record carries the crossing coordinate along A_alpha folded
into the fundamental period [0, tau_alpha), so the count never depends on
which lift of a point the walk reached first.  Completeness is heuristic-
by-stabilization: stabilization reads the count after each shell as the
walk proceeds and accepts it when two successive bounds agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    CertificationError,
    DegenerateInputError,
    DegeneracyError,
    InconclusiveEnumerationError,
)
from .sl2 import Axis, HPoint, axes_cross, axis, axis_coordinate, crossing_point_and_sign, mobius, same_axis
from .word_algebra import (
    Word,
    cyclic_normal_form,
    cyclic_reduce,
    invert,
    is_proper_power,
    junction_product,
    word_sort_key,
)

_EDGE_SNAP = 1e-9
STABILIZE_START = 4
STABILIZE_CAP = 12


@dataclass(frozen=True)
class IntersectionRecord:
    witness: Word
    point: HPoint
    sign: int
    axis_position: float  # crossing coordinate folded into [0, tau_alpha)


def _double_coset_min(g: Word, left: Word, right: Word) -> Word:
    """Minimal word in { left^i g right^j } by (length, letter order).

    Exhaustive search of the orbit's bounded sublevel set.  In the Cayley
    tree the length of left^i g right^j is jointly convex in (i, j), so a
    straight descent path from g to the global minimum stays at most one
    combined step above len(g); every word on it fits under the cap below,
    and the breadth search visits the whole capped region.

    All operands are freely reduced, so each of the eight moves is a
    junction product on letter tuples; only the minimum becomes a Word.
    The visited region and the minimum are those of the same search over
    Words.  The crossing walk computes one self key per pair {g, g^-1},
    because self_coset_key is symmetric under g -> g^-1.
    """
    moves_left = (left.letters, invert(left).letters)
    moves_right = (right.letters, invert(right).letters)
    start = g.letters
    cap = len(start) + len(left.letters) + len(right.letters)
    seen = {start}
    queue = [start]
    best = start
    best_key = word_sort_key(start)
    while queue:
        x = queue.pop()
        nearby = [junction_product(u, x) for u in moves_left]
        nearby += [junction_product(x, w) for w in moves_right]
        nearby += [junction_product(u, junction_product(x, w)) for u in moves_left for w in moves_right]
        for cand in nearby:
            if len(cand) > cap or cand in seen:
                continue
            seen.add(cand)
            queue.append(cand)
            if len(cand) <= best_key[0]:
                key = word_sort_key(cand)
                if key < best_key:
                    best, best_key = cand, key
    return Word(best)


def self_coset_key(g: Word, alpha: Word) -> Word:
    """Canonical key over <alpha> g <alpha> and <alpha> g^-1 <alpha>; the
    same for g and g^-1."""
    m1 = _double_coset_min(g, alpha, alpha)
    m2 = _double_coset_min(invert(g), alpha, alpha)
    return min((m1, m2), key=lambda w: word_sort_key(w.letters))


def mutual_coset_key(h: Word, alpha: Word, beta: Word) -> Word:
    return _double_coset_min(h, alpha, beta)


def _require_cyclically_reduced(w: Word, name: str):
    if w.is_identity:
        raise DegenerateInputError("%s must be a nonempty word" % name)
    if cyclic_reduce(w).letters != w.letters:
        raise DegenerateInputError("%s must be cyclically reduced" % name)


def _require_certified(rep):
    if rep.certificate is None:
        raise CertificationError("representation carries no ping-pong certificate")


def _is_power_of(g: Word, alpha: Word) -> bool:
    la, lg = len(alpha.letters), len(g.letters)
    if lg == 0:
        return True
    if lg % la:
        return False
    k = lg // la
    # alpha is cyclically reduced, so alpha^k is alpha's letters k times over
    return g.letters in (alpha.letters * k, invert(alpha).letters * k)


def _folded_position(ax: Axis, p: HPoint) -> float:
    """Crossing coordinate folded into the fundamental period [0, tau).

    Lifts of one surface point sit at s + k*tau exactly, so folding the
    coordinate of whichever lift was found (the numerically healthiest one
    the ball produced) yields the in-window representative's coordinate.
    Deduplication is by double coset; the coordinate is reporting data.
    """
    s = axis_coordinate(ax, p)
    tau = ax.translation_length
    s -= tau * math.floor(s / tau)
    if s <= _EDGE_SNAP or tau - s <= _EDGE_SNAP:
        s = 0.0
    return s


def _crossing_walk(alpha: Word, beta: Word, rep, cap: int):
    """Yield (bound, records with witnesses of length <= bound) for bound = 0..cap.

    The ball is walked one shell at a time in (length, letter order), and
    each double coset keeps the first lift that crosses, so the records
    after shell k are exactly what an enumeration at bound k finds.  When
    beta is alpha's class this is the self case: witnesses that are powers
    of alpha are skipped and keys are canonicalized over g and g^-1.
    """
    _require_cyclically_reduced(alpha, "alpha")
    _require_cyclically_reduced(beta, "beta")
    _require_certified(rep)
    self_case = cyclic_normal_form(beta) == cyclic_normal_form(alpha)
    if self_case and is_proper_power(alpha)[0]:
        raise DegenerateInputError("alpha must not be a proper power")
    if not self_case and cyclic_normal_form(beta) == cyclic_normal_form(invert(alpha)):
        raise DegenerateInputError("beta is conjugate to alpha^-1")
    ax = axis(rep.evaluate(alpha))
    ax_beta = ax if self_case else axis(rep.evaluate(beta))
    found: dict[Word, IntersectionRecord] = {}
    inverse_keys: dict[tuple[int, ...], Word] = {}  # self keys awaiting g^-1's turn
    for bound in range(cap + 1):
        for letters, m_g in rep.shell(bound):
            g = Word(letters)
            if self_case and _is_power_of(g, alpha):
                continue
            translate = Axis(
                mobius(m_g, ax_beta.repelling), mobius(m_g, ax_beta.attracting), ax_beta.translation_length
            )
            if same_axis(ax, translate):
                continue
            try:
                if not axes_cross(ax, translate):
                    continue
                p, sign = crossing_point_and_sign(ax, translate)
            except DegeneracyError:
                continue  # boundary-scale lift; the coset's healthy lifts still count it
            s = _folded_position(ax, p)
            if not self_case:
                key = mutual_coset_key(g, alpha, beta)
            else:
                # g^-1 lies in this shell and its translate crosses iff g's
                # does; self keys are symmetric in g <-> g^-1, so one search
                # serves both
                key = inverse_keys.pop(letters, None)
                if key is None:
                    key = self_coset_key(g, alpha)
                    inverse_keys[invert(g).letters] = key
            if key not in found:
                found[key] = IntersectionRecord(witness=key, point=p, sign=sign, axis_position=s)
        yield bound, sorted(found.values(), key=lambda r: word_sort_key(r.witness.letters))


def self_intersections(alpha: Word, rep, word_bound: int) -> list[IntersectionRecord]:
    """One record per self-intersection point of the closed geodesic of alpha.

    Enumerates witnesses g with |g| <= word_bound, g not a power of alpha,
    whose translate axis crosses A_alpha; deduplicates over the double
    action g -> alpha^i g alpha^j and over the branch swap g -> g^-1, and
    reports each point at its fundamental-period coordinate.
    """
    *_, (_, records) = _crossing_walk(alpha, alpha, rep, word_bound)
    return records


def mutual_intersections(alpha: Word, beta: Word, rep, word_bound: int) -> list[IntersectionRecord]:
    """One record per intersection point of the geodesics of alpha and beta.

    Gives the self records when beta is alpha's class; rejects
    beta ~ alpha^-1 (the bracket construction excludes inverse classes).
    """
    *_, (_, records) = _crossing_walk(alpha, beta, rep, word_bound)
    return records


def stabilized_intersections(
    alpha: Word, beta: Word, rep, start: int = STABILIZE_START, cap: int = STABILIZE_CAP
) -> tuple[list[IntersectionRecord], int]:
    """(records, bound) at the first bound >= start + 1 whose count agrees
    with the count one bound lower, reading counts as the walk proceeds."""
    counts = []
    for bound, records in _crossing_walk(alpha, beta, rep, cap):
        if bound < start:
            continue
        counts.append(len(records))
        if len(counts) > 1 and counts[-1] == counts[-2]:
            return records, bound
    raise InconclusiveEnumerationError(
        "intersection count did not stabilize by bound %d" % cap, cap=cap, counts=counts
    )
