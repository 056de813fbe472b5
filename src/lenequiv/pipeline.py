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
Filling is tested against the simple classes that the classification of
simple curves lists (the boundary classes of the pants, the primitive
classes of the one-holed torus), with exact intersection counts: a simple
curve never fills, and a "no" names a disjoint simple class.  A "yes" is
exact on the pants and for torus words of nonzero homology; for
null-homologous torus words it is evidence at the stated bound on the
candidates' length.  The sampled lengths that show the equal-length
verdict on given metrics belong to the report layer.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._records import same_class_equality
from .errors import DegenerateInputError, HypothesisViolationError
from .intersections import cyclic_order, exact_count, exact_counter, point_key
from .word_algebra import (
    Word,
    are_conjugate,
    compose,
    conjugate,
    cyclic_normal_form,
    invert,
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


def general_family(alpha: Word, beta: Word, g: Word, h: Word):
    """The function n -> build_pair_general(alpha, beta, g, h, n), with the
    inputs checked once, not once per n.

    g and h must name distinct points (intersections.point_key): when
    h = r g s with r, s powers of the roots of alpha and beta, right is
    left conjugated by r, for every n.  The hypothesis
    <alpha beta^g> = <alpha beta^h> is re-checked."""
    if point_key(g, alpha, beta) == point_key(h, alpha, beta):
        raise DegenerateInputError("degenerate pair: g and h name one intersection point, so left ~ right")
    beta_g, beta_h = conjugate(beta, g), conjugate(beta, h)
    if not are_conjugate(compose(alpha, beta_g), compose(alpha, beta_h)):
        raise HypothesisViolationError("<alpha beta^g> and <alpha beta^h> are not conjugate")

    def pair(n: int) -> CurvePair:
        if n < 1:
            raise ValueError("n must be a positive integer")
        alpha_n = power(alpha, n)
        return CurvePair(compose(alpha_n, beta_g), compose(alpha_n, beta_h), n, ("general", alpha, beta, g, h))

    return pair


def build_pair_general(alpha: Word, beta: Word, g: Word, h: Word, n: int) -> CurvePair:
    """The pair (alpha^n beta^g, alpha^n beta^h) for an equal-term witness
    pair (g, h) of distinct points; see general_family."""
    return general_family(alpha, beta, g, h)(n)


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


def _least_spelling(z: Word) -> Word:
    """The lesser cyclic normal form of z and z^-1 under word_sort_key: the
    spelling of z's unoriented class that comes first in (length, letter)
    order."""
    spellings = (cyclic_normal_form(z).letters, cyclic_normal_form(invert(z)).letters)
    return Word(min(spellings, key=word_sort_key))


def _slope_word(p: int, q: int) -> Word:
    """The simple class of homology p a + q b on the one-holed torus, for
    coprime p and q: the Christoffel word of slope |q|/|p|, with letter i of
    n = |p| + |q| the b-letter iff floor(i|q|/n) > floor((i-1)|q|/n).
    Read over a and b^sign(pq), it is the primitive class of that homology
    (Osborne-Zieschang 1981); (-p, -q) spells its inverse."""
    if p < 0:
        p, q = -p, -q
    n = p + abs(q)
    b = 2 if q > 0 else -2
    return Word(tuple(b if i * abs(q) // n > (i - 1) * abs(q) // n else 1 for i in range(1, n + 1)))


def _homology(w: Word) -> tuple[int, int]:
    """Exponent sums of a and b: the class of w in H_1 = Z^2."""
    x = w.letters
    return x.count(1) - x.count(-1), x.count(2) - x.count(-2)


def _peripherals(rep):
    peripherals = rep.peripheral_words()
    if peripherals is None:
        raise DegenerateInputError("peripheral classes unknown for this representation")
    return peripherals


def _on_torus(rep) -> bool:
    """True on the one-holed torus, where the simple classes are the
    primitive ones; on the pants they are the boundary classes.  These are
    the two surfaces whose peripheral classes the layout knows."""
    return rep.surface.genus == 1


def simple_candidates(rep, bound: int) -> tuple[Word, ...]:
    """The essential simple classes of word length <= bound, peripheral
    ones included: one per unoriented class, spelled by _least_spelling,
    sorted by (length, text) of unoriented_class_key.

    They come from the classification of simple curves, not a search.  On
    the pants every essential simple curve is a boundary curve.  On the
    one-holed torus the non-peripheral ones are the primitive classes, one
    Christoffel word per slope (Osborne-Zieschang 1981, Cohen-Metzler-
    Zimmermann 1981), and the peripheral one is the commutator.
    """
    classes = list(_peripherals(rep))
    if _on_torus(rep):
        for n in range(1, bound + 1):
            for p in range(n + 1):
                if math.gcd(p, n - p) == 1:
                    classes += [_slope_word(p, n - p), _slope_word(p, p - n)]
    spellings = {}
    for z in classes:
        if len(z.letters) <= bound:
            spellings.setdefault(unoriented_class_key(z), _least_spelling(z))
    return tuple(spellings[key] for key in sorted(spellings, key=lambda s: (len(s), s)))


def is_filling(w: Word, rep, scc_word_bound: int):
    """Filling verdict "yes" or "no", with details.

    "no" comes with an explicit witness: an essential non-peripheral
    simple class disjoint from w, or w itself when w is simple (a simple
    curve, or a power of one, fills nothing).  The candidate table counts
    w against every simple class of length <= scc_word_bound + 1, and its
    disjoint non-peripheral classes are the witnesses.

    "yes" is exact on the pants, whose simple classes are all peripheral,
    so w fills iff it is not simple.  It is exact on the one-holed torus
    when w's homology is not 0: a simple class z meets w at least
    |det(hom w, hom z)| times, so the one class that can miss w is the
    primitive class parallel to hom w, which is counted whatever its
    length.  For null-homologous torus words "yes" is evidence at the
    bound.  Returns (verdict, witnesses, candidate_table).
    """
    if scc_word_bound < 1:
        raise ValueError("scc_word_bound must be at least 1, got %d" % scc_word_bound)
    w = Word(cyclic_normal_form(w).letters)
    if w.is_identity:
        raise DegenerateInputError("the identity is not a curve")
    peripheral_keys = {unoriented_class_key(p) for p in _peripherals(rep)}
    order = cyclic_order(rep)
    w_key = unoriented_class_key(w)
    candidates = simple_candidates(rep, scc_word_bound + 1)
    parallel = ()  # the simple class parallel to hom w, on the torus
    h_a, h_b = _homology(w)
    if _on_torus(rep) and (h_a or h_b):
        d = math.gcd(h_a, h_b)
        parallel = (_least_spelling(_slope_word(h_a // d, h_b // d)),)
    # w's ends are built once, long enough for its own self-count too
    crossings = exact_counter(w, order, max(len(z.letters) for z in (w,) + candidates + parallel))
    witnesses = []
    table = []
    for z in candidates:
        z_key = unoriented_class_key(z)
        peripheral = z_key in peripheral_keys
        # z is simple, so its class meets <w> = <z> nowhere transversally
        count = 0 if z_key == w_key else crossings(z)
        table.append({"class": str(z), "peripheral": peripheral, "count": count})
        if not peripheral and count == 0:
            witnesses.append(z)
    if witnesses:
        witnesses.sort(key=lambda z: word_sort_key(z.letters))
        return "no", witnesses, table
    proper, root, _ = is_proper_power(w)
    if not (exact_count(root, root, order) if proper else crossings(w)):
        return "no", [w], table
    if parallel and not crossings(parallel[0]):
        return "no", list(parallel), table
    return "yes", [], table
