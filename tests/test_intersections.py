"""Geodesic intersection enumeration.

Primary oracle: on the one-holed torus the geometric intersection number
of simple classes equals |p q' - q p'| of their homology vectors, and
Christoffel-type words in a, b are simple.  The enumerator must reproduce
those numbers exactly, with no dependence on the word-ball bound.
"""

import itertools
import math

import pytest

from lenequiv.errors import (
    CertificationError,
    DegenerateInputError,
    InconclusiveEnumerationError,
)
from lenequiv.fuchsian import Representation
from lenequiv.intersections import (
    mutual_coset_key,
    mutual_intersections,
    self_coset_key,
    self_intersections,
    stabilized_intersections,
)
from lenequiv.sl2 import axis, translation_length
from lenequiv.word_algebra import (
    Word,
    compose,
    enumerate_reduced_words,
    free_reduce,
    invert,
    parse_word,
    power,
    word_sort_key,
)

# Christoffel-type simple classes on the one-holed torus with homology (p, q)
SIMPLE_TORUS = {
    "a": (1, 0),
    "b": (0, 1),
    "ab": (1, 1),
    "aB": (1, -1),
    "aab": (2, 1),
    "abb": (1, 2),
    "aaab": (3, 1),
    "abbb": (1, 3),
}


def w(text):
    return parse_word(text, rank=2)


def stable_count(alpha, beta, rep):
    return len(stabilized_intersections(alpha, beta, rep)[0])


# ------------------------------------------------------------ figure eight


def test_figure_eight_has_one_self_intersection(pants_rep):
    for bound in (6, 7, 8):
        recs = self_intersections(w("ab"), pants_rep, bound)
        assert len(recs) == 1, bound
    (rec,) = self_intersections(w("ab"), pants_rep, 8)
    assert str(rec.witness) == "a"
    assert rec.sign == 1
    tau = translation_length(pants_rep.evaluate(w("ab")))
    assert 0.0 <= rec.axis_position < tau


def test_simple_classes_have_no_self_intersections(torus_rep, pants_rep):
    assert self_intersections(w("aB"), pants_rep, 8) == []
    assert self_intersections(w("ab"), torus_rep, 8) == []
    assert self_intersections(w("aB"), torus_rep, 8) == []


def test_pinned_self_counts(torus_rep, pants_rep):
    cases = [
        (pants_rep, "aab", 2),
        (pants_rep, "abb", 2),
        (pants_rep, "aabb", 3),
        (pants_rep, "aabab", 6),
        (torus_rep, "aabb", 1),
        (torus_rep, "abaB", 1),
    ]
    for rep, word, want in cases:
        records, bound = stabilized_intersections(w(word), w(word), rep)
        assert len(records) == want, word
        assert bound <= 8


# ------------------------------------------------------------ mutual counts


def test_pinned_generator_crossing(torus_rep):
    recs = mutual_intersections(w("a"), w("b"), torus_rep, 6)
    assert len(recs) == 1
    (rec,) = recs
    assert rec.witness.is_identity
    assert rec.witness == Word(())
    assert rec.sign == -1
    assert rec.point.x == pytest.approx(0.0, abs=1e-12)
    assert rec.point.y == pytest.approx(1.0, rel=1e-12)
    assert rec.axis_position == 0.0
    # swapping the arguments flips the crossing frame
    assert mutual_intersections(w("b"), w("a"), torus_rep, 6)[0].sign == +1


def test_intersection_numbers_match_homology_oracle(torus_rep):
    for (w1, (p1, q1)), (w2, (p2, q2)) in itertools.combinations(SIMPLE_TORUS.items(), 2):
        want = abs(p1 * q2 - q1 * p2)
        assert stable_count(w(w1), w(w2), torus_rep) == want, (w1, w2)


def test_regression_unbalanced_pair_not_overcounted(torus_rep):
    # b vs abbb once returned 2: a ball witness in the identity double coset
    # was canonicalized too lazily and split off a phantom point
    assert stable_count(w("b"), w("abbb"), torus_rep) == 1
    assert stable_count(w("a"), w("aaaab"), torus_rep) == 1


def test_pants_mutual_counts(pants_rep):
    cases = [("ab", "aab", 2), ("ab", "abb", 2), ("aab", "abb", 2), ("ab", "aabb", 4)]
    for w1, w2, want in cases:
        assert stable_count(w(w1), w(w2), pants_rep) == want, (w1, w2)
    # disjoint from the cuffs
    for cuff in ("a", "b", "aB"):
        assert stable_count(w("ab"), w(cuff), pants_rep) == 0, cuff


def test_power_multiplies_intersection_count(torus_rep, pants_rep):
    for n in (2, 3):
        assert stable_count(power(w("a"), n), w("b"), torus_rep) == n
        assert stable_count(power(w("ab"), n), w("aab"), pants_rep) == 2 * n


# --------------------------------------------------------------- coset keys


def reference_double_coset_min(g, left, right):
    """The key search over Words: every move is a full free reduction of the
    concatenation, and each candidate is a Word.  Same moves, cap and order
    as the library's search over letter tuples."""

    def product(u, v):
        return free_reduce(u.letters + v.letters)

    moves_left = (left, invert(left))
    moves_right = (right, invert(right))
    cap = len(g) + len(left) + len(right)
    seen = {g.letters}
    queue = [g]
    best = g
    while queue:
        x = queue.pop()
        nearby = [product(u, x) for u in moves_left]
        nearby += [product(x, v) for v in moves_right]
        nearby += [product(u, product(x, v)) for u in moves_left for v in moves_right]
        for cand in nearby:
            if len(cand) > cap or cand.letters in seen:
                continue
            seen.add(cand.letters)
            queue.append(cand)
            if word_sort_key(cand.letters) < word_sort_key(best.letters):
                best = cand
    return best


# alpha = beta, unequal lengths, and length-1 words
ORACLE_PAIRS = [("ab", "ab"), ("aabb", "aabb"), ("ab", "aabaB"), ("aB", "abb"), ("a", "b"), ("b", "abbb")]


@pytest.mark.parametrize("alpha_text, beta_text", ORACLE_PAIRS)
def test_coset_keys_match_word_search_oracle(alpha_text, beta_text):
    alpha, beta = w(alpha_text), w(beta_text)
    for letters in enumerate_reduced_words(2, 5, min_len=0):
        g = Word(letters)
        assert mutual_coset_key(g, alpha, beta) == reference_double_coset_min(g, alpha, beta), str(g)
        want = min(
            reference_double_coset_min(g, alpha, alpha),
            reference_double_coset_min(invert(g), alpha, alpha),
            key=lambda k: word_sort_key(k.letters),
        )
        assert self_coset_key(g, alpha) == want, str(g)


def test_mutual_coset_key_overlapping_axes():
    # the alpha-axis and the g.beta-axis overlap here; a greedy descent over
    # the eight moves stops at aB, the full search finds A
    assert mutual_coset_key(w("BB"), w("ab"), w("aabaB")) == w("A")


def test_mutual_coset_key_regression():
    # A = b^3 (abbb)^-1, so <b> A <abbb> is the identity coset
    assert mutual_coset_key(w("A"), w("b"), w("abbb")) == Word(())
    assert mutual_coset_key(w("bbA"), w("b"), w("abbb")) == Word(())


def test_coset_keys_invariant_under_subgroup_action():
    alpha, beta, g = w("ab"), w("aab"), w("baB")
    key = mutual_coset_key(g, alpha, beta)
    assert mutual_coset_key(compose(alpha, g), alpha, beta) == key
    assert mutual_coset_key(compose(g, beta), alpha, beta) == key
    assert mutual_coset_key(compose(power(alpha, -2), compose(g, beta)), alpha, beta) == key
    skey = self_coset_key(g, alpha)
    assert self_coset_key(invert(g), alpha) == skey  # branch swap
    assert self_coset_key(compose(alpha, compose(g, power(alpha, 2))), alpha) == skey


def test_records_are_sorted_and_canonical(pants_rep):
    recs = self_intersections(w("aabab"), pants_rep, 8)
    keys = [word_sort_key(r.witness.letters) for r in recs]
    assert keys == sorted(keys)
    tau = translation_length(pants_rep.evaluate(w("aabab")))
    for r in recs:
        assert self_coset_key(r.witness, w("aabab")) == r.witness
        assert 0.0 <= r.axis_position < tau
        assert r.sign in (-1, 1)
        assert r.point.y > 0.0


# ------------------------------------------------------------ input policing


def test_rejects_identity_and_unreduced_words(torus_rep):
    with pytest.raises(DegenerateInputError):
        self_intersections(w(""), torus_rep, 6)
    with pytest.raises(DegenerateInputError):
        self_intersections(w("Bab"), torus_rep, 6)  # not cyclically reduced
    with pytest.raises(DegenerateInputError):
        mutual_intersections(w("a"), w("Bab"), torus_rep, 6)


def test_rejects_proper_power_for_self(pants_rep):
    with pytest.raises(DegenerateInputError):
        self_intersections(w("abab"), pants_rep, 6)


def test_mutual_routes_same_class_to_self(pants_rep):
    recs = mutual_intersections(w("ab"), w("ba"), pants_rep, 8)
    assert len(recs) == 1 and str(recs[0].witness) == "a"


def test_mutual_rejects_inverse_class(torus_rep):
    with pytest.raises(DegenerateInputError):
        mutual_intersections(w("ab"), w("BA"), torus_rep, 6)
    with pytest.raises(DegenerateInputError):
        mutual_intersections(w("ab"), w("AB"), torus_rep, 6)  # conjugate of the inverse


def test_requires_certificate(torus_rep):
    bare = Representation(torus_rep.surface, torus_rep.matrices)
    with pytest.raises(CertificationError):
        self_intersections(w("ab"), bare, 6)
    with pytest.raises(CertificationError):
        mutual_intersections(w("a"), w("b"), bare, 6)


# ------------------------------------------------------------- stabilization


def test_stabilized_detail_reports_bound(pants_rep):
    records, bound = stabilized_intersections(w("ab"), w("aab"), pants_rep)
    assert len(records) == 2
    assert bound == 5  # counts agree at bounds 4 and 5 already


def test_stabilized_records_match_enumeration_at_bound(torus_rep, pants_rep):
    cases = [
        (pants_rep, "ab", "aabb"),
        (pants_rep, "aabab", "aabab"),
        (torus_rep, "b", "abbb"),
        (torus_rep, "aabb", "aabb"),
    ]
    for rep, left, right in cases:
        records, bound = stabilized_intersections(w(left), w(right), rep)
        assert records == mutual_intersections(w(left), w(right), rep, bound), (left, right)


def test_stabilization_needs_two_agreeing_bounds(torus_rep):
    with pytest.raises(InconclusiveEnumerationError) as exc:
        stabilized_intersections(w("a"), w("b"), torus_rep, start=4, cap=4)
    assert exc.value.cap == 4
    assert exc.value.counts == [1]


def test_stabilization_cap_below_start_raises_at_once(torus_rep):
    with pytest.raises(InconclusiveEnumerationError) as exc:
        stabilized_intersections(w("a"), w("b"), torus_rep, start=4, cap=3)
    assert exc.value.cap == 3
    assert exc.value.counts == []
