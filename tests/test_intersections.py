"""Geodesic intersection enumeration.

Primary oracle: on the one-holed torus the geometric intersection number
of simple classes equals |p q' - q p'| of their homology vectors, and
Christoffel-type words in a, b are simple.  The exact engine must
reproduce those numbers with no bound, and the float reference walk at a
bound past its last witness.
"""

import itertools

import pytest
from reference_walk import reference_records

from lenequiv.errors import CertificationError, DegenerateInputError
from lenequiv.fuchsian import Representation
from lenequiv.intersections import (
    cyclic_order,
    exact_count,
    exact_intersections,
    mutual_coset_key,
    self_coset_key,
)
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


def count(alpha, beta, rep):
    return exact_count(alpha, beta, cyclic_order(rep))


def pairs(records):
    return [(r.witness, r.sign) for r in records]


# ------------------------------------------------------------ figure eight


def test_figure_eight_has_one_self_intersection(pants_rep):
    (rec,) = exact_intersections(w("ab"), w("ab"), cyclic_order(pants_rep))
    assert str(rec.witness) == "a"
    assert rec.sign == 1
    for bound in (6, 7, 8):
        assert pairs(reference_records(w("ab"), w("ab"), pants_rep, bound)) == [(rec.witness, 1)], bound


def test_simple_classes_have_no_self_intersections(torus_rep, pants_rep):
    for rep, word in ((pants_rep, "aB"), (torus_rep, "ab"), (torus_rep, "aB")):
        assert exact_intersections(w(word), w(word), cyclic_order(rep)) == [], word
        assert reference_records(w(word), w(word), rep, 8) == [], word


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
        assert count(w(word), w(word), rep) == want, word
        assert len(reference_records(w(word), w(word), rep, 8)) == want, word


# ------------------------------------------------------------ mutual counts


def test_pinned_generator_crossing(torus_rep):
    order = cyclic_order(torus_rep)
    recs = exact_intersections(w("a"), w("b"), order)
    assert len(recs) == 1
    (rec,) = recs
    assert rec.witness.is_identity
    assert rec.witness == Word(())
    assert rec.sign == -1
    assert pairs(reference_records(w("a"), w("b"), torus_rep, 6)) == pairs(recs)
    # swapping the arguments flips the crossing frame
    assert exact_intersections(w("b"), w("a"), order)[0].sign == +1
    assert reference_records(w("b"), w("a"), torus_rep, 6)[0].sign == +1


def test_intersection_numbers_match_homology_oracle(torus_rep):
    for (w1, (p1, q1)), (w2, (p2, q2)) in itertools.combinations(SIMPLE_TORUS.items(), 2):
        want = abs(p1 * q2 - q1 * p2)
        assert count(w(w1), w(w2), torus_rep) == want, (w1, w2)


def test_regression_unbalanced_pair_not_overcounted(torus_rep):
    # b vs abbb once returned 2: a ball witness in the identity double coset
    # was canonicalized too lazily and split off a phantom point
    for left, right in (("b", "abbb"), ("a", "aaaab")):
        assert count(w(left), w(right), torus_rep) == 1
        assert len(reference_records(w(left), w(right), torus_rep, 8)) == 1


def test_pants_mutual_counts(pants_rep):
    cases = [("ab", "aab", 2), ("ab", "abb", 2), ("aab", "abb", 2), ("ab", "aabb", 4)]
    for w1, w2, want in cases:
        assert count(w(w1), w(w2), pants_rep) == want, (w1, w2)
    # disjoint from the cuffs
    for cuff in ("a", "b", "aB"):
        assert count(w("ab"), w(cuff), pants_rep) == 0, cuff


def test_power_multiplies_intersection_count(torus_rep, pants_rep):
    for n in (2, 3):
        assert count(power(w("a"), n), w("b"), torus_rep) == n
        assert count(power(w("ab"), n), w("aab"), pants_rep) == 2 * n


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
    recs = exact_intersections(w("aabab"), w("aabab"), cyclic_order(pants_rep))
    keys = [word_sort_key(r.witness.letters) for r in recs]
    assert keys == sorted(keys)
    for r in recs:
        assert self_coset_key(r.witness, w("aabab")) == r.witness
        assert r.sign in (-1, 1)
    assert pairs(reference_records(w("aabab"), w("aabab"), pants_rep, 8)) == pairs(recs)


# ------------------------------------------------------------ input policing


def test_rejects_identity_and_unreduced_words(torus_rep):
    order = cyclic_order(torus_rep)
    with pytest.raises(DegenerateInputError):
        exact_intersections(w(""), w(""), order)
    with pytest.raises(DegenerateInputError):
        exact_intersections(w("Bab"), w("Bab"), order)  # not cyclically reduced
    with pytest.raises(DegenerateInputError):
        exact_intersections(w("a"), w("Bab"), order)


def test_rejects_proper_power_for_self(pants_rep):
    with pytest.raises(DegenerateInputError):
        exact_intersections(w("abab"), w("abab"), cyclic_order(pants_rep))


def test_mutual_routes_same_class_to_self(pants_rep):
    recs = exact_intersections(w("ab"), w("ba"), cyclic_order(pants_rep))
    assert len(recs) == 1 and str(recs[0].witness) == "a"
    assert pairs(reference_records(w("ab"), w("ba"), pants_rep, 8)) == pairs(recs)


def test_mutual_rejects_inverse_class(torus_rep):
    order = cyclic_order(torus_rep)
    with pytest.raises(DegenerateInputError):
        exact_intersections(w("ab"), w("BA"), order)
    with pytest.raises(DegenerateInputError):
        exact_intersections(w("ab"), w("AB"), order)  # conjugate of the inverse


def test_requires_certificate(torus_rep):
    # records and counts read the tree order, which only a certificate fixes
    bare = Representation(torus_rep.surface, torus_rep.matrices)
    with pytest.raises(CertificationError):
        cyclic_order(bare)


# ------------------------------------------------------------- exact engine


def test_exact_records_match_enumeration_at_bound(torus_rep, pants_rep):
    cases = [
        (pants_rep, "ab", "aabb"),
        (pants_rep, "aabab", "aabab"),
        (torus_rep, "b", "abbb"),
        (torus_rep, "aabb", "aabb"),
    ]
    for rep, left, right in cases:
        exact = exact_intersections(w(left), w(right), cyclic_order(rep))
        walked = reference_records(w(left), w(right), rep, 8)
        assert pairs(exact) == pairs(walked), (left, right)
