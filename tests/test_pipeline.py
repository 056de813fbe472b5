"""Pair construction and the equivalence verdicts.

The word-level identity behind the self family is tested as a property:
(alpha^g)^n alpha is conjugate to alpha^n alpha^(g^-1) for every alpha, g
— so equal length of the two members is an exact consequence of the
power-product trace identity, not a numerical accident.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from word_scan import enumerate_reduced_words, scanned_simple_classes

import sl2z
from lenequiv import intersections
from lenequiv.errors import DegenerateInputError, HypothesisViolationError
from lenequiv.intersections import cyclic_order, exact_count, exact_counter, exact_intersections
from lenequiv.pipeline import (
    CurvePair,
    build_pair_general,
    build_pair_self,
    check_equal_length_symbolic,
    check_nonconjugate,
    find_min_N,
    is_filling,
    simple_candidates,
)
from lenequiv.fuchsian import Representation
from lenequiv.sl2 import translation_length
from lenequiv.word_algebra import (
    Word,
    are_conjugate,
    compose,
    conjugate,
    cyclic_normal_form,
    invert,
    is_proper_power,
    parse_word,
    power,
    unoriented_class_key,
)


def w(text):
    return parse_word(text, rank=2)


def rel_dev(pair, rep):
    tau_left = translation_length(rep.evaluate(pair.left))
    tau_right = translation_length(rep.evaluate(pair.right))
    return abs(tau_left - tau_right) / max(tau_left, tau_right)


@pytest.fixture(scope="module")
def fig8_witness(pants_rep):
    (rec,) = exact_intersections(w("ab"), w("ab"), cyclic_order(pants_rep))
    return rec.witness


# ----------------------------------------------------------- pair construction


def test_build_pair_self_words(fig8_witness):
    alpha = w("ab")
    pair = build_pair_self(alpha, fig8_witness, 3)
    conj = conjugate(alpha, fig8_witness)
    assert pair.left.letters == compose(power(alpha, 3), conj).letters
    assert pair.right.letters == compose(power(conj, 3), alpha).letters
    assert pair.n == 3
    assert pair.provenance == ("self", alpha, fig8_witness)


def test_build_pair_self_rejects_bad_n(fig8_witness):
    with pytest.raises(ValueError):
        build_pair_self(w("ab"), fig8_witness, 0)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.sampled_from(["ab", "aab", "abb", "aabb"]).map(w),
    g=st.lists(st.sampled_from([1, -1, 2, -2]), max_size=6).map(lambda ls: Word(tuple(ls))),
    n=st.integers(min_value=1, max_value=4),
)
def test_self_pair_members_are_a_conjugation_twist(alpha, g, n):
    # (alpha^g)^n alpha ~ alpha^n alpha^(g^-1): conjugate both sides by g^-1
    pair = build_pair_self(alpha, g, n)
    other_view = compose(power(alpha, n), conjugate(alpha, invert(g)))
    assert are_conjugate(pair.right, other_view)


def test_build_pair_general_seed(pants_rep):
    pair = build_pair_general(w("ab"), w("aab"), w("a"), w("b"), 2)
    assert pair.provenance[0] == "general"
    assert check_equal_length_symbolic(pair)
    assert rel_dev(pair, pants_rep) < 1e-12
    nonconj, not_inv = check_nonconjugate(pair)
    assert nonconj and not_inv


def test_build_pair_general_rejects_degenerate_inputs():
    with pytest.raises(DegenerateInputError):
        build_pair_general(w("ab"), w("aab"), w("a"), w("a"), 2)
    with pytest.raises(HypothesisViolationError):
        build_pair_general(w("ab"), w("aab"), w("a"), w("ba"), 2)
    with pytest.raises(ValueError):
        build_pair_general(w("ab"), w("aab"), w("a"), w("b"), 0)


# ------------------------------------------------------------- length checks


def test_equal_length_numeric_and_symbolic(fig8_witness, pants_reps):
    for n in range(1, 7):
        pair = build_pair_self(w("ab"), fig8_witness, n)
        assert max(rel_dev(pair, rep) for rep in pants_reps) < 1e-12, n
        assert check_equal_length_symbolic(pair)


def test_equal_length_detects_scrambled_pair(fig8_witness, pants_reps):
    good = build_pair_self(w("ab"), fig8_witness, 2)
    bad = CurvePair(good.left, compose(good.right, w("b")), 2, good.provenance)
    assert max(rel_dev(bad, rep) for rep in pants_reps) > 1e-3


def _exact_pairs(pants_rep):
    """Self pairs of ab and aBABAb at every witness and the general pair of
    (ab, aab, a, b), each at n = 2..6."""
    order = cyclic_order(pants_rep)
    pairs = []
    for text in ("ab", "aBABAb"):
        alpha = w(text)
        for rec in exact_intersections(alpha, alpha, order):
            pairs += [build_pair_self(alpha, rec.witness, n) for n in range(2, 7)]
    pairs += [build_pair_general(w("ab"), w("aab"), w("a"), w("b"), n) for n in range(2, 7)]
    return pairs


def test_pairs_have_equal_exact_traces_at_integer_points(pants_rep):
    # Schwartz-Zippel: tr left - tr right is an integer polynomial in the
    # entries of A and B, so vanishing at random SL2(Z) pairs is evidence
    # of the identity that reads neither the Fricke polynomials nor floats
    rng = random.Random(0)
    points = [sl2z.random_pair(rng) for _ in range(6)]
    pairs = _exact_pairs(pants_rep)
    assert len(pairs) == 5 * (1 + 7 + 1)  # aBABAb has seven self records
    for pair in pairs:
        for a, b in points:
            left = sl2z.trace(pair.left.letters, a, b)
            assert left == sl2z.trace(pair.right.letters, a, b), (pair, a, b)
    # negative control: a scrambled pair differs at some point
    good = pairs[0]
    bad = CurvePair(good.left, compose(good.right, w("b")), good.n, good.provenance)
    assert any(
        sl2z.trace(bad.left.letters, a, b) != sl2z.trace(bad.right.letters, a, b)
        for a, b in points
    )


def test_symbolic_check_rejects_nonconjugate_terms():
    # terms <ab aab> and <ab aab^a> are different classes, so the pair is
    # not on the equal-trace locus the identity needs
    fake = CurvePair(
        compose(w("ab"), w("aab")),
        compose(w("ab"), conjugate(w("aab"), w("a"))),
        1,
        ("general", w("ab"), w("aab"), w(""), w("a")),
    )
    assert not check_equal_length_symbolic(fake)


def test_check_nonconjugate_threshold(fig8_witness):
    nonconj, not_inv = check_nonconjugate(build_pair_self(w("ab"), fig8_witness, 1))
    assert (nonconj, not_inv) == (False, True)  # n = 1 members are conjugate
    for n in (2, 3, 4):
        assert check_nonconjugate(build_pair_self(w("ab"), fig8_witness, n)) == (True, True)


def test_find_min_N(fig8_witness):
    n_observed, table = find_min_N(w("ab"), fig8_witness, 12)
    assert n_observed == 1
    assert table[0] == (1, False, True)
    assert table[1:] == [(n, True, True) for n in range(2, 13)]
    none_observed, short_table = find_min_N(w("ab"), fig8_witness, 1)
    assert none_observed is None  # the last n failing means nothing beyond it was seen
    assert short_table == [(1, False, True)]
    with pytest.raises(ValueError):
        find_min_N(w("ab"), fig8_witness, 0)


# ------------------------------------------------------------------- filling


def test_simple_candidates_pants(pants_rep):
    cands = simple_candidates(pants_rep, 4)
    assert [str(z) for z in cands] == ["a", "b", "aB"]  # only the cuffs
    assert [str(z) for z in simple_candidates(pants_rep, 1)] == ["a", "b"]


def test_simple_candidates_torus(torus_rep):
    cands = [str(z) for z in simple_candidates(torus_rep, 3)]
    assert cands == ["a", "b", "ab", "aB", "aab", "aaB", "abb", "aBB"]


@pytest.mark.parametrize("layout", ["pants", "torus"])
def test_simple_candidates_match_the_word_scan(layout, pants_rep, torus_rep):
    # the closed form lists the classes the scan finds, with the same
    # spelling of each and in the same order
    rep = pants_rep if layout == "pants" else torus_rep
    for bound in range(1, 9):
        assert simple_candidates(rep, bound) == scanned_simple_classes(cyclic_order(rep), bound), bound


def test_simple_candidates_torus_counts(torus_rep):
    # two primitive classes per coprime split p + q = n with p, q > 0 (slopes
    # q/p and -q/p), a and b, and the commutator
    cands = simple_candidates(torus_rep, 10)
    assert len(cands) == 2 + 2 * sum(1 for n in range(2, 11) for p in range(1, n) if math.gcd(p, n) == 1) + 1
    assert [str(z) for z in cands if len(z.letters) == 10] == [  # slopes 1/9, 3/7, 7/3, 9/1 and their mirrors
        "aaaaaaaaab", "aaaaaaaaaB", "aaabaabaab", "aaaBaaBaaB", "abbabbabbb", "abbbbbbbbb", "aBBaBBaBBB", "aBBBBBBBBB",
    ]


def test_is_filling_figure_eight(pants_rep):
    verdict, witnesses, table = is_filling(w("ab"), pants_rep, 4)
    assert verdict == "yes"
    assert witnesses == []
    assert all(row["peripheral"] and row["count"] == 0 for row in table)
    assert [row["class"] for row in table] == ["a", "b", "aB"]


def test_is_filling_simple_curve_is_no(torus_rep):
    verdict, witnesses, table = is_filling(w("a"), torus_rep, 4)
    assert verdict == "no"
    assert [str(z) for z in witnesses] == ["a"]  # disjoint from itself
    counts = {row["class"]: row["count"] for row in table}
    assert counts["b"] == 1 and counts["abb"] == 2 and counts["abbb"] == 3
    assert counts["aaaab"] == 1  # regression: canonicalization overcounted this
    peripheral = {row["class"] for row in table if row["peripheral"]}
    assert peripheral == {"abAB"}


@pytest.mark.parametrize("cuff", ["a", "b", "aB"])
def test_boundary_curve_does_not_fill(cuff, pants_rep):
    # every candidate on the pants is a cuff, so none can miss w; the
    # verdict rests on w itself being simple
    verdict, witnesses, table = is_filling(w(cuff), pants_rep, 4)
    assert verdict == "no"
    assert [str(z) for z in witnesses] == [cuff]
    assert [row["class"] for row in table] == ["a", "b", "aB"]


def test_simple_torus_curve_keeps_its_witness(torus_rep):
    verdict, witnesses, _ = is_filling(w("ab"), torus_rep, 4)
    assert verdict == "no"
    assert [str(z) for z in witnesses] == ["ab"]


def test_is_filling_canonicalizes_input(torus_rep):
    # abA is b up to conjugation; a simple class never fills
    verdict, witnesses, _ = is_filling(w("abA"), torus_rep, 4)
    assert verdict == "no"
    assert [str(z) for z in witnesses] == ["b"]


@pytest.mark.parametrize("word, witness", [("aaaaabaBAb", "aaaaab"), ("aaaaaaaaabaBAb", "aaaaaaaaab")])
@pytest.mark.parametrize("bound", [4, 8])
def test_torus_word_missing_a_long_simple_class_does_not_fill(word, witness, bound, torus_rep):
    # regression: a witness longer than every candidate in the table used
    # to leave the verdict at "yes", even at the largest bound.  It is the
    # primitive class parallel to the word's homology, the only simple class
    # that can miss the word
    verdict, witnesses, table = is_filling(w(word), torus_rep, bound)
    assert (verdict, [str(z) for z in witnesses]) == ("no", [witness])
    in_table = len(witness) <= bound + 1
    assert [row["class"] for row in table if not row["count"] and not row["peripheral"]] == [witness] * in_table
    assert exact_count(w(witness), w(word), cyclic_order(torus_rep)) == 0


def test_torus_verdict_counts_the_parallel_class_past_the_table(torus_rep):
    # homology (4, 2): only aab, of homology (2, 1), can miss aaabab, and it does
    verdict, witnesses, table = is_filling(w("aaabab"), torus_rep, 1)
    assert (verdict, [str(z) for z in witnesses]) == ("no", ["aab"])
    assert [row["class"] for row in table] == ["a", "b", "ab", "aB"]
    # homology (3, -1): aaaB, past the table too, meets aabaBB
    verdict, witnesses, _ = is_filling(w("aabaBB"), torus_rep, 1)
    assert (verdict, witnesses) == ("yes", [])
    assert exact_count(w("aaaB"), w("aabaBB"), cyclic_order(torus_rep)) > 0


@pytest.mark.parametrize("bound", [0, -1])
def test_is_filling_rejects_a_bound_below_one(bound, pants_rep):
    with pytest.raises(ValueError):
        is_filling(w("aabb"), pants_rep, bound)


@pytest.mark.parametrize("layout, word, extra", [("pants", "aabb", 0), ("torus", "aaaaabaBAb", 1)])
def test_filling_builds_the_ends_of_w_once(layout, word, extra, pants_rep, torus_rep, monkeypatch):
    # one build for w, which its self-count reuses, one per candidate, and
    # on the torus one for the class parallel to w's homology
    rep = pants_rep if layout == "pants" else torus_rep
    calls = []
    build = intersections._rotation_ends
    monkeypatch.setattr(intersections, "_rotation_ends", lambda *args: calls.append(args[0]) or build(*args))
    _, _, table = is_filling(w(word), rep, 4)
    assert len(calls) == 1 + len(table) + extra
    assert calls.count(cyclic_normal_form(w(word)).letters) == 1


def test_exact_counter_matches_exact_count(torus_rep):
    order = cyclic_order(torus_rep)
    beta = w("aabaBAbb")
    crossings = exact_counter(beta, order, 8)
    for z in ("a", "b", "aB", "abb", "aabaBAbb", "abaBAbba", "bbaabaBA", "abAB"):
        assert crossings(w(z)) == exact_count(w(z), beta, order), z
    with pytest.raises(ValueError):
        crossings(w("aaaabbbbb"))  # longer than the ends were built for


def _filling_classes(rep, max_len):
    """Unoriented classes of at most max_len letters, not proper powers,
    whose filling verdict is exact: every one on the pants, and on the torus
    those of nonzero homology."""
    on_torus = rep.surface.genus == 1
    seen = {}
    for letters in enumerate_reduced_words(2, max_len):
        alpha = Word(letters)
        if cyclic_normal_form(alpha).letters != letters or is_proper_power(alpha)[0]:
            continue
        if on_torus and letters.count(1) == letters.count(-1) and letters.count(2) == letters.count(-2):
            continue
        seen.setdefault(unoriented_class_key(alpha), alpha)
    return [alpha for alpha in seen.values() if is_filling(alpha, rep, 1)[0] == "yes"]


@pytest.mark.parametrize("layout, n_alpha, n_members", [("pants", 38, 468), ("torus", 8, 64)])
def test_pairs_built_from_a_filling_curve_fill(layout, n_alpha, n_members, pants_rep, torus_rep):
    # the paper's filling claim, swept over every filling alpha of <= 5
    # letters, each of its self-intersection witnesses and n = 2, 3; the
    # members have (n + 1) times alpha's homology, so every verdict is exact
    rep = pants_rep if layout == "pants" else torus_rep
    order = cyclic_order(rep)
    alphas = _filling_classes(rep, 5)
    members = [
        member
        for alpha in alphas
        for record in exact_intersections(alpha, alpha, order)
        for n in (2, 3)
        for member in build_pair_self(alpha, record.witness, n)[:2]
    ]
    assert (len(alphas), len(members)) == (n_alpha, n_members)
    assert all(is_filling(member, rep, 1)[0] == "yes" for member in members)


def test_is_filling_degenerate_inputs(torus_rep):
    with pytest.raises(DegenerateInputError):
        is_filling(w(""), torus_rep, 4)
    bare = Representation(torus_rep.surface, torus_rep.matrices)
    bare.certificate = torus_rep.certificate
    with pytest.raises(DegenerateInputError):
        is_filling(w("ab"), bare, 4)  # no layout, peripherals unknown
