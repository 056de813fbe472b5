"""Pair construction and the equivalence verdicts.

The word-level identity behind the self family is tested as a property:
(alpha^g)^n alpha is conjugate to alpha^n alpha^(g^-1) for every alpha, g
— so equal length of the two members is an exact consequence of the
power-product trace identity, not a numerical accident.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenequiv.errors import DegenerateInputError, HypothesisViolationError
from lenequiv.intersections import cyclic_order, exact_intersections
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
    invert,
    parse_word,
    power,
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
    assert simple_candidates(pants_rep, 4) is cands  # cached


def test_simple_candidates_torus(torus_rep):
    cands = [str(z) for z in simple_candidates(torus_rep, 3)]
    assert cands == ["a", "b", "ab", "aB", "aab", "aaB", "abb", "aBB"]


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


def test_is_filling_degenerate_inputs(torus_rep):
    with pytest.raises(DegenerateInputError):
        is_filling(w(""), torus_rep, 4)
    bare = Representation(torus_rep.surface, torus_rep.matrices)
    bare.certificate = torus_rep.certificate
    with pytest.raises(DegenerateInputError):
        is_filling(w("ab"), bare, 4)  # no layout, peripherals unknown
