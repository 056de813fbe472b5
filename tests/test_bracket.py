"""Goldman bracket sums.

The structural facts under test: the fattened self bracket cancels to
zero term-by-term in conjugate pairs, the mutual bracket is antisymmetric,
and bracket terms live in the class of the loop product at each point.
"""

import pytest

from lenequiv.bracket import FormalSum, bracket, bracket_self, bracket_self_terms, equal_term_pairs
from lenequiv.errors import DegenerateInputError
from lenequiv.word_algebra import (
    are_conjugate,
    compose,
    conjugate,
    cyclic_normal_form,
    invert,
    parse_word,
)

SELF_ZERO_CURVES = (
    # (fixture name, word): >= 10 distinct classes with self-intersections
    ("pants", "ab"),
    ("pants", "aab"),
    ("pants", "abb"),
    ("pants", "aabb"),
    ("pants", "abbb"),
    ("pants", "aabab"),
    ("pants", "aabbb"),
    ("torus", "aabb"),
    ("torus", "abaB"),
    ("torus", "aabaB"),
    ("torus", "abbaB"),
)

ANTISYMMETRY_PAIRS = (
    ("torus", "a", "b"),
    ("torus", "a", "ab"),
    ("torus", "b", "ab"),
    ("torus", "a", "abb"),
    ("torus", "ab", "aB"),
    ("torus", "b", "aB"),
    ("pants", "ab", "aab"),
    ("pants", "ab", "abb"),
    ("pants", "aab", "abb"),
    ("pants", "ab", "aabb"),
)


def w(text):
    return parse_word(text, rank=2)


def cls(text):
    return cyclic_normal_form(w(text))


# --------------------------------------------------------------- formal sums


def test_formal_sum_cancels_and_prunes():
    s = FormalSum()
    s.add(cls("ab"), 1)
    s.add(cls("ba"), -1)  # same class, different spelling
    assert s.is_zero()
    s.add(cls("ab"), 2)
    s.add(cls("ab"), 0)
    assert s.terms == {cls("ab"): 2}


def test_formal_sum_algebra():
    s = FormalSum({cls("ab"): 1, cls("aab"): -2})
    t = FormalSum({cls("ab"): -1})
    assert (s + t).terms == {cls("aab"): -2}
    assert (s + s.negate()).is_zero()
    assert s == FormalSum({cls("ba"): 1, cls("aba"): -2})
    assert s != t and s != "not a sum"


def test_formal_sum_fold():
    terms = [(cls("ab"), 1), (cls("aab"), -2), (cls("ba"), -1), (cls("aab"), 1)]
    assert FormalSum.fold(terms) == FormalSum({cls("aab"): -1})
    assert FormalSum.fold([]).is_zero()


def test_formal_sum_rendering():
    s = FormalSum({cls("ab"): -1, cls("aab"): 3})
    assert str(s) == "-1*<ab> +3*<aab>"
    assert s.serialize() == [["ab", -1], ["aab", 3]]
    assert str(FormalSum()) == "0"
    assert FormalSum().serialize() == []


# ------------------------------------------------------------ mutual bracket


def test_bracket_generator_pair_pinned(torus_rep):
    out = bracket(w("a"), w("b"), torus_rep, 6)
    assert out.serialize() == [["ab", -1]]
    assert str(out) == "-1*<ab>"


def test_bracket_two_point_pair_pinned(torus_rep):
    out = bracket(w("a"), w("abb"), torus_rep, 6)
    assert out.serialize() == [["aabb", -1], ["abab", -1]]


def test_bracket_term_count_matches_intersections(pants_rep):
    # four crossings, generically four distinct classes
    out = bracket(w("ab"), w("aabb"), pants_rep, 8)
    assert sum(abs(c) for _, c in out.terms.items()) <= 4
    assert not out.is_zero()


@pytest.mark.parametrize("fixture,left,right", ANTISYMMETRY_PAIRS)
def test_bracket_antisymmetry(fixture, left, right, torus_rep, pants_rep):
    rep = torus_rep if fixture == "torus" else pants_rep
    lhs = bracket(w(left), w(right), rep, 6)
    rhs = bracket(w(right), w(left), rep, 6)
    assert (lhs + rhs).is_zero()
    if not lhs.is_zero():
        assert lhs == rhs.negate()


def test_bracket_rejects_equal_or_inverse_classes(torus_rep):
    with pytest.raises(DegenerateInputError):
        bracket(w("ab"), w("ba"), torus_rep, 6)
    with pytest.raises(DegenerateInputError):
        bracket(w("ab"), w("BA"), torus_rep, 6)


# -------------------------------------------------------------- self bracket


@pytest.mark.parametrize("fixture,word", SELF_ZERO_CURVES)
def test_self_bracket_cancels(fixture, word, torus_rep, pants_rep):
    rep = torus_rep if fixture == "torus" else pants_rep
    terms = bracket_self_terms(w(word), rep, 6)
    assert terms, word  # these curves all self-intersect
    assert len(terms) % 2 == 0
    assert bracket_self(w(word), rep, 6).is_zero()
    # per-record structure: consecutive pairs carry opposite signs and
    # conjugate classes
    for plus, minus in zip(terms[::2], terms[1::2]):
        assert plus[1] == -minus[1]
        assert plus[0] == minus[0]


def test_self_bracket_figure_eight_terms(pants_rep):
    terms = bracket_self_terms(w("ab"), pants_rep, 6)
    assert [(t[0].key, t[1]) for t in terms] == [("aabb", 1), ("aabb", -1)]


def test_self_bracket_term_classes_are_loop_products(pants_rep):
    # the +term of each record is <alpha * alpha^g> for the record witness
    from lenequiv.intersections import self_intersections

    alpha = w("aab")
    records = self_intersections(alpha, pants_rep, 6)
    terms = bracket_self_terms(alpha, pants_rep, 6)
    for record, (plus_cls, sign) in zip(records, terms[::2]):
        loop = compose(alpha, conjugate(alpha, record.witness))
        assert cyclic_normal_form(loop) == plus_cls
        assert sign == record.sign


# ------------------------------------------------------------- family seeds


def test_equal_term_pairs_pants_seed(pants_rep):
    pairs = equal_term_pairs(w("ab"), w("aab"), pants_rep, 6)
    assert [(str(g), str(h)) for g, h in pairs] == [("a", "b")]
    g, h = pairs[0]
    left = compose(w("ab"), conjugate(w("aab"), g))
    right = compose(w("ab"), conjugate(w("aab"), h))
    assert are_conjugate(left, right)
    assert cyclic_normal_form(left) != cyclic_normal_form(invert(right))


def test_equal_term_pairs_empty_when_classes_split(torus_rep):
    assert equal_term_pairs(w("a"), w("b"), torus_rep, 6) == []
    assert equal_term_pairs(w("a"), w("abb"), torus_rep, 6) == []


def test_equal_term_pairs_rejects_same_class(pants_rep):
    with pytest.raises(DegenerateInputError):
        equal_term_pairs(w("ab"), w("ab"), pants_rep, 6)
