"""Goldman bracket sums.

The structural facts under test: the fattened self bracket cancels to
zero term-by-term in conjugate pairs, the mutual bracket is antisymmetric,
and bracket terms live in the class of the loop product at each point.
"""

import pytest
from reference_walk import reference_records

from lenequiv.bracket import FormalSum, bracket, bracket_self, bracket_self_terms, equal_term_pairs
from lenequiv.errors import DegenerateInputError
from lenequiv.fuchsian import sample_representation
from lenequiv.intersections import cyclic_order, exact_intersections
from lenequiv.word_algebra import (
    SurfaceSpec,
    are_conjugate,
    compose,
    conjugate,
    cyclic_normal_form,
    invert,
    parse_word,
)

PANTS = SurfaceSpec(genus=0, boundary_components=3)
TORUS = SurfaceSpec(genus=1, boundary_components=1)

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
    out = bracket(w("a"), w("b"), cyclic_order(torus_rep))
    assert out.serialize() == [["ab", -1]]
    assert str(out) == "-1*<ab>"


def test_bracket_two_point_pair_pinned(torus_rep):
    out = bracket(w("a"), w("abb"), cyclic_order(torus_rep))
    assert out.serialize() == [["aabb", -1], ["abab", -1]]


def test_bracket_term_count_matches_intersections(pants_rep):
    # four crossings, generically four distinct classes
    out = bracket(w("ab"), w("aabb"), cyclic_order(pants_rep))
    assert sum(abs(c) for _, c in out.terms.items()) <= 4
    assert not out.is_zero()


@pytest.mark.parametrize("fixture,left,right", ANTISYMMETRY_PAIRS)
def test_bracket_antisymmetry(fixture, left, right, torus_rep, pants_rep):
    rep = torus_rep if fixture == "torus" else pants_rep
    lhs = bracket(w(left), w(right), cyclic_order(rep))
    rhs = bracket(w(right), w(left), cyclic_order(rep))
    assert (lhs + rhs).is_zero()
    if not lhs.is_zero():
        assert lhs == rhs.negate()


def test_bracket_rejects_equal_or_inverse_classes(torus_rep):
    with pytest.raises(DegenerateInputError):
        bracket(w("ab"), w("ba"), cyclic_order(torus_rep))
    with pytest.raises(DegenerateInputError):
        bracket(w("ab"), w("BA"), cyclic_order(torus_rep))


# -------------------------------------------------------------- self bracket


@pytest.mark.parametrize("fixture,word", SELF_ZERO_CURVES)
def test_self_bracket_cancels(fixture, word, torus_rep, pants_rep):
    rep = torus_rep if fixture == "torus" else pants_rep
    terms = bracket_self_terms(w(word), cyclic_order(rep))
    assert terms, word  # these curves all self-intersect
    assert len(terms) % 2 == 0
    assert bracket_self(w(word), cyclic_order(rep)).is_zero()
    # per-record structure: consecutive pairs carry opposite signs and
    # conjugate classes
    for plus, minus in zip(terms[::2], terms[1::2]):
        assert plus[1] == -minus[1]
        assert plus[0] == minus[0]


def test_self_bracket_figure_eight_terms(pants_rep):
    terms = bracket_self_terms(w("ab"), cyclic_order(pants_rep))
    assert [(t[0].key, t[1]) for t in terms] == [("aabb", 1), ("aabb", -1)]


def test_self_bracket_term_classes_are_loop_products(pants_rep):
    # the +term of each record is <alpha * alpha^g> for the record witness
    alpha = w("aab")
    records = reference_records(alpha, alpha, pants_rep, 6)
    terms = bracket_self_terms(alpha, cyclic_order(pants_rep))
    assert len(terms) == 2 * len(records)
    for record, (plus_cls, sign) in zip(records, terms[::2]):
        loop = compose(alpha, conjugate(alpha, record.witness))
        assert cyclic_normal_form(loop) == plus_cls
        assert sign == record.sign


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_k2_self_bracket_has_seven_records_on_every_seed(seed):
    # a float walk of the word ball at bound 11 gave 16, 18 and 34 terms
    rep = sample_representation(PANTS, seed)
    terms = bracket_self_terms(w("aBABAb"), cyclic_order(rep))
    assert len(terms) == 14
    assert FormalSum.fold(terms).is_zero()


def test_simple_torus_classes_have_no_self_bracket_terms():
    # a float walk at bound 8 gave each of them one record on seed 2
    rep = sample_representation(TORUS, 2)
    for word in ("aaaab", "aaaaB"):
        assert bracket_self_terms(w(word), cyclic_order(rep)) == [], word


# ------------------------------------------------------------- family seeds


def test_equal_term_pairs_pants_seed(pants_rep):
    pairs = equal_term_pairs(w("ab"), w("aab"), cyclic_order(pants_rep))
    assert [(str(g), str(h)) for g, h in pairs] == [("a", "b")]
    g, h = pairs[0]
    left = compose(w("ab"), conjugate(w("aab"), g))
    right = compose(w("ab"), conjugate(w("aab"), h))
    assert are_conjugate(left, right)
    assert cyclic_normal_form(left) != cyclic_normal_form(invert(right))


def test_equal_term_pairs_empty_when_classes_split(torus_rep):
    assert equal_term_pairs(w("a"), w("b"), cyclic_order(torus_rep)) == []
    assert equal_term_pairs(w("a"), w("abb"), cyclic_order(torus_rep)) == []


@pytest.mark.parametrize(
    "layout, alpha, beta, records",
    [("torus", "ab", "aBaB", 4), ("pants", "aabb", "abab", 8)],
)
def test_equal_term_pairs_skip_records_of_one_point(layout, alpha, beta, records, pants_rep, torus_rep):
    # beta = r^2: the records <alpha> g <beta> and <alpha> g r <beta> are
    # one point, passed on two turns of r, and such a pair's members are
    # one class for every n; the bracket still reads every record
    order = cyclic_order(pants_rep if layout == "pants" else torus_rep)
    assert len(exact_intersections(w(alpha), w(beta), order)) == records
    assert equal_term_pairs(w(alpha), w(beta), order) == []
    assert bracket(w(alpha), w(beta), order).terms  # powers stay accepted


def test_equal_term_pairs_keep_two_points_and_drop_one(pants_rep):
    # (a, aa) of (ab, AABB) are two points; '' and b are one point of ab
    # and BB, whose root is B
    order = cyclic_order(pants_rep)
    assert [(str(g), str(h)) for g, h in equal_term_pairs(w("ab"), w("AABB"), order)] == [("a", "aa")]
    assert equal_term_pairs(w("ab"), w("BB"), order) == []


def test_equal_term_pairs_rejects_same_class(pants_rep):
    with pytest.raises(DegenerateInputError):
        equal_term_pairs(w("ab"), w("ab"), cyclic_order(pants_rep))
