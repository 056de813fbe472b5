"""Half-plane matrix layer.

Oracle for axis endpoints: iterate the Mobius map from a generic seed
(converges to the attracting fixed point; iterate the inverse for the
repelling one).  Oracle for word evaluation: exact integer 2x2 products.
"""

import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import sl2z
from halfplane import (
    DegeneracyError,
    HPoint,
    crossing_angle,
    crossing_point,
    hyperbolic_cosine_rule,
    tangent_at,
)
from reference_walk import axes_cross, crossing_sign

from lenequiv.errors import NonHyperbolicError
from lenequiv.pipeline import build_pair_self
from lenequiv.sl2 import (
    IDENTITY,
    INF,
    Axis,
    Mat2,
    axis,
    boundary_angle,
    classify,
    dist_to_plus_minus_identity,
    evaluate,
    mobius,
    translation_length,
    word_translation_length,
    word_translation_lengths,
)
from lenequiv.word_algebra import parse_word

A_DIAG = Mat2(2.0, 0.0, 0.0, 0.5)
# conjugates of diag(2, 1/2) with axes (-1, 1) and (-1, 3), worked by hand
B_UNIT = Mat2(1.25, 0.75, 0.75, 1.25)
B_WIDE = Mat2(1.625, 1.125, 0.375, 0.875)


def angular_gap(x, y):
    """Distance of two boundary points on the circle of boundary angles."""
    d = abs(boundary_angle(x) - boundary_angle(y)) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def oracle_attracting(m, x0=0.1234567, steps=200):
    x = x0
    for _ in range(steps):
        x = mobius(m, x)
    return x


def shear_product(steps):
    """Exact-unimodular conjugator from integer shears."""
    g = IDENTITY
    for upper, n in steps:
        s = Mat2(1.0, float(n), 0.0, 1.0) if upper else Mat2(1.0, 0.0, float(n), 1.0)
        g = g.mul(s)
    return g


conjugators = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=-2, max_value=2)), max_size=4
).map(shear_product)


# ---------------------------------------------------------------- Mat2 basics


def test_mat2_mul_and_det():
    m = Mat2(1.0, 2.0, 3.0, 4.0)
    n = Mat2(5.0, 6.0, 7.0, 8.0)
    assert m.mul(n) == Mat2(19.0, 22.0, 43.0, 50.0)
    assert m.det() == -2.0
    assert m.trace() == 5.0


def test_mat2_inv_roundtrip():
    m = Mat2(2.0, 3.0, 1.0, 2.0)  # det 1
    r = m.mul(m.inv())
    assert dist_to_plus_minus_identity(r) < 1e-15


def test_mat2_inv_rejects_nonpositive_det():
    with pytest.raises(ValueError):
        Mat2(1.0, 0.0, 0.0, -1.0).inv()


def test_renormalize_scales_to_unit_det():
    m = Mat2(2.0, 0.0, 0.0, 2.0).renormalize()
    assert m == IDENTITY
    with pytest.raises(ValueError):
        Mat2(0.0, 1.0, 1.0, 0.0).renormalize()  # det -1


# ------------------------------------------------------------ classification


def test_classify_examples():
    assert classify(A_DIAG) == "hyperbolic"
    assert classify(Mat2(1.0, 1.0, 0.0, 1.0)) == "parabolic"
    assert classify(Mat2(-1.0, 0.0, 0.0, -1.0)) == "parabolic"  # |tr| = 2
    c, s = math.cos(0.7), math.sin(0.7)
    assert classify(Mat2(c, -s, s, c)) == "elliptic"


def test_translation_length_diagonal():
    for t in (1.5, 2.0, 7.0):
        m = Mat2(t, 0.0, 0.0, 1.0 / t)
        assert translation_length(m) == pytest.approx(2.0 * math.log(t), rel=1e-14)
    with pytest.raises(NonHyperbolicError):
        translation_length(Mat2(1.0, 1.0, 0.0, 1.0))


def test_translation_length_sign_blind():
    m = Mat2(-2.0, 0.0, 0.0, -0.5)  # tr = -2.5, same isometry as diag(2, 1/2)
    assert translation_length(m) == pytest.approx(2.0 * math.log(2.0))


# ------------------------------------------------------------------- the axis


def test_axis_diagonal():
    ax = axis(A_DIAG)
    assert ax.repelling == 0.0
    assert ax.attracting == INF
    assert ax.translation_length == pytest.approx(2.0 * math.log(2.0))
    # inverse matrix: same geodesic, reversed orientation
    bx = axis(A_DIAG.inv())
    assert bx.repelling == INF and bx.attracting == 0.0


def test_axis_upper_triangular():
    ax = axis(Mat2(2.0, 3.0, 0.0, 0.5))
    assert ax.repelling == pytest.approx(-2.0)
    assert ax.attracting == INF


def test_axis_hand_conjugates():
    ax = axis(B_UNIT)
    assert ax.repelling == pytest.approx(-1.0)
    assert ax.attracting == pytest.approx(1.0)
    wx = axis(B_WIDE)
    assert wx.repelling == pytest.approx(-1.0)
    assert wx.attracting == pytest.approx(3.0)


def test_axis_rejects_nonhyperbolic():
    with pytest.raises(NonHyperbolicError):
        axis(Mat2(1.0, 1.0, 0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(t=st.floats(min_value=1.2, max_value=5.0), g=conjugators)
def test_axis_matches_iteration_oracle(t, g):
    m = g.mul(Mat2(t, 0.0, 0.0, 1.0 / t)).mul(g.inv())
    ax = axis(m)
    assert angular_gap(ax.attracting, oracle_attracting(m)) < 1e-6
    assert angular_gap(ax.repelling, oracle_attracting(m.inv())) < 1e-6
    # both endpoints are fixed points
    for e in (ax.repelling, ax.attracting):
        assert angular_gap(mobius(m, e), e) < 1e-8
    assert translation_length(m) == pytest.approx(2.0 * math.log(t), rel=1e-9)


def test_power_keeps_oriented_axis():
    m2 = B_UNIT.mul(B_UNIT)
    ax, ax2 = axis(B_UNIT), axis(m2)
    assert ax2.repelling == pytest.approx(ax.repelling)
    assert ax2.attracting == pytest.approx(ax.attracting)
    assert ax2.translation_length == pytest.approx(2.0 * ax.translation_length)


# ------------------------------------------------------------ boundary circle


def test_boundary_angle_conventions():
    assert boundary_angle(0.0) == 0.0
    assert boundary_angle(INF) == pytest.approx(math.pi)
    assert angular_gap(0.0, INF) == pytest.approx(math.pi)
    assert angular_gap(-1e9, 1e9) < 1e-8  # both huge, nearly the same direction
    assert angular_gap(1.0, 1.0) == 0.0


def test_mobius_extended_reals():
    m = Mat2(1.0, 1.0, 0.0, 1.0)
    assert mobius(m, INF) == INF  # c == 0 fixes infinity
    n = Mat2(0.0, -1.0, 1.0, 0.0)
    assert n.det() == 1.0
    assert mobius(n, 0.0) == INF  # denominator vanishes
    assert mobius(n, INF) == 0.0
    assert mobius(n, 2.0) == pytest.approx(-0.5)


# ---------------------------------------------------------------- crossings
# axes_cross and crossing_sign are the reference walk's, built on sl2's
# boundary_angle and the test helper's crossing_point and tangent_at


def test_axes_cross_interleaving():
    vert = Axis(0.0, INF, 1.0)
    assert axes_cross(vert, Axis(-1.0, 1.0, 1.0))
    assert not axes_cross(vert, Axis(1.0, 3.0, 1.0))
    assert not axes_cross(Axis(-1.0, 1.0, 1.0), Axis(2.0, 5.0, 1.0))
    # nesting without sharing an endpoint: no crossing
    assert not axes_cross(Axis(-2.0, 2.0, 1.0), Axis(-1.0, 1.0, 1.0))


def test_axes_cross_rejects_near_shared_endpoint():
    with pytest.raises(DegeneracyError):
        axes_cross(Axis(0.0, INF, 1.0), Axis(0.0, 1.0, 1.0))
    with pytest.raises(DegeneracyError):
        axes_cross(Axis(0.0, INF, 1.0), Axis(1e-12, 1.0, 1.0))
    # one geodesic, either orientation, any translation length: the
    # reference walk relies on these raising to skip lifts on A_alpha itself
    for a1, a2 in (
        (Axis(0.0, INF, 1.0), Axis(0.0, INF, 3.0)),
        (Axis(0.0, INF, 1.0), Axis(INF, 0.0, 1.0)),
        (Axis(-1.0, 1.0, 1.0), Axis(1.0, -1.0, 2.0)),
        (Axis(-1.0, 1.0, 1.0), Axis(-1.0 + 1e-11, 1.0 - 1e-11, 1.0)),
    ):
        with pytest.raises(DegeneracyError):
            axes_cross(a1, a2)


def test_crossing_point_vertical_circle():
    p = crossing_point(Axis(0.0, INF, 1.0), Axis(-1.0, 1.0, 1.0))
    assert (p.x, p.y) == (0.0, 1.0)


def test_crossing_point_two_circles():
    # circles centered 0 and 1, both radius 1
    p = crossing_point(Axis(-1.0, 1.0, 1.0), Axis(0.0, 2.0, 1.0))
    assert p.x == pytest.approx(0.5)
    assert p.y == pytest.approx(math.sqrt(3.0) / 2.0)


def test_crossing_point_degeneracies():
    with pytest.raises(DegeneracyError):
        crossing_point(Axis(0.0, INF, 1.0), Axis(1.0, INF, 1.0))  # parallel verticals
    with pytest.raises(DegeneracyError):
        crossing_point(Axis(-1.0, 1.0, 1.0), Axis(-2.0, 2.0, 1.0))  # concentric
    with pytest.raises(DegeneracyError):
        crossing_point(Axis(-1.0, 1.0, 1.0), Axis(2.0, 4.0, 1.0))  # disjoint


def test_tangents_are_unit_and_oriented():
    up = tangent_at(Axis(0.0, INF, 1.0), HPoint(0.0, 1.0))
    down = tangent_at(Axis(INF, 0.0, 1.0), HPoint(0.0, 1.0))
    assert up == (0.0, 1.0) and down == (0.0, -1.0)
    t = tangent_at(Axis(-1.0, 1.0, 1.0), HPoint(0.0, 1.0))
    assert t == (1.0, 0.0)  # rightward, toward the attracting endpoint
    t = tangent_at(Axis(1.0, -1.0, 1.0), HPoint(0.0, 1.0))
    assert t == (-1.0, 0.0)
    s = tangent_at(Axis(-1.0, 3.0, 1.0), HPoint(0.0, math.sqrt(3.0)))
    assert math.hypot(*s) == pytest.approx(1.0)


def test_crossing_sign_pinned_and_antisymmetric():
    vert = Axis(0.0, INF, 1.0)
    circ = Axis(-1.0, 1.0, 1.0)
    assert crossing_sign(vert, circ) == -1  # (up, rightward) is a clockwise frame
    assert crossing_sign(circ, vert) == +1
    assert crossing_sign(vert, Axis(1.0, -1.0, 1.0)) == +1
    assert crossing_sign(Axis(INF, 0.0, 1.0), circ) == +1


def test_crossing_sign_requires_crossing():
    with pytest.raises(DegeneracyError):
        crossing_sign(Axis(0.0, INF, 1.0), Axis(1.0, 3.0, 1.0))


def test_crossing_angle_values():
    vert = Axis(0.0, INF, 1.0)
    assert crossing_angle(vert, Axis(-1.0, 1.0, 1.0)) == pytest.approx(math.pi / 2)
    # axis (-1, 3) meets the vertical at (0, sqrt 3) with cos(theta) = 1/2
    assert crossing_angle(vert, Axis(-1.0, 3.0, 1.0)) == pytest.approx(math.pi / 3)
    # reversing one orientation replaces theta by pi - theta
    assert crossing_angle(vert, Axis(3.0, -1.0, 1.0)) == pytest.approx(2 * math.pi / 3)
    assert crossing_angle(Axis(-1.0, 3.0, 1.0), vert) == pytest.approx(math.pi / 3)


# -------------------------------------------------------------- cosine rule


def test_cosine_rule_pythagoras():
    a, b = 0.8, 1.3
    c = hyperbolic_cosine_rule(a, b, math.pi / 2)
    assert math.cosh(c) == pytest.approx(math.cosh(a) * math.cosh(b))


def test_cosine_rule_straight_limit():
    a, b = 0.9, 0.4
    c = hyperbolic_cosine_rule(a, b, math.pi - 1e-9)
    assert c == pytest.approx(a + b, abs=1e-6)


def test_cosine_rule_validates_inputs():
    with pytest.raises(ValueError):
        hyperbolic_cosine_rule(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        hyperbolic_cosine_rule(1.0, 1.0, math.pi)
    with pytest.raises(ValueError):
        hyperbolic_cosine_rule(1.0, 1.0, 0.0)


def test_cosine_rule_matches_product_trace():
    """Half translation length of a product from half-lengths and the crossing.

    With axes meeting at angle theta between positive tangents, the rule
    applied to the supplement pi - theta reproduces acosh(|tr(AB)| / 2).
    """
    half = math.log(2.0)  # both factors are conjugates of diag(2, 1/2)
    for b_mat in (B_UNIT, B_WIDE):
        theta = crossing_angle(axis(A_DIAG), axis(b_mat))
        got = hyperbolic_cosine_rule(half, half, math.pi - theta)
        want = math.acosh(abs(A_DIAG.mul(b_mat).trace()) / 2.0)
        assert got == pytest.approx(want, rel=1e-12)
    # hand values: tr(A*B_UNIT) = 3.125, tr(A*B_WIDE) = 3.6875
    assert A_DIAG.mul(B_UNIT).trace() == pytest.approx(3.125)
    assert A_DIAG.mul(B_WIDE).trace() == pytest.approx(3.6875)


# ----------------------------------------------------------------- evaluate


def int_mul(m, n):
    return (
        m[0] * n[0] + m[1] * n[2],
        m[0] * n[1] + m[1] * n[3],
        m[2] * n[0] + m[3] * n[2],
        m[2] * n[1] + m[3] * n[3],
    )


INT_GENS = {
    1: (1, 1, 0, 1),
    -1: (1, -1, 0, 1),
    2: (1, 0, 1, 1),
    -2: (1, 0, -1, 1),
}


def test_evaluate_matches_manual_product():
    gens = [A_DIAG, B_UNIT]
    m = evaluate(parse_word("ab", rank=2), gens)
    want = A_DIAG.mul(B_UNIT)
    assert m.entries() == pytest.approx(want.entries())
    m = evaluate(parse_word("aB", rank=2), gens)
    want = A_DIAG.mul(B_UNIT.inv())
    assert m.entries() == pytest.approx(want.entries())
    assert evaluate(parse_word("", rank=2), gens) == IDENTITY


def test_evaluate_accepts_matrices_attribute():
    holder = SimpleNamespace(matrices=[A_DIAG, B_UNIT])
    m = evaluate(parse_word("ba", rank=2), holder)
    assert m.entries() == pytest.approx(B_UNIT.mul(A_DIAG).entries())


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=60))
def test_evaluate_matches_exact_integer_oracle(letters):
    """Shear generators have exact integer products; float entries must agree."""
    word = parse_word("".join("aAbB"[(abs(k) - 1) * 2 + (k < 0)] for k in letters), rank=2)
    gens = [Mat2(1.0, 1.0, 0.0, 1.0), Mat2(1.0, 0.0, 1.0, 1.0)]
    exact = (1, 0, 0, 1)
    for k in word.letters:  # oracle walks the same reduced word evaluate sees
        exact = int_mul(exact, INT_GENS[k])
    got = evaluate(word, gens)
    for g, e in zip(got.entries(), exact):
        assert g == pytest.approx(e, rel=1e-12, abs=1e-9)
    assert abs(got.det() - 1.0) < 1e-9


def test_word_translation_length_keeps_the_bits_of_short_words(pants_reps):
    words = ["ab", "aB", "aabAB", "abbaBA" * 3, "ab" * 100 + "aab"]
    for rep in pants_reps:
        for text in words:
            w = parse_word(text, rank=2)
            assert word_translation_length(w, rep) == translation_length(evaluate(w, rep)), text


def test_word_translation_length_past_the_float_range():
    # positive words in the shears [[1, 1], [0, 1]], [[1, 0], [1, 1]] have
    # exact integer traces; at 2000 letters they pass 2^1024, where
    # 2 acosh(t / 2) = 2 log t to double precision
    rng = random.Random(7)
    letters = [rng.choice((1, 2)) for _ in range(2000)]
    word = parse_word("".join("ab"[k - 1] for k in letters), rank=2)
    gens = [Mat2(1.0, 1.0, 0.0, 1.0), Mat2(1.0, 0.0, 1.0, 1.0)]
    assert not all(math.isfinite(v) for v in evaluate(word, gens).entries())
    exact = sl2z.trace(letters, (1, 1, 0, 1), (1, 0, 1, 1))
    assert exact.bit_length() > 1024
    assert word_translation_length(word, gens) == pytest.approx(2.0 * math.log(exact), rel=1e-13)


def test_word_translation_length_of_long_powers(pants_rep):
    # tau(w^k) = k tau(w); (ab)^400 overflows an unscaled product
    w = parse_word("ab", rank=2)
    tau = word_translation_length(w, pants_rep)
    for k in (50, 400, 1000):
        got = word_translation_length(parse_word("ab" * k, rank=2), pants_rep)
        assert got == pytest.approx(k * tau, rel=1e-12), k


@pytest.mark.parametrize("surface, alpha, g", [("pants", "ab", "b"), ("torus", "aabaB", "a")])
def test_word_translation_lengths_keep_the_bits_of_each_word(surface, alpha, g, pants_rep, torus_rep):
    # verify's order: the members of the pairs for n = 1, 2, ..., each
    # resuming the product at the prefix it shares with the word before;
    # then reversed, and both sides in one run, where the shared prefixes
    # shrink and vanish
    rep = pants_rep if surface == "pants" else torus_rep
    pairs = [build_pair_self(parse_word(alpha, 2), parse_word(g, 2), n) for n in range(1, 181)]
    lefts, rights = [p.left for p in pairs], [p.right for p in pairs]
    # the long words pass the rescale threshold, so resumed states carry a scale
    assert not all(abs(v) <= 2.0 ** 500 for v in evaluate(lefts[-1], rep).entries())
    for words in (lefts, rights, lefts[::-1], lefts + rights):
        assert word_translation_lengths(words, rep) == [word_translation_length(w, rep) for w in words]
    assert word_translation_lengths([], rep) == []


def test_dist_to_plus_minus_identity():
    assert dist_to_plus_minus_identity(IDENTITY) == 0.0
    assert dist_to_plus_minus_identity(Mat2(-1.0, 0.0, 0.0, -1.0)) == 0.0
    assert dist_to_plus_minus_identity(A_DIAG) == pytest.approx(1.0)
