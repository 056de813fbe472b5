"""Sampler and ping-pong certificate.

The certificate's meaning is re-checked here from outside: interval
disjointness straight from the Arc API, the contraction property on a
grid of boundary points, and freeness/hyperbolicity over word balls.
"""

import math
import struct
from collections import Counter

import pytest
from reference_walk import ball

from lenequiv import fuchsian
from lenequiv.errors import CertificationError, NonHyperbolicError, UnsupportedRankError
from lenequiv.fuchsian import (
    SPREAD_FLOOR,
    Arc,
    Representation,
    _build_matrices,
    _freeness_spot_check,
    _layout_axes,
    _point_at_angle,
    certify_ping_pong,
    sample_representation,
)
from lenequiv.sl2 import INF, Mat2, boundary_angle, classify, dist_to_plus_minus_identity, mobius
from lenequiv.word_algebra import SurfaceSpec, Word, letter_to_str, parse_word

TORUS = SurfaceSpec(genus=1, boundary_components=1)
PANTS = SurfaceSpec(genus=0, boundary_components=3)


# ---------------------------------------------------------------------- arcs


def test_arc_from_endpoints_uses_sample_side():
    over_zero = Arc.from_endpoints(-1.0, 1.0, 0.0)
    assert over_zero.contains_point(0.0)
    assert over_zero.contains_point(0.999)
    assert not over_zero.contains_point(INF)
    assert not over_zero.contains_point(-3.0)
    other_side = Arc.from_endpoints(-1.0, 1.0, INF)
    assert other_side.contains_point(INF)
    assert not other_side.contains_point(0.0)
    # endpoints are included either way (closed arcs)
    assert over_zero.contains_point(1.0) and other_side.contains_point(1.0)


def test_arc_complement_and_midpoint():
    arc = Arc.from_endpoints(-1.0, 1.0, 0.0)
    comp = arc.complement()
    assert comp.span == pytest.approx(2.0 * math.pi - arc.span)
    assert comp.contains_point(INF)
    assert not comp.contains_point(0.0, slack=0.0)
    assert arc.contains_angle(arc.midpoint_angle())


def test_arc_disjointness_and_nesting():
    a = Arc(0.0, 0.5)
    assert a.disjoint_from(Arc(1.0, 0.5))
    assert Arc(1.0, 0.5).disjoint_from(a)
    assert not a.disjoint_from(Arc(0.4, 0.5))  # overlap
    assert not a.disjoint_from(Arc(0.1, 0.2))  # containment
    big = Arc(0.0, 1.0)
    assert big.contains_arc(Arc(0.2, 0.5))
    assert not big.contains_arc(Arc(0.2, 0.9))
    assert not big.contains_arc(Arc(0.0, 1.0), margin=0.1)  # no strict margin left


def test_point_at_angle_inverts_boundary_angle():
    for x in (0.0, 1.0, -2.5, 17.0, INF):
        back = _point_at_angle(boundary_angle(x))
        if math.isinf(x):
            assert math.isinf(back)
        else:
            assert back == pytest.approx(x, abs=1e-12)


# ------------------------------------------------------------------- sampler


def test_sampler_layouts():
    torus = sample_representation(TORUS, seed=0)
    assert torus.layout[0] == "linked"
    assert torus.layout[1] == ((0.0, INF), (-1.0, 1.0))
    pants = sample_representation(PANTS, seed=0)
    assert pants.layout[0] == "unlinked"
    assert pants.layout[1] == ((-1.0, -3.0), (1.0, 3.0))


def test_sampler_seed_zero_traces(torus_rep, pants_rep):
    # unjittered: every generator is a conjugate of diag(3, 1/3)
    for rep in (torus_rep, pants_rep):
        for m in rep.matrices:
            assert abs(m.trace()) == pytest.approx(3.0 + 1.0 / 3.0, rel=1e-12)
            assert m.det() == pytest.approx(1.0, rel=1e-12)


def test_sampler_certificates_pinned(torus_rep, pants_rep):
    assert torus_rep.certificate is not None
    assert torus_rep.certificate.k_scale == 1.0
    assert pants_rep.certificate.k_scale == 0.7
    assert torus_rep.certificate.labels() == ["A", "B", "a", "b"]


def test_sampler_is_deterministic():
    r1 = sample_representation(TORUS, seed=5)
    r2 = sample_representation(TORUS, seed=5)
    assert [m.entries() for m in r1.matrices] == [m.entries() for m in r2.matrices]
    assert r1.certificate.arcs == r2.certificate.arcs
    r3 = sample_representation(TORUS, seed=6)
    assert [m.entries() for m in r3.matrices] != [m.entries() for m in r1.matrices]


def test_sampler_jittered_seeds_certify(pants_reps):
    for rep in pants_reps:
        assert rep.certificate is not None
        for m in rep.matrices:
            assert classify(m) == "hyperbolic"


def test_sampler_rejects_genus_two_and_up():
    # the layout links only generators 1-2, so genus 2 would get the
    # representation of the genus-1, 3-holed surface of the same rank
    for surface in (SurfaceSpec(2, 1), SurfaceSpec(3, 1)):
        with pytest.raises(UnsupportedRankError):
            sample_representation(surface, seed=0)
    assert sample_representation(SurfaceSpec(1, 3), seed=0).layout[0] == "linked"
    assert sample_representation(SurfaceSpec(0, 4), seed=0).layout[0] == "unlinked"


def test_sampler_rejects_small_spread():
    with pytest.raises(ValueError):
        sample_representation(TORUS, seed=0, spread=1.2)


# --------------------------------------------------------------- certificate


def test_certificate_arcs_pairwise_disjoint(torus_rep, pants_rep):
    for rep in (torus_rep, pants_rep):
        arcs = rep.certificate.arcs
        labels = sorted(arcs)
        for i, l1 in enumerate(labels):
            for l2 in labels[i + 1 :]:
                assert arcs[l1].disjoint_from(arcs[l2]), (l1, l2)


def test_certificate_contraction_on_grid(torus_rep, pants_rep):
    """Each signed generator maps the complement of its inverse's interval
    into its own interval; checked on interior sample points."""
    for rep in (torus_rep, pants_rep):
        arcs = rep.certificate.arcs
        for i, m in enumerate(rep.matrices, start=1):
            for mat, s in ((m, i), (m.inv(), -i)):
                dom = arcs[letter_to_str(-s)].complement()
                for frac in (0.02, 0.2, 0.5, 0.8, 0.98):
                    x = _point_at_angle(dom.start + frac * dom.span)
                    assert arcs[letter_to_str(s)].contains_point(mobius(mat, x), slack=1e-9)


def test_certify_rejects_elliptic_generator(torus_rep):
    c, s = math.cos(1.0), math.sin(1.0)
    bad = Representation(TORUS, (torus_rep.matrices[0], Mat2(c, -s, s, c)))
    with pytest.raises(NonHyperbolicError):
        certify_ping_pong(bad)


def test_certify_fails_for_weak_translation():
    # t = 1.2 keeps the generators hyperbolic but the intervals collide
    tag, axes = _layout_axes(TORUS)
    weak = Representation(TORUS, _build_matrices(axes, (1.2, 1.2)))
    with pytest.raises(CertificationError):
        certify_ping_pong(weak)


def test_ball_freeness_and_hyperbolicity(torus_rep, pants_rep):
    for rep in (torus_rep, pants_rep):
        for w, m in ball(rep, 4):
            assert dist_to_plus_minus_identity(m) > 1e-6, w
            assert classify(m) == "hyperbolic", w


# ---------------------------------------------------------------------- ball


def test_ball_counts_and_order(torus_rep):
    words = [w for w, _ in ball(torus_rep, 2)]
    assert len(words) == 4 + 12
    assert words[:4] == [(1,), (-1,), (2,), (-2,)]
    assert len(ball(torus_rep, 2, include_identity=True)) == 17
    assert ball(torus_rep, 0, include_identity=True)[0][0] == ()


def test_ball_matrices_match_evaluate(torus_rep):
    for w, m in ball(torus_rep, 3):
        direct = torus_rep.evaluate(Word(w))
        assert m.entries() == pytest.approx(direct.entries(), rel=1e-12, abs=1e-12)


def test_regression_long_ball_products_stay_finite():
    # Renormalizing each product by its computed determinant raised
    # "determinant must be positive" at length 9: ad - bc of large entries
    # cancels to 0 or below.
    rep = sample_representation(PANTS, 2)
    for w, m in ball(rep, 9):
        direct = rep.evaluate(Word(w))
        scale = max(abs(x) for x in direct.entries())
        assert all(abs(x - y) <= 1e-9 * scale for x, y in zip(m.entries(), direct.entries())), w


# ------------------------------------------------------------ freeness walk


@pytest.mark.parametrize("seed", [0, 2])
def test_freeness_walk_tests_every_short_product(seed, monkeypatch):
    # with an infinite threshold every product passes the prefilter and
    # reaches the distance test, which records it and never fails
    rep = sample_representation(PANTS if seed else TORUS, seed)
    tested = []

    def recorder(m):
        tested.append(struct.pack("<4d", *m))
        return math.inf

    monkeypatch.setattr(fuchsian, "_FREENESS_EPS", math.inf)
    monkeypatch.setattr(fuchsian, "dist_to_plus_minus_identity", recorder)
    _freeness_spot_check(rep)
    assert len(tested) == 4 + 12 + 36 + 108 + 324 + 972 == 1456
    assert Counter(tested) == Counter(struct.pack("<4d", *m) for _, m in ball(rep, 6))


def test_freeness_walk_rejects_a_non_free_pair(torus_rep):
    a = torus_rep.matrices[0]
    with pytest.raises(CertificationError):
        _freeness_spot_check(Representation(TORUS, (a, a.inv())))


def test_representation_keeps_no_words():
    rep = sample_representation(PANTS, 1)
    assert set(vars(rep)) == {
        "surface", "matrices", "seed", "spread", "certificate", "layout", "_signed_gen",
    }


# ------------------------------------------------------- peripheral words etc


def test_peripheral_words(torus_rep, pants_rep):
    (comm,) = torus_rep.peripheral_words()
    assert comm.letters == parse_word("abAB").letters
    pants = [str(w) for w in pants_rep.peripheral_words()]
    assert pants == ["a", "b", "aB"]
    rank3 = sample_representation(SurfaceSpec(genus=1, boundary_components=2), seed=0)
    assert rank3.peripheral_words() is None
    bare = Representation(TORUS, torus_rep.matrices)
    assert bare.peripheral_words() is None


def test_summary_shape(torus_rep):
    s = torus_rep.summary()
    assert s["surface"] == {"genus": 1, "boundary_components": 1, "punctures": 0}
    assert s["seed"] == 0 and s["spread"] == 3.0
    assert len(s["matrices"]) == 2 and all(len(m) == 4 for m in s["matrices"])
