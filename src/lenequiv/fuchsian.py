"""Sampling and certifying discrete free purely-hyperbolic representations.

The sampler assigns to each generator a conjugate of diag(t, 1/t) along a
fixed axis layout.  Which layout depends on the surface:

* genus == 1: the first two generators get linked axes {0, inf} and
  {-1, +1}, so their closed geodesics cross on the quotient (the pair
  crossing used by the cosine-rule checks exists by construction).
* genus == 0: generators get nested-free, pairwise unlinked axes
  (-1 -> -3) and (+1 -> +3), oriented "outward".  With that marking the
  product word "ab" is the figure-eight class (one self-intersection)
  and "aB" is the third boundary class.
* genus >= 2: no layout (one linked pair is not enough); UnsupportedRankError.

Discreteness + freeness come from a ping-pong certificate: one closed
boundary interval per signed generator, pairwise disjoint, each generator
mapping the complement of its inverse's interval strictly into its own.
The certificate is checked numerically on interval endpoints, plus a
spot check that no reduced word of at most 6 letters evaluates to
+-identity: one depth-first walk over the words that keeps no product.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from ._records import same_class_equality
from .errors import CertificationError, NonHyperbolicError, UnsupportedRankError
from .sl2 import (
    INF,
    Mat2,
    axis,
    boundary_angle,
    classify,
    dist_to_plus_minus_identity,
    evaluate,
    mobius,
    translation_length,
)
from .word_algebra import (
    SPREAD_FLOOR,
    SurfaceSpec,
    Word,
    letter_to_str,
    parse_word,
)

_TWO_PI = 2.0 * math.pi
_K_SCALES = (1.0, 0.7, 0.5, 0.35, 0.25, 0.18, 0.12, 0.08, 0.05, 0.03)
_ATT_SHRINK = 0.98  # shrink of the image interval that buys a strict margin
_FREENESS_WORD_LEN = 6
_FREENESS_EPS = 1e-6


@same_class_equality
class Arc(NamedTuple):
    """Closed arc on the boundary circle, counterclockwise from start."""

    start: float  # angles in (-pi, pi]
    span: float

    @classmethod
    def from_endpoints(cls, e1: float, e2: float, sample: float) -> "Arc":
        t1, t2, ts = boundary_angle(e1), boundary_angle(e2), boundary_angle(sample)
        span = (t2 - t1) % _TWO_PI
        if (ts - t1) % _TWO_PI <= span:
            return cls(t1, span)
        return cls(t2, _TWO_PI - span)

    def contains_angle(self, theta: float, slack: float = 1e-12) -> bool:
        return (theta - self.start) % _TWO_PI <= self.span + slack

    def contains_point(self, x: float, slack: float = 1e-12) -> bool:
        return self.contains_angle(boundary_angle(x), slack)

    def contains_arc(self, other: "Arc", margin: float = 0.0) -> bool:
        off = (other.start - self.start) % _TWO_PI
        return off >= margin and off + other.span <= self.span - margin

    def disjoint_from(self, other: "Arc", gap: float = 1e-11) -> bool:
        if self.contains_angle(other.start, gap) or self.contains_angle(
            (other.start + other.span) % _TWO_PI, gap
        ):
            return False
        return not other.contains_angle(self.start, gap)

    def complement(self) -> "Arc":
        return Arc((self.start + self.span) % _TWO_PI, _TWO_PI - self.span)

    def midpoint_angle(self) -> float:
        return (self.start + self.span / 2.0) % _TWO_PI


def _point_at_angle(theta: float) -> float:
    theta = (theta + math.pi) % _TWO_PI - math.pi  # back to (-pi, pi]
    if abs(abs(theta) - math.pi) < 1e-15:
        return INF
    return math.tan(theta / 2.0)


@same_class_equality
class PingPongCertificate(NamedTuple):
    """Disjoint boundary intervals, one per signed generator.

    arcs[label] is the interval of that signed generator; label text is
    "a" for generator 1, "A" for its inverse, and so on.
    """

    arcs: dict
    k_scale: float

    def labels(self):
        return sorted(self.arcs.keys())


class Representation:
    """Generator matrices for a surface group, with the inverse of each and
    the ping-pong certificate once one is found."""

    def __init__(self, surface, matrices, seed=None, spread=None, certificate=None, layout=None):
        self.surface = surface
        self.matrices = tuple(matrices)
        self.seed = seed
        self.spread = spread
        self.certificate = certificate
        self.layout = layout  # (tag, axis endpoints, translation params)
        self._signed_gen: dict[int, Mat2] = {}
        for i, m in enumerate(self.matrices, start=1):
            self._signed_gen[i] = m
            self._signed_gen[-i] = m.inv().renormalize()

    @property
    def rank(self) -> int:
        return len(self.matrices)

    def evaluate(self, w: Word) -> Mat2:
        return evaluate(w, self.matrices)

    def peripheral_words(self):
        """Boundary classes of the layout (known for rank-2 layouts only)."""
        if self.layout is None:
            return None
        tag = self.layout[0]
        if self.rank != 2:
            return None
        if tag == "linked":
            return (parse_word("abAB"),)
        return (parse_word("a"), parse_word("b"), parse_word("aB"))

    def summary(self):
        return {
            "surface": {
                "genus": self.surface.genus,
                "boundary_components": self.surface.boundary_components,
                "punctures": self.surface.punctures,
            },
            "seed": self.seed,
            "spread": self.spread,
            "matrices": [m.entries() for m in self.matrices],
        }


def _conjugated_diagonal(t: float, att: float, rep: float) -> Mat2:
    """Hyperbolic with eigenvalue ratio t^2, axis repelling -> attracting."""
    if math.isinf(att):
        return Mat2(t, rep * (1.0 / t - t), 0.0, 1.0 / t)
    if math.isinf(rep):
        return Mat2(1.0 / t, att * (t - 1.0 / t), 0.0, t)
    det = att - rep
    return Mat2(
        (att * t - rep / t) / det,
        att * rep * (1.0 / t - t) / det,
        (t - 1.0 / t) / det,
        (att / t - rep * t) / det,
    )


def _layout_axes(surface: SurfaceSpec):
    """Fixed per-generator (repelling, attracting) endpoints."""
    if surface.genus >= 2:
        raise UnsupportedRankError("axis layouts exist for genus 0 and 1 only, not genus %d" % surface.genus)
    rank = surface.rank
    axes = []
    if surface.genus == 1:
        axes.append((0.0, INF))
        axes.append((-1.0, 1.0))
        pos = 3.0
        tag = "linked"
    else:
        axes.append((-1.0, -3.0))
        axes.append((1.0, 3.0))
        pos = 5.0
        tag = "unlinked"
    while len(axes) < rank:
        axes.append((pos, pos + 1.0))
        pos += 2.0
    return tag, tuple(axes)


def _build_matrices(axes, ts):
    out = []
    for (rep_pt, att_pt), t in zip(axes, ts):
        out.append(_conjugated_diagonal(t, att_pt, rep_pt).renormalize())
    return tuple(out)


def sample_representation(surface: SurfaceSpec, seed: int, spread: float = 3.0) -> Representation:
    """Deterministic certified representation for (surface, seed, spread).

    Seed 0 uses the unjittered base layout with t = spread for every
    generator; other seeds jitter the translation parameters.  If the
    certificate fails at the requested spread the sampler retries with a
    larger one (bounded retries).
    """
    if spread < SPREAD_FLOOR:
        raise ValueError("spread below safety floor %.1f" % SPREAD_FLOOR)
    tag, axes = _layout_axes(surface)
    rng = random.Random(seed)
    jitter = [rng.random() for _ in range(surface.rank)]
    attempt_spread = spread
    last_err = None
    for _ in range(6):
        if seed == 0:
            ts = [attempt_spread] * surface.rank
        else:
            ts = [attempt_spread * (1.0 + 0.5 * u) for u in jitter]
        matrices = _build_matrices(axes, ts)
        rep = Representation(surface, matrices, seed=seed, spread=spread, layout=(tag, axes, tuple(ts)))
        try:
            rep.certificate = certify_ping_pong(rep)
            return rep
        except CertificationError as err:
            last_err = err
            attempt_spread *= 1.4
    raise CertificationError("sampler failed to certify after retries: %s" % last_err)


def _generator_arcs(m: Mat2, k_scale: float):
    """Candidate (attracting arc, repelling arc) for one generator.

    Build them in the diagonal model of the generator: the repelling
    interval is |z| <= k, the attracting one |z| >= K with K just inside
    the image of |z| = k, then transport both through the map that pins
    (0, inf) to (repelling, attracting)."""
    ax = axis(m)
    t = math.exp(translation_length(m) / 2.0)
    k = k_scale / t
    bigk = _ATT_SHRINK * t * t * k
    u, w = ax.repelling, ax.attracting
    if math.isinf(w):
        conj = lambda z: INF if math.isinf(z) else u + z  # noqa: E731
    elif math.isinf(u):
        conj = lambda z: w if math.isinf(z) else w - 1.0 / z if z != 0.0 else INF  # noqa: E731
    else:
        def conj(z, u=u, w=w):
            if math.isinf(z):
                return w
            return (w * z + u) / (z + 1.0)

    rep_arc = Arc.from_endpoints(conj(-k), conj(k), conj(0.0))
    att_arc = Arc.from_endpoints(conj(-bigk), conj(bigk), conj(INF))
    return att_arc, rep_arc


def certify_ping_pong(rep: Representation) -> PingPongCertificate:
    """Certificate of discreteness and freeness, or CertificationError."""
    for m in rep.matrices:
        if classify(m) != "hyperbolic":
            raise NonHyperbolicError("all generators must be hyperbolic")
    failures = []
    for k_scale in _K_SCALES:
        arcs = {}
        for i, m in enumerate(rep.matrices, start=1):
            att_arc, rep_arc = _generator_arcs(m, k_scale)
            arcs[letter_to_str(i)] = att_arc
            arcs[letter_to_str(-i)] = rep_arc
        ok, why = _check_arcs(rep, arcs)
        if ok:
            cert = PingPongCertificate(arcs=arcs, k_scale=k_scale)
            _freeness_spot_check(rep)
            return cert
        failures.append("k_scale %.2f: %s" % (k_scale, why))
    raise CertificationError("no ping-pong certificate found: " + "; ".join(failures[:3]))


def _check_arcs(rep: Representation, arcs) -> tuple[bool, str]:
    labels = sorted(arcs.keys())
    for i, l1 in enumerate(labels):
        for l2 in labels[i + 1 :]:
            if not arcs[l1].disjoint_from(arcs[l2]):
                return False, "intervals %s and %s overlap" % (l1, l2)
    for i, m in enumerate(rep.matrices, start=1):
        for m_signed, label, inv_label in ((m, letter_to_str(i), letter_to_str(-i)),
                                           (rep._signed_gen[-i], letter_to_str(-i), letter_to_str(i))):
            dom = arcs[inv_label].complement()
            e1 = _point_at_angle(dom.start)
            e2 = _point_at_angle((dom.start + dom.span) % _TWO_PI)
            mid = _point_at_angle(dom.midpoint_angle())
            image = Arc.from_endpoints(mobius(m_signed, e1), mobius(m_signed, e2), mobius(m_signed, mid))
            if not arcs[label].contains_arc(image, margin=1e-11):
                return False, "generator %s does not contract into its interval" % label
    return True, ""


def _freeness_spot_check(rep: Representation):
    """CertificationError if a reduced word of 1 to _FREENESS_WORD_LEN
    letters evaluates to +-identity.

    The words are walked depth first and no product is kept: each is its
    prefix's product times one signed generator, in Mat2.mul's operation
    order from the identity.  Only a product whose off-diagonal entries are
    both below the threshold can be that close to +-identity, because
    dist_to_plus_minus_identity is at least the larger of the two."""
    eps = _FREENESS_EPS
    gens = list(rep._signed_gen.items())

    def walk(a, b, c, d, last, depth):
        for s, (ga, gb, gc, gd) in gens:
            if s == -last:
                continue
            pa, pb = a * ga + b * gc, a * gb + b * gd
            pc, pd = c * ga + d * gc, c * gb + d * gd
            if abs(pb) < eps and abs(pc) < eps and dist_to_plus_minus_identity(Mat2(pa, pb, pc, pd)) < eps:
                raise CertificationError("short word evaluates to +-identity; not free")
            if depth > 1:
                walk(pa, pb, pc, pd, s, depth - 1)

    walk(1.0, 0.0, 0.0, 1.0, 0, _FREENESS_WORD_LEN)
