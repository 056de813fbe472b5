"""Double-precision hyperbolic geometry of unit-determinant 2x2 matrices.

Upper half-plane model.  The boundary circle is R u {inf}; the single
point at infinity is math.inf (never -inf).  Matrices are projective:
m and -m represent the same isometry, all trace tests use |tr|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegeneracyError, NonHyperbolicError

INF = math.inf
CLASSIFY_TOL = 1e-9


@dataclass(frozen=True)
class Mat2:
    a: float
    b: float
    c: float
    d: float

    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def trace(self) -> float:
        return self.a + self.d

    def mul(self, o: "Mat2") -> "Mat2":
        return Mat2(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def inv(self) -> "Mat2":
        det = self.det()
        if det <= 0:
            raise ValueError("matrix is not orientation-preserving")
        return Mat2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def renormalize(self) -> "Mat2":
        det = self.det()
        if det <= 0:
            raise ValueError("determinant must be positive, got %r" % det)
        s = math.sqrt(det)
        return Mat2(self.a / s, self.b / s, self.c / s, self.d / s)

    def entries(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


IDENTITY = Mat2(1.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class HPoint:
    x: float
    y: float  # y > 0


@dataclass(frozen=True)
class Axis:
    """Oriented geodesic of a hyperbolic isometry, repelling -> attracting."""

    repelling: float
    attracting: float
    translation_length: float


def boundary_angle(x: float) -> float:
    # 2*atan maps R u {inf} bijectively onto (-pi, pi]; atan(inf) = pi/2.
    return 2.0 * math.atan(x)


def mobius(m: Mat2, x: float) -> float:
    if math.isinf(x):
        return m.a / m.c if m.c != 0.0 else INF
    den = m.c * x + m.d
    if den == 0.0:
        return INF
    return (m.a * x + m.b) / den


def classify(m: Mat2) -> str:
    t = abs(m.trace())
    if abs(t - 2.0) <= CLASSIFY_TOL:
        return "parabolic"
    return "hyperbolic" if t > 2.0 else "elliptic"


def translation_length(m: Mat2) -> float:
    return _length_of_trace(abs(m.trace()))


def _length_of_trace(t: float) -> float:
    """2 acosh(t / 2) for the absolute trace t of a hyperbolic matrix; the
    test is classify's, and a NaN trace fails it."""
    if abs(t - 2.0) <= CLASSIFY_TOL or not t > 2.0:
        raise NonHyperbolicError("translation length needs a hyperbolic matrix")
    return 2.0 * math.acosh(t / 2.0)


def axis(m: Mat2) -> Axis:
    if classify(m) != "hyperbolic":
        raise NonHyperbolicError("axis needs a hyperbolic matrix")
    tau = translation_length(m)
    if m.c == 0.0:
        fixed = m.b / (m.d - m.a)
        if abs(m.a) > abs(m.d):
            return Axis(fixed, INF, tau)
        return Axis(INF, fixed, tau)
    tr = m.trace()
    root = math.sqrt(tr * tr - 4.0)
    sgn = 1.0 if tr >= 0 else -1.0
    lam_att = (tr + sgn * root) / 2.0  # eigenvalue with |lam| > 1
    lam_rep = (tr - sgn * root) / 2.0
    return Axis((lam_rep - m.d) / m.c, (lam_att - m.d) / m.c, tau)


def _geometry(ax: Axis):
    # vertical line -> ("v", x0); semicircle -> ("c", center, radius)
    u, w = ax.repelling, ax.attracting
    if math.isinf(u):
        return ("v", w)
    if math.isinf(w):
        return ("v", u)
    return ("c", (u + w) / 2.0, abs(w - u) / 2.0)


def crossing_point(a1: Axis, a2: Axis) -> HPoint:
    g1, g2 = _geometry(a1), _geometry(a2)
    if g1[0] == "v" and g2[0] == "v":
        raise DegeneracyError("parallel vertical geodesics do not cross")
    if g1[0] == "v" or g2[0] == "v":
        v = g1[1] if g1[0] == "v" else g2[1]
        _, c, r = g2 if g1[0] == "v" else g1
        y2 = r * r - (v - c) * (v - c)
        if y2 <= 0.0:
            raise DegeneracyError("geodesics do not cross in the upper half-plane")
        return HPoint(v, math.sqrt(y2))
    _, c1, r1 = g1
    _, c2, r2 = g2
    if c1 == c2:
        raise DegeneracyError("concentric semicircles do not cross")
    x = (r1 * r1 - r2 * r2 - c1 * c1 + c2 * c2) / (2.0 * (c2 - c1))
    y2 = r1 * r1 - (x - c1) * (x - c1)
    if y2 <= 0.0:
        raise DegeneracyError("geodesics do not cross in the upper half-plane")
    return HPoint(x, math.sqrt(y2))


def tangent_at(ax: Axis, p: HPoint) -> tuple[float, float]:
    """Unit tangent (Euclidean chart) in the direction of travel at p."""
    geo = _geometry(ax)
    if geo[0] == "v":
        return (0.0, 1.0) if math.isinf(ax.attracting) else (0.0, -1.0)
    _, c, r = geo
    # (y, c - x)/r points toward the right-hand endpoint along the semicircle
    tx, ty = p.y / r, (c - p.x) / r
    if ax.attracting > ax.repelling:
        return (tx, ty)
    return (-tx, -ty)


def crossing_angle(a1: Axis, a2: Axis) -> float:
    """Angle in (0, pi) between the positive tangent directions at the crossing."""
    p = crossing_point(a1, a2)
    t1 = tangent_at(a1, p)
    t2 = tangent_at(a2, p)
    dot = max(-1.0, min(1.0, t1[0] * t2[0] + t1[1] * t2[1]))
    return math.acos(dot)


def hyperbolic_cosine_rule(side_a: float, side_b: float, angle_gamma: float) -> float:
    """Side c of a hyperbolic triangle from two sides and the included angle."""
    if side_a <= 0.0 or side_b <= 0.0:
        raise ValueError("triangle sides must be positive")
    if not 0.0 < angle_gamma < math.pi:
        raise ValueError("included angle must lie strictly between 0 and pi")
    rhs = math.cosh(side_a) * math.cosh(side_b) - math.sinh(side_a) * math.sinh(side_b) * math.cos(angle_gamma)
    return math.acosh(max(1.0, rhs))


def evaluate(word, gens) -> Mat2:
    """Evaluate a word under a generator assignment (list of Mat2 or an
    object with a .matrices attribute).

    No per-step renormalization: with unit-determinant factors the true
    determinant drifts only by ~len(word)*eps, while recomputing ad - bc
    from large entries is catastrophically cancelled, so "correcting" by
    it would inject noise (and spuriously fail for entries beyond ~1e8).
    """
    mats = getattr(gens, "matrices", gens)
    out = IDENTITY
    for letter in word.letters:
        m = mats[abs(letter) - 1]
        if letter < 0:
            m = m.inv()
        out = out.mul(m)
    return out


# An entry past 2^_RESCALE_EXP moves a power of two out of the running
# product, far below the float range's 2^1024, so a product of any length
# stays finite.
_RESCALE_EXP = 500
_RESCALE_AT = 2.0 ** _RESCALE_EXP
_LOG2 = math.log(2.0)


def word_translation_length(word, gens) -> float:
    """Translation length of a word's matrix, for words too long for its
    entries to fit a float.

    Multiplies as evaluate does, but once an entry passes 2^500 it divides
    the product by a power of two, exactly, and adds the exponent to a
    running scale.  Scaling by a power of two is exact, so wherever
    evaluate's product has a finite trace the result has its bits, that of
    translation_length(evaluate(word, gens)).  Past the float range,
    |tr| = |t| 2^scale, with t the trace of the scaled product, is so large
    that 2 acosh(|tr| / 2) = 2 log|tr| = 2 (log|t| + scale log 2) in floats.
    A trace far below the entries (a long conjugate of a short word)
    cancels in floats, scaled or not.
    """
    mats = getattr(gens, "matrices", gens)
    out = IDENTITY
    scale = 0
    for letter in word.letters:
        m = mats[abs(letter) - 1]
        if letter < 0:
            m = m.inv()
        out = out.mul(m)
        big = max(abs(out.a), abs(out.b), abs(out.c), abs(out.d))
        if big > _RESCALE_AT:
            e = math.frexp(big)[1]
            out = Mat2(*(math.ldexp(v, -e) for v in out.entries()))
            scale += e
    t = abs(out.trace())
    if scale and t:
        if math.frexp(t)[1] + scale > 1024:  # |tr| past the float range
            return 2.0 * (math.log(t) + scale * _LOG2)
        t = math.ldexp(t, scale)
    return _length_of_trace(t)


def dist_to_plus_minus_identity(m: Mat2) -> float:
    dp = max(abs(m.a - 1.0), abs(m.b), abs(m.c), abs(m.d - 1.0))
    dm = max(abs(m.a + 1.0), abs(m.b), abs(m.c), abs(m.d + 1.0))
    return min(dp, dm)
