"""Float geometry of geodesics in the upper half-plane, for the tests.

The crossing point of two axes, the unit tangent of an axis there, the
angle between two axes, and the hyperbolic cosine rule.  The reference
walk decides crossing signs with them, and acceptance 3 checks sampled
lengths against the cosine rule at the crossing angle.
"""

import math
from typing import NamedTuple

from lenequiv.sl2 import Axis


class DegeneracyError(Exception):
    """Boundary endpoints too close to decide a crossing or a sign reliably."""


class HPoint(NamedTuple):
    x: float
    y: float  # y > 0


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
