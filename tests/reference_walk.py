"""Float reference for the exact intersection engine.

Walks the word ball (`ball`) in (length, letter order) and tests each
translate g.A_beta against A_alpha in the upper half-plane: the axes cross
when the boundary angles of their ends interleave, and the sign is that of
the frame (tangent of A_alpha, tangent of the translate) at the crossing
point, +1 when counterclockwise.  A translate with an end within
END_GAP rad of an end of A_alpha is skipped: it is a lift of A_alpha
itself (a power of alpha in the self case), or its ends are too close for
the floats to order.  Each double coset keeps the first lift that crosses.

Independent of the tree-order engine, so the two check each other; but
only at small bounds, where the floats still separate the ends.
"""

import math

from halfplane import DegeneracyError, crossing_point, tangent_at

from lenequiv.intersections import IntersectionRecord, mutual_coset_key, self_coset_key
from lenequiv.sl2 import IDENTITY, Axis, axis, boundary_angle, mobius
from lenequiv.word_algebra import Word, cyclic_normal_form, word_sort_key

END_GAP = 1e-9  # rad
SIGN_GAP = 1e-9  # |cross product| of unit tangents below which the sign is unreliable


def ball(rep, bound: int, include_identity: bool = False) -> list:
    """(letters, matrix) of every reduced word of length <= bound, in
    (length, letter order) order; each matrix is its prefix's matrix times
    one signed generator, starting from the identity."""
    level = [((), IDENTITY)]
    out = list(level) if include_identity else []
    for _ in range(bound):
        level = [
            (letters + (s,), m.mul(gen))
            for letters, m in level
            for s, gen in rep._signed_gen.items()
            if not letters or s != -letters[-1]
        ]
        out += level
    return out


def _angle_gap(s, t):
    d = abs(s - t) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def _in_arc(theta, start, end):
    # walking counterclockwise from angle start to angle end, do we pass theta?
    return 0.0 < (theta - start) % (2.0 * math.pi) < (end - start) % (2.0 * math.pi)


def axes_cross(a1: Axis, a2: Axis) -> bool:
    """True iff the ends of a2 separate the ends of a1 on the boundary
    circle; DegeneracyError when an end of a2 is within END_GAP of an end
    of a1."""
    start, end = boundary_angle(a1.repelling), boundary_angle(a1.attracting)
    ends = boundary_angle(a2.repelling), boundary_angle(a2.attracting)
    if any(_angle_gap(p, q) < END_GAP for p in ends for q in (start, end)):
        raise DegeneracyError("axis ends nearly coincide")
    return _in_arc(ends[0], start, end) != _in_arc(ends[1], start, end)


def crossing_sign(a1: Axis, a2: Axis) -> int:
    """Orientation of the frame (tangent of a1, tangent of a2) at the
    crossing point; DegeneracyError when there is no reliable one."""
    p = crossing_point(a1, a2)
    t1, t2 = tangent_at(a1, p), tangent_at(a2, p)
    cross = t1[0] * t2[1] - t1[1] * t2[0]
    if abs(cross) < SIGN_GAP:
        raise DegeneracyError("near-tangential crossing, sign unreliable")
    return 1 if cross > 0 else -1


def reference_records(alpha: Word, beta: Word, rep, bound: int) -> list[IntersectionRecord]:
    """Records of alpha and beta (self records when beta is alpha's class)
    whose witnesses have length <= bound, sorted by witness."""
    self_case = cyclic_normal_form(beta) == cyclic_normal_form(alpha)
    ax = axis(rep.evaluate(alpha))
    ax_beta = ax if self_case else axis(rep.evaluate(beta))
    found = {}
    for letters, m_g in ball(rep, bound, include_identity=True):
        translate = Axis(mobius(m_g, ax_beta.repelling), mobius(m_g, ax_beta.attracting),
                         ax_beta.translation_length)
        try:
            if not axes_cross(ax, translate):
                continue
            sign = crossing_sign(ax, translate)
        except DegeneracyError:
            continue
        g = Word(letters)
        key = self_coset_key(g, alpha) if self_case else mutual_coset_key(g, alpha, beta)
        found.setdefault(key, IntersectionRecord(witness=key, sign=sign))
    return sorted(found.values(), key=lambda r: word_sort_key(r.witness.letters))
