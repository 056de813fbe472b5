"""Double-precision hyperbolic geometry of unit-determinant 2x2 matrices.

Upper half-plane model.  The boundary circle is R u {inf}; the single
point at infinity is math.inf (never -inf).  Matrices are projective:
m and -m represent the same isometry, all trace tests use |tr|.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._records import same_class_equality
from .errors import NonHyperbolicError

INF = math.inf
CLASSIFY_TOL = 1e-9


@same_class_equality
class Mat2(NamedTuple):
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


@same_class_equality
class Axis(NamedTuple):
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
    return word_translation_lengths((word,), gens)[0]


def _shared_prefix(u: tuple, v: tuple) -> int:
    """Length of the longest common prefix of two tuples, bisected with
    slice comparisons that run at C speed."""
    lo, hi = 0, min(len(u), len(v))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if u[:mid] == v[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def word_translation_lengths(words, gens) -> list[float]:
    """word_translation_length of each word in turn, for a run of words that
    share long prefixes (alpha^n alpha^g for n = 1, 2, ...).

    Each word resumes the running (scaled product, scale) at the end of the
    prefix it shares with the word before, so the shared letters are
    multiplied once.  Over that prefix the multiplications and rescales are
    the ones the word's own pass would make, so every length keeps its bits.
    """
    mats = getattr(gens, "matrices", gens)
    prev: tuple = ()
    states = [(IDENTITY, 0)]  # states[k]: (scaled product, scale) after k letters of prev
    out = []
    for word in words:
        letters = word.letters
        k = _shared_prefix(prev, letters)
        del states[k + 1 :]
        m, scale = states[k]
        for letter in letters[k:]:
            g = mats[abs(letter) - 1]
            if letter < 0:
                g = g.inv()
            m = m.mul(g)
            big = max(abs(m.a), abs(m.b), abs(m.c), abs(m.d))
            if big > _RESCALE_AT:
                e = math.frexp(big)[1]
                m = Mat2(*(math.ldexp(v, -e) for v in m))
                scale += e
            states.append((m, scale))
        prev = letters
        t = abs(m.trace())
        if scale and t:
            if math.frexp(t)[1] + scale > 1024:  # |tr| past the float range
                out.append(2.0 * (math.log(t) + scale * _LOG2))
                continue
            t = math.ldexp(t, scale)
        out.append(_length_of_trace(t))
    return out


def dist_to_plus_minus_identity(m: Mat2) -> float:
    dp = max(abs(m.a - 1.0), abs(m.b), abs(m.c), abs(m.d - 1.0))
    dm = max(abs(m.a + 1.0), abs(m.b), abs(m.c), abs(m.d + 1.0))
    return min(dp, dm)
