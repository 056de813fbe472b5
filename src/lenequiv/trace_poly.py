"""Exact SL2 trace calculus for two-generator words.

Every word w(a, b) has a unique integer polynomial F in the coordinates
x = tr A, y = tr B, z = tr AB with tr w(A, B) = F(x, y, z) for all
unit-determinant matrix pairs (A, B) (Fricke; Horowitz, CPAM 1972).
trace_polynomial computes F as the trace of one product of the generic pair

    A = [[x, -1], [1, 0]],    B = [[0, t], [-1/t, y]]

over R = Z[x, y, z][t] / (t^2 - z t + 1), in which 1/t = z - t: tr A = x,
tr B = y and tr AB = t + 1/t = z.  Every point of C^3 is the character of
some pair, so the trace of w(A, B) is F itself and its t-part is 0.  An
entry p0 + p1 t of R is held as the pair (p0, p1); a product by t is
-p1 + (p0 + z p1) t and a product by 1/t is (z p0 + p1) - p0 t.  The walk
multiplies the two rows of the identity on the right by one generator per
letter, in O(|w| * terms) polynomial steps.

trace_identity builds the polynomials of a^n b and b^n a for a whole range
of n in one pass of the doubled-letter rule
tr(s s T) = tr(s) tr(s T) - tr(T), with no matrix walk per n.

A polynomial stores each monomial x^i y^j z^k under one int that packs the
fields (j, k, i + j + k), the degree in the low field: the product of two
monomials is the sum of their keys, and y := x clears the j field.
Degrees up to 1023 fit; a product past that raises ValueError.  Each
polynomial carries an upper bound on its degree, derived from its operands
at no cost, so the guard reads two bounds per product and scans the terms
for their exact degrees only when the bounds pass 1023.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import UnsupportedRankError
from .word_algebra import Word, cyclic_reduce

_VAR_NAMES = ("x", "y", "z")
_RANK_TWO_LETTERS = frozenset((1, -1, 2, -2))

# Width of each field of a packed key.  The key of x^i y^j z^k is
# j << 2W | k << W | d with d = i + j + k, so j and k never exceed d, no
# field carries while d <= _FIELD, and every key then fits one 30-bit digit
# of a Python int.  The degree sits in the low field because a dict of int
# keys indexes by their low bits: the degrees of a polynomial's terms are
# spread, where its z (or y) exponents are often all 0 or 1.
_BITS = 10
_FIELD = (1 << _BITS) - 1
_CLEAR_Y = (1 << 2 * _BITS) - 1  # keeps the k and d fields


def _pack(expo: tuple[int, int, int]) -> int:
    i, j, k = expo
    d = i + j + k
    if min(expo) < 0 or d > _FIELD:
        raise ValueError("exponents %r: degree outside [0, %d]" % (expo, _FIELD))
    return j << 2 * _BITS | k << _BITS | d


def _unpack(key: int) -> tuple[int, int, int]:
    j, k = key >> 2 * _BITS, key >> _BITS & _FIELD
    return (key & _FIELD) - j - k, j, k


def _degree(p: "TracePolynomial") -> int:
    return max(map(_FIELD.__and__, p._terms), default=0)


def _check_degree(p: "TracePolynomial", q: "TracePolynomial") -> int:
    """A degree bound for p * q; refuse a product of degree past _FIELD,
    which packed keys cannot hold.  The carried bounds decide in O(1)
    unless they pass _FIELD; the exact degrees then decide."""
    deg = p._deg + q._deg
    if deg > _FIELD:
        deg = _degree(p) + _degree(q)
        if deg > _FIELD:
            raise ValueError("polynomial degree past %d" % _FIELD)
    return deg


class TracePolynomial:
    """Sparse integer polynomial in (x, y, z).

    Built from a mapping {(i, j, k): coefficient}; `terms` is a read-only
    view in that form.  Arithmetic runs on the packed keys.
    """

    __slots__ = ("_terms", "_deg")

    def __init__(self, terms=None):
        # packed key -> coefficient; a coefficient is never zero
        self._terms: dict[int, int] = {_pack(e): c for e, c in terms.items() if c} if terms else {}
        # an upper bound on the total degree, at most _FIELD; exact here
        self._deg = _degree(self)

    @classmethod
    def _of(cls, packed: dict[int, int], deg: int) -> "TracePolynomial":
        """The polynomial of a packed mapping with no zero coefficient and
        degree at most deg."""
        out = cls.__new__(cls)
        out._terms = packed
        out._deg = deg
        return out

    @property
    def terms(self):
        return MappingProxyType({_unpack(e): c for e, c in self._terms.items()})

    @classmethod
    def constant(cls, c: int) -> "TracePolynomial":
        return cls({(0, 0, 0): c})

    @classmethod
    def variable(cls, idx: int) -> "TracePolynomial":
        expo = [0, 0, 0]
        expo[idx] = 1
        return cls({tuple(expo): 1})

    def __add__(self, other: "TracePolynomial") -> "TracePolynomial":
        out = self._terms.copy()
        get = out.get
        for e, c in other._terms.items():
            c += get(e, 0)
            if c:
                out[e] = c
            else:
                del out[e]
        return TracePolynomial._of(out, max(self._deg, other._deg))

    def __sub__(self, other: "TracePolynomial") -> "TracePolynomial":
        out = self._terms.copy()
        get = out.get
        for e, c in other._terms.items():
            c = get(e, 0) - c
            if c:
                out[e] = c
            else:
                del out[e]
        return TracePolynomial._of(out, max(self._deg, other._deg))

    def __neg__(self) -> "TracePolynomial":
        return TracePolynomial._of({e: -c for e, c in self._terms.items()}, self._deg)

    def __mul__(self, other) -> "TracePolynomial":
        if isinstance(other, int):
            if not other:
                return TracePolynomial()
            return TracePolynomial._of({e: c * other for e, c in self._terms.items()}, self._deg)
        deg = _check_degree(self, other)
        mono, poly = (self, other) if len(self._terms) == 1 else (other, self)
        if len(mono._terms) == 1:
            # a monomial shifts keys one-to-one: nothing to sum, and no
            # product of nonzero coefficients is zero
            ((m, cm),) = mono._terms.items()
            if cm == 1:  # a bare x, y or z: keys shift, coefficients stay
                return TracePolynomial._of({e + m: c for e, c in poly._terms.items()}, deg)
            return TracePolynomial._of({e + m: c * cm for e, c in poly._terms.items()}, deg)
        out: dict[int, int] = {}
        get = out.get
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        return TracePolynomial._of({e: c for e, c in out.items() if c}, deg)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, TracePolynomial) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    def evaluate(self, x: float, y: float, z: float) -> float:
        return sum(c * x**i * y**j * z**k for (i, j, k), c in self.terms.items())

    def specialize_equal_traces(self) -> "TracePolynomial":
        """Substitute y := x (the locus where tr A = tr B)."""
        # x^i y^j z^k -> x^(i+j) z^k, of the same degree
        out = {e & _CLEAR_Y: c for e, c in self._terms.items()}
        if len(out) == len(self._terms):
            return TracePolynomial._of(out, self._deg)  # no two terms merged, so no sum to take
        out = {}
        get = out.get
        for e, c in self._terms.items():
            e &= _CLEAR_Y
            out[e] = get(e, 0) + c
        return TracePolynomial._of({e: c for e, c in out.items() if c}, self._deg)

    def sorted_terms(self):
        # graded lex, highest first
        return sorted(self.terms.items(), key=lambda t: (-sum(t[0]), tuple(-e for e in t[0])))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for expo, coeff in self.sorted_terms():
            mono = "*".join(
                (name if e == 1 else "%s^%d" % (name, e))
                for name, e in zip(_VAR_NAMES, expo)
                if e
            )
            if not mono:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = "%d*%s" % (abs(coeff), mono)
            parts.append(("- " if coeff < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self) -> str:
        return "TracePolynomial(%s)" % self


_X = TracePolynomial.variable(0)
_Y = TracePolynomial.variable(1)
_Z = TracePolynomial.variable(2)
_TWO = TracePolynomial.constant(2)


def chebyshev_power(n: int, variable_index: int = 0) -> TracePolynomial:
    """p_n with tr(M^n) = p_n(tr M): p_0 = 2, p_1 = x, p_{n+1} = x p_n - p_{n-1}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    var = TracePolynomial.variable(variable_index)
    prev, cur = _TWO, var
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, var * cur - prev
    return cur


# A row [m0, m1] over R times a generator, for each signed letter:
#   A: [m0 x + m1, -m0]          A^-1: [-m1, m0 + m1 x]
#   B: [-m1/t, m0 t + m1 y]      B^-1: [m0 y + m1/t, -m0 t]
# with m = m[0] + m[1] t, m t = -m[1] + (m[0] + z m[1]) t and
# m/t = (z m[0] + m[1]) - m[0] t.
_ROW_TIMES = {
    1: lambda m0, m1: ((_X * m0[0] + m1[0], _X * m0[1] + m1[1]), (-m0[0], -m0[1])),
    -1: lambda m0, m1: ((-m1[0], -m1[1]), (m0[0] + _X * m1[0], m0[1] + _X * m1[1])),
    2: lambda m0, m1: (
        (-m1[1] - _Z * m1[0], m1[0]),
        (_Y * m1[0] - m0[1], m0[0] + _Z * m0[1] + _Y * m1[1]),
    ),
    -2: lambda m0, m1: (
        (_Y * m0[0] + _Z * m1[0] + m1[1], _Y * m0[1] - m1[0]),
        (m0[1], -m0[0] - _Z * m0[1]),
    ),
}


def trace_polynomial(w: Word) -> TracePolynomial:
    """The Fricke polynomial of a word over the two-letter alphabet {a, b}:
    the trace of w(A, B) for the generic pair of the module docstring."""
    if not _RANK_TWO_LETTERS.issuperset(w.letters):
        raise UnsupportedRankError("trace coordinates implemented for rank 2 only")
    zero = TracePolynomial()
    one = TracePolynomial.constant(1)
    # the rows of the identity; each entry p0 + p1 t of R is the pair (p0, p1)
    rows = [((one, zero), (zero, zero)), ((zero, zero), (one, zero))]
    for letter in cyclic_reduce(w).letters:  # conjugation keeps the trace
        step = _ROW_TIMES[letter]
        rows = [step(*m) for m in rows]
    (p0, p1), (q0, q1) = rows[0][0], rows[1][1]
    if not (p1 + q1).is_zero():
        raise ArithmeticError("trace of %s has a nonzero t-part" % w)
    return p0 + q0


def trace_identity(lo: int, hi: int) -> tuple[list[bool], TracePolynomial, TracePolynomial]:
    """Exact check that tr(A^n B) = tr(B^n A) whenever tr A = tr B, for
    every n in lo..hi, in one pass.

    Both sides follow the doubled-letter rule
    tr(M^(n+1) N) = tr M tr(M^n N) - tr(M^(n-1) N), from (tr B, tr AB) =
    (y, z) for a^n b and from (tr A, tr BA) = (x, z) for b^n a; only the
    last two polynomials of each side are kept.  The two differ as raw
    polynomials for n >= 2; the identity lives on the equal-trace locus
    (B conjugate to A), so they are compared after substituting y := x.
    Returns (the verdict for each n in lo..hi, the Fricke polynomials of
    a^hi b and b^hi a).
    """
    if not 1 <= lo <= hi:
        raise ValueError("need 1 <= lo <= hi, got %d..%d" % (lo, hi))
    left_prev, left = _Y, _Z  # tr(A^0 B), tr(A B)
    right_prev, right = _X, _Z  # tr(B^0 A), tr(B A)
    holds = []
    for n in range(1, hi + 1):
        if n > 1:
            left_prev, left = left, _X * left - left_prev
            right_prev, right = right, _Y * right - right_prev
        if n >= lo:
            holds.append(left.specialize_equal_traces() == right.specialize_equal_traces())
    return holds, left, right
