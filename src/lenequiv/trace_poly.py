"""Exact SL2 trace calculus for two-generator words.

Every word w(a, b) has a unique integer polynomial F in the coordinates
x = tr A, y = tr B, z = tr AB with tr w(A, B) = F(x, y, z) for all
unit-determinant matrix pairs (A, B).  This module computes F by the
classical rewriting rules:

    tr(U v^-1) = tr(U) tr(v) - tr(U v)        (inverse elimination)
    tr(s s T)  = tr(s) tr(s T) - tr(T)        (doubled-letter split)
    tr(w)      = tr of any cyclic rotation, and tr(w) = tr(w^-1)

Each step strictly decreases (letter count, inverse-letter count) in
lexicographic order, so the reduction terminates.  The recursion runs on
the text of a word ("aB" for a b^-1): trace_polynomial converts the Word
once, the inverse of a spelling s is s[::-1].swapcase(), and the first
inverse letter and the first doubled letter are found by str.find.

Results are memoized once per unoriented conjugacy class (w and w^-1 have
the same polynomial), keyed on the text of the cyclic normal form of
whichever of the two was computed first.  A lookup takes any freely reduced
spelling and first tries the spelling's own text: every key is the text of
a canonical word, so a spelling equal to a key is that word and the hit
costs one text key.  Only a miss computes the cyclic normal form to try the
class's key, and then normalizes the inverse to try the key of the other
orientation.

trace_identity builds the polynomials of a^n b and b^n a for a whole range
of n in one pass of the doubled-letter rule, without the recursion or the
memo.

A polynomial stores each monomial x^i y^j z^k under one int that packs the
fields (j, k, i + j + k), the degree in the low field: the product of two
monomials is the sum of their keys, and y := x clears the j field.
Degrees up to 1023 fit; a product past that raises ValueError.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import UnsupportedRankError
from .word_algebra import _RANK_TEXT, Word, _least_rotation, letters_to_str

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


def _check_degree(p: "TracePolynomial", q: "TracePolynomial") -> None:
    """Refuse a product of degree past _FIELD, which packed keys cannot hold."""
    if _degree(p) + _degree(q) > _FIELD:
        raise ValueError("polynomial degree past %d" % _FIELD)


class TracePolynomial:
    """Sparse integer polynomial in (x, y, z).

    Built from a mapping {(i, j, k): coefficient}; `terms` is a read-only
    view in that form.  Arithmetic runs on the packed keys.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        # packed key -> coefficient; a coefficient is never zero
        self._terms: dict[int, int] = {_pack(e): c for e, c in terms.items() if c} if terms else {}

    @classmethod
    def _of(cls, packed: dict[int, int]) -> "TracePolynomial":
        """The polynomial of a packed mapping with no zero coefficient."""
        out = cls.__new__(cls)
        out._terms = packed
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
        return TracePolynomial._of(out)

    def __sub__(self, other: "TracePolynomial") -> "TracePolynomial":
        out = self._terms.copy()
        get = out.get
        for e, c in other._terms.items():
            c = get(e, 0) - c
            if c:
                out[e] = c
            else:
                del out[e]
        return TracePolynomial._of(out)

    def __neg__(self) -> "TracePolynomial":
        return TracePolynomial._of({e: -c for e, c in self._terms.items()})

    def __mul__(self, other) -> "TracePolynomial":
        if isinstance(other, int):
            if not other:
                return TracePolynomial()
            return TracePolynomial._of({e: c * other for e, c in self._terms.items()})
        _check_degree(self, other)
        mono, poly = (self, other) if len(self._terms) == 1 else (other, self)
        if len(mono._terms) == 1:
            # a monomial shifts keys one-to-one: nothing to sum, and no
            # product of nonzero coefficients is zero
            ((m, cm),) = mono._terms.items()
            if cm == 1:  # a bare x, y or z: keys shift, coefficients stay
                return TracePolynomial._of({e + m: c for e, c in poly._terms.items()})
            return TracePolynomial._of({e + m: c * cm for e, c in poly._terms.items()})
        out: dict[int, int] = {}
        get = out.get
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        return TracePolynomial._of({e: c for e, c in out.items() if c})

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
            return TracePolynomial._of(out)  # no two terms merged, so no sum to take
        out = {}
        get = out.get
        for e, c in self._terms.items():
            e &= _CLEAR_Y
            out[e] = get(e, 0) + c
        return TracePolynomial._of({e: c for e, c in out.items() if c})

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

_memo: dict[str, TracePolynomial] = {}


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


def trace_polynomial(w: Word) -> TracePolynomial:
    """The Fricke polynomial of a word over the two-letter alphabet {a, b}."""
    if not _RANK_TWO_LETTERS.issuperset(w.letters):
        raise UnsupportedRankError("trace coordinates implemented for rank 2 only")
    return _tr(letters_to_str(w.letters))


def _find_first(s: str, p: str, q: str) -> int:
    """Index of the first occurrence of p or of q in s, or -1."""
    i, j = s.find(p), s.find(q)
    return j if i < 0 or 0 <= j < i else i


def _cyclic_normal_text(s: str) -> str:
    """Text of the cyclic normal form of the word s, as
    word_algebra.cyclic_normal_form: cyclically reduce, then rotate to the
    least rotation under a < A < b < B."""
    i, j = 0, len(s)
    while j - i >= 2 and s[i] == s[j - 1].swapcase():
        i += 1
        j -= 1
    s = s[i:j]
    if not s:
        return s
    k = _least_rotation(s.translate(_RANK_TEXT))
    return s[k:] + s[:k]


def _tr(s: str) -> TracePolynomial:
    """Fricke polynomial of the text of any freely reduced spelling of a class."""
    if len(s) > 1:  # shorter spellings are already canonical
        hit = _memo.get(s)
        if hit is not None:  # the spelling is literally a memoized canonical word
            return hit
        s = _cyclic_normal_text(s)
    n = len(s)
    if n == 0:
        return _TWO
    if n == 1:
        return _X if s in "aA" else _Y
    hit = _memo.get(s)
    if hit is not None:
        return hit
    # one entry per unoriented class, under whichever of w, w^-1 came first
    inverse_key = _cyclic_normal_text(s[::-1].swapcase())
    hit = _memo.get(inverse_key)
    if hit is not None:
        return hit

    neg = _find_first(s, "A", "B")
    if neg >= 0:
        # rotate the inverse letter to the end: w ~ U v^-1
        rot = s[neg + 1 :] + s[: neg + 1]
        u, v = rot[:-1], rot[-1].lower()
        # U v cancels at the junction when U also ends in v^-1
        out = _tr(u) * _tr(v) - _tr(u[:-1] if u[-1] == rot[-1] else u + v)
    else:
        dbl = _find_first(s + s[0], "aa", "bb")
        if dbl >= 0:
            rot = s[dbl:] + s[:dbl]  # starts with a doubled letter
            out = _tr(rot[0]) * _tr(rot[1:]) - _tr(rot[2:])
        else:
            # positive, no doubled letter (cyclically): alternating (ab)^m
            out = chebyshev_power(n // 2, 2)
    if inverse_key not in _memo:  # the recursion can reach w^-1 (w = AB: ab)
        _memo[s] = out
    return out


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
