"""Exact SL2 trace calculus for two-generator words.

Every word w(a, b) has a unique integer polynomial F in the coordinates
x = tr A, y = tr B, z = tr AB with tr w(A, B) = F(x, y, z) for all
unit-determinant matrix pairs (A, B).  This module computes F by the
classical rewriting rules:

    tr(U v^-1) = tr(U) tr(v) - tr(U v)        (inverse elimination)
    tr(s s T)  = tr(s) tr(s T) - tr(T)        (doubled-letter split)
    tr(w)      = tr of any cyclic rotation, and tr(w) = tr(w^-1)

Each step strictly decreases (letter count, inverse-letter count) in
lexicographic order, so the reduction terminates.  Results are memoized
once per unoriented conjugacy class (w and w^-1 have the same polynomial),
keyed on the text of the cyclic normal form of whichever of the two was
computed first.  A lookup takes any freely reduced spelling and first tries
the spelling's own text: every key is the text of a canonical word, so a
spelling equal to a key is that word and the hit costs one text key.  Only a
miss computes the cyclic normal form to try the class's key, and then
normalizes the inverse to try the key of the other orientation.
"""

from __future__ import annotations

from .errors import UnsupportedRankError
from .word_algebra import Word, cyclic_normal_form, invert, junction_product, letters_to_str

_VAR_NAMES = ("x", "y", "z")


class TracePolynomial:
    """Sparse integer polynomial in (x, y, z); keys are exponent triples."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # A mapping has one coefficient per exponent: only zeros are dropped.
        # c + 0 stores a fresh int sized to its value: a coefficient left by
        # a cancelling sum keeps the allocation of its largest operand, and
        # memoized polynomials live as long as the process.
        self.terms: dict[tuple[int, int, int], int] = (
            {e: c + 0 for e, c in terms.items() if c} if terms else {}
        )

    @classmethod
    def constant(cls, c: int) -> "TracePolynomial":
        return cls({(0, 0, 0): c})

    @classmethod
    def variable(cls, idx: int) -> "TracePolynomial":
        expo = [0, 0, 0]
        expo[idx] = 1
        return cls({tuple(expo): 1})

    def __add__(self, other: "TracePolynomial") -> "TracePolynomial":
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            out[expo] = out.get(expo, 0) + coeff
        return TracePolynomial(out)

    def __sub__(self, other: "TracePolynomial") -> "TracePolynomial":
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            out[expo] = out.get(expo, 0) - coeff
        return TracePolynomial(out)

    def __neg__(self) -> "TracePolynomial":
        return TracePolynomial({e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "TracePolynomial":
        if isinstance(other, int):
            return TracePolynomial({e: c * other for e, c in self.terms.items()})
        mono, poly = (self, other) if len(self.terms) == 1 else (other, self)
        if len(mono.terms) == 1:
            # a monomial shifts exponents one-to-one: nothing to sum, and no
            # product of nonzero coefficients is zero
            ((m0, m1, m2), m), = mono.terms.items()
            out = TracePolynomial()
            out.terms = {(e[0] + m0, e[1] + m1, e[2] + m2): c * m for e, c in poly.terms.items()}
            return out
        out: dict[tuple[int, int, int], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                out[expo] = out.get(expo, 0) + c1 * c2
        return TracePolynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, TracePolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, x: float, y: float, z: float) -> float:
        return sum(c * x**i * y**j * z**k for (i, j, k), c in self.terms.items())

    def specialize_equal_traces(self) -> "TracePolynomial":
        """Substitute y := x (the locus where tr A = tr B)."""
        out: dict[tuple[int, int, int], int] = {}
        for (i, j, k), c in self.terms.items():
            expo = (i + j, 0, k)
            out[expo] = out.get(expo, 0) + c
        return TracePolynomial(out)

    def sorted_terms(self):
        # graded lex, highest first
        return sorted(self.terms.items(), key=lambda t: (-sum(t[0]), tuple(-e for e in t[0])))

    def __str__(self) -> str:
        if not self.terms:
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
    for letter in w.letters:
        if abs(letter) > 2:
            raise UnsupportedRankError("trace coordinates implemented for rank 2 only")
    return _tr(w.letters)


def _tr(letters: tuple[int, ...]) -> TracePolynomial:
    """Fricke polynomial of any freely reduced spelling of a class."""
    if len(letters) > 1:  # shorter spellings are already canonical
        hit = _memo.get(letters_to_str(letters))
        if hit is not None:  # the spelling is literally a memoized canonical word
            return hit
        letters = cyclic_normal_form(Word(letters)).letters
    n = len(letters)
    if n == 0:
        return _TWO
    if n == 1:
        return _X if abs(letters[0]) == 1 else _Y
    key = letters_to_str(letters)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    # one entry per unoriented class, under whichever of w, w^-1 came first
    inverse_key = cyclic_normal_form(invert(Word(letters))).key
    hit = _memo.get(inverse_key)
    if hit is not None:
        return hit

    out = None
    neg = next((i for i, x in enumerate(letters) if x < 0), None)
    if neg is not None:
        # rotate the inverse letter to the end: w ~ U v^-1
        rot = letters[neg + 1 :] + letters[: neg + 1]
        u = rot[:-1]
        v = (-rot[-1],)
        out = _tr(u) * _tr(v) - _tr(junction_product(u, v))
    else:
        dbl = next((i for i in range(n) if letters[i] == letters[(i + 1) % n]), None)
        if dbl is not None:
            rot = letters[dbl:] + letters[:dbl]  # starts with a doubled letter
            out = _tr(rot[:1]) * _tr(rot[1:]) - _tr(rot[2:])
        else:
            # positive, no doubled letter (cyclically): alternating (ab)^m
            out = chebyshev_power(n // 2, 2)
    if inverse_key not in _memo:  # the recursion can reach w^-1 (w = AB: ab)
        _memo[key] = out
    return out


def verify_trace_identity(n: int) -> bool:
    """Exact check that tr(A^n B) = tr(B^n A) whenever tr A = tr B.

    The two Fricke polynomials differ as raw polynomials for n >= 2; the
    identity lives on the equal-trace locus (B conjugate to A), so both
    sides are compared after substituting y := x.
    """
    if n < 1:
        raise ValueError("n must be positive")
    left = trace_polynomial(Word((1,) * n + (2,)))
    right = trace_polynomial(Word((2,) * n + (1,)))
    return left.specialize_equal_traces() == right.specialize_equal_traces()
