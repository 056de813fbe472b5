"""The Goldman bracket as a signed formal sum of conjugacy classes.

For distinct classes the bracket collects, over the intersection records
of the two geodesics, the class of the loop product at each point with the
crossing sign.  The self bracket fattens the curve into two parallel
copies: each self-intersection point contributes the two loop products in
both orders with opposite signs, and the canonical sum is always zero.
"""

from __future__ import annotations

from .errors import DegenerateInputError
from .word_algebra import (
    CyclicWord,
    Word,
    are_conjugate,
    compose,
    conjugate,
    cyclic_normal_form,
    invert,
    word_sort_key,
)

# Each function that walks intersection records imports the engine in its
# own body, so importing the package (which binds `bracket`) loads, and
# without cached bytecode compiles, no intersection code.


class FormalSum:
    """Integer-weighted sum of conjugacy classes, canonical (no zeros)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[CyclicWord, int] = {}
        if terms:
            for cls, coeff in terms.items():
                self.add(cls, coeff)

    @classmethod
    def fold(cls, terms) -> "FormalSum":
        """Canonical sum of an iterable of (class, coefficient) pairs."""
        out = cls()
        for term, coeff in terms:
            out.add(term, coeff)
        return out

    def add(self, cls: CyclicWord, coeff: int):
        if not coeff:
            return
        new = self.terms.get(cls, 0) + coeff
        if new:
            self.terms[cls] = new
        else:
            self.terms.pop(cls, None)

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return FormalSum.fold([*self.terms.items(), *other.terms.items()])

    def negate(self) -> "FormalSum":
        return FormalSum({cls: -coeff for cls, coeff in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalSum) and self.terms == other.terms

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda t: word_sort_key(t[0].letters))

    def serialize(self):
        return [[cls.key, coeff] for cls, coeff in self.sorted_items()]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " ".join(
            "%s%d*<%s>" % ("+" if c > 0 else "", c, cls.key) for cls, c in self.sorted_items()
        )


def _check_distinct_classes(alpha: Word, beta: Word):
    if cyclic_normal_form(alpha) == cyclic_normal_form(beta):
        raise DegenerateInputError("alpha and beta are the same class; use bracket_self")
    if cyclic_normal_form(beta) == cyclic_normal_form(invert(alpha)):
        raise DegenerateInputError("beta is conjugate to alpha^-1")


def bracket(alpha: Word, beta: Word, order: tuple[int, ...]) -> FormalSum:
    """Sum of sign * <alpha * beta^h> over intersection records (h, sign),
    on the surfaces whose tree has this cyclic order."""
    from .intersections import exact_intersections

    _check_distinct_classes(alpha, beta)
    return FormalSum.fold(
        (cyclic_normal_form(compose(alpha, conjugate(beta, record.witness))), record.sign)
        for record in exact_intersections(alpha, beta, order)
    )


def bracket_self_terms(alpha: Word, order: tuple[int, ...]):
    """Pre-cancellation term list for the fattened self bracket.

    Each self-intersection record (g, sign) yields the pair
    (+sign, <alpha * alpha^g>) and (-sign, <alpha^g * alpha>); the two
    classes are conjugate, so they cancel in the canonical sum.
    """
    from .intersections import exact_intersections

    terms = []
    for record in exact_intersections(alpha, alpha, order):
        conj_copy = conjugate(alpha, record.witness)
        terms.append((cyclic_normal_form(compose(alpha, conj_copy)), record.sign))
        terms.append((cyclic_normal_form(compose(conj_copy, alpha)), -record.sign))
    return terms


def bracket_self(alpha: Word, order: tuple[int, ...]) -> FormalSum:
    return FormalSum.fold(bracket_self_terms(alpha, order))


def equal_term_pairs(alpha: Word, beta: Word, order: tuple[int, ...]):
    """Witness pairs (g, h) of distinct intersection points whose bracket
    terms <alpha * beta^g> and <alpha * beta^h> are conjugate — the seeds
    for length-equivalent families.  When alpha or beta is a proper power,
    several records are one point (intersections.point_key); each point
    keeps its least witness."""
    from .intersections import exact_intersections, point_key

    _check_distinct_classes(alpha, beta)
    by_class: dict[CyclicWord, dict[Word, Word]] = {}
    for record in exact_intersections(alpha, beta, order):  # sorted by witness
        cls = cyclic_normal_form(compose(alpha, conjugate(beta, record.witness)))
        by_class.setdefault(cls, {}).setdefault(point_key(record.witness, alpha, beta), record.witness)
    pairs = []
    for cls in sorted(by_class, key=lambda c: word_sort_key(c.letters)):
        witnesses = list(by_class[cls].values())
        for i in range(len(witnesses)):
            for j in range(i + 1, len(witnesses)):
                assert are_conjugate(
                    compose(alpha, conjugate(beta, witnesses[i])),
                    compose(alpha, conjugate(beta, witnesses[j])),
                )
                pairs.append((witnesses[i], witnesses[j]))
    return pairs
