"""Intersection points of closed geodesics, counted exactly.

A self-intersection of the geodesic of alpha corresponds to a double coset
<alpha> g <alpha> whose translate g.A_alpha crosses A_alpha; the two branch
views g and g^-1 describe the same point on the surface, so self keys are
canonicalized over both.  A mutual intersection of alpha and beta is a
double coset <alpha> h <beta> with A_alpha crossing h.A_beta.  The coset
key (a Word) is the record's witness.

The engine (Cohen-Lustig 1987, Chas 2004) works on the Cayley tree,
embedded in the plane by the cyclic order of the signed generators that
the ping-pong certificate fixes.  Two axes cross iff their ends alternate
on the boundary circle, and a translate that meets A_alpha shares a vertex
with it, so the candidates g = alpha[:i] beta[:k]^-1 are complete: counts
and records need no bound and are the same for every representation.
"""

from __future__ import annotations

from typing import NamedTuple

from ._records import same_class_equality
from .errors import CertificationError, DegenerateInputError
from .word_algebra import (
    Word,
    cyclic_normal_form,
    cyclic_reduce,
    invert,
    is_proper_power,
    junction_product,
    parse_word,
    primitive_root,
    word_sort_key,
)


@same_class_equality
class IntersectionRecord(NamedTuple):
    witness: Word
    sign: int


def _double_coset_min(g: Word, left: Word, right: Word) -> list[tuple[int, ...]]:
    """Letters of the shortest words in { left^i g right^j }.

    Exhaustive search of the orbit's bounded sublevel set.  In the Cayley
    tree the length of left^i g right^j is jointly convex in (i, j), so a
    straight descent path from g to the global minimum stays at most one
    combined step above len(g); every word on it fits under the cap below,
    and the breadth search visits the whole capped region.

    All operands are freely reduced, so each of the eight moves is a
    junction product on letter tuples.  Callers pick the key among the
    returned words by (length, letter order); the self key also reads
    their inverses, because with left = right inversion maps the region
    searched from g onto the region searched from g^-1.
    """
    moves_left = (left.letters, invert(left).letters)
    moves_right = (right.letters, invert(right).letters)
    start = g.letters
    cap = len(start) + len(left.letters) + len(right.letters)
    seen = {start}
    queue = [start]
    shortest = [start]
    while queue:
        x = queue.pop()
        nearby = [junction_product(u, x) for u in moves_left]
        nearby += [junction_product(x, w) for w in moves_right]
        nearby += [junction_product(u, junction_product(x, w)) for u in moves_left for w in moves_right]
        for cand in nearby:
            if len(cand) > cap or cand in seen:
                continue
            seen.add(cand)
            queue.append(cand)
            if len(cand) < len(shortest[0]):
                shortest = [cand]
            elif len(cand) == len(shortest[0]):
                shortest.append(cand)
    return shortest


def self_coset_key(g: Word, alpha: Word) -> Word:
    """Canonical key over <alpha> g <alpha> and <alpha> g^-1 <alpha>; the
    same for g and g^-1."""
    shortest = _double_coset_min(g, alpha, alpha)
    shortest += [invert(Word(x)).letters for x in shortest]
    return Word(min(shortest, key=word_sort_key))


def mutual_coset_key(h: Word, alpha: Word, beta: Word) -> Word:
    return Word(min(_double_coset_min(h, alpha, beta), key=word_sort_key))


def point_key(h: Word, alpha: Word, beta: Word) -> Word:
    """mutual_coset_key of h over the roots of alpha and beta: one key per
    point where the two curves meet.  When beta = r^k, the cosets
    <alpha> h <beta> and <alpha> h r <beta> are two records but one point,
    passed on two turns of r; a power alpha does the same with its root."""
    return mutual_coset_key(h, primitive_root(alpha), primitive_root(beta))


def _require_cyclically_reduced(w: Word, name: str):
    if w.is_identity:
        raise DegenerateInputError("%s must be a nonempty word" % name)
    if cyclic_reduce(w).letters != w.letters:
        raise DegenerateInputError("%s must be cyclically reduced" % name)


def _require_certified(rep):
    if rep.certificate is None:
        raise CertificationError("representation carries no ping-pong certificate")


def _pair_checker(beta: Word):
    """The function that rejects an alpha with no well-defined records
    against beta, and otherwise says whether alpha is beta's class (the self
    case).  beta's class and its inverse's are normalized once, not once per
    alpha; only an alpha of beta's length can be either."""
    _require_cyclically_reduced(beta, "beta")
    beta_class = cyclic_normal_form(beta)
    inverse_class = cyclic_normal_form(invert(beta))

    def check(alpha: Word) -> bool:
        _require_cyclically_reduced(alpha, "alpha")
        if len(alpha.letters) != len(beta.letters):
            return False
        alpha_class = cyclic_normal_form(alpha)
        if alpha_class == beta_class:
            if is_proper_power(alpha)[0]:
                raise DegenerateInputError("alpha must not be a proper power")
            return True
        if alpha_class == inverse_class:
            raise DegenerateInputError("beta is conjugate to alpha^-1")
        return False

    return check


# ----------------------------------------------------------- exact engine


def cyclic_order(rep) -> tuple[int, ...]:
    """The signed generators in counterclockwise order of their ping-pong
    arcs: a A B b on the pants layout, B A b a on the torus layout.

    The end x1 x2 x3 ... of the Cayley tree lies in the arc of x1, and x1
    maps every other arc but x1^-1's into its own, keeping their cyclic
    order; so this one order embeds the whole tree in the plane.
    """
    _require_certified(rep)
    arcs = rep.certificate.arcs
    return tuple(parse_word(label).letters[0] for label in sorted(arcs, key=lambda label: arcs[label].start))


def _turn_key(letters: tuple[int, ...], pos: dict) -> tuple[int, ...]:
    """Sort key of the ends of the Cayley tree whose reduced words start
    with these letters: the place of the first letter in the cyclic order,
    then each turn (place of the letter - place of the inverse of the letter
    before) mod 2*rank.  Keys of equal length order ends counterclockwise."""
    m = len(pos)
    return (pos[letters[0]],) + tuple((pos[y] - pos[-x]) % m for x, y in zip(letters, letters[1:]))


def _periodic(w: tuple[int, ...], length: int) -> tuple[int, ...]:
    return (w * (length // len(w) + 1))[:length]


def _rotation_keys(w: tuple[int, ...], pos: dict, length: int) -> list:
    """_turn_key of `length` letters of the periodic word of every rotation
    w[i:] + w[:i]: its first letter's place, then a slice of the turns of
    the periodic word, which are computed once."""
    n, m = len(w), len(pos)
    u = _periodic(w, n + length - 1)
    turns = [(pos[y] - pos[-x]) % m for x, y in zip(u, u[1:])]
    return [(pos[u[i]],) + tuple(turns[i : i + length - 1]) for i in range(n)]


def _rotation_ends(w: tuple[int, ...], pos: dict, length: int):
    """Turn keys of the ends w_i^+inf and w_i^-inf, `length` letters each, of
    every rotation w_i = w[i:] + w[:i]."""
    n = len(w)
    plus = _rotation_keys(w, pos, length)
    inv_rotations = _rotation_keys(invert(Word(w)).letters, pos, length)
    # w_i^-1 = inv[n - i:] + inv[:n - i]
    return plus, [inv_rotations[-i % n] for i in range(n)]


def _crossing_sign(a_minus, a_plus, q_minus, q_plus) -> int:
    """0 unless the ends of the two axes alternate; then +1 when the cyclic
    order read from a_minus is a_minus, q_minus, a_plus, q_plus, else -1."""
    lo, hi = (a_minus, a_plus) if a_minus < a_plus else (a_plus, a_minus)
    inside = lo < q_minus < hi
    if inside == (lo < q_plus < hi):
        return 0
    return 1 if inside == (a_minus < a_plus) else -1


def _ends_at(ends, length: int):
    """Rotation ends cut to `length` letters: a turn key's prefix is the turn
    key of the end's prefix, so ends built once at the longest length serve
    every shorter one."""
    plus, minus = ends
    return [key[:length] for key in plus], [key[:length] for key in minus]


def _linked_candidates(a: tuple[int, ...], a_ends, b: tuple[int, ...], b_ends):
    """(i, k, sign) for each g = alpha[:i] beta[:k]^-1 whose translate
    g.A_beta crosses A_alpha, one g per double coset <alpha> g <beta>; a and
    b are the letters of alpha and beta, and a_ends and b_ends their
    _rotation_ends at |alpha| + |beta| letters.

    g.A_beta = alpha[:i].A_beta' with beta' = beta[k:] + beta[:k], so moved
    by alpha[:i]^-1 both axes pass through the identity.  A translate that
    meets A_alpha shares a segment of vertices with it; only the first
    vertex along A_alpha is kept, the one whose previous vertex (in the
    direction alpha[i-1]^-1) the translate misses.  Two distinct periodic
    ends agree on fewer than |alpha| + |beta| letters (Fine-Wilf), and a
    kept translate shares no end with A_alpha, so keys of that length
    decide the order.
    """
    a_plus, a_minus = a_ends
    b_plus, b_minus = b_ends
    for i in range(len(a)):
        prev = a[i - 1]
        for k in range(len(b)):
            if b[k] == -prev or b[k - 1] == prev:
                continue
            sign = _crossing_sign(a_minus[i], a_plus[i], b_minus[k], b_plus[k])
            if sign:
                yield i, k, sign


def _witness_sign(g: Word, alpha: Word, beta: Word, pos: dict) -> int:
    """Crossing sign of A_alpha and g.A_beta, read from their ends: the
    ends of g.A_beta run through g's letters, then beta's period, so
    |g| + |alpha| + |beta| letters decide the order."""
    a, b, h = alpha.letters, beta.letters, g.letters
    length = len(h) + len(a) + len(b)
    a_inv, b_inv = invert(alpha).letters, invert(beta).letters
    # the junction with h cancels at most |h| letters of beta's period
    q_plus = junction_product(h, _periodic(b, length + len(h)))[:length]
    q_minus = junction_product(h, _periodic(b_inv, length + len(h)))[:length]
    return _crossing_sign(
        _turn_key(_periodic(a_inv, length), pos),
        _turn_key(_periodic(a, length), pos),
        _turn_key(q_minus, pos),
        _turn_key(q_plus, pos),
    )


def exact_counter(beta: Word, order: tuple[int, ...], longest: int):
    """The function alpha -> exact_count(alpha, beta, order) on words alpha
    of at most `longest` letters.

    beta's rotation ends are built once, at |beta| + longest letters, and
    each call cuts them to |alpha| + |beta|; so counting many classes
    against one long word builds that word's ends once, not once per class.
    """
    check = _pair_checker(beta)
    pos = {x: j for j, x in enumerate(order)}
    b = beta.letters
    b_ends = _rotation_ends(b, pos, len(b) + longest)

    def count(alpha: Word) -> int:
        a = alpha.letters
        if len(a) > longest:
            raise ValueError("alpha has %d letters, more than %d" % (len(a), longest))
        self_case = check(alpha)
        length = len(a) + len(b)
        ends = _ends_at(b_ends, length)
        if self_case:
            # alpha is a rotation of beta and counts the same points
            linked = sum(1 for _ in _linked_candidates(b, ends, b, ends))
            return linked // 2  # g and g^-1 are two candidates for one point
        return sum(1 for _ in _linked_candidates(a, _rotation_ends(a, pos, length), b, ends))

    return count


def exact_count(alpha: Word, beta: Word, order: tuple[int, ...]) -> int:
    """Number of intersection points of the geodesics of alpha and beta, or
    of self-intersection points when beta is alpha's class, on every
    hyperbolic structure whose tree has this cyclic order."""
    return exact_counter(beta, order, len(alpha.letters))(alpha)


def exact_intersections(alpha: Word, beta: Word, order: tuple[int, ...]) -> list[IntersectionRecord]:
    """One record per intersection point, as exact_count counts them, sorted
    by witness.

    The self case pairs g with g^-1, whose translate crosses with the
    opposite sign: one key search per +1 candidate, and the record takes
    the sign of its witness's own translate.
    """
    self_case = _pair_checker(beta)(alpha)
    if self_case:
        beta = alpha
    pos = {x: j for j, x in enumerate(order)}
    a, b = alpha.letters, beta.letters
    length = len(a) + len(b)
    a_ends = _rotation_ends(a, pos, length)
    b_ends = a_ends if self_case else _rotation_ends(b, pos, length)
    records = []
    for i, k, sign in _linked_candidates(a, a_ends, b, b_ends):
        g = Word(junction_product(alpha.letters[:i], invert(Word(beta.letters[:k])).letters))
        if not self_case:
            records.append(IntersectionRecord(witness=mutual_coset_key(g, alpha, beta), sign=sign))
        elif sign > 0:
            key = self_coset_key(g, alpha)
            records.append(IntersectionRecord(witness=key, sign=_witness_sign(key, alpha, alpha, pos)))
    return sorted(records, key=lambda r: word_sort_key(r.witness.letters))
