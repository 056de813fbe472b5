"""Exact trace calculus.

The load-bearing oracles evaluate the Fricke polynomial at (tr A, tr B,
tr AB) and compare it with the trace of the evaluated matrix word: at
random unit-determinant float matrix pairs for short words, and exactly, in
integers, at random SL2(Z) pairs for words of up to 24 letters and for
words of 100 and 501 letters.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sl2z
from lenequiv import trace_poly
from lenequiv.errors import UnsupportedRankError
from lenequiv.sl2 import Mat2, evaluate
from lenequiv.trace_poly import TracePolynomial, chebyshev_power, trace_identity, trace_polynomial
from lenequiv.word_algebra import Word, conjugate, free_reduce, invert, parse_word

X = TracePolynomial.variable(0)
Y = TracePolynomial.variable(1)
Z = TracePolynomial.variable(2)
SEVEN = TracePolynomial.constant(7)


def tp(text):
    return trace_polynomial(parse_word(text, rank=2))


letters_st = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=8)


# ------------------------------------------------------------------- algebra


def test_polynomial_ring_basics():
    two = TracePolynomial.constant(2)
    assert (X + X) == 2 * X
    assert (X - X).is_zero()
    assert (X * Y).terms == {(1, 1, 0): 1}
    assert (-(X - two)).terms == {(1, 0, 0): -1, (0, 0, 0): 2}
    assert X * X * X == TracePolynomial({(3, 0, 0): 1})
    assert TracePolynomial({(0, 0, 0): 0}).is_zero()  # zero coeffs pruned
    with pytest.raises(TypeError):
        (X * Y).terms[(1, 0, 0)] = 2  # terms is a read-only view


def test_polynomial_eq_and_hash():
    p = X * Z - Y
    q = TracePolynomial({(1, 0, 1): 1, (0, 1, 0): -1})
    assert p == q and hash(p) == hash(q)
    assert p != X * Z
    assert p != "x*z - y"


def test_polynomial_str():
    assert str(TracePolynomial()) == "0"
    assert str(X * X - TracePolynomial.constant(2)) == "x^2 - 2"
    assert str(X * Z - Y) == "x*z - y"
    assert str(-2 * X) == "-2*x"


def test_polynomial_evaluate():
    p = X * X - TracePolynomial.constant(2)
    assert p.evaluate(3.0, 0.0, 0.0) == 7.0
    assert (X * Y * Z).evaluate(2.0, 3.0, 5.0) == 30.0


def test_specialize_equal_traces():
    p = X * Z - Y  # tr(a^2 b)
    q = Y * Z - X  # tr(b^2 a)
    assert p != q
    assert p.specialize_equal_traces() == q.specialize_equal_traces()
    assert str(p.specialize_equal_traces()) == "x*z - x"


@pytest.mark.parametrize(
    "poly, expected",
    [
        # y := x merges terms
        (X - Y, TracePolynomial()),
        (X + Y, 2 * X),
        (X * Y * Z - X * X * Z, TracePolynomial()),
        (X * Y + X * X - 3 * Y + Z, 2 * X * X - 3 * X + Z),
        # y := x merges nothing
        (X * Y - Z, X * X - Z),
        (Y * Y * Z - 2 * X + SEVEN, X * X * Z - 2 * X + SEVEN),
        (TracePolynomial(), TracePolynomial()),
    ],
    ids=["x-y", "x+y", "xyz-x2z", "partial", "xy-z", "y2z-2x+7", "zero"],
)
def test_specialize_equal_traces_cases(poly, expected):
    assert poly.specialize_equal_traces() == expected


# ----------------------------------------------------------------- chebyshev


def test_chebyshev_small_cases():
    assert chebyshev_power(0) == TracePolynomial.constant(2)
    assert chebyshev_power(1) == X
    assert chebyshev_power(2) == X * X - TracePolynomial.constant(2)
    assert str(chebyshev_power(3)) == "x^3 - 3*x"
    assert chebyshev_power(2, variable_index=2) == Z * Z - TracePolynomial.constant(2)
    with pytest.raises(ValueError):
        chebyshev_power(-1)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=0, max_value=12), t=st.floats(min_value=1.1, max_value=3.0))
def test_chebyshev_matches_power_trace(n, t):
    # tr(diag(t, 1/t)^n) = t^n + t^-n
    got = chebyshev_power(n).evaluate(t + 1.0 / t, 0.0, 0.0)
    assert got == pytest.approx(t**n + t ** (-n), rel=1e-10)


# ------------------------------------------------------------ pinned Frickes


def test_trace_polynomial_base_cases():
    assert tp("") == TracePolynomial.constant(2)
    assert tp("a") == X
    assert tp("A") == X  # tr(M^-1) = tr(M) in SL2
    assert tp("b") == Y
    assert tp("ab") == Z
    assert tp("ba") == Z
    assert tp("AB") == tp("BA") == Z  # w and w^-1 share a polynomial


def test_trace_polynomial_hand_cases():
    assert tp("aB") == X * Y - Z
    assert tp("aab") == X * Z - Y
    assert tp("abb") == Y * Z - X
    assert tp("abab") == Z * Z - TracePolynomial.constant(2)
    assert str(tp("abAB")) == "-x*y*z + x^2 + y^2 + z^2 - 2"


def test_a_trace_with_a_t_part_is_refused(monkeypatch):
    # with B = diag(t, y) the walk's trace t + y is no Fricke polynomial
    def times_diag(m0, m1):
        return (-m0[1], m0[0] + Z * m0[1]), (Y * m1[0], Y * m1[1])

    monkeypatch.setattr(trace_poly, "_ROW_TIMES", {**trace_poly._ROW_TIMES, 2: times_diag})
    with pytest.raises(ArithmeticError):
        tp("b")
    assert tp("a") == X


def test_trace_polynomial_rejects_rank_three_letters():
    with pytest.raises(UnsupportedRankError):
        trace_polynomial(parse_word("ac", rank=3))


@settings(max_examples=60, deadline=None)
@given(letters_st)
def test_trace_polynomial_class_invariance(letters):
    w = Word(tuple(letters))
    p = trace_polynomial(w)
    assert trace_polynomial(invert(w)) == p
    if w.letters:
        rot = Word(w.letters[1:] + w.letters[:1])
        assert trace_polynomial(rot) == p


# --------------------------------------------------------- the numeric oracle


def _shear(u, lower=False):
    return Mat2(1.0, 0.0, u, 1.0) if lower else Mat2(1.0, u, 0.0, 1.0)


@settings(max_examples=120, deadline=None)
@given(
    letters_st,
    st.tuples(*(st.floats(min_value=-1.2, max_value=1.2) for _ in range(4))),
)
def test_fricke_polynomial_matches_matrix_trace(letters, params):
    u1, v1, u2, v2 = params
    a = _shear(u1).mul(_shear(v1, lower=True))
    b = _shear(v2, lower=True).mul(_shear(u2))
    w = Word(tuple(letters))
    x, y, z = a.trace(), b.trace(), a.mul(b).trace()
    got = trace_polynomial(w).evaluate(x, y, z)
    want = evaluate(w, [a, b]).trace()
    assert got == pytest.approx(want, rel=1e-7, abs=1e-7)


# ------------------------------------------------------ the exact oracle


shear_st = st.sampled_from(sl2z.SHEARS)


def _at_point(a, b):
    """The Fricke coordinates (tr A, tr B, tr AB) of an integer pair."""
    return a[0] + a[3], b[0] + b[3], sl2z.trace((1, 2), a, b)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from([1, -1, 2, -2]), max_size=24),
    st.tuples(*(shear_st for _ in range(6))),
)
def test_fricke_polynomial_matches_exact_integer_trace(letters, shears):
    p1, q1, p2, q2, p3, q3 = shears
    a = sl2z.shears(p1, q1)
    b = sl2z.mul(sl2z.shears(p2, q2), sl2z.shears(p3, q3))
    w = free_reduce(letters)
    p = trace_polynomial(w)
    assert p.evaluate(*_at_point(a, b)) == sl2z.trace(w.letters, a, b)
    rotated = free_reduce(w.letters[1:] + w.letters[:1])
    assert trace_polynomial(rotated) == p
    assert trace_polynomial(invert(w)) == p


# a^500 b and b^500 a reach degree 501, the largest the CLI's n_range allows;
# the commutator of powers mixes all four letters
LONG_WORDS = ["a" * 500 + "b", "b" * 500 + "a", "a" * 30 + "B" * 20 + "A" * 30 + "b" * 20]


@pytest.mark.parametrize("text", LONG_WORDS, ids=["a500b", "b500a", "commutator"])
def test_long_word_polynomial_matches_exact_integer_trace(text):
    w = parse_word(text)
    p = trace_polynomial(w)
    assert TracePolynomial(p.terms) == p
    rng = random.Random(text)
    for _ in range(4):
        a, b = sl2z.random_pair(rng)
        assert p.evaluate(*_at_point(a, b)) == sl2z.trace(w.letters, a, b)


def test_degrees_past_the_packed_fields_are_refused():
    top = trace_poly._FIELD  # 1023
    assert chebyshev_power(top, variable_index=2).terms[(0, 0, top)] == 1
    with pytest.raises(ValueError):
        chebyshev_power(top + 1, variable_index=2)
    with pytest.raises(ValueError):
        TracePolynomial({(0, top, 0): 1}) * Y
    with pytest.raises(ValueError):
        trace_polynomial(Word((1, 2) * (top + 1)))  # (ab)^1024 has degree 1024
    with pytest.raises(ValueError):
        TracePolynomial({(0, top + 1, 0): 1})
    with pytest.raises(ValueError):
        TracePolynomial({(-1, 0, 0): 1})


def test_degree_guard_refuses_by_exact_degree_not_by_the_carried_bound():
    top = trace_poly._FIELD
    high = TracePolynomial({(600, 0, 0): 1})
    one = (high + TracePolynomial.constant(1)) - high  # its bound is 600, its degree 0
    assert one == TracePolynomial.constant(1)
    x1000 = TracePolynomial({(1000, 0, 0): 1})
    assert one._deg + x1000._deg > top  # the bounds alone would refuse
    assert one * x1000 == x1000
    assert (one * x1000)._deg <= top


@settings(max_examples=60, deadline=None)
@given(letters_st, letters_st)
def test_carried_degree_bound_covers_the_exact_degree(u, v):
    # every operation keeps _deg an upper bound on the degree, within the packed fields
    p, q = trace_polynomial(Word(tuple(u))), trace_polynomial(Word(tuple(v)))
    for r in (p + q, (p + q) - q, p - q, -p, 3 * p, p * q, X * q, p.specialize_equal_traces()):
        assert trace_poly._degree(r) <= r._deg <= trace_poly._FIELD


@pytest.mark.parametrize("text", ["aabaB", "abAB", "aaBBabb"])
def test_every_spelling_of_a_class_hits_its_memo_entry(text):
    # every rotation of w and of w^-1, and conjugates that are not
    # cyclically reduced, spell one unoriented class and so one polynomial
    w = parse_word(text)
    p = trace_polynomial(w)
    n = len(w)
    spellings = [Word(u.letters[i:] + u.letters[:i]) for u in (w, invert(w)) for i in range(n)]
    spellings += [conjugate(u, parse_word(g)) for u in (w, invert(w)) for g in ("b", "BA", "bbA", "aBa")]
    assert any(s.letters[0] == -s.letters[-1] for s in spellings)
    for s in spellings:
        assert trace_polynomial(s) == p, str(s)


def test_alternating_inverse_letters_match_exact_integer_traces():
    # (aB)^m took time exponential in m by inverse-letter rewriting: 2 s at
    # m = 14, and no answer within 120 s at m = 50
    rng = random.Random(14)
    u = X * Y - Z  # tr(aB)
    prev, cur = TracePolynomial.constant(2), u
    for m in range(2, 51):
        prev, cur = cur, u * cur - prev  # tr((aB)^m), a Chebyshev polynomial in tr(aB)
        if m not in (14, 50):
            continue
        w = Word((1, -2) * m)
        p = trace_polynomial(w)
        assert p == cur, m
        for _ in range(3):
            a, b = sl2z.random_pair(rng)
            assert p.evaluate(*_at_point(a, b)) == sl2z.trace(w.letters, a, b)


# ----------------------------------------------------------- the identity


def test_power_product_traces_agree_on_equal_trace_locus():
    holds, _, _ = trace_identity(1, 12)
    assert holds == [True] * 12
    with pytest.raises(ValueError):
        trace_identity(0, 12)
    with pytest.raises(ValueError):
        trace_identity(5, 4)


def test_trace_identity_agrees_with_the_recursion():
    # the one-pass doubled-letter rule and the matrix walk of
    # trace_polynomial are two routes to the same Fricke polynomials
    for n in range(1, 61):
        holds, left, right = trace_identity(n, n)
        assert holds == [True]
        assert left == trace_polynomial(Word((1,) * n + (2,))), n
        assert right == trace_polynomial(Word((2,) * n + (1,))), n


def test_trace_identity_range_matches_single_runs():
    holds, left, right = trace_identity(3, 9)
    assert holds == [True] * 7
    assert (left, right) == trace_identity(9, 9)[1:]


def test_trace_identity_polynomials_match_exact_integer_traces():
    # n = 500 is the largest n_range the CLI allows
    _, left, right = trace_identity(1, 500)
    rng = random.Random(500)
    for _ in range(2):
        a, b = sl2z.random_pair(rng)
        assert left.evaluate(*_at_point(a, b)) == sl2z.trace((1,) * 500 + (2,), a, b)
        assert right.evaluate(*_at_point(a, b)) == sl2z.trace((2,) * 500 + (1,), a, b)


def test_power_product_traces_differ_raw():
    # the identity is a property of the locus tr A = tr B, not of the ring
    for n in (2, 3, 5):
        left = trace_polynomial(Word((1,) * n + (2,)))
        right = trace_polynomial(Word((2,) * n + (1,)))
        assert left != right
