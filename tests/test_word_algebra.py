import random

import pytest
from hypothesis import given, strategies as st
from word_scan import enumerate_reduced_words

from lenequiv.errors import AlphabetError, DegenerateInputError
from lenequiv.word_algebra import (
    CyclicWord,
    SurfaceSpec,
    Word,
    are_conjugate,
    compose,
    conjugate,
    cyclic_normal_form,
    cyclic_reduce,
    free_reduce,
    invert,
    is_conjugate_to_inverse,
    is_proper_power,
    letters_to_str,
    parse_word,
    power,
    unoriented_class_key,
    word_sort_key,
    word_str,
)


# ---------------------------------------------------------------- oracles

def oracle_reduce(letters):
    """Reference reducer: one cancellation pass at a time until fixpoint."""
    ls = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(ls) - 1):
            if ls[i] == -ls[i + 1]:
                del ls[i : i + 2]
                changed = True
                break
    return tuple(ls)


def _rank(letter):
    return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)


def oracle_cyclic_key(letters):
    """Reference canonical form: cyclically reduce by end-cancellation, then
    take the minimum over all explicit rotations."""
    ls = list(oracle_reduce(letters))
    while len(ls) >= 2 and ls[0] == -ls[-1]:
        ls = ls[1:-1]
    if not ls:
        return ()
    rotations = [tuple(ls[i:] + ls[:i]) for i in range(len(ls))]
    return min(rotations, key=lambda rot: tuple(_rank(x) for x in rot))


letters_st = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=14).map(tuple)


@given(letters_st)
def test_free_reduce_matches_oracle(raw):
    assert free_reduce(raw).letters == oracle_reduce(raw)


@given(letters_st)
def test_free_reduce_idempotent(raw):
    once = free_reduce(raw)
    assert free_reduce(once.letters) == once


@given(letters_st)
def test_cyclic_normal_form_matches_oracle(raw):
    assert cyclic_normal_form(free_reduce(raw)).letters == oracle_cyclic_key(raw)


# ---------------------------------------------------------------- parsing

def test_parse_and_str_round_trip():
    w = parse_word("aBab")
    assert w.letters == (1, -2, 1, 2)
    assert str(w) == "aBab"
    assert word_str(w) == "aBab"


def test_text_form_covers_a_to_z_only():
    assert letters_to_str((1, -1, 2, -2, 26, -26)) == "aAbBzZ"
    assert str(Word((26, -25))) == "zY"
    assert cyclic_normal_form(Word((-26, 1))).key == "aZ"
    for letter in (27, -27, 0):
        with pytest.raises(AlphabetError):
            str(Word((1, letter)))
        with pytest.raises(AlphabetError):
            CyclicWord((letter,)).key


def test_parse_reduces():
    assert parse_word("aA").letters == ()
    assert parse_word("abBA").letters == ()
    assert parse_word("abBa").letters == (1, 1)


def test_parse_rejects_junk():
    with pytest.raises(AlphabetError):
        parse_word("a1")
    with pytest.raises(AlphabetError):
        parse_word("a-b")
    with pytest.raises(AlphabetError):
        parse_word("c", rank=2)
    assert parse_word("a b").letters == (1, 2)  # whitespace is ignored


def test_parse_rank_bound():
    assert parse_word("c", rank=3).letters == (3,)


# ---------------------------------------------------------------- algebra

def test_compose_invert_power():
    a, b = parse_word("a"), parse_word("b")
    assert compose(a, b).letters == (1, 2)
    assert invert(compose(a, b)).letters == (-2, -1)
    assert power(compose(a, b), 3).letters == (1, 2, 1, 2, 1, 2)
    assert power(a, -2).letters == (-1, -1)
    assert power(a, 0).letters == ()


def test_conjugate_is_g_u_ginv():
    u, g = parse_word("ab"), parse_word("a")
    assert conjugate(u, g).letters == parse_word("aabA").letters


@given(letters_st, st.integers(min_value=0, max_value=14), letters_st)
def test_compose_matches_full_reduction(u_raw, overlap, tail_raw):
    # v starts with the inverse of u's last `overlap` letters, so the
    # junction cancels across several letters, up to all of u
    u = free_reduce(u_raw)
    head = invert(u).letters[:overlap]
    v = free_reduce(head + tail_raw)
    assert compose(u, v) == free_reduce(u.letters + v.letters)


@given(letters_st, letters_st)
def test_compose_with_inverse_cancels(u_raw, g_raw):
    u = free_reduce(u_raw)
    g = free_reduce(g_raw)
    assert compose(compose(g, u), invert(g)).letters == conjugate(u, g).letters


def test_cyclic_reduce():
    assert cyclic_reduce(parse_word("Bab")).letters == (1,)
    assert cyclic_reduce(parse_word("Baab")).letters == (1, 1)
    assert cyclic_reduce(parse_word("Abab")).letters == (-1, 2, 1, 2)  # already cyclically reduced
    assert cyclic_reduce(parse_word("ab")).letters == (1, 2)


def test_cyclic_normal_form_examples():
    assert cyclic_normal_form(parse_word("ba")).key == "ab"
    assert cyclic_normal_form(parse_word("bab" + "B")).key == "ab"  # b(ab)b^-1
    assert cyclic_normal_form(parse_word("")).key == ""


def test_cyclic_normal_form_matches_oracle_on_every_short_word():
    count = 0
    for w in enumerate_reduced_words(2, 8):
        if w[0] == -w[-1] and len(w) > 1:
            continue  # not cyclically reduced
        assert cyclic_normal_form(Word(w)).letters == oracle_cyclic_key(w)
        count += 1
    # cyclically reduced words of length n in F_2: 3^n + 2 + (-1)^n
    assert count == sum(3**n + 2 + (-1) ** n for n in range(1, 9))


# the letters these cases use, in canonical order a < A < b < B < c < C < z < Z
_PLAIN_ORDER = str.maketrans("aAbBcCzZ", "01234567")


def plain_least_rotation(text):
    """The least rotation of text by a min over all its rotations as strings."""
    n = len(text)
    doubled = text.translate(_PLAIN_ORDER) * 2
    k = min(range(n), key=lambda i: doubled[i : i + n])
    return text[k:] + text[:k]


def _random_cyclic_word(length, alphabet, seed):
    rng = random.Random(seed)
    out = [rng.choice(alphabet)]
    while len(out) < length:
        ch = rng.choice(alphabet)
        if ch != out[-1].swapcase() and (len(out) < length - 1 or ch != out[0].swapcase()):
            out.append(ch)
    return "".join(out)


@pytest.mark.parametrize(
    "text",
    [
        "a" * 10**5 + "b",
        "a" + "b" * 10**5,
        "ab" * 50_000 + "aB",
        "abAB" * 5_000,  # a proper power
        "aabaB" * 4_000,
        ("cZ" * 5 + "a") * 2_000,
        "cZ" * 10_000 + "cz",
        _random_cyclic_word(20_000, "aAbBcCzZ", seed=7),
    ],
    ids=["a^n b", "a b^n", "(ab)^k aB", "(abAB)^k", "(aabaB)^k", "((cZ)^5 a)^k", "(cZ)^k cz", "random"],
)
def test_cyclic_normal_form_of_long_words_matches_plain_min(text):
    expected = plain_least_rotation(text)
    for shift in (0, len(text) // 3, len(text) - 1):
        spelling = parse_word(text[shift:] + text[:shift])
        assert cyclic_normal_form(spelling).key == expected


# ------------------------------------------------------------- conjugacy

def test_are_conjugate_examples():
    assert are_conjugate(parse_word("aab"), parse_word("aba"))
    assert are_conjugate(parse_word("ab"), parse_word("ba"))
    assert not are_conjugate(parse_word("ab"), parse_word("aB"))
    assert not are_conjugate(parse_word("aab"), parse_word("abb"))


@given(letters_st, letters_st)
def test_conjugation_preserves_class(u_raw, g_raw):
    u = free_reduce(u_raw)
    g = free_reduce(g_raw)
    assert are_conjugate(u, conjugate(u, g))


@given(letters_st, letters_st)
def test_unoriented_class_key(u_raw, v_raw):
    u, v = free_reduce(u_raw), free_reduce(v_raw)
    keys = [str(Word(oracle_cyclic_key(x.letters))) for x in (u, invert(u))]
    assert unoriented_class_key(u) == min(keys, key=lambda s: (len(s), s))
    assert unoriented_class_key(invert(u)) == unoriented_class_key(u)
    same = are_conjugate(u, v) or is_conjugate_to_inverse(u, v)
    assert (unoriented_class_key(u) == unoriented_class_key(v)) == same


def test_conjugate_to_inverse():
    assert is_conjugate_to_inverse(parse_word("ab"), parse_word("BA"))
    assert is_conjugate_to_inverse(parse_word("ab"), parse_word("AB"))  # cyclic rotation of BA
    assert not is_conjugate_to_inverse(parse_word("ab"), parse_word("ab"))


@given(letters_st)
def test_word_conjugate_to_own_inverse_is_rare(raw):
    # structural sanity: w ~ w^-1 iff their cyclic forms match after inversion
    w = free_reduce(raw)
    assert is_conjugate_to_inverse(w, w) == are_conjugate(w, invert(w))


# ---------------------------------------------------------- proper powers

def test_is_proper_power():
    yes, root, k = is_proper_power(parse_word("abab"))
    assert yes and k == 2 and root.letters == (1, 2)
    yes, _, k = is_proper_power(parse_word("ab"))
    assert not yes and k == 1
    yes, root, k = is_proper_power(parse_word("aaa"))
    assert yes and k == 3 and root.letters == (1,)


def test_is_proper_power_conjugated_power():
    # g (ab)^2 g^-1 is a proper power of a conjugate root
    w = conjugate(power(parse_word("ab"), 2), parse_word("b"))
    yes, root, k = is_proper_power(w)
    assert yes and k == 2
    assert are_conjugate(power(root, 2), w)


def test_is_proper_power_identity_raises():
    with pytest.raises(DegenerateInputError):
        is_proper_power(Word(()))


@given(letters_st, st.integers(min_value=2, max_value=4))
def test_powers_detected(raw, k):
    w = cyclic_reduce(free_reduce(raw))
    if not w.letters:
        return
    m = is_proper_power(w)[2]  # 1 when w is primitive
    yes, _, kk = is_proper_power(power(w, k))
    assert yes and kk == k * m


# ------------------------------------------------------------ enumeration

def test_enumerate_counts():
    # 4 * 3^(k-1) reduced words of length k over rank 2
    words = list(enumerate_reduced_words(2, 3))
    assert len(words) == 4 + 12 + 36
    assert all(free_reduce(w).letters == w for w in words)


def test_enumerate_order_deterministic():
    words = list(enumerate_reduced_words(2, 2))
    assert words[:4] == [(1,), (-1,), (2,), (-2,)]
    assert sorted(words, key=word_sort_key) == words


def test_word_sort_key_orders_by_length_then_rank():
    ws = [(2,), (1, 1), (1,), (-1,)]
    assert sorted(ws, key=word_sort_key) == [(1,), (-1,), (2,), (1, 1)]


# ------------------------------------------------------------ surfaces

def test_surface_spec_rank_and_euler():
    assert SurfaceSpec(1, 1).rank == 2
    assert SurfaceSpec(0, 3).rank == 2
    assert SurfaceSpec(2, 1).rank == 4
    assert SurfaceSpec(1, 1).euler_characteristic == -1
    assert SurfaceSpec(0, 3).euler_characteristic == -1


def test_surface_spec_validation():
    with pytest.raises(ValueError):
        SurfaceSpec(0, 0)  # sphere, chi > 0
    with pytest.raises(ValueError):
        SurfaceSpec(1, 0)  # closed torus: chi = 0 and not free
    with pytest.raises(ValueError):
        SurfaceSpec(0, 2)  # annulus: chi = 0, rank 1
    with pytest.raises(ValueError):
        SurfaceSpec(-1, 3)
