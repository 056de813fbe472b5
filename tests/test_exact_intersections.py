"""The exact intersection engine against the float reference walk and
known counts.

The reference is read at two letters past the longest exact witness, where
its records have stopped changing; at much larger bounds float crossing
tests go wrong (aBABAb on the pants at bound 10), so the comparison stays
below them.
"""

import random

import pytest
from reference_walk import reference_records
from word_scan import enumerate_reduced_words

from lenequiv import intersections
from lenequiv.errors import CertificationError, DegenerateInputError
from lenequiv.fuchsian import Representation, sample_representation
from lenequiv.intersections import (
    cyclic_order,
    exact_count,
    exact_intersections,
)
from lenequiv.pipeline import is_filling
from lenequiv.reports import RunConfig, run
from lenequiv.word_algebra import (
    SurfaceSpec,
    Word,
    cyclic_normal_form,
    cyclic_reduce,
    free_reduce,
    invert,
    is_proper_power,
    parse_word,
    unoriented_class_key,
)

PANTS = SurfaceSpec(genus=0, boundary_components=3)
TORUS = SurfaceSpec(genus=1, boundary_components=1)
FOUR_HOLED = SurfaceSpec(genus=0, boundary_components=4)


def w(text):
    return parse_word(text)


def primitive_classes(rank, max_len):
    """One cyclically reduced, primitive representative per unoriented class."""
    seen = {}
    for letters in enumerate_reduced_words(rank, max_len):
        word = Word(letters)
        if len(cyclic_normal_form(word).letters) != len(letters) or is_proper_power(word)[0]:
            continue
        seen.setdefault(unoriented_class_key(word), word)
    return list(seen.values())


def pairs(records):
    return [(str(r.witness), r.sign) for r in records]


def assert_walk_agrees(alpha, beta, rep):
    exact = exact_intersections(alpha, beta, cyclic_order(rep))
    bound = max((len(r.witness) for r in exact), default=0) + 2
    walked = reference_records(alpha, beta, rep, bound)
    assert pairs(exact) == pairs(walked), (str(alpha), str(beta), rep.seed)
    assert exact_count(alpha, beta, cyclic_order(rep)) == len(exact)


@pytest.mark.parametrize("surface", [PANTS, TORUS], ids=["pants", "torus"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_self_records_match_walk_for_every_short_class(surface, seed):
    rep = sample_representation(surface, seed)
    classes = primitive_classes(2, 5)
    assert len(classes) == 41
    for alpha in classes:
        assert_walk_agrees(alpha, alpha, rep)


@pytest.mark.parametrize("surface", [PANTS, TORUS], ids=["pants", "torus"])
def test_mutual_records_match_walk_on_a_sample(surface):
    rep = sample_representation(surface, 0)
    short = primitive_classes(2, 3)
    longer = primitive_classes(2, 5)[::3]
    tested = 0
    for alpha in short:
        for beta in longer:
            key_a, key_b = unoriented_class_key(alpha), unoriented_class_key(beta)
            if key_a != key_b:
                assert_walk_agrees(alpha, beta, rep)
                tested += 1
    assert tested >= 100


def test_rank_three_four_holed_sphere():
    rep = sample_representation(FOUR_HOLED, 0)
    assert cyclic_order(rep) == (1, -1, -2, 2, -3, 3)  # a A B b C c
    assert_walk_agrees(w("abc"), w("abc"), rep)
    assert_walk_agrees(w("abC"), w("abC"), rep)
    assert_walk_agrees(w("ac"), w("abc"), rep)
    assert exact_count(w("abc"), w("abc"), cyclic_order(rep)) > 0


def test_cyclic_order_of_the_layouts():
    # the report layer computes each exact answer once, from the first seed
    layouts = [
        (PANTS, range(10), (1, -1, -2, 2)),  # a A B b
        (TORUS, range(10), (-2, -1, 2, 1)),  # B A b a
        (FOUR_HOLED, range(3), (1, -1, -2, 2, -3, 3)),  # a A B b C c
    ]
    for surface, seeds, order in layouts:
        for seed in seeds:
            assert cyclic_order(sample_representation(surface, seed)) == order, (surface, seed)


# --------------------------------------------------------------- K2 and K4


@pytest.mark.parametrize("alpha", ["aaabaBB", "aaBABBB"])
def test_k4_pairs_report_counts_seven(alpha):
    # two agreeing bounds (4 and 5) made the walk accept 6; the seventh
    # point has the witness aaaaBB of length 6
    config = RunConfig.from_dict({
        "surface": {"genus": 0, "boundary_components": 3},
        "task": "pairs",
        "words": {"alpha": alpha},
        "seeds": [0, 1, 2],
        "n_range": [1, 2],
    })
    for entry in run(config).payload["per_seed"]:
        assert entry["self_intersection_count"] == 7, entry["seed"]


def test_k2_word_matches_the_golden_bound():
    # the bracket-self-pants-k2 golden pins these records; a float walk of
    # the word ball at bound 10 or 11 over-counts them
    alpha = w("aBABAb")
    want = [("a", 1), ("b", -1), ("aB", -1), ("Ab", 1), ("abA", -1), ("aBabA", 1), ("aBAAb", -1)]
    for seed in (0, 1, 2):
        rep = sample_representation(PANTS, seed)
        assert pairs(exact_intersections(alpha, alpha, cyclic_order(rep))) == want, seed


# ------------------------------------------------------------ key searches


def test_one_key_search_per_record(pants_rep, monkeypatch):
    calls = []
    search = intersections._double_coset_min
    monkeypatch.setattr(
        intersections, "_double_coset_min", lambda *args: calls.append(args) or search(*args)
    )
    order = cyclic_order(pants_rep)
    records = exact_intersections(w("aabab"), w("aabab"), order)
    assert len(calls) == len(records) == 6
    calls.clear()
    records = exact_intersections(w("ab"), w("aabb"), order)
    assert len(calls) == len(records) == 4


def test_counts_and_filling_search_no_keys(pants_rep, monkeypatch):
    def forbidden(*args):
        raise AssertionError("key search")

    monkeypatch.setattr(intersections, "_double_coset_min", forbidden)
    assert exact_count(w("aabab"), w("aabab"), cyclic_order(pants_rep)) == 6
    assert is_filling(w("aabb"), pants_rep, 4)[0] == "yes"


@pytest.mark.parametrize("surface", [TORUS, PANTS], ids=["torus", "pants"])
def test_rotation_ends_are_the_turn_keys_of_every_rotation(surface):
    # _rotation_ends slices one turn sequence per rotation; here every
    # rotation's periodic word is keyed letter by letter
    pos = {x: j for j, x in enumerate(cyclic_order(sample_representation(surface, 0)))}
    rng = random.Random(15)
    checked = 0
    while checked < 300:
        raw = [rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(1, 14))]
        a = cyclic_reduce(free_reduce(raw)).letters
        if not a:
            continue
        length = len(a) + rng.randint(1, 16)
        rotations = [a[i:] + a[:i] for i in range(len(a))]
        plus, minus = intersections._rotation_ends(a, pos, length)
        assert plus == [
            intersections._turn_key(intersections._periodic(r, length), pos) for r in rotations
        ], a
        assert minus == [
            intersections._turn_key(intersections._periodic(invert(Word(r)).letters, length), pos)
            for r in rotations
        ], a
        checked += 1


# ------------------------------------------------------------ input policing


def test_exact_engine_rejects_what_the_walk_rejects(torus_rep, pants_rep):
    order = cyclic_order(torus_rep)
    for alpha, beta in (("", "a"), ("Bab", "Bab"), ("a", "Bab"), ("abab", "abab"), ("ab", "AB")):
        with pytest.raises(DegenerateInputError):
            exact_count(w(alpha), w(beta), order)
        with pytest.raises(DegenerateInputError):
            exact_intersections(w(alpha), w(beta), order)
    # beta in alpha's class is the self case
    assert pairs(exact_intersections(w("ab"), w("ba"), cyclic_order(pants_rep))) == [("a", 1)]
    with pytest.raises(CertificationError):
        cyclic_order(Representation(torus_rep.surface, torus_rep.matrices))
