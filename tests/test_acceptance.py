"""Acceptance gate: nine checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v`; every test prints
"ACCEPTANCE <k>: PASS" (or FAIL) on the real stdout so the gate can be
read off even under pytest's capture.
"""

import inspect
import math
import time
from collections import defaultdict

import pytest
from halfplane import crossing_angle, hyperbolic_cosine_rule
from word_scan import enumerate_reduced_words

from lenequiv.bracket import bracket, bracket_self, bracket_self_terms
from lenequiv.fuchsian import sample_representation
from lenequiv.intersections import cyclic_order, exact_count, exact_intersections
from lenequiv.pipeline import check_nonconjugate, find_min_N, is_filling
from lenequiv.reports import RunConfig, emit, run
from lenequiv.sl2 import axis, translation_length
from lenequiv.trace_poly import trace_identity
from lenequiv.word_algebra import (
    SurfaceSpec,
    Word,
    are_conjugate,
    compose,
    conjugate,
    cyclic_normal_form,
    parse_word,
    power,
)

PANTS = SurfaceSpec(genus=0, boundary_components=3)


def verdict(capsys, number, ok):
    with capsys.disabled():
        print("ACCEPTANCE %d: %s" % (number, "PASS" if ok else "FAIL"))
    assert ok


@pytest.fixture(scope="module")
def fig8(pants_rep):
    """The figure-eight curve and its unique self-intersection record."""
    alpha = parse_word("ab")
    records = exact_intersections(alpha, alpha, cyclic_order(pants_rep))
    assert len(records) == 1
    return alpha, records[0]


def test_acceptance_1_exact_trace_identity(capsys):
    t0 = time.perf_counter()
    holds, _, _ = trace_identity(1, 12)
    elapsed = time.perf_counter() - t0
    verdict(capsys, 1, len(holds) == 12 and all(holds) and elapsed < 5.0)


def test_acceptance_2_equal_length_over_100_representations(capsys):
    cfg_data = {
        "surface": {"genus": 0, "boundary_components": 3},
        "task": "verify",
        "words": {"alpha": "ab"},
        "seeds": list(range(100)),
        "n_range": [1, 10],
    }
    t0 = time.perf_counter()
    max_dev = run(RunConfig.from_dict(cfg_data)).payload["max_rel_dev"]
    elapsed = time.perf_counter() - t0
    verdict(capsys, 2, max_dev <= 1e-9 and elapsed < 30.0)


def test_acceptance_3_cosine_rule_cross_check(capsys, fig8):
    alpha, record = fig8
    conj = conjugate(alpha, record.witness)
    cases = 0
    worst = 0.0
    for seed in range(10):
        rep = sample_representation(PANTS, seed)
        m_alpha = rep.evaluate(alpha)
        m_conj = rep.evaluate(conj)
        tau = translation_length(m_alpha)
        # interior angle of the smoothing triangle at the crossing point
        mu = math.pi - crossing_angle(axis(m_alpha), axis(m_conj))
        for n in range(1, 6):
            predicted = hyperbolic_cosine_rule(n * tau / 2.0, tau / 2.0, mu)
            measured = translation_length(rep.evaluate(compose(power(alpha, n), conj))) / 2.0
            worst = max(worst, abs(predicted - measured) / measured)
            cases += 1
    verdict(capsys, 3, cases >= 50 and worst <= 1e-8)


def test_acceptance_4_finite_nonconjugacy_threshold(capsys, fig8):
    alpha, record = fig8
    n_observed, table = find_min_N(alpha, record.witness, 50)
    finite = n_observed is not None
    clean_tail = all(nc and ni for (n, nc, ni) in table if finite and n > n_observed)
    # metric independence is structural: the verdict consumes no representation
    params = inspect.signature(check_nonconjugate).parameters
    structural = list(params) == ["pair"]
    verdict(capsys, 4, finite and clean_tail and structural and len(table) == 50)


def test_acceptance_5_bracket_lie_checks(capsys, torus_rep, pants_rep):
    by_name = {"torus": torus_rep, "pants": pants_rep}
    self_curves = [
        ("pants", "ab"), ("pants", "aab"), ("pants", "abb"), ("pants", "aabb"),
        ("pants", "abbb"), ("pants", "aabab"), ("pants", "aabbb"),
        ("torus", "aabb"), ("torus", "abaB"), ("torus", "aabaB"), ("torus", "abbaB"),
    ]
    ok = len(self_curves) >= 10
    for name, text in self_curves:
        rep = by_name[name]
        terms = bracket_self_terms(parse_word(text), cyclic_order(rep))
        ok = ok and bool(terms) and bracket_self(parse_word(text), cyclic_order(rep)).is_zero()
        for plus, minus in zip(terms[::2], terms[1::2]):
            ok = ok and plus[1] == -minus[1] and plus[0] == minus[0]
    pairs = [
        ("torus", "a", "b"), ("torus", "a", "ab"), ("torus", "b", "ab"),
        ("torus", "a", "abb"), ("torus", "ab", "aB"), ("torus", "b", "aB"),
        ("pants", "ab", "aab"), ("pants", "ab", "abb"),
        ("pants", "aab", "abb"), ("pants", "ab", "aabb"),
    ]
    ok = ok and len(pairs) >= 10
    for name, left, right in pairs:
        rep = by_name[name]
        lhs = bracket(parse_word(left), parse_word(right), cyclic_order(rep))
        rhs = bracket(parse_word(right), parse_word(left), cyclic_order(rep))
        ok = ok and (lhs + rhs).is_zero()
    verdict(capsys, 5, ok)


def test_acceptance_6_stabilized_counts_scale_linearly(capsys, torus_rep, pants_rep):
    cases = [
        (torus_rep, "a", "b"), (torus_rep, "a", "ab"), (torus_rep, "b", "ab"),
        (torus_rep, "a", "abb"), (torus_rep, "ab", "aB"), (pants_rep, "ab", "aab"),
    ]
    ok = len(cases) >= 5
    for rep, left, right in cases:
        base = exact_count(parse_word(left), parse_word(right), cyclic_order(rep))
        ok = ok and base > 0
        for n in (2, 3):
            scaled = exact_count(power(parse_word(left), n), parse_word(right), cyclic_order(rep))
            ok = ok and scaled == n * base
    verdict(capsys, 6, ok)


def test_acceptance_7_filling_propagates(capsys, fig8, pants_rep, torus_rep):
    alpha, _ = fig8
    base_verdict, _, _ = is_filling(alpha, pants_rep, 4)
    ok = base_verdict == "yes"
    cfg_data = {
        "surface": {"genus": 0, "boundary_components": 3},
        "task": "verify",
        "words": {"alpha": str(alpha)},
        "n_range": [2, 8],
        "scc_word_bound": 4,
    }
    rows = run(RunConfig.from_dict(cfg_data)).payload["rows"]
    ok = ok and [r["n"] for r in rows] == list(range(2, 9))
    ok = ok and all(r["filling_left"] == "yes" and r["filling_right"] == "yes" for r in rows)
    # negative control: a simple curve never fills, and the verdict says why
    neg_verdict, witnesses, _ = is_filling(parse_word("a"), torus_rep, 4)
    ok = ok and neg_verdict == "no" and len(witnesses) > 0
    verdict(capsys, 7, ok)


def test_acceptance_8_byte_identical_reports(capsys):
    cfg_data = {
        "surface": {"genus": 0, "boundary_components": 3},
        "task": "verify",
        "words": {"alpha": "ab"},
        "seeds": [0, 1, 2],
        "n_range": [1, 10],
    }
    blobs = [emit(run(RunConfig.from_dict(cfg_data)), "json") for _ in range(2)]
    verdict(capsys, 8, blobs[0] == blobs[1] and len(blobs[0]) > 0)


def _oracle_key(letters):
    reduced = list(letters)
    while len(reduced) >= 2 and reduced[0] == -reduced[-1]:
        reduced = reduced[1:-1]
    if not reduced:
        return ()
    return min(tuple(reduced[i:] + reduced[:i]) for i in range(len(reduced)))


def test_acceptance_9_conjugacy_matches_rotation_oracle(capsys):
    words = [()] + list(enumerate_reduced_words(2, 8))
    ok = len(words) == 13121
    groups = defaultdict(list)
    for letters in words:
        groups[_oracle_key(letters)].append(letters)
    # the library's canonical form must induce exactly the oracle partition
    group_cnfs = {}
    for key, members in groups.items():
        cnfs = {cyclic_normal_form(Word(m)).key for m in members}
        ok = ok and len(cnfs) == 1
        group_cnfs[key] = cnfs.pop()
    ok = ok and len(set(group_cnfs.values())) == len(groups)
    # positives: every word conjugate to its group representative
    for members in groups.values():
        rep_word = Word(members[0])
        ok = ok and all(are_conjugate(rep_word, Word(m)) for m in members[1:])
    # negatives: representatives of distinct orbits never test conjugate
    ordered = sorted(groups)
    for prev, cur in zip(ordered, ordered[1:]):
        ok = ok and not are_conjugate(Word(groups[prev][0]), Word(groups[cur][0]))
    verdict(capsys, 9, ok)
