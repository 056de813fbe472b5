"""The benchmark's workloads: a CLI config per workload seed, and a check of
each report against answers known without running ``lenequiv``.

The checks use their own word arithmetic on strings (free reduction, cyclic
reduction, and "is one word a factor of the other doubled" for conjugacy,
not Booth's algorithm) and their own exact integer matrices, so a wrong
report cannot pass by agreeing with the code that produced it.
"""

from __future__ import annotations

import random

PANTS = {"genus": 0, "boundary_components": 3}
TORUS = {"genus": 1, "boundary_components": 1}
# Representation seeds of every workload.  A workload seed permutes them; it
# does not replace them, because the cost of one CLI run differs by up to
# 40% between representation seeds (filling on pants seeds 0-15: 2.5-4.1 s
# per seed), far more than a regression bound.
REP_SEEDS = (0, 1, 2)


# --- word arithmetic on "aAbB" strings --------------------------------------

def free_reduce(word: str) -> str:
    out = []
    for ch in word:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def inverse(word: str) -> str:
    return word[::-1].swapcase()


def cyclic_core(word: str) -> str:
    word = free_reduce(word)
    i, j = 0, len(word)
    while j - i >= 2 and word[i] == word[j - 1].swapcase():
        i, j = i + 1, j - 1
    return word[i:j]


def conjugate_words(u: str, v: str) -> bool:
    u, v = cyclic_core(u), cyclic_core(v)
    return len(u) == len(v) and u in v + v


def unoriented_class(word: str) -> str:
    """Least rotation of the word or its inverse, by (length, text)."""
    core = cyclic_core(word)
    spellings = [w[i:] + w[:i] for w in (core, inverse(core)) for i in range(max(1, len(w)))]
    return min(spellings, key=lambda s: (len(s), s))


def self_pair(alpha: str, g: str, n: int) -> tuple[str, str]:
    """(alpha^n alpha^g, (alpha^g)^n alpha) with alpha^g = g alpha g^-1."""
    conj = g + alpha + inverse(g)
    return free_reduce(alpha * n + conj), free_reduce(conj * n + alpha)


# --- exact traces in SL2(Z) --------------------------------------------------

def _mul(m, k):
    return (m[0] * k[0] + m[1] * k[2], m[0] * k[1] + m[1] * k[3],
            m[2] * k[0] + m[3] * k[2], m[2] * k[1] + m[3] * k[3])


def _pow(m, n):
    out = (1, 0, 0, 1)
    while n:
        if n & 1:
            out = _mul(out, m)
        m = _mul(m, m)
        n >>= 1
    return out


def _sl2z(rng: random.Random):
    """[[1, p], [0, 1]] [[1, 0], [q, 1]] with p, q nonzero: determinant 1."""
    p, q = (rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)) for _ in range(2))
    return (1 + p * q, p, q, 1)


def eval_polynomial(text: str, x: int, y: int, z: int) -> int:
    """Evaluate a polynomial printed as ``x^2*z - 3*y + 2`` at integers."""
    values = {"x": x, "y": y, "z": z}
    total = 0
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        value = sign
        for factor in term.lstrip("-").split("*"):
            if factor.isdigit():
                value *= int(factor)
            else:
                name, _, power = factor.partition("^")
                value *= values[name] ** int(power or 1)
        total += value
    return total


# --- workloads ---------------------------------------------------------------

class Workload:
    def __init__(self, name, base):
        self.name = name
        self.base = base

    def config(self, seed: int) -> dict:
        rng = random.Random("%s:%d" % (self.name, seed))
        config = dict(self.base, seeds=rng.sample(REP_SEEDS, len(REP_SEEDS)))
        return self.vary(config, rng)

    def vary(self, config, rng):
        return config

    def check(self, config: dict, report: dict, seed: int) -> list:
        """Problems found in the report; empty when it is right."""
        problems = []
        if report.get("task") != config["task"]:
            problems.append("task %r, expected %r" % (report.get("task"), config["task"]))
        per_seed = report.get("payload", {}).get("per_seed")
        if per_seed is not None and [e["seed"] for e in per_seed] != config["seeds"]:
            problems.append("per-seed entries out of config order")
        return problems + self.check_payload(config, report["payload"], seed)

    def check_payload(self, config, payload, seed):
        raise NotImplementedError


class FillingPants(Workload):
    """No essential non-peripheral simple curve lives on a pair of pants, so
    the only simple candidates are the three boundary classes, each disjoint
    from every closed geodesic, and the filling verdict is "yes"."""

    BOUNDARY = frozenset(unoriented_class(w) for w in ("a", "b", "aB"))

    def vary(self, config, rng):
        # A rotation of w names the same class and costs the same work.
        w = config["words"]["w"]
        k = rng.randrange(len(w))
        return dict(config, words={"w": w[k:] + w[:k]})

    def check_payload(self, config, payload, seed):
        problems = []
        if payload["word"] != config["words"]["w"]:
            problems.append("word %r echoed as %r" % (config["words"]["w"], payload["word"]))
        for entry in payload["per_seed"]:
            where = "seed %d: " % entry["seed"]
            classes = [unoriented_class(c["class"]) for c in entry["candidates"]]
            if sorted(classes) != sorted(self.BOUNDARY):
                problems.append(where + "candidates %s, expected a, b, aB" % classes)
            for c in entry["candidates"]:
                if not c["peripheral"] or c["count"] != 0:
                    problems.append(where + "candidate %s: %s" % (c["class"], c))
            if entry["verdict"] != "yes" or entry["witnesses"]:
                problems.append(where + "verdict %s %s" % (entry["verdict"], entry["witnesses"]))
        return problems


def _pair_problems(alpha, g, n, nonconjugate, not_inverse):
    """Compare reported conjugacy flags of the n-th self pair with the
    construction (n = 1 is conjugate) and with this module's own test."""
    left, right = self_pair(alpha, g, n)
    own = (not conjugate_words(left, right), not conjugate_words(left, inverse(right)))
    expected_nonconj = n >= 2
    problems = []
    if own[0] != expected_nonconj:
        problems.append("n=%d: own test says nonconjugate=%s" % (n, own[0]))
    if nonconjugate != expected_nonconj:
        problems.append("n=%d: nonconjugate reported %s" % (n, nonconjugate))
    if n >= 2 and not (own[1] and not_inverse):
        problems.append("n=%d: conjugate to the inverse (own %s, reported %s)"
                        % (n, own[1], not_inverse))
    return problems


class VerifyPants(Workload):
    """The n = 1 pair is conjugate by construction; every n >= 2 pair is
    non-conjugate and not conjugate to the inverse, and both members have
    equal length."""

    def check_payload(self, config, payload, seed):
        problems = []
        lo, hi = config["n_range"]
        expected = [(s, n) for s in config["seeds"] for n in range(lo, hi + 1)]
        if [(r["seed"], r["n"]) for r in payload["rows"]] != expected:
            problems.append("rows do not cover seeds x n_range")
        # The report carries the witness of the last seed only.
        g = payload["witness"]
        alpha = config["words"]["alpha"]
        tol = config.get("tol", 1e-9)
        for r in payload["rows"]:
            where = "seed %d " % r["seed"]
            if r["seed"] == config["seeds"][-1]:
                # verify folds both conjugacy verdicts into one flag
                problems += [where + p for p in _pair_problems(
                    alpha, g, r["n"], r["nonconjugate"], r["nonconjugate"])]
            elif r["nonconjugate"] != (r["n"] >= 2):
                problems.append(where + "n=%d: nonconjugate %s" % (r["n"], r["nonconjugate"]))
            # taus are printed to 9 significant digits: allow that rounding
            tau_l, tau_r = r["tau_left"], r["tau_right"]
            if abs(tau_l - tau_r) > (tol + 1e-8) * max(tau_l, tau_r) or r["rel_dev"] > tol:
                problems.append(where + "n=%d: lengths %r vs %r" % (r["n"], tau_l, tau_r))
            if r["filling_left"] != "yes" or r["filling_right"] != "yes":
                problems.append(where + "n=%d: filling %s/%s"
                                % (r["n"], r["filling_left"], r["filling_right"]))
        if not (payload["ok"] and payload["equal_length_all"] and payload["symbolic_ok"]):
            problems.append("verdict flags %s" % {k: payload[k] for k in
                                                  ("ok", "equal_length_all", "symbolic_ok")})
        return problems


class PairsTorus(Workload):
    """Same construction facts as verify, on every row of every seed's
    table; the observed threshold is therefore N = 1."""

    def check_payload(self, config, payload, seed):
        problems = []
        hi = config["n_range"][1]  # the table always starts at n = 1
        alpha = config["words"]["alpha"]
        for entry in payload["per_seed"]:
            where = "seed %d " % entry["seed"]
            if [r["n"] for r in entry["table"]] != list(range(1, hi + 1)):
                problems.append(where + "table does not cover n = 1..%d" % hi)
            for r in entry["table"]:
                problems += [where + p for p in _pair_problems(
                    alpha, entry["witness"], r["n"], r["nonconjugate"],
                    r["not_conjugate_to_inverse"])]
            if entry["n_observed"] != 1:
                problems.append(where + "n_observed %s" % entry["n_observed"])
        return problems


class TraceId(Workload):
    """tr(A^n B) = tr(B^n A) on tr A = tr B is a theorem, so every row holds;
    the printed Fricke polynomials of a^N b and b^N a, evaluated at a random
    integer point (tr A, tr B, tr AB), equal traces computed exactly."""

    def check_payload(self, config, payload, seed):
        problems = []
        lo, hi = config["n_range"]
        rows = payload["rows"]
        if [r["n"] for r in rows] != list(range(lo, hi + 1)) or not all(r["holds"] for r in rows):
            problems.append("identity rows wrong or failing")
        if payload["all_hold"] is not True:
            problems.append("all_hold is %r" % payload["all_hold"])
        rng = random.Random("check:%d" % seed)
        a, b = _sl2z(rng), _sl2z(rng)
        x, y, z = a[0] + a[3], b[0] + b[3], sum(_mul(a, b)[i] for i in (0, 3))
        polys = payload["sample_polynomials"]
        for key, (m, k) in (("left_n%d" % hi, (a, b)), ("right_n%d" % hi, (b, a))):
            prod = _mul(_pow(m, hi), k)
            if eval_polynomial(polys[key], x, y, z) != prod[0] + prod[3]:
                problems.append("%s does not give the trace at A=%s B=%s" % (key, a, b))
        return problems


WORKLOADS = {
    w.name: w for w in (
        FillingPants(
            "filling-pants",
            {"surface": PANTS, "task": "filling", "words": {"w": "aabb"}, "scc_word_bound": 4},
        ),
        VerifyPants(
            "verify-pants",
            {"surface": PANTS, "task": "verify", "words": {"alpha": "ab"}, "n_range": [1, 8],
             "scc_word_bound": 3},
        ),
        PairsTorus(
            "pairs-torus",
            {"surface": TORUS, "task": "pairs", "words": {"alpha": "aabaB"}, "n_range": [1, 300]},
        ),
        TraceId(
            "trace-id",
            {"surface": TORUS, "task": "trace-id", "n_range": [1, 400]},
        ),
    )
}
