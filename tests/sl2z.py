"""Exact integer SL2(Z) matrices for test oracles.

A matrix is a tuple (a, b, c, d) of Python ints for [[a, b], [c, d]], so
products and traces stay exact at any word length.  Nothing here reads
lenequiv: the oracles built on it are independent of the code they check.
"""

# nonzero shear parameters: each shear has determinant 1
SHEARS = (-4, -3, -2, -1, 1, 2, 3, 4)


def mul(m, k):
    return (m[0] * k[0] + m[1] * k[2], m[0] * k[1] + m[1] * k[3],
            m[2] * k[0] + m[3] * k[2], m[2] * k[1] + m[3] * k[3])


def shears(p, q):
    """[[1, p], [0, 1]] [[1, 0], [q, 1]]: an integer matrix of determinant 1."""
    return (1 + p * q, p, q, 1)


def inverse(m):
    return (m[3], -m[1], -m[2], m[0])  # determinant 1


def trace(letters, a, b):
    """Exact trace of the word (signed letters 1 = a, 2 = b) at (A, B)."""
    gens = {1: a, -1: inverse(a), 2: b, -2: inverse(b)}
    out = (1, 0, 0, 1)
    for x in letters:
        out = mul(out, gens[x])
    return out[0] + out[3]


def random_pair(rng):
    """A random pair (A, B) in SL2(Z): A of two shears, B of four."""
    p1, q1, p2, q2, p3, q3 = (rng.choice(SHEARS) for _ in range(6))
    return shears(p1, q1), mul(shears(p2, q2), shears(p3, q3))
