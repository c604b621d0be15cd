"""Exact rational matrices and seeded rational measurement suites.

Everything here is benchmark-side: it draws suites whose projectors and
densities have small rational entries, and computes the exact context masses
with integer matrix arithmetic, independently of the package's float path.
Those masses are the oracle the `censor` workload checks against.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np

# The package's default rationalization policy accepts denominators up to
# this bound; a suite whose exact masses need more cannot be represented.
MAX_DENOMINATOR = 10**6

# Orthogonal rational rotations (cos, sin) from Pythagorean triples.
ROTATIONS = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)))


class RatMat:
    """Square rational matrix stored as an integer object array over one denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: np.ndarray, den: int) -> None:
        g = gcd(den, *(int(x) for x in num.flat))
        self.num = num // g if g > 1 else num
        self.den = den // g if g > 1 else den

    @staticmethod
    def from_fractions(rows) -> "RatMat":
        den = 1
        for row in rows:
            for x in row:
                den = den * x.denominator // gcd(den, x.denominator)
        num = np.array([[int(x * den) for x in row] for row in rows], dtype=object)
        return RatMat(num, den)

    @staticmethod
    def identity(dim: int) -> "RatMat":
        return RatMat(np.array(np.eye(dim, dtype=int), dtype=object), 1)

    @property
    def dim(self) -> int:
        return self.num.shape[0]

    def __matmul__(self, other: "RatMat") -> "RatMat":
        return RatMat(self.num.dot(other.num), self.den * other.den)

    def complement(self) -> "RatMat":
        return RatMat(np.array(np.eye(self.dim, dtype=int), dtype=object) * self.den - self.num, self.den)

    def trace(self) -> Fraction:
        return Fraction(int(sum(self.num[i, i] for i in range(self.dim))), self.den)

    def commutes(self, other: "RatMat") -> bool:
        return bool(np.all(self.num.dot(other.num) == other.num.dot(self.num)))

    def to_complex(self) -> np.ndarray:
        return np.array(
            [[float(Fraction(int(x), self.den)) for x in row] for row in self.num], dtype=complex
        )


def random_weights(rng: random.Random, size: int, max_part: int = 20) -> list:
    """Positive rational weights that sum to exactly one."""
    raw = [rng.randint(1, max_part) for _ in range(size)]
    total = sum(raw)
    return [Fraction(x, total) for x in raw]


def _rotation(dim: int, pos: int, cos: Fraction, sin: Fraction) -> list:
    q = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    q[pos][pos], q[pos][pos + 1] = cos, -sin
    q[pos + 1][pos], q[pos + 1][pos + 1] = sin, cos
    return q


def random_projector(rng: random.Random, dim: int) -> RatMat:
    """0/1 diagonal projector, conjugated by a rational rotation half the time."""
    while True:
        diag = [rng.randint(0, 1) for _ in range(dim)]
        if 0 < sum(diag) < dim:
            break
    d = RatMat(np.array(np.diag(diag), dtype=object), 1)
    if rng.random() < 0.5:
        return d
    cos, sin = rng.choice(ROTATIONS)
    q = _rotation(dim, rng.randrange(dim - 1), cos, sin)
    qt = [list(col) for col in zip(*q)]
    return RatMat.from_fractions(q) @ d @ RatMat.from_fractions(qt)


def random_density(rng: random.Random, dim: int) -> RatMat:
    """Rational mixture of one to three integer rank-1 states."""
    weights = random_weights(rng, rng.randint(1, 3), max_part=8)
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for w in weights:
        while True:
            v = [rng.randint(-2, 2) for _ in range(dim)]
            norm = sum(x * x for x in v)
            if norm:
                break
        for i in range(dim):
            for j in range(dim):
                rows[i][j] += w * Fraction(v[i] * v[j], norm)
    return RatMat.from_fractions(rows)


def context_oracle(density: RatMat, projectors: list, members: list) -> dict:
    """Exact mass of every joint outcome of one commuting context.

    Keys are outcome strings in the package's point-id form: one character
    per member in sorted order, '1' for the projector and '0' for its
    complement.
    """
    out = {}

    def walk(pos: int, prod: RatMat, bits: str) -> None:
        if pos == len(members):
            out[bits] = (density @ prod).trace()
            return
        p = projectors[members[pos] - 1]
        walk(pos + 1, prod @ p, bits + "1")
        walk(pos + 1, prod @ p.complement(), bits + "0")

    walk(0, RatMat.identity(density.dim), "")
    return out


def marginals(masses: dict) -> list:
    """Exact probability that every member in each subset reads 1."""
    width = len(next(iter(masses)))
    out = []
    for r in range(1, width + 1):
        for sub in combinations(range(width), r):
            out.append(sum((m for bits, m in masses.items() if all(bits[k] == "1" for k in sub)), Fraction(0)))
    return out


def fits_policy(values) -> bool:
    return all(v.denominator <= MAX_DENOMINATOR for v in values)


class RationalCase:
    """A rational suite, its switch weights and the exact context masses."""

    __slots__ = ("dim", "density", "projectors", "weights", "masses")

    def __init__(self, dim, density, projectors, weights, masses) -> None:
        self.dim = dim
        self.density = density
        self.projectors = projectors
        self.weights = weights  # frozenset of 1-based indices -> Fraction
        self.masses = masses  # same keys -> {outcome bits: Fraction}


def commuting_sets(projectors: list) -> list:
    """Every non-empty index set whose projectors commute pairwise, ordered."""
    n = len(projectors)
    ok = {
        (i, j): projectors[i - 1].commutes(projectors[j - 1])
        for i, j in combinations(range(1, n + 1), 2)
    }
    out = []
    for r in range(1, n + 1):
        for members in combinations(range(1, n + 1), r):
            if all(ok[p] for p in combinations(members, 2)):
                out.append(frozenset(members))
    return out


def random_case(rng: random.Random, dim: int, n: int, contexts: int) -> RationalCase:
    """Draw until every exact context mass and marginal fits the default policy.

    Every trace the package rationalizes for this suite is a context atom or
    a marginal of one, so this filter is exactly the condition for the
    exact answer to be representable at all under the default policy.
    """
    while True:
        projectors = [random_projector(rng, dim) for _ in range(n)]
        density = random_density(rng, dim)
        pool = commuting_sets(projectors)
        chosen = rng.sample(pool, min(contexts, len(pool)))
        masses = {}
        for ctx in chosen:
            m = context_oracle(density, projectors, sorted(ctx))
            if not fits_policy(list(m.values()) + marginals(m)):
                break
            masses[ctx] = m
        else:
            weights = dict(zip(chosen, random_weights(rng, len(chosen))))
            return RationalCase(dim, density, projectors, weights, masses)
