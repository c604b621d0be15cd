"""Shared test utilities: exact Fraction matrix arithmetic and random inputs.

The Fraction matrix helpers give an oracle for quantum traces that is fully
independent of the package's float path: random suites are built from
rational projectors (diagonal 0/1 matrices, optionally conjugated by the
3-4-5 rotation) and rational densities, so every context mass has a small
exact value that plain Fraction arithmetic can produce directly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import numpy as np

from kolmorep import MeasurementSuite, Operator
from kolmorep.censorship import SetupDistribution, validate_distribution
from kolmorep.rational import scaled

# --- the exact simplex's integer rows -----------------------------------------

def integer_rows(rows):
    """Rows ``(mask, value)`` in the form ``simplex.solve_zero_one_feasibility`` takes: masks, scale, numerators."""
    scale, numerators = scaled([Fraction(value) for _, value in rows])
    return [mask for mask, _ in rows], scale, numerators


# --- exact rational matrices (lists of lists of Fractions) -----------------

def fr_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def fr_mul(a, b):
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]


def fr_sub(a, b):
    n = len(a)
    return [[a[i][j] - b[i][j] for j in range(n)] for i in range(n)]


def fr_to_float(a):
    return np.array([[float(x) for x in row] for row in a], dtype=complex)


def rotation_345(dim, pos=0):
    """Orthogonal rational rotation acting on coordinates (pos, pos+1)."""
    q = fr_identity(dim)
    q[pos][pos] = Fraction(3, 5)
    q[pos][pos + 1] = Fraction(-4, 5)
    q[pos + 1][pos] = Fraction(4, 5)
    q[pos + 1][pos + 1] = Fraction(3, 5)
    return q


def fr_transpose(a):
    n = len(a)
    return [[a[j][i] for j in range(n)] for i in range(n)]


# --- random rational scalars -------------------------------------------------

def random_fraction(rng: random.Random, max_den: int = 32) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def random_distribution(rng: random.Random, size: int, max_den: int = 20):
    """Exactly normalized positive weights."""
    raw = [rng.randint(1, max_den) for _ in range(size)]
    total = sum(raw)
    return [Fraction(x, total) for x in raw]


# --- random rational suites ---------------------------------------------------

def random_rational_projector(rng: random.Random, dim: int):
    """Exact projector: random 0/1 diagonal, maybe conjugated by the 3-4-5 rotation."""
    while True:
        diag = [rng.randint(0, 1) for _ in range(dim)]
        if 0 < sum(diag) < dim:
            break
    d = [[Fraction(diag[i]) if i == j else Fraction(0) for j in range(dim)] for i in range(dim)]
    if rng.random() < 0.5:
        q = rotation_345(dim, pos=rng.choice(range(dim - 1)))
        return fr_mul(fr_mul(q, d), fr_transpose(q))
    return d


def random_rational_density(rng: random.Random, dim: int):
    """Exact density: rational mixture of integer rank-1 states."""
    k = rng.randint(1, 3)
    weights = random_distribution(rng, k, max_den=8)
    out = [[Fraction(0)] * dim for _ in range(dim)]
    for w in weights:
        while True:
            v = [rng.randint(-2, 2) for _ in range(dim)]
            norm = sum(x * x for x in v)
            if norm:
                break
        for i in range(dim):
            for j in range(dim):
                out[i][j] += w * Fraction(v[i] * v[j], norm)
    return out


def random_suite(rng: random.Random, dim: int, n: int):
    """A float suite plus its exact Fraction twin (density, projector list)."""
    projs = [random_rational_projector(rng, dim) for _ in range(n)]
    dens = random_rational_density(rng, dim)
    suite = MeasurementSuite.make(
        Operator(fr_to_float(dens), tags=("density",)),
        [(f"M{i}", Operator(fr_to_float(p), tags=("projector",))) for i, p in enumerate(projs, start=1)],
    )
    return suite, dens, projs


def random_diagonal_suite(n: int, dim: int = 16, seed: int = 16) -> MeasurementSuite:
    """n random diagonal 0/1 projectors, all commuting, under the density diag(1, 2, ..., dim) / total.

    Basis state 0 lies in every projector, so the all-hit atom of every context has positive mass.
    """
    rng = random.Random(seed)
    density = Operator(np.diag(np.arange(1, dim + 1) / (dim * (dim + 1) // 2)), tags=("density",))
    diagonals = [[1] + [rng.randint(0, 1) for _ in range(dim - 1)] for _ in range(n)]
    projectors = [Operator(np.diag(d).astype(float), tags=("projector",)) for d in diagonals]
    return MeasurementSuite.make(density, [(f"M{i}", p) for i, p in enumerate(projectors, start=1)])


def exact_context_mass(dens, projs, comps, members, bits):
    """Oracle mass of one joint outcome: exact tr(W prod), where the product
    takes P_i for a 1 bit and its complement ``comps[i - 1]`` = I - P_i for a 0 bit."""
    factors = [(projs if b else comps)[i - 1] for i, b in zip(members, bits)]
    prod = factors[0]
    for f in factors[1:]:
        prod = fr_mul(prod, f)
    dim = len(dens)
    # The trace needs only the diagonal of W prod.
    return sum((dens[i][k] * prod[k][i] for i in range(dim) for k in range(dim)), Fraction(0))


def random_setup(rng: random.Random, suite: MeasurementSuite, max_contexts: int = 4) -> SetupDistribution:
    """Random rational weights on a random selection of the suite's commuting contexts."""
    n = suite.n
    # Non-empty subsets by size, then lexicographically.
    subsets = (frozenset(c) for k in range(1, n + 1) for c in combinations(range(1, n + 1), k))
    pool = [s for s in subsets if all(frozenset(p) in suite.commuting_pairs for p in combinations(s, 2))]
    count = rng.randint(1, min(max_contexts, len(pool)))
    chosen = rng.sample(pool, count)
    weights = dict(zip(chosen, random_distribution(rng, count)))
    return validate_distribution(weights, suite)


def random_censorship_case(rng: random.Random, dim_choices=(2, 4, 8), n_range=(2, 5), max_mass_den=10**6):
    """Suite + setup whose exact context masses all fit the rationalization policy."""
    while True:
        dim = rng.choice(dim_choices)
        n = rng.randint(*n_range)
        suite, dens, projs = random_suite(rng, dim, n)
        dist = random_setup(rng, suite)
        ok = True
        comps = [fr_sub(fr_identity(dim), p) for p in projs]
        oracle = {}
        for context in dist.support:
            members = sorted(context)
            masses = []
            for mask in range(1 << len(members)):
                bits = [(mask >> k) & 1 for k in range(len(members))]
                value = exact_context_mass(dens, projs, comps, members, bits)
                if value.denominator > max_mass_den:
                    ok = False
                    break
                masses.append((tuple(bits), value))
            if not ok:
                break
            oracle[context] = dict(masses)
        if ok:
            return suite, dist, oracle
