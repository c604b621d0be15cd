"""Correlation vectors, the classical correlation polytope, exact membership.

A conjunction scheme fixes n events and a family S of non-empty index sets;
a correlation vector assigns one rational value to each set in S. The
classical polytope is the convex hull of the 2^n deterministic assignment
vectors ``u(eps)_I = prod_{i in I} eps_i``. Membership of a vector in that
hull is exactly the existence of a finite classical probability space whose
event intersections reproduce the vector, and both directions are
constructive:

* Inside verdicts carry a convex decomposition over assignments in integers
  (``lattice.Decomposition``), which ``representation_from_weights`` turns
  into a probability space. A vector may carry one as its proposal (an
  effective vector carries its censored space's); ``membership`` checks it
  exactly and returns that object itself only if it reproduces every value.
* Outside verdicts carry an affine functional that is non-positive on every
  vertex but positive on the tested vector; ``certificate_is_valid``
  re-checks it on all 2^n assignments with one subset-sum pass.

Decisions are exact over the rationals and run in a fixed order: a checked
proposal, then one table of rows valid on every vertex (``ROW_FAMILIES``:
range and monotonicity as differences p_x <= p_y, then the Bell–Boole pair
atoms and triangles of every complete pair and triple; Pitowsky, "Correlation
polytopes: their geometry and complexity", Math. Programming 50, 1991), and
only then the phase-1 simplex under Bland's rule. No tolerance enters
anywhere in this module.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from . import lattice
from .errors import (
    InvalidDistribution,
    SchemeMismatch,
    TooLarge,
    UnknownEvent,
)
from .rational import exact_number, scaled
from .simplex import solve_zero_one_feasibility


def _event_index(i, what: str = "event index") -> int:
    """An event index (or count) as a plain int; a bool or a non-integer raises ``SchemeMismatch`` naming it."""
    if isinstance(i, (bool, np.bool_)) or not hasattr(i, "__index__"):
        raise SchemeMismatch(f"{what} {i!r} is not an integer")
    return operator.index(i)


# Membership's rows before the simplex, in three families. Every row is homogeneous, c . (p_S..., p_∅) <= 0,
# where the empty conjunction has p_∅ = 1 and a virtual "never" event has value 0; a family is the matrix of
# its rows' coefficients, one column per row, on the values that one gather of ``row_positions`` names.
ROW_FAMILIES = (
    # Differences p_x <= p_y on (p_x, p_y): range-low p_never <= p_I, range-high p_I <= p_∅, and monotonicity
    # p_b <= p_a for a proper subset a of b.
    np.array([[1], [-1]], dtype=np.int64),
    # The Bell–Boole pair atom p_i + p_j - p_ij <= 1 on (p_i, p_j, p_ij, p_∅).
    np.array([[1], [1], [-1], [-1]], dtype=np.int64),
    # The triangles on (p_i, p_j, p_k, p_ij, p_ik, p_jk, p_∅): p_i + p_j + p_k - p_ij - p_ik - p_jk <= 1, then
    # p_ij + p_ik - p_jk <= p_i and its two rotations. Under the covariance map they are the triangle
    # inequalities of the cut polytope.
    np.array([(1, 1, 1, -1, -1, -1, -1), (-1, 0, 0, 1, 1, -1, 0), (0, -1, 0, 1, -1, 1, 0), (0, 0, -1, -1, 1, 1, 0)],
             dtype=np.int64).T,
)


@dataclass(frozen=True)
class ConjunctionScheme:
    """n events and a deduplicated family of non-empty subsets of {1..n}.

    Presentation and membership read three parts cached on the scheme, each built
    on first use: ``order``, the sets by size and then lexicographically;
    ``masks``, their bitmasks; and ``row_positions``. A listed vector builds
    ``order`` alone, and one that its proposal decides builds no rows.
    """

    n: int
    sets: frozenset

    def __post_init__(self) -> None:
        if type(self.n) is not int:
            raise SchemeMismatch(f"event count {self.n!r} is not a plain int; build schemes with make")
        if self.n < 1:
            raise SchemeMismatch("scheme needs at least one event")
        for s in self.sets:
            if not isinstance(s, frozenset) or not s:
                raise SchemeMismatch("scheme members must be non-empty index sets")
            for i in s:
                if type(i) is not int:
                    raise SchemeMismatch(f"event index {i!r} is not a plain int; build schemes with make")
            if not all(1 <= i <= self.n for i in s):
                raise SchemeMismatch(f"indices of {sorted(s)} fall outside 1..{self.n}")

    @staticmethod
    def make(n: int, sets: Iterable[Iterable[int]]) -> "ConjunctionScheme":
        """The scheme of ``sets``, n and each index read as a plain int; a bool or a non-integer raises."""
        n = _event_index(n, "event count")
        return ConjunctionScheme(n, frozenset(frozenset(map(_event_index, s)) for s in sets))

    @staticmethod
    def singletons(n: int) -> "ConjunctionScheme":
        n = _event_index(n, "event count")
        return ConjunctionScheme.make(n, ({i} for i in range(1, n + 1)))

    @cached_property
    def order(self) -> tuple:
        return tuple(sorted(self.sets, key=lambda s: (len(s), sorted(s))))

    @cached_property
    def masks(self) -> tuple:
        return tuple(map(lattice.mask, self.order))

    @cached_property
    def row_positions(self) -> tuple:
        """One int array per ``ROW_FAMILIES`` family, a row of positions for each gather.

        Positions index the values in ``order``, then p_∅ (at m, the set
        count) and p_never (at m + 1). Differences list range-low and
        range-high set by set, then monotonicity by a, then by b. Pairs gather
        ({i}, {j}, {i, j}, ∅) for every pair whose three sets are all in the
        scheme, and triples ({i}, {j}, {k}, {i, j}, {i, k}, {j, k}, ∅) for
        every triple whose six sets are, both in lexicographic order.
        """
        n, empty = self.n, len(self.masks)
        # a is a proper subset of b when mask_a & ~mask_b == 0 and a != b; sorted by size, a comes first,
        # and nonzero lists the pairs by a, then by b.
        bits = np.array(self.masks, dtype=np.int64 if n < 63 else object)
        subset = (bits[:, None] & ~bits) == 0
        np.fill_diagonal(subset, False)
        below, above = np.nonzero(subset)
        ranges = np.array([row for k in range(empty) for row in ((empty + 1, k), (k, empty))], dtype=np.intp)
        differences = np.concatenate([ranges.reshape(-1, 2), np.column_stack([above, below])])
        # Complete pairs by their two bits, in the order's lexicographic order, each with the positions of
        # {i}, {j} and {i, j}; then every j's complete partners k > j, in increasing order.
        at = dict(zip(self.masks, range(empty)))
        pairs, partners = {}, {}
        for mask, k in at.items():
            low = mask & -mask
            high = mask ^ low
            if high and not high & (high - 1) and low in at and high in at:
                pairs[low, high] = (at[low], at[high], k)
                partners.setdefault(low, []).append(high)
        triples = [
            (i, j, pairs[b, c][1], ab, pairs[a, c][2], pairs[b, c][2], empty)
            for (a, b), (i, j, ab) in pairs.items() for c in partners.get(b, ()) if (a, c) in pairs
        ]
        pairs = np.array([(*pair, empty) for pair in pairs.values()], dtype=np.intp).reshape(-1, 4)
        return differences, pairs, np.array(triples, dtype=np.intp).reshape(-1, 7)


@dataclass(frozen=True)
class CorrelationVector:
    """A value for every conjunction in the scheme. Values may leave [0, 1].

    ``proposal`` is an optional Inside witness for ``membership`` to check. It
    takes no part in equality and is not serialized.
    """

    scheme: ConjunctionScheme
    values: Mapping
    proposal: Optional[lattice.Decomposition] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        keys = frozenset(self.values.keys())
        if keys != self.scheme.sets:
            raise SchemeMismatch("vector values must cover the scheme's sets exactly")
        if not all(isinstance(v, Fraction) for v in self.values.values()):
            raise SchemeMismatch("vector values must be Fractions")
        if self.proposal is not None and not isinstance(self.proposal, lattice.Decomposition):
            raise SchemeMismatch(f"a proposal must be a Decomposition, got {type(self.proposal).__name__}")

    def __getitem__(self, index_set: Iterable[int]) -> Fraction:
        key = frozenset(index_set)
        if key not in self.values:
            raise SchemeMismatch(f"{sorted(key)} is not part of the scheme")
        return self.values[key]

    def items(self) -> list:
        return [(s, self.values[s]) for s in self.scheme.order]


def vertex(bits: Sequence[int], scheme: ConjunctionScheme) -> CorrelationVector:
    """The deterministic assignment vector: value at I is the product of bits over I."""
    if len(bits) != scheme.n:
        raise SchemeMismatch(f"expected {scheme.n} bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise SchemeMismatch("assignment bits must be 0 or 1")
    values = {
        s: Fraction(int(all(bits[i - 1] for i in s))) for s in scheme.sets
    }
    return CorrelationVector(scheme, values)


@dataclass(frozen=True)
class Inside:
    """Convex decomposition over assignments, positive weights only; ``membership`` gives a ``Decomposition``."""

    weights: Mapping  # tuple of bits -> Fraction


@dataclass(frozen=True)
class Outside:
    """Separating affine functional: sum_I c_I p_I + offset.

    Non-positive on every vertex, strictly positive on the rejected vector.
    ``membership`` gives plain ints in lowest terms; a hand-built one may hold Fractions.
    """

    certificate: Mapping  # frozenset -> int
    offset: int

    def gap(self, p: CorrelationVector) -> Fraction:
        return sum((c * p[s] for s, c in self.certificate.items()), self.offset)


Verdict = Union[Inside, Outside]


def _row_separation(scheme: ConjunctionScheme, values: np.ndarray) -> Outside | None:
    """The first violated row of ``ROW_FAMILIES``, family by family, as an Outside verdict; None if all hold.

    ``values`` are the vector's numerators in ``scheme.order``, then their
    common denominator (p_∅) and 0 (p_never). Every row is valid on every
    vertex, so a violation proves Outside, and its coefficients (+-1 and 0)
    are already in lowest integer form: its real-set terms are the
    certificate and its p_∅ coefficient is the offset.
    """
    for coefficients, positions in zip(ROW_FAMILIES, scheme.row_positions):
        over = np.dot(values[positions], coefficients) > 0
        if over.any():
            t, r = divmod(int(np.argmax(over)), coefficients.shape[1])
            row, empty = dict(zip(positions[t].tolist(), coefficients[:, r].tolist())), len(scheme.order)
            return Outside({scheme.order[k]: c for k, c in row.items() if c and k < empty}, row.get(empty, 0))
    return None


def _checked_proposal(p: CorrelationVector) -> Inside | None:
    """The vector's proposal as an Inside verdict if it has one that reproduces the vector exactly, else None.

    It must be over the scheme's n events, with positive int numerators summing
    to the denominator on distinct masks of n bits; for every scheme set the
    numerators of the masks containing it must sum to the set's value, compared
    by cross-multiplication. That costs support x sets and no 2^n array.
    """
    proposal, n = p.proposal, p.scheme.n
    if proposal is None or proposal.n != n:
        return None
    den, support, numerators = proposal.denominator, proposal.masks, proposal.numerators
    if type(den) is not int or den < 1 or len(support) != len(numerators) or len(set(support)) != len(support):
        return None
    if not all(type(m) is int and 0 <= m < 1 << n for m in support):
        return None
    if not all(type(w) is int and w > 0 for w in numerators) or sum(numerators) != den:
        return None
    weighted = list(zip(support, numerators))
    for s, mask in zip(p.scheme.order, p.scheme.masks):
        value = p.values[s]
        if sum(w for m, w in weighted if m & mask == mask) * value.denominator != value.numerator * den:
            return None
    return Inside(proposal)


def membership(p: CorrelationVector, n_max: int = 16) -> Verdict:
    """Exact polytope membership with a witness either way.

    Inside means the vector is a convex mixture of deterministic assignments
    (boundary included); the returned weights reproduce the vector exactly.
    Outside returns a separating functional in ints in lowest terms. ``n_max``
    guards the 2^n column count; raise it explicitly for patient large runs.

    The checks run in a fixed order and the first that decides returns:
    the vector's ``proposal``, checked exactly and returned as the Inside
    verdict when it reproduces the vector; the first violated row of
    ``ROW_FAMILIES`` (range and monotonicity, then the Bell–Boole pair atoms
    and triangles of the scheme's complete pairs and triples); and the
    phase-1 simplex on the rows' integer form, which decides every vector
    that reaches it with at most 27 events (``simplex._COLUMNS_MAX``) and
    raises ``TooLarge`` past that. All read the scheme's ``order`` and
    ``masks``; only the rows build ``row_positions``.
    """
    scheme, n = p.scheme, p.scheme.n
    if n > n_max:
        raise TooLarge(f"{n} events means 2^{n} columns; raise n_max to force the run")

    checked = _checked_proposal(p)
    if checked is not None:
        return checked
    scale, nums = scaled([p.values[s] for s in scheme.order])
    # int64 must hold every row sum: the widest row has seven terms of coefficient +-1.
    peak = max(scale, *map(abs, nums))
    values = np.array([*nums, scale, 0], dtype=np.int64 if 7 * peak <= lattice.INT64_MAX else object)
    separated = _row_separation(scheme, values)
    if separated is not None:
        return separated

    # The empty conjunction's row first: total weight 1.
    result = solve_zero_one_feasibility(n, (0, *scheme.masks), scale, (scale, *nums))
    if isinstance(result, lattice.Decomposition):
        return Inside(result)
    return Outside({s: y for s, y in zip(scheme.order, result[1:]) if y}, result[0])


def certificate_is_valid(p: CorrelationVector, verdict: Outside) -> bool:
    """Re-check a separating functional on the vector and, by one subset-sum pass, on all 2^n vertices.

    The coefficients, scaled to integers, sit at their masks and the offset at
    the empty set. Their absolute values summed bound every partial sum, so
    int64 holds the pass while that sum is at most ``lattice.INT64_MAX``; Python ints hold it otherwise.
    A coefficient or offset that is not an int or a Fraction (a float, a bool) raises ``SchemeMismatch``.
    """
    if any(s not in p.scheme.sets for s in verdict.certificate):
        return False
    for what, c in [*((sorted(s), c) for s, c in verdict.certificate.items()), ("the offset", verdict.offset)]:
        if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
            raise SchemeMismatch(f"certificate value {c!r} at {what} is not an int or a Fraction")
    _, numerators = scaled([*verdict.certificate.values(), verdict.offset])
    peak = sum(map(abs, numerators))
    values = np.zeros(1 << p.scheme.n, dtype=np.int64 if peak <= lattice.INT64_MAX else object)
    values[[lattice.mask(s) for s in verdict.certificate] + [0]] = numerators
    return bool((lattice.subset_sums(values) <= 0).all()) and verdict.gap(p) > 0


@dataclass(frozen=True)
class KolmogorovSpace:
    """Finite probability space with exact point masses and named events."""

    points: tuple
    mass: Mapping  # point id -> Fraction
    events: Mapping = field(default_factory=dict)  # name -> frozenset of point ids

    def __post_init__(self) -> None:
        pts = frozenset(self.points)
        if len(pts) != len(self.points):
            raise InvalidDistribution("duplicate point identifiers")
        if frozenset(self.mass.keys()) != pts:
            raise InvalidDistribution("masses must cover the points exactly")
        # Exact checks on integer numerators over the common denominator; a float counts at its exact value.
        masses = [m if isinstance(m, Fraction) else exact_number(m, f"mass of point {p!r}")
                  for p, m in self.mass.items()]
        den, numerators = scaled(masses)
        if min(numerators, default=0) < 0:
            raise InvalidDistribution("point masses must be non-negative")
        if sum(numerators) != den:
            raise InvalidDistribution("point masses must sum to one")
        for name, ev in self.events.items():
            if not isinstance(ev, (set, frozenset)):
                raise UnknownEvent(f"event {name!r} must be a set of point ids, got {type(ev).__name__}")
            if not ev <= pts:
                raise UnknownEvent(f"event {name!r} references unknown points")


def evaluate(space: KolmogorovSpace, event_names: Iterable[str]) -> Fraction:
    """Exact measure of the intersection of the named events (empty set: 1).

    Verification no longer calls it; it stays public as the per-pair check
    that ``tests/reference_censorship.py`` and the benchmark tracer read.
    """
    selected = set(space.points)
    for name in event_names:
        if name not in space.events:
            raise UnknownEvent(f"no event named {name!r}")
        selected &= space.events[name]
    return sum((space.mass[pt] for pt in selected), Fraction(0))


def representation_from_weights(
    weights: Mapping, scheme: ConjunctionScheme
) -> KolmogorovSpace:
    """Build the probability space whose atoms are the weighted assignments.

    The sample space is the support of the weights; the event for index i
    collects the assignments with bit i set. The measure of any intersection
    over I in S is then exactly the weighted count of assignments switching
    all of I on, which is how an Inside verdict is turned into an explicit
    representation.
    """
    n = scheme.n
    cleaned = {}
    for bits, w in weights.items():
        if len(bits) != n or any(b not in (0, 1) for b in bits):
            raise SchemeMismatch(f"weight key {bits!r} is not an n-bit assignment")
        bt = tuple(int(b) for b in bits)
        if not isinstance(w, Fraction):
            w = exact_number(w, f"weight for assignment {bt}")
        if w < 0:
            raise InvalidDistribution("weights must be non-negative")
        if bt in cleaned:
            raise InvalidDistribution(f"duplicate weight for assignment {bt}")
        cleaned[bt] = w
    if sum(cleaned.values(), Fraction(0)) != 1:
        raise InvalidDistribution("weights must sum to one")

    support = sorted(bt for bt, w in cleaned.items() if w > 0)
    ids = ["".join(str(b) for b in bt) for bt in support]
    mass = {pid: cleaned[bt] for pid, bt in zip(ids, support)}
    events = {
        f"A{i}": frozenset(pid for pid, bt in zip(ids, support) if bt[i - 1])
        for i in range(1, n + 1)
    }
    return KolmogorovSpace(tuple(ids), mass, events)
