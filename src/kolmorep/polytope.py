"""Correlation vectors, the classical correlation polytope, exact membership.

A conjunction scheme fixes n events and a family S of non-empty index sets;
a correlation vector assigns one rational value to each set in S. The
classical polytope is the convex hull of the 2^n deterministic assignment
vectors ``u(eps)_I = prod_{i in I} eps_i``. Membership of a vector in that
hull is exactly the existence of a finite classical probability space whose
event intersections reproduce the vector, and both directions are
constructive:

* Inside verdicts carry a convex decomposition over assignments, which
  ``representation_from_weights`` turns into an explicit probability space.
* Outside verdicts carry an affine functional that is non-positive on every
  vertex but positive on the tested vector; anyone can re-check it by
  enumerating the 2^n assignments.

Decisions are exact over the rationals (phase-1 simplex, Bland's rule); no
tolerance enters anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import (
    InvalidDistribution,
    SchemeMismatch,
    TooLarge,
    UnknownEvent,
)
from .rational import exact_number, scaled
from .simplex import solve_zero_one_feasibility


@dataclass(frozen=True)
class ConjunctionScheme:
    """n events and a deduplicated family of non-empty subsets of {1..n}."""

    n: int
    sets: frozenset

    def __post_init__(self) -> None:
        if self.n < 1:
            raise SchemeMismatch("scheme needs at least one event")
        for s in self.sets:
            if not isinstance(s, frozenset) or not s:
                raise SchemeMismatch("scheme members must be non-empty index sets")
            if not all(isinstance(i, int) and 1 <= i <= self.n for i in s):
                raise SchemeMismatch(f"indices of {sorted(s)} fall outside 1..{self.n}")

    @staticmethod
    def make(n: int, sets: Iterable[Iterable[int]]) -> "ConjunctionScheme":
        return ConjunctionScheme(n, frozenset(frozenset(s) for s in sets))

    @staticmethod
    def singletons(n: int) -> "ConjunctionScheme":
        return ConjunctionScheme.make(n, ({i} for i in range(1, n + 1)))

    def sorted_sets(self) -> list:
        """Deterministic presentation order: by size, then lexicographically."""
        return sorted(self.sets, key=lambda s: (len(s), sorted(s)))


@dataclass(frozen=True)
class CorrelationVector:
    """A value for every conjunction in the scheme. Values may leave [0, 1]."""

    scheme: ConjunctionScheme
    values: Mapping

    def __post_init__(self) -> None:
        keys = frozenset(self.values.keys())
        if keys != self.scheme.sets:
            raise SchemeMismatch("vector values must cover the scheme's sets exactly")
        if not all(isinstance(v, Fraction) for v in self.values.values()):
            raise SchemeMismatch("vector values must be Fractions")

    def __getitem__(self, index_set: Iterable[int]) -> Fraction:
        key = frozenset(index_set)
        if key not in self.values:
            raise SchemeMismatch(f"{sorted(key)} is not part of the scheme")
        return self.values[key]

    def items(self) -> list:
        return [(s, self.values[s]) for s in self.scheme.sorted_sets()]


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
    """Convex decomposition over assignments; only positive weights are listed."""

    weights: Mapping  # tuple of bits -> Fraction


@dataclass(frozen=True)
class Outside:
    """Separating affine functional: sum_I c_I p_I + offset.

    Non-positive on every vertex, strictly positive on the rejected vector.
    Entries are integers (scaled to lowest integer form for readability).
    """

    certificate: Mapping  # frozenset -> Fraction
    offset: Fraction

    def gap(self, p: CorrelationVector) -> Fraction:
        return sum((c * p[s] for s, c in self.certificate.items()), self.offset)

    def gap_at_vertex(self, bits: Sequence[int]) -> Fraction:
        return sum((c for s, c in self.certificate.items() if all(bits[i - 1] for i in s)), self.offset)


Verdict = Union[Inside, Outside]


def _mask(index_set: Iterable[int]) -> int:
    m = 0
    for i in index_set:
        m |= 1 << (i - 1)
    return m


def _bits(mask: int, n: int) -> tuple:
    return tuple((mask >> k) & 1 for k in range(n))


def _normalize_certificate(cert: dict, offset: Fraction) -> tuple:
    den, numerators = scaled([*cert.values(), offset])
    scale = Fraction(den, math.gcd(*numerators) or 1)
    return {s: v * scale for s, v in cert.items()}, offset * scale


def _quick_separation(p: CorrelationVector, order: list, masks: list) -> Outside | None:
    """Cheap certificates before the LP: range bounds and monotonicity.

    Both come straight from the vertex structure: every vertex component lies
    in {0, 1}, and components can only shrink as conjunctions grow. If either
    fails, the violating comparison itself is a valid separating functional,
    so these shortcuts can never disagree with the LP verdict. ``order`` is
    ``p.scheme.sorted_sets()`` and ``masks`` their bitmasks.
    """
    scale, nums = scaled([p.values[s] for s in order])
    nums = np.array(nums, dtype=object)
    outside = (nums < 0) | (nums > scale)
    if outside.any():
        i = int(np.argmax(outside))
        if nums[i] < 0:
            return Outside({order[i]: Fraction(-1)}, Fraction(0))
        return Outside({order[i]: Fraction(1)}, Fraction(-1))
    # a is a proper subset of b when mask_a & ~mask_b == 0 and a != b; sorted
    # by size, a then comes first. nonzero lists these pairs in scan order (by
    # a, then by b), so the first violation is the first in that scan.
    bits = np.array(masks, dtype=np.int64 if p.scheme.n < 63 else object)
    subset = (bits[:, None] & ~bits) == 0
    np.fill_diagonal(subset, False)
    below, above = np.nonzero(subset)
    violated = nums[above] > nums[below]
    if violated.any():
        k = int(np.argmax(violated))
        return Outside({order[above[k]]: Fraction(1), order[below[k]]: Fraction(-1)}, Fraction(0))
    return None


def membership(p: CorrelationVector, n_max: int = 16) -> Verdict:
    """Exact polytope membership with a witness either way.

    Inside means the vector is a convex mixture of deterministic assignments
    (boundary included); the returned weights reproduce the vector exactly.
    Outside returns a separating functional. ``n_max`` guards the 2^n column
    count; raise it explicitly for patient large runs.
    """
    n = p.scheme.n
    if n > n_max:
        raise TooLarge(f"{n} events means 2^{n} columns; raise n_max to force the run")

    order = p.scheme.sorted_sets()
    masks = [_mask(s) for s in order]
    quick = _quick_separation(p, order, masks)
    if quick is not None:
        return quick

    rows = [(0, Fraction(1))]  # empty conjunction: total weight 1
    rows += [(mask, p.values[s]) for s, mask in zip(order, masks)]
    result = solve_zero_one_feasibility(n, rows)
    if result.feasible:
        return Inside({_bits(mask, n): w for mask, w in sorted(result.weights.items())})
    offset = result.farkas[0]
    cert = {s: y for s, y in zip(order, result.farkas[1:]) if y}
    cert, offset = _normalize_certificate(cert, offset)
    return Outside(cert, offset)


def certificate_is_valid(p: CorrelationVector, verdict: Outside) -> bool:
    """Re-check a separating functional by enumerating all 2^n vertices."""
    n = p.scheme.n
    if any(s not in p.scheme.sets for s in verdict.certificate):
        return False
    return all(verdict.gap_at_vertex(_bits(mask, n)) <= 0 for mask in range(1 << n)) and verdict.gap(p) > 0


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
