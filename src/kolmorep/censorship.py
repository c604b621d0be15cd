"""Switch-filtered measurement statistics and their classical representation.

A measurement suite is a density operator plus named two-outcome projectors.
Incompatible (non-commuting) measurements cannot run together, so an
experiment is described by a classical distribution over *contexts*: sets of
pairwise-commuting measurements that the switches select. The observed
("effective") probability of seeing outcomes I1 while switches I2 are on is
then

    (total weight of contexts covering I1 and I2) x tr(W prod_{i in I1} A_i),

zero whenever the required measurements cannot coexist. This module builds
the per-context outcome spaces, glues them into one finite probability space
on the disjoint union of their sample sets, and verifies that this single
space reproduces every effective probability. The only floats are the
moments tr(W prod_{i in I} A_i); each is identified with an exact fraction
once per suite and policy (``MeasurementSuite.moment``), and every mass and
probability is derived from those fractions exactly, so the verification is
exact and the context marginals agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Mapping, Optional, Sequence

from . import quantum
from .errors import (
    IncompatibleContext,
    IncompatibleSupport,
    InvalidDistribution,
    KolmorepError,
    NumericalFailure,
    SchemeMismatch,
)
from .polytope import ConjunctionScheme, CorrelationVector, KolmogorovSpace, evaluate
from .quantum import Operator, born, commutes
from .rational import DEFAULT_POLICY, RationalizationPolicy, rationalize

SWITCH_EVENT_PREFIX = "performed:"


@dataclass(frozen=True)
class Measurement:
    name: str
    projector: Operator

    def __post_init__(self) -> None:
        if not self.name:
            raise KolmorepError("measurement names must be non-empty")
        if not self.projector.has_tag("projector"):
            raise KolmorepError(f"measurement {self.name!r} needs a validated projector")


@dataclass(frozen=True)
class MeasurementSuite:
    """A shared density operator and an ordered list of named projectors."""

    density: Operator
    measurements: tuple
    _moments: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.density.has_tag("density"):
            raise KolmorepError("suite state must be a validated density operator")
        names = [m.name for m in self.measurements]
        if len(set(names)) != len(names):
            raise KolmorepError("measurement names must be unique")
        for m in self.measurements:
            if m.projector.dim != self.density.dim:
                raise KolmorepError(
                    f"measurement {m.name!r} has dim {m.projector.dim}, state has dim {self.density.dim}"
                )

    @staticmethod
    def make(density: Operator, measurements: Iterable) -> "MeasurementSuite":
        return MeasurementSuite(density, tuple(Measurement(n, p) for n, p in measurements))

    @property
    def dim(self) -> int:
        return self.density.dim

    @property
    def n(self) -> int:
        return len(self.measurements)

    @property
    def names(self) -> tuple:
        return tuple(m.name for m in self.measurements)

    def index(self, name: str) -> int:
        """1-based index of a measurement name."""
        for k, m in enumerate(self.measurements, start=1):
            if m.name == name:
                return k
        raise KolmorepError(f"no measurement named {name!r}")

    def proj(self, i: int) -> Operator:
        return self.measurements[i - 1].projector

    def name_of(self, i: int) -> str:
        return self.measurements[i - 1].name

    def moment(
        self, index_set: Iterable[int], policy: RationalizationPolicy = DEFAULT_POLICY
    ) -> Fraction:
        """tr(W prod_{i in I} A_i) as an exact fraction, computed once per set and policy.

        The empty product gives exactly 1. A trace below -TAU_PROB is a
        numerical failure; smaller negative noise is clamped to 0 before
        rationalization.
        """
        key = (frozenset(index_set), policy)
        value = self._moments.get(key)
        if value is None:
            if not key[0]:
                value = Fraction(1)
            else:
                t = born(self.density, [self.proj(i) for i in sorted(key[0])])
                if t < -quantum.TAU_PROB:
                    raise NumericalFailure(f"trace value {t} is negative beyond tolerance")
                value = rationalize(max(t, 0.0), policy)
            self._moments[key] = value
        return value


@dataclass(frozen=True)
class CompatibilityStructure:
    """All non-empty index sets whose projectors pairwise commute.

    Downward closed, and every singleton is present; both are validated.
    """

    n: int
    sets: frozenset

    def __post_init__(self) -> None:
        for i in range(1, self.n + 1):
            if frozenset({i}) not in self.sets:
                raise KolmorepError("compatibility structure must contain every singleton")
        for s in self.sets:
            if not s or not s <= frozenset(range(1, self.n + 1)):
                raise KolmorepError("compatibility members must be non-empty subsets of 1..n")
            for i in s:
                if len(s) > 1 and s - {i} not in self.sets:
                    raise KolmorepError("compatibility structure must be downward closed")

    def __contains__(self, index_set) -> bool:
        return frozenset(index_set) in self.sets


def compute_compatibility(suite: MeasurementSuite) -> CompatibilityStructure:
    """Enumerate every subset whose projectors pairwise commute."""
    n = suite.n
    pair_ok = {}
    for i, j in combinations(range(1, n + 1), 2):
        pair_ok[(i, j)] = commutes(suite.proj(i), suite.proj(j))
    sets = set()
    for mask in range(1, 1 << n):
        members = [i for i in range(1, n + 1) if mask & (1 << (i - 1))]
        if all(pair_ok[(i, j)] for i, j in combinations(members, 2)):
            sets.add(frozenset(members))
    return CompatibilityStructure(n, frozenset(sets))


@dataclass(frozen=True)
class SetupDistribution:
    """Classical switch weights over compatible contexts."""

    structure: CompatibilityStructure
    weights: Mapping  # frozenset of indices -> Fraction

    @property
    def support(self) -> tuple:
        return tuple(
            sorted((j for j, w in self.weights.items() if w > 0), key=sorted)
        )


def validate_distribution(
    weights: Mapping, structure: CompatibilityStructure
) -> SetupDistribution:
    """Check that the weights form a distribution supported on commuting sets."""
    cleaned = {}
    for key, w in weights.items():
        j = frozenset(key)
        if not isinstance(w, Fraction):
            w = Fraction(w)
        if w < 0:
            raise InvalidDistribution(f"negative weight {w} on context {sorted(j)}")
        if j in cleaned:
            raise InvalidDistribution(f"duplicate context {sorted(j)}")
        if not j or not j <= frozenset(range(1, structure.n + 1)):
            raise InvalidDistribution(f"context {sorted(j)} is not a non-empty subset of 1..{structure.n}")
        if w > 0 and j not in structure:
            raise IncompatibleSupport(
                f"context {sorted(j)} carries weight {w} but its measurements do not commute"
            )
        cleaned[j] = w
    if sum(cleaned.values(), Fraction(0)) != 1:
        raise InvalidDistribution("context weights must sum to one")
    return SetupDistribution(structure, cleaned)


def switch_probability(dist: SetupDistribution, index_set: Iterable[int]) -> Fraction:
    """Probability that every switch in the set is on: total weight of covering contexts."""
    wanted = frozenset(index_set)
    return sum(
        (w for j, w in dist.weights.items() if wanted <= j and w > 0), Fraction(0)
    )


def context_space(
    context: Iterable[int],
    suite: MeasurementSuite,
    policy: RationalizationPolicy = DEFAULT_POLICY,
) -> KolmogorovSpace:
    """Outcome space of one context: atoms are the 2^|J| joint outcomes.

    Atom masses come from the suite's exact moments by inclusion-exclusion:
    the atom whose hits are S (misses the rest of J) has mass
    sum_{S <= T <= J} (-1)^|T - S| m_T. The atoms sum to m_empty = 1 exactly,
    and every marginal is exactly the moment of its hits, so contexts agree
    wherever they overlap. A negative atom means the rationalized moments
    admit no distribution; it is reported as a numerical failure, never
    clamped. Atom masses may have denominators above the policy's bound.
    """
    members = sorted(frozenset(context))
    if not members:
        raise IncompatibleContext("a context needs at least one measurement")
    for i, j in combinations(members, 2):
        if not commutes(suite.proj(i), suite.proj(j)):
            raise IncompatibleContext(
                f"measurements {suite.name_of(i)!r} and {suite.name_of(j)!r} do not commute"
            )

    k = len(members)
    # mass[mask] starts as the moment of the members whose bits are set ...
    mass = [
        suite.moment((i for pos, i in enumerate(members) if mask >> pos & 1), policy)
        for mask in range(1 << k)
    ]
    # ... and Moebius inversion over supersets turns it into the atom with exactly those hits.
    for pos in range(k):
        bit = 1 << pos
        for mask in range(1 << k):
            if not mask & bit:
                mass[mask] -= mass[mask | bit]
    if min(mass) < 0:
        raise NumericalFailure(
            f"context {[suite.name_of(i) for i in members]} has a negative atom {min(mass)}: "
            "its rationalized moments admit no distribution"
        )

    point_bits = list(product((1, 0), repeat=k))
    masses = [mass[sum(b << pos for pos, b in enumerate(bits))] for bits in point_bits]
    ids = tuple("".join(str(b) for b in bits) for bits in point_bits)
    events = {
        suite.name_of(i): frozenset(
            pid for pid, bits in zip(ids, point_bits) if bits[pos]
        )
        for pos, i in enumerate(members)
    }
    return KolmogorovSpace(ids, dict(zip(ids, masses)), events)


def effective_probability(
    suite: MeasurementSuite,
    dist: SetupDistribution,
    outcomes: Iterable[int],
    switches: Iterable[int],
    policy: RationalizationPolicy = DEFAULT_POLICY,
) -> Fraction:
    """Observed probability of outcomes I1 together with switch events I2.

    The switch part must cover both sets: seeing an outcome presupposes that
    its measurement ran. Incompatible requirements give zero: no context can
    host them.
    """
    i1 = frozenset(outcomes)
    i2 = frozenset(switches)
    union = i1 | i2
    if union and union not in dist.structure:
        return Fraction(0)
    prior = switch_probability(dist, union)
    if prior == 0 or not i1:
        return prior
    return prior * suite.moment(i1, policy)


@dataclass(frozen=True)
class CensoredSpace:
    """Disjoint union of the per-context outcome spaces, one measure overall.

    Point (J, eps) carries mass kappa_J times the context mass of eps. The
    outcome event of measurement i collects its hit-points across all
    contexts containing i; the switch event collects those contexts' entire
    sample sets, so outcome events sit inside their switch events.
    """

    space: KolmogorovSpace
    outcome_events: Mapping  # measurement name -> event key
    switch_events: Mapping  # measurement name -> event key


def _context_label(suite: MeasurementSuite, members: Sequence[int]) -> str:
    return ",".join(suite.name_of(i) for i in members)


def build_censored_space(
    suite: MeasurementSuite,
    dist: SetupDistribution,
    policy: RationalizationPolicy = DEFAULT_POLICY,
) -> CensoredSpace:
    """Glue the supported contexts into one finite probability space.

    Only contexts with positive weight contribute points; zero-weight
    contexts would add null atoms without changing any probability.
    """
    points = []
    mass = {}
    outcome_sets = {name: set() for name in suite.names}
    switch_sets = {name: set() for name in suite.names}

    for context in dist.support:
        members = sorted(context)
        label = _context_label(suite, members)
        local = context_space(context, suite, policy)
        kappa = dist.weights[context]
        for pid in local.points:
            full_id = f"{label}|{pid}"
            points.append(full_id)
            mass[full_id] = kappa * local.mass[pid]
            for pos, i in enumerate(members):
                name = suite.name_of(i)
                switch_sets[name].add(full_id)
                if pid[pos] == "1":
                    outcome_sets[name].add(full_id)

    events = {}
    outcome_keys = {}
    switch_keys = {}
    for name in suite.names:
        okey = name
        skey = f"{SWITCH_EVENT_PREFIX}{name}"
        outcome_keys[name] = okey
        switch_keys[name] = skey
        events[okey] = frozenset(outcome_sets[name])
        events[skey] = frozenset(switch_sets[name])
    if len(events) != 2 * suite.n:
        raise KolmorepError("measurement names collide with switch event keys")

    space = KolmogorovSpace(tuple(points), mass, events)
    return CensoredSpace(space, outcome_keys, switch_keys)


@dataclass(frozen=True)
class VerificationMismatch:
    outcomes: tuple
    switches: tuple
    expected: Fraction
    found: Fraction


@dataclass(frozen=True)
class VerificationReport:
    checked: int
    max_order: int
    mismatches: tuple

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_censorship(
    censored: CensoredSpace,
    suite: MeasurementSuite,
    dist: SetupDistribution,
    max_order: Optional[int] = None,
    policy: RationalizationPolicy = DEFAULT_POLICY,
) -> VerificationReport:
    """Compare every joint event measure against its effective probability.

    Runs over all pairs (I1, I2) of outcome and switch index sets with
    |I1 union I2| <= max_order (default min(2n, 8); pass 2n for full order).
    Mismatches are collected, not raised.
    """
    n = suite.n
    if max_order is None:
        max_order = min(2 * n, 8)
    subsets = [frozenset(c) for r in range(n + 1) for c in combinations(range(1, n + 1), r)]

    checked = 0
    mismatches = []
    for i1 in subsets:
        for i2 in subsets:
            if len(i1 | i2) > max_order:
                continue
            checked += 1
            names = [censored.outcome_events[suite.name_of(i)] for i in sorted(i1)]
            names += [censored.switch_events[suite.name_of(j)] for j in sorted(i2)]
            found = evaluate(censored.space, names)
            expected = effective_probability(suite, dist, i1, i2, policy)
            if found != expected:
                mismatches.append(
                    VerificationMismatch(tuple(sorted(i1)), tuple(sorted(i2)), expected, found)
                )
    return VerificationReport(checked, max_order, tuple(mismatches))


@dataclass(frozen=True)
class EffectiveVector:
    """Correlation vector over 2n events: outcomes 1..n, switches n+1..2n."""

    vector: CorrelationVector
    names: tuple  # measurement names, index i and i+n refer to names[i-1]

    def label(self, index: int) -> str:
        n = len(self.names)
        if 1 <= index <= n:
            return self.names[index - 1]
        if n < index <= 2 * n:
            return f"{SWITCH_EVENT_PREFIX}{self.names[index - n - 1]}"
        raise SchemeMismatch(f"event index {index} outside 1..{2 * n}")


def assemble_effective_vector(
    suite: MeasurementSuite,
    dist: SetupDistribution,
    scheme: ConjunctionScheme,
    policy: RationalizationPolicy = DEFAULT_POLICY,
) -> EffectiveVector:
    """Fill a scheme over the 2n outcome/switch events with effective probabilities.

    Each entry is ``effective_probability`` of its outcome and switch sets.
    """
    n = suite.n
    if scheme.n != 2 * n:
        raise SchemeMismatch(f"scheme must range over {2 * n} events (outcomes then switches)")
    values = {
        s: effective_probability(
            suite, dist, (i for i in s if i <= n), (i - n for i in s if i > n), policy
        )
        for s in scheme.sets
    }
    return EffectiveVector(CorrelationVector(scheme, values), suite.names)
