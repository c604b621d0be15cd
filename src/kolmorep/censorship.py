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
space reproduces every effective probability. Quantum traces are floats;
they are identified with small exact fractions under a rationalization
policy before they enter any measure, so the verification is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
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
from .quantum import Operator, born, commutes, complement
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


def _outcome_operators(suite: MeasurementSuite, members: Sequence[int], bits: Sequence[int]):
    ops = []
    for i, b in zip(members, bits):
        p = suite.proj(i)
        ops.append(p if b else complement(p))
    return ops


def context_space(
    context: Iterable[int],
    suite: MeasurementSuite,
    policy: RationalizationPolicy = DEFAULT_POLICY,
) -> KolmogorovSpace:
    """Outcome space of one context: atoms are the 2^|J| joint outcomes.

    Masses are the trace-rule values of the corresponding projector products
    (complements for 0 bits), identified with exact fractions. The analytic
    sum is 1; a float sum off by more than TAU_PROB, or a rationalized sum
    off exactly, is reported as a numerical failure rather than renormalized.
    """
    members = sorted(frozenset(context))
    if not members:
        raise IncompatibleContext("a context needs at least one measurement")
    for i, j in combinations(members, 2):
        if not commutes(suite.proj(i), suite.proj(j)):
            raise IncompatibleContext(
                f"measurements {suite.name_of(i)!r} and {suite.name_of(j)!r} do not commute"
            )

    point_bits = list(product((1, 0), repeat=len(members)))
    raw = []
    for bits in point_bits:
        t = born(suite.density, _outcome_operators(suite, members, bits))
        if t < -quantum.TAU_PROB:
            raise NumericalFailure(f"outcome mass {t} is negative beyond tolerance")
        raw.append(max(t, 0.0))
    if abs(sum(raw) - 1.0) > quantum.TAU_PROB:
        raise NumericalFailure(f"context masses sum to {sum(raw)}, expected 1")

    masses = [rationalize(t, policy) for t in raw]
    if sum(masses, Fraction(0)) != 1:
        raise NumericalFailure(
            "rationalized context masses do not sum to one; "
            "raise the policy's max denominator for this suite"
        )

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
    return prior * _rationalized_trace(suite, i1, policy)


def _rationalized_trace(
    suite: MeasurementSuite, i1: frozenset, policy: RationalizationPolicy
) -> Fraction:
    t = born(suite.density, [suite.proj(i) for i in sorted(i1)])
    if t < -quantum.TAU_PROB:
        raise NumericalFailure(f"trace value {t} is negative beyond tolerance")
    return rationalize(max(t, 0.0), policy)


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

    Each entry equals ``effective_probability`` of its outcome and switch
    sets. Within one call, the rationalized trace of an outcome set and the
    switch probability of a union are each computed once.
    """
    n = suite.n
    if scheme.n != 2 * n:
        raise SchemeMismatch(f"scheme must range over {2 * n} events (outcomes then switches)")
    prior_of = cache(partial(switch_probability, dist))
    trace_of = cache(partial(_rationalized_trace, suite, policy=policy))
    values = {}
    for s in scheme.sets:
        i1 = frozenset(i for i in s if i <= n)
        union = i1 | frozenset(i - n for i in s if i > n)
        # The checks of effective_probability, in its order.
        if union and union not in dist.structure:
            values[s] = Fraction(0)
            continue
        prior = prior_of(union)
        values[s] = prior * trace_of(i1) if prior != 0 and i1 else prior
    return EffectiveVector(CorrelationVector(scheme, values), suite.names)
