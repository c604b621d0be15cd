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
once per suite (``MeasurementSuite.moment``), under the policy fixed when the
suite is built, and every mass and probability is derived from those
fractions exactly. So a space is built and verified from the same moments,
the verification is exact and the context marginals agree by construction.

Verification decides on rows, not on the 4^n table of joint measures. Each
switch mask sigma (of a point or of a support context) gets one row over the
2^n outcome masks: the found row sums the glued space's point masses, the
expected row is kappa_sigma times the moments inside sigma. Every joint
measure and every effective probability is a sum of rows over the switch
masks containing I2, and that sum is invertible, so the rows agree exactly
when every checked pair does. A space that fails lists its mismatches from the
same rows, one superset sum over the switch bits per column that disagrees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, product
from math import comb
from typing import Iterable, Mapping, Optional

import numpy as np

from . import quantum
from .errors import (
    IncompatibleContext,
    IncompatibleSupport,
    InvalidDistribution,
    KolmorepError,
    NumericalFailure,
    SchemeMismatch,
    TooLarge,
    UnknownEvent,
)
from .polytope import ConjunctionScheme, CorrelationVector, Inside, KolmogorovSpace, _bits, _mask
from .quantum import Operator, born, commutes
from .rational import DEFAULT_POLICY, RationalizationPolicy, exact_number, rationalize, scaled
from .simplex import _INT64_MAX

SWITCH_EVENT_PREFIX = "performed:"
MAX_COMPARED = 1 << 22  # integers compared in one verification pass: 32 MB of int64


@dataclass(frozen=True)
class MeasurementSuite:
    """A shared density operator and ordered, named projectors: ``projectors[k]`` is named ``names[k]``.

    ``policy`` turns every moment into a fraction; it is fixed with the suite.
    """

    density: Operator
    names: tuple
    projectors: tuple
    policy: RationalizationPolicy = DEFAULT_POLICY
    _moments: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.names) != len(self.projectors):
            raise KolmorepError(f"{len(self.names)} measurement names for {len(self.projectors)} projectors")
        for name, proj in zip(self.names, self.projectors):
            if not name:
                raise KolmorepError("measurement names must be non-empty")
            if not isinstance(name, str):
                raise KolmorepError(f"measurement name {name!r} is not a string")
            if not proj.has_tag("projector"):
                raise KolmorepError(f"measurement {name!r} needs a validated projector")
        if not self.density.has_tag("density"):
            raise KolmorepError("suite state must be a validated density operator")
        if len(set(self.names)) != len(self.names):
            raise KolmorepError("measurement names must be unique")
        for name, proj in zip(self.names, self.projectors):
            if proj.dim != self.density.dim:
                raise KolmorepError(f"measurement {name!r} has dim {proj.dim}, state has dim {self.density.dim}")

    @staticmethod
    def make(
        density: Operator, measurements: Iterable, policy: RationalizationPolicy = DEFAULT_POLICY
    ) -> "MeasurementSuite":
        """The suite of (name, projector) pairs."""
        pairs = tuple(measurements)
        return MeasurementSuite(density, tuple(n for n, _ in pairs), tuple(p for _, p in pairs), policy)

    @property
    def dim(self) -> int:
        return self.density.dim

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        """1-based index of a measurement name."""
        if name not in self.names:
            raise KolmorepError(f"no measurement named {name!r}")
        return self.names.index(name) + 1

    def _position(self, i: int) -> int:
        """The 0-based position of 1-based index `i`, checked to lie in 1..n."""
        if not 1 <= i <= self.n:
            raise KolmorepError(f"no measurement with index {i}: the suite has {self.n}, indexed 1..{self.n}")
        return i - 1

    def proj(self, i: int) -> Operator:
        return self.projectors[self._position(i)]

    def name_of(self, i: int) -> str:
        return self.names[self._position(i)]

    def _mask_of(self, index_set: Iterable[int]) -> int:
        """Bitmask of 1-based measurement indices, each checked like ``proj`` checks it."""
        mask = 0
        for i in index_set:
            mask |= 1 << self._position(i)
        return mask

    def moment(self, index_set: Iterable[int]) -> Fraction:
        """tr(W prod_{i in I} A_i) as an exact fraction under ``policy``, computed once per set.

        The empty product gives exactly 1. A trace below -TAU_PROB is a
        numerical failure; smaller negative noise is clamped to 0 before
        rationalization.
        """
        return self._mask_moment(self._mask_of(index_set))

    def _mask_moment(self, mask: int) -> Fraction:
        """``moment`` of the members of a mask whose indices are already checked."""
        value = self._moments.get(mask)
        if value is None:
            if not mask:
                value = Fraction(1)
            else:
                t = born(self.density, [self.proj(i) for i in _members(mask)])
                if t < -quantum.TAU_PROB:
                    raise NumericalFailure(f"trace value {t} is negative beyond tolerance")
                value = rationalize(max(t, 0.0), self.policy)
            self._moments[mask] = value
        return value

    @cached_property
    def commuting_pairs(self) -> frozenset:
        """Every index pair {i, j} whose projectors commute, tested once per suite."""
        return frozenset(
            _pair(i, j) for i, j in combinations(range(1, self.n + 1), 2)
            if commutes(self.proj(i), self.proj(j))
        )


@cache
def _pair(i: int, j: int) -> frozenset:
    """frozenset({i, j}), one object per index pair for every suite to share."""
    return frozenset((i, j))


def compute_compatibility(suite: MeasurementSuite) -> MeasurementSuite:
    """The suite, its commuting pairs tested here; kept only for ``perfbench``'s calls (ROADMAP item 0)."""
    suite.commuting_pairs  # noqa: B018  (tests the pairs where the benchmark's tracer times them)
    return suite


@dataclass(frozen=True)
class SetupDistribution:
    """Classical switch weights over compatible contexts."""

    weights: Mapping  # frozenset of indices -> Fraction

    @property
    def support(self) -> tuple:
        return tuple(sorted((j for j, w in self.weights.items() if w > 0), key=sorted))


def validate_distribution(weights: Mapping, suite: MeasurementSuite) -> SetupDistribution:
    """Check that the weights form a distribution supported on sets of the suite's commuting measurements."""
    cleaned = {}
    for key, w in weights.items():
        j = frozenset(key)
        if not isinstance(w, Fraction):
            w = exact_number(w, f"weight on context {sorted(j)}")
        if w < 0:
            raise InvalidDistribution(f"negative weight {w} on context {sorted(j)}")
        if j in cleaned:
            raise InvalidDistribution(f"duplicate context {sorted(j)}")
        if not j or not j <= frozenset(range(1, suite.n + 1)):
            raise InvalidDistribution(f"context {sorted(j)} is not a non-empty subset of 1..{suite.n}")
        if w > 0 and not all(_pair(*pair) in suite.commuting_pairs for pair in combinations(j, 2)):
            raise IncompatibleSupport(
                f"context {sorted(j)} carries weight {w} but its measurements do not commute"
            )
        cleaned[j] = w
    if sum(cleaned.values(), Fraction(0)) != 1:
        raise InvalidDistribution("context weights must sum to one")
    return SetupDistribution(cleaned)


def switch_probability(dist: SetupDistribution, index_set: Iterable[int]) -> Fraction:
    """Probability that every switch in the set is on: total weight of covering contexts."""
    wanted = frozenset(index_set)
    return sum((w for j, w in dist.weights.items() if wanted <= j and w > 0), Fraction(0))


def context_space(context: Iterable[int], suite: MeasurementSuite) -> KolmogorovSpace:
    """Outcome space of one context: atoms are the 2^|J| joint outcomes.

    Atom masses come from the suite's exact moments by inclusion-exclusion:
    the atom whose hits are S (misses the rest of J) has mass
    sum_{S <= T <= J} (-1)^|T - S| m_T. The atoms sum to m_empty = 1 exactly,
    and every marginal is exactly the moment of its hits, so contexts agree
    wherever they overlap. A negative atom means the rationalized moments
    admit no distribution; it is reported as a numerical failure, never
    clamped. Atom masses may have denominators above the suite policy's bound.
    The inversion runs on the moments' integer numerators over their common
    denominator, and each atom becomes one fraction at the end.
    """
    members = sorted(frozenset(context))
    if not members:
        raise IncompatibleContext("a context needs at least one measurement")
    names = [suite.name_of(i) for i in members]
    for (i, a), (j, b) in combinations(zip(members, names), 2):
        if frozenset({i, j}) not in suite.commuting_pairs:
            raise IncompatibleContext(f"measurements {a!r} and {b!r} do not commute")

    k = len(members)
    # atoms[sub] starts as the moment of the members whose bits are set in sub, over a common denominator ...
    masks = [0]
    for i in members:
        masks += [mask | 1 << (i - 1) for mask in masks]
    den, atoms = scaled([suite._mask_moment(mask) for mask in masks])
    # ... and Moebius inversion over supersets turns it into the atom with exactly those hits.
    for pos in range(k):
        bit = 1 << pos
        for sub in range(1 << k):
            if not sub & bit:
                atoms[sub] -= atoms[sub | bit]
    if min(atoms) < 0:
        raise NumericalFailure(
            f"context {names} has a negative atom {Fraction(min(atoms), den)}: "
            "its rationalized moments admit no distribution"
        )

    ids, order, hits = _outcome_points(k)
    mass = {pid: Fraction(atoms[sub], den) for pid, sub in zip(ids, order)}
    return KolmogorovSpace(ids, mass, dict(zip(names, hits)))


@cache
def _outcome_points(k: int) -> tuple:
    """Point ids of a k-member context, each point's atom mask, and each member's hit points.

    An id has one character per member in order, "1" for a hit; the points
    run from all hits down to all misses.
    """
    point_bits = tuple(product((1, 0), repeat=k))
    ids = tuple("".join(map(str, bits)) for bits in point_bits)
    order = tuple(sum(b << pos for pos, b in enumerate(bits)) for bits in point_bits)
    hits = tuple(frozenset(pid for pid, bits in zip(ids, point_bits) if bits[pos]) for pos in range(k))
    return ids, order, hits


def effective_probability(
    suite: MeasurementSuite, dist: SetupDistribution, outcomes: Iterable[int], switches: Iterable[int]
) -> Fraction:
    """Observed probability of outcomes I1 together with switch events I2.

    The switch part must cover both sets: seeing an outcome presupposes that
    its measurement ran. Incompatible requirements give zero: no supported
    context can host them, so no weight covers them.
    """
    i1 = frozenset(outcomes)
    union = i1 | frozenset(switches)
    suite._mask_of(union)  # indices outside 1..n raise, as in proj
    prior = switch_probability(dist, union)
    if prior == 0 or not i1:
        return prior
    return prior * suite.moment(i1)


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


def build_censored_space(suite: MeasurementSuite, dist: SetupDistribution) -> CensoredSpace:
    """Glue the supported contexts into one finite probability space.

    Only contexts with positive weight contribute points; zero-weight
    contexts would add null atoms without changing any probability. A point
    id is its context's member names joined by ',', then '|' and the context
    point; two contexts whose joined names coincide are rejected.
    """
    points = []
    mass = {}
    outcome_sets = {name: set() for name in suite.names}
    switch_sets = {name: set() for name in suite.names}
    labelled = {}  # point label -> the names of the context that took it

    for context in dist.support:
        names = [suite.name_of(i) for i in sorted(context)]
        label = ",".join(names)
        if labelled.setdefault(label, names) is not names:
            raise KolmorepError(f"contexts {labelled[label]} and {names} share the point label {label!r}")
        local = context_space(context, suite)
        kappa = dist.weights[context]
        full_ids = {pid: f"{label}|{pid}" for pid in local.points}
        points += full_ids.values()
        mass.update((full_id, kappa * local.mass[pid]) for pid, full_id in full_ids.items())
        for name in names:
            switch_sets[name].update(full_ids.values())
            outcome_sets[name].update(map(full_ids.__getitem__, local.events[name]))

    outcome_keys = {name: name for name in suite.names}
    switch_keys = {name: f"{SWITCH_EVENT_PREFIX}{name}" for name in suite.names}
    events = {outcome_keys[x]: frozenset(outcome_sets[x]) for x in suite.names}
    events.update((switch_keys[x], frozenset(switch_sets[x])) for x in suite.names)
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


def _members(mask: int) -> tuple:
    """Sorted 1-based indices of the bits set in a mask."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _superset_sums(a: np.ndarray, bits: Iterable[int]) -> np.ndarray:
    """In place: a[S] becomes the sum of a[T] over every T that contains S and differs only in these bits."""
    for b in bits:
        half = a.reshape(-1, 2, 1 << b)
        half[:, 0] += half[:, 1]
    return a


def _point_weights(censored: CensoredSpace, suite: MeasurementSuite) -> tuple:
    """Common denominator and the scaled masses per 2n-bit event mask, read off the events only."""
    space = censored.space
    keys = [censored.outcome_events[x] for x in suite.names] + [censored.switch_events[x] for x in suite.names]
    masks = dict.fromkeys(space.points, 0)
    for bit, key in enumerate(keys):
        if key not in space.events:
            raise UnknownEvent(f"no event named {key!r}")
        for pid in space.events[key]:
            masks[pid] |= 1 << bit
    den, masses = scaled([space.mass[pid] for pid in space.points])
    weights = dict.fromkeys(masks.values(), 0)
    for mask, w in zip(masks.values(), masses):
        weights[mask] += w
    return den, weights


def effective_decomposition(censored: CensoredSpace, suite: MeasurementSuite) -> Inside:
    """The censored space as weights on 2n-bit assignments, outcomes first like ``EffectiveVector``.

    Point (J, eps) sets outcome bit i when i is in J and eps_i = 1, switch bit i
    when i is in J. When the space verifies, this is an Inside witness for any
    scheme over the 2n events, found without a linear program.
    """
    den, weights = _point_weights(censored, suite)
    return Inside({_bits(mask, 2 * suite.n): Fraction(w, den) for mask, w in sorted(weights.items()) if w})


def verify_censorship(
    censored: CensoredSpace, suite: MeasurementSuite, dist: SetupDistribution, max_order: Optional[int] = None
) -> VerificationReport:
    """Compare every joint event measure against its effective probability.

    Runs over all pairs (I1, I2) of outcome and switch index sets with
    |I1 union I2| <= max_order (at least 1; default 2n, every pair).
    Mismatches are collected, not raised, ordered by I1 and then I2, each by
    size and then lexicographically.

    The decision is made on switch rows: one exact integer row over the 2^n
    outcome masks o per switch mask sigma that a point or a support context
    has. Found: local[sigma][o], the superset sums over the outcome bits of
    ``effective_decomposition``'s weights with switch mask sigma. Expected:
    kappa_sigma * m[o] when sigma is a support context containing o, else 0,
    with m the suite's moments. Summing rows over the switch masks that
    contain I2 gives both sides of every pair,

        found[I2, I1] = sum_{sigma >= I2} local[sigma][I1],
        sw[I1 | I2] * m[I1] = sum_{sigma >= I2} expected[sigma][I1],

    and that sum is invertible (Moebius), so rows that agree by
    cross-multiplication in every column with |o| <= max_order verify every
    checked pair. A mismatch lies in a column where some row disagrees; both
    sides of each such column are summed over the switch bits and compared
    pair by pair. Switch rows and disagreeing columns, times 2^n, may each be
    at most ``MAX_COMPARED``; more raise ``TooLarge`` before that pass allocates.
    """
    n = suite.n
    max_order = 2 * n if max_order is None else max_order
    if max_order < 1:
        raise KolmorepError(f"max_order must be at least 1, got {max_order}")
    size = 1 << n

    den, point_weights = _point_weights(censored, suite)
    kden, kappas = scaled([dist.weights[j] for j in dist.support])
    contexts = [_mask(j) for j in dist.support]
    # One row per switch mask: the support contexts first, then the points' other masks.
    switches = list(dict.fromkeys(contexts + [mask >> n for mask in point_weights]))
    if len(switches) << n > MAX_COMPARED:
        raise TooLarge(f"{len(switches)} switch rows of 2^{n} entries exceed {MAX_COMPARED} per pass")
    row = {sigma: r for r, sigma in enumerate(switches)}
    outcomes = np.arange(size)
    inside = (outcomes & np.array(switches)[:, None]) == outcomes
    # The moments that effective probabilities up to max_order ask for.
    needed = inside[:len(contexts)].any(axis=0)
    if max_order < n:  # only then can an outcome set be too large
        popcount = np.zeros_like(outcomes)  # bit counts, doubled one bit at a time
        for b in range(n):
            popcount[1 << b:2 << b] = popcount[:1 << b] + 1
        needed &= popcount <= max_order
    needed = np.flatnonzero(needed).tolist()
    mden, moments = scaled([suite._mask_moment(u) for u in needed])

    # Found entries are at most den, sw entries at most the weight total, and
    # the empty moment is needed, so max(moments) >= mden bounds both sides.
    peak = den * max(kden, sum(kappas)) * max(moments, default=1)
    dtype = np.int64 if peak <= _INT64_MAX else object
    local, kappa, m = (np.zeros(k, dtype=dtype) for k in (len(switches) * size, len(switches), size))
    local[[row[mask >> n] * size + (mask & (size - 1)) for mask in point_weights]] = list(point_weights.values())
    local = _superset_sums(local, range(n)).reshape(-1, size)
    kappa[:len(contexts)] = kappas
    m[needed] = moments

    scale = kden * mden
    bad = local * scale != kappa[:, None] * m * inside * den
    if max_order < n:
        bad &= popcount <= max_order
    checked = sum(comb(n, k) * 3**k for k in range(min(max_order, n) + 1))

    if not bad.any():  # the space verifies: nothing to list
        return VerificationReport(checked, max_order, ())

    columns = np.flatnonzero(bad.any(axis=0))
    if len(columns) << n > MAX_COMPARED:
        raise TooLarge(f"{len(columns)} disagreeing columns of 2^{n} entries exceed {MAX_COMPARED} per pass")
    # Both sides of each disagreeing column o over one denominator, summed over the switch masks containing I2.
    found, effective = (np.zeros((len(columns), size), dtype=dtype) for _ in range(2))
    found[:, switches] = local[:, columns].T * scale
    effective[:, switches] = (kappa[:, None] * m[columns] * inside[:, columns]).T * den
    bad = _superset_sums(found, range(n)) != _superset_sums(effective, range(n))
    if max_order < n:
        bad &= popcount[columns[:, None] | outcomes] <= max_order
    c, s = np.nonzero(bad)
    hits = zip(columns[c].tolist(), s.tolist(), effective[c, s].tolist(), found[c, s].tolist())
    mismatches = sorted(
        (VerificationMismatch(_members(o), _members(i2), Fraction(e, den * scale), Fraction(f, den * scale))
         for o, i2, e, f in hits),
        key=lambda v: (len(v.outcomes), v.outcomes, len(v.switches), v.switches))
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
    suite: MeasurementSuite, dist: SetupDistribution, scheme: ConjunctionScheme
) -> EffectiveVector:
    """Fill a scheme over the 2n outcome/switch events with effective probabilities.

    Each entry is ``effective_probability`` of its outcome and switch sets.
    """
    n = suite.n
    if scheme.n != 2 * n:
        raise SchemeMismatch(f"scheme must range over {2 * n} events (outcomes then switches)")
    values = {
        s: effective_probability(suite, dist, (i for i in s if i <= n), (i - n for i in s if i > n))
        for s in scheme.sets
    }
    return EffectiveVector(CorrelationVector(scheme, values), suite.names)
