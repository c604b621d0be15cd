"""Switch-filtered measurement statistics and their classical representation.

A measurement suite is a density operator plus named two-outcome projectors.
Incompatible (non-commuting) measurements cannot run together, so an
experiment is described by a classical distribution over *contexts*: sets of
pairwise-commuting measurements that the switches select. The observed
("effective") probability of seeing outcomes I1 while switches I2 are on is
then

    (total weight of contexts covering I1 and I2) x tr(W prod_{i in I1} A_i),

zero whenever the required measurements cannot coexist. This module inverts
each context's moments into integer atoms and glues them once (``_glued``),
each times its context's weight, into one probability space on the disjoint
union of the contexts' outcomes, and verifies from the space's events alone
that it reproduces every effective probability. The only floats are the
moments tr(W prod_{i in I} A_i); each is identified with an
exact fraction once per suite (``MeasurementSuite.moment``), under the policy
fixed when the suite is built, and every mass and probability is derived from
those fractions exactly, so verification is exact and the context marginals
agree by construction.

Verification decides on one exact integer row per switch mask, not on the
4^n table of joint measures: ``lattice.superset_sums`` turns point masses into
rows and rows into joint measures (see ``verify_censorship``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations
from math import comb, lcm
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
from . import lattice
from .lattice import INT64_MAX, Decomposition
from .polytope import ConjunctionScheme, CorrelationVector, Inside, KolmogorovSpace
from .quantum import Operator, born, commutes
from .rational import DEFAULT_POLICY, RationalizationPolicy, exact_number, rationalize, scaled

SWITCH_EVENT_PREFIX = "performed:"
MAX_COMPARED = 1 << 22  # integers compared in one verification pass: 32 MB of int64
# Every zero switch probability is this one object: effective vectors hold many zeros.
_ZERO = Fraction(0)


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
        """The 0-based position of 1-based index `i`, checked to be an integer in 1..n."""
        i = _index(i)
        if not 1 <= i <= self.n:
            raise KolmorepError(f"no measurement with index {i}: the suite has {self.n}, indexed 1..{self.n}")
        return i - 1

    def proj(self, i: int) -> Operator:
        return self.projectors[self._position(i)]

    def name_of(self, i: int) -> str:
        return self.names[self._position(i)]

    def _mask_of(self, index_set: Iterable[int]) -> int:
        """Bitmask of 1-based measurement indices, each checked like ``proj`` checks it."""
        return lattice.mask(self._position(i) + 1 for i in index_set)

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
                t = born(self.density, [self.proj(i) for i in lattice.members(mask)])
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


def _is_index(i) -> bool:
    """Whether `i` reads as an integer index: it has ``__index__`` and is not a bool."""
    return hasattr(i, "__index__") and not isinstance(i, (bool, np.bool_))


def _index(i, what: str = "measurement index") -> int:
    """A measurement index (or order) as an int; a bool or a non-integer raises ``KolmorepError`` naming it."""
    if not _is_index(i):
        raise KolmorepError(f"{what} {i!r} is not an integer")
    return operator.index(i)


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
    """Classical switch weights: non-negative Fractions summing to one on non-empty frozensets of indices.

    Whether the contexts fit a suite is ``validate_distribution``'s check;
    ``effective_probability`` and ``verify_censorship`` still refuse supports outside the suite.
    """

    weights: Mapping  # frozenset of indices -> Fraction

    def __post_init__(self) -> None:
        for j, w in self.weights.items():
            if not (isinstance(j, frozenset) and j and all(map(_is_index, j))):
                raise InvalidDistribution(f"context {j!r} is not a set of integer measurement indices")
            if not isinstance(w, Fraction):
                raise InvalidDistribution(
                    f"weight {w!r} on context {sorted(j)} is not a Fraction; build weights with validate_distribution"
                )
            if w < 0:
                raise InvalidDistribution(f"negative weight {w} on context {sorted(j)}")
        if sum(self.weights.values(), _ZERO) != 1:
            raise InvalidDistribution("context weights must sum to one")

    @cached_property
    def support(self) -> tuple:
        """The positive-weight contexts, sorted by their sorted indices, found once per distribution."""
        return tuple(sorted((j for j, w in self.weights.items() if w > 0), key=sorted))

    @cached_property
    def index_range(self) -> tuple:
        """The least and the greatest index that a supported context names, found once per distribution."""
        indices = frozenset().union(*self.support)
        return min(indices, default=1), max(indices, default=1)


def validate_distribution(weights: Mapping, suite: MeasurementSuite) -> SetupDistribution:
    """Check that the weights form a distribution supported on sets of the suite's commuting measurements."""
    cleaned = {}
    for key, w in weights.items():
        try:
            j = frozenset(map(_index, key))
        except (TypeError, KolmorepError):
            raise InvalidDistribution(f"context {key!r} is not a set of integer measurement indices") from None
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
    return SetupDistribution(cleaned)  # which checks that the weights sum to one


def switch_probability(dist: SetupDistribution, index_set: Iterable[int]) -> Fraction:
    """Probability that every switch in the set is on: total weight of covering contexts."""
    wanted = frozenset(index_set)
    return sum((w for j, w in dist.weights.items() if wanted <= j and w > 0), _ZERO)


def _context_atoms(context: Iterable[int], suite: MeasurementSuite) -> tuple:
    """Names, common denominator, hit masks and integer atoms of one context, from all hits down to all misses.

    The atom whose hits are S (misses the rest of J) is sum_{S <= T <= J} (-1)^|T - S| m_T, inverted on the
    moments' numerators; its hit mask is S as a suite bitmask. A negative atom means the moments admit no
    distribution: a numerical failure, never clamped.
    """
    members = sorted(frozenset(map(_index, context)))
    if not members:
        raise IncompatibleContext("a context needs at least one measurement")
    names = [suite.name_of(i) for i in members]
    for (i, a), (j, b) in combinations(zip(members, names), 2):
        if frozenset({i, j}) not in suite.commuting_pairs:
            raise IncompatibleContext(f"measurements {a!r} and {b!r} do not commute")

    # atoms[sub] starts as the moment of the members whose bits are set in sub, over a common denominator;
    # the first member takes the highest bit, so sub written in binary is its point's id ...
    masks = [0]
    for i in reversed(members):
        masks += [mask | 1 << (i - 1) for mask in masks]
    den, numerators = scaled([suite._mask_moment(mask) for mask in masks])
    # ... and Moebius inversion over supersets turns it into the atom with exactly those hits.
    atoms = lattice.invert_superset_sums(np.array(numerators, dtype=object)).tolist()
    if min(atoms) < 0:
        raise NumericalFailure(
            f"context {names} has a negative atom {Fraction(min(atoms), den)}: "
            "its rationalized moments admit no distribution"
        )
    return names, den, masks[::-1], atoms[::-1]


def context_space(context: Iterable[int], suite: MeasurementSuite) -> KolmogorovSpace:
    """Outcome space of one context: its 2^|J| joint outcomes, each massed by its ``_context_atoms`` atom.

    The masses sum to m_empty = 1 exactly and every marginal is exactly the moment of its hits, so contexts
    agree wherever they overlap. Masses may have denominators above the suite policy's bound.
    """
    names, den, _, atoms = _context_atoms(context, suite)
    ids, hits = _outcome_points(len(names))
    return KolmogorovSpace(ids, {pid: Fraction(atom, den) for pid, atom in zip(ids, atoms)}, dict(zip(names, hits)))


@cache
def _outcome_points(k: int) -> tuple:
    """Point ids of a k-member context and each member's hit points.

    An id has one character per member in order, "1" for a hit: it is its
    atom's mask in binary. The points run from all hits down to all misses.
    """
    ids = tuple(format(sub, f"0{k}b") for sub in reversed(range(1 << k)))
    return ids, tuple(frozenset(pid for pid in ids if pid[pos] == "1") for pos in range(k))


def _check_support(suite: MeasurementSuite, dist: SetupDistribution) -> None:
    """Refuse a distribution whose support names an index outside the suite's 1..n."""
    low, high = dist.index_range
    if low < 1 or high > suite.n:
        bad = high if high > suite.n else low
        raise InvalidDistribution(f"a supported context names measurement {bad}, outside the suite's 1..{suite.n}")


def effective_probability(
    suite: MeasurementSuite, dist: SetupDistribution, outcomes: Iterable[int], switches: Iterable[int]
) -> Fraction:
    """Observed probability of outcomes I1 together with switch events I2.

    The switch part must cover both sets: seeing an outcome presupposes that
    its measurement ran. Incompatible requirements give zero: no supported
    context can host them, so no weight covers them. An index outside 1..n,
    asked for or named by a supported context, raises.
    """
    i1 = frozenset(outcomes)
    union = i1 | frozenset(switches)
    suite._mask_of(union)  # indices outside 1..n raise, as in proj
    _check_support(suite, dist)
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


def _glued(suite: MeasurementSuite, dist: SetupDistribution) -> tuple:
    """The censored space in integers: one denominator, then per support context (names, masks, numerators).

    Contexts follow ``dist.support``; each lists its 2^|J| points from all hits down to all misses, zero atoms
    kept. Point (J, eps) has the 2n-bit mask of switch bits J (shifted up by n) and outcome bits eps, as in
    ``effective_decomposition``, and numerator kappa_J times its ``_context_atoms`` atom over the denominator.
    A support outside the suite raises ``InvalidDistribution``.
    """
    _check_support(suite, dist)
    n = suite.n
    kden, kappas = scaled([dist.weights[j] for j in dist.support])
    contexts = [_context_atoms(j, suite) for j in dist.support]
    common = lcm(*(den for _, den, _, _ in contexts))
    glued = []
    for kappa, (names, den, hits, atoms) in zip(kappas, contexts):
        switch, scale = hits[0] << n, kappa * (common // den)  # the all-hits point's mask is J itself
        glued.append((names, [switch | hit for hit in hits], [scale * atom for atom in atoms]))
    return kden * common, glued


def build_censored_space(suite: MeasurementSuite, dist: SetupDistribution) -> CensoredSpace:
    """Glue the supported contexts into one finite probability space: ``_glued``'s points, rendered.

    Only contexts with positive weight contribute points; zero-weight
    contexts would add null atoms without changing any probability. A point
    id is its context's member names joined by ',', then '|' and the context
    point; two contexts whose joined names coincide are rejected. A point's mass
    is its glued numerator over the glued denominator.
    """
    points = []
    mass = {}
    outcome_sets = {name: set() for name in suite.names}
    switch_sets = {name: set() for name in suite.names}
    labelled = {}  # point label -> the names of the context that took it

    den, glued = _glued(suite, dist)
    for names, _, numerators in glued:
        label = ",".join(names)
        if labelled.setdefault(label, names) is not names:
            raise KolmorepError(f"contexts {labelled[label]} and {names} share the point label {label!r}")
        ids, hits = _outcome_points(len(names))
        full_ids = {pid: f"{label}|{pid}" for pid in ids}
        points += full_ids.values()
        mass.update(zip(full_ids.values(), (Fraction(w, den) for w in numerators)))
        for name, hit in zip(names, hits):
            switch_sets[name].update(full_ids.values())
            outcome_sets[name].update(map(full_ids.__getitem__, hit))

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


def effective_decomposition(censored: CensoredSpace, suite: MeasurementSuite) -> Inside:
    """The censored space as weights on 2n-bit assignments, outcomes first like ``EffectiveVector``.

    A point's mask is read off the events, never its id: outcome bit i when it lies in measurement i's
    outcome event, switch bit i (shifted up by n) when in its switch event, so point (J, eps) of an intact
    space has its ``_glued`` mask. Points on one mask add up; masks of mass zero are left out. When the space
    verifies, this is an Inside witness for any scheme over the 2n events, found without a linear program.
    """
    space = censored.space
    keys = [censored.outcome_events[x] for x in suite.names] + [censored.switch_events[x] for x in suite.names]
    masks = dict.fromkeys(space.points, 0)
    for bit, key in enumerate(keys):
        if key not in space.events:
            raise UnknownEvent(f"no event named {key!r}")
        flag = 1 << bit
        for pid in space.events[key]:
            masks[pid] |= flag
    den, masses = scaled([space.mass[pid] for pid in space.points])
    weights = dict.fromkeys(masks.values(), 0)
    for mask, w in zip(masks.values(), masses):
        weights[mask] += w
    support = {mask: w for mask, w in weights.items() if w}
    return Inside(Decomposition(2 * suite.n, den, tuple(support), tuple(support.values())))


def verify_censorship(
    censored: CensoredSpace, suite: MeasurementSuite, dist: SetupDistribution, max_order: Optional[int] = None
) -> VerificationReport:
    """Compare every joint event measure against its effective probability.

    Runs over all pairs (I1, I2) of outcome and switch index sets with
    |I1 union I2| <= max_order (at least 1; default 2n, every pair).
    Mismatches are collected, not raised, ordered by I1 and then I2, each by
    size and then lexicographically. The space is read only through its events
    (``effective_decomposition``); a support outside the suite raises.

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
    max_order = 2 * n if max_order is None else _index(max_order, "max_order")
    if max_order < 1:
        raise KolmorepError(f"max_order must be at least 1, got {max_order}")
    _check_support(suite, dist)
    size = 1 << n

    found = effective_decomposition(censored, suite).weights
    den = found.denominator
    kden, kappas = scaled([dist.weights[j] for j in dist.support])
    contexts = [lattice.mask(j) for j in dist.support]
    # One row per switch mask: the support contexts first, then the points' other masks.
    switches = list(dict.fromkeys(contexts + [mask >> n for mask in found.masks]))
    if len(switches) << n > MAX_COMPARED:
        raise TooLarge(f"{len(switches)} switch rows of 2^{n} entries exceed {MAX_COMPARED} per pass")
    row = {sigma: r for r, sigma in enumerate(switches)}
    outcomes = np.arange(size, dtype=np.int64)
    inside = (outcomes & np.array(switches)[:, None]) == outcomes
    # The moments that effective probabilities up to max_order ask for.
    needed = inside[:len(contexts)].any(axis=0)
    if max_order < n:  # only then can an outcome set be too large
        popcount = np.zeros_like(outcomes)  # bit counts: subset sums of the singletons
        popcount[1 << np.arange(n)] = 1
        lattice.subset_sums(popcount)
        needed &= popcount <= max_order
    needed = np.flatnonzero(needed).tolist()
    mden, moments = scaled([suite._mask_moment(u) for u in needed])

    # Found entries are at most den, sw entries at most the weight total, and
    # the empty moment is needed, so max(moments) >= mden bounds both sides.
    peak = den * max(kden, sum(kappas)) * max(moments, default=1)
    dtype = np.int64 if peak <= INT64_MAX else object
    local, kappa, m = (np.zeros(k, dtype=dtype) for k in ((len(switches), size), len(switches), size))
    local.flat[[row[mask >> n] * size + (mask & (size - 1)) for mask in found.masks]] = found.numerators
    lattice.superset_sums(local)
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
    bad = lattice.superset_sums(found) != lattice.superset_sums(effective)
    if max_order < n:
        bad &= popcount[columns[:, None] | outcomes] <= max_order
    c, s = np.nonzero(bad)
    hits = zip(columns[c].tolist(), s.tolist(), effective[c, s].tolist(), found[c, s].tolist())
    mismatches = sorted(
        (VerificationMismatch(
            lattice.members(o), lattice.members(i2), Fraction(e, den * scale), Fraction(f, den * scale))
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

    Each entry is ``effective_probability`` of its outcome and switch sets. The
    vector's proposal is the censored space's decomposition: ``_glued``'s points of
    positive mass, which ``membership`` checks before any linear program runs. A support
    context without atoms leaves the vector without one: its measurements do not
    commute (a hand-built distribution) or its moments give a negative atom.
    """
    n = suite.n
    if scheme.n != 2 * n:
        raise SchemeMismatch(f"scheme must range over {2 * n} events (outcomes then switches)")
    values = {
        s: effective_probability(suite, dist, (i for i in s if i <= n), (i - n for i in s if i > n))
        for s in scheme.sets
    }
    try:
        den, glued = _glued(suite, dist)
    except (IncompatibleContext, NumericalFailure):
        proposal = None
    else:
        masks, numerators = zip(*((m, w) for _, ms, ws in glued for m, w in zip(ms, ws) if w))
        proposal = Decomposition(2 * n, den, masks, numerators)
    return EffectiveVector(CorrelationVector(scheme, values, proposal), suite.names)
