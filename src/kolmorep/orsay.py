"""Two-sided spin-singlet switch experiment with two directions per side.

Left detectors measure spin-up along directions a or a', right detectors
along b or b'; all four directions lie in the xz-plane (a global rotation
changes nothing, the singlet is rotation invariant). Two independent
switches pick one direction per side, so exactly the four cross-side
contexts {A,B}, {A,B'}, {A',B}, {A',B'} can occur. The default geometry
separates a, a', b' pairwise by 120 degrees with b parallel to a', and
weights the four contexts uniformly. A config builds its suite and switch
distribution once; the views read outcomes through the spaces' events.

Polarization-style variants, where analyzers respond to angle-doubled Bloch
vectors, are reachable only by doubling the configured angles by hand;
nothing here does that automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isfinite, radians

from .censorship import (
    CensoredSpace,
    EffectiveVector,
    MeasurementSuite,
    SetupDistribution,
    assemble_effective_vector,
    build_censored_space,
    context_space,
    effective_probability,
    validate_distribution,
)
from .ch import CROSS_PAIRS, ch_scheme
from .errors import InvalidDirection, InvalidDistribution, KolmorepError
from .polytope import ConjunctionScheme, CorrelationVector, KolmogorovSpace
from .quantum import born  # noqa: F401  (unused here; perfbench's tracer test reads orsay.born)
from .quantum import direction, identity, singlet_density, spin_projector_up, tensor
from .rational import DEFAULT_POLICY, RationalizationPolicy, parse_rational

MEASUREMENT_NAMES = ("A", "A'", "B", "B'")
SWITCH_NAMES = tuple(name.lower() for name in MEASUREMENT_NAMES)
CONTEXTS = tuple(map(frozenset, CROSS_PAIRS))
DEFAULT_ANGLES_DEG = (120.0, 0.0, 0.0, 240.0)
UNIFORM_WEIGHTS = (Fraction(1, 4),) * 4


@dataclass(frozen=True)
class OrsayConfig:
    """Angles (radians, xz-plane) of a, a', b, b', the four context weights and the moments' policy.

    Weights follow the context order (a,b), (a,b'), (a',b), (a',b'). Every
    view of one config reads its one ``suite``, whose moments are
    rationalized under `policy`, and its one ``distribution``.
    """

    angles: tuple = tuple(radians(x) for x in DEFAULT_ANGLES_DEG)
    weights: tuple = UNIFORM_WEIGHTS
    policy: RationalizationPolicy = DEFAULT_POLICY

    def __post_init__(self) -> None:
        if len(self.angles) != 4:
            raise KolmorepError("need exactly four angles: a, a', b, b'")
        for name, angle in zip(SWITCH_NAMES, self.angles):
            if not isfinite(angle):
                raise InvalidDirection(f"angle {name} must be finite, got {angle}")
        # Only the numbers validate_distribution reads: int, float and Fraction.
        in_unit = (isinstance(w, (int, float, Fraction)) and 0 <= w <= 1 for w in self.weights)
        if len(self.weights) != 4 or not all(in_unit):
            raise InvalidDistribution("need four context weights in [0, 1]")
        if sum(map(Fraction, self.weights)) != 1:  # at their exact values, as validate_distribution reads them
            raise InvalidDistribution("context weights must sum to one")

    @staticmethod
    def from_degrees(angles_deg, weights=None, policy: RationalizationPolicy = DEFAULT_POLICY) -> "OrsayConfig":
        """A config from angles in degrees; each weight is read like a JSON value, floats under `policy`."""
        angles = tuple(radians(float(x)) for x in angles_deg)
        weights = UNIFORM_WEIGHTS if weights is None else tuple(parse_rational(w, policy) for w in weights)
        return OrsayConfig(angles, weights, policy)

    @cached_property
    def suite(self) -> MeasurementSuite:
        """The config's suite, built once and shared by every view."""
        return build_suite(self)

    @cached_property
    def distribution(self) -> SetupDistribution:
        """The weights on ``CONTEXTS``, validated against the suite once and shared by every view."""
        return validate_distribution(dict(zip(CONTEXTS, self.weights)), self.suite)


def build_suite(cfg: OrsayConfig) -> MeasurementSuite:
    """``MEASUREMENT_NAMES`` in the singlet, A and A' on the left spin; moments rationalized under `cfg.policy`."""
    eye = identity(2)
    ups = [spin_projector_up(direction(t)) for t in cfg.angles]
    projectors = [tensor(p, eye) for p in ups[:2]] + [tensor(eye, p) for p in ups[2:]]
    return MeasurementSuite(singlet_density(), MEASUREMENT_NAMES, tuple(projectors), cfg.policy)


def naked_vector(cfg: OrsayConfig) -> CorrelationVector:
    """Conditional (trace-rule) vector on the cross-pair scheme.

    Singles are tr(W X), pairs tr(W X Y) for the four measured cross pairs;
    by the singlet algebra each pair value equals sin^2(theta/2)/2 for the
    angle between its two directions.
    """
    scheme = ch_scheme()
    return CorrelationVector(scheme, {s: cfg.suite.moment(s) for s in scheme.sets})


def effective_pair_vector(cfg: OrsayConfig) -> CorrelationVector:
    """Observed counterpart of the naked vector on the same cross-pair scheme."""
    suite, dist, scheme = cfg.suite, cfg.distribution, ch_scheme()
    return CorrelationVector(scheme, {s: effective_probability(suite, dist, s, ()) for s in scheme.sets})


def _pair_scheme() -> ConjunctionScheme:
    """Singletons and all pairs over the outcome events, then the switch events, of ``MEASUREMENT_NAMES``."""
    events = range(1, 2 * len(MEASUREMENT_NAMES) + 1)
    return ConjunctionScheme.make(len(events), ({i, j} for i in events for j in events if i <= j))


def effective_vector(cfg: OrsayConfig) -> EffectiveVector:
    """Effective probabilities of the singletons and pairs of the eight events A, A', B, B', a, a', b, b'.

    Indices 1..4 are the detector outcomes in that order, 5..8 the matching
    switch selections.
    """
    return assemble_effective_vector(cfg.suite, cfg.distribution, _pair_scheme())


@dataclass(frozen=True)
class ContextTable:
    """2x2 outcome table of one context; cells keyed (row, col) with '!' for 'not'."""

    label: str
    cells: dict


@dataclass(frozen=True)
class OrsayTables:
    context_tables: tuple
    censored_cells: dict
    censored: CensoredSpace


def _grid(space: KolmogorovSpace, rows: list, cols: list) -> dict:
    """Mass where each row outcome meets each column outcome, keyed (row, col) in row-major order.

    A side lists (name, hit, ran) per measurement: outcome `name` is the event `hit`, '!name' the rest of `ran`.
    """
    rows, cols = ([o for x, hit, ran in side for o in ((x, hit), (f"!{x}", ran - hit))] for side in (rows, cols))
    return {(r, c): sum((space.mass[p] for p in rp & cp), Fraction(0)) for r, rp in rows for c, cp in cols}


def tables(cfg: OrsayConfig) -> OrsayTables:
    """Per-context 2x2 outcome tables, labelled by their switches, plus the 16-cell censored-space table.

    The big table crosses the left outcomes (A, !A, A', !A') with the right
    ones (B, !B, B', !B'), each inside its switch event, so a cell holds the
    matching point of one context, or 0 if that context has no weight.
    """
    suite = cfg.suite
    context_tables = []
    for context in CONTEXTS:
        local = context_space(context, suite)
        left, right = ([(name, hits, frozenset(local.points))] for name, hits in local.events.items())
        label = " & ".join(SWITCH_NAMES[i - 1] for i in sorted(context))
        context_tables.append(ContextTable(label, _grid(local, left, right)))

    censored = build_censored_space(suite, cfg.distribution)
    events = censored.space.events
    left, right = (
        [(x, events[censored.outcome_events[x]], events[censored.switch_events[x]]) for x in names]
        for names in (suite.names[:2], suite.names[2:])
    )
    return OrsayTables(tuple(context_tables), _grid(censored.space, left, right), censored)
