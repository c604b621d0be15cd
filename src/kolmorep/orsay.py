"""Two-sided spin-singlet switch experiment with two directions per side.

Left detectors measure spin-up along directions a or a', right detectors
along b or b'; all four directions lie in the xz-plane (a global rotation
changes nothing, the singlet is rotation invariant). Two independent
switches pick one direction per side, so exactly the four cross-side
contexts {A,B}, {A,B'}, {A',B}, {A',B'} can occur. The default geometry
separates a, a', b' pairwise by 120 degrees with b parallel to a', and
weights the four contexts uniformly.

Polarization-style variants, where analyzers respond to angle-doubled Bloch
vectors, are reachable only by doubling the configured angles by hand;
nothing here does that automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import radians
from typing import Optional

from .censorship import (
    CensoredSpace,
    EffectiveVector,
    MeasurementSuite,
    SetupDistribution,
    assemble_effective_vector,
    build_censored_space,
    compute_compatibility,
    context_space,
    effective_probability,
    validate_distribution,
)
from .ch import ch_scheme
from .errors import InvalidDistribution, KolmorepError
from .polytope import ConjunctionScheme, CorrelationVector
from .quantum import born  # noqa: F401  (unused here; perfbench's tracer test reads orsay.born)
from .quantum import direction, identity, singlet_density, spin_projector_up, tensor
from .rational import DEFAULT_POLICY, RationalizationPolicy

MEASUREMENT_NAMES = ("A", "A'", "B", "B'")
SWITCH_NAMES = ("a", "a'", "b", "b'")
CONTEXTS = (frozenset({1, 3}), frozenset({1, 4}), frozenset({2, 3}), frozenset({2, 4}))
DEFAULT_ANGLES_DEG = (120.0, 0.0, 0.0, 240.0)


def _quarter() -> tuple:
    return (Fraction(1, 4),) * 4


@dataclass(frozen=True)
class OrsayConfig:
    """Angles (radians, xz-plane) of a, a', b, b' and the four context weights.

    Weights follow the context order (a,b), (a,b'), (a',b), (a',b').
    """

    angles: tuple = tuple(radians(x) for x in DEFAULT_ANGLES_DEG)
    weights: tuple = field(default_factory=_quarter)

    def __post_init__(self) -> None:
        if len(self.angles) != 4:
            raise KolmorepError("need exactly four angles: a, a', b, b'")
        if len(self.weights) != 4 or any(w < 0 for w in self.weights):
            raise InvalidDistribution("need four non-negative context weights")
        if sum(self.weights, Fraction(0)) != 1:
            raise InvalidDistribution("context weights must sum to one")

    @staticmethod
    def from_degrees(angles_deg, weights=None) -> "OrsayConfig":
        angles = tuple(radians(float(x)) for x in angles_deg)
        if weights is None:
            return OrsayConfig(angles)
        return OrsayConfig(angles, tuple(Fraction(w) for w in weights))


def build_suite(cfg: OrsayConfig, policy: RationalizationPolicy = DEFAULT_POLICY) -> MeasurementSuite:
    """Four projectors on the two-spin space, singlet state shared; moments rationalized under `policy`."""
    eye = identity(2)
    a, a2, b, b2 = (spin_projector_up(direction(t)) for t in cfg.angles)
    measurements = [
        ("A", tensor(a, eye)),
        ("A'", tensor(a2, eye)),
        ("B", tensor(eye, b)),
        ("B'", tensor(eye, b2)),
    ]
    return MeasurementSuite.make(singlet_density(), measurements, policy)


def switch_distribution(cfg: OrsayConfig, suite: MeasurementSuite) -> SetupDistribution:
    structure = compute_compatibility(suite)
    return validate_distribution(dict(zip(CONTEXTS, cfg.weights)), structure)


def naked_vector(
    cfg: OrsayConfig, policy: RationalizationPolicy = DEFAULT_POLICY
) -> CorrelationVector:
    """Conditional (trace-rule) vector on the cross-pair scheme.

    Singles are tr(W X), pairs tr(W X Y) for the four measured cross pairs;
    by the singlet algebra each pair value equals sin^2(theta/2)/2 for the
    angle between its two directions.
    """
    suite = build_suite(cfg, policy)
    scheme = ch_scheme()
    return CorrelationVector(scheme, {s: suite.moment(s) for s in scheme.sets})


def effective_pair_vector(
    cfg: OrsayConfig, policy: RationalizationPolicy = DEFAULT_POLICY
) -> CorrelationVector:
    """Observed counterpart of the naked vector on the same cross-pair scheme."""
    suite = build_suite(cfg, policy)
    dist = switch_distribution(cfg, suite)
    scheme = ch_scheme()
    return CorrelationVector(scheme, {s: effective_probability(suite, dist, s, ()) for s in scheme.sets})


def _pair_scheme() -> ConjunctionScheme:
    """Singletons and all pairs over the eight outcome/switch events."""
    sets = [{i} for i in range(1, 9)]
    sets += [{i, j} for i in range(1, 9) for j in range(i + 1, 9)]
    return ConjunctionScheme.make(8, sets)


def effective_vector(
    cfg: OrsayConfig,
    scheme: Optional[ConjunctionScheme] = None,
    policy: RationalizationPolicy = DEFAULT_POLICY,
) -> EffectiveVector:
    """Effective probabilities over the eight events A, A', B, B', a, a', b, b'.

    Indices 1..4 are the detector outcomes in that order, 5..8 the matching
    switch selections. The default scheme holds all singletons and pairs.
    """
    suite = build_suite(cfg, policy)
    dist = switch_distribution(cfg, suite)
    return assemble_effective_vector(suite, dist, scheme or _pair_scheme())


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


def tables(cfg: OrsayConfig, policy: RationalizationPolicy = DEFAULT_POLICY) -> OrsayTables:
    """Per-context 2x2 outcome tables plus the 16-cell censored-space table.

    The big table arranges the disjoint-union atoms on a grid: rows by the
    left-side outcome (A, !A, A', !A'), columns by the right-side outcome
    (B, !B, B', !B'); each cell is the mass of the atom of the matching
    context with the matching outcome bits, or 0 if that context has no weight.
    """
    suite = build_suite(cfg, policy)
    dist = switch_distribution(cfg, suite)

    context_tables = []
    for context, (ln, rn) in zip(CONTEXTS, (("A", "B"), ("A", "B'"), ("A'", "B"), ("A'", "B'"))):
        local = context_space(context, suite)
        cells = {
            (ln if pid[0] == "1" else f"!{ln}", rn if pid[1] == "1" else f"!{rn}"): local.mass[pid]
            for pid in ("11", "10", "01", "00")
        }
        label = f"{SWITCH_NAMES[suite.index(ln) - 1]} & {SWITCH_NAMES[suite.index(rn) - 1]}"
        context_tables.append(ContextTable(label, cells))

    censored = build_censored_space(suite, dist)
    cells = {}
    for row in ("A", "!A", "A'", "!A'"):
        left = row.lstrip("!")
        for col in ("B", "!B", "B'", "!B'"):
            right = col.lstrip("!")
            # A zero-weight context contributes no points.
            pid = f"{left},{right}|{int(row == left)}{int(col == right)}"
            cells[(row, col)] = censored.space.mass.get(pid, Fraction(0))
    return OrsayTables(tuple(context_tables), cells, censored)
