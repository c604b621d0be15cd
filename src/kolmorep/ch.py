"""The explicit inequality system cutting out the (4, cross-pairs) polytope.

For four events where only the cross pairs {1,3}, {1,4}, {2,3}, {2,4} carry
joint values, membership in the classical polytope is equivalent to the
Clauser-Horne system: the trivial range and monotonicity bounds per measured
pair, and four Bell-type bounds between -1 and 0. All four Bell lines are
evaluated even though they are index permutations of one another.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import SchemeMismatch
from .polytope import ConjunctionScheme, CorrelationVector

CROSS_PAIRS = ((1, 3), (1, 4), (2, 3), (2, 4))

BELL_EXPRESSIONS = (
    ("p13 + p14 + p24 - p23 - p1 - p4", ((1, 3), (1, 4), (2, 4)), (2, 3), (1, 4)),
    ("p23 + p24 + p14 - p13 - p2 - p4", ((2, 3), (2, 4), (1, 4)), (1, 3), (2, 4)),
    ("p14 + p13 + p23 - p24 - p1 - p3", ((1, 4), (1, 3), (2, 3)), (2, 4), (1, 3)),
    ("p24 + p23 + p13 - p14 - p2 - p3", ((2, 4), (2, 3), (1, 3)), (1, 4), (2, 3)),
)


def ch_scheme() -> ConjunctionScheme:
    """The fixed scheme: four singletons plus the four cross pairs."""
    return ConjunctionScheme.make(4, [{1}, {2}, {3}, {4}] + [set(p) for p in CROSS_PAIRS])


@dataclass(frozen=True)
class ChInequality:
    """One bound, as "lower <= value <= upper" with either side optional.

    ``slack`` is a single scalar: distance to the nearer bound when satisfied,
    minus the larger violation magnitude when not.
    """

    label: str
    value: Fraction
    lower: Optional[Fraction]
    upper: Optional[Fraction]
    satisfied: bool
    slack: Fraction


@dataclass(frozen=True)
class ChReport:
    inequalities: tuple
    satisfied: bool

    def bell(self) -> tuple:
        return tuple(r for r in self.inequalities if r.label.startswith("bell"))

    def violated(self) -> tuple:
        return tuple(r for r in self.inequalities if not r.satisfied)


def _record(label: str, value: Fraction, lower, upper) -> ChInequality:
    # Bounds have lower <= upper, so at most one margin is negative: the smaller
    # margin is the slack when satisfied and minus the violation when not.
    margins = [value - lower] if lower is not None else []
    margins += [upper - value] if upper is not None else []
    slack = min(margins)
    return ChInequality(label, value, lower, upper, slack >= 0, slack)


def ch_evaluate(p: CorrelationVector) -> ChReport:
    """Evaluate every inequality of the system with exact slacks."""
    if p.scheme != ch_scheme():
        raise SchemeMismatch(
            "expected the 4-event scheme with singletons and cross pairs {1,3},{1,4},{2,3},{2,4}"
        )
    single = {i: p[{i}] for i in range(1, 5)}
    pair = {ij: p[set(ij)] for ij in CROSS_PAIRS}

    records = {}  # label -> record; a repeated label keeps its first record

    def add(label: str, value: Fraction, lower, upper) -> None:
        if label not in records:
            records[label] = _record(label, value, lower, upper)

    zero, one = Fraction(0), Fraction(1)
    for i, j in CROSS_PAIRS:
        ij = f"p{i}{j}"
        add(f"{ij} >= 0", pair[(i, j)], zero, None)
        add(f"{ij} <= p{i}", single[i] - pair[(i, j)], zero, None)
        add(f"{ij} <= p{j}", single[j] - pair[(i, j)], zero, None)
        add(f"p{i} <= 1", single[i], None, one)
        add(f"p{j} <= 1", single[j], None, one)
        add(f"p{i} + p{j} - {ij} <= 1", single[i] + single[j] - pair[(i, j)], None, one)

    for k, (expr, plus, minus_pair, minus_singles) in enumerate(BELL_EXPRESSIONS, start=1):
        value = sum((pair[ij] for ij in plus), Fraction(0))
        value -= pair[minus_pair]
        value -= single[minus_singles[0]] + single[minus_singles[1]]
        add(f"bell{k}: -1 <= {expr} <= 0", value, -one, zero)

    return ChReport(tuple(records.values()), all(r.satisfied for r in records.values()))
