"""The explicit inequality system cutting out the (4, cross-pairs) polytope.

For four events where only the cross pairs {1,3}, {1,4}, {2,3}, {2,4} carry
joint values, membership in the classical polytope is equivalent to the
Clauser-Horne system: the trivial range and monotonicity bounds per measured
pair, and four Bell-type bounds between -1 and 0. The system is one table of
rows, each with integer coefficients on the scheme's sets. The per-pair rows
are ``PAIR_ROWS``, which membership checks as rows of ``polytope.ROW_FAMILIES``;
the four Bell rows are the images of one Bell line under the side swaps, all
evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Optional

from .errors import SchemeMismatch
from .polytope import ConjunctionScheme, CorrelationVector
from .rational import scaled

CROSS_PAIRS = ((1, 3), (1, 4), (2, 3), (2, 4))
_SETS = tuple((i,) for i in range(1, 5)) + CROSS_PAIRS  # the order of every row's coefficients

# The rows of a pair {i, j} on (p_i, p_j, p_ij): a label template, coefficients, and a lower and an upper
# bound. The first five are range and monotonicity, the last is the Bell–Boole pair atom.
PAIR_ROWS = (
    ("p{i}{j} >= 0", (0, 0, 1), 0, None),
    ("p{i}{j} <= p{i}", (1, 0, -1), 0, None),
    ("p{i}{j} <= p{j}", (0, 1, -1), 0, None),
    ("p{i} <= 1", (1, 0, 0), None, 1),
    ("p{j} <= 1", (0, 1, 0), None, 1),
    ("p{i} + p{j} - p{i}{j} <= 1", (1, 1, -1), None, 1),
)

# The first Bell line as signed terms, p13 + p14 + p24 - p23 - p1 - p4. The four Bell rows are its
# images under the side swaps: none, 1<->2, 3<->4 and both.
_BELL = (((1, 3), 1), ((1, 4), 1), ((2, 4), 1), ((2, 3), -1), ((1,), -1), ((4,), -1))
_SIDE_SWAPS = ({}, {1: 2, 2: 1}, {3: 4, 4: 3}, {1: 2, 2: 1, 3: 4, 4: 3})


@cache
def _rows() -> tuple:
    """The system's rows (label, integer coefficients on ``_SETS``, lower, upper) in report order, built once."""
    rows = []
    for i, j in CROSS_PAIRS:
        # The pair rows on ({i}, {j}, {i, j}).
        for label, coefficients, lower, upper in PAIR_ROWS:
            terms = dict(zip(((i,), (j,), (i, j)), coefficients))
            rows.append((label.format(i=i, j=j), terms, _bound(lower), _bound(upper)))
    for k, swap in enumerate(_SIDE_SWAPS, start=1):
        terms = [(tuple(swap.get(i, i) for i in s), c) for s, c in _BELL]
        expr = " ".join(f"{'+' if c > 0 else '-'} p{''.join(map(str, s))}" for s, c in terms).removeprefix("+ ")
        rows.append((f"bell{k}: -1 <= {expr} <= 0", dict(terms), Fraction(-1), Fraction(0)))
    # A row repeats whole (p1 <= 1 comes with two pairs) and keeps its first place.
    return tuple(dict.fromkeys((label, tuple(t.get(s, 0) for s in _SETS), lo, up) for label, t, lo, up in rows))


def _bound(b: Optional[int]) -> Optional[Fraction]:
    return None if b is None else Fraction(b)


@cache
def ch_scheme() -> ConjunctionScheme:
    """The fixed scheme: four singletons plus the four cross pairs, built once."""
    return ConjunctionScheme.make(4, _SETS)


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


def ch_evaluate(p: CorrelationVector) -> ChReport:
    """Evaluate every row of the system with exact slacks, on integer numerators over one denominator."""
    if p.scheme != ch_scheme():
        raise SchemeMismatch("expected the 4-event scheme with singletons and cross pairs {1,3},{1,4},{2,3},{2,4}")
    den, nums = scaled([p[s] for s in _SETS])
    records = []
    for label, coefficients, lower, upper in _rows():
        num = sum(c * x for c, x in zip(coefficients, nums))
        # Whole-number bounds, lower <= upper: the smaller margin is the slack, minus the violation when negative.
        margins = [num - lower.numerator * den] if lower is not None else []
        margins += [upper.numerator * den - num] if upper is not None else []
        slack = min(margins)
        records.append(ChInequality(label, Fraction(num, den), lower, upper, slack >= 0, Fraction(slack, den)))
    return ChReport(tuple(records), all(r.satisfied for r in records))
