"""Reference for censorship verification: the earlier pairwise loop, kept verbatim.

Tests compare ``kolmorep.censorship.verify_censorship`` against it and require
the whole report to be equal: the same ``checked`` count and ``max_order``,
and the same mismatches with the same values in the same order. It evaluates
each (I1, I2) pair separately through ``polytope.evaluate`` and
``effective_probability``, so it is slow (4^n pairs); test use only. The one
edit since: it takes no policy, because the suite carries it.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from kolmorep.censorship import (
    CensoredSpace,
    MeasurementSuite,
    SetupDistribution,
    VerificationMismatch,
    VerificationReport,
    effective_probability,
)
from kolmorep.polytope import evaluate


def verify_censorship(
    censored: CensoredSpace,
    suite: MeasurementSuite,
    dist: SetupDistribution,
    max_order: Optional[int] = None,
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
            expected = effective_probability(suite, dist, i1, i2)
            if found != expected:
                mismatches.append(
                    VerificationMismatch(tuple(sorted(i1)), tuple(sorted(i2)), expected, found)
                )
    return VerificationReport(checked, max_order, tuple(mismatches))
