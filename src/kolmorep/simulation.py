"""Seeded Monte-Carlo sampling of switch choices and detector outcomes.

Each trial draws a context from the setup distribution, then a joint outcome
from that context's exact masses. Sampling inverts integer draws against the
common denominator of the exact weights, so the sampled law is the rational
law itself, not a float approximation of it. A measurement outside the
drawn context is recorded as absent, not as a third outcome value: that is
exactly what makes empirical frequencies effective rather than conditional.
The trials are kept as columns (a context index and an outcome index per
trial), never as one object per trial; `TrialRecord` is only the view that
iterating them yields.

PCG64 is the generator (published algorithm, splittable); emit the algorithm
name and seed alongside any results so runs can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import sqrt
from typing import Iterable, Iterator, Sequence

import numpy as np

from .censorship import MeasurementSuite, SetupDistribution, _check_support, context_space
from .errors import TooLarge
from .rational import scaled

PRNG_ALGORITHM = "PCG64"


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    context: tuple  # measurement names, in suite order
    bits: tuple  # outcome bits aligned with context


@dataclass(frozen=True, eq=False)
class Trials:
    """Simulated trials as columns: trial t ran context `context[t]` and saw
    that context's outcome point `outcome[t]`."""

    names: tuple  # per context: measurement names, in suite order
    points: tuple  # per context: outcome bit tuples, in context_space order
    context: np.ndarray  # int64 context index per trial
    outcome: np.ndarray  # int64 outcome point index per trial

    def __len__(self) -> int:
        return len(self.context)

    @cached_property
    def cell(self) -> np.ndarray:
        """Per trial, its (context, outcome) cell: the cells are numbered context by context, found once."""
        starts = np.cumsum([0, *map(len, self.points[:-1])])
        return starts[self.context] + self.outcome

    def __iter__(self) -> Iterator[TrialRecord]:
        for t, (k, o) in enumerate(zip(self.context.tolist(), self.outcome.tolist())):
            yield TrialRecord(t, self.names[k], self.points[k][o])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trials):
            return NotImplemented
        return (
            self.names == other.names and self.points == other.points
            and np.array_equal(self.context, other.context)
            and np.array_equal(self.outcome, other.outcome)
        )


@dataclass(frozen=True)
class FrequencyEstimate:
    outcomes: tuple  # measurement names whose outcome must be 1
    performed: tuple  # measurement names whose switch must be on
    frequency: float
    trials: int
    stderr: float


def _integer_sampler(rng: np.random.Generator, weights: Sequence[Fraction], size: int) -> np.ndarray:
    """Indices drawn exactly according to rational weights via integer inversion."""
    denom, numerators = scaled(weights)
    if denom >= 2**63:  # the cuts and the draws are int64; the last cut is denom
        raise TooLarge(f"common denominator {denom} of the sampling weights does not fit in int64")
    cuts = np.cumsum(numerators)
    draws = rng.integers(0, denom, size=size)
    return np.searchsorted(cuts, draws, side="right")


def run(suite: MeasurementSuite, dist: SetupDistribution, trials: int, seed: int) -> Trials:
    """Simulate `trials` switch-and-detect rounds; same seed, same stream. A support outside the suite raises."""
    _check_support(suite, dist)
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.Generator(np.random.PCG64(seed))

    contexts = list(dist.support)
    kappa = [dist.weights[c] for c in contexts]
    chosen = _integer_sampler(rng, kappa, trials)

    names = []
    points = []
    outcome = np.zeros(trials, dtype=np.int64)
    for k, context in enumerate(contexts):
        local = context_space(context, suite)
        names.append(tuple(local.events))
        points.append(tuple(tuple(int(p in hits) for hits in local.events.values()) for p in local.points))
        hits = np.flatnonzero(chosen == k)
        if hits.size:
            outcome[hits] = _integer_sampler(rng, [local.mass[p] for p in local.points], hits.size)
    return Trials(tuple(names), tuple(points), np.asarray(chosen, dtype=np.int64), outcome)


def estimate(trials: Trials, queries: Iterable) -> list:
    """Empirical effective frequencies for (outcomes, performed) name pairs.

    A trial counts for a query when its context covers every named
    measurement (outcome names included: a beep presupposes the run) and all
    named outcome bits are 1. Standard errors are binomial.
    """
    total = len(trials)
    cells = iter(np.bincount(trials.cell, minlength=sum(map(len, trials.points))).tolist())
    counts = [list(islice(cells, len(points))) for points in trials.points]  # per context, per outcome point
    results = []
    for outcomes, performed in queries:
        outcomes = tuple(outcomes)
        performed = tuple(performed)
        required = set(outcomes) | set(performed)
        count = 0
        for names, points, cells in zip(trials.names, trials.points, counts):
            if required <= set(names):
                sel = [names.index(name) for name in outcomes]
                count += sum(c for bits, c in zip(points, cells) if all(bits[i] == 1 for i in sel))
        freq = count / total if total else 0.0
        stderr = sqrt(freq * (1.0 - freq) / total) if total else 0.0
        results.append(FrequencyEstimate(outcomes, performed, freq, total, stderr))
    return results
