"""Reference for the simulation outputs: the earlier per-record path, kept verbatim.

`run` builds one ``TrialRecord`` per trial from the same sampler draws,
`estimate` groups the records by context, `records_to_csv` writes one
``csv.writer`` row per record, and `records_to_json` builds one dict per
record and dumps the whole payload with ``json.dumps(indent=2)``. Tests
require the columnar code to give the same records, the same estimates and
the same CSV and JSON bytes. The one edit since: `run` takes no policy,
because the suite carries it. Test use only.
"""

from __future__ import annotations

import csv
import io
import json
from math import sqrt
from typing import Iterable, Sequence

import numpy as np

from kolmorep.censorship import MeasurementSuite, SetupDistribution, context_space
from kolmorep.simulation import PRNG_ALGORITHM, FrequencyEstimate, TrialRecord, _integer_sampler


def run(
    suite: MeasurementSuite,
    dist: SetupDistribution,
    trials: int,
    seed: int,
) -> list:
    """Simulate `trials` switch-and-detect rounds; same seed, same stream."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.Generator(np.random.PCG64(seed))

    contexts = list(dist.support)
    kappa = [dist.weights[c] for c in contexts]
    chosen = _integer_sampler(rng, kappa, trials)

    names = []
    point_bits = []
    outcome_draws = np.zeros(trials, dtype=np.int64)
    for k, context in enumerate(contexts):
        members = sorted(context)
        names.append(tuple(suite.name_of(i) for i in members))
        local = context_space(context, suite)
        masses = [local.mass[p] for p in local.points]
        point_bits.append([tuple(int(ch) for ch in p) for p in local.points])
        hits = np.flatnonzero(chosen == k)
        if hits.size:
            outcome_draws[hits] = _integer_sampler(rng, masses, hits.size)

    return [
        TrialRecord(t, names[chosen[t]], point_bits[chosen[t]][outcome_draws[t]])
        for t in range(trials)
    ]


def estimate(records: Sequence[TrialRecord], queries: Iterable) -> list:
    """Empirical effective frequencies for (outcomes, performed) name pairs."""
    total = len(records)
    by_context: dict = {}
    for rec in records:
        by_context.setdefault(rec.context, []).append(rec.bits)
    context_bits = {
        ctx: np.array(bits, dtype=np.uint8).reshape(len(bits), len(ctx))
        for ctx, bits in by_context.items()
    }

    results = []
    for outcomes, performed in queries:
        outcomes = tuple(outcomes)
        performed = tuple(performed)
        required = set(outcomes) | set(performed)
        count = 0
        for ctx, bits in context_bits.items():
            if not required <= set(ctx):
                continue
            if outcomes:
                sel = [ctx.index(name) for name in outcomes]
                count += int(np.sum(np.all(bits[:, sel] == 1, axis=1)))
            else:
                count += bits.shape[0]
        freq = count / total if total else 0.0
        stderr = sqrt(freq * (1.0 - freq) / total) if total else 0.0
        results.append(FrequencyEstimate(outcomes, performed, freq, total, stderr))
    return results


def records_to_csv(records: Iterable[TrialRecord], seed: int) -> str:
    """CSV stream with a reproducibility header comment line."""
    buf = io.StringIO()
    buf.write(f"# prng={PRNG_ALGORITHM} seed={seed}\n")
    writer = csv.writer(buf)
    writer.writerow(["trial", "context", "bits"])
    for rec in records:
        writer.writerow(
            [rec.trial, "+".join(rec.context), "".join(str(b) for b in rec.bits)]
        )
    return buf.getvalue()


def records_to_json(records: Iterable[TrialRecord], payload: dict) -> str:
    """The payload plus one dict per record, as `simulate --format json` dumped it."""
    payload = dict(payload)
    payload["records"] = [
        {"trial": r.trial, "context": list(r.context), "bits": "".join(map(str, r.bits))}
        for r in records
    ]
    return json.dumps(payload, indent=2)
