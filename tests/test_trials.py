"""Columnar trials against the per-record reference path: same records, estimates and bytes."""

import random
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import reference_simulation as reference
from helpers import random_censorship_case
from kolmorep import MeasurementSuite, Operator, validate_distribution
from kolmorep.orsay import OrsayConfig
from kolmorep.serialize import estimates_to_json, records_to_csv, records_to_json
from kolmorep.simulation import Trials, estimate, run

F = Fraction
# Trial counts where the writers' decade split changes shape: the last record's
# digit and the length of its decade prefix.
DECADE_EDGES = [9, 10, 11, 99, 100, 101, 1000, 1001, 10001]


@pytest.fixture(scope="module")
def orsay_setup():
    cfg = OrsayConfig()
    return cfg.suite, cfg.distribution


def queries_for(suite):
    names = suite.names
    singles = [((a,), ()) for a in names] + [((), (a,)) for a in names]
    pairs = [((a,), (b,)) for a, b in product(names, repeat=2)] + [((a, b), ()) for a, b in product(names, repeat=2)]
    return [((), ())] + singles + pairs


def assert_same_text(got: str, want: str) -> None:
    """Equal strings, or the first difference in context (pytest's own diff of megabyte strings is slow)."""
    same = got == want
    if not same:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        lo = max(at - 40, 0)
        raise AssertionError(f"texts differ at {at}: {got[lo:at + 40]!r} != {want[lo:at + 40]!r}")


def assert_matches_reference(suite, dist, trials, seed):
    columns = run(suite, dist, trials, seed)
    records = reference.run(suite, dist, trials, seed)
    assert list(columns) == records
    queries = queries_for(suite)
    estimates = estimate(columns, queries)
    assert estimates == reference.estimate(records, queries)
    text_csv = records_to_csv(columns, seed)
    assert_same_text(text_csv, reference.records_to_csv(records, seed))
    payload = estimates_to_json(estimates, seed, trials)
    text_json = records_to_json(columns, payload)
    assert_same_text(text_json, reference.records_to_json(records, payload))
    return text_csv, text_json


def test_trials_contract(orsay_setup):
    suite, dist = orsay_setup
    trials = run(suite, dist, 300, seed=5)
    assert len(trials) == 300
    assert list(trials) == reference.run(suite, dist, 300, seed=5)
    assert trials == run(suite, dist, 300, seed=5)
    assert trials != run(suite, dist, 300, seed=6)
    assert trials != list(trials)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("trials", [1, 2, 4999])
def test_random_rational_suites_match_the_reference(seed, trials):
    suite, dist, _ = random_censorship_case(random.Random(f"trials/{seed}"), dim_choices=(2, 4), n_range=(2, 4))
    assert_matches_reference(suite, dist, trials, seed)


@pytest.mark.parametrize("trials", DECADE_EDGES)
def test_a_random_rational_suite_matches_the_reference_at_decade_edges(trials):
    suite, dist, _ = random_censorship_case(random.Random("trials/0"), dim_choices=(2, 4), n_range=(2, 4))
    assert_matches_reference(suite, dist, trials, seed=trials)


@pytest.mark.parametrize("trials", [1, 2, 4999, *DECADE_EDGES])
def test_orsay_matches_the_reference(orsay_setup, trials):
    assert_matches_reference(*orsay_setup, trials, seed=trials)


def test_the_json_writer_peaks_near_the_text_it_returns(orsay_setup):
    """No string per trial and one join: the writer's peak is the text plus one list of parts."""
    suite, dist = orsay_setup
    trials = run(suite, dist, 30_000, seed=3)
    payload = estimates_to_json(estimate(trials, queries_for(suite)), 3, 30_000)
    tracemalloc.start()
    try:
        text = records_to_json(trials, payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * len(text), (peak, len(text))


def test_names_that_need_escaping_match_the_reference():
    names = ["a,b", 'say "hi"', "x+y", "back\\slash", "ψ-détecteur"]
    diagonals = [[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1], [0, 0, 1, 1]]
    suite = MeasurementSuite.make(
        Operator(np.diag([0.5, 0.25, 0.125, 0.125]), tags=("density",)),
        [(name, Operator(np.diag(np.array(d, dtype=float)), tags=("projector",))) for name, d in zip(names, diagonals)],
    )
    weights = {frozenset({1, 2}): F(1, 2), frozenset({3, 4, 5}): F(1, 4), frozenset({1, 5}): F(1, 4)}
    dist = validate_distribution(weights, suite)
    for trials in (1, 2, 4999, *DECADE_EDGES):
        text_csv, text_json = assert_matches_reference(suite, dist, trials, seed=trials)
    assert '"a,b+say ""hi"""' in text_csv and "x+y+back\\slash" in text_csv
    assert "\\\\slash" in text_json and '\\"hi\\"' in text_json and "\\u03c8-d\\u00e9tecteur" in text_json


def test_zero_trials_write_an_empty_record_list():
    empty = np.zeros(0, dtype=np.int64)
    trials = Trials((("A",),), (((1,), (0,)),), empty, empty)
    assert len(trials) == 0 and list(trials) == []
    payload = {"prng": "PCG64", "seed": 0}
    assert records_to_json(trials, payload) == reference.records_to_json([], payload)
    assert records_to_csv(trials, 0) == reference.records_to_csv([], 0)
