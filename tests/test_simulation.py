from fractions import Fraction
from math import lcm

import pytest

from kolmorep import TooLarge, effective_probability, validate_distribution, compute_compatibility
from kolmorep.orsay import OrsayConfig
from kolmorep.simulation import estimate, run

F = Fraction


@pytest.fixture(scope="module")
def orsay_setup():
    cfg = OrsayConfig()
    return cfg.suite, cfg.distribution


def test_same_seed_same_stream(orsay_setup):
    suite, dist = orsay_setup
    assert run(suite, dist, 200, seed=9) == run(suite, dist, 200, seed=9)
    assert run(suite, dist, 200, seed=9) != run(suite, dist, 200, seed=10)


def test_single_trial_concentrated_distribution(orsay_setup):
    suite, _ = orsay_setup
    structure = compute_compatibility(suite)
    dist = validate_distribution({frozenset({2, 3}): F(1)}, structure)
    (record,) = run(suite, dist, 1, seed=0)
    assert record.trial == 0
    assert record.context == ("A'", "B")
    assert len(record.bits) == 2


@pytest.mark.parametrize(
    "small, denom",
    [
        ([F(1, 3000001), F(1, 3000002), F(1, 3000003)], lcm(3000001, 3000002, 3000003)),
        ([F(1, 2**63)], 2**63),  # the last cut, 2^63, would wrap in an int64 cumsum
    ],
)
def test_denominator_beyond_int64_draws_is_too_large(orsay_setup, small, denom):
    suite, _ = orsay_setup
    structure = compute_compatibility(suite)
    contexts = [frozenset(c) for c in ({1, 3}, {1, 4}, {2, 3}, {2, 4})]
    weights = small + [1 - sum(small)]
    dist = validate_distribution(dict(zip(contexts, weights)), structure)
    assert lcm(*(w.denominator for w in weights)) == denom >= 2**63
    message = rf"^common denominator {denom} of the sampling weights does not fit in int64$"
    with pytest.raises(TooLarge, match=message):
        run(suite, dist, 10, seed=1)


def test_trials_must_be_positive(orsay_setup):
    suite, dist = orsay_setup
    with pytest.raises(ValueError):
        run(suite, dist, 0, seed=1)


def test_trivial_and_structural_queries(orsay_setup):
    suite, dist = orsay_setup
    records = run(suite, dist, 4000, seed=21)
    full, impossible = estimate(records, [((), ()), (("A",), ("A'",))])
    assert full.frequency == 1.0
    assert full.stderr == 0.0
    assert impossible.frequency == 0.0


def test_switch_estimates_match_context_counts_exactly(orsay_setup):
    suite, dist = orsay_setup
    records = run(suite, dist, 5000, seed=33)
    queries = [((), ("A", "B")), ((), ("A",)), ((), ("B'",))]
    results = estimate(records, queries)
    for (_, performed), est in zip(queries, results):
        count = sum(1 for r in records if set(performed) <= set(r.context))
        assert est.frequency == count / len(records)


def test_law_of_large_numbers_with_seed_budget(orsay_setup):
    # 5-sigma binomial bands per query; with 12 seeds a single band excursion
    # is already far beyond chance, so the budget here is zero failures.
    suite, dist = orsay_setup
    queries = [
        (("A",), ()),
        (("A", "B"), ()),
        (("A",), ("B",)),
        ((), ("A", "B")),
        (("A'", "B"), ()),
    ]
    n = 10_000
    for seed in range(12):
        records = run(suite, dist, n, seed=seed)
        for (outcomes, performed), est in zip(queries, estimate(records, queries)):
            exact = effective_probability(
                suite, dist,
                {suite.index(x) for x in outcomes},
                {suite.index(x) for x in performed},
            )
            p = float(exact)
            band = 5 * (p * (1 - p) / n) ** 0.5
            assert abs(est.frequency - p) <= band, (seed, outcomes, performed)


def test_estimates_stay_in_unit_interval(orsay_setup):
    suite, dist = orsay_setup
    records = run(suite, dist, 500, seed=3)
    queries = [(("A",), ()), (("B'",), ("A",)), ((), ("B",))]
    for est in estimate(records, queries):
        assert 0.0 <= est.frequency <= 1.0
        assert est.trials == 500
