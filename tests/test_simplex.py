import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from kolmorep import simplex
from kolmorep.lattice import Decomposition
from kolmorep.orsay import OrsayConfig, effective_vector
from kolmorep.simplex import solve_zero_one_feasibility
from reference_simplex import solve_zero_one_feasibility as reference_solve

F = Fraction


def mask(*indices):
    m = 0
    for i in indices:
        m |= 1 << (i - 1)
    return m


def column_entry(row_mask, eps):
    return 1 if row_mask & ~eps == 0 else 0


def check_weights(n, rows, res):
    assert isinstance(res, Decomposition) and res.n == n
    weights = {eps: F(w, res.denominator) for eps, w in zip(res.masks, res.numerators)}
    for row_mask, rhs in rows:
        total = sum(w for eps, w in weights.items() if column_entry(row_mask, eps))
        assert total == rhs
    assert all(w > 0 for w in weights.values())


def check_farkas(n, rows, farkas):
    for eps in range(1 << n):
        value = sum(y * column_entry(row_mask, eps) for (row_mask, _), y in zip(rows, farkas))
        assert value <= 0
    assert sum(y * rhs for (_, rhs), y in zip(rows, farkas)) > 0


def test_two_event_product_distribution():
    rows = [(0, F(1)), (mask(1), F(1, 2)), (mask(2), F(1, 3)), (mask(1, 2), F(1, 6))]
    res = solve_zero_one_feasibility(2, rows)
    check_weights(2, rows, res)


def test_infeasible_conjunction_exceeds_marginal():
    rows = [(0, F(1)), (mask(1), F(1, 4)), (mask(1, 2), F(1, 2))]
    res = solve_zero_one_feasibility(2, rows)
    assert isinstance(res, tuple)
    check_farkas(2, rows, res)


def test_negative_rhs_is_separated():
    rows = [(0, F(1)), (mask(1), F(-1, 3))]
    res = solve_zero_one_feasibility(1, rows)
    assert isinstance(res, tuple)
    check_farkas(1, rows, res)


def test_boundary_vertex_is_feasible():
    rows = [(0, F(1)), (mask(1), F(1)), (mask(2), F(0)), (mask(1, 2), F(0))]
    res = solve_zero_one_feasibility(2, rows)
    assert (res.masks, res.numerators) == ((mask(1),), (res.denominator,))
    assert res == {(1, 0): F(1)}


def test_normalization_only():
    res = solve_zero_one_feasibility(2, [(0, F(1))])
    assert isinstance(res, Decomposition)
    assert sum(res.values()) == 1


def test_a_feasible_system_without_positive_weight_is_an_empty_decomposition():
    # No normalization row and zero right-hand sides: every artificial ends at 0 and no assignment enters.
    rows = [(mask(1), F(0)), (mask(1, 2), F(0))]
    res = solve_zero_one_feasibility(2, rows)
    assert isinstance(res, Decomposition) and (res.masks, res.numerators) == ((), ())
    assert res == {} == reference_solve(2, rows) and len(res) == 0
    assert_plain_fractions(res)


def random_rhs(rng, n, masks, kind):
    """Right-hand sides for the row masks: inside, a vertex, uniform in [0, 1], or outside."""
    def mixture(count, den):
        points = [rng.randrange(1 << n) for _ in range(count)]
        cuts = sorted(F(rng.randint(0, den), den) for _ in range(count - 1))
        weights = [b - a for a, b in zip([F(0)] + cuts, cuts + [F(1)])]
        return [sum((w for eps, w in zip(points, weights) if column_entry(t, eps)), F(0)) for t in masks]

    if kind == "inside":
        return mixture(rng.randint(2, 4), rng.choice((2, 3, 6, 12)))
    if kind == "vertex":
        return mixture(1, 1)
    if kind == "uniform":
        den = rng.choice((2, 4, 5, 8))
        return [F(rng.randint(0, den), den) for _ in masks]
    values = mixture(rng.randint(1, 3), rng.choice((2, 4, 6)))
    i = rng.randrange(len(values))
    values[i] += rng.choice((F(-1, 3), F(1, 4), F(-3, 2), F(5, 4)))
    return values


def random_system(rng, n, kind):
    """A row system over n positions, usually with the normalization row first."""
    count = rng.randint(1, min((1 << n) - 1, 3 * n))
    masks = rng.sample(range(1, 1 << n), count)
    if rng.random() < 0.9:
        masks = [0] + masks
    return list(zip(masks, random_rhs(rng, n, masks, kind)))


def corpus(seed=2024, size=500):
    rng = random.Random(seed)
    kinds = ("inside", "vertex", "uniform", "outside")
    systems = []
    for k in range(size):
        n = 1 + k % 6
        systems.append((n, random_system(rng, n, kinds[k % 4])))
    return systems


def orsay_rows():
    p = effective_vector(OrsayConfig()).vector
    return [(0, F(1))] + [(mask(*s), p.values[s]) for s in p.scheme.order]


def assert_plain_fractions(res):
    """Plain ints in a Decomposition and in its view's Fractions, or plain Fractions in a Farkas tuple."""
    if isinstance(res, Decomposition):
        assert type(res.denominator) is int and all(type(w) is int for w in res.numerators)
        assert all(type(m) is int for m in res.masks)
    values = list(res.values()) if isinstance(res, Decomposition) else list(res)
    for v in values:
        assert type(v) is Fraction
        assert type(v.numerator) is int and type(v.denominator) is int


# Values of simplex._INCIDENCE_MAX: zeta pricing always, and the incidence
# product wherever the tableau is int64.
PRICING_LIMITS = (0, 2**62)


def solve_each_pricing(monkeypatch, n, rows):
    """The solver's result under each pricing, in PRICING_LIMITS order."""
    results = []
    for limit in PRICING_LIMITS:
        monkeypatch.setattr(simplex, "_INCIDENCE_MAX", limit)
        results.append(solve_zero_one_feasibility(n, rows))
    return results


def test_equals_reference_on_random_corpus(monkeypatch):
    verdicts, empty = set(), 0
    for n, rows in corpus():
        expected = reference_solve(n, rows)
        for res in solve_each_pricing(monkeypatch, n, rows):
            assert res == expected, (n, rows)
            assert_plain_fractions(res)
        verdicts.add(isinstance(expected, dict))
        empty += expected == {}
    assert verdicts == {True, False}
    assert empty > 0  # feasible systems with no positive weight are in the corpus


def test_equals_reference_on_orsay_effective_vector():
    rows = orsay_rows()
    assert len(rows) == 37
    res = solve_zero_one_feasibility(8, rows)
    assert res == reference_solve(8, rows)
    check_weights(8, rows, res)


def test_duplicate_row_masks_equal_reference(monkeypatch):
    # Rows sharing a mask add their multipliers at one pricing entry.
    rng = random.Random(11)
    systems = [
        (2, [(0, F(1)), (mask(1), F(1, 2)), (mask(1), F(1, 2))]),
        (2, [(0, F(1)), (mask(1), F(1, 2)), (mask(1), F(1, 3))]),
        (2, [(0, F(1)), (0, F(1)), (mask(1, 2), F(1, 4))]),
    ]
    for k in range(60):
        n = 2 + k % 3
        masks = [0] + rng.choices(range(1 << n), k=rng.randint(2, 2 * n))
        systems.append((n, list(zip(masks, random_rhs(rng, n, masks, ("inside", "outside")[k % 2])))))
    verdicts = set()
    for n, rows in systems:
        expected = reference_solve(n, rows)
        for res in solve_each_pricing(monkeypatch, n, rows):
            assert res == expected, (n, rows)
        verdicts.add(isinstance(expected, dict))
    assert verdicts == {True, False}


def pair_scheme_rows(rng, n, nudge):
    """Singletons and pairs of a mixture of n + 2 assignments, one pair moved by 1/16 if nudged."""
    pairs = [mask(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    masks = [0] + [mask(i) for i in range(1, n + 1)] + pairs
    points = [rng.randrange(1 << n) for _ in range(n + 2)]
    cuts = sorted(F(rng.randint(0, 12), 12) for _ in range(n + 1))
    weights = [b - a for a, b in zip([F(0)] + cuts, cuts + [F(1)])]
    values = [sum((w for eps, w in zip(points, weights) if column_entry(t, eps)), F(0)) for t in masks]
    if nudge:
        k = rng.randrange(n + 1, len(masks))
        values[k] += F(1, 16) if values[k] + F(1, 16) <= 1 else F(-1, 16)
    return list(zip(masks, values))


def test_equals_reference_on_pair_scheme_corpus(monkeypatch):
    rng = random.Random(5)
    verdicts = set()
    for n, count in ((5, 6), (6, 2)):
        for k in range(count):
            rows = pair_scheme_rows(rng, n, nudge=k % 2 == 1)
            expected = reference_solve(n, rows)
            for res in solve_each_pricing(monkeypatch, n, rows):
                assert res == expected, (n, rows)
            verdicts.add(isinstance(expected, dict))
    assert verdicts == {True, False}


def test_large_system_prices_without_the_incidence_matrix():
    # m * 2^n = 13 * 4096 is above the crossover, so pricing stays on the zeta
    # transform and the solve never holds the m x 2^n int64 matrix.
    n = 12
    rows = [(0, F(1))] + [(mask(i), F(i, i + 1)) for i in range(1, n + 1)]
    matrix_bytes = 8 * len(rows) << n
    assert len(rows) << n > simplex._INCIDENCE_MAX
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        res = solve_zero_one_feasibility(n, rows)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    check_weights(n, rows, res)
    assert peak < matrix_bytes


def test_objective_entry_counts_toward_the_guard_peak(monkeypatch):
    # Start point L |r| = (6, 3, 2, 1): the objective entry 12 is the peak.
    rows = [(0, F(1)), (mask(1), F(1, 2)), (mask(2), F(1, 3)), (mask(1, 2), F(1, 6))]
    peaks = []
    guard = simplex._needs_object
    monkeypatch.setattr(simplex, "_needs_object", lambda m, peak: peaks.append(peak) or guard(m, peak))
    res = solve_zero_one_feasibility(2, rows)
    assert peaks[0] == 12
    assert res == reference_solve(2, rows)


def record_guard(monkeypatch):
    """Wrap the int64 guard so a test can see which dtype each iteration ran on."""
    calls = []
    guard = simplex._needs_object

    def spy(m, peak):
        calls.append(guard(m, peak))
        return calls[-1]

    monkeypatch.setattr(simplex, "_needs_object", spy)
    return calls


def huge_denominator_systems():
    # Inside and outside vectors over n = 3 with denominators near 2^40.
    dens = [2**40 - 87, 2**40 - 167, 2**40 + 15]
    w = [F(2**39 + 5, dens[0]), F(2**38 - 3, dens[1]), F(2**37 + 11, dens[2])]
    w.append(1 - sum(w))
    points = [0b011, 0b101, 0b110, 0b111]
    masks = [0, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111]
    inside = [(t, sum((x for eps, x in zip(points, w) if column_entry(t, eps)), F(0))) for t in masks]
    outside = inside[:-1] + [(0b111, inside[-1][1] + F(1, dens[0]))]
    return [inside, outside]


@pytest.mark.parametrize("case", range(2))
def test_huge_denominators_run_on_python_ints(monkeypatch, case):
    rows = huge_denominator_systems()[case]
    expected = reference_solve(3, rows)
    calls = record_guard(monkeypatch)
    res = solve_zero_one_feasibility(3, rows)
    assert calls[0] is True  # object dtype from the start
    assert isinstance(res, Decomposition) == (case == 0)
    assert res == expected
    assert_plain_fractions(res)


def test_guard_switches_to_python_ints_mid_solve(monkeypatch):
    # Vertex systems start with entries of 1; basis determinants then grow past it.
    # int64 iterations price by the incidence product, object ones by zeta.
    monkeypatch.setattr(simplex, "_INCIDENCE_MAX", PRICING_LIMITS[1])
    rng = random.Random(7)
    systems = [(n, random_system(rng, n, "vertex")) for n in (4, 5) for _ in range(20)]
    calls = record_guard(monkeypatch)
    switched = 0
    for n, rows in systems:
        expected = reference_solve(n, rows)
        for k in range(2, 16):
            monkeypatch.setattr(simplex, "INT64_MAX", 2**k)
            calls.clear()
            res = solve_zero_one_feasibility(n, rows)
            assert res == expected, (n, rows, k)
            assert_plain_fractions(res)
            switched += calls[0] is False and calls[-1] is True
    assert switched > 0


def test_running_bound_never_undercounts_the_int64_peak(monkeypatch):
    # The guard sees a running bound, not a scan; on every int64 iteration it
    # must cover the caller's tableau. A pivot keeping the basis determinant
    # takes the unimodular update, any other the full Bareiss update.
    guard = simplex._needs_object
    last = []  # (basis, det) of the current solve's latest int64 iteration
    steps = {"unimodular": 0, "general": 0}

    def spy(m, peak):
        caller = sys._getframe(1).f_locals
        tab = caller.get("tab")
        if tab is None:  # the start-up call, before the tableau exists
            last.clear()
        elif tab.dtype != object:
            assert peak >= abs(tab).max()
            basis, det = tuple(caller["basis"]), caller["det"]
            if last and last[0] != basis:  # one pivot since the last iteration
                steps["unimodular" if det == last[1] else "general"] += 1
            last[:] = [basis, det]
        return guard(m, peak)

    monkeypatch.setattr(simplex, "_needs_object", spy)
    rng = random.Random(5)
    systems = corpus() + [(5, pair_scheme_rows(rng, 5, nudge=k % 2 == 1)) for k in range(6)]
    for n, rows in systems + [(8, orsay_rows())]:
        solve_zero_one_feasibility(n, rows)
    assert steps["unimodular"] > 0 and steps["general"] > 0, steps
