"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass; on failure the line is printed alongside the assertion.
"""

import random
from fractions import Fraction
from itertools import combinations

from kolmorep import (
    ConjunctionScheme,
    CorrelationVector,
    Inside,
    Outside,
    assemble_effective_vector,
    build_censored_space,
    certificate_is_valid,
    ch_evaluate,
    ch_scheme,
    effective_decomposition,
    effective_probability,
    evaluate,
    membership,
    representation_from_weights,
    verify_censorship,
)
from kolmorep.orsay import (
    OrsayConfig,
    effective_pair_vector,
    effective_vector,
    naked_vector,
    tables,
)
from kolmorep.simulation import estimate, run

from helpers import random_censorship_case, random_distribution

F = Fraction


def _line(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def _mixture(scheme, weighted_bits):
    values = {s: F(0) for s in scheme.sets}
    for bits, w in weighted_bits:
        for s in scheme.sets:
            if all(bits[i - 1] for i in s):
                values[s] += w
    return CorrelationVector(scheme, values)


def _reproduces(weights, p):
    return all(
        sum((w for bits, w in weights.items() if all(bits[i - 1] for i in s)), F(0)) == p[s]
        for s in p.scheme.sets
    )


def test_criterion_01_quantum_conditional_values():
    nv = naked_vector(OrsayConfig())
    singles_ok = all(nv[{i}] == F(1, 2) for i in range(1, 5))
    pairs_ok = (
        nv[{1, 3}] == F(3, 8)
        and nv[{1, 4}] == F(3, 8)
        and nv[{2, 3}] == F(0)
        and nv[{2, 4}] == F(3, 8)
    )
    _line(1, singles_ok and pairs_ok,
          "default suite: conditional singles all 1/2, pairs (3/8, 3/8, 0, 3/8)")


EFFECTIVE_EXPECTED = {
    # every event list uses outcome indices 1-4 (A, A', B, B') and switch
    # indices 5-8 (a, a', b, b')
    **{frozenset({i}): F(1, 4) for i in (1, 2, 3, 4)},
    **{frozenset({i}): F(1, 2) for i in (5, 6, 7, 8)},
    frozenset({1, 5}): F(1, 4), frozenset({2, 6}): F(1, 4),
    frozenset({3, 7}): F(1, 4), frozenset({4, 8}): F(1, 4),
    frozenset({1, 6}): F(0), frozenset({2, 5}): F(0),
    frozenset({3, 8}): F(0), frozenset({4, 7}): F(0),
    frozenset({1, 3}): F(3, 32), frozenset({1, 4}): F(3, 32),
    frozenset({2, 4}): F(3, 32), frozenset({2, 3}): F(0),
    frozenset({5, 6}): F(0), frozenset({7, 8}): F(0),
    frozenset({5, 7}): F(1, 4), frozenset({5, 8}): F(1, 4),
    frozenset({6, 7}): F(1, 4), frozenset({6, 8}): F(1, 4),
    frozenset({1, 7}): F(1, 8), frozenset({1, 8}): F(1, 8),
    frozenset({2, 7}): F(1, 8), frozenset({2, 8}): F(1, 8),
    frozenset({3, 5}): F(1, 8), frozenset({3, 6}): F(1, 8),
    frozenset({4, 5}): F(1, 8), frozenset({4, 6}): F(1, 8),
}


def test_criterion_02_effective_values():
    eff = effective_vector(OrsayConfig())
    bad = [
        (sorted(s), str(eff.vector[s]), str(want))
        for s, want in EFFECTIVE_EXPECTED.items()
        if eff.vector[s] != want
    ]
    _line(2, not bad, f"all {len(EFFECTIVE_EXPECTED)} listed effective probabilities exact"
          + (f"; first mismatch {bad[0]}" if bad else ""))


def test_criterion_03_naked_vector_violates():
    nv = naked_vector(OrsayConfig())
    report = ch_evaluate(nv)
    violated = [r for r in report.bell() if not r.satisfied]
    bell_ok = (
        not report.satisfied
        and len(violated) == 1
        and violated[0].value == F(1, 8)
    )
    verdict = membership(nv)
    lp_ok = isinstance(verdict, Outside) and certificate_is_valid(nv, verdict)
    _line(3, bell_ok and lp_ok,
          "naked vector: violated Bell bound at exactly +1/8, Outside with validated certificate")


def test_criterion_04_effective_vector_satisfies():
    ev = effective_pair_vector(OrsayConfig())
    report = ch_evaluate(ev)
    bell_ok = report.satisfied and report.bell()[0].value == F(-7, 32)
    verdict = membership(ev)
    inside_ok = isinstance(verdict, Inside) and _reproduces(verdict.weights, ev)
    _line(4, bell_ok and inside_ok,
          "effective vector: Bell expression exactly -7/32, Inside with exact witness")


TABLE1 = {
    "a & b": {("A", "B"): F(3, 8), ("A", "!B"): F(1, 8), ("!A", "B"): F(1, 8), ("!A", "!B"): F(3, 8)},
    "a & b'": {("A", "B'"): F(3, 8), ("A", "!B'"): F(1, 8), ("!A", "B'"): F(1, 8), ("!A", "!B'"): F(3, 8)},
    "a' & b": {("A'", "B"): F(0), ("A'", "!B"): F(1, 2), ("!A'", "B"): F(1, 2), ("!A'", "!B"): F(0)},
    "a' & b'": {("A'", "B'"): F(3, 8), ("A'", "!B'"): F(1, 8), ("!A'", "B'"): F(1, 8), ("!A'", "!B'"): F(3, 8)},
}

TABLE2 = {
    ("A", "B"): F(3, 32), ("A", "!B"): F(1, 32), ("A", "B'"): F(3, 32), ("A", "!B'"): F(1, 32),
    ("!A", "B"): F(1, 32), ("!A", "!B"): F(3, 32), ("!A", "B'"): F(1, 32), ("!A", "!B'"): F(3, 32),
    ("A'", "B"): F(0), ("A'", "!B"): F(1, 8), ("A'", "B'"): F(3, 32), ("A'", "!B'"): F(1, 32),
    ("!A'", "B"): F(1, 8), ("!A'", "!B"): F(0), ("!A'", "B'"): F(1, 32), ("!A'", "!B'"): F(3, 32),
}


def test_criterion_05_context_tables():
    tab = tables(OrsayConfig())
    got = {t.label: t.cells for t in tab.context_tables}
    _line(5, got == TABLE1, "all sixteen per-context cell masses exact")


def test_criterion_06_censored_table_and_verification():
    cfg = OrsayConfig()
    tab = tables(cfg)
    cells_ok = tab.censored_cells == TABLE2
    suite = cfg.suite
    dist = cfg.distribution
    report = verify_censorship(tab.censored, suite, dist, max_order=2 * suite.n)
    _line(6, cells_ok and report.ok and report.checked == 256,
          "censored-space cells exact and full-order verification clean "
          f"({report.checked} event pairs)")


def _random_scheme(rng, n):
    sets = [{i} for i in range(1, n + 1)]
    pool2 = list(combinations(range(1, n + 1), 2))
    pool3 = list(combinations(range(1, n + 1), 3))
    pool4 = list(combinations(range(1, n + 1), 4))
    sets += [set(s) for s in rng.sample(pool2, min(len(pool2), rng.randint(1, 5)))]
    if pool3:
        sets += [set(s) for s in rng.sample(pool3, min(len(pool3), rng.randint(1, 3)))]
    if pool4:
        sets += [set(s) for s in rng.sample(pool4, min(len(pool4), rng.randint(1, 2)))]
    return ConjunctionScheme.make(n, sets)


def test_criterion_07_decomposition_round_trip():
    rng = random.Random(70_001)
    failures = 0
    for k in range(1000):
        n = rng.randint(2, 6)
        scheme = _random_scheme(rng, n)
        support = set()
        for _ in range(rng.randint(1, 5)):
            support.add(tuple(rng.randint(0, 1) for _ in range(n)))
        support = sorted(support)
        weights = list(zip(support, random_distribution(rng, len(support))))
        p = _mixture(scheme, weights)

        verdict = membership(p)
        if not isinstance(verdict, Inside) or not _reproduces(verdict.weights, p):
            failures += 1
            continue
        space = representation_from_weights(verdict.weights, scheme)
        if any(evaluate(space, {f"A{i}" for i in s}) != p[s] for s in scheme.sets):
            failures += 1
    _line(7, failures == 0,
          f"1000 random mixtures (n in 2..6, schemes with triples/quadruples): "
          f"{failures} round-trip failures")


def test_criterion_08_witness_soundness():
    rng = random.Random(80_001)
    scheme = ch_scheme()
    failures = inside_count = outside_count = 0
    for k in range(1000):
        if k % 10 < 7:
            den = rng.choice((8, 12, 16, 24, 32))
            values = {s: F(rng.randint(0, den), den) for s in scheme.sets}
            p = CorrelationVector(scheme, values)
        else:
            count = rng.randint(1, 4)
            support = {tuple(rng.randint(0, 1) for _ in range(4)) for _ in range(count)}
            p = _mixture(scheme, list(zip(sorted(support), random_distribution(rng, len(support)))))
        verdict = membership(p)
        if isinstance(verdict, Inside):
            inside_count += 1
            if not _reproduces(verdict.weights, p) or sum(verdict.weights.values()) != 1:
                failures += 1
        else:
            outside_count += 1
            if not certificate_is_valid(p, verdict):
                failures += 1
    _line(8, failures == 0 and inside_count > 0 and outside_count > 0,
          f"1000 vectors on the 4-event scheme: {inside_count} inside witnesses exact, "
          f"{outside_count} certificates enumeration-checked, {failures} failures")


def test_criterion_09_inequalities_equivalent_to_membership():
    rng = random.Random(90_001)
    scheme = ch_scheme()
    disagreements = inside_count = 0
    for k in range(10_000):
        r = k % 10
        if r < 7:
            den = rng.choice((16, 32, 64))
            values = {s: F(rng.randint(0, den), den) for s in scheme.sets}
            p = CorrelationVector(scheme, values)
        else:
            count = rng.randint(1, 5)
            support = {tuple(rng.randint(0, 1) for _ in range(4)) for _ in range(count)}
            p = _mixture(scheme, list(zip(sorted(support), random_distribution(rng, len(support)))))
            if r == 9:  # nudge one component off the mixture
                s = rng.choice(list(scheme.sets))
                values = dict(p.values)
                values[s] += F(rng.choice((-1, 1)), 64)
                if 0 <= values[s] <= 1:
                    p = CorrelationVector(scheme, values)
        ch_ok = ch_evaluate(p).satisfied
        inside = isinstance(membership(p), Inside)
        inside_count += inside
        if ch_ok != inside:
            disagreements += 1
    _line(9, disagreements == 0 and 0 < inside_count < 10_000,
          f"10000 random vectors: inequality verdict vs membership verdict, "
          f"{disagreements} disagreements ({inside_count} inside)")


def test_criterion_10_censored_statistics_always_classical():
    rng = random.Random(100_001)
    mismatch_suites = non_inside = 0
    lp_checked = 0
    for _ in range(200):
        suite, dist, _oracle = random_censorship_case(rng)
        censored = build_censored_space(suite, dist)
        report = verify_censorship(censored, suite, dist, max_order=2 * suite.n)
        if not report.ok:
            mismatch_suites += 1
            continue
        m = 2 * suite.n
        sets = [{i} for i in range(1, m + 1)]
        sets += [{i, j} for i in range(1, m + 1) for j in range(i + 1, m + 1)]
        eff = assemble_effective_vector(suite, dist, ConjunctionScheme.make(m, sets))
        # The censored space is itself an Inside witness at every n ...
        witness = effective_decomposition(censored, suite)
        if sum(witness.weights.values()) != 1 or not _reproduces(witness.weights, eff.vector):
            non_inside += 1
        # ... and the LP agrees where it is cheap.
        if m <= 8:
            lp_checked += 1
            if not isinstance(membership(eff.vector), Inside):
                non_inside += 1
    _line(10, mismatch_suites == 0 and non_inside == 0 and lp_checked > 0,
          f"200 randomized suites: {mismatch_suites} verification failures, "
          f"{non_inside} effective vectors outside (all by the space's own decomposition, "
          f"{lp_checked} also by LP)")


SIM_QUERIES = [
    (("A",), ()), (("A'",), ()), (("B",), ()), (("B'",), ()),
    ((), ("A",)), ((), ("A'",)), ((), ("B",)), ((), ("B'",)),
    (("A",), ("A",)), (("A'",), ("A'",)), (("B",), ("B",)), (("B'",), ("B'",)),
    (("A",), ("A'",)), (("A'",), ("A",)), (("B",), ("B'",)), (("B'",), ("B",)),
    (("A", "B"), ()), (("A", "B'"), ()), (("A'", "B"), ()), (("A'", "B'"), ()),
    ((), ("A", "B")), ((), ("A", "B'")), ((), ("A'", "B")), ((), ("A'", "B'")),
    ((), ("A", "A'")), ((), ("B", "B'")),
    (("A",), ("B",)), (("A",), ("B'",)), (("A'",), ("B",)), (("A'",), ("B'",)),
    (("B",), ("A",)), (("B",), ("A'",)), (("B'",), ("A",)), (("B'",), ("A'",)),
]


def test_criterion_11_simulation_matches_effective_probabilities():
    cfg = OrsayConfig()
    suite = cfg.suite
    dist = cfg.distribution
    n = 100_000
    records = run(suite, dist, n, seed=2718)
    worst = 0.0
    bad = []
    for (outcomes, performed), est in zip(SIM_QUERIES, estimate(records, SIM_QUERIES)):
        exact = effective_probability(
            suite, dist,
            {suite.index(x) for x in outcomes},
            {suite.index(x) for x in performed},
        )
        p = float(exact)
        if p in (0.0, 1.0):
            if est.frequency != p:
                bad.append((outcomes, performed))
            continue
        band = 5 * (p * (1 - p) / n) ** 0.5
        gap = abs(est.frequency - p)
        worst = max(worst, gap / band)
        if gap > band:
            bad.append((outcomes, performed))
    _line(11, not bad,
          f"{len(SIM_QUERIES)} queried frequencies at N=100000 within 5 binomial "
          f"standard errors (worst 5-sigma ratio {worst:.2f})" + (f"; failing {bad}" if bad else ""))
