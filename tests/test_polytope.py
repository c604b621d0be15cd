import itertools
import random
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmorep import (
    ConjunctionScheme,
    CorrelationVector,
    Decomposition,
    Inside,
    InvalidDistribution,
    KolmogorovSpace,
    Outside,
    SchemeMismatch,
    TooLarge,
    UnknownEvent,
    certificate_is_valid,
    evaluate,
    membership,
    representation_from_weights,
    vertex,
)
from kolmorep import ch, lattice, polytope
from kolmorep.orsay import OrsayConfig, effective_vector
from kolmorep.serialize import vector_to_json
from kolmorep.simplex import solve_zero_one_feasibility
from reference_simplex import solve_zero_one_feasibility as reference_solve

F = Fraction


def pair_scheme(n):
    sets = [{i} for i in range(1, n + 1)]
    sets += [{i, j} for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return ConjunctionScheme.make(n, sets)


def mixture(scheme, weighted_bits):
    values = {s: Fraction(0) for s in scheme.sets}
    for bits, w in weighted_bits:
        for s in scheme.sets:
            if all(bits[i - 1] for i in s):
                values[s] += w
    return CorrelationVector(scheme, values)


def reproduces(weights, p):
    for s in p.scheme.sets:
        total = sum(
            (w for bits, w in weights.items() if all(bits[i - 1] for i in s)),
            Fraction(0),
        )
        if total != p[s]:
            return False
    return True


# --- schemes and vectors -------------------------------------------------------

@pytest.mark.parametrize("n, sets, message", [
    (0, frozenset(), "^scheme needs at least one event$"),
    (2, frozenset({frozenset()}), "^scheme members must be non-empty index sets$"),
    (2, frozenset({(1, 2)}), "^scheme members must be non-empty index sets$"),
])
def test_a_malformed_scheme_is_a_scheme_mismatch(n, sets, message):
    with pytest.raises(SchemeMismatch, match=message):
        ConjunctionScheme(n, sets)


@pytest.mark.parametrize("bad", [True, False, np.True_, 1.0, "1", None])
def test_make_rejects_an_event_index_that_is_not_an_integer(bad):
    with pytest.raises(SchemeMismatch, match=rf"^event index {re.escape(repr(bad))} is not an integer$"):
        ConjunctionScheme.make(2, [{bad}, {2}])


@pytest.mark.parametrize("index", [np.int64(1), np.int32(1), np.uint8(1)])
def test_make_reads_numpy_integer_indices_as_ints(index):
    scheme = ConjunctionScheme.make(2, [{index}, {2}])
    assert scheme == ConjunctionScheme.make(2, [{1}, {2}])
    assert all(type(i) is int for s in scheme.sets for i in s)


@pytest.mark.parametrize("bad", [True, np.int64(1), 1.0])
def test_a_scheme_index_that_is_not_a_plain_int_is_a_scheme_mismatch(bad):
    message = rf"^event index {re.escape(repr(bad))} is not a plain int; build schemes with make$"
    with pytest.raises(SchemeMismatch, match=message):
        ConjunctionScheme(2, frozenset({frozenset({bad}), frozenset({2})}))


@pytest.mark.parametrize("bad", [True, False, np.True_, 2.0, 1.5, "2", None])
def test_make_rejects_an_event_count_that_is_not_an_integer(bad):
    with pytest.raises(SchemeMismatch, match=rf"^event count {re.escape(repr(bad))} is not an integer$"):
        ConjunctionScheme.make(bad, [{1}])
    with pytest.raises(SchemeMismatch, match=rf"^event count {re.escape(repr(bad))} is not an integer$"):
        ConjunctionScheme.singletons(bad)


@pytest.mark.parametrize("bad", [True, np.int64(2), 2.0])
def test_a_scheme_event_count_that_is_not_a_plain_int_is_a_scheme_mismatch(bad):
    message = rf"^event count {re.escape(repr(bad))} is not a plain int; build schemes with make$"
    with pytest.raises(SchemeMismatch, match=message):
        ConjunctionScheme(bad, frozenset({frozenset({1})}))


def test_make_reads_a_numpy_integer_event_count_as_an_int():
    scheme = ConjunctionScheme.make(np.int64(2), [{1}, {2}])
    assert scheme == ConjunctionScheme.make(2, [{1}, {2}])
    assert type(scheme.n) is int


@pytest.mark.parametrize("values, message", [
    ({frozenset({1}): F(1, 2)}, "^vector values must cover the scheme's sets exactly$"),
    ({frozenset({1}): F(1, 2), frozenset({2}): 0.5}, "^vector values must be Fractions$"),
])
def test_a_vector_off_its_scheme_is_a_scheme_mismatch(values, message):
    with pytest.raises(SchemeMismatch, match=message):
        CorrelationVector(ConjunctionScheme.singletons(2), values)


@pytest.mark.parametrize("proposal", [{(1,): F(1, 2), (0,): F(1, 2)}, ((0, 1), (1, 1)), F(1, 2)])
def test_a_proposal_that_is_not_a_decomposition_is_a_scheme_mismatch(proposal):
    with pytest.raises(SchemeMismatch, match=f"^a proposal must be a Decomposition, got {type(proposal).__name__}$"):
        CorrelationVector(ConjunctionScheme.singletons(1), {frozenset({1}): F(1, 2)}, proposal=proposal)


def test_a_vector_lookup_outside_its_scheme_is_a_scheme_mismatch():
    v = CorrelationVector(ConjunctionScheme.singletons(2), {frozenset({1}): F(1, 2), frozenset({2}): F(1, 3)})
    with pytest.raises(SchemeMismatch, match=r"^\[1, 2\] is not part of the scheme$"):
        v[{1, 2}]


def test_a_row_mask_outside_the_assignments_is_a_value_error():
    with pytest.raises(ValueError, match=r"^row mask outside \{0,1\}\^n$"):
        solve_zero_one_feasibility(2, [(4, 1)])


# --- vertices ----------------------------------------------------------------

def test_vertex_all_ones_and_zeros():
    scheme = pair_scheme(3)
    ones = vertex((1, 1, 1), scheme)
    assert all(v == 1 for _, v in ones.items())
    zeros = vertex((0, 0, 0), scheme)
    assert all(v == 0 for _, v in zeros.items())


def test_vertex_mixed_products():
    scheme = ConjunctionScheme.make(
        4, [{1}, {2}, {3}, {4}, {1, 3}, {1, 4}, {2, 3}, {2, 4}]
    )
    v = vertex((1, 0, 1, 0), scheme)
    assert [v[{i}] for i in range(1, 5)] == [1, 0, 1, 0]
    assert v[{1, 3}] == 1
    assert v[{1, 4}] == v[{2, 3}] == v[{2, 4}] == 0


def test_vertex_scheme_mismatch():
    with pytest.raises(SchemeMismatch):
        vertex((1, 0), pair_scheme(3))
    with pytest.raises(SchemeMismatch):
        vertex((1, 2, 0), pair_scheme(3))


# --- membership ---------------------------------------------------------------

def test_vertex_is_inside_with_unit_weight():
    scheme = pair_scheme(4)
    bits = (1, 0, 1, 1)
    verdict = membership(vertex(bits, scheme))
    assert isinstance(verdict, Inside)
    assert verdict.weights == {bits: F(1)}


def test_midpoint_of_vertices_is_inside():
    scheme = pair_scheme(3)
    p = mixture(scheme, [((1, 1, 0), F(1, 2)), ((0, 1, 1), F(1, 2))])
    verdict = membership(p)
    assert isinstance(verdict, Inside)
    assert reproduces(verdict.weights, p)


def test_membership_guard():
    n = 6
    scheme = ConjunctionScheme.singletons(n)
    p = CorrelationVector(scheme, {frozenset({i}): F(1, 2) for i in range(1, n + 1)})
    with pytest.raises(TooLarge):
        membership(p, n_max=5)
    assert isinstance(membership(p, n_max=6), Inside)


def test_monotonicity_violation_yields_valid_certificate_and_agrees_with_lp():
    scheme = ConjunctionScheme.make(2, [{1}, {1, 2}])
    p = CorrelationVector(scheme, {frozenset({1}): F(1, 4), frozenset({1, 2}): F(1, 2)})
    verdict = membership(p)
    assert isinstance(verdict, Outside)
    assert certificate_is_valid(p, verdict)
    # the violated difference row must agree with a raw LP run on the same system
    rows = [(0, F(1)), (0b01, F(1, 4)), (0b11, F(1, 2))]
    assert isinstance(solve_zero_one_feasibility(2, rows), tuple)


def test_certificate_naming_a_set_outside_the_scheme_is_invalid():
    scheme = ConjunctionScheme.singletons(2)
    p = CorrelationVector(scheme, {frozenset({1}): F(3, 2), frozenset({2}): F(0)})
    assert certificate_is_valid(p, Outside({frozenset({1}): F(1)}, F(-1)))
    assert not certificate_is_valid(p, Outside({frozenset({1}): F(1), frozenset({1, 2}): F(0)}, F(-1)))


def test_range_violations_yield_certificates():
    scheme = ConjunctionScheme.singletons(2)
    high = CorrelationVector(scheme, {frozenset({1}): F(3, 2), frozenset({2}): F(0)})
    low = CorrelationVector(scheme, {frozenset({1}): F(1, 2), frozenset({2}): F(-1, 8)})
    for p in (high, low):
        verdict = membership(p)
        assert isinstance(verdict, Outside)
        assert certificate_is_valid(p, verdict)


def test_verdict_class_is_deterministic():
    rng = random.Random(5)
    scheme = pair_scheme(3)
    for _ in range(20):
        values = {s: F(rng.randint(0, 8), 8) for s in scheme.sets}
        p = CorrelationVector(scheme, values)
        first = type(membership(p))
        assert type(membership(p)) is first


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_mixtures_round_trip(data):
    n = data.draw(st.integers(2, 5))
    scheme = pair_scheme(n)
    count = data.draw(st.integers(1, 4))
    supports = data.draw(
        st.lists(
            st.tuples(*([st.integers(0, 1)] * n)), min_size=count, max_size=count, unique=True
        )
    )
    nums = data.draw(st.lists(st.integers(1, 9), min_size=count, max_size=count))
    total = sum(nums)
    weighted = [(bits, F(k, total)) for bits, k in zip(supports, nums)]
    p = mixture(scheme, weighted)

    verdict = membership(p)
    assert isinstance(verdict, Inside)
    assert reproduces(verdict.weights, p)

    space = representation_from_weights(verdict.weights, scheme)
    for s in scheme.sets:
        assert evaluate(space, {f"A{i}" for i in s}) == p[s]


def test_random_vectors_have_sound_witnesses():
    rng = random.Random(11)
    scheme = pair_scheme(4)
    inside = outside = 0
    for _ in range(60):
        values = {s: F(rng.randint(0, 12), 12) for s in scheme.sets}
        p = CorrelationVector(scheme, values)
        verdict = membership(p)
        if isinstance(verdict, Inside):
            inside += 1
            assert reproduces(verdict.weights, p)
            assert sum(verdict.weights.values()) == 1
        else:
            outside += 1
            assert certificate_is_valid(p, verdict)
            values = list(verdict.certificate.values()) + [verdict.offset]
            assert all(v.denominator == 1 for v in values)  # integer-normalized
    assert outside > 0  # uniform draws mostly leave the polytope


def brute_force_valid(p, verdict):
    """The Outside check by its definition: the functional on each of the 2^n vertices, then on the vector."""
    if any(s not in p.scheme.sets for s in verdict.certificate):
        return False
    for eps in range(1 << p.scheme.n):
        switched_on = [c for s, c in verdict.certificate.items() if all(eps >> (i - 1) & 1 for i in s)]
        if sum(switched_on, verdict.offset) > 0:
            return False
    return verdict.gap(p) > 0


def spy_dtypes(monkeypatch):
    """Record the dtype of every array the certificate check transforms."""
    dtypes = []
    transform = lattice.subset_sums
    monkeypatch.setattr(lattice, "subset_sums", lambda a: dtypes.append(a.dtype) or transform(a))
    return dtypes


def test_certificate_check_agrees_with_a_vertex_loop_on_valid_and_corrupted_certificates(monkeypatch):
    rng = random.Random(21)
    dtypes = spy_dtypes(monkeypatch)
    seen = {True: 0, False: 0}
    for _ in range(80):
        scheme = pair_scheme(rng.randint(1, 6))
        p = CorrelationVector(scheme, {s: F(rng.randint(0, 12), 12) for s in scheme.sets})
        verdict = membership(p)
        if isinstance(verdict, Inside):
            continue
        assert certificate_is_valid(p, verdict)
        assert brute_force_valid(p, verdict)
        # One coefficient changed, up or down, possibly to a fraction.
        cert = dict(verdict.certificate)
        s = rng.choice(sorted(cert, key=sorted))
        cert[s] += rng.choice((-1, 1)) * F(rng.randint(1, 4), rng.randint(1, 3))
        broken = Outside(cert, verdict.offset)
        valid = certificate_is_valid(p, broken)
        assert valid == brute_force_valid(p, broken)
        seen[valid] += 1
    assert seen[True] > 0 and seen[False] > 0
    assert set(dtypes) == {np.dtype(np.int64)}


def test_certificate_check_runs_on_python_ints_past_int64(monkeypatch):
    # The pair atom p1 + p2 - p12 <= 1, scaled by a factor past 2^62: its sums leave int64.
    scheme = ConjunctionScheme.make(2, [{1}, {2}, {1, 2}])
    p = CorrelationVector(scheme, {frozenset({1}): F(1), frozenset({2}): F(1), frozenset({1, 2}): F(1, 2)})
    big = F(2**62 + 1)
    valid = Outside({frozenset({1}): big, frozenset({2}): big, frozenset({1, 2}): -big}, -big)
    broken = Outside({frozenset({1}): big, frozenset({2}): big, frozenset({1, 2}): 1 - big}, -big)
    dtypes = spy_dtypes(monkeypatch)
    assert certificate_is_valid(p, valid) and brute_force_valid(p, valid)
    assert not certificate_is_valid(p, broken) and not brute_force_valid(p, broken)
    assert dtypes == [object, object]


def no_simplex(monkeypatch):
    def refuse(*args):
        raise AssertionError("the simplex ran")
    monkeypatch.setattr(polytope, "solve_zero_one_feasibility", refuse)


def test_a_proposal_that_reproduces_its_vector_is_the_inside_verdict(monkeypatch):
    scheme = pair_scheme(3)
    weights = {(1, 0, 1): F(1, 3), (0, 1, 1): F(1, 6), (0, 0, 0): F(1, 2)}
    masks = [lattice.mask(i + 1 for i, b in enumerate(bits) if b) for bits in weights]
    proposal = Decomposition(3, 6, tuple(masks), tuple(int(w * 6) for w in weights.values()))
    p = replace(mixture(scheme, weights.items()), proposal=proposal)
    no_simplex(monkeypatch)
    verdict = membership(p)
    assert isinstance(verdict, Inside) and verdict.weights is proposal and verdict.weights == weights
    assert list(verdict.weights) == [(0, 0, 0), (1, 0, 1), (0, 1, 1)]  # by mask, as the simplex lists them


def test_a_proposal_never_makes_an_outside_vector_inside():
    # p1 = p2 = 1 with p12 = 1/2 breaks the pair atom; the proposal gets p1 and p2 right and p12 wrong.
    scheme = ConjunctionScheme.make(2, [{1}, {2}, {1, 2}])
    p = CorrelationVector(scheme, {frozenset({1}): F(1), frozenset({2}): F(1), frozenset({1, 2}): F(1, 2)},
                          Decomposition(2, 1, (0b11,), (1,)))
    verdict = membership(p)
    assert isinstance(verdict, Outside) and certificate_is_valid(p, verdict)


# --- the row table: differences, pair atoms and triangles ---------------------------

@pytest.mark.parametrize("n", range(1, 6))
def test_every_facet_row_holds_on_every_vertex_of_the_complete_pair_scheme(n):
    scheme = pair_scheme(n)
    differences, pairs, triples = scheme.row_positions
    monotone = sum(a < b for a in scheme.sets for b in scheme.sets)
    assert differences.shape == (2 * len(scheme.sets) + monotone, 2)
    assert pairs.shape == (n * (n - 1) // 2, 4) and triples.shape == (n * (n - 1) * (n - 2) // 6, 7)
    for bits in itertools.product((0, 1), repeat=n):
        p = vertex(bits, scheme)
        values = [int(p.values[s]) for s in scheme.order] + [1, 0]  # then p_empty = 1 and p_never = 0
        for coefficients, gathers in zip(polytope.ROW_FAMILIES, scheme.row_positions):
            for positions in gathers:
                for column in coefficients.T:
                    assert sum(int(c) * values[k] for c, k in zip(column, positions)) <= 0
        # ch's bounded pair rows, on ({i}, {j}, {i, j}).
        for positions in pairs:
            terms = [values[k] for k in positions[:3]]
            for _, coefficients, lower, upper in ch.PAIR_ROWS:
                row = sum(c * x for c, x in zip(coefficients, terms))
                assert (lower is None or lower <= row) and (upper is None or row <= upper)
        assert polytope._row_separation(scheme, np.array(values, dtype=np.int64)) is None


def test_facet_rows_gather_their_sets_in_lexicographic_order():
    scheme = pair_scheme(4)
    m = len(scheme.order)
    names = {m: "empty", m + 1: "never"}
    sets = lambda positions: [names.get(k) or sorted(scheme.order[k]) for k in positions]  # noqa: E731
    differences, pairs, triples = scheme.row_positions
    pair_sets = [[[i], [j], [i, j], "empty"] for i, j in itertools.combinations(range(1, 5), 2)]
    assert [sets(row) for row in pairs] == pair_sets
    assert [sets(row) for row in triples] == [
        [[i], [j], [k], [i, j], [i, k], [j, k], "empty"] for i, j, k in itertools.combinations(range(1, 5), 3)
    ]
    # Range-low and range-high set by set, then p_b <= p_a for every proper subset a of b, by a and then by b.
    ranges = [row for s in scheme.order for row in (["never", sorted(s)], [sorted(s), "empty"])]
    monotone = [[sorted(b), sorted(a)] for a in scheme.order for b in scheme.order if a < b]
    assert [sets(row) for row in differences] == ranges + monotone


def test_a_scheme_without_a_complete_triple_has_no_triangle_rows():
    from kolmorep import ch_scheme
    _, pairs, triples = ch_scheme().row_positions
    assert [sorted(ch_scheme().order[k]) for k in pairs[:, 2]] == [[1, 3], [1, 4], [2, 3], [2, 4]]
    assert triples.shape == (0, 7)
    # A pair whose singletons are missing is not complete either.
    assert ConjunctionScheme.make(3, [{1}, {2}, {1, 2}, {1, 3}, {2, 3}]).row_positions[1].shape == (1, 4)


def test_the_scheme_builds_its_order_masks_and_rows_once_each_and_only_when_read():
    scheme = pair_scheme(3)
    assert scheme.order is scheme.order and scheme.masks is scheme.masks
    assert scheme.row_positions is scheme.row_positions
    assert list(scheme.order) == sorted(scheme.sets, key=lambda s: (len(s), sorted(s)))
    assert scheme.masks == tuple(lattice.mask(s) for s in scheme.order)
    # A vector that is only listed builds its order alone.
    listed = vertex((1, 0, 1), pair_scheme(3))
    vector_to_json(listed)
    assert "order" in listed.scheme.__dict__
    assert "masks" not in listed.scheme.__dict__ and "row_positions" not in listed.scheme.__dict__
    # A vector that its proposal decides never builds the rows.
    effective = effective_vector(OrsayConfig()).vector
    assert membership(effective).weights is effective.proposal
    assert "row_positions" not in effective.scheme.__dict__


def pair_vector(n, singles, pairs):
    scheme = pair_scheme(n)
    return CorrelationVector(scheme, {s: singles if len(s) == 1 else pairs for s in scheme.sets})


TINY = F(1, 2**62)  # numerators over 2^62: six of them leave int64, so the check runs on Python ints
FACET_CASES = [
    # p1 = p2 = 1, p12 = 1/2: the pair atom p1 + p2 - p12 <= 1 fails; range and monotonicity hold.
    (pair_vector(2, F(1), F(1, 2)), {(1,): 1, (2,): 1, (1, 2): -1}, -1),
    (pair_vector(2, 1 - TINY, TINY), {(1,): 1, (2,): 1, (1, 2): -1}, -1),
    # Singletons 1/2 and pairs 0: every pair atom holds, p1 + p2 + p3 - p12 - p13 - p23 <= 1 fails.
    (pair_vector(3, F(1, 2), F(0)), {(1,): 1, (2,): 1, (3,): 1, (1, 2): -1, (1, 3): -1, (2, 3): -1}, -1),
    (pair_vector(4, F(1, 2), TINY), {(1,): 1, (2,): 1, (3,): 1, (1, 2): -1, (1, 3): -1, (2, 3): -1}, -1),
    # p12 = p13 = 1/2 = p1 and p23 = 0: p12 + p13 - p23 <= p1 fails, and the first triangle row holds.
    (CorrelationVector(pair_scheme(3), {frozenset(s): v for s, v in [
        ({1}, F(1, 2)), ({2}, F(1, 2)), ({3}, F(1, 2)), ({1, 2}, F(1, 2)), ({1, 3}, F(1, 2)), ({2, 3}, F(0))]}),
     {(1,): -1, (1, 2): 1, (1, 3): 1, (2, 3): -1}, 0),
]


@pytest.mark.parametrize("p, certificate, offset", FACET_CASES)
def test_a_violated_facet_decides_outside_without_the_simplex(monkeypatch, p, certificate, offset):
    no_simplex(monkeypatch)
    verdict = membership(p)
    assert verdict == Outside({frozenset(s): F(c) for s, c in certificate.items()}, F(offset))
    assert certificate_is_valid(p, verdict) and brute_force_valid(p, verdict)


def singles(*values):
    return CorrelationVector(ConjunctionScheme.singletons(len(values)),
                             {frozenset({i}): v for i, v in enumerate(values, start=1)})


def chain(scheme_sets, values):
    scheme = ConjunctionScheme.make(3, scheme_sets)
    return CorrelationVector(scheme, {frozenset(s): v for s, v in zip(scheme_sets, values)})


# Range-low p_I >= 0 gives {I: -1} with offset 0, range-high p_I <= 1 gives {I: 1} with offset -1, and
# monotonicity p_b <= p_a gives {b: 1, a: -1} with offset 0. Range rows come set by set, before every
# monotonicity row, which come by a and then by b.
DIFFERENCE_CASES = {
    "range-high before a later range-low": (singles(F(3, 2), F(-1, 8)), {(1,): 1}, -1),
    "range-low before a later range-high": (singles(F(1, 2), F(-1, 8), F(3, 2)), {(2,): -1}, 0),
    "range before monotonicity": (chain([{1}, {1, 2}], [F(1, 4), F(3, 2)]), {(1, 2): 1}, -1),
    # p12 > p2 and p13 > p1: a = {1} comes first although {1, 2} comes before {1, 3}.
    "monotonicity by a": (chain([{1}, {2}, {3}, {1, 2}, {1, 3}], [F(1, 2), F(1, 4), F(1), F(3, 8), F(3, 4)]),
                          {(1, 3): 1, (1,): -1}, 0),
    "monotonicity by b within a": (chain([{1}, {1, 2}, {1, 3}], [F(1, 4), F(1, 2), F(1, 2)]), {(1, 2): 1, (1,): -1}, 0),
}
# Numerators over 2^62: seven of them leave int64, so the rows run on Python ints.
PYTHON_INT_CASES = {
    "range-low": (singles(F(1, 2), -TINY), {(2,): -1}, 0),
    "range-high": (singles(1 + TINY, F(1, 2)), {(1,): 1}, -1),
    "monotonicity": (chain([{1}, {1, 2}], [F(1, 2), F(1, 2) + TINY]), {(1, 2): 1, (1,): -1}, 0),
}


@pytest.mark.parametrize("p, certificate, offset", DIFFERENCE_CASES.values(), ids=DIFFERENCE_CASES)
def test_the_first_violated_difference_is_the_exact_witness(monkeypatch, p, certificate, offset):
    no_simplex(monkeypatch)
    verdict = membership(p)
    assert verdict == Outside({frozenset(s): F(c) for s, c in certificate.items()}, F(offset))
    assert list(verdict.certificate) == [frozenset(s) for s in certificate]
    assert certificate_is_valid(p, verdict) and brute_force_valid(p, verdict)


@pytest.mark.parametrize("p, certificate, offset", PYTHON_INT_CASES.values(), ids=PYTHON_INT_CASES)
def test_a_difference_past_int64_is_decided_on_python_ints(monkeypatch, p, certificate, offset):
    no_simplex(monkeypatch)
    dtypes, separate = [], polytope._row_separation
    monkeypatch.setattr(polytope, "_row_separation",
                        lambda scheme, values: dtypes.append(values.dtype) or separate(scheme, values))
    verdict = membership(p)
    assert dtypes == [np.dtype(object)]
    assert verdict == Outside({frozenset(s): F(c) for s, c in certificate.items()}, F(offset))
    assert list(verdict.certificate) == [frozenset(s) for s in certificate]


def test_a_row_bound_past_int64_is_compared_exactly():
    # 1/2 of 100, 1/D of 010 and the rest on 001 lies on p1 + p2 + p3 - p12 - p13 - p23 <= 1. With D = 2^63 + 2
    # the common denominator fits uint64 but not int64; a bound read as a float (2^63) would reject it.
    D = 2**63 + 2
    p = mixture(pair_scheme(3), [((1, 0, 0), F(1, 2)), ((0, 1, 0), F(1, D)), ((0, 0, 1), F(1, 2) - F(1, D))])
    verdict = membership(p)
    assert isinstance(verdict, Inside) and reproduces(verdict.weights, p)


def nudged_mixture(rng, n, nudge):
    """A random mixture of three vertices of the pair scheme, one pair value moved by 1/16 when ``nudge``."""
    scheme = pair_scheme(n)
    weights = [F(rng.randint(1, 6)) for _ in range(3)]
    p = mixture(scheme, [(tuple(rng.randint(0, 1) for _ in range(n)), w / sum(weights)) for w in weights])
    if not nudge:
        return p
    values = dict(p.values)
    s = rng.choice(sorted((s for s in scheme.sets if len(s) == 2), key=sorted))
    step = F(rng.choice((1, -1)), 16)
    values[s] += step if 0 <= values[s] + step <= 1 else -step
    return CorrelationVector(scheme, values)


def test_facet_verdicts_agree_with_the_reference_simplex_and_their_witnesses_check(monkeypatch):
    rng = random.Random(25)
    witnesses = []
    separate = polytope._row_separation
    monkeypatch.setattr(polytope, "_row_separation", lambda *args: witnesses.append(separate(*args)) or witnesses[-1])
    decided = 0
    for n in range(2, 7):
        for k in range(8):
            p = nudged_mixture(rng, n, nudge=k % 4 != 0)
            verdict = membership(p)
            rows = [(0, F(1))] + [(lattice.mask(s), p.values[s]) for s in p.scheme.order]
            assert isinstance(verdict, Inside) == isinstance(reference_solve(n, rows), dict)
            if witnesses and witnesses[-1] is verdict:
                decided += len(verdict.certificate) >= 3  # a pair atom or a triangle, not a difference
                assert certificate_is_valid(p, verdict) and brute_force_valid(p, verdict)
    assert decided >= 8


# --- spaces ---------------------------------------------------------------------

def test_uniform_two_bit_space():
    # enumeration by hand: each of the four assignments carries 1/4
    scheme = ConjunctionScheme.make(2, [{1}, {2}, {1, 2}])
    weights = {bits: F(1, 4) for bits in ((0, 0), (0, 1), (1, 0), (1, 1))}
    space = representation_from_weights(weights, scheme)
    assert evaluate(space, {"A1"}) == F(1, 2)
    assert evaluate(space, {"A2"}) == F(1, 2)
    assert evaluate(space, {"A1", "A2"}) == F(1, 4)
    assert evaluate(space, set()) == 1


def test_one_point_space():
    scheme = ConjunctionScheme.singletons(3)
    space = representation_from_weights({(1, 1, 1): F(1)}, scheme)
    assert space.points == ("111",)
    for i in (1, 2, 3):
        assert evaluate(space, {f"A{i}"}) == 1


def test_space_validation():
    scheme = ConjunctionScheme.singletons(2)
    with pytest.raises(InvalidDistribution):
        representation_from_weights({(1, 1): F(1, 2)}, scheme)
    with pytest.raises(InvalidDistribution):
        representation_from_weights({(1, 1): F(3, 2), (0, 0): F(-1, 2)}, scheme)
    with pytest.raises(SchemeMismatch):
        representation_from_weights({(1, 1, 1): F(1)}, scheme)


def test_representation_reads_finite_float_weights_exactly():
    space = representation_from_weights({(1, 0): 0.25, (0, 1): F(3, 4)}, ConjunctionScheme.singletons(2))
    assert space.mass == {"01": F(3, 4), "10": F(1, 4)}
    assert all(isinstance(m, Fraction) for m in space.mass.values())


@pytest.mark.parametrize("weight", [float("inf"), float("-inf"), float("nan"), "1/2", None, True])
def test_representation_rejects_weights_that_are_not_finite_numbers(weight):
    message = rf"^weight for assignment \(1, 0\) must be a finite number, got {re.escape(repr(weight))}$"
    with pytest.raises(InvalidDistribution, match=message):
        representation_from_weights({(1, 0): weight, (0, 1): F(1, 2)}, ConjunctionScheme.singletons(2))


def test_representation_rejects_two_keys_for_one_assignment():
    scheme = ConjunctionScheme.singletons(2)
    with pytest.raises(InvalidDistribution, match=r"^duplicate weight for assignment \(1, 0\)$"):
        # bytes((1, 0)) iterates as the bits 1, 0 but is a distinct dict key; (True, False) would equal (1, 0).
        representation_from_weights({(1, 0): F(1, 2), bytes((1, 0)): F(1, 2)}, scheme)


@pytest.mark.parametrize("bits", [(0.5,), (1.7,), ("1",), (2,), (-1,)])
def test_representation_rejects_bits_that_are_not_zero_or_one(bits):
    message = rf"^weight key {re.escape(repr(bits))} is not an n-bit assignment$"
    with pytest.raises(SchemeMismatch, match=message):
        representation_from_weights({bits: F(1)}, ConjunctionScheme.singletons(1))


@pytest.mark.parametrize("points, mass, events, error, message", [
    (("x", "x"), {"x": F(1)}, {}, InvalidDistribution, "duplicate point identifiers"),
    (("x", "y"), {"x": F(1)}, {}, InvalidDistribution, "masses must cover the points exactly"),
    (("x",), {"x": F(1)}, {"E": frozenset({"x", "z"})}, UnknownEvent, "event 'E' references unknown points"),
    (("x",), {"x": float("inf")}, {}, InvalidDistribution, "mass of point 'x' must be a finite number, got inf"),
    (("x",), {"x": float("nan")}, {}, InvalidDistribution, "mass of point 'x' must be a finite number, got nan"),
    (("x",), {"x": "1"}, {}, InvalidDistribution, "mass of point 'x' must be a finite number, got '1'"),
    (("x",), {"x": None}, {}, InvalidDistribution, "mass of point 'x' must be a finite number, got None"),
    (("x",), {"x": True}, {}, InvalidDistribution, "mass of point 'x' must be a finite number, got True"),
])
def test_kolmogorov_space_validation(points, mass, events, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        KolmogorovSpace(points, mass, events)


@pytest.mark.parametrize("event, kind", [(["x"], "list"), (("x",), "tuple"), ("x", "str")])
def test_an_event_that_is_not_a_set_is_unknown(event, kind):
    with pytest.raises(UnknownEvent, match=f"^event 'E' must be a set of point ids, got {kind}$"):
        KolmogorovSpace(("x",), {"x": F(1)}, {"E": event})


def test_evaluate_unknown_event():
    space = KolmogorovSpace(("x",), {"x": F(1)}, {"E": frozenset({"x"})})
    assert evaluate(space, {"E"}) == 1
    with pytest.raises(UnknownEvent):
        evaluate(space, {"F"})


def test_mass_must_sum_to_one():
    with pytest.raises(InvalidDistribution):
        KolmogorovSpace(("x", "y"), {"x": F(1, 2), "y": F(1, 3)}, {})


def test_negative_mass_is_rejected():
    with pytest.raises(InvalidDistribution, match="non-negative"):
        KolmogorovSpace(("x", "y"), {"x": F(3, 2), "y": F(-1, 2)}, {})
    with pytest.raises(InvalidDistribution, match="non-negative"):
        KolmogorovSpace(("x", "y"), {"x": 2, "y": -1}, {})


@pytest.mark.parametrize("mass", [
    {"x": 1, "y": 0},
    {"x": 0, "y": F(1, 3), "z": F(2, 3)},
    {"x": F(1, 6), "y": F(1, 10), "z": F(11, 15)},
    {"x": 0.25, "y": 0.75},
])
def test_integer_fraction_and_dyadic_float_masses_that_sum_to_one(mass):
    space = KolmogorovSpace(tuple(mass), mass, {"E": frozenset({"x"})})
    assert evaluate(space, {"E"}) == mass["x"]


@pytest.mark.parametrize("mass", [
    {"x": 1, "y": 1},
    {"x": 1, "y": F(1, 2)},
    {"x": F(1, 6), "y": F(1, 10), "z": F(11, 16)},
    {"x": 0.1, "y": 0.9},  # their float sum rounds to 1.0; their exact values sum to 1 + 2^-55
    {},
])
def test_masses_that_do_not_sum_to_one_are_rejected(mass):
    with pytest.raises(InvalidDistribution, match="sum to one"):
        KolmogorovSpace(tuple(mass), mass, {})
