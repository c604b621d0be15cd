import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmorep import (
    ConjunctionScheme,
    CorrelationVector,
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
from kolmorep.simplex import solve_zero_one_feasibility

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


@pytest.mark.parametrize("values, message", [
    ({frozenset({1}): F(1, 2)}, "^vector values must cover the scheme's sets exactly$"),
    ({frozenset({1}): F(1, 2), frozenset({2}): 0.5}, "^vector values must be Fractions$"),
])
def test_a_vector_off_its_scheme_is_a_scheme_mismatch(values, message):
    with pytest.raises(SchemeMismatch, match=message):
        CorrelationVector(ConjunctionScheme.singletons(2), values)


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
    # the quick separation must agree with a raw LP run on the same system
    rows = [(0, F(1)), (0b01, F(1, 4)), (0b11, F(1, 2))]
    assert not solve_zero_one_feasibility(2, rows).feasible


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


@pytest.mark.parametrize("weight", [float("inf"), float("-inf"), float("nan"), "1/2", None])
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
