import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmorep import (
    KolmorepError,
    NumericalFailure,
    RationalizationPolicy,
    SchemaError,
    parse_rational,
    rationalize,
)
from kolmorep.orsay import OrsayConfig, build_suite, naked_vector
from kolmorep.polytope import KolmogorovSpace
from kolmorep.quantum import singlet_density
from kolmorep.serialize import (
    censored_space_to_json,
    distribution_from_json,
    distribution_to_json,
    matrix_from_json,
    matrix_to_json,
    queries_from_json,
    records_to_csv,
    space_from_json,
    space_to_json,
    suite_from_json,
    suite_to_json,
    vector_from_json,
    vector_to_json,
    weights_from_json,
    weights_to_json,
)
from kolmorep.simulation import Trials
from kolmorep import build_censored_space

F = Fraction


# --- rationalization policy ----------------------------------------------------

def test_parse_rational_forms():
    assert parse_rational("3/8") == F(3, 8)
    assert parse_rational("0.375") == F(3, 8)
    assert parse_rational(" 2 ") == F(2)
    assert parse_rational(5) == F(5)
    assert parse_rational(0.375) == F(3, 8)
    assert parse_rational(1 / 3) == F(1, 3)


def test_parse_rational_rejects_garbage():
    for bad in ("3/8/2", "abc", "", None, [1], True):
        with pytest.raises(NumericalFailure):
            parse_rational(bad)


def test_rationalize_respects_tolerance():
    with pytest.raises(NumericalFailure):
        rationalize(0.1234567891, RationalizationPolicy(max_denominator=10))
    assert rationalize(0.1, RationalizationPolicy(max_denominator=10)) == F(1, 10)
    with pytest.raises(NumericalFailure):
        rationalize(float("nan"))


def test_a_policy_without_denominators_is_a_value_error():
    with pytest.raises(ValueError, match="^max denominator must be at least 1$"):
        RationalizationPolicy(max_denominator=0)


def test_strict_policy_accepts_only_binary_decimal_floats():
    strict = RationalizationPolicy(strict=True)
    assert rationalize(0.375, strict) == F(3, 8)  # dyadic
    assert rationalize(0.2, strict) == F(1, 5)  # decimal
    with pytest.raises(NumericalFailure):
        rationalize(1 / 3, strict)
    assert parse_rational("1/3", strict) == F(1, 3)  # strings stay exact


@settings(max_examples=100, deadline=None)
@given(num=st.integers(0, 10**6), den=st.integers(1, 10**6))
def test_fraction_strings_round_trip(num, den):
    q = F(num, den)
    assert parse_rational(str(q)) == q


# --- matrices -------------------------------------------------------------------

def test_matrix_round_trip_complex():
    w = singlet_density()
    again = matrix_from_json(matrix_to_json(w))
    assert np.allclose(again, w.entries)


@pytest.mark.parametrize("dim", [True, False])
def test_matrix_and_suite_reject_a_boolean_dim(dim):
    with pytest.raises(SchemaError, match="'dim' must be int"):
        matrix_from_json({"dim": dim, "entries": [[[1, 0]]]})
    suite = suite_to_json(build_suite(OrsayConfig()))
    suite["dim"] = dim
    with pytest.raises(SchemaError, match="'dim' must be int"):
        suite_from_json(suite)


def test_matrix_schema_errors():
    with pytest.raises(SchemaError):
        matrix_from_json({"dim": 2, "entries": [[[1, 0]]]})
    with pytest.raises(SchemaError):
        matrix_from_json({"entries": []})
    with pytest.raises(SchemaError):
        matrix_from_json({"dim": 1, "entries": [[[1]]]})


@pytest.mark.parametrize("cell", [[True, "0.5"], [True, 0], [0, False], ["1", 0], [1, "0.5"]])
def test_matrix_entries_must_be_json_numbers(cell):
    with pytest.raises(SchemaError, match=r"^matrix: entry \(0,1\) must hold two numbers$"):
        matrix_from_json({"dim": 2, "entries": [[[1, 0], cell], [[0, 0], [1, 0]]]})


def test_matrix_entries_take_ints_and_floats():
    out = matrix_from_json({"dim": 1, "entries": [[[1, 0.5]]]})
    assert out.dtype == complex and out[0, 0] == 1 + 0.5j


# --- vectors ----------------------------------------------------------------------

def test_vector_round_trip_exact():
    vec = naked_vector(OrsayConfig())
    payload = vector_to_json(vec)
    again = vector_from_json(json.loads(json.dumps(payload)))
    assert again.scheme == vec.scheme
    assert all(again[s] == vec[s] for s in vec.scheme.sets)


def test_vector_accepts_value_variants_and_legacy_single_index():
    obj = {
        "n": 2,
        "entries": [
            {"I": 1, "p": "1/2"},
            {"I": [2], "p": 0.25},
            {"I": [1, 2], "p": "0.125"},
        ],
    }
    vec = vector_from_json(obj)
    assert vec[{1}] == F(1, 2)
    assert vec[{2}] == F(1, 4)
    assert vec[{1, 2}] == F(1, 8)


def test_vector_schema_errors():
    with pytest.raises(SchemaError):
        vector_from_json({"n": 2, "entries": [{"I": [], "p": 1}]})
    with pytest.raises(SchemaError):
        vector_from_json({"n": 2, "entries": [{"I": [1], "p": 1}, {"I": [1], "p": 0}]})
    with pytest.raises(KolmorepError):
        vector_from_json({"n": 1, "entries": [{"I": [4], "p": 1}]})


def test_vector_rejects_a_repeated_index_within_one_entry():
    with pytest.raises(SchemaError, match="repeated index"):
        vector_from_json({"n": 2, "entries": [{"I": [1, 1], "p": "1/2"}]})


@pytest.mark.parametrize("index", [[1.7], [1, 2.0], [True], True, ["1"]])
def test_vector_rejects_non_integer_indices(index):
    with pytest.raises(SchemaError, match="integers"):
        vector_from_json({"n": 2, "entries": [{"I": index, "p": "1/2"}]})


@pytest.mark.parametrize("n", [True, False, 2.0, "2"])
def test_vector_rejects_a_non_integer_event_count(n):
    with pytest.raises(SchemaError, match="'n' must be int"):
        vector_from_json({"n": n, "entries": [{"I": [1], "p": "1/2"}]})


# --- weights -----------------------------------------------------------------------

def test_weights_round_trip():
    weights = {(0, 1): F(1, 3), (1, 1): F(2, 3)}
    n, again = weights_from_json(weights_to_json(2, weights))
    assert n == 2
    assert again == weights


def test_weights_reject_duplicate_assignments():
    obj = {"n": 1, "weights": [
        {"eps": [1], "p": "1/2"}, {"eps": [0], "p": "1/2"}, {"eps": [1], "p": "1/2"},
    ]}
    with pytest.raises(SchemaError, match="duplicate"):
        weights_from_json(obj)


@pytest.mark.parametrize("eps", [[0.5, 1], [1, 1.0], [False, 1], ["0", 1]])
def test_weights_reject_non_integer_bits(eps):
    with pytest.raises(SchemaError, match="integers"):
        weights_from_json({"n": 2, "weights": [{"eps": eps, "p": 1}]})


@pytest.mark.parametrize("n", [True, False])
def test_weights_reject_a_boolean_event_count(n):
    with pytest.raises(SchemaError, match="'n' must be int"):
        weights_from_json({"n": n, "weights": [{"eps": [1], "p": 1}]})


# --- suites and distributions ---------------------------------------------------------

def test_suite_round_trip_and_validation():
    suite = build_suite(OrsayConfig())
    again = suite_from_json(json.loads(json.dumps(suite_to_json(suite))))
    assert again.names == suite.names
    assert np.allclose(again.density.entries, suite.density.entries)
    bad = suite_to_json(suite)
    bad["measurements"][0]["projector"]["entries"][0][0] = [0.5, 0.0]
    with pytest.raises(KolmorepError):
        suite_from_json(bad)


def test_a_matrix_row_of_the_wrong_length_is_a_schema_error():
    with pytest.raises(SchemaError, match=r"^density: row 1 must hold 2 \[re, im\] pairs$"):
        matrix_from_json({"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0]]]}, "density")


def test_a_density_of_another_dim_than_the_suite_is_a_schema_error():
    payload = suite_to_json(build_suite(OrsayConfig()))
    payload["dim"] = 2
    with pytest.raises(SchemaError, match="^suite: density dim 4 does not match 2$"):
        suite_from_json(payload)


@pytest.mark.parametrize("contexts, message", [
    ([{"members": [], "weight": 1}], "context 0: members must be non-empty"),
    ([{"members": ["A", "B"], "weight": "1/2"}, {"members": ["B", "A"], "weight": "1/2"}],
     r"context 1: duplicate context \['A', 'B'\]"),
    ([{"members": [None], "weight": 1}], "context 0: no measurement named None"),
    ([{"members": [1], "weight": 1}], "context 0: no measurement named 1"),
])
def test_distribution_schema_errors(contexts, message):
    with pytest.raises(SchemaError, match=f"^{message}$"):
        distribution_from_json({"contexts": contexts}, build_suite(OrsayConfig()))


def test_a_query_that_is_not_an_object_is_a_schema_error():
    with pytest.raises(SchemaError, match="^query 1: expected an object with 'outcomes'/'performed'$"):
        queries_from_json({"queries": [{"outcomes": ["A"]}, ["A"]]})


def test_distribution_round_trip_by_names():
    suite = build_suite(OrsayConfig())
    dist = OrsayConfig().distribution
    payload = distribution_to_json(suite, dist.weights)
    raw = distribution_from_json(payload, suite)
    assert raw == dict(dist.weights)
    with pytest.raises(SchemaError):
        distribution_from_json({"contexts": [{"members": ["Z"], "weight": 1}]}, suite)


def test_distribution_rejects_a_repeated_member_within_one_context():
    suite = build_suite(OrsayConfig())
    with pytest.raises(SchemaError, match="repeated member"):
        distribution_from_json({"contexts": [{"members": ["A", "A"], "weight": 1}]}, suite)


# --- spaces ------------------------------------------------------------------------------

def test_space_round_trip():
    space = KolmogorovSpace(
        ("p", "q"),
        {"p": F(1, 3), "q": F(2, 3)},
        {"E": frozenset({"p"}), "All": frozenset({"p", "q"})},
    )
    again = space_from_json(json.loads(json.dumps(space_to_json(space))))
    assert again == space


@pytest.mark.parametrize("members", [[1, None], ["1", 1], "ab", {"1": "None"}, None, 1])
def test_space_event_members_must_be_a_list_of_point_ids(members):
    # Point ids that the str() of a number, a null or a character would match.
    points = [{"id": pid, "mass": "1/4"} for pid in ("1", "None", "a", "b")]
    with pytest.raises(SchemaError, match=r"^space event 'A': members must be a list of point ids$"):
        space_from_json({"points": points, "events": {"A": members}})


def test_censored_space_json_carries_event_maps():
    cfg = OrsayConfig()
    suite = build_suite(cfg)
    censored = build_censored_space(suite, cfg.distribution)
    payload = censored_space_to_json(censored)
    assert payload["outcome_events"]["A"] == "A"
    assert payload["switch_events"]["A"] == "performed:A"
    assert space_from_json(payload) == censored.space


# --- simulation output ----------------------------------------------------------------------

def test_records_csv_layout():
    # Two contexts with their outcome points; trial 0 saw (A, B) = 10, trial 1 saw (A', B) = 00.
    names = (("A", "B"), ("A'", "B"))
    points = (((1, 1), (1, 0), (0, 1), (0, 0)),) * 2
    trials = Trials(names, points, np.array([0, 1]), np.array([1, 3]))
    text = records_to_csv(trials, seed=7)
    lines = text.strip().splitlines()
    assert lines[0] == "# prng=PCG64 seed=7"
    assert lines[1] == "trial,context,bits"
    assert lines[2] == "0,A+B,10"
    assert lines[3] == "1,A'+B,00"


def test_queries_parsing():
    obj = {"queries": [{"outcomes": ["A"], "performed": []}, {"outcomes": [], "performed": ["B"]}]}
    assert queries_from_json(obj) == [(("A",), ()), ((), ("B",))]
    with pytest.raises(SchemaError):
        queries_from_json({"queries": [{"outcomes": "A"}]})


@pytest.mark.parametrize("value", [None, "A", 1, {"A": 1}])
@pytest.mark.parametrize("key", ["outcomes", "performed"])
def test_query_name_lists_must_be_lists(key, value):
    message = r"^query 0: 'outcomes' and 'performed' must be name lists$"
    with pytest.raises(SchemaError, match=message):
        queries_from_json({"queries": [{key: value}]})


@pytest.mark.parametrize("name", [1, None, True, ["A"]])
@pytest.mark.parametrize("key", ["outcomes", "performed"])
def test_query_names_must_be_strings(key, name):
    message = r"^query 1: 'outcomes' and 'performed' entries must be strings$"
    with pytest.raises(SchemaError, match=message):
        queries_from_json({"queries": [{"outcomes": ["A"]}, {key: ["A", name]}]})
