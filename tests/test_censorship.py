import inspect
import json
import random
import re
import time
from dataclasses import fields, replace
from fractions import Fraction
from itertools import combinations
from math import cos, lcm, pi, radians

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmorep import (
    DEFAULT_POLICY,
    IncompatibleContext,
    IncompatibleSupport,
    Inside,
    InvalidDistribution,
    KolmorepError,
    MeasurementSuite,
    NumericalFailure,
    Operator,
    Outside,
    RationalizationPolicy,
    SchemeMismatch,
    TooLarge,
    UnknownEvent,
    assemble_effective_vector,
    born,
    build_censored_space,
    certificate_is_valid,
    commutes,
    compute_compatibility,
    context_space,
    effective_decomposition,
    effective_probability,
    evaluate,
    membership,
    rationalize,
    switch_probability,
    validate_distribution,
    verify_censorship,
)
from kolmorep import censorship, polytope, simulation
from kolmorep.censorship import CensoredSpace, SetupDistribution
from kolmorep.lattice import Decomposition
from kolmorep.polytope import ConjunctionScheme, KolmogorovSpace
from kolmorep import orsay
from kolmorep.quantum import direction, identity, singlet_density, spin_projector_up, tensor
from kolmorep.serialize import (
    distribution_from_json,
    suite_from_json,
    suite_to_json,
    vector_from_json,
    vector_to_json,
)

from helpers import random_censorship_case, random_diagonal_suite, random_setup, random_suite
from reference_censorship import verify_censorship as reference_verify

F = Fraction

# Orsay angles (degrees) whose singlet masses are irrational.
GENERIC_ANGLES = [(37, 0, 0, 200), (45, 0, 10, 100), (33, 71, 12, 250)]


@pytest.fixture(scope="module")
def orsay_setup():
    cfg = orsay.OrsayConfig()
    suite = cfg.suite
    dist = cfg.distribution
    return suite, dist


def diagonal_suite():
    """Three commuting diagonal projectors: the compatibility lattice is full."""
    w = Operator(np.diag([0.25, 0.25, 0.25, 0.25]), tags=("density",))
    p1 = Operator(np.diag([1.0, 1.0, 0.0, 0.0]), tags=("projector",))
    p2 = Operator(np.diag([1.0, 0.0, 1.0, 0.0]), tags=("projector",))
    p3 = Operator(np.diag([1.0, 1.0, 1.0, 0.0]), tags=("projector",))
    return MeasurementSuite.make(w, [("M1", p1), ("M2", p2), ("M3", p3)])


# --- suite validation ------------------------------------------------------------

DENSITY2 = Operator(np.diag([0.5, 0.5]), tags=("density",))
PROJ2 = Operator(np.diag([1.0, 0.0]), tags=("projector",))
PROJ4 = Operator(np.diag([1.0, 0.0, 0.0, 0.0]), tags=("projector",))
PLAIN2 = Operator(np.diag([1.0, 0.0]))  # a projector matrix without the validated tag


@pytest.mark.parametrize("density, pairs, message", [
    (DENSITY2, [("A", PROJ2), ("", PROJ2)], "measurement names must be non-empty"),
    (DENSITY2, [("A", PROJ2), (None, PROJ2)], "measurement names must be non-empty"),
    (DENSITY2, [("A", PROJ2), ("B", PLAIN2)], "measurement 'B' needs a validated projector"),
    (PLAIN2, [("A", PROJ2)], "suite state must be a validated density operator"),
    (DENSITY2, [("A", PROJ2), ("A", PROJ2)], "measurement names must be unique"),
    (DENSITY2, [("A", PROJ2), ("B", PROJ4)], "measurement 'B' has dim 4, state has dim 2"),
    # The first failing check fires: each measurement's name, then its projector, in order ...
    (PLAIN2, [("A", PLAIN2), ("", PROJ4)], "measurement 'A' needs a validated projector"),
    (PLAIN2, [("A", PROJ4), ("", PLAIN2)], "measurement names must be non-empty"),
    # ... then the density, the uniqueness of the names and the dims.
    (PLAIN2, [("A", PROJ4), ("A", PROJ4)], "suite state must be a validated density operator"),
    (DENSITY2, [("A", PROJ4), ("A", PROJ2)], "measurement names must be unique"),
    (DENSITY2, [("A", PROJ2), ("B", PROJ4), ("C", PROJ4)], "measurement 'B' has dim 4, state has dim 2"),
])
def test_suite_validation_errors(density, pairs, message):
    with pytest.raises(KolmorepError, match=f"^{message}$") as info:
        MeasurementSuite.make(density, pairs)
    assert type(info.value) is KolmorepError


@pytest.mark.parametrize("name, message", [
    (1, "measurement name 1 is not a string"),
    (("A",), r"measurement name \('A',\) is not a string"),
    (None, "measurement names must be non-empty"),
    ("", "measurement names must be non-empty"),
])
def test_a_measurement_name_must_be_a_non_empty_string(name, message):
    with pytest.raises(KolmorepError, match=f"^{message}$") as info:
        MeasurementSuite.make(DENSITY2, [(name, PROJ2)])
    assert type(info.value) is KolmorepError


def test_a_suite_needs_one_name_per_projector():
    with pytest.raises(KolmorepError, match="^2 measurement names for 1 projectors$") as info:
        MeasurementSuite(DENSITY2, ("A", "B"), (PROJ2,))
    assert type(info.value) is KolmorepError


def _first_suite_error(density, pairs):
    """The message of the first suite check that fails, in the order the suite checks."""
    for name, proj in pairs:
        if not name:
            return "measurement names must be non-empty"
        if not isinstance(name, str):
            return f"measurement name {name!r} is not a string"
        if not proj.has_tag("projector"):
            return f"measurement {name!r} needs a validated projector"
    if not density.has_tag("density"):
        return "suite state must be a validated density operator"
    names = [name for name, _ in pairs]
    if len(set(names)) != len(names):
        return "measurement names must be unique"
    for name, proj in pairs:
        if proj.dim != density.dim:
            return f"measurement {name!r} has dim {proj.dim}, state has dim {density.dim}"
    return None


@settings(max_examples=200, deadline=None)
@given(
    density=st.sampled_from([DENSITY2, PLAIN2]),
    pairs=st.lists(st.tuples(st.sampled_from(["", None, 1, "A", "B", "C"]), st.sampled_from([PROJ2, PROJ4, PLAIN2])),
                   max_size=4),
)
def test_suite_validation_fires_the_first_failing_check(density, pairs):
    expected = _first_suite_error(density, pairs)
    if expected is None:
        suite = MeasurementSuite.make(density, pairs)
        assert suite.names == tuple(name for name, _ in pairs)
        assert [suite.proj(i) for i in range(1, suite.n + 1)] == [proj for _, proj in pairs]
        return
    with pytest.raises(KolmorepError) as info:
        MeasurementSuite.make(density, pairs)
    assert type(info.value) is KolmorepError and str(info.value) == expected


# --- compatibility -------------------------------------------------------------

def pair_family(*pairs):
    return frozenset(frozenset(p) for p in pairs)


def supports(suite, context) -> bool:
    """Whether weight 1 on `context` validates; False when its measurements do not commute."""
    try:
        dist = validate_distribution({frozenset(context): F(1)}, suite)
    except IncompatibleSupport as err:
        assert str(err) == f"context {sorted(context)} carries weight 1 but its measurements do not commute"
        return False
    assert dist.support == (frozenset(context),)
    return True


def assert_not_a_context(suite, context):
    message = rf"^context \[{', '.join(map(str, sorted(context)))}\] is not a non-empty subset of 1\.\.{suite.n}$"
    with pytest.raises(InvalidDistribution, match=message):
        validate_distribution({frozenset(context): F(1)}, suite)


def test_diagonal_projectors_full_power_set():
    suite = diagonal_suite()
    assert compute_compatibility(suite) is suite
    assert suite.commuting_pairs == pair_family({1, 2}, {1, 3}, {2, 3})
    assert all(supports(suite, s) for s in ({1}, {2, 3}, {1, 2, 3}))
    for s in (set(), {1, 4}, {0}):
        assert_not_a_context(suite, s)


def test_orsay_compatibility(orsay_setup):
    suite, _ = orsay_setup
    assert compute_compatibility(suite) is suite
    assert suite.commuting_pairs == pair_family({1, 3}, {1, 4}, {2, 3}, {2, 4})
    assert all(supports(suite, s) for s in ({1}, {2}, {3}, {4}, {1, 3}, {2, 4}))
    assert not supports(suite, {1, 2}) and not supports(suite, {1, 3, 4})
    for s in (set(), {5}):
        assert_not_a_context(suite, s)


def test_single_measurement_structure():
    w = Operator(np.diag([0.5, 0.5]), tags=("density",))
    suite = MeasurementSuite.make(w, [("M", Operator(np.diag([1.0, 0.0]), tags=("projector",)))])
    assert compute_compatibility(suite) is suite
    assert suite.commuting_pairs == frozenset()
    assert supports(suite, {1})
    for s in (set(), {2}):
        assert_not_a_context(suite, s)


def test_membership_is_every_pair_commuting_on_random_suites():
    rng = random.Random(47)
    for _ in range(12):
        suite, _, _ = random_suite(rng, rng.choice((2, 4)), rng.randint(2, 5))
        assert compute_compatibility(suite) is suite
        for k in range(1, suite.n + 1):
            for s in combinations(range(1, suite.n + 1), k):
                expected = all(commutes(suite.proj(i), suite.proj(j)) for i, j in combinations(s, 2))
                assert supports(suite, s) == expected


def test_each_pair_is_tested_once_per_suite(monkeypatch):
    calls = []
    real_commutes = censorship.commutes

    def counted(x, y):
        calls.append(1)
        return real_commutes(x, y)

    monkeypatch.setattr(censorship, "commutes", counted)
    cfg = orsay.OrsayConfig()
    suite = orsay.build_suite(cfg)
    for _ in range(2):
        dist = validate_distribution(dict(zip(orsay.CONTEXTS, cfg.weights)), suite)
        build_censored_space(suite, dist)
    assert len(calls) == suite.n * (suite.n - 1) // 2


def test_suites_share_one_frozenset_per_pair():
    first = orsay.build_suite(orsay.OrsayConfig())
    second = orsay.build_suite(orsay.OrsayConfig.from_degrees(GENERIC_ANGLES[0]))
    assert first.commuting_pairs == second.commuting_pairs == pair_family({1, 3}, {1, 4}, {2, 3}, {2, 4})
    shared = {tuple(sorted(pair)): pair for pair in first.commuting_pairs}
    for pair in second.commuting_pairs:
        assert type(pair) is frozenset and pair is shared[tuple(sorted(pair))]


# --- setup distributions ---------------------------------------------------------

def test_validate_distribution_accepts_orsay(orsay_setup):
    suite, dist = orsay_setup
    assert sum(dist.weights.values()) == 1
    assert len(dist.support) == 4


def test_validate_distribution_rejects_a_context_listed_twice(orsay_setup):
    suite = orsay_setup[0]
    with pytest.raises(InvalidDistribution, match=r"^duplicate context \[1, 3\]$"):
        validate_distribution({(1, 3): F(1, 2), (3, 1): F(1, 2)}, suite)


@pytest.mark.parametrize("context", [(), (1, 5), (0,)])
def test_validate_distribution_rejects_an_empty_or_out_of_range_context(orsay_setup, context):
    suite = orsay_setup[0]
    message = rf"^context \[{', '.join(map(str, sorted(context)))}\] is not a non-empty subset of 1\.\.4$"
    with pytest.raises(InvalidDistribution, match=message):
        validate_distribution({context: F(1)}, suite)


@pytest.mark.parametrize("context", [1, frozenset({1, "A"}), (1, 3.0), (True, 3), (1, np.True_), "13"])
def test_validate_distribution_rejects_a_context_that_is_not_a_set_of_integers(orsay_setup, context):
    suite = orsay_setup[0]
    message = rf"^context {re.escape(repr(context))} is not a set of integer measurement indices$"
    with pytest.raises(InvalidDistribution, match=message):
        validate_distribution({context: F(1)}, suite)


def test_validate_distribution_reads_numpy_integer_contexts_as_ints(orsay_setup):
    suite = orsay_setup[0]
    dist = validate_distribution({(np.int64(1), np.int64(3)): F(1, 2), (np.int32(2), 4): F(1, 2)}, suite)
    assert dist.weights == {frozenset({1, 3}): F(1, 2), frozenset({2, 4}): F(1, 2)}
    assert all(type(i) is int for j in dist.weights for i in j)


@pytest.mark.parametrize("weight", [float("inf"), float("nan"), "1/2", True])
def test_validate_distribution_rejects_weights_that_are_not_finite_numbers(orsay_setup, weight):
    suite = orsay_setup[0]
    message = rf"^weight on context \[1, 3\] must be a finite number, got {re.escape(repr(weight))}$"
    with pytest.raises(InvalidDistribution, match=message):
        validate_distribution({frozenset({1, 3}): weight, frozenset({2, 4}): F(1, 2)}, suite)


def test_validate_distribution_reads_finite_floats_exactly(orsay_setup):
    suite = orsay_setup[0]
    dist = validate_distribution({frozenset({1, 3}): 0.75, frozenset({2, 4}): 0.25}, suite)
    assert dist.weights == {frozenset({1, 3}): F(3, 4), frozenset({2, 4}): F(1, 4)}


def test_a_hand_built_distribution_with_float_weights_is_an_invalid_distribution(orsay_setup):
    suite = orsay_setup[0]
    message = r"^weight 0\.5 on context \[1, 3\] is not a Fraction; build weights with validate_distribution$"
    with pytest.raises(InvalidDistribution, match=message):
        build_censored_space(suite, SetupDistribution({frozenset({1, 3}): 0.5, frozenset({2, 4}): 0.5}))


@pytest.mark.parametrize("weights, message", [
    ({frozenset({1, 3}): F(3, 2), frozenset({2, 4}): F(-1, 2)}, r"^negative weight -1/2 on context \[2, 4\]$"),
    ({frozenset({1, 3}): F(1, 2)}, r"^context weights must sum to one$"),
])
def test_a_hand_built_distribution_with_a_negative_weight_or_a_wrong_sum_is_invalid(weights, message):
    with pytest.raises(InvalidDistribution, match=message):
        SetupDistribution(weights)


@pytest.mark.parametrize("context, message", [
    (frozenset({"A"}), r"^context frozenset\(\{'A'\}\) is not a set of integer measurement indices$"),
    (frozenset({True}), r"^context frozenset\(\{True\}\) is not a set of integer measurement indices$"),
    (frozenset({3, np.True_}), r"^context frozenset\(\{.*True.*\}\) is not a set of integer measurement indices$"),
    (frozenset({1.0}), r"^context frozenset\(\{1\.0\}\) is not a set of integer measurement indices$"),
    (frozenset(), r"^context frozenset\(\) is not a set of integer measurement indices$"),
    ((1, 3), r"^context \(1, 3\) is not a set of integer measurement indices$"),
], ids=["string", "bool", "numpy bool", "float", "empty", "tuple"])
def test_a_hand_built_context_that_is_not_a_non_empty_frozenset_of_integers_is_invalid(context, message):
    with pytest.raises(InvalidDistribution, match=message):
        SetupDistribution({frozenset({2, 4}): F(1, 2), context: F(1, 2)})
    with pytest.raises(InvalidDistribution, match=message):  # with no weight, too
        SetupDistribution({frozenset({2, 4}): F(1), context: F(0)})


def test_a_hand_built_distribution_reads_numpy_integer_contexts(orsay_setup):
    suite = orsay_setup[0]
    dist = SetupDistribution({frozenset({np.int64(1), np.int32(3)}): F(1)})
    assert dist.index_range == (1, 3) and effective_probability(suite, dist, [1], [3]) == suite.moment([1])
    assert verify_censorship(build_censored_space(suite, dist), suite, dist).ok


CHECKS_THE_SUPPORT = {
    "effective_probability": lambda suite, censored, dist: effective_probability(suite, dist, [1], []),
    "verify_censorship": lambda suite, censored, dist: verify_censorship(censored, suite, dist),
    "build_censored_space": lambda suite, censored, dist: build_censored_space(suite, dist),
    "simulation.run": lambda suite, censored, dist: simulation.run(suite, dist, 10, 0),
}


@pytest.mark.parametrize("call", CHECKS_THE_SUPPORT.values(), ids=CHECKS_THE_SUPPORT)
@pytest.mark.parametrize("context, index", [({9}, 9), ({0, 1}, 0), ({1, 5}, 5), ({2, 5}, 5), ({0}, 0)])
def test_effective_probability_refuses_a_supported_context_outside_the_suite(orsay_setup, call, context, index):
    suite, orsay_dist = orsay_setup
    censored = build_censored_space(suite, orsay_dist)
    dist = SetupDistribution({frozenset({1, 3}): F(1, 2), frozenset(context): F(1, 2)})
    message = rf"^a supported context names measurement {index}, outside the suite's 1\.\.4$"
    with pytest.raises(InvalidDistribution, match=message):
        call(suite, censored, dist)
    # A context with no weight is not part of the support and names nothing.
    call(suite, censored, SetupDistribution({frozenset({1, 3}): F(1), frozenset(context): F(0)}))
    assert effective_probability(suite, SetupDistribution({frozenset({1, 3}): F(1), frozenset(context): F(0)}),
                                 [], [1]) == 1


def test_validate_distribution_rejects_incompatible_mass(orsay_setup):
    suite, _ = orsay_setup
    with pytest.raises(IncompatibleSupport):
        validate_distribution({frozenset({1, 2}): F(1, 2), frozenset({1, 3}): F(1, 2)}, suite)


def test_validate_distribution_rejects_bad_sums(orsay_setup):
    suite, _ = orsay_setup
    with pytest.raises(InvalidDistribution):
        validate_distribution({frozenset({1, 3}): F(1, 2)}, suite)
    with pytest.raises(InvalidDistribution):
        validate_distribution(
            {frozenset({1, 3}): F(3, 2), frozenset({1, 4}): F(-1, 2)}, suite
        )


def test_point_mass_on_single_context(orsay_setup):
    suite, _ = orsay_setup
    dist = validate_distribution({frozenset({1, 3}): F(1)}, suite)
    assert dist.support == (frozenset({1, 3}),)


def test_support_is_the_sorted_positive_weight_contexts_found_once(orsay_setup):
    suite, _ = orsay_setup
    weights = {frozenset({2, 4}): F(1, 2), frozenset({1, 4}): F(0), frozenset({2, 3}): F(1, 4), frozenset({1, 3}): F(1, 4)}
    dist = validate_distribution(weights, suite)
    support = dist.support
    assert support == (frozenset({1, 3}), frozenset({2, 3}), frozenset({2, 4}))
    assert dist.support is support


def test_switch_probability(orsay_setup):
    _, dist = orsay_setup
    assert switch_probability(dist, {1}) == F(1, 2)
    assert switch_probability(dist, {1, 3}) == F(1, 4)
    assert switch_probability(dist, {1, 2}) == F(0)
    assert switch_probability(dist, set()) == F(1)


# --- moments -------------------------------------------------------------------------

def count_born_calls(monkeypatch):
    calls = []
    real_born = censorship.born

    def counted(w, projectors):
        calls.append(len(projectors))
        return real_born(w, projectors)

    monkeypatch.setattr(censorship, "born", counted)
    return calls


def test_moment_is_computed_once_per_set(monkeypatch):
    calls = count_born_calls(monkeypatch)
    suite = diagonal_suite()
    assert suite.moment(()) == 1
    assert suite.moment({1, 2}) == F(1, 4)
    assert suite.moment([2, 1]) == F(1, 4)
    assert calls == [2]  # none for the empty set
    assert set(suite._moments) == {0, 0b011}  # keyed by bitmask


def test_censor_pipeline_calls_born_once_per_compatible_set(monkeypatch):
    calls = count_born_calls(monkeypatch)
    cfg = orsay.OrsayConfig()
    suite = cfg.suite
    dist = cfg.distribution
    censored = build_censored_space(suite, dist)
    report = verify_censorship(censored, suite, dist, max_order=2 * suite.n)
    assert report.ok and report.checked == 256
    assert len(calls) == 8  # four singletons, four cross pairs


# --- context spaces ---------------------------------------------------------------

def test_context_space_masses(orsay_setup):
    suite, _ = orsay_setup
    ab = context_space({1, 3}, suite)
    assert [ab.mass[p] for p in ab.points] == [F(3, 8), F(1, 8), F(1, 8), F(3, 8)]
    assert ab.points == ("11", "10", "01", "00")
    a2b = context_space({2, 3}, suite)
    assert [a2b.mass[p] for p in a2b.points] == [F(0), F(1, 2), F(1, 2), F(0)]


def test_context_space_identity_projector():
    w = Operator(np.diag([0.5, 0.5]), tags=("density",))
    suite = MeasurementSuite.make(w, [("M", Operator(np.eye(2), tags=("projector",)))])
    space = context_space({1}, suite)
    assert [space.mass[p] for p in space.points] == [F(1), F(0)]


def test_context_space_rejects_an_empty_context(orsay_setup):
    with pytest.raises(IncompatibleContext, match="^a context needs at least one measurement$"):
        context_space(set(), orsay_setup[0])


def test_context_space_rejects_incompatible(orsay_setup):
    suite, _ = orsay_setup
    with pytest.raises(IncompatibleContext):
        context_space({1, 2}, suite)


def index_error(bad) -> str:
    """The message an Orsay suite gives for the bad measurement index `bad`."""
    if isinstance(bad, int) and not isinstance(bad, bool):
        return rf"^no measurement with index {bad}: the suite has 4, indexed 1\.\.4$"
    return rf"^measurement index {re.escape(repr(bad))} is not an integer$"


@pytest.mark.parametrize("context, bad", [
    ({0, 3}, 0), ({0}, 0), ({5}, 5), ({-1, 2}, -1),
    ({"A"}, "A"), ({1.0, 3}, 1.0), ({True}, True), ({1, "A"}, "A"), ({np.float64(3)}, np.float64(3)),
])
def test_context_space_rejects_an_index_outside_the_suite(orsay_setup, context, bad):
    suite, _ = orsay_setup
    with pytest.raises(KolmorepError, match=index_error(bad)) as info:
        context_space(context, suite)
    assert type(info.value) is KolmorepError


@pytest.mark.parametrize("index_set, bad", [
    ({0}, 0), ({5}, 5), ({-1, 2}, -1), ({1.0}, 1.0), ({"A"}, "A"), ({True}, True), ({np.True_}, np.True_),
])
def test_moment_rejects_an_index_outside_the_suite(orsay_setup, index_set, bad):
    suite, _ = orsay_setup
    with pytest.raises(KolmorepError, match=index_error(bad)) as info:
        suite.moment(index_set)
    assert type(info.value) is KolmorepError


@pytest.mark.parametrize("bad", [True, False, 1.0, "1", None])
def test_proj_and_name_of_reject_a_non_integer_index(orsay_setup, bad):
    suite, _ = orsay_setup
    for lookup in (suite.proj, suite.name_of):
        with pytest.raises(KolmorepError, match=index_error(bad)) as info:
            lookup(bad)
        assert type(info.value) is KolmorepError


def test_numpy_integer_indices_read_as_ints(orsay_setup):
    suite, _ = orsay_setup
    assert suite.name_of(np.int64(3)) == suite.name_of(3)
    assert suite.moment({np.int64(1), np.int32(3)}) == suite.moment({1, 3})
    assert context_space({np.int64(1), np.int64(3)}, suite) == context_space({1, 3}, suite)


@pytest.mark.parametrize("outcomes, switches, bad", [({0}, set(), 0), ({5}, set(), 5), ({1}, {5}, 5)])
def test_effective_probability_rejects_an_index_outside_the_suite(orsay_setup, outcomes, switches, bad):
    suite, dist = orsay_setup
    with pytest.raises(KolmorepError, match=index_error(bad)) as info:
        effective_probability(suite, dist, outcomes, switches)
    assert type(info.value) is KolmorepError


def test_negative_derived_atom_is_a_numerical_failure():
    w = Operator(np.diag([0.6, 0.2, 0.2, 0.0]), tags=("density",))
    a = Operator(np.diag([1.0, 1.0, 0.0, 0.0]), tags=("projector",))
    b = Operator(np.diag([1.0, 0.0, 1.0, 0.0]), tags=("projector",))
    coarse = RationalizationPolicy(tolerance=0.25, max_denominator=2)
    suite = MeasurementSuite.make(w, [("A", a), ("B", b)], coarse)
    assert [suite.moment(s) for s in ({1}, {2}, {1, 2})] == [1, 1, F(1, 2)]
    # atom 00 = 1 - 1 - 1 + 1/2
    with pytest.raises(NumericalFailure, match="negative atom -1/2"):
        context_space({1, 2}, suite)


def test_negative_atom_is_named_as_a_fraction_in_lowest_terms():
    w = Operator(np.diag([0.58, 0.21, 0.205, 0.005]), tags=("density",))
    a = Operator(np.diag([1.0, 1.0, 0.0, 0.0]), tags=("projector",))
    b = Operator(np.diag([1.0, 0.0, 1.0, 0.0]), tags=("projector",))
    coarse = RationalizationPolicy(tolerance=0.02, max_denominator=7)
    suite = MeasurementSuite.make(w, [("A", a), ("B", b)], coarse)
    assert [suite.moment(s) for s in ({1}, {2}, {1, 2})] == [F(4, 5), F(4, 5), F(4, 7)]
    # atom 00 = 1 - 4/5 - 4/5 + 4/7, over the moments' common denominator 35
    message = r"^context \['A', 'B'\] has a negative atom -1/35: its rationalized moments admit no distribution$"
    with pytest.raises(NumericalFailure, match=message):
        context_space({1, 2}, suite)


COARSE = RationalizationPolicy(tolerance=1e-3, max_denominator=100)


def test_a_suite_built_under_a_coarse_policy_is_consistent_end_to_end(monkeypatch):
    cfg = orsay.OrsayConfig.from_degrees((37, 0, 0, 200), policy=COARSE)
    suite = cfg.suite
    dist = cfg.distribution

    def coarse_moment(index_set):
        return rationalize(max(born(suite.density, [suite.proj(i) for i in sorted(index_set)]), 0.0), COARSE)

    default = orsay.build_suite(orsay.OrsayConfig.from_degrees((37, 0, 0, 200)))
    assert any(coarse_moment(c) != default.moment(c) for c in orsay.CONTEXTS)  # the policy matters here

    report = verify_censorship(build_censored_space(suite, dist), suite, dist, max_order=2 * suite.n)
    assert report.ok and report.checked == 256
    subsets = [frozenset(c) for r in range(5) for c in combinations(range(1, 5), r)]
    for i1 in subsets:
        for i2 in subsets:
            weight = switch_probability(dist, i1 | i2)
            expected = weight * coarse_moment(i1) if weight and i1 else weight
            assert effective_probability(suite, dist, i1, i2) == expected

    sampled = []
    real_sampler = simulation._integer_sampler

    def recording_sampler(rng, weights, size):
        sampled.append(list(weights))
        return real_sampler(rng, weights, size)

    monkeypatch.setattr(simulation, "_integer_sampler", recording_sampler)
    trials = simulation.run(suite, dist, 400, seed=3)
    locals_ = [context_space(c, suite) for c in dist.support]
    assert trials.points == tuple(tuple(tuple(map(int, p)) for p in local.points) for local in locals_)
    assert sampled == [[dist.weights[c] for c in dist.support]] + [
        [local.mass[p] for p in local.points] for local in locals_
    ]


def test_suite_from_json_and_orsay_build_suite_carry_the_policy():
    cfg = orsay.OrsayConfig.from_degrees((37, 0, 0, 200))
    built = orsay.build_suite(orsay.OrsayConfig.from_degrees((37, 0, 0, 200), policy=COARSE))
    read = suite_from_json(suite_to_json(built), COARSE)
    assert built.policy == read.policy == COARSE
    assert orsay.build_suite(cfg).policy == suite_from_json(suite_to_json(built)).policy == DEFAULT_POLICY
    # On the singlet, A and B both fire with probability (1 - cos theta) / 4, theta = 37 degrees here.
    assert read.moment({1, 3}) == built.moment({1, 3}) == rationalize((1 - cos(radians(37))) / 4, COARSE)
    assert built.moment({1, 3}).denominator <= 100 < orsay.build_suite(cfg).moment({1, 3}).denominator


def test_no_censorship_or_simulation_function_takes_a_policy():
    for module in (censorship, orsay, simulation):
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                assert "policy" not in inspect.signature(obj).parameters, name
    for method in (MeasurementSuite.moment, MeasurementSuite._mask_moment, distribution_from_json):
        assert "policy" not in inspect.signature(method).parameters, method.__name__
    assert [f.name for f in fields(orsay.OrsayConfig)] == ["angles", "weights", "policy"]


@pytest.mark.parametrize("angles", GENERIC_ANGLES)
def test_generic_angle_context_marginals_are_the_moments(angles):
    suite = orsay.build_suite(orsay.OrsayConfig.from_degrees(angles))
    for context in orsay.CONTEXTS:
        local = context_space(context, suite)
        members = sorted(context)
        for r in range(len(members) + 1):  # r = 0: the atoms sum to one
            for sub in combinations(members, r):
                assert evaluate(local, [suite.name_of(i) for i in sub]) == suite.moment(sub)


def test_context_space_event_sets(orsay_setup):
    suite, _ = orsay_setup
    ab = context_space({1, 3}, suite)
    assert ab.events["A"] == frozenset({"11", "10"})
    assert ab.events["B"] == frozenset({"11", "01"})


# --- effective probabilities --------------------------------------------------------

def test_effective_probability_values(orsay_setup):
    suite, dist = orsay_setup
    assert effective_probability(suite, dist, {1}, set()) == F(1, 4)
    assert effective_probability(suite, dist, {1, 3}, set()) == F(3, 32)
    assert effective_probability(suite, dist, {1}, {3}) == F(1, 8)
    assert effective_probability(suite, dist, {1}, {2}) == F(0)
    assert effective_probability(suite, dist, set(), {3}) == F(1, 2)
    assert effective_probability(suite, dist, set(), set()) == F(1)


def test_effective_marginalization_identities(orsay_setup):
    suite, dist = orsay_setup
    from kolmorep.quantum import born
    from kolmorep.rational import rationalize

    for i2 in ({3}, {3, 4}, {1, 3}):
        assert effective_probability(suite, dist, set(), i2) == switch_probability(dist, i2)
    for i1 in ({1}, {1, 3}):
        expected = switch_probability(dist, i1) * rationalize(
            born(suite.density, [suite.proj(i) for i in sorted(i1)])
        )
        assert effective_probability(suite, dist, i1, set()) == expected


# --- censored spaces -----------------------------------------------------------------

def test_censored_space_total_and_size(orsay_setup):
    suite, dist = orsay_setup
    censored = build_censored_space(suite, dist)
    assert len(censored.space.points) == 16
    assert sum(censored.space.mass.values()) == 1


def test_outcome_events_sit_inside_switch_events(orsay_setup):
    suite, dist = orsay_setup
    censored = build_censored_space(suite, dist)
    for name in suite.names:
        outcome = censored.space.events[censored.outcome_events[name]]
        switch = censored.space.events[censored.switch_events[name]]
        assert outcome <= switch


def test_incompatible_joint_events_have_zero_mass(orsay_setup):
    suite, dist = orsay_setup
    censored = build_censored_space(suite, dist)
    # measurements 1 and 2 (same side) never share a context
    joint = evaluate(
        censored.space,
        [censored.outcome_events["A"], censored.switch_events["A'"]],
    )
    assert joint == 0


def test_point_mass_censored_space_matches_context(orsay_setup):
    suite, _ = orsay_setup
    dist = validate_distribution({frozenset({1, 3}): F(1)}, suite)
    censored = build_censored_space(suite, dist)
    local = context_space({1, 3}, suite)
    assert len(censored.space.points) == 4
    for pid in local.points:
        assert censored.space.mass[f"A,B|{pid}"] == local.mass[pid]
    # switch events cover everything when only one context exists
    assert censored.space.events[censored.switch_events["A"]] == frozenset(censored.space.points)


def test_two_disjoint_contexts_mix_by_half():
    w = Operator(np.diag([0.25, 0.25, 0.25, 0.25]), tags=("density",))
    p1 = Operator(np.diag([1.0, 1.0, 0.0, 0.0]), tags=("projector",))
    p2 = Operator(np.diag([1.0, 0.0, 1.0, 0.0]), tags=("projector",))
    suite = MeasurementSuite.make(w, [("M1", p1), ("M2", p2)])
    dist = validate_distribution(
        {frozenset({1}): F(1, 2), frozenset({2}): F(1, 2)}, suite
    )
    censored = build_censored_space(suite, dist)
    for i, name in ((1, "M1"), (2, "M2")):
        local = context_space({i}, suite)
        for pid in local.points:
            assert censored.space.mass[f"{name}|{pid}"] == local.mass[pid] / 2


def glued_context_spaces(suite, dist):
    """Points, masses, outcome and switch events of ``context_space(J)`` glued over the support, kappa_J each."""
    points, mass = [], {}
    outcome, switch = ({x: set() for x in suite.names} for _ in range(2))
    for context in dist.support:
        local = context_space(context, suite)
        label = ",".join(suite.name_of(i) for i in sorted(context))
        ids = [f"{label}|{pid}" for pid in local.points]
        points += ids
        mass.update((f"{label}|{pid}", dist.weights[context] * local.mass[pid]) for pid in local.points)
        for name, hits in local.events.items():
            outcome[name] |= {f"{label}|{pid}" for pid in hits}
            switch[name] |= set(ids)
    return points, mass, outcome, switch


def test_build_censored_space_glues_the_context_spaces():
    rng = random.Random(2207)
    cfg = orsay.OrsayConfig()
    cases = [(cfg.suite, cfg.distribution)] + [orsay_case(angles) for angles in GENERIC_ANGLES]
    cases += [random_censorship_case(rng, n_range=(n, n))[:2] for n in (1, 2, 3, 4, 5)]
    for suite, dist in cases:
        censored = build_censored_space(suite, dist)
        points, mass, outcome, switch = glued_context_spaces(suite, dist)
        space = censored.space
        assert space.points == tuple(points)
        assert [space.mass[p] for p in space.points] == [mass[p] for p in points]
        assert all(type(space.mass[p]) is Fraction for p in space.points)
        for x in suite.names:
            assert space.events[censored.outcome_events[x]] == outcome[x]
            assert space.events[censored.switch_events[x]] == switch[x]


def test_names_that_collide_with_switch_event_keys_are_rejected():
    w = Operator(np.diag([0.5, 0.5]), tags=("density",))
    p = Operator(np.diag([1.0, 0.0]), tags=("projector",))
    suite = MeasurementSuite.make(w, [("A", p), ("performed:A", p)])
    dist = validate_distribution({frozenset({1, 2}): F(1)}, suite)
    with pytest.raises(KolmorepError, match="^measurement names collide with switch event keys$") as info:
        build_censored_space(suite, dist)
    assert type(info.value) is KolmorepError


def test_contexts_whose_joined_names_coincide_are_rejected():
    w = Operator(np.diag([0.5, 0.5]), tags=("density",))
    p = Operator(np.diag([1.0, 0.0]), tags=("projector",))
    suite = MeasurementSuite.make(w, [("A,B", p), ("C", p), ("A", p), ("B,C", p)])
    dist = validate_distribution({frozenset({1, 2}): F(1, 2), frozenset({3, 4}): F(1, 2)}, suite)
    message = r"^contexts \['A,B', 'C'\] and \['A', 'B,C'\] share the point label 'A,B,C'$"
    with pytest.raises(KolmorepError, match=message) as info:
        build_censored_space(suite, dist)
    assert type(info.value) is KolmorepError


def test_a_non_commuting_moment_below_tolerance_is_a_numerical_failure():
    psi = np.array([1.0, -2.0]) / np.sqrt(5)
    w = Operator(np.outer(psi, psi), tags=("density",))
    p = Operator(np.diag([1.0, 0.0]), tags=("projector",))  # |0><0|
    q = Operator(np.full((2, 2), 0.5), tags=("projector",))  # |+><+|
    suite = MeasurementSuite.make(w, [("P", p), ("Q", q)])
    with pytest.raises(NumericalFailure, match=r"^trace value (\S+) is negative beyond tolerance$") as info:
        suite.moment({1, 2})
    assert float(str(info.value).split()[2]) == pytest.approx(-0.1)


def test_verify_censorship_rejects_a_space_without_an_event_key(orsay_setup):
    suite, dist = orsay_setup
    censored = build_censored_space(suite, dist)
    events = {k: v for k, v in censored.space.events.items() if k != "A'"}
    space = KolmogorovSpace(censored.space.points, censored.space.mass, events)
    broken = CensoredSpace(space, censored.outcome_events, censored.switch_events)
    with pytest.raises(UnknownEvent, match="^no event named \"A'\"$"):
        verify_censorship(broken, suite, dist)


def test_verify_censorship_clean(orsay_setup):
    suite, dist = orsay_setup
    censored = build_censored_space(suite, dist)
    report = verify_censorship(censored, suite, dist, max_order=8)
    assert report.ok
    assert report.checked == 256
    assert report.max_order == 8


def test_verify_censorship_flags_corruption(orsay_setup):
    suite, dist = orsay_setup
    censored = build_censored_space(suite, dist)
    mass = dict(censored.space.mass)
    # move mass between two atoms of one context: totals stay 1, cells lie
    mass["A,B|11"] += F(1, 32)
    mass["A,B|00"] -= F(1, 32)
    broken = CensoredSpace(
        KolmogorovSpace(censored.space.points, mass, censored.space.events),
        censored.outcome_events,
        censored.switch_events,
    )
    report = verify_censorship(broken, suite, dist, max_order=8)
    assert not report.ok
    flagged = {(m.outcomes, m.switches) for m in report.mismatches}
    assert ((1, 3), ()) in flagged


# --- effective vectors ------------------------------------------------------------------

def test_assemble_effective_vector(orsay_setup):
    suite, dist = orsay_setup
    scheme = ConjunctionScheme.make(8, [{i} for i in range(1, 9)] + [{1, 6}, {5, 7}, {5, 6}])
    eff = assemble_effective_vector(suite, dist, scheme)
    assert eff.vector[{5}] == F(1, 2)  # pure switch single
    assert eff.vector[{5, 7}] == F(1, 4)  # pure switch pair
    assert eff.vector[{5, 6}] == F(0)  # incompatible switches
    assert eff.vector[{1, 6}] == F(0)  # outcome with the conflicting same-side switch
    assert eff.label(1) == "A"
    assert eff.label(5) == "performed:A"


def pairs_and_singletons(m):
    sets = [{i} for i in range(1, m + 1)]
    return ConjunctionScheme.make(m, sets + [{i, j} for i in range(1, m + 1) for j in range(i + 1, m + 1)])


def assert_entries_match_effective_probability(suite, dist, scheme):
    n = suite.n
    eff = assemble_effective_vector(suite, dist, scheme)
    for s in scheme.sets:
        i1 = {i for i in s if i <= n}
        i2 = {i - n for i in s if i > n}
        assert eff.vector[s] == effective_probability(suite, dist, i1, i2), sorted(s)


@pytest.mark.parametrize("angles", [orsay.DEFAULT_ANGLES_DEG, (0.0, 60.0, 120.0, 180.0)])
def test_assembled_entries_equal_effective_probability_orsay(angles):
    cfg = orsay.OrsayConfig.from_degrees(angles)
    suite = cfg.suite
    dist = cfg.distribution
    assert_entries_match_effective_probability(suite, dist, pairs_and_singletons(8))


def test_assembled_entries_equal_effective_probability_random_suites():
    rng = random.Random(31)
    for _ in range(4):
        suite, _, _ = random_suite(rng, rng.choice((2, 4)), rng.randint(2, 4))
        dist = random_setup(rng, suite)
        m = 2 * suite.n
        triples = [{i, j, k} for i in range(1, m + 1) for j in range(i + 1, m + 1) for k in range(j + 1, m + 1)]
        scheme = ConjunctionScheme.make(m, [set(s) for s in pairs_and_singletons(m).sets] + triples)
        assert_entries_match_effective_probability(suite, dist, scheme)


@pytest.mark.parametrize("index", [0, 9, -1])
def test_effective_vector_label_rejects_an_index_outside_the_events(orsay_setup, index):
    suite, dist = orsay_setup
    eff = assemble_effective_vector(suite, dist, ConjunctionScheme.singletons(8))
    with pytest.raises(SchemeMismatch, match=rf"^event index {index} outside 1\.\.8$"):
        eff.label(index)


def test_assemble_effective_vector_scheme_guard(orsay_setup):
    suite, dist = orsay_setup
    with pytest.raises(SchemeMismatch):
        assemble_effective_vector(suite, dist, ConjunctionScheme.singletons(4))


# --- randomized property: the construction always verifies -------------------------------

def test_random_suites_verify_and_land_inside():
    rng = random.Random(2024)
    for _ in range(25):
        suite, dist, oracle = random_censorship_case(rng)
        for context in dist.support:
            members = sorted(context)
            local = context_space(context, suite)
            for pid in local.points:
                bits = tuple(int(ch) for ch in pid)
                assert local.mass[pid] == oracle[context][bits]
        censored = build_censored_space(suite, dist)
        report = verify_censorship(censored, suite, dist, max_order=2 * suite.n)
        assert report.ok, report.mismatches[:3]
        if suite.n <= 4:
            sets = [{i} for i in range(1, 2 * suite.n + 1)]
            sets += [
                {i, j}
                for i in range(1, 2 * suite.n + 1)
                for j in range(i + 1, 2 * suite.n + 1)
            ]
            eff = assemble_effective_vector(
                suite, dist, ConjunctionScheme.make(2 * suite.n, sets)
            )
            assert isinstance(membership(eff.vector), Inside)


# --- the superset-sum verification against the pairwise reference --------------------------

def orders(n):
    return sorted({1, 3, 2 * n})


def assert_same_reports(censored, suite, dist):
    for order in orders(suite.n):
        report = verify_censorship(censored, suite, dist, max_order=order)
        assert report == reference_verify(censored, suite, dist, max_order=order), order
    return report


def random_cases():
    rng = random.Random(606)
    return [random_censorship_case(rng, n_range=(n, n)) for n in range(1, 7) for _ in range(2)]


def orsay_case(angles):
    cfg = orsay.OrsayConfig.from_degrees(angles)
    return cfg.suite, cfg.distribution


def test_verify_equals_reference_on_random_suites():
    for suite, dist, _oracle in random_cases():
        report = assert_same_reports(build_censored_space(suite, dist), suite, dist)
        assert report.ok and report.checked == 4**suite.n


def record_dtypes(monkeypatch):
    """Spy on the arrays verify_censorship allocates: one dtype per np.zeros call."""
    dtypes = []
    zeros = np.zeros

    def spy(shape, dtype=float):
        dtypes.append(dtype)
        return zeros(shape, dtype=dtype)

    monkeypatch.setattr(censorship.np, "zeros", spy)
    return dtypes


@pytest.mark.parametrize("angles, dtype", [(orsay.DEFAULT_ANGLES_DEG, np.int64), ((37, 0, 0, 200), object)])
def test_verify_equals_reference_on_orsay_suites(monkeypatch, angles, dtype):
    suite, dist = orsay_case(angles)
    censored = build_censored_space(suite, dist)
    dtypes = record_dtypes(monkeypatch)
    assert_same_reports(censored, suite, dist)
    assert set(dtypes) - {bool} == {dtype}


def test_verify_on_python_ints_equals_reference(monkeypatch):
    monkeypatch.setattr(censorship, "INT64_MAX", 2**5)
    for suite, dist, _oracle in random_cases()[::3]:
        assert_same_reports(build_censored_space(suite, dist), suite, dist)


def corrupted(censored, how):
    """Three ways a glued space can lie: moved mass, a lost outcome point, a short switch event."""
    space = censored.space
    mass, events = dict(space.mass), dict(space.events)
    if how == "moved mass":
        heavy = max(space.points, key=mass.get)
        other = next(p for p in space.points if p != heavy)
        mass[heavy] -= space.mass[heavy] / 3
        mass[other] += space.mass[heavy] / 3
    else:
        keys = censored.outcome_events if how == "dropped outcome point" else censored.switch_events
        key = max(keys.values(), key=lambda k: max((mass[p] for p in events[k]), default=0))
        # Ties go to the first point in the space's order, so every process drops the same one.
        events[key] = events[key] - {max((p for p in space.points if p in events[key]), key=mass.get)}
    return CensoredSpace(KolmogorovSpace(space.points, mass, events), censored.outcome_events, censored.switch_events)


@pytest.mark.parametrize("how", ["moved mass", "dropped outcome point", "shrunken switch event"])
def test_verify_equals_reference_on_corrupted_spaces(how):
    cases = random_cases()[4:] + [orsay_case(orsay.DEFAULT_ANGLES_DEG) + (None,)]
    for suite, dist, _oracle in cases:
        broken = corrupted(build_censored_space(suite, dist), how)
        assert not assert_same_reports(broken, suite, dist).ok


def test_each_corruption_picks_the_same_points_in_every_process():
    # At these angles A',B'|11 and A',B'|00 weigh the same: the first in the space's order is dropped.
    censored = build_censored_space(*orsay_case((33, 71, 12, 250)))
    space = censored.space
    changes = {}
    for how in ["moved mass", "dropped outcome point", "shrunken switch event"]:
        broken = corrupted(censored, how).space
        moved = [p for p in space.points if broken.mass[p] != space.mass[p]]
        dropped = {name: space.events[name] - ev for name, ev in broken.events.items() if ev != space.events[name]}
        changes[how] = moved, dropped
    assert changes == {
        "moved mass": (["A,B|11", "A',B'|11"], {}),
        "dropped outcome point": ([], {"A'": {"A',B'|11"}}),
        "shrunken switch event": ([], {f"{censorship.SWITCH_EVENT_PREFIX}A'": {"A',B'|11"}}),
    }


def assert_same_reports_at_every_order(censored, suite, dist):
    reports = []
    for order in range(1, 2 * suite.n + 1):
        reports.append(verify_censorship(censored, suite, dist, max_order=order))
        assert reports[-1] == reference_verify(censored, suite, dist, max_order=order), order
    return reports


def small_cases():
    rng = random.Random(909)
    cases = [random_censorship_case(rng, n_range=(n, n)) for n in range(2, 6)]
    return [(suite, dist) for suite, dist, _oracle in cases] + [orsay_case(orsay.DEFAULT_ANGLES_DEG)]


def moved_context(censored, suite, dist):
    """The points of the first support context, switched into the second one's measurements instead."""
    source, target = dist.support[:2]
    space = censored.space
    label = ",".join(suite.name_of(i) for i in sorted(source)) + "|"
    moved = frozenset(p for p in space.points if p.startswith(label))
    events = dict(space.events)
    for i in range(1, suite.n + 1):
        key = censored.switch_events[suite.name_of(i)]
        events[key] = events[key] - moved | (moved if i in target else frozenset())
    return CensoredSpace(KolmogorovSpace(space.points, space.mass, events), censored.outcome_events,
                         censored.switch_events)


def stray_switch(censored, suite, dist):
    """The heaviest point also lies in the switch event of a measurement outside its context."""
    context = dist.support[0]
    outside = next(i for i in range(1, suite.n + 1) if i not in context)
    space = censored.space
    label = ",".join(suite.name_of(i) for i in sorted(context)) + "|"
    point = max((p for p in space.points if p.startswith(label)), key=space.mass.get)
    events = dict(space.events)
    key = censored.switch_events[suite.name_of(outside)]
    events[key] = events[key] | {point}
    return CensoredSpace(KolmogorovSpace(space.points, space.mass, events), censored.outcome_events,
                         censored.switch_events)


def test_verify_equals_reference_at_every_order_on_valid_suites():
    for suite, dist in small_cases():
        reports = assert_same_reports_at_every_order(build_censored_space(suite, dist), suite, dist)
        assert all(report.ok for report in reports)


@pytest.mark.parametrize("how", ["moved mass", "dropped outcome point", "shrunken switch event"])
def test_verify_equals_reference_at_every_order_on_corrupted_spaces(how):
    for suite, dist in small_cases():
        broken = corrupted(build_censored_space(suite, dist), how)
        assert not assert_same_reports_at_every_order(broken, suite, dist)[-1].ok


def test_verify_equals_reference_when_a_context_lost_its_points_to_another():
    cases = [(suite, dist) for suite, dist in small_cases() if len(dist.support) >= 2]
    assert len(cases) >= 3
    for suite, dist in cases:
        broken = moved_context(build_censored_space(suite, dist), suite, dist)
        assert not assert_same_reports_at_every_order(broken, suite, dist)[-1].ok


def test_verify_equals_reference_when_a_point_has_a_switch_mask_outside_the_support():
    cases = [(suite, dist) for suite, dist in small_cases() if len(dist.support[0]) < suite.n]
    assert len(cases) >= 3
    for suite, dist in cases:
        broken = stray_switch(build_censored_space(suite, dist), suite, dist)
        assert not assert_same_reports_at_every_order(broken, suite, dist)[-1].ok


@pytest.mark.parametrize("int64_max, dtype", [(None, np.int64), (2**5, object)])
def test_verify_equals_reference_at_every_order_on_both_dtypes(monkeypatch, int64_max, dtype):
    if int64_max is not None:
        monkeypatch.setattr(censorship, "INT64_MAX", int64_max)
    dtypes = record_dtypes(monkeypatch)
    for suite, dist in small_cases()[::2]:
        censored = build_censored_space(suite, dist)
        assert_same_reports_at_every_order(censored, suite, dist)
        assert_same_reports_at_every_order(corrupted(censored, "moved mass"), suite, dist)
    assert set(dtypes) - {bool} == {dtype}


def test_a_broken_space_lists_the_reference_mismatches_from_the_rows():
    suite, dist = orsay_case(orsay.DEFAULT_ANGLES_DEG)
    broken = corrupted(build_censored_space(suite, dist), "moved mass")
    report = verify_censorship(broken, suite, dist)
    assert not report.ok
    assert report == reference_verify(broken, suite, dist, max_order=2 * suite.n)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_verify_equals_reference_on_random_corruptions(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    suite, dist, _oracle = random_censorship_case(rng, dim_choices=(2, 4), n_range=(1, 4))
    censored = build_censored_space(suite, dist)
    space = censored.space
    mass, events = dict(space.mass), dict(space.events)
    points = st.sampled_from(space.points)
    for _ in range(data.draw(st.integers(1, 3))):
        how = data.draw(st.sampled_from(["moved mass", "outcome flip", "switch flip"]))
        if how == "moved mass":
            source, target = data.draw(points), data.draw(points)
            moved = mass[source] * F(data.draw(st.integers(1, 4)), 4)
            mass[source] -= moved
            mass[target] += moved
        else:
            keys = censored.outcome_events if how == "outcome flip" else censored.switch_events
            key = keys[data.draw(st.sampled_from(suite.names))]
            events[key] = events[key] ^ {data.draw(points)}
    broken = CensoredSpace(KolmogorovSpace(space.points, mass, events), censored.outcome_events,
                           censored.switch_events)
    order = data.draw(st.integers(1, 2 * suite.n))
    assert verify_censorship(broken, suite, dist, max_order=order) == reference_verify(
        broken, suite, dist, max_order=order)


def wide_case(*contexts):
    """The 16-measurement diagonal suite with equal weights on the given contexts."""
    suite = random_diagonal_suite(16)
    weights = {frozenset(j): F(1, len(contexts)) for j in contexts}
    return suite, validate_distribution(weights, suite)


def test_sixteen_measurements_verify_at_full_order():
    suite, dist = wide_case({1, 2, 3}, {3, 9, 16})
    report = verify_censorship(build_censored_space(suite, dist), suite, dist)
    assert report.ok and report.max_order == 32 and report.checked == 4**16


def test_sixteen_measurements_list_each_mismatch_as_the_pairwise_check_does():
    suite, dist = wide_case({1, 2, 3}, {3, 9, 16})
    broken = corrupted(build_censored_space(suite, dist), "dropped outcome point")
    report = verify_censorship(broken, suite, dist)
    assert not report.ok and report.checked == 4**16
    for hit in report.mismatches:
        names = [broken.outcome_events[suite.name_of(i)] for i in hit.outcomes]
        names += [broken.switch_events[suite.name_of(j)] for j in hit.switches]
        assert hit.found == evaluate(broken.space, names) != hit.expected
        assert hit.expected == effective_probability(suite, dist, hit.outcomes, hit.switches)


def test_more_switch_rows_than_the_guard_are_too_large_before_any_array(monkeypatch):
    w = Operator(np.diag([0.5, 0.5]), tags=("density",))
    p = Operator(np.diag([1.0, 0.0]), tags=("projector",))
    suite = MeasurementSuite.make(w, [(f"M{i}", p) for i in range(1, 24)])
    dist = validate_distribution({frozenset({1}): F(1)}, suite)
    censored = build_censored_space(suite, dist)
    assert 1 << suite.n > censorship.MAX_COMPARED
    calls = count_born_calls(monkeypatch)
    monkeypatch.setattr(censorship, "np", None)  # any array construction would raise AttributeError
    with pytest.raises(TooLarge, match="1 switch rows of 2\\^23 entries"):
        verify_censorship(censored, suite, dist)
    assert calls == []


def all_hits_halved(censored, suite, k):
    """Half the mass of the all-hit point of context {1..k} moved to its all-miss point.

    Every non-empty outcome column of the context then disagrees: 2^k - 1 of them.
    """
    mass = dict(censored.space.mass)
    label = ",".join(suite.names[:k])
    moved = mass[f"{label}|{'1' * k}"] / 2
    mass[f"{label}|{'1' * k}"] -= moved
    mass[f"{label}|{'0' * k}"] += moved
    return CensoredSpace(KolmogorovSpace(censored.space.points, mass, censored.space.events),
                         censored.outcome_events, censored.switch_events)


def test_more_disagreeing_columns_than_the_guard_are_too_large_before_the_listing(monkeypatch):
    suite, dist = wide_case(range(1, 8))
    broken = all_hits_halved(build_censored_space(suite, dist), suite, 7)
    assert 127 << suite.n > censorship.MAX_COMPARED
    dtypes = record_dtypes(monkeypatch)
    with pytest.raises(TooLarge, match="127 disagreeing columns"):
        verify_censorship(broken, suite, dist)
    assert len(dtypes) == 3  # the decision's rows, weights and moments; no listing array


def test_each_guard_admits_exactly_its_bound(monkeypatch):
    suite = diagonal_suite()
    dist = validate_distribution({frozenset({1, 2, 3}): F(1)}, suite)
    censored = build_censored_space(suite, dist)
    broken = all_hits_halved(censored, suite, 3)
    # One switch row of 8 entries; 7 disagreeing columns of 8 entries when broken.
    monkeypatch.setattr(censorship, "MAX_COMPARED", 8)
    assert verify_censorship(censored, suite, dist).ok
    monkeypatch.setattr(censorship, "MAX_COMPARED", 7)
    with pytest.raises(TooLarge, match="1 switch rows"):
        verify_censorship(censored, suite, dist)
    monkeypatch.setattr(censorship, "MAX_COMPARED", 56)
    assert verify_censorship(broken, suite, dist) == reference_verify(broken, suite, dist, max_order=6)
    monkeypatch.setattr(censorship, "MAX_COMPARED", 55)
    with pytest.raises(TooLarge, match="7 disagreeing columns"):
        verify_censorship(broken, suite, dist)


@pytest.mark.parametrize("order", [0, -1])
def test_verify_rejects_max_order_below_one(orsay_setup, order):
    suite, dist = orsay_setup
    with pytest.raises(KolmorepError, match="at least 1"):
        verify_censorship(build_censored_space(suite, dist), suite, dist, max_order=order)


@pytest.mark.parametrize("order", [1.5, 2.0, F(2), True, np.True_, "2"])
def test_verify_rejects_a_max_order_that_is_not_an_integer(orsay_setup, order):
    suite, dist = orsay_setup
    with pytest.raises(KolmorepError, match=rf"^max_order {re.escape(repr(order))} is not an integer$"):
        verify_censorship(build_censored_space(suite, dist), suite, dist, max_order=order)


def test_verify_reads_a_numpy_integer_max_order_as_an_int(orsay_setup):
    suite, dist = orsay_setup
    report = verify_censorship(build_censored_space(suite, dist), suite, dist, max_order=np.int64(2))
    assert report == verify_censorship(build_censored_space(suite, dist), suite, dist, max_order=2)
    assert type(report.max_order) is int and report.max_order == 2


def test_verify_defaults_to_full_order(orsay_setup):
    suite, dist = orsay_setup
    report = verify_censorship(build_censored_space(suite, dist), suite, dist)
    assert report.ok and report.max_order == 8 and report.checked == 256


def decomposition_reproduces(decomposition, vector):
    return all(
        sum((w for bits, w in decomposition.weights.items() if all(bits[i - 1] for i in s)), F(0)) == value
        for s, value in vector.values.items()
    )


def test_effective_decomposition_reproduces_the_effective_vector():
    cases = random_cases() + [orsay_case(orsay.DEFAULT_ANGLES_DEG) + (None,)]
    for suite, dist, _oracle in cases:
        decomposition = effective_decomposition(build_censored_space(suite, dist), suite)
        assert sum(decomposition.weights.values()) == 1
        assert all(w > 0 and len(bits) == 2 * suite.n for bits, w in decomposition.weights.items())
        eff = assemble_effective_vector(suite, dist, pairs_and_singletons(2 * suite.n))
        assert decomposition_reproduces(decomposition, eff.vector)


# --- the censored proposal ----------------------------------------------------------------

def test_the_proposal_is_the_censored_spaces_decomposition():
    cases = [(suite, dist) for suite, dist, _oracle in random_cases()]
    cases += [orsay_case(angles) for angles in (orsay.DEFAULT_ANGLES_DEG, *GENERIC_ANGLES)]
    for suite, dist in cases:
        eff = assemble_effective_vector(suite, dist, pairs_and_singletons(2 * suite.n))
        decomposition = effective_decomposition(build_censored_space(suite, dist), suite)
        assert isinstance(eff.vector.proposal, Decomposition) and eff.vector.proposal.n == 2 * suite.n
        assert isinstance(decomposition.weights, Decomposition) and decomposition.weights.n == 2 * suite.n
        assert eff.vector.proposal == decomposition.weights
        assert membership(eff.vector) == decomposition


def point_masks(censored, suite):
    """Each point's 2n-bit mask, outcomes first, read off the events point by point."""
    keys = [censored.outcome_events[x] for x in suite.names] + [censored.switch_events[x] for x in suite.names]
    return [sum(1 << bit for bit, key in enumerate(keys) if pid in censored.space.events[key])
            for pid in censored.space.points]


def test_the_space_and_the_proposal_are_one_glue():
    cases = [(suite, dist) for suite, dist, _oracle in random_cases()]
    cases += [orsay_case(angles) for angles in (orsay.DEFAULT_ANGLES_DEG, *GENERIC_ANGLES, (60, 180, 300, 0))]
    cfg = orsay.OrsayConfig.from_degrees(orsay.DEFAULT_ANGLES_DEG, ["1/2", "1/4", "1/4", "0"])
    cases.append((cfg.suite, cfg.distribution))
    zero_mass_points = 0
    for suite, dist in cases:
        censored = build_censored_space(suite, dist)
        space = censored.space
        assert len(space.points) == sum(2 ** len(j) for j in dist.support)
        proposal = assemble_effective_vector(suite, dist, pairs_and_singletons(2 * suite.n)).vector.proposal
        found = effective_decomposition(censored, suite).weights
        # Over one denominator, the proposal is the space's decomposition, in the space's point order ...
        den = lcm(proposal.denominator, found.denominator)
        assert proposal.masks == found.masks
        assert [w * (den // proposal.denominator) for w in proposal.numerators] == [
            w * (den // found.denominator) for w in found.numerators]
        # ... and it leaves out exactly the points of mass zero.
        masks = point_masks(censored, suite)
        assert len(set(masks)) == len(masks)
        assert list(proposal.masks) == [m for m, pid in zip(masks, space.points) if space.mass[pid]]
        zero = {m for m, pid in zip(masks, space.points) if not space.mass[pid]}
        assert set(masks) - set(proposal.masks) == zero
        zero_mass_points += len(zero)
    assert zero_mass_points  # Orsay's context {A', B} has two


def relabelled(censored):
    """The space with its points renamed p0..pN in reverse order, masses and events carried along."""
    space = censored.space
    new = {pid: f"p{len(space.points) - 1 - k}" for k, pid in enumerate(space.points)}
    events = {key: frozenset(map(new.__getitem__, event)) for key, event in space.events.items()}
    renamed = KolmogorovSpace(tuple(new.values()), {new[pid]: m for pid, m in space.mass.items()}, events)
    return CensoredSpace(renamed, censored.outcome_events, censored.switch_events)


def test_verification_reads_events_not_point_labels():
    cases = [(suite, dist) for suite, dist, _oracle in random_cases()] + [orsay_case(orsay.DEFAULT_ANGLES_DEG)]
    moved = 0
    for suite, dist in cases:
        censored = build_censored_space(suite, dist)
        spaces = [censored]
        if len(dist.support) > 1:
            spaces.append(moved_context(censored, suite, dist))
        for space in spaces:
            renamed = relabelled(space)
            assert not set(renamed.space.points) & set(space.space.points)
            report = verify_censorship(renamed, suite, dist)
            assert report == verify_censorship(space, suite, dist)
            assert integers(effective_decomposition(renamed, suite).weights) == integers(
                effective_decomposition(space, suite).weights)
            assert report.ok == (space is censored)
            moved += space is not censored
    assert moved


def spy_simplex(monkeypatch):
    """Count the simplex runs that membership makes."""
    calls = []
    solve = polytope.solve_zero_one_feasibility
    monkeypatch.setattr(polytope, "solve_zero_one_feasibility", lambda *args: calls.append(args) or solve(*args))
    return calls


def moved_unit(p, to=None):
    """One unit of the largest numerator moved to the next point, or to a new entry on mask `to`."""
    i = p.numerators.index(max(p.numerators))
    numerators = list(p.numerators)
    numerators[i] -= 1
    if to is not None:
        return replace(p, masks=p.masks + (to,), numerators=(*numerators, 1))
    numerators[(i + 1) % len(numerators)] += 1
    return replace(p, numerators=tuple(numerators))


def with_first(p, mask=None, numerator=None):
    """The proposal with its first mask or numerator replaced, the denominator kept equal to the sum."""
    masks = (p.masks[0] if mask is None else mask,) + p.masks[1:]
    numerators = (p.numerators[0] if numerator is None else numerator,) + p.numerators[1:]
    return Decomposition(p.n, sum(numerators), masks, numerators)


def integers(p):
    """A decomposition's fields: its view can read two different ones as one mapping."""
    return p.n, p.denominator, p.masks, p.numerators


# Orsay's support never has mask 0 (no switch on) or 255 (every switch on). The zero numerator,
# the extra weight on mask 0, the bit above n, the split weight and the ninth event leave every
# vector value right.
CORRUPTIONS = {
    "one numerator changed": moved_unit,
    "one mask moved to an assignment outside the support": lambda p: with_first(p, mask=(1 << 8) - 1),
    "a zero numerator": lambda p: replace(p, masks=p.masks + ((1 << 8) - 1,), numerators=p.numerators + (0,)),
    "a negative numerator": lambda p: with_first(p, numerator=-p.numerators[0]),
    "numerators that do not sum to the denominator": lambda p: replace(
        p, masks=p.masks + (0,), numerators=p.numerators + (1,)),
    "a mask with a bit above n": lambda p: with_first(p, mask=p.masks[0] | 1 << 8),
    "one mask listed twice": lambda p: moved_unit(p, to=p.masks[p.numerators.index(max(p.numerators))]),
    "an empty proposal": lambda p: Decomposition(p.n, 0, (), ()),
    "a proposal over the wrong event count": lambda p: replace(p, n=p.n + 1),
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS)
def test_a_corrupted_proposal_is_rejected_and_the_simplex_decides(monkeypatch, corrupt):
    vector = orsay.effective_vector(orsay.OrsayConfig()).vector
    calls = spy_simplex(monkeypatch)
    assert membership(vector).weights is vector.proposal and not calls
    broken = replace(vector, proposal=corrupt(vector.proposal))
    assert integers(broken.proposal) != integers(vector.proposal)
    verdict = membership(broken)
    assert len(calls) == 1
    assert isinstance(verdict.weights, Decomposition) and verdict.weights is not broken.proposal
    assert isinstance(verdict, Inside) and decomposition_reproduces(verdict, vector)


def test_the_orsay_effective_vector_is_inside_by_its_proposal_and_builds_no_fraction(monkeypatch):
    vector = orsay.effective_vector(orsay.OrsayConfig()).vector
    calls = spy_simplex(monkeypatch)
    verdict = membership(vector)
    assert isinstance(verdict, Inside) and verdict.weights is vector.proposal and not calls
    assert "_fractions" not in vars(verdict.weights)  # the view is built on first read, not by membership
    assert decomposition_reproduces(verdict, vector) and sum(verdict.weights.values()) == 1


def singlet_suite(k):
    """The singlet with spin-up measurements A_j at angle j pi / k on the left and B_j at (j + 1/2) pi / k on the right."""
    eye = identity(2)
    left = [(f"A{j}", tensor(spin_projector_up(direction(j * pi / k)), eye)) for j in range(k)]
    right = [(f"B{j}", tensor(eye, spin_projector_up(direction((j + 0.5) * pi / k)))) for j in range(k)]
    return MeasurementSuite.make(singlet_density(), left + right)


def test_the_k4_singlet_effective_vector_decides_inside_without_the_simplex(monkeypatch):
    k = 4
    suite = singlet_suite(k)
    contexts = {frozenset({i, k + j}): F(1, k * k) for i in range(1, k + 1) for j in range(1, k + 1)}
    dist = validate_distribution(contexts, suite)
    eff = assemble_effective_vector(suite, dist, pairs_and_singletons(4 * k))

    def refuse(*args):
        raise AssertionError("the simplex ran")
    monkeypatch.setattr(polytope, "solve_zero_one_feasibility", refuse)
    start = time.perf_counter()
    verdict = membership(eff.vector)
    assert time.perf_counter() - start < 0.1
    assert isinstance(verdict, Inside) and decomposition_reproduces(verdict, eff.vector)
    assert len(verdict.weights) == 4 * k * k


def test_a_json_round_trip_drops_the_proposal_and_equality_ignores_it():
    vector = orsay.effective_vector(orsay.OrsayConfig()).vector
    assert vector.proposal is not None
    again = vector_from_json(json.loads(json.dumps(vector_to_json(vector))))
    assert again.proposal is None and again == vector
    assert replace(vector, proposal=moved_unit(vector.proposal)) == vector


def test_a_context_without_atoms_leaves_the_vector_without_a_proposal(orsay_setup):
    suite, _ = orsay_setup
    # A and A' do not commute; a hand-built distribution is not checked for that.
    eff = assemble_effective_vector(suite, SetupDistribution({frozenset({1, 2}): F(1)}), pairs_and_singletons(8))
    assert eff.vector.proposal is None
    assert isinstance(membership(eff.vector), Inside)

    # Moments 0.6, 0.6 and 0.2 read as 1, 1 and 0 give the both-miss atom -1: no proposal, and the
    # effective vector breaks p1 + p2 - p12 <= 1.
    density = Operator(np.diag([0.4, 0.2, 0.4]), tags=("density",))
    projectors = [Operator(np.diag(d), tags=("projector",)) for d in ([1.0, 1.0, 0.0], [0.0, 1.0, 1.0])]
    policy = RationalizationPolicy(tolerance=0.45, max_denominator=1)
    suite = MeasurementSuite.make(density, zip(("M1", "M2"), projectors), policy)
    dist = validate_distribution({frozenset({1, 2}): F(1)}, suite)
    eff = assemble_effective_vector(suite, dist, pairs_and_singletons(4))
    assert eff.vector.proposal is None
    verdict = membership(eff.vector)
    assert isinstance(verdict, Outside) and certificate_is_valid(eff.vector, verdict)


def test_effective_decomposition_of_orsay_lists_the_sixteen_atoms(orsay_setup):
    suite, dist = orsay_setup
    decomposition = effective_decomposition(build_censored_space(suite, dist), suite)
    # A=1, B=1 in context {A, B}: outcome bits 1 and 3, switch bits 5 and 7.
    assert decomposition.weights[(1, 0, 1, 0, 1, 0, 1, 0)] == F(3, 32)
    assert len(decomposition.weights) == 14  # the two zero-mass atoms of {A', B} are left out
