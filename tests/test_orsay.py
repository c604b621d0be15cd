from decimal import Decimal
from fractions import Fraction
from math import radians, sin

import pytest

from kolmorep import (
    Inside,
    InvalidDirection,
    InvalidDistribution,
    KolmorepError,
    NumericalFailure,
    Outside,
    ch_evaluate,
    membership,
)
from kolmorep import orsay
from kolmorep.cli import main
from kolmorep.orsay import (
    DEFAULT_ANGLES_DEG,
    OrsayConfig,
    build_suite,
    effective_pair_vector,
    effective_vector,
    naked_vector,
    tables,
)

F = Fraction

TABLE_CONTEXTS = {
    "a & b": {("A", "B"): F(3, 8), ("A", "!B"): F(1, 8), ("!A", "B"): F(1, 8), ("!A", "!B"): F(3, 8)},
    "a & b'": {("A", "B'"): F(3, 8), ("A", "!B'"): F(1, 8), ("!A", "B'"): F(1, 8), ("!A", "!B'"): F(3, 8)},
    "a' & b": {("A'", "B"): F(0), ("A'", "!B"): F(1, 2), ("!A'", "B"): F(1, 2), ("!A'", "!B"): F(0)},
    "a' & b'": {("A'", "B'"): F(3, 8), ("A'", "!B'"): F(1, 8), ("!A'", "B'"): F(1, 8), ("!A'", "!B'"): F(3, 8)},
}

CENSORED_CELLS = {
    ("A", "B"): F(3, 32), ("A", "!B"): F(1, 32), ("A", "B'"): F(3, 32), ("A", "!B'"): F(1, 32),
    ("!A", "B"): F(1, 32), ("!A", "!B"): F(3, 32), ("!A", "B'"): F(1, 32), ("!A", "!B'"): F(3, 32),
    ("A'", "B"): F(0), ("A'", "!B"): F(1, 8), ("A'", "B'"): F(3, 32), ("A'", "!B'"): F(1, 32),
    ("!A'", "B"): F(1, 8), ("!A'", "!B"): F(0), ("!A'", "B'"): F(1, 32), ("!A'", "!B'"): F(3, 32),
}


def test_default_naked_vector():
    nv = naked_vector(OrsayConfig())
    assert [nv[{i}] for i in range(1, 5)] == [F(1, 2)] * 4
    assert nv[{1, 3}] == F(3, 8)
    assert nv[{1, 4}] == F(3, 8)
    assert nv[{2, 3}] == F(0)
    assert nv[{2, 4}] == F(3, 8)


def test_aligned_pair_vanishes_and_opposite_pair_is_half():
    cfg = OrsayConfig.from_degrees((0.0, 90.0, 0.0, 180.0))
    nv = naked_vector(cfg)
    assert nv[{1, 3}] == F(0)  # theta(a, b) = 0
    assert nv[{1, 4}] == F(1, 2)  # theta(a, b') = 180 degrees


@pytest.mark.parametrize("angles", [(10.0, 70.0, 130.0, 190.0), (200.0, 35.0, 300.0, 95.0)])
def test_pair_components_follow_half_sine_squared(angles):
    cfg = OrsayConfig.from_degrees(angles)
    nv = naked_vector(cfg)
    for (i, j), (left, right) in (
        ((1, 3), (0, 2)), ((1, 4), (0, 3)), ((2, 3), (1, 2)), ((2, 4), (1, 3)),
    ):
        theta = radians(angles[left] - angles[right])
        assert abs(float(nv[{i, j}]) - 0.5 * sin(theta / 2) ** 2) <= 1e-9


def test_default_effective_vector_values():
    eff = effective_vector(OrsayConfig())
    v = eff.vector
    for i in (1, 2, 3, 4):
        assert v[{i}] == F(1, 4)
    for i in (5, 6, 7, 8):
        assert v[{i}] == F(1, 2)
    # outcome paired with its own switch collapses to the outcome
    for i, s in ((1, 5), (2, 6), (3, 7), (4, 8)):
        assert v[{i, s}] == F(1, 4)
    # conflicting same-side switch: structurally impossible
    for i, s in ((1, 6), (2, 5), (3, 8), (4, 7)):
        assert v[{i, s}] == F(0)
    assert v[{1, 3}] == v[{1, 4}] == v[{2, 4}] == F(3, 32)
    assert v[{2, 3}] == F(0)
    assert v[{5, 6}] == v[{7, 8}] == F(0)
    for pair in ({5, 7}, {5, 8}, {6, 7}, {6, 8}):
        assert v[pair] == F(1, 4)
    for pair in ({1, 7}, {1, 8}, {2, 7}, {2, 8}, {3, 5}, {3, 6}, {4, 5}, {4, 6}):
        assert v[pair] == F(1, 8)


def test_verdicts_flip_between_naked_and_effective():
    cfg = OrsayConfig()
    naked = naked_vector(cfg)
    assert not ch_evaluate(naked).satisfied
    assert isinstance(membership(naked), Outside)
    effective = effective_pair_vector(cfg)
    report = ch_evaluate(effective)
    assert report.satisfied
    assert report.bell()[0].value == F(-7, 32)
    assert isinstance(membership(effective), Inside)


def test_contexts_and_switch_names_follow_the_cross_pairs_and_measurement_names():
    assert orsay.CONTEXTS == (frozenset({1, 3}), frozenset({1, 4}), frozenset({2, 3}), frozenset({2, 4}))
    assert orsay.SWITCH_NAMES == ("a", "a'", "b", "b'")
    assert [t.label for t in tables(OrsayConfig()).context_tables] == list(TABLE_CONTEXTS)


def test_context_tables():
    tab = tables(OrsayConfig())
    seen = {t.label: t.cells for t in tab.context_tables}
    assert seen == TABLE_CONTEXTS
    for cells in seen.values():
        assert sum(cells.values()) == 1


def test_censored_table():
    tab = tables(OrsayConfig())
    assert tab.censored_cells == CENSORED_CELLS
    assert sum(tab.censored_cells.values()) == 1


def test_effective_vector_with_skewed_weights():
    cfg = OrsayConfig.from_degrees(DEFAULT_ANGLES_DEG, (F(1, 2), F(1, 2), F(0), F(0)))
    eff = effective_vector(cfg)
    assert eff.vector[{5}] == F(1)  # switch a always fires
    assert eff.vector[{6}] == F(0)
    assert eff.vector[{1, 3}] == F(1, 2) * F(3, 8)


def test_config_validation():
    with pytest.raises(KolmorepError):
        OrsayConfig(angles=(0.0, 1.0, 2.0))
    with pytest.raises(InvalidDistribution):
        OrsayConfig(weights=(F(1, 2), F(1, 2), F(0), F(1, 2)))
    with pytest.raises(InvalidDistribution):
        OrsayConfig(weights=(F(3, 2), F(-1, 2), F(0), F(0)))


def test_weights_are_checked_at_their_exact_values():
    assert OrsayConfig(weights=(0.25,) * 4).distribution.weights == dict.fromkeys(orsay.CONTEXTS, F(1, 4))
    with pytest.raises(InvalidDistribution, match="^context weights must sum to one$"):
        OrsayConfig(weights=(0.1, 0.2, 0.3, 0.4))  # binary floats: their exact sum is not 1


@pytest.mark.parametrize("weight", [float("inf"), float("nan"), F(3, 2), -0.25, True])
def test_a_weight_outside_the_unit_interval_is_rejected(weight):
    with pytest.raises(InvalidDistribution, match=r"^need four context weights in \[0, 1\]$"):
        OrsayConfig(weights=(weight, F(1, 4), F(1, 4), F(1, 2)))


@pytest.mark.parametrize("position, angle", [(0, float("inf")), (1, float("-inf")), (2, float("nan")), (3, float("inf"))])
def test_a_non_finite_angle_is_named_by_its_direction(monkeypatch, position, angle):
    monkeypatch.setattr(orsay, "build_suite", None)  # no suite is built
    angles = [0.0] * 4
    angles[position] = angle
    with pytest.raises(InvalidDirection, match=f"^angle {orsay.SWITCH_NAMES[position]} must be finite, got {angle}$"):
        OrsayConfig(angles=tuple(angles))


TENTHS = OrsayConfig(weights=(F(1, 10), F(2, 10), F(3, 10), F(4, 10)))


@pytest.mark.parametrize("weights", [
    [0.1, 0.2, 0.3, 0.4], ["0.1", "0.2", "0.3", "0.4"], ["1/10", "1/5", "3/10", "2/5"],
    [F(1, 10), F(1, 5), F(3, 10), F(2, 5)],
])
def test_from_degrees_reads_weights_as_the_cli_does(weights):
    assert OrsayConfig.from_degrees(DEFAULT_ANGLES_DEG, weights) == TENTHS


def _spy_on_validation(monkeypatch) -> list:
    """The argument tuples of every ``validate_distribution`` call that orsay makes from now on."""
    validated = []
    real_validate = orsay.validate_distribution
    monkeypatch.setattr(orsay, "validate_distribution", lambda *args: validated.append(args) or real_validate(*args))
    return validated


@pytest.mark.parametrize("text", ["0.1,0.2,0.3,0.4", "1/10,1/5,3/10,2/5", " 0.1, 1/5,0.3 ,2/5"])
def test_the_cli_builds_the_library_config_from_its_weights(monkeypatch, capsys, text):
    built = []
    real_build_suite = orsay.build_suite

    def spy(cfg):
        built.append(cfg)
        return real_build_suite(cfg)

    monkeypatch.setattr(orsay, "build_suite", spy)
    validated = _spy_on_validation(monkeypatch)
    assert main(["orsay", "--emit", "all", "--weights", text]) == 0
    assert built == [TENTHS]  # one suite and one distribution for all three views
    assert len(validated) == 1
    capsys.readouterr()


@pytest.mark.parametrize("weights", [
    ("1/4",) * 4,
    (None, F(1, 4), F(1, 4), F(1, 2)),
    (Decimal("0.25"),) * 4,
])
def test_a_weight_that_is_not_a_number_is_rejected(weights):
    with pytest.raises(InvalidDistribution, match=r"^need four context weights in \[0, 1\]$"):
        OrsayConfig(weights=weights)


def test_a_boolean_weight_is_a_numerical_failure():
    with pytest.raises(NumericalFailure, match="expected a number, got True"):
        OrsayConfig.from_degrees(DEFAULT_ANGLES_DEG, [True, 0, 0, 0])


def test_every_view_reads_the_configs_one_suite(monkeypatch):
    built = []
    real_build_suite = orsay.build_suite
    monkeypatch.setattr(orsay, "build_suite", lambda cfg: built.append(cfg) or real_build_suite(cfg))
    validated = _spy_on_validation(monkeypatch)
    cfg = OrsayConfig()
    for view in (naked_vector, effective_pair_vector, effective_vector, tables):
        view(cfg)
    assert built == [cfg] and cfg.suite is cfg.suite
    assert len(validated) == 1 and cfg.distribution is cfg.distribution


def test_suite_shape():
    suite = build_suite(OrsayConfig())
    assert suite.dim == 4
    assert suite.names == ("A", "A'", "B", "B'")
    assert len(OrsayConfig().distribution.support) == 4
