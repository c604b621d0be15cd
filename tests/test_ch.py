import itertools
import random
from fractions import Fraction

import pytest

from kolmorep import (
    CorrelationVector,
    Inside,
    SchemeMismatch,
    ch_evaluate,
    ch_scheme,
    membership,
    vertex,
)

F = Fraction

NAKED = {
    frozenset({1}): F(1, 2), frozenset({2}): F(1, 2),
    frozenset({3}): F(1, 2), frozenset({4}): F(1, 2),
    frozenset({1, 3}): F(3, 8), frozenset({1, 4}): F(3, 8),
    frozenset({2, 3}): F(0), frozenset({2, 4}): F(3, 8),
}
EFFECTIVE = {
    frozenset({1}): F(1, 4), frozenset({2}): F(1, 4),
    frozenset({3}): F(1, 4), frozenset({4}): F(1, 4),
    frozenset({1, 3}): F(3, 32), frozenset({1, 4}): F(3, 32),
    frozenset({2, 3}): F(0), frozenset({2, 4}): F(3, 32),
}


def make_vector(values):
    return CorrelationVector(ch_scheme(), dict(values))


def test_naked_singlet_statistics_violate_one_bell_bound():
    report = ch_evaluate(make_vector(NAKED))
    assert not report.satisfied
    violated = report.violated()
    assert len(violated) == 1
    record = violated[0]
    assert record.label.startswith("bell")
    assert record.value == F(1, 8)
    assert record.slack == F(-1, 8)
    # the other three bell bounds hold
    assert sorted(r.value for r in report.bell()) == [F(-5, 8)] * 3 + [F(1, 8)]


def test_effective_statistics_satisfy_everything():
    report = ch_evaluate(make_vector(EFFECTIVE))
    assert report.satisfied
    assert report.bell()[0].value == F(-7, 32)
    assert all(r.satisfied for r in report.inequalities)


def test_zero_vector_satisfied():
    report = ch_evaluate(vertex((0, 0, 0, 0), ch_scheme()))
    assert report.satisfied
    assert all(r.slack >= 0 for r in report.inequalities)


def test_every_row_holds_on_every_vertex_and_each_bell_row_is_tight():
    reports = [ch_evaluate(vertex(bits, ch_scheme())) for bits in itertools.product((0, 1), repeat=4)]
    assert all(r.satisfied for r in reports)
    labels = [r.label for r in reports[0].bell()]
    assert labels == [
        "bell1: -1 <= p13 + p14 + p24 - p23 - p1 - p4 <= 0",
        "bell2: -1 <= p23 + p24 + p14 - p13 - p2 - p4 <= 0",
        "bell3: -1 <= p14 + p13 + p23 - p24 - p1 - p3 <= 0",
        "bell4: -1 <= p24 + p23 + p13 - p14 - p2 - p3 <= 0",
    ]
    for k, label in enumerate(labels):
        assert any(r.bell()[k].slack == 0 for r in reports), label


def test_scheme_is_built_once():
    assert ch_scheme() is ch_scheme()


def test_scheme_mismatch():
    from kolmorep import ConjunctionScheme

    wrong = ConjunctionScheme.singletons(4)
    p = CorrelationVector(wrong, {frozenset({i}): F(1, 2) for i in range(1, 5)})
    message = r"^expected the 4-event scheme with singletons and cross pairs \{1,3\},\{1,4\},\{2,3\},\{2,4\}$"
    with pytest.raises(SchemeMismatch, match=message):
        ch_evaluate(p)


def relabel(values):
    """Swap events 1<->2 and 3<->4 together."""
    swap = {1: 2, 2: 1, 3: 4, 4: 3}
    return {frozenset(swap[i] for i in s): v for s, v in values.items()}


def test_symmetry_under_paired_relabeling():
    rng = random.Random(23)
    for _ in range(200):
        values = {s: F(rng.randint(0, 16), 16) for s in ch_scheme().sets}
        a = ch_evaluate(make_vector(values))
        b = ch_evaluate(make_vector(relabel(values)))
        assert a.satisfied == b.satisfied
        assert sorted(r.value for r in a.bell()) == sorted(r.value for r in b.bell())


def test_agreement_with_membership_on_random_vectors():
    # the full 10k-sample agreement run lives in the acceptance suite
    rng = random.Random(37)
    disagreements = 0
    for k in range(400):
        if k % 3 == 0:
            bits1 = tuple(rng.randint(0, 1) for _ in range(4))
            bits2 = tuple(rng.randint(0, 1) for _ in range(4))
            lam = F(rng.randint(0, 6), 6)
            values = {}
            for s in ch_scheme().sets:
                u1 = int(all(bits1[i - 1] for i in s))
                u2 = int(all(bits2[i - 1] for i in s))
                values[s] = lam * u1 + (1 - lam) * u2
        else:
            values = {s: F(rng.randint(0, 10), 10) for s in ch_scheme().sets}
        p = make_vector(values)
        if ch_evaluate(p).satisfied != isinstance(membership(p), Inside):
            disagreements += 1
    assert disagreements == 0
