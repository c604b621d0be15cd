import random
from fractions import Fraction as F

import numpy as np
import pytest

from kolmorep import Inside, lattice
from kolmorep.lattice import Decomposition


def brute_subset_sums(values):
    """Sum over every T inside S, straight from the definition."""
    return [sum(values[t] for t in range(len(values)) if t & ~s == 0) for s in range(len(values))]


def brute_superset_sums(values):
    """Sum over every T containing S, straight from the definition."""
    return [sum(values[t] for t in range(len(values)) if s & ~t == 0) for s in range(len(values))]


def random_rows(rng, rows, n, bound):
    return [[rng.randint(-bound, bound) for _ in range(1 << n)] for _ in range(rows)]


def as_array(rows, dtype, two_d):
    a = np.array(rows, dtype=dtype)
    return a if two_d else a[0].copy()


CASES = [(n, dtype, two_d) for n in range(8) for dtype in (np.int64, object) for two_d in (False, True)]


@pytest.mark.parametrize("n, dtype, two_d", CASES)
@pytest.mark.parametrize("transform, brute", [
    (lattice.subset_sums, brute_subset_sums),
    (lattice.superset_sums, brute_superset_sums),
])
def test_transforms_match_the_definitions(n, dtype, two_d, transform, brute):
    # Python-int entries near 2^70 only fit the object path; int64 entries leave room for 2^7 summands.
    rng = random.Random(f"{n}/{dtype}/{two_d}")
    rows = random_rows(rng, 3 if two_d else 1, n, 2**70 if dtype is object else 2**50)
    a = as_array(rows, dtype, two_d)
    out = transform(a)
    assert out is a
    assert a.dtype == dtype
    assert a.reshape(-1, 1 << n).tolist() == [brute(row) for row in rows]


@pytest.mark.parametrize("n, dtype, two_d", CASES)
def test_inversion_undoes_superset_sums(n, dtype, two_d):
    rng = random.Random(f"inverse/{n}/{dtype}/{two_d}")
    rows = random_rows(rng, 3 if two_d else 1, n, 2**40)
    a = as_array(rows, dtype, two_d)
    lattice.superset_sums(a)
    assert lattice.invert_superset_sums(a) is a
    assert a.reshape(-1, 1 << n).tolist() == rows


def test_inversion_turns_intersection_measures_into_atoms():
    # Two events on four atoms: measure of {} is 1, of {1} is 1/2, of {2} is 1/4, of {1, 2} is 1/8 (in eighths).
    moments = np.array([8, 4, 2, 1], dtype=object)
    assert lattice.invert_superset_sums(moments).tolist() == [3, 3, 1, 1]


def test_popcounts_are_subset_sums_of_the_singletons():
    n = 9
    singletons = np.zeros(1 << n, dtype=np.int64)
    singletons[[1 << b for b in range(n)]] = 1
    assert lattice.subset_sums(singletons).tolist() == [bin(s).count("1") for s in range(1 << n)]


@pytest.mark.parametrize("transform", [lattice.subset_sums, lattice.superset_sums, lattice.invert_superset_sums])
def test_a_view_that_a_reshape_would_copy_is_refused(transform):
    # A reversed view reshapes into a copy, so in-place sums on it would be lost silently.
    a = np.arange(32, dtype=np.int64).reshape(2, 16)
    before = a.copy()
    assert not np.shares_memory(a[:, ::-1].reshape(-1), a)
    for view in (a[:, ::-1], np.asfortranarray(a), a[:, :8]):
        with pytest.raises(ValueError, match="not C-contiguous"):
            transform(view)
    assert np.array_equal(a, before)


@pytest.mark.parametrize("a, message", [
    (np.zeros(12, dtype=np.int64), "got int64 with 12$"),
    (np.zeros((2, 0), dtype=np.int64), "got int64 with 0$"),
    (np.zeros(8, dtype=np.int32), "got int32 with 8$"),
    (np.zeros(8), "got float64 with 8$"),
])
def test_malformed_arrays_are_refused(a, message):
    with pytest.raises(ValueError, match=message):
        lattice.subset_sums(a)


def test_bitmask_format_round_trips():
    for index_set in (set(), {1}, {3}, {1, 4, 7}, set(range(1, 70))):
        m = lattice.mask(index_set)
        assert lattice.members(m) == tuple(sorted(index_set))
        bits = lattice.bits(m, 70)
        assert {i + 1 for i, b in enumerate(bits) if b} == index_set
    assert lattice.bits(0b101, 4) == (1, 0, 1, 0)


def test_a_decomposition_reads_as_lowest_terms_fractions_in_mask_order():
    d = Decomposition(3, 12, (0b110, 0b001, 0b000), (6, 4, 2))
    assert "_fractions" not in vars(d)  # no Fraction until the view is read
    assert list(d.items()) == [((0, 0, 0), F(1, 6)), ((1, 0, 0), F(1, 3)), ((0, 1, 1), F(1, 2))]
    assert [(w.numerator, w.denominator) for w in d.values()] == [(1, 6), (1, 3), (1, 2)]
    assert all(type(w) is F for w in d.values())
    assert d[(1, 0, 0)] == F(1, 3) and (1, 1, 1) not in d and len(d) == 3
    assert (d.masks, d.numerators) == ((0b110, 0b001, 0b000), (6, 4, 2))


def test_a_decomposition_equals_the_equivalent_dict_both_ways():
    d = Decomposition(2, 4, (0b01, 0b10), (1, 3))
    same = {(0, 1): F(3, 4), (1, 0): F(1, 4)}
    assert d == same and same == d and not d != same and not same != d
    assert d == Decomposition(2, 8, (0b10, 0b01), (6, 2))
    assert Inside(d) == Inside(same) and Inside(same) == Inside(d)
    for other in ({(1, 0): F(1, 4)}, {**same, (1, 1): F(0)}, {(1, 0): F(1, 2), (0, 1): F(1, 2)}):
        assert d != other and other != d and Inside(d) != Inside(other)
    assert d != (F(1, 4), F(3, 4)) and d != Decomposition(2, 4, (), ())
