import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmorep import (
    DimMismatch,
    InvalidDirection,
    KolmorepError,
    Operator,
    born,
    commutes,
    complement,
    identity,
    singlet_density,
    spin_projector_up,
    tensor,
)
from kolmorep.quantum import TAU_OP, _frobenius, direction

SQ3_4 = np.sqrt(3) / 4


def test_spin_projector_along_z_axes():
    up = spin_projector_up((0, 0, 1))
    assert np.allclose(up.entries, np.diag([1, 0]), atol=TAU_OP)
    down = spin_projector_up((0, 0, -1))
    assert np.allclose(down.entries, np.diag([0, 1]), atol=TAU_OP)


def test_spin_projector_at_120_degrees_in_xz_plane():
    # hand evaluation of (I + d.sigma)/2 for d = (sin 120, 0, cos 120):
    # diagonal ((1+cos120)/2, (1-cos120)/2) = (1/4, 3/4), off-diagonal sin120/2.
    p = spin_projector_up(direction(np.radians(120)))
    expected = np.array([[0.25, SQ3_4], [SQ3_4, 0.75]])
    assert np.allclose(p.entries, expected, atol=TAU_OP)


def test_spin_projector_rejects_non_unit_direction():
    with pytest.raises(InvalidDirection):
        spin_projector_up((0.0, 0.0, 0.9))
    with pytest.raises(InvalidDirection):
        spin_projector_up((1.0, 1.0))


@pytest.mark.parametrize("theta, phi, message", [
    (np.inf, 0.0, "direction angle theta must be finite, got inf"),
    (-np.inf, 0.0, "direction angle theta must be finite, got -inf"),
    (0.0, np.nan, "direction angle phi must be finite, got nan"),
])
def test_direction_rejects_non_finite_angles(theta, phi, message):
    with pytest.raises(InvalidDirection, match=f"^{message}$"):
        direction(theta, phi)


@settings(max_examples=50, deadline=None)
@given(theta=st.floats(0, np.pi), phi=st.floats(0, 2 * np.pi))
def test_spin_projector_partition_of_identity(theta, phi):
    d = direction(theta, phi)
    p = spin_projector_up(d)
    q = spin_projector_up(-d)
    assert np.allclose(p.entries + q.entries, np.eye(2), atol=TAU_OP)
    assert abs(np.trace(p.entries) - 1) <= TAU_OP


def test_tensor_identities():
    eye2 = identity(2)
    assert np.allclose(tensor(eye2, eye2).entries, np.eye(4))
    pz = Operator(np.diag([1.0, 0.0]), tags=("projector",))
    qz = Operator(np.diag([0.0, 1.0]), tags=("projector",))
    assert np.allclose(tensor(pz, qz).entries, np.diag([0, 1, 0, 0]))
    assert np.allclose(tensor(pz, eye2).entries, np.diag([1, 1, 0, 0]))
    assert tensor(pz, qz).has_tag("projector")


def random_complex(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def test_frobenius_equals_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = random_complex(rng, *rng.integers(1, 9, size=2))
        for view in (m, m.T, m[::-1], m.conj().T, m[:, ::2]):
            assert _frobenius(view) == float(np.linalg.norm(view))


def test_tensor_equals_numpy_kron_bit_for_bit():
    rng = np.random.default_rng(12)
    for _ in range(200):
        x, y = (random_complex(rng, k, k) for k in rng.integers(1, 5, size=2))
        for a, b in ((x, y), (x.T, y), (x, y.T), (x.T, y.T)):
            got = tensor(Operator(a), Operator(b)).entries
            assert got.tobytes() == np.kron(a, b).tobytes() and got.shape == np.kron(a, b).shape


def test_singlet_entries_and_trace():
    w = singlet_density()
    assert abs(born(w, []) - 1.0) <= TAU_OP
    expected = np.zeros((4, 4))
    expected[1, 1] = expected[2, 2] = 0.5
    expected[1, 2] = expected[2, 1] = -0.5
    assert np.allclose(w.entries, expected, atol=TAU_OP)


def test_singlet_entries_are_pinned_bit_for_bit():
    h = 0.4999999999999999  # (1/sqrt(2))^2 in binary floating point; every singlet moment starts here
    expected = np.array([[0, 0, 0, 0], [0, h, -h, 0], [0, -h, h, 0], [0, 0, 0, 0]], dtype=complex)
    assert np.array_equal(singlet_density().entries, expected)


@settings(max_examples=50, deadline=None)
@given(theta=st.floats(0, np.pi), phi=st.floats(0, 2 * np.pi))
def test_singlet_axis_independent_and_anticorrelated(theta, phi):
    d = direction(theta, phi)
    both_up = tensor(spin_projector_up(d), spin_projector_up(d))
    assert abs(born(singlet_density(), [both_up])) <= TAU_OP


def test_born_singlet_values():
    w = singlet_density()
    eye2 = identity(2)
    a = tensor(spin_projector_up(direction(np.radians(120))), eye2)
    b = tensor(eye2, spin_projector_up(direction(0.0)))
    assert abs(born(w, [a]) - 0.5) <= TAU_OP
    assert abs(born(w, [a, b]) - 0.375) <= TAU_OP
    a2 = tensor(spin_projector_up(direction(0.0)), eye2)
    assert abs(born(w, [a2, b])) <= TAU_OP


def test_born_commuting_permutation_invariance():
    w = singlet_density()
    eye2 = identity(2)
    a = tensor(spin_projector_up(direction(1.1)), eye2)
    b = tensor(eye2, spin_projector_up(direction(2.2)))
    assert abs(born(w, [a, b]) - born(w, [b, a])) <= TAU_OP


def test_born_dim_mismatch():
    with pytest.raises(DimMismatch):
        born(singlet_density(), [identity(2)])


def test_born_requires_density():
    with pytest.raises(KolmorepError):
        born(identity(4), [identity(4)])


def test_commutes_examples():
    eye2 = identity(2)
    a = tensor(spin_projector_up(direction(np.radians(120))), eye2)
    a2 = tensor(spin_projector_up(direction(0.0)), eye2)
    b = tensor(eye2, spin_projector_up(direction(0.0)))
    assert commutes(identity(4), a)
    assert commutes(a, b)  # different tensor factors
    assert not commutes(a, a2)  # same side, 120 degrees apart
    with pytest.raises(DimMismatch):
        commutes(identity(2), identity(4))


def test_projectors_spanning_product_states_match_factor_projectors():
    # A-side span {up(x)up, up(x)down} collapses to P_up (x) I; B-side span
    # {down(x)up, up(x)up} to I (x) P_up. Built here from explicit spinors.
    theta = 0.77

    def spinor(t):
        return np.array([np.cos(t / 2), np.sin(t / 2)], dtype=complex)

    up = spinor(theta)
    down = np.array([-np.conj(up[1]), np.conj(up[0])])
    a_span = sum(
        np.outer(v, v.conj()) for v in (np.kron(up, up), np.kron(up, down))
    )
    b_span = sum(
        np.outer(v, v.conj()) for v in (np.kron(down, up), np.kron(up, up))
    )
    eye2 = identity(2)
    p = spin_projector_up(direction(theta))
    assert np.allclose(a_span, tensor(p, eye2).entries, atol=TAU_OP)
    assert np.allclose(b_span, tensor(eye2, p).entries, atol=TAU_OP)


def test_complement_partitions_identity():
    p = spin_projector_up(direction(0.4))
    assert np.allclose(p.entries + complement(p).entries, np.eye(2), atol=TAU_OP)


def test_complement_needs_a_projector_tag():
    untagged = Operator(spin_projector_up(direction(0.4)).entries)
    with pytest.raises(KolmorepError, match="^complement is only defined for projectors$"):
        complement(untagged)


@pytest.mark.parametrize("entries, tags, message", [
    (np.eye(2), ("foo",), "^unknown operator tag 'foo'$"),
    (np.array([[0.5, 0.5], [0.0, 0.5]]), ("density",),
     "^matrix is not a unit-trace positive Hermitian within tolerance$"),
])
def test_operator_rejects_unknown_tags_and_non_hermitian_densities(entries, tags, message):
    with pytest.raises(KolmorepError, match=message):
        Operator(entries, tags=tags)


def test_operator_validation():
    with pytest.raises(KolmorepError):
        Operator(np.array([[0.5, 0.5], [0.0, 0.5]]), tags=("projector",))
    with pytest.raises(KolmorepError):
        Operator(np.diag([0.7, 0.7]), tags=("density",))
    with pytest.raises(KolmorepError):
        Operator(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(KolmorepError):
        Operator(np.array([[1, complex(0, np.inf)], [0, 1]]))
    with pytest.raises(KolmorepError):
        Operator(np.zeros((2, 3)))
    op = Operator(np.diag([0.5, 0.5]), tags=("density",))
    assert not op.entries.flags.writeable
