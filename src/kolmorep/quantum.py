"""Finite-dimensional operator algebra for two-outcome measurement statistics.

Everything here is dense complex linear algebra on desk-scale systems (a few
qubits): spin-1/2 projectors, Kronecker products, the singlet density matrix,
trace-rule probabilities and commutation tests. Operators are immutable
values; the ``projector`` and ``density`` tags are verified at construction
rather than trusted from input files.
"""

from __future__ import annotations

from math import cos, isfinite, sin, sqrt
from typing import Iterable, Sequence

import numpy as np

from .errors import DimMismatch, InvalidDirection, KolmorepError

TAU_OP = 1e-9  # Frobenius tolerance for operator identities
TAU_PROB = 1e-9  # tolerance for probability values

_TAG_SETS = {t: t for t in (frozenset(), frozenset({"projector"}), frozenset({"density"}))}  # shared instances

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _frobenius(m: np.ndarray) -> float:
    # np.linalg.norm's own fast path for complex input, without its dispatch.
    x = m.ravel(order="K")
    re, im = x.real, x.imag
    return sqrt(re.dot(re) + im.dot(im))


def is_projector_matrix(m: np.ndarray) -> bool:
    return _frobenius(m @ m - m) <= TAU_OP and _frobenius(m - m.conj().T) <= TAU_OP


def is_density_matrix(m: np.ndarray) -> bool:
    if _frobenius(m - m.conj().T) > TAU_OP:
        return False
    trace = np.trace(m)
    if abs(trace.real - 1.0) > TAU_OP or abs(trace.imag) > TAU_OP:
        return False
    return bool(np.linalg.eigvalsh(m).min() >= -TAU_OP)


class Operator:
    """Immutable square complex matrix with optionally validated tags."""

    __slots__ = ("_entries", "_tags")

    def __init__(self, entries, *, tags: Iterable[str] = ()) -> None:
        m = np.array(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise KolmorepError(f"operator entries must be a square matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise KolmorepError("operator entries must be finite")
        tags = frozenset(tags)
        for tag in tags:
            if tag == "projector":
                if not is_projector_matrix(m):
                    raise KolmorepError("matrix is not idempotent-Hermitian within tolerance")
            elif tag == "density":
                if not is_density_matrix(m):
                    raise KolmorepError("matrix is not a unit-trace positive Hermitian within tolerance")
            else:
                raise KolmorepError(f"unknown operator tag {tag!r}")
        m.setflags(write=False)
        self._entries = m
        self._tags = _TAG_SETS.get(tags, tags)

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    def has_tag(self, tag: str) -> bool:
        return tag in self._tags

    def __repr__(self) -> str:
        tags = f", tags={sorted(self._tags)}" if self._tags else ""
        return f"Operator(dim={self.dim}{tags})"


def identity(dim: int) -> Operator:
    return Operator(np.eye(dim, dtype=complex), tags=("projector",))


def complement(p: Operator) -> Operator:
    """Orthogonal complement I - P of a projector."""
    if not p.has_tag("projector"):
        raise KolmorepError("complement is only defined for projectors")
    return Operator(np.eye(p.dim, dtype=complex) - p.entries, tags=("projector",))


def direction(theta: float, phi: float = 0.0) -> np.ndarray:
    """Unit vector at polar angle theta, azimuth phi."""
    for name, angle in (("theta", theta), ("phi", phi)):
        if not isfinite(angle):
            raise InvalidDirection(f"direction angle {name} must be finite, got {angle}")
    return np.array([sin(theta) * cos(phi), sin(theta) * sin(phi), cos(theta)])


def _as_unit_vector(d: Sequence[float]) -> np.ndarray:
    v = np.asarray(d, dtype=float)
    if v.shape != (3,) or not np.isfinite(v).all():
        raise InvalidDirection(f"direction must be a finite 3-vector, got {d!r}")
    norm = sqrt(float(v @ v))
    if abs(norm - 1.0) > 1e-12:
        raise InvalidDirection(f"direction must have unit norm, got |d| = {norm}")
    return v


def spin_projector_up(d: Sequence[float]) -> Operator:
    """Rank-1 projector onto the spin-up eigenspace along a unit direction.

    Closed form (I + d . sigma)/2; no eigen-decomposition involved.
    """
    v = _as_unit_vector(d)
    m = 0.5 * (np.eye(2, dtype=complex) + v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z)
    return Operator(m, tags=("projector",))


def tensor(x: Operator, y: Operator) -> Operator:
    """Kronecker product. The product of projectors is again a projector."""
    tags = ("projector",) if x.has_tag("projector") and y.has_tag("projector") else ()
    a, b = x.entries, y.entries
    # np.kron's entries, one product each, without its generic reshaping.
    kron = (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], -1)
    return Operator(kron, tags=tags)


def singlet_density() -> Operator:
    """Density matrix of the two-spin singlet (|01> - |10>)/sqrt(2).

    The singlet is rotation invariant, so one basis serves every axis.
    """
    psi = np.array([0, 1, -1, 0], dtype=complex) / sqrt(2.0)
    return Operator(np.outer(psi, psi.conj()), tags=("density",))


def born(w: Operator, projectors: Sequence[Operator]) -> float:
    """Real part of tr(W P_1 ... P_k).

    For pairwise commuting projectors this is a probability in [0, 1] up to
    TAU_PROB; for non-commuting lists it is still a well-defined real number
    but has no direct probabilistic reading. The empty list gives tr(W) = 1.
    """
    if not w.has_tag("density"):
        raise KolmorepError("born rule expects a density operator")
    prod = w.entries
    for p in projectors:
        if p.dim != w.dim:
            raise DimMismatch(f"projector dim {p.dim} does not match state dim {w.dim}")
        prod = prod @ p.entries
    return float(np.trace(prod).real)


def commutes(x: Operator, y: Operator) -> bool:
    """True iff the commutator vanishes in Frobenius norm within TAU_OP."""
    if x.dim != y.dim:
        raise DimMismatch(f"cannot compare operators of dims {x.dim} and {y.dim}")
    return _frobenius(x.entries @ y.entries - y.entries @ x.entries) <= TAU_OP
