"""Exact phase-1 simplex over implicit 0/1 assignment columns.

The one problem solved here: given rows ``(T_k, r_k)`` with ``T_k`` an index
set (as a bitmask over n positions) and ``r_k`` rational, decide whether there
are weights ``lam >= 0`` over all assignments ``eps in {0,1}^n`` with

    sum over eps containing T_k of lam_eps  =  r_k     for every row.

The normalization row "total weight 1" is just the row with the empty mask.
Columns are never materialized: the column of assignment ``eps`` has entry 1
in row k exactly when ``T_k`` is a subset of ``eps``.

Method: revised phase-1 simplex on an artificial basis, Bland's rule for both
the entering and the leaving choice, so the run terminates without cycling.
Artificial columns are dropped once they leave the basis. When the phase-1
optimum is positive, the final simplex multipliers give a separating
functional y with ``y . column(eps) <= 0`` for every assignment and
``y . rhs > 0``.

Arithmetic is exact and fraction-free (Edmonds 1967, Bareiss 1968). Basis
columns are integer, so ``adj = D B^-1`` with ``D = |det B|`` is an integer
matrix, and a pivot updates it with one exact integer division; the basic
solution is kept as the integers ``D L x_B``, with L the lcm of the
right-hand-side denominators. Pricing places the multipliers at the row masks
of a 2^n array and sums over subsets (zeta transform), which gives every
column's reduced cost at once. Arrays are int64 while a bound on their entries
proves that no intermediate value can overflow, and Python integers (object
dtype) from then on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

import numpy as np

_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class FeasibilityResult:
    """Either a convex decomposition or a Farkas functional, never both.

    ``weights`` maps assignment bitmasks to positive weights summing to the
    normalization row's right-hand side. ``farkas`` holds one multiplier per
    input row, in input order.
    """

    weights: Optional[dict[int, Fraction]]
    farkas: Optional[tuple[Fraction, ...]]

    @property
    def feasible(self) -> bool:
        return self.weights is not None


def _needs_object(m: int, peak: int) -> bool:
    """Whether one iteration on entries bounded by ``peak`` could leave int64.

    Pivot numerators reach ``2 m peak^2``; subset sums of the multipliers reach
    ``m^2 peak``.
    """
    return m * peak * max(2 * peak, m) > _INT64_MAX


def solve_zero_one_feasibility(
    n: int, rows: Sequence[tuple[int, Fraction]]
) -> FeasibilityResult:
    """Decide feasibility of the subset-sum system described in the module docstring."""
    m = len(rows)
    ncols = 1 << n
    if any(mask < 0 or mask >= ncols for mask, _ in rows):
        raise ValueError("row mask outside {0,1}^n")
    masks = np.array([mask for mask, _ in rows], dtype=np.int64)
    rhs = [Fraction(value) for _, value in rows]

    # Flip row signs so the artificial start point b >= 0 is feasible.
    scale = lcm(*(r.denominator for r in rhs))
    start = [abs(r.numerator) * (scale // r.denominator) for r in rhs]
    dtype = object if _needs_object(m, max(start, default=1)) else np.int64
    signs = np.array([1 if r >= 0 else -1 for r in rhs], dtype=dtype)
    xb = np.array(start, dtype=dtype)
    adj = np.identity(m, dtype=dtype)
    det = 1
    basis = [ncols + i for i in range(m)]  # artificial column per row
    artificial = np.ones(m, dtype=bool)

    while True:
        if adj.dtype != object:
            peak = max(np.abs(adj).max(initial=1), np.abs(xb).max(initial=1))
            if _needs_object(m, int(peak)):
                adj, xb, signs = (a.astype(object) for a in (adj, xb, signs))
        # Multipliers y = c_B B^-1 with phase-1 costs: 1 on artificials, 0 else.
        y = adj[artificial].sum(axis=0)
        reduced = np.zeros(ncols, dtype=adj.dtype)
        np.add.at(reduced, masks, y * signs)
        for k in range(n):
            half = reduced.reshape(-1, 2, 1 << k)
            half[:, 1] += half[:, 0]
        entering = int(np.argmax(reduced > 0))  # Bland: lowest assignment index

        if not reduced[entering] > 0:
            if not xb[artificial].any():
                weights = {
                    basis[i]: Fraction(int(xb[i]), det * scale)
                    for i in range(m)
                    if not artificial[i] and xb[i]
                }
                return FeasibilityResult(weights=weights, farkas=None)
            farkas = tuple(Fraction(int(v), det) for v in y * signs)
            return FeasibilityResult(weights=None, farkas=farkas)

        # Direction det * B^-1 column(entering); column entries are the row signs.
        hit = (masks & ~entering) == 0
        direction = adj[:, hit] @ signs[hit]
        xs, ds = xb.tolist(), direction.tolist()
        leave = -1
        for i in np.flatnonzero(direction > 0).tolist():
            # Ratio test by cross-multiplication, ties to the lowest basis index.
            if leave < 0 or (xs[i] * ds[leave], basis[i]) < (xs[leave] * ds[i], basis[leave]):
                leave = i
        if leave < 0:
            raise AssertionError("phase-1 objective is bounded below; no unbounded direction exists")

        pivot, row, x_leave = ds[leave], adj[leave], xb[leave]
        adj = (pivot * adj - np.outer(direction, row)) // det
        xb = (pivot * xb - direction * x_leave) // det
        adj[leave], xb[leave] = row, x_leave
        det = pivot
        basis[leave] = entering
        artificial[leave] = False
