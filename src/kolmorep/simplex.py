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
Artificial columns are dropped once they leave the basis. A zero phase-1
optimum returns the positive basic weights as a ``lattice.Decomposition`` of
the tableau's integers over ``D L`` (below). A positive one returns the final
multipliers, ints in lowest terms in input order: a separating functional y
with ``y . column(eps) <= 0`` for every assignment and ``y . rhs > 0``.

Arithmetic is exact and fraction-free (Edmonds 1967, Bareiss 1968). Basis
columns are integer, so ``adj = D B^-1`` with ``D = |det B|`` is an integer
matrix. One integer tableau of m + 1 rows holds the whole state: row i < m is
``[adj S | D L x_B]`` and row m is ``[y S | D L w]``, with S the diagonal of
row signs, L the lcm of the right-hand-side denominators, ``y = c_B adj`` the
scaled phase-1 multipliers and w the phase-1 objective. With the signs folded
into the columns, the last row obeys the same exact Bareiss row update as the
others, so one update with one integer division pivots the basis inverse,
the solution, the multipliers and the objective together. Most pivots are
unimodular steps: the entering direction's pivot entry equals D, so the new
basis has the old determinant (91% of the 4,561 pivots that the 77 systems
of the membership benchmark's mix and nudge items that still reach the
simplex make; its effective vectors are decided by their proposals and 35
nudge items by a violated row of ``polytope.ROW_FAMILIES``). Every product of the
direction and the pivot row is then a multiple of D, and the update
``tab - direction row / D`` skips the scaling pass, and the division too
when D = 1.

The array is int64 while ``_needs_object`` proves, from a bound ``peak`` on
the absolute entries, that no intermediate value can overflow, and Python
integers (object dtype) from then on. ``peak`` is a running bound. It is
exact at the start, where the objective entry is the largest, and a pivot
raises it to ``peak (pivot + max |direction|) / D``, which covers the
updated rows, unless ``peak`` itself, which covers the kept pivot row, is
larger. Only when the running bound fails the guard does the loop scan the
tableau for its exact peak and restart the bound there; it switches to
Python integers only if the exact peak fails the guard too. On those
systems about 5% of the iterations scan.

Pricing gives every column's reduced cost at once, in one of two ways that
yield the same integers, so Bland's choices never depend on which one ran.
While the tableau is int64 and m 2^n is at most ``_INCIDENCE_MAX``, the
row ``y S`` times the 0/1 incidence matrix (m x 2^n, built once per solve)
prices in one numpy call per pivot. Otherwise ``y S`` is placed at the row
masks of one 2^n buffer and ``lattice.subset_sums`` sums it over subsets in
place: about n numpy calls and n 2^(n-1) additions against m 2^n
multiply-adds, so it wins once the system is large, and it never holds the
m x 2^n matrix (72 MB for the pair scheme at n = 16). Object tableaux always
take the subset sums, because an object matrix product makes m 2^n Python
multiplications. Either way the tableau times the entering column gives the
direction and, in its last entry, the entering reduced cost.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .lattice import INT64_MAX, Decomposition, subset_sums
from .rational import scaled

# Largest m * 2^n at which int64 pricing multiplies by the incidence matrix.
# On a 2-core Xeon VM the product solved pair schemes 1.3x faster at n = 8
# (m 2^n = 9,472), about as fast at n = 9 (23,552) and 1.3-1.6x slower at
# n = 10 (57,344).
_INCIDENCE_MAX = 2**15


def _needs_object(m: int, peak: int) -> bool:
    """Whether one iteration on tableau entries bounded by ``peak`` could leave int64.

    Pivot numerators reach ``2 m peak^2``. Reduced costs and the direction are
    sums of at most m stored entries (the multipliers and the objective are
    tableau entries, so they count toward ``peak``) and reach ``m peak``.
    """
    return m * peak * max(2 * peak, m) > INT64_MAX


def solve_zero_one_feasibility(
    n: int, rows: Sequence[tuple[int, Fraction]]
) -> Decomposition | tuple[int, ...]:
    """Decide feasibility of the subset-sum system described in the module docstring."""
    m = len(rows)
    ncols = 1 << n
    if any(mask < 0 or mask >= ncols for mask, _ in rows):
        raise ValueError("row mask outside {0,1}^n")
    masks = np.array([mask for mask, _ in rows], dtype=np.int64)
    rhs = [Fraction(value) for _, value in rows]

    # Flip row signs so the artificial start point b >= 0 is feasible; the
    # signs then sit in the tableau's columns, as adj S and y S.
    scale, numerators = scaled(rhs)
    signs = [1 if v >= 0 else -1 for v in numerators]
    start = [abs(v) for v in numerators]
    peak = max(sum(start), 1)  # bound on |entry| of the tableau, exact at the start
    dtype = object if _needs_object(m, peak) else np.int64
    tab = np.zeros((m + 1, m + 1), dtype=dtype)
    tab[range(m), range(m)] = signs  # adj = identity, so adj S = S
    tab[:m, m] = start
    tab[m, :m] = signs  # y = c_B adj = 1 per row: every basic column is artificial
    tab[m, m] = sum(start)
    det = 1
    basis = [ncols + i for i in range(m)]  # artificial column per row
    incidence = None  # column eps of the system, for every eps, while the product pays
    if dtype is not object and m * ncols <= _INCIDENCE_MAX:
        incidence = ((masks[:, None] & ~np.arange(ncols)) == 0).astype(np.int64)

    while True:
        if tab.dtype != object and _needs_object(m, peak):
            peak = int(abs(tab).max())  # the bound over-counts; the exact peak decides
            if _needs_object(m, peak):
                tab, incidence = tab.astype(object), None
        if incidence is not None:
            reduced = tab[m, :m] @ incidence
        else:
            reduced = np.zeros(ncols, dtype=tab.dtype)
            np.add.at(reduced, masks, tab[m, :m])
            subset_sums(reduced)
        entering = int((reduced > 0).argmax())  # Bland: lowest assignment index

        if not reduced[entering] > 0:
            if tab[m, m]:
                farkas = tab[m, :m].tolist()  # det times the multipliers; det > 0 keeps the ray
                g = math.gcd(*farkas)
                return tuple(v // g for v in farkas)
            support = [i for i in range(m) if basis[i] < ncols and tab[i, m]]
            return Decomposition(n, det * scale, tuple(basis[i] for i in support), tuple(tab[support, m].tolist()))

        # det B^-1 column(entering), and in the last entry reduced[entering].
        column = incidence[:, entering] if incidence is not None else (masks & ~entering) == 0
        direction = tab[:, :m] @ column
        xs, ds = tab[:m, m].tolist(), direction.tolist()
        leave = -1
        for i in range(m):
            # Ratio test by cross-multiplication, ties to the lowest basis index.
            if ds[i] > 0 and (leave < 0 or (xs[i] * ds[leave], basis[i]) < (xs[leave] * ds[i], basis[leave])):
                leave = i
        if leave < 0:
            raise AssertionError("phase-1 objective is bounded below; no unbounded direction exists")

        # One Bareiss step pivots adj, the solution, the multipliers and the objective:
        # tab = (tab pivot - direction row) / det, with the pivot row kept as it is.
        pivot, row = ds[leave], tab[leave]
        if pivot == det:
            # Unimodular step: every direction_i row_j is then a multiple of det.
            # Zeroing direction[leave] keeps the pivot row.
            direction[leave] = 0
            step = direction[:, None] * row
            if det != 1:
                step //= det
            tab -= step
        else:
            row = row.copy()
            tab *= pivot
            tab -= direction[:, None] * row
            if det != 1:
                tab //= det
            tab[leave] = row
        # Updated rows stay within peak (pivot + max |direction|) / det, the kept pivot row within peak.
        peak = max(peak, peak * (pivot + max(map(abs, ds))) // det)
        det = pivot
        basis[leave] = entering
