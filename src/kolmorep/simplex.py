"""Exact phase-1 simplex over implicit 0/1 assignment columns.

The one problem solved here: given rows ``(T_k, r_k)`` with ``T_k`` an index
set (as a bitmask over n positions) and ``r_k`` rational, decide whether there
are weights ``lam >= 0`` over all assignments ``eps in {0,1}^n`` with

    sum over eps containing T_k of lam_eps  =  r_k     for every row.

The rows come in integer form: their masks, a common denominator L and the
numerators ``L r_k``, the pair that ``rational.scaled`` gives. The
normalization row "total weight 1" is just the row with the empty mask and
numerator L. The column of assignment ``eps`` has entry 1 in row k exactly
when ``T_k`` is a subset of ``eps``.

Method: revised phase-1 simplex on an artificial basis, Bland's rule for both
the entering and the leaving choice, so the run terminates without cycling.
Artificial columns are dropped once they leave the basis. The run stops as
soon as the phase-1 objective is zero, even if a column still prices
positive: every further pivot would be degenerate, leaving each positive
basic weight in its row at its value, so the weights are final (279 of the
4,561 pivots that the benchmark systems below made to optimality were such
pivots). They are returned as a ``lattice.Decomposition`` of the tableau's
integers over ``D L`` (below). A positive optimum returns the final
multipliers, ints in lowest terms in input order: a separating functional y
with ``y . column(eps) <= 0`` for every assignment and ``y . rhs > 0``.

Arithmetic is exact and fraction-free (Edmonds 1967, Bareiss 1968). Basis
columns are integer, so ``adj = D B^-1`` with ``D = |det B|`` is an integer
matrix. One integer tableau of m + 1 rows holds the whole state: row i < m is
``[adj S | D L x_B | adj S A]`` and row m is ``[y S | D L w | y S A]``, with
S the diagonal of row signs, A the m x 2^n column matrix, ``y = c_B adj``
the scaled phase-1 multipliers and w the phase-1 objective. The last row's
third block is then every column's reduced cost and the block's column eps
the direction of eps. With the signs folded into the columns, the last row
obeys the same exact Bareiss row update as the others, so one update with
one integer division pivots the basis inverse, the solution, the priced
columns, the multipliers and the objective together. Most pivots are
unimodular steps: the entering direction's pivot entry equals D, so the new
basis has the old determinant (91% of the 4,282 pivots that the 77 systems
of the membership benchmark's mix and nudge items that still reach the
simplex make; its effective vectors are decided by their proposals and 35
nudge items by a violated row of ``polytope.ROW_FAMILIES``). Every product
of the direction and the pivot row is then a multiple of D, and the update
``tab - direction row / D`` skips the scaling pass, and the division too
when D = 1.

The priced block exists only while m 2^n is at most ``_INCIDENCE_MAX`` and
the tableau is int64. Otherwise ``y S`` is placed at the row masks of a 2^n
buffer, allocated once per solve and dtype, ``lattice.subset_sums`` sums it over
subsets in place (about n numpy calls and n 2^(n-1) additions, and never an
m x 2^n matrix: 72 MB for the pair scheme at n = 16), and the tableau times
the entering column gives the direction. Both pricings yield the same
integers, so Bland's choices never depend on which one ran. Past
``_COLUMNS_MAX`` columns the buffer alone would pass 1 GiB, and the solve
raises ``TooLarge`` before any 2^n array exists.

The array is int64 while ``_needs_object`` proves, from a bound ``peak`` on
the absolute entries of the first two blocks, that no intermediate value can
overflow, and Python integers (object dtype) from then on. A priced entry
sums at most m of those entries, so ``m peak`` bounds the priced block, and
the block needs the tighter guard. ``peak`` is a running bound. It is exact
at the start, where the objective entry is the largest, and a pivot raises
it to ``peak (pivot + max |direction|) / D``, which covers the updated rows,
unless ``peak`` itself, which covers the kept pivot row, is larger. Only
when the running bound fails a guard does the loop scan the tableau for its
exact peak and restart the bound there; if the exact peak fails the block's
guard the block is dropped, and if it fails the plain guard too the tableau
turns to Python integers.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import TooLarge
from .lattice import INT64_MAX, Decomposition, subset_sums

# Largest m * 2^n at which the int64 tableau carries its priced columns. On a
# 2-core Xeon VM, four pair-scheme systems per size solved 2.3x faster with
# them than by subset sums at n = 7 (m 2^n = 3,712), 1.5x at n = 8 (9,472),
# about as fast at n = 9 (23,552) and 1.9x slower at n = 10 (57,344).
_INCIDENCE_MAX = 2**15
# Most columns the simplex prices: the subset-sum buffer then holds 1 GiB of int64.
_COLUMNS_MAX = 2**27


def _needs_object(m: int, peak: int, priced: bool = False) -> bool:
    """Whether one iteration on tableau entries bounded by ``peak`` could leave int64.

    Reduced costs and the direction are sums of at most m entries within
    ``peak`` (the multipliers and the objective are tableau entries, so they
    count toward it) and reach ``m peak``, so pivot numerators reach
    ``2 m peak^2``. With ``priced`` the tableau stores such sums, and their
    pivot numerators reach ``2 (m peak)^2``.
    """
    reach = m * peak
    return reach * max(2 * (reach if priced else peak), m) > INT64_MAX


def solve_zero_one_feasibility(
    n: int, masks: Sequence[int], scale: int, numerators: Sequence[int]
) -> Decomposition | tuple[int, ...]:
    """Decide feasibility of the subset-sum system described in the module docstring.

    Row k has the mask ``masks[k]`` and the right-hand side ``numerators[k] / scale``, plain ints with scale > 0.
    """
    m, ncols = len(masks), 1 << n
    if ncols > _COLUMNS_MAX:
        raise TooLarge(f"{n} events: pricing 2^{n} columns takes {8 << n:,} bytes, past the simplex's limit of "
                       f"2^{_COLUMNS_MAX.bit_length() - 1} columns ({8 * _COLUMNS_MAX:,} bytes)")
    if any(mask < 0 or mask >= ncols for mask in masks):
        raise ValueError("row mask outside {0,1}^n")
    masks = np.array(masks, dtype=np.int64)

    # Flip row signs so the artificial start point b >= 0 is feasible; the
    # signs then sit in the tableau's columns, as adj S and y S.
    signs = [1 if v >= 0 else -1 for v in numerators]
    start = [abs(v) for v in numerators]
    peak = max(sum(start), 1)  # bound on |entry| of [adj S | D L x_B], exact at the start
    priced = m * ncols <= _INCIDENCE_MAX and not _needs_object(m, peak, True)
    tab = np.zeros((m + 1, m + 1 + (ncols if priced else 0)), dtype=object if _needs_object(m, peak) else np.int64)
    tab[range(m), range(m)] = signs  # adj = identity, so adj S = S
    tab[:m, m] = start
    if priced:  # S A: row k's sign at every assignment containing T_k
        tab[:m, m + 1:] = ((masks[:, None] & ~np.arange(ncols)) == 0) * np.array(signs)[:, None]
    tab[m] = tab[:m].sum(axis=0)  # y = c_B adj = 1 per row: every basic column is artificial
    det = 1
    basis = [ncols + i for i in range(m)]  # artificial column per row
    buffer = None  # the subset-sum pricing's 2^n buffer, built on its first use

    while tab[m, m]:  # D L w; at zero every further pivot would be degenerate
        if tab.dtype != object and _needs_object(m, peak, priced):
            peak = int(abs(tab[:, :m + 1]).max())  # the bound over-counts; the exact peak decides
            if priced and _needs_object(m, peak, priced):
                tab, priced = tab[:, :m + 1].copy(), False  # price by subset sums from here on
            if _needs_object(m, peak):
                tab = tab.astype(object)
        if priced:
            reduced = tab[m, m + 1:]
        else:
            if buffer is None or buffer.dtype != tab.dtype:
                buffer = np.zeros(ncols, dtype=tab.dtype)
            else:
                buffer.fill(0)
            np.add.at(buffer, masks, tab[m, :m])
            reduced = subset_sums(buffer)
        entering = int((reduced > 0).argmax())  # Bland: lowest assignment index
        if not reduced[entering] > 0:
            farkas = tab[m, :m].tolist()  # det times the multipliers; det > 0 keeps the ray
            g = math.gcd(*farkas)
            return tuple(v // g for v in farkas)

        # det B^-1 column(entering), and in the last entry reduced[entering].
        direction = tab[:, m + 1 + entering].copy() if priced else tab[:, :m] @ ((masks & ~entering) == 0)
        xs, ds = tab[:m, m].tolist(), direction.tolist()
        leave = -1
        for i in range(m):
            # Ratio test by cross-multiplication, ties to the lowest basis index.
            if ds[i] > 0 and (leave < 0 or (xs[i] * ds[leave], basis[i]) < (xs[leave] * ds[i], basis[leave])):
                leave = i
        if leave < 0:
            raise AssertionError("phase-1 objective is bounded below; no unbounded direction exists")

        # One Bareiss step pivots every block, the multipliers and the objective:
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

    # w = 0 puts every artificial at zero, so the nonzero rows are the positive weights.
    support = [i for i in range(m) if tab[i, m]]
    return Decomposition(n, det * scale, tuple(basis[i] for i in support), tuple(tab[support, m].tolist()))
