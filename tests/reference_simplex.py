"""Reference for the exact simplex: the earlier Fraction-based solver, its pivoting kept verbatim.

Tests compare ``kolmorep.simplex.solve_zero_one_feasibility`` against it and
require equal weights and Farkas multipliers, not merely valid ones: both
follow Bland's rule on the same exact values, so they pivot identically.
Feasible systems return a dict from ``lattice.bits`` tuples to Fractions,
which a ``Decomposition`` equals as a Mapping; infeasible ones the Farkas tuple.
Slow (Fraction arithmetic, a per-column pricing loop); test use only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Union

from kolmorep import lattice

_q = Fraction
_ZERO = _q(0)
_ONE = _q(1)


def _to_fraction(value) -> Fraction:
    return Fraction(int(value.numerator), int(value.denominator))


def solve_zero_one_feasibility(
    n: int, rows: Sequence[tuple[int, Fraction]]
) -> Union[dict, tuple]:
    """Decide feasibility of the subset-sum system described in the module docstring."""
    m = len(rows)
    ncols = 1 << n
    masks = [mask for mask, _ in rows]
    if any(mask < 0 or mask >= ncols for mask in masks):
        raise ValueError("row mask outside {0,1}^n")

    # Flip row signs so the artificial start point b >= 0 is feasible.
    signs = [1 if rhs >= 0 else -1 for _, rhs in rows]
    xb = [_q(rhs) if s > 0 else -_q(rhs) for (_, rhs), s in zip(rows, signs)]

    basis = [ncols + i for i in range(m)]  # artificial column per row
    binv = [[_ONE if i == j else _ZERO for j in range(m)] for i in range(m)]

    while True:
        artificial_rows = [i for i in range(m) if basis[i] >= ncols]
        # Multipliers y = c_B B^-1 with phase-1 costs: 1 on artificials, 0 else.
        y = [_ZERO] * m
        for i in artificial_rows:
            row = binv[i]
            for j in range(m):
                if row[j]:
                    y[j] += row[j]
        z = [y[j] if signs[j] > 0 else -y[j] for j in range(m)]
        hot = [(masks[j], z[j]) for j in range(m) if z[j]]

        entering = -1
        for eps in range(ncols):  # Bland: lowest assignment index first
            total = _ZERO
            for mask, zj in hot:
                if mask & ~eps == 0:
                    total += zj
            if total > 0:
                entering = eps
                break

        if entering < 0:
            value = sum((xb[i] for i in artificial_rows), _ZERO)
            if value == 0:
                return {
                    lattice.bits(basis[i], n): _to_fraction(xb[i])
                    for i in range(m)
                    if basis[i] < ncols and xb[i]
                }
            return tuple(
                _to_fraction(y[j] if signs[j] > 0 else -y[j]) for j in range(m)
            )

        # Direction d = B^-1 column(entering), column entries are the row signs.
        col = [(_ONE if signs[i] > 0 else -_ONE) if masks[i] & ~entering == 0 else _ZERO for i in range(m)]
        d = []
        for i in range(m):
            row = binv[i]
            acc = _ZERO
            for j in range(m):
                if col[j]:
                    acc += row[j] * col[j]
            d.append(acc)

        leave = -1
        best: Optional[object] = None
        for i in range(m):
            if d[i] > 0:
                ratio = xb[i] / d[i]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise AssertionError("phase-1 objective is bounded below; no unbounded direction exists")

        piv = d[leave]
        binv[leave] = [v / piv for v in binv[leave]]
        xb[leave] = xb[leave] / piv
        for i in range(m):
            if i != leave and d[i]:
                f = d[i]
                rl = binv[leave]
                ri = binv[i]
                binv[i] = [ri[j] - f * rl[j] for j in range(m)]
                xb[i] = xb[i] - f * xb[leave]
        basis[leave] = entering
