"""Sums over the Boolean lattice of index sets, and the bitmask format they share.

A set of 1-based indices is the bitmask with bit i - 1 set for each member i.
An array whose last axis has 2^n entries holds one value per subset of n
positions, at the subset's mask. Three in-place transforms act on that axis:

* ``subset_sums``: a[S] becomes the sum of a[T] over every T inside S (zeta
  transform). A correlation-polytope vertex eps gets the sum of the
  coefficients of the sets it switches fully on, which prices the exact
  simplex's columns and evaluates a separating functional on every vertex.
* ``superset_sums``: a[S] becomes the sum of a[T] over every T containing S.
  Atoms of a finite space become the measures of intersections.
* ``invert_superset_sums``: the Moebius inversion that undoes it,
  a[S] = sum over T containing S of (-1)^|T - S| a[T] (Rota 1964), which
  turns a context's moments into its atoms.

Each transform walks one bit at a time, combining two interleaved half-views
of the array in one numpy call, on int64 and object (Python int) arrays
alike. For the three lowest bits a half-view is many runs of 1, 2 or 4
entries, shorter than a 64-byte cache line, and numpy walks it run by run;
those steps iterate down the long strided axis instead (``order="F"``). On a
2-core Xeon VM that made the bit-1 step 3.4x faster at n = 10 and 12x at
n = 14, and the bit-2 step 1.6x faster at both.

An in-place transform needs a C-contiguous array: a reshape of any other
array copies it and the sums would land in the copy, so such input raises
``ValueError`` rather than be left unchanged.
"""

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

INT64_MAX = 2**63 - 1


def mask(index_set) -> int:
    """Bitmask of a set of 1-based indices."""
    return sum(1 << (i - 1) for i in set(index_set))


def bits(mask: int, n: int) -> tuple:
    """The n bits of a mask, lowest first."""
    return tuple((mask >> k) & 1 for k in range(n))


def members(mask: int) -> tuple:
    """Sorted 1-based indices of the bits set in a mask."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True, eq=False)
class Decomposition(Mapping):
    """Weight ``numerators[k] / denominator`` on the n-bit assignment ``masks[k]``: an Inside witness in integers.

    ``simplex`` builds it, so it lives here. Nothing is checked. As a read-only Mapping it lists
    ``bits(mask, n)`` -> lowest-terms Fraction in mask order, built on first read, and equality is that
    Mapping's. The view keeps a mask's low n bits and one entry per mask: compare ``(masks, numerators)``
    to tell invalid decompositions apart.
    """

    n: int
    denominator: int
    masks: tuple
    numerators: tuple

    @cached_property
    def _fractions(self) -> dict:
        n, den = self.n, self.denominator
        return {bits(m, n): Fraction(w, den) for m, w in sorted(zip(self.masks, self.numerators))}

    def __getitem__(self, key) -> Fraction:
        return self._fractions[key]

    def __iter__(self):
        return iter(self._fractions)

    def __len__(self) -> int:
        return len(self._fractions)


def _transform(a: np.ndarray, ufunc: np.ufunc, to: int) -> np.ndarray:
    """Bit by bit, in place: each entry whose bit is ``to`` becomes ``ufunc`` of itself and its partner."""
    size = a.shape[-1] if a.ndim else 0
    if size < 1 or size & (size - 1) or a.dtype not in (np.int64, object):
        raise ValueError(f"need int64 or object entries over 2^n positions, got {a.dtype} with {size}")
    if not a.flags.c_contiguous:
        raise ValueError("array is not C-contiguous, so an in-place transform would change a copy")
    for b in range(size.bit_length() - 1):
        half = a.reshape(-1, 2, 1 << b)
        target, source = half[:, to], half[:, 1 - to]
        ufunc(target, source, out=target, order="F" if b < 3 else "K")
    return a


def subset_sums(a: np.ndarray) -> np.ndarray:
    """In place: a[..., S] becomes the sum of a[..., T] over every T inside S. Returns a."""
    return _transform(a, np.add, 1)


def superset_sums(a: np.ndarray) -> np.ndarray:
    """In place: a[..., S] becomes the sum of a[..., T] over every T containing S. Returns a."""
    return _transform(a, np.add, 0)


def invert_superset_sums(a: np.ndarray) -> np.ndarray:
    """In place: undo ``superset_sums``, so a[..., S] becomes an atom. Returns a."""
    return _transform(a, np.subtract, 0)
