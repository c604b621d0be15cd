"""Exact rational values: parsing, formatting, and float rationalization.

All probability-side arithmetic in this package runs on ``fractions.Fraction``.
Floats only enter through measured quantum traces or hand-written input files,
and they are converted here under an explicit policy instead of being mixed
silently into exact computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidDistribution, NumericalFailure


@dataclass(frozen=True)
class RationalizationPolicy:
    """How floats are identified with exact fractions.

    ``strict`` additionally requires the recovered denominator to be a
    product of 2s and 5s, i.e. the float must stand for an exact binary or
    decimal literal.
    """

    tolerance: float = 1e-9
    max_denominator: int = 10**6
    strict: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.max_denominator < 1:
            raise ValueError("max denominator must be at least 1")


DEFAULT_POLICY = RationalizationPolicy()


def rationalize(value: float, policy: RationalizationPolicy = DEFAULT_POLICY) -> Fraction:
    """Return the nearest fraction with a bounded denominator, or fail loudly."""
    if not math.isfinite(value):
        raise NumericalFailure(f"cannot rationalize non-finite value {value!r}")
    approx = Fraction(value).limit_denominator(policy.max_denominator)
    if abs(approx - Fraction(value)) > Fraction(policy.tolerance):
        raise NumericalFailure(
            f"{value!r} is not within {policy.tolerance} of any fraction "
            f"with denominator <= {policy.max_denominator}"
        )
    if policy.strict and not _is_decimal_denominator(approx.denominator):
        raise NumericalFailure(
            f"strict mode: {value!r} is not an exact binary/decimal fraction"
        )
    return approx


def _is_decimal_denominator(den: int) -> bool:
    for p in (2, 5):
        while den % p == 0:
            den //= p
    return den == 1


def parse_rational(value, policy: RationalizationPolicy = DEFAULT_POLICY) -> Fraction:
    """Parse a JSON scalar (int, fraction/decimal string, or float) exactly.

    Strings go through ``Fraction`` directly, so "3/8", "0.375" and "2" are
    all exact. Floats are rationalized under the policy; a ``Fraction`` passes through.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise NumericalFailure(f"expected a number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return rationalize(value, policy)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ValueError as exc:
            raise NumericalFailure(str(exc)) from exc
        except ZeroDivisionError as exc:
            raise NumericalFailure(f"{value!r} has a zero denominator") from exc
    raise NumericalFailure(f"cannot interpret {value!r} as a rational number")


def scaled(values: list) -> tuple:
    """Common denominator of some fractions (or ints) and their numerators over it."""
    den = math.lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def exact_number(value, what: str) -> Fraction:
    """A library weight or mass as a Fraction: an int, a Fraction, or a finite float at its exact binary value.

    Floats here are not rationalized: no policy applies to hand-built masses. Anything else, bools, NaN and
    the infinities included, raises InvalidDistribution naming `what`.
    """
    exact = isinstance(value, (int, Fraction)) and not isinstance(value, bool)
    if exact or isinstance(value, float) and math.isfinite(value):
        return Fraction(value)
    raise InvalidDistribution(f"{what} must be a finite number, got {value!r}")


def format_rational(value: Fraction) -> str:
    """Lowest-terms string form, e.g. "3/8", "0", "1"."""
    return str(value)
