"""Exception hierarchy and warning categories.

Everything numeric that can go wrong maps to a subclass of
:class:`HurzetaError`, so callers (and the CLI) can distinguish
"you asked for something outside the domain" from "the computation
itself could not be completed".

It also holds the argument validators that raise :class:`DomainError`, which
every layer uses: :func:`check_k` for counts, :func:`check_finite` for points
and :func:`check_real` for real numbers of an open interval.
"""

import math
import numbers

__all__ = [
    "HurzetaError",
    "DomainError",
    "UnsupportedParameterError",
    "RangeOverflowError",
    "CapacityError",
    "EvaluationError",
    "DivergenceError",
    "IllConditionedError",
    "ConditioningWarning",
    "InstabilityWarning",
    "check_k",
    "check_finite",
    "check_real",
]


class HurzetaError(Exception):
    """Base class for all library errors."""


class DomainError(HurzetaError, ValueError):
    """Parameter lies outside the mathematical domain (pole, divergent series)."""


class UnsupportedParameterError(HurzetaError, ValueError):
    """Parameter is mathematically fine but this code path cannot handle it.

    Typical case: the closed-form evaluator needs ``b`` away from the
    integers, while the value itself is perfectly finite there.
    """


class RangeOverflowError(HurzetaError, OverflowError):
    """An intermediate quantity would leave double-precision range."""


class CapacityError(HurzetaError):
    """A capacity cap (largest Bernoulli index, series term budget) is below
    the request."""


class EvaluationError(HurzetaError):
    """An integrand returned a non-finite value, or an integral a result
    depends on did not converge.

    Attributes
    ----------
    node : float
        The abscissa at which the bad value was produced.
    row : int
        The row of an integrand family that produced it.
    """

    def __init__(self, message, node=None, row=None):
        super().__init__(message)
        self.node = node
        self.row = row


class DivergenceError(HurzetaError):
    """An endpoint precondition for a singular-weight integral fails.

    The cotangent-weighted integrals only exist when the smooth factor
    vanishes at both endpoints; a violation means the integral diverges
    (or the integrand was transcribed wrongly).
    """


class IllConditionedError(HurzetaError):
    """Inputs sit too close to a singular locus for a trustworthy answer.

    Attributes
    ----------
    locus : str
        Human-readable description of the offending locus.
    """

    def __init__(self, message, locus=None):
        super().__init__(message)
        self.locus = locus


class ConditioningWarning(UserWarning):
    """Result is returned but nearby singularities degrade its accuracy."""


class InstabilityWarning(UserWarning):
    """A cross-check (e.g. two-radius coefficient recovery) disagrees."""


def check_k(k, minimum: int = 2, name: str = "k") -> int:
    """``k`` as an ``int``; :class:`DomainError` unless it is an integer
    ``>= minimum``.  Integer-valued floats such as ``3.0`` are accepted;
    other floats and strings are not."""
    if isinstance(k, float) and k.is_integer():
        k = int(k)
    if not isinstance(k, numbers.Integral) or k < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {k!r}")
    return int(k)


def check_finite(value, name: str) -> complex:
    """``value`` as a complex; :class:`DomainError` unless it is a number
    whose parts are both finite."""
    try:
        z = complex(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be a finite number, got {value!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{name} must be finite")
    return z


def check_real(value, name: str, lo: float, hi: float) -> float:
    """``value`` as a float; :class:`DomainError` unless it is a real number
    (a complex one is not, whatever its imaginary part) with ``lo < value <
    hi``, which NaN fails."""
    real = isinstance(value, numbers.Real) or not isinstance(value, numbers.Complex)
    try:
        x = float(value) if real else math.nan
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not lo < x < hi:
        raise DomainError(f"{name} must lie in ({lo:g}, {hi:g}), got {value!r}")
    return x

