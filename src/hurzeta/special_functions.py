"""Exact combinatorial ingredients: Bernoulli numbers, polylogarithms at
non-positive integer order, and pinned constants.

Everything in this module is either exact rational arithmetic
(:func:`bernoulli`, the Eulerian numerator polynomials of
:func:`eulerian_row`) or a single rounding away from it, so the heavier
numeric layers can treat these values as ground truth.
"""

import cmath
import functools
import math
import warnings
from fractions import Fraction
from math import comb

from .errors import (
    CapacityError,
    ConditioningWarning,
    DomainError,
    RangeOverflowError,
    check_finite,
    check_k,
)

__all__ = [
    "BERNOULLI_MAX_INDEX",
    "CATALAN",
    "EULER_GAMMA",
    "PI",
    "bernoulli",
    "polylog_nonpos",
    "polylog_nonpos_orders",
    "eulerian_row",
]

# Pinned to 17 significant digits (unit tests recompute them from their
# defining series).
CATALAN = 0.91596559417721902
EULER_GAMMA = 0.57721566490153286
PI = math.pi

# Largest Bernoulli index served: the 12 Euler-Maclaurin terms of the series
# oracle need B_24, and odd_zeta_integral at j = 10 needs B_20.
BERNOULLI_MAX_INDEX = 24

# A polylogarithm evaluated within this distance of its pole at z = 1 gets
# a conditioning note.
POLE_GUARD = 1e-12


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

@functools.cache
def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number ``B_n`` (``B_1 = -1/2`` convention).

    Raises :class:`CapacityError` above ``BERNOULLI_MAX_INDEX``.
    """
    n = check_k(n, minimum=0, name="n")
    if n > BERNOULLI_MAX_INDEX:
        raise CapacityError(
            f"Bernoulli numbers are served up to B_{BERNOULLI_MAX_INDEX}, "
            f"asked for B_{n}"
        )
    if n == 0:
        return Fraction(1)
    if n >= 3 and n % 2:
        return Fraction(0)
    # sum_{j<n} C(n+1, j) B_j = 0 for n >= 1 rearranged for B_n, over the
    # nonzero B_j (j = 1 and the even j); they come from the cache in
    # increasing j, so the recursion stays shallow
    acc = Fraction(0)
    for j in range(n):
        if j == 1 or j % 2 == 0:
            acc += comb(n + 1, j) * bernoulli(j)
    return -acc / (n + 1)


# ---------------------------------------------------------------------------
# Polylogarithm at non-positive integer order
# ---------------------------------------------------------------------------

_EULERIAN = [(1,)]  # rows 1, 2, ... as far as any caller has asked


def eulerian_row(m: int) -> tuple:
    """Eulerian numbers ``<m, 0>, <m, 1>, ..., <m, m-1>`` (``m >= 1``).

    These are exactly the numerator coefficients of ``Li_{-m}``:
    ``Li_{-m}(z) = z * N_m(z) / (1-z)^(m+1)`` with
    ``N_m(z) = sum_i <m, i> z^i``.  Rows are built once, in order.
    """
    m = check_k(m, minimum=1, name="m")
    while len(_EULERIAN) < m:
        # <n, i> = (i+1) <n-1, i> + (n-i) <n-1, i-1>
        n = len(_EULERIAN) + 1
        prev = (0,) + _EULERIAN[-1] + (0,)
        _EULERIAN.append(tuple((i + 1) * prev[i + 1] + (n - i) * prev[i]
                               for i in range(n)))
    return _EULERIAN[m - 1]


@functools.lru_cache(maxsize=64)
def _horner_rows(k: int) -> tuple:
    """The numerator coefficients of ``Li_0 .. Li_{-(k-1)}`` as floats,
    highest power first.  One past double range stays an int, so that
    adding it raises ``OverflowError`` at its order."""
    return tuple(tuple(float(c) if c.bit_length() <= 1023 else c
                       for c in reversed(eulerian_row(m) if m else (1,)))
                 for m in range(k))


def _overflow(order: int, z: complex) -> RangeOverflowError:
    # checked only once a value failed, so a finite z pays nothing for it
    check_finite(z, "z")
    return RangeOverflowError(
        f"Li_(-{order})({z!r}) exceeds double range (Eulerian "
        "numerator coefficients grow factorially and the pole factor "
        f"is (1-z)**{order + 1})"
    )


def polylog_nonpos_orders(k: int, z: complex):
    """``([Li_0(z), ..., Li_{-(k-1)}(z)], note)`` from the closed rational
    forms ``z * N_m(z) / (1-z)**(m+1)``, ``N_m`` by Horner's rule.

    The pole ``z = 1`` is a :class:`DomainError`; ``note`` is the
    :class:`ConditioningWarning` text for ``z`` within ``POLE_GUARD`` of it,
    or None, and is returned, not warned.  The first order whose value is
    not finite raises :class:`RangeOverflowError` naming it, or
    :class:`DomainError` if ``z`` itself is not finite or not a number."""
    try:
        z = complex(z)
    except (TypeError, ValueError, OverflowError):
        z = check_finite(z, "z")  # not a number: raises DomainError
    if z == 1:
        raise DomainError("Li_{-m}(z) has a pole at z = 1")
    gap = 1.0 - z
    out = []
    for m, row in enumerate(_horner_rows(k)):
        num = 0j
        try:
            for c in row:  # an int coefficient past double range overflows here
                num = num * z + c
            v = num * z / gap ** (m + 1)
        except (OverflowError, ZeroDivisionError) as exc:  # or gap**(m+1) underflowed
            raise _overflow(m, z) from exc
        if not cmath.isfinite(v):
            raise _overflow(m, z)
        out.append(v)
    note = None
    if abs(gap) < POLE_GUARD:
        note = (f"polylog evaluated within {POLE_GUARD:g} of its pole at z=1 "
                f"(|1-z| = {abs(gap):.3e}); expect degraded accuracy")
    return out, note


def polylog_nonpos(m: int, z: complex) -> complex:
    """``Li_{-m}(z)`` for integer ``m >= 0``: order ``m`` of
    :func:`polylog_nonpos_orders`, warning its pole note."""
    m = check_k(m, minimum=0, name="m")
    values, note = polylog_nonpos_orders(m + 1, z)
    if note:
        warnings.warn(note, ConditioningWarning, stacklevel=2)
    return values[m]

