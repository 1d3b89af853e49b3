"""Exact combinatorial ingredients: Bernoulli numbers, polylogarithms at
non-positive integer order, harmonic numbers, and pinned constants.

Everything in this module is either exact rational arithmetic
(:class:`BernoulliTable`, the Eulerian numerator polynomials) or a single
rounding away from it, so the heavier numeric layers can treat these values
as ground truth.
"""

import functools
import math
import threading
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import (
    CapacityError,
    ConditioningWarning,
    DomainError,
    RangeOverflowError,
)

__all__ = [
    "CATALAN",
    "EULER_GAMMA",
    "PI",
    "BernoulliTable",
    "bernoulli",
    "PolylogRational",
    "polylog_nonpos",
    "polylog_nonpos_orders",
    "eulerian_row",
    "harmonic_number",
]

# Pinned to 17 significant digits (unit tests recompute them from their
# defining series).
CATALAN = 0.91596559417721902
EULER_GAMMA = 0.57721566490153286
PI = math.pi


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

def _float_or_inf(v) -> float:
    # |B_n| exceeds double range near n ~ 260; exact values stay usable,
    # the float mirror saturates
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


@dataclass(frozen=True)
class BernoulliTable:
    """Bernoulli numbers ``B_0 .. B_max_index`` as exact fractions.

    Uses the convention ``B_1 = -1/2``; all other odd entries vanish.
    ``as_float`` mirrors the table in double precision for the numeric
    layers.  Tables are immutable after construction.
    """

    max_index: int
    values: tuple  # tuple[Fraction, ...]
    as_float: tuple  # tuple[float, ...]

    @classmethod
    def build(cls, max_index: int = 64) -> "BernoulliTable":
        if max_index < 0:
            raise ValueError("max_index must be >= 0")
        vals = [Fraction(1)]
        for n in range(1, max_index + 1):
            # sum_{j<n} C(n+1, j) B_j = 0 for n >= 1 rearranged for B_n
            acc = Fraction(0)
            for j in range(n):
                acc += comb(n + 1, j) * vals[j]
            vals.append(-acc / (n + 1))
        return cls(
            max_index=max_index,
            values=tuple(vals),
            as_float=tuple(_float_or_inf(v) for v in vals),
        )

    def __getitem__(self, n: int) -> Fraction:
        if not 0 <= n <= self.max_index:
            raise CapacityError(
                f"Bernoulli table holds B_0..B_{self.max_index}, asked for B_{n}"
            )
        return self.values[n]


_default_table = None
_table_lock = threading.Lock()


def _get_default_table() -> BernoulliTable:
    global _default_table
    if _default_table is None:
        with _table_lock:
            if _default_table is None:
                _default_table = BernoulliTable.build(64)
    return _default_table


def bernoulli(n: int, table: BernoulliTable | None = None) -> Fraction:
    """Exact Bernoulli number ``B_n`` (``B_1 = -1/2`` convention).

    Raises :class:`CapacityError` when ``n`` exceeds the table, which is
    the default table's ``max_index=64`` unless a larger one is supplied.
    """
    if n < 0:
        raise DomainError("Bernoulli numbers are indexed by n >= 0")
    tab = table if table is not None else _get_default_table()
    return tab[n]


# ---------------------------------------------------------------------------
# Polylogarithm at non-positive integer order
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolylogRational:
    """The rational function equal to ``Li_{-m}(z)`` for integer ``m >= 0``.

    ``Li_{-m}(z) = N_m(z) / (1-z)^(m+1)`` where ``N_m`` has the Eulerian
    numbers as coefficients: ``N_m(z) = sum_i <m, i-1> z^i``.  ``coeffs``
    stores the exact integer coefficients of ``z^1, z^2, ...`` (degree m
    for m >= 1; for ``m = 0`` the numerator is just ``z``).
    """

    order: int
    coeffs: tuple  # tuple[int, ...]; coeffs[i-1] multiplies z**i

    @classmethod
    def build(cls, order: int) -> "PolylogRational":
        if order < 0:
            raise DomainError("order must be >= 0 (this is Li at -order)")
        # Grow N_m by the recurrence N_{m+1} = z*((1-z)*N_m' + (m+1)*N_m),
        # which on coefficients reads new_c[i] = i*c[i] + (m+2-i)*c[i-1].
        c = [1]  # N_0(z) = z
        for m in range(order):
            nxt = [0] * (len(c) + 1)
            for i in range(1, len(c) + 2):
                ci = c[i - 1] if i - 1 < len(c) else 0
                cim1 = c[i - 2] if i - 2 >= 0 else 0
                nxt[i - 1] = i * ci + (m + 2 - i) * cim1
            while nxt and nxt[-1] == 0:
                nxt.pop()
            c = nxt
        return cls(order=order, coeffs=tuple(c))

    def evaluate(self, z: complex, guard: float = 1e-12) -> complex:
        """Evaluate at ``z``; the pole ``z = 1`` is a hard error and a
        ``guard``-neighborhood of it only warns (:class:`ConditioningWarning`)."""
        if z == 1:
            raise DomainError("Li_{-m}(z) has a pole at z = 1")
        gap = 1.0 - z
        note = _near_pole(gap, guard)
        if note:
            warnings.warn(note, ConditioningWarning, stacklevel=2)
        try:
            return _rational(reversed(self.coeffs), self.order, z, gap)
        except (OverflowError, ZeroDivisionError) as exc:  # gap**(m+1) underflowed
            raise _overflow(self.order, z) from exc


def _rational(coeffs, order: int, z: complex, gap: complex) -> complex:
    """``z * N(z) / gap**(order+1)``, ``N`` by Horner from its highest
    coefficient; a float coefficient adds to a complex as its int does."""
    num = 0j
    for c in coeffs:
        num = num * z + c
    num *= z
    return num / gap ** (order + 1)


def _near_pole(gap: complex, guard: float):
    """The conditioning note for ``|1 - z| = |gap| < guard``, else None."""
    if abs(gap) < guard:
        return (f"polylog evaluated within {guard:g} of its pole at z=1 "
                f"(|1-z| = {abs(gap):.3e}); expect degraded accuracy")
    return None


def _overflow(order: int, z: complex) -> RangeOverflowError:
    return RangeOverflowError(
        f"Li_(-{order})({z!r}) exceeds double range (Eulerian "
        "numerator coefficients grow factorially and the pole factor "
        f"is (1-z)**{order + 1})"
    )


_polylog_cache: dict = {}
_polylog_lock = threading.Lock()


def _polylog_rational(order: int) -> PolylogRational:
    try:
        return _polylog_cache[order]
    except KeyError:
        with _polylog_lock:
            if order not in _polylog_cache:
                _polylog_cache[order] = PolylogRational.build(order)
            return _polylog_cache[order]


def polylog_nonpos(m: int, z: complex, guard: float = 1e-12) -> complex:
    """``Li_{-m}(z)`` for integer ``m >= 0`` via its closed rational form."""
    return _polylog_rational(m).evaluate(complex(z), guard=guard)


@functools.lru_cache(maxsize=64)
def _horner_rows(k: int) -> tuple:
    """The numerator coefficients of ``Li_0 .. Li_{-(k-1)}`` as floats,
    highest power first: the order in which :meth:`PolylogRational.evaluate`
    adds them.  One past double range stays an int, so that adding it
    raises ``OverflowError`` at its order, as there."""
    return tuple(tuple(float(c) if c.bit_length() <= 1023 else c
                       for c in reversed(_polylog_rational(m).coeffs))
                 for m in range(k))


def polylog_nonpos_orders(k: int, z: complex, guard: float = 1e-12):
    """``([Li_0(z), ..., Li_{-(k-1)}(z)], note)``: bitwise the values of
    ``k`` :func:`polylog_nonpos` calls, from coefficients converted once per
    ``k``.  ``note`` is the :class:`ConditioningWarning` text those calls
    would each issue near the pole, or None; nothing is warned here."""
    z = complex(z)
    if z == 1:
        raise DomainError("Li_{-m}(z) has a pole at z = 1")
    gap = 1.0 - z
    out = []
    try:
        for m, row in enumerate(_horner_rows(k)):
            out.append(_rational(row, m, z, gap))
    except (OverflowError, ZeroDivisionError) as exc:  # gap**(m+1) underflowed
        raise _overflow(len(out), z) from exc
    return out, _near_pole(gap, guard)


def eulerian_row(m: int) -> tuple:
    """Eulerian numbers ``<m, 0>, <m, 1>, ..., <m, m-1>`` (``m >= 1``).

    These are exactly the numerator coefficients of ``Li_{-m}``.
    """
    if m < 1:
        raise DomainError("Eulerian rows are defined here for m >= 1")
    return _polylog_rational(m).coeffs


# ---------------------------------------------------------------------------
# Harmonic numbers
# ---------------------------------------------------------------------------

def harmonic_number(k: int, n: int) -> float:
    """Generalized harmonic number ``H_k(n) = sum_{j=1..n} j**(-k)``."""
    if k < 1 or n < 0:
        raise DomainError("harmonic_number needs k >= 1 and n >= 0")
    return math.fsum(j ** (-float(k)) for j in range(1, n + 1))
