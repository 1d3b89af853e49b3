"""Hurwitz zeta ``zeta(k, b) = sum_{j>=0} (j+b)**(-k)`` at integer ``k >= 2``.

Two independent routes are provided.  The closed-form route assembles the
value from polylogarithms of ``q = exp(-2*pi*i*b)`` plus one
cotangent-weighted integral whose smooth factor (the "bracket") vanishes at
both endpoints, and estimates its own relative accuracy from the sizes of
the terms that cancel.  The series route sums the defining series by
Euler--Maclaurin summation (direct terms, then an asymptotic tail with a
rigorous remainder bound), for every ``b`` off the poles.  Every
evaluator takes ``k`` and ``b`` first and checks them itself.

:func:`zeta_auto` chooses between them by one rule: the closed form's value
when its integral converged and its estimate is within ``ROUTE_RTOL``, the
series at ``ROUTE_RTOL`` otherwise -- at positive integer ``b`` (``q = 1``
is a polylogarithm pole), where the terms cancel, and wherever the closed
form raises.  Its result says which route made the value and why.

For real ``b`` the real and imaginary contributions are also available
separately (:func:`real_part_formula`, :func:`imag_part_integral`); their
recombination agreeing with :func:`hurwitz_zeta` is one of the library's
standing invariants.
"""

import cmath
import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import (
    ConditioningWarning,
    DomainError,
    HurzetaError,
    RangeOverflowError,
    UnsupportedParameterError,
    CapacityError,
    check_finite,
    check_k,
    check_real,
)
from .quadrature import (
    DEFAULT_SPEC,
    QuadratureResult,
    QuadratureSpec,
    integrate_cot_weighted,
)
from .special_functions import bernoulli, polylog_nonpos_orders

__all__ = [
    "IM_CAP",
    "ROUTE_RTOL",
    "check_b",
    "EvalBreakdown",
    "ZetaResult",
    "endpoint_residual",
    "real_part_formula",
    "imag_part_integral",
    "hurwitz_zeta",
    "hurwitz_series_oracle",
    "hp_partial_sum",
    "zeta_auto",
]

# Largest |Im b| the closed form accepts: |q| = exp(2*pi*|Im b|) is then
# about 4e13.
IM_CAP = 5.0

# Relative accuracy zeta_auto requires of the closed form's estimate; where
# the estimate is larger, the series route sums to this tolerance instead.
ROUTE_RTOL = 1e-10

_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)  # i**k by quadrant, exact
_TINY = float(np.finfo(np.float64).tiny)
_EPS = float(np.finfo(np.float64).eps)

# The series oracle sums terms directly until Re(b + N) >= EM_SHIFT and
# adds EM_TERMS Euler--Maclaurin corrections (B_2 .. B_24) for the rest.
EM_SHIFT = 16
EM_TERMS = 12
SERIES_MAX_TERMS = 50_000_000
# Terms per power-sum kernel call, which bounds its temporaries.
_CHUNK = 1 << 20


def _is_integer_valued(b: complex) -> bool:
    return b.imag == 0.0 and float(b.real).is_integer()


def check_b(b) -> complex:
    """``b`` as a complex; :class:`DomainError` unless finite and off the
    poles at the non-positive integers."""
    b = check_finite(b, "b")
    if _is_integer_valued(b) and b.real < 1.0:
        raise DomainError(
            f"zeta(k, b) has a pole at b = {int(b.real)} (non-positive integer)"
        )
    return b


def _closed_form_q(k: int, b: complex) -> complex:
    """``q = exp(-2*pi*i*b)``, the closed form's input, for a checked ``k``
    and ``b``.  A positive integer ``b`` (``q = 1`` is the polylogarithms'
    pole) is an :class:`UnsupportedParameterError`; ``|Im b| > IM_CAP``, and
    ``k`` or ``|q|**(k+1)`` past double range, a :class:`RangeOverflowError`."""
    if _is_integer_valued(b):
        raise UnsupportedParameterError(
            f"b = {int(b.real)} is a positive integer: q = 1 sits on the "
            "polylogarithm pole; use the series path (zeta_auto routes it)"
        )
    if abs(b.imag) > IM_CAP:
        raise RangeOverflowError(
            f"|Im b| = {abs(b.imag):g} exceeds im_cap = {IM_CAP:g}; "
            f"|exp(-2*pi*i*b)| = exp({2 * math.pi * abs(b.imag):.4g}) "
            "would dominate double precision"
        )
    # (k-1)!, the Eulerian coefficients of Li_{1-k}, and the polylog
    # numerators ~ |q|**k all must stay in double range.  (2*pi)**k then
    # does too: 170 * log10(2*pi) is about 136.
    if k > 170:
        raise RangeOverflowError(
            f"k = {k}: (k-1)! and the order-(k-1) Eulerian coefficients "
            "exceed double range (limit k <= 170)"
        )
    q = complex(np.exp(-2j * math.pi * b))
    aq = abs(q)
    if aq > 1.0 and (k + 1) * math.log10(aq) > 290:
        raise RangeOverflowError(
            f"|q|**(k+1) = {aq:.3e}**{k + 1} overflows double; reduce |Im b| or k"
        )
    return q


@dataclass
class EvalBreakdown:
    """Closed-form evaluation split into its four additive terms.

    ``total`` is exactly ``term_half_bk + term_polylog_single +
    term_polylog_sum + term_integral`` in that association order, so the
    pieces can be audited bitwise against the reported value.  ``estimate``
    is the estimated relative error of ``total`` (see :func:`hurwitz_zeta`);
    ``warnings`` holds the polylogarithms' conditioning note, if any.
    """

    term_half_bk: complex
    term_polylog_single: complex
    term_polylog_sum: complex
    term_integral: complex
    total: complex
    quadrature: QuadratureResult
    estimate: float
    warnings: list = field(default_factory=list)


class ZetaResult(NamedTuple):
    """What :func:`zeta_auto` returns; ``result[0]`` is the value.

    ``route`` is ``"closed-form"`` or ``"series"``; ``breakdown`` is the
    closed form's :class:`EvalBreakdown` when its value was returned, else
    None; ``estimate`` is the relative accuracy the value carries (the
    closed form's estimate, or ``ROUTE_RTOL``, the series' bound); and
    ``route_reason`` says why the route was taken.
    """

    value: complex
    route: str
    breakdown: EvalBreakdown | None
    estimate: float
    route_reason: str


@functools.lru_cache(maxsize=64)
def _denominators(k: int) -> tuple:
    """``float((j-1)! (k-j)!)`` for ``j = 1..k``."""
    try:
        return tuple(float(math.factorial(j - 1) * math.factorial(k - j))
                     for j in range(1, k + 1))
    except OverflowError:
        raise RangeOverflowError(
            f"factorial((j-1)!(k-j)!) for k = {k} exceeds double range"
        ) from None


def _coefficients(values) -> tuple:
    """``(delta_{1j} + values[j-1]) / ((j-1)! (k-j)!)`` for ``j = 1..k``,
    ``k = len(values)``, and the sum, in that order, of the same terms with
    ``|values[j-1]|`` in place of ``values[j-1]``.  With ``values[m] =
    Li_{-m}(q)`` the first are the bracket coefficients ``c_j``, highest
    power of ``u`` first, and the sum is the size of their uncancelled
    constituents (see :func:`_bracket_data`)."""
    coeffs, size = [], 0.0
    for j, (v, d) in enumerate(zip(values, _denominators(len(values)))):
        delta = 1.0 if j == 0 else 0.0
        coeffs.append((delta + v) / d)
        size += (delta + abs(v)) / d
    return coeffs, size


@functools.lru_cache(maxsize=512)
def _bracket_data(k: int, q: complex):
    """Coefficients c_j of ``B(u) = sum_{j=1..k} c_j * u**(k-j) *
    exp(-2*pi*i*b*u)``, the endpoint value B(1) = q * sum_j c_j,
    ``Li_{1-k}(q)``, the conditioning note of the polylogarithm evaluation
    (or None) and the bracket's scale, for ``q = exp(-2*pi*i*b)``.

    The scale is the size of the *uncancelled* constituents of the bracket
    ``B(u) - B(1)``, the delta term and each polylogarithm apart, times
    ``max(1, |q|)``, plus ``|B(1)|``: the bracket is a difference of
    quantities this large, so its rounding floor is ``eps * scale``.

    ``q`` fixes all of them.  Of the polylogarithms only ``Li_{1-k}(q)``,
    the one the closed form uses on its own, is kept: with all k of them as
    complex objects, the resident size grew steadily (0.12 MiB per 1266
    distinct (k, b) keys, measured over 25 passes) although the cache
    itself is bounded.
    """
    li, note = polylog_nonpos_orders(k, q)
    coeffs, total = _coefficients(li)
    coeffs = np.array(coeffs, dtype=np.complex128)
    b1 = q * complex(coeffs.sum())
    scale = float(max(1.0, abs(q)) * total + abs(b1))
    return coeffs, b1, li[-1], note, scale


def endpoint_residual(k: int, b: complex) -> float:
    """``|B(0) - B(1)|`` over the bracket's scale (see :func:`_bracket_data`):
    the endpoint identity's residual in units of its rounding yardstick.
    ``B(0)`` is the constant coefficient ``c_k``, so the cached set-up
    gives it without a kernel call.  ``k`` and ``b`` are refused as by
    :func:`hurwitz_zeta`."""
    k, b = check_k(k), check_b(b)
    coeffs, b1, _, _, scale = _bracket_data(k, _closed_form_q(k, b))
    return abs(complex(coeffs[-1]) - b1) / scale


def _half_inv_power(b, k: int):
    """``1/(2*b**k)``, or 0 where ``b**k`` passes double range (it underflows)."""
    try:
        bk = b.real**k if b.imag == 0.0 else b**k
    except OverflowError:
        return 0.0
    return 1.0 / (2.0 * bk)


def hurwitz_zeta(k: int, b: complex, spec: QuadratureSpec | None = None) -> EvalBreakdown:
    """Closed-form evaluation of ``zeta(k, b)`` for non-integer ``b``.

    The four terms are, in order: ``1/(2*b**k)``; the single polylogarithm
    term ``(2*pi*i)**k * Li_{1-k}(q) / (4*(k-1)!)``; the polylogarithm sum
    term ``(2*pi*i)**k * B(1)/4``; and the cotangent integral term
    ``-(i/2) * (2*pi*i)**k * integral((B(u)-B(1)) * cot(pi*u))``.

    No realness is imposed anywhere: for real ``b`` the imaginary parts of
    the four terms cancel numerically, and the size of the leftover imaginary
    dust is one of the library's accuracy diagnostics.

    ``estimate`` is four times the rounding the terms carry, relative to
    ``|total|``: each term's own ``eps``, and the integral's error estimate
    plus its kernel noise ``eps`` times the bracket's scale (see
    :func:`_bracket_data`), both scaled by the integral's prefactor.  On
    the 1116 seeded cells where it was at most 1e-10 (perfbench's zeta_grid
    at seed 1, and the routing box of the acceptance tests), the measured
    error was at most 0.60 of it, and above a quarter of it on about one
    cell in ten.

    The polylogarithms' conditioning note, if any, is also issued as a
    :class:`ConditioningWarning`.  ``k`` and ``b`` are checked as by
    :func:`zeta_auto`; a positive integer ``b`` is then an
    :class:`UnsupportedParameterError`, and ``|Im b| > IM_CAP`` a
    :class:`RangeOverflowError`.
    """
    br = _closed_form(check_k(k), check_b(b), spec)
    for note in br.warnings:
        warnings.warn(note, ConditioningWarning, stacklevel=2)
    return br


def _closed_form(k: int, b: complex, spec: QuadratureSpec | None) -> EvalBreakdown:
    """:func:`hurwitz_zeta` of a checked ``k`` and ``b``, without its
    warning: the note is only stored."""
    spec = spec or DEFAULT_SPEC
    coeffs, b1, li_top, note, bscale = _bracket_data(k, _closed_form_q(k, b))

    ipk = _I_POW[k % 4] * (2.0 * math.pi) ** k  # (2*pi*i)**k, quadrant exact

    t1 = _half_inv_power(b, k)
    t2 = ipk * li_top / (4.0 * _denominators(k)[-1])  # (k-1)!
    t3 = ipk * b1 / 4.0
    # The integrand is the bracket B(u) - B(1) on the driver's float64
    # abscissae.  It inherits rounding at the size of the bracket's
    # uncancelled constituents (see _bracket_data), so that is the gap's
    # noise floor.
    c = -2j * math.pi * b
    quad = integrate_cot_weighted(
        lambda u: kernels.poly_exp_gap(u, coeffs, c, b1), spec, scale_hint=bscale
    )
    t4 = -0.5j * ipk * quad.value
    total = t1 + t2 + t3 + t4

    # Two rounding channels limit the result: cancellation between the four
    # terms (each carries ~eps of its own size), and the integral term, whose
    # value rides on kernel samples noisy at eps * bscale before the
    # (2*pi)**k / 2 prefactor.  The estimate is four times their combined
    # size against the answer (see the docstring for why four).
    t_max = max(abs(t1), abs(t2), abs(t3), abs(t4))
    twopik = (2.0 * math.pi) ** k
    noise = 4.0 * _EPS * t_max + 0.5 * twopik * (quad.error_estimate + _EPS * bscale)
    return EvalBreakdown(
        term_half_bk=t1,
        term_polylog_single=t2,
        term_polylog_sum=t3,
        term_integral=t4,
        total=total,
        quadrature=quad,
        estimate=4.0 * noise / max(abs(total), _TINY),
        warnings=[note] if note else [],
    )


def real_part_formula(k: int, b: float) -> float:
    """Re zeta(k, b) for real ``b > 0``, entirely in closed form.

    With ``p = exp(-2*pi*b)`` this is ``1/(2*b**k) + (2*pi)**k *
    Li_{1-k}(p)/(4*(k-1)!) + (2*pi)**k * p/4 * sum_j (delta_{1j} +
    Li_{1-j}(p)) / ((j-1)!(k-j)!)`` -- no quadrature involved.  The
    polylogarithm and the endpoint value ``B(1)`` are the closed form's
    bracket set-up at ``q = p``, whose real parts they take.  The first
    term is 0 where ``b**k`` passes double range, as it then underflows.
    """
    k = check_k(k)
    b = check_real(b, "b", 0.0, math.inf)
    p = math.exp(-2.0 * math.pi * b)
    b1, li_top, note = _bracket_data(k, complex(p))[1:4]
    if note:
        warnings.warn(note, ConditioningWarning, stacklevel=2)
    twopik = (2.0 * math.pi) ** k
    single = twopik * li_top.real / (4.0 * _denominators(k)[-1])  # (k-1)!
    return _half_inv_power(b, k) + single + twopik * b1.real / 4.0


def imag_part_integral(k: int, b: float, spec: QuadratureSpec | None = None) -> float:
    """Imaginary part of ``sum_{j>=0} (i*j + b)**-k`` for real ``b > 0``:
    one cotangent integral.

    ``-(2*pi)**k / 2 * integral of (B(u) - B(1)) * cot(pi*u)`` where the
    bracket uses the real decay ``exp(-2*pi*b*u)`` in place of the complex
    phase (``p = exp(-2*pi*b) < 1`` keeps every polylog off its pole, for
    integer ``b`` included).  The coefficients, ``B(1)`` and the noise
    hint are the closed form's bracket set-up at ``q = p``.  Together with
    :func:`real_part_formula` this reassembles the rotated zeta value
    exactly -- the pair is the cross-check for the combined evaluation.
    """
    k = check_k(k)
    b = check_real(b, "b", 0.0, math.inf)
    spec = spec or DEFAULT_SPEC
    p = math.exp(-2.0 * math.pi * b)
    coeffs, b1, _, note, bscale = _bracket_data(k, complex(p))
    if note:
        warnings.warn(note, ConditioningWarning, stacklevel=2)
    c = complex(-2.0 * math.pi * b)
    quad = integrate_cot_weighted(
        lambda u: kernels.poly_exp_gap(u, coeffs, c, b1), spec, scale_hint=bscale
    )
    return -((2.0 * math.pi) ** k) / 2.0 * quad.value.real


def hurwitz_series_oracle(k: int, b: complex, tol: float = 1e-12) -> complex:
    """``sum_{j>=0} (j+b)**(-k)`` by Euler--Maclaurin summation, for every
    ``b`` off the poles; independent of every closed form in this package.

    The first ``N`` terms are summed directly, and ``zeta(k, a)``, ``a = b +
    N``, is ``a**(1-k)/(k-1) + a**-k/2 + sum_{m=1..12} B_{2m}/(2m)! *
    (k)_{2m-1} * a**(1-k-2m) + R`` with the rigorous bound ``|R| <= 4
    (k)_24 / ((2 pi)**24 (k+23) (Re a)**(k+23))`` (Johansson,
    arXiv:1309.2877).  ``N`` starts at the least count with ``Re a >= 16``
    and grows until the bound is at most ``tol/4`` of the result: ``tol``
    is relative.  More than ``SERIES_MAX_TERMS`` terms raise
    :class:`CapacityError` before any summation, and a value that is not
    finite (a term past double range, as ``b**-k`` is near 0) a
    :class:`RangeOverflowError`.
    """
    k = check_k(k)
    b = check_b(b)
    tol = check_real(tol, "tol", 0.0, 1.0)
    log_c = _em_constants(k)[1]
    p = k + 2 * EM_TERMS - 1  # the bound falls as (Re a)**-p
    n = max(0, math.ceil(EM_SHIFT - b.real))
    head, summed = 0j, 0
    while True:
        if n > SERIES_MAX_TERMS:
            raise CapacityError(
                f"series oracle would need {n} terms (> {SERIES_MAX_TERMS})"
            )
        head = _power_sum(head, b, k, summed, n)
        summed = n
        a = b + n
        value = head + _em_tail(k, a)
        # log(tol/4 * |value|), floored at the smallest normal double, below
        # which no relative accuracy is left; NaN and infinite values fail
        # the test below and are refused there
        log_target = math.log(max(tol / 4.0 * abs(value), _TINY))
        if not log_c - p * math.log(a.real) > log_target:
            if not cmath.isfinite(value):
                raise RangeOverflowError(f"zeta({k}, {b}) = {value} is past double range")
            return value
        n = max(n + 1, math.ceil(math.exp((log_c - log_target) / p) - b.real))


@functools.lru_cache(maxsize=64)
def _em_constants(k: int) -> tuple:
    """``B_{2m}/(2m)! * (k)_{2m-1}`` for ``m = EM_TERMS..1`` (Horner order),
    and ``log(4 (k)_24 / ((2 pi)**24 (k+23)))``, the remainder bound times
    ``(Re a)**(k+23)``; the rising factorials are exact integers, as their
    floats overflow at large ``k``."""
    n = 2 * EM_TERMS
    try:
        coeffs = tuple(float(bernoulli(2 * m) * math.prod(range(k, k + 2 * m - 1))
                             / math.factorial(2 * m)) for m in range(EM_TERMS, 0, -1))
    except OverflowError:
        raise RangeOverflowError(
            f"k = {k}: the Euler-Maclaurin coefficients exceed double range"
        ) from None
    log_c = (math.log(4 * math.prod(range(k, k + n))) - n * math.log(2 * math.pi)
             - math.log(k + n - 1))
    return coeffs, log_c


def _em_tail(k: int, a: complex) -> complex:
    """``zeta(k, a)`` less its Euler--Maclaurin remainder."""
    u = complex(np.clongdouble(a) ** (1 - k))  # see kernels.inv_power_sum
    inv_a2, acc = 1.0 / (a * a), 0j
    for c in _em_constants(k)[0]:
        acc = acc * inv_a2 + c
    return u / (k - 1) + u / (2.0 * a) + acc * u * inv_a2


def _power_sum(acc: complex, b: complex, k: int, j0: int, j1: int) -> complex:
    """``acc + sum_{j=j0..j1-1} (j + b)**(-k)``, added one
    :func:`kernels.inv_power_sum` call of at most ``_CHUNK`` terms at a time."""
    for lo in range(j0, j1, _CHUNK):
        acc += kernels.inv_power_sum(b, k, lo, min(lo + _CHUNK, j1) - 1)
    return acc


def hp_partial_sum(k: int, b: complex, n: int) -> complex:
    """Partial sum ``sum_{j=1..n} (i*j + b)**(-k)``.

    ``k = 1`` is allowed (the partial sums are finite; the full series
    diverges logarithmically, which the convergence scans exploit).  A ``b``
    exactly on a pole ``-i*j`` within range is rejected.  Summed as
    ``(-i)**k * sum_{j=1..n} (j - i*b)**(-k)``, an exact rotation, so the
    terms go through the power-sum kernel in ``np.longdouble``.
    """
    k = check_k(k, minimum=1)
    n = check_k(n, minimum=0, name="n")
    b = check_finite(b, "b")
    j0 = round(-b.imag)
    if b.real == 0.0 and 1 <= j0 <= n and b + 1j * j0 == 0:
        raise DomainError(f"summand pole: b = -{j0}i makes the j = {j0} term infinite")
    return _I_POW[-k % 4] * _power_sum(0j, complex(b.imag, -b.real), k, 1, n + 1)


def zeta_auto(k: int, b: complex, spec: QuadratureSpec | None = None) -> ZetaResult:
    """``zeta(k, b)`` from the closed form where its own estimate vouches
    for it, from the series otherwise: a :class:`ZetaResult`.

    The closed form's value is returned when its integral converged and
    its ``estimate`` is at most ``ROUTE_RTOL``.  Every other ``b`` -- a
    positive integer, a larger estimate, an unconverged integral, or a
    :class:`HurzetaError` raised by the closed form once ``k`` and ``b``
    are valid -- gets :func:`hurwitz_series_oracle` at ``tol=ROUTE_RTOL``.
    A :class:`DomainError` on ``k`` or ``b``, and any error of the series
    route, reach the caller.  The polylogarithms' conditioning note is
    issued as a :class:`ConditioningWarning` only with the closed form's
    value, the one it is about.
    """
    k = check_k(k)
    b = check_b(b)
    if _is_integer_valued(b):
        reason = "integer b"
    else:
        try:
            br = _closed_form(k, b, spec)
        except HurzetaError as exc:
            reason = f"{type(exc).__name__}: {exc}"
        else:
            if not br.quadrature.converged:
                reason = "quadrature did not converge"
            elif not br.estimate <= ROUTE_RTOL:  # NaN included
                reason = f"estimate {br.estimate:.0e} > {ROUTE_RTOL:.0e}"
            else:
                for note in br.warnings:
                    warnings.warn(note, ConditioningWarning, stacklevel=2)
                return ZetaResult(br.total, "closed-form", br, br.estimate,
                                  f"estimate {br.estimate:.0e} <= {ROUTE_RTOL:.0e}")
    value = hurwitz_series_oracle(k, b, tol=ROUTE_RTOL)
    return ZetaResult(value, "series", None, ROUTE_RTOL, reason)
