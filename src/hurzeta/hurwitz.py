"""Hurwitz zeta ``zeta(k, b) = sum_{j>=0} (j+b)**(-k)`` at integer ``k >= 2``.

Two independent routes are provided.  The closed-form route assembles the
value from polylogarithms of ``q = exp(-2*pi*i*b)`` plus one
cotangent-weighted integral whose smooth factor (the "bracket") vanishes at
both endpoints.  The series route sums the defining series directly with a
midpoint tail correction and serves as the cross-validation oracle; it is
also what handles positive integer ``b``, where the closed form degenerates
(``q = 1`` is a polylogarithm pole).

For real ``b`` the real and imaginary contributions are also available
separately (:func:`real_part_formula`, :func:`imag_part_integral`); their
recombination agreeing with :func:`hurwitz_zeta` is one of the library's
standing invariants.
"""

import functools
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import (
    ConditioningWarning,
    DomainError,
    RangeOverflowError,
    UnsupportedParameterError,
    CapacityError,
)
from .quadrature import QuadratureResult, QuadratureSpec, integrate_cot_weighted
from .special_functions import polylog_nonpos_orders

__all__ = [
    "IM_CAP_DEFAULT",
    "check_b",
    "check_k",
    "ZetaParams",
    "EvalBreakdown",
    "bracket_kernel",
    "real_part_formula",
    "imag_part_integral",
    "hurwitz_zeta",
    "hurwitz_series_oracle",
    "hp_partial_sum",
    "zeta_auto",
]

IM_CAP_DEFAULT = 5.0

# Estimated relative accuracy above which an evaluation gets a cancellation
# diagnostic attached.  Chosen to match the tightest tolerance the library
# promises anywhere (the oracle cross-check grid).
CANCELLATION_WARN_REL = 1e-8

_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)  # i**k by quadrant, exact
_TINY = float(np.finfo(np.float64).tiny)


def _is_integer_valued(b: complex) -> bool:
    return b.imag == 0.0 and float(b.real).is_integer()


def check_b(b) -> complex:
    """``b`` as a complex; :class:`DomainError` unless finite and off the
    poles at the non-positive integers."""
    b = complex(b)
    if not (math.isfinite(b.real) and math.isfinite(b.imag)):
        raise DomainError("b must be finite")
    if _is_integer_valued(b) and b.real < 1.0:
        raise DomainError(
            f"zeta(k, b) has a pole at b = {int(b.real)} (non-positive integer)"
        )
    return b


def check_k(k, minimum: int = 2, name: str = "k") -> int:
    """``k`` as an ``int``; :class:`DomainError` unless it is an integer
    ``>= minimum``.  Integer-valued floats such as ``3.0`` are accepted;
    other floats and strings are not."""
    if isinstance(k, float) and k.is_integer():
        k = int(k)
    if not isinstance(k, numbers.Integral) or k < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {k!r}")
    return int(k)


@dataclass(frozen=True)
class ZetaParams:
    """Validated inputs for the closed-form evaluator.

    ``q = exp(-2*pi*i*b)`` is cached here because every downstream piece
    (polylog arguments, bracket coefficients) consumes it.
    """

    k: int
    b: complex
    q: complex

    @classmethod
    def create(cls, k: int, b: complex, im_cap: float = IM_CAP_DEFAULT) -> "ZetaParams":
        k = check_k(k)
        b = check_b(b)
        if _is_integer_valued(b):
            raise UnsupportedParameterError(
                f"b = {int(b.real)} is a positive integer: q = 1 sits on the "
                "polylogarithm pole; use the series path (zeta_auto routes it)"
            )
        if abs(b.imag) > im_cap:
            raise RangeOverflowError(
                f"|Im b| = {abs(b.imag):g} exceeds im_cap = {im_cap:g}; "
                f"|exp(-2*pi*i*b)| = {math.exp(2 * math.pi * abs(b.imag)):.3e} "
                "would dominate double precision"
            )
        q = complex(np.exp(-2j * math.pi * b))
        return cls(k=k, b=b, q=q)


@dataclass
class EvalBreakdown:
    """Closed-form evaluation split into its four additive terms.

    ``total`` is exactly ``term_half_bk + term_polylog_single +
    term_polylog_sum + term_integral`` in that association order, so the
    pieces can be audited bitwise against the reported value.
    """

    term_half_bk: complex
    term_polylog_single: complex
    term_polylog_sum: complex
    term_integral: complex
    total: complex
    quadrature: QuadratureResult
    warnings: list = field(default_factory=list)


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


def _coefficients(values) -> list:
    """``(delta_{1j} + values[j-1]) / ((j-1)! (k-j)!)`` for ``j = 1..k``,
    ``k = len(values)``.  With ``values[m] = Li_{-m}(q)`` these are the
    bracket coefficients ``c_j``, highest power of ``u`` first."""
    return [((1.0 if j == 0 else 0.0) + v) / d
            for j, (v, d) in enumerate(zip(values, _denominators(len(values))))]


def _polylogs(k: int, p: float) -> list:
    """``Li_{-m}(p)`` for ``m = 0..k-1``, warning once near the pole."""
    li, note = polylog_nonpos_orders(k, p)
    if note:
        warnings.warn(note, ConditioningWarning, stacklevel=3)
    return li


@functools.lru_cache(maxsize=512)
def _bracket_data(k: int, b: complex):
    """Coefficients c_j, the endpoint value B(1) = q * sum_j c_j, the
    polylogarithms ``Li_{-m}(q)`` for ``m = 0..k-1``, any conditioning
    messages their evaluation raised (one per polylogarithm) and
    :func:`bracket_scale`.

    The polylogarithms are cached as one array, not as k complex objects:
    with those, the resident size grew steadily (0.12 MiB per 1266
    distinct (k, b) keys, measured over 25 passes) although the cache
    itself is bounded.
    """
    q = complex(np.exp(-2j * math.pi * b))
    li, note = polylog_nonpos_orders(k, q)
    notes = (note,) * k if note else ()
    coeffs = np.array(_coefficients(li), dtype=np.complex128)
    b1 = q * complex(coeffs.sum())
    total = 0.0
    for c in _coefficients([abs(v) for v in li]):
        total += c
    scale = float(max(1.0, abs(q)) * total + abs(b1))
    return coeffs, b1, np.array(li, dtype=np.complex128), notes, scale


def bracket_kernel(params: ZetaParams, u):
    """The smooth factor ``B(u) - B(1)`` multiplying ``cot(pi*u)``.

    ``B(u) = sum_{j=1..k} c_j * u**(k-j) * exp(-2*pi*i*b*u)``.  Vanishes at
    both ``u = 0`` and ``u = 1``; the ``u = 0`` zero is an algebraic identity
    between the polylogarithms (checked exactly in the tests), not a
    numerical accident.  Accepts a scalar or an ndarray.
    """
    coeffs, b1 = _bracket_data(params.k, params.b)[:2]
    c = -2j * math.pi * params.b
    scalar = np.ndim(u) == 0
    arr = np.atleast_1d(np.asarray(u, dtype=np.float64))
    out = kernels.poly_exp_gap(arr, coeffs, c, b1)
    return complex(out[0]) if scalar else out


def bracket_scale(params: ZetaParams) -> float:
    """Magnitude of the bracket's *uncancelled* constituents: the yardstick
    the endpoint cancellation ``B(0) = B(1)`` is judged against.

    The delta term and each polylogarithm enter separately (``1 + Li_0(q)``
    cancels to ~1/|q| for large |q|, but its rounding floor is set by the
    sizes before that cancellation), and the whole sum is scaled by ``|q|``
    because ``B(1) = q * sum c_j`` amplifies the summation residue.  The
    kernel is a difference of quantities this large, so its attainable
    accuracy is ``eps * bracket_scale``, not ``eps * max|kernel|``.
    """
    return _bracket_data(params.k, params.b)[4]


def _check_power_range(k: int, q: complex):
    # (2*pi)**k, (k-1)!, the Eulerian coefficients of Li_{1-k}, and the
    # polylog numerators ~ |q|**k all must stay in double range.
    if k > 170:
        raise RangeOverflowError(
            f"k = {k}: (k-1)! and the order-(k-1) Eulerian coefficients "
            "exceed double range (limit k <= 170)"
        )
    if k * math.log10(2 * math.pi) > 306:
        raise RangeOverflowError(f"(2*pi)**k overflows double for k = {k}")
    aq = abs(q)
    if aq > 1.0 and (k + 1) * math.log10(aq) > 290:
        raise RangeOverflowError(
            f"|q|**(k+1) = {aq:.3e}**{k + 1} overflows double; reduce |Im b| or k"
        )


def hurwitz_zeta(params: ZetaParams, spec: QuadratureSpec | None = None) -> EvalBreakdown:
    """Closed-form evaluation of ``zeta(k, b)`` for non-integer ``b``.

    The four terms are, in order: ``1/(2*b**k)``; the single polylogarithm
    term ``(2*pi*i)**k * Li_{1-k}(q) / (4*(k-1)!)``; the polylogarithm sum
    term ``(2*pi*i)**k * B(1)/4``; and the cotangent integral term
    ``-(i/2) * (2*pi*i)**k * integral((B(u)-B(1)) * cot(pi*u))``.

    No realness is imposed anywhere: for real ``b`` the imaginary parts of
    the four terms cancel numerically, and the size of the leftover imaginary
    dust is one of the library's accuracy diagnostics.
    """
    spec = spec or QuadratureSpec()
    k, b, q = params.k, params.b, params.q
    _check_power_range(k, q)
    _, b1, li, notes, _ = _bracket_data(k, b)
    if notes:
        warnings.warn(notes[0], ConditioningWarning, stacklevel=2)
    diag = list(notes)

    ipk = _I_POW[k % 4] * (2.0 * math.pi) ** k  # (2*pi*i)**k, quadrant exact

    bk = b.real**k if b.imag == 0.0 else b**k
    t1 = 1.0 / (2.0 * bk)
    t2 = ipk * complex(li[k - 1]) / (4.0 * math.factorial(k - 1))
    t3 = ipk * b1 / 4.0
    # The kernel inherits rounding at the size of the bracket's uncancelled
    # constituents (see bracket_scale), so that is the gap's noise floor.
    bscale = bracket_scale(params)
    quad = integrate_cot_weighted(
        lambda u: bracket_kernel(params, u), spec, scale_hint=bscale
    )
    t4 = -0.5j * ipk * quad.value
    total = t1 + t2 + t3 + t4

    if not quad.converged:
        diag.append("integral term did not converge to tolerance")

    # Two rounding channels limit the result: cancellation between the four
    # terms (each carries ~eps of its own size), and the integral term, whose
    # value rides on kernel samples noisy at eps * bscale before the
    # (2*pi)**k / 2 prefactor.  Flag the evaluation when their combined size
    # is no longer negligible against the answer.
    eps = float(np.finfo(np.float64).eps)
    t_max = max(abs(t1), abs(t2), abs(t3), abs(t4))
    twopik = (2.0 * math.pi) ** k
    noise = 4.0 * eps * t_max + 0.5 * twopik * (quad.error_estimate + eps * bscale)
    est_rel = noise / max(abs(total), _TINY)
    if est_rel > CANCELLATION_WARN_REL:
        diag.append(
            "heavy cancellation between terms: estimated relative accuracy "
            f"~{est_rel:.0e}; prefer the direct series in this parameter range"
        )
    return EvalBreakdown(
        term_half_bk=t1,
        term_polylog_single=t2,
        term_polylog_sum=t3,
        term_integral=t4,
        total=total,
        quadrature=quad,
        warnings=diag,
    )


def real_part_formula(k: int, b: float) -> float:
    """Re zeta(k, b) for real ``b > 0``, entirely in closed form.

    With ``p = exp(-2*pi*b)`` this is ``1/(2*b**k) + (2*pi)**k *
    Li_{1-k}(p)/(4*(k-1)!) + (2*pi)**k * p/4 * sum_j (delta_{1j} +
    Li_{1-j}(p)) / ((j-1)!(k-j)!)`` -- no quadrature involved.
    """
    k = check_k(k)
    b = float(b)
    if not b > 0.0:
        raise DomainError("real_part_formula needs real b > 0")
    p = math.exp(-2.0 * math.pi * b)
    li = [v.real for v in _polylogs(k, p)]
    twopik = (2.0 * math.pi) ** k
    single = twopik * li[k - 1] / (4.0 * math.factorial(k - 1))
    acc = 0.0
    for c in _coefficients(li):
        acc += c
    return 1.0 / (2.0 * b**k) + single + twopik * p * acc / 4.0


def imag_part_integral(k: int, b: float, spec: QuadratureSpec | None = None) -> float:
    """Imaginary part of ``sum_{j>=0} (i*j + b)**-k`` for real ``b > 0``:
    one cotangent integral.

    ``-(2*pi)**k / 2 * integral of (B(u) - B(1)) * cot(pi*u)`` where the
    bracket uses the real decay ``exp(-2*pi*b*u)`` in place of the complex
    phase (``p = exp(-2*pi*b) < 1`` keeps every polylog off its pole, for
    integer ``b`` included).  Together with :func:`real_part_formula` this
    reassembles the rotated zeta value exactly -- the pair is the
    cross-check for the combined evaluation.
    """
    k = check_k(k)
    b = float(b)
    if not b > 0.0:
        raise DomainError("imag_part_integral needs real b > 0")
    spec = spec or QuadratureSpec()
    p = math.exp(-2.0 * math.pi * b)
    coeffs = np.array(
        _coefficients(_polylogs(k, p)), dtype=np.complex128
    )
    b1 = p * complex(coeffs.sum())
    c = complex(-2.0 * math.pi * b)
    hint = float(np.abs(coeffs).sum()) + abs(b1)
    quad = integrate_cot_weighted(
        lambda u: kernels.poly_exp_gap(np.asarray(u, dtype=np.float64), coeffs, c, b1),
        spec,
        scale_hint=hint,
    )
    return -((2.0 * math.pi) ** k) / 2.0 * quad.value.real


def hurwitz_series_oracle(k: int, b: complex, tol: float = 1e-12,
                          max_terms: int = 50_000_000) -> complex:
    """Direct summation of ``sum_{j>=0} (j+b)**(-k)`` with a tail correction.

    Independent of every closed form in this package: plain term summation to
    ``N`` followed by the midpoint integral tail ``(N + 1/2 + b)**(1-k)/(k-1)``,
    whose own error is ~ ``(k/24) * (N + Re b)**(-k-1)``.  ``N`` is chosen so
    that bound is at most ``tol/4`` of the result: ``tol`` is relative.  For
    ``Re b <= 0`` the first ``m = floor(-Re b) + 1`` terms are added one by
    one and the rest is summed as above at ``b + m``; non-positive integer
    ``b`` is a pole.
    """
    k = check_k(k)
    b = check_b(b)
    if not 0 < tol < 1:
        raise ValueError("tol must lie in (0, 1)")
    if b.real > 0.0:
        return _tail_corrected_sum(k, b, tol, max_terms)
    m = math.floor(-b.real) + 1
    if m > max_terms:
        raise CapacityError(
            f"series oracle would need {m} head terms (> max_terms = {max_terms})"
        )
    head = sum((j + b) ** (-k) for j in range(m))
    return _tail_corrected_sum(k, b + m, tol, max_terms, head)


def _tail_corrected_sum(k: int, b: complex, tol: float, max_terms: int,
                        head=None) -> complex:
    # N is chosen so that (k/24) * (N + Re b)**-(k+1) <= abs_tol/4.  That
    # bound is absolute, so while the result is below 1 in magnitude the
    # sum is extended to the N that makes it hold for tol * |result|.
    acc = 0.0 + 0.0j
    step = 1 << 20
    abs_tol, summed = tol, 0
    while True:
        n_needed = (k / (6.0 * abs_tol)) ** (1.0 / (k + 1.0)) - b.real
        n = max(50, int(math.ceil(n_needed)))
        if n > max_terms:
            raise CapacityError(
                f"series oracle would need {n} terms (> max_terms = {max_terms})"
            )
        for j0 in range(summed, n + 1, step):
            j1 = min(j0 + step - 1, n)
            acc += kernels.inv_power_sum(b, k, j0, j1)
        summed = n + 1
        value = complex(acc + (n + 0.5 + b) ** (1 - k) / (k - 1))
        if head is not None:
            value = head + value
        if not abs(value) < 1.0 or abs_tol < tol:  # nan returns too
            return value
        abs_tol = tol * max(abs(value), _TINY)


def hp_partial_sum(k: int, b: complex, n: int) -> complex:
    """Partial sum ``sum_{j=1..n} (i*j + b)**(-k)``.

    ``k = 1`` is allowed (the partial sums are finite; the full series
    diverges logarithmically, which the convergence scans exploit).  A ``b``
    exactly on a pole ``-i*j`` within range is rejected.
    """
    k = check_k(k, minimum=1)
    if n < 0:
        raise DomainError("n must be >= 0")
    b = complex(b)
    j0 = round(-b.imag)
    if b.real == 0.0 and 1 <= j0 <= n and b + 1j * j0 == 0:
        raise DomainError(f"summand pole: b = -{j0}i makes the j = {j0} term infinite")
    acc = 0.0 + 0.0j
    step = 1 << 20
    for lo in range(1, n + 1, step):
        hi = min(lo + step - 1, n)
        acc += kernels.rot_inv_power_sum(b, k, lo, hi)
    return complex(acc)


def zeta_auto(k: int, b: complex, spec: QuadratureSpec | None = None,
              series_tol: float = 1e-12):
    """Evaluate ``zeta(k, b)`` by whichever route is valid at ``b``.

    Positive integer ``b`` goes to the series oracle (the closed form is
    undefined there), with ``series_tol`` as its relative tolerance;
    everything else goes through :func:`hurwitz_zeta`.
    Returns ``(value, method, breakdown_or_none)`` with ``method`` one of
    ``"closed-form"`` or ``"series"``.
    """
    b = complex(b)
    if _is_integer_valued(b):
        return hurwitz_series_oracle(k, b, tol=series_tol), "series", None
    params = ZetaParams.create(k, b)
    br = hurwitz_zeta(params, spec)
    return br.total, "closed-form", br
