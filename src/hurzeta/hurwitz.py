"""Hurwitz zeta ``zeta(k, b) = sum_{j>=0} (j+b)**(-k)`` at integer ``k >= 2``.

Two independent routes are provided.  The closed-form route assembles the
value from polylogarithms of ``q = exp(-2*pi*i*b)`` plus one
cotangent-weighted integral whose smooth factor (the "bracket") vanishes at
both endpoints.  The series route sums the defining series by
Euler--Maclaurin summation (direct terms, then an asymptotic tail with a
rigorous remainder bound), for every ``b`` off the poles, and serves as the
cross-validation oracle; it is also what handles positive integer ``b``,
where the closed form degenerates (``q = 1`` is a polylogarithm pole).

For real ``b`` the real and imaginary contributions are also available
separately (:func:`real_part_formula`, :func:`imag_part_integral`); their
recombination agreeing with :func:`hurwitz_zeta` is one of the library's
standing invariants.
"""

import functools
import math
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
    check_abscissae,
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
    "check_b",
    "ZetaParams",
    "EvalBreakdown",
    "bracket_kernel",
    "bracket_scale",
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

# Estimated relative accuracy above which an evaluation gets a cancellation
# diagnostic attached.  Chosen to match the tightest tolerance the library
# promises anywhere (the oracle cross-check grid).
CANCELLATION_WARN_REL = 1e-8

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
    def create(cls, k: int, b: complex) -> "ZetaParams":
        k = check_k(k)
        b = check_b(b)
        if _is_integer_valued(b):
            raise UnsupportedParameterError(
                f"b = {int(b.real)} is a positive integer: q = 1 sits on the "
                "polylogarithm pole; use the series path (zeta_auto routes it)"
            )
        if abs(b.imag) > IM_CAP:
            raise RangeOverflowError(
                f"|Im b| = {abs(b.imag):g} exceeds im_cap = {IM_CAP:g}; "
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


def _coefficients(values) -> tuple:
    """``(delta_{1j} + values[j-1]) / ((j-1)! (k-j)!)`` for ``j = 1..k``,
    ``k = len(values)``, and the sum, in that order, of the same terms with
    ``|values[j-1]|`` in place of ``values[j-1]``.  With ``values[m] =
    Li_{-m}(q)`` the first are the bracket coefficients ``c_j``, highest
    power of ``u`` first, and the sum is the size of their uncancelled
    constituents (see :func:`bracket_scale`)."""
    coeffs, size = [], 0.0
    for j, (v, d) in enumerate(zip(values, _denominators(len(values)))):
        delta = 1.0 if j == 0 else 0.0
        coeffs.append((delta + v) / d)
        size += (delta + abs(v)) / d
    return coeffs, size


@functools.lru_cache(maxsize=512)
def _bracket_data(k: int, q: complex):
    """Coefficients c_j, the endpoint value B(1) = q * sum_j c_j,
    ``Li_{1-k}(q)``, the conditioning note of the polylogarithm evaluation
    (or None) and :func:`bracket_scale`, for ``q = exp(-2*pi*i*b)``.

    ``q`` fixes all of them, and :class:`ZetaParams` holds it.  Of the
    polylogarithms only ``Li_{1-k}(q)``, the one the closed form uses on its
    own, is kept: with all k of them as complex objects, the resident size
    grew steadily (0.12 MiB per 1266 distinct (k, b) keys, measured over 25
    passes) although the cache itself is bounded.
    """
    li, note = polylog_nonpos_orders(k, q)
    coeffs, total = _coefficients(li)
    coeffs = np.array(coeffs, dtype=np.complex128)
    b1 = q * complex(coeffs.sum())
    scale = float(max(1.0, abs(q)) * total + abs(b1))
    return coeffs, b1, li[-1], note, scale


def bracket_kernel(params: ZetaParams, u):
    """The smooth factor ``B(u) - B(1)`` multiplying ``cot(pi*u)``.

    ``B(u) = sum_{j=1..k} c_j * u**(k-j) * exp(-2*pi*i*b*u)``.  Vanishes at
    both ``u = 0`` and ``u = 1``; the ``u = 0`` zero is an algebraic identity
    between the polylogarithms (checked exactly in the tests), not a
    numerical accident.  Accepts a real number or an array of them
    (:func:`~hurzeta.errors.check_abscissae`).
    :func:`hurwitz_zeta` integrates the same :func:`kernels.poly_exp_gap`
    call on the quadrature's float64 abscissae directly.
    """
    coeffs, b1 = _bracket_data(params.k, params.q)[:2]
    c = -2j * math.pi * params.b
    u = check_abscissae(u)
    out = kernels.poly_exp_gap(np.atleast_1d(u), coeffs, c, b1)
    return complex(out[0]) if u.ndim == 0 else out


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
    return _bracket_data(params.k, params.q)[4]


def endpoint_residual(params: ZetaParams) -> float:
    """``|B(0) - B(1)| / bracket_scale(params)``: the endpoint identity's
    residual in units of its rounding yardstick, from the cached bracket
    set-up alone.  ``B(0)`` is the constant coefficient ``c_k``: Horner's
    rule at ``u = 0`` leaves it and ``exp(0) = 1``, so the value has the
    bits of ``|bracket_kernel(params, 0.0)| / bracket_scale(params)``
    without a kernel call."""
    coeffs, b1, _, _, scale = _bracket_data(params.k, params.q)
    return abs(complex(coeffs[-1]) - b1) / scale


def _check_power_range(k: int, q: complex):
    # (k-1)!, the Eulerian coefficients of Li_{1-k}, and the polylog
    # numerators ~ |q|**k all must stay in double range.  (2*pi)**k then
    # does too: 170 * log10(2*pi) is about 136.
    if k > 170:
        raise RangeOverflowError(
            f"k = {k}: (k-1)! and the order-(k-1) Eulerian coefficients "
            "exceed double range (limit k <= 170)"
        )
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
    spec = spec or DEFAULT_SPEC
    k, b, q = params.k, params.b, params.q
    _check_power_range(k, q)
    coeffs, b1, li_top, note, bscale = _bracket_data(k, q)
    diag = []
    if note:
        warnings.warn(note, ConditioningWarning, stacklevel=2)
        diag.append(note)

    ipk = _I_POW[k % 4] * (2.0 * math.pi) ** k  # (2*pi*i)**k, quadrant exact

    bk = b.real**k if b.imag == 0.0 else b**k
    t1 = 1.0 / (2.0 * bk)
    t2 = ipk * li_top / (4.0 * _denominators(k)[-1])  # (k-1)!
    t3 = ipk * b1 / 4.0
    # The integrand is bracket_kernel(params, u) without its scalar and
    # dtype handling: the driver hands it a float64 array.  It inherits
    # rounding at the size of the bracket's uncancelled constituents (see
    # bracket_scale), so that is the gap's noise floor.
    c = -2j * math.pi * b
    quad = integrate_cot_weighted(
        lambda u: kernels.poly_exp_gap(u, coeffs, c, b1), spec, scale_hint=bscale
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
    t_max = max(abs(t1), abs(t2), abs(t3), abs(t4))
    twopik = (2.0 * math.pi) ** k
    noise = 4.0 * _EPS * t_max + 0.5 * twopik * (quad.error_estimate + _EPS * bscale)
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
    Li_{1-j}(p)) / ((j-1)!(k-j)!)`` -- no quadrature involved.  The
    polylogarithm and the endpoint value ``B(1)`` are the closed form's
    bracket set-up at ``q = p``, whose real parts they take.
    """
    k = check_k(k)
    b = check_real(b, "b", 0.0, math.inf)
    p = math.exp(-2.0 * math.pi * b)
    b1, li_top, note = _bracket_data(k, complex(p))[1:4]
    if note:
        warnings.warn(note, ConditioningWarning, stacklevel=2)
    twopik = (2.0 * math.pi) ** k
    single = twopik * li_top.real / (4.0 * _denominators(k)[-1])  # (k-1)!
    return 1.0 / (2.0 * b**k) + single + twopik * b1.real / 4.0


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
    :class:`CapacityError` before any summation.
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
        # the test below and are returned
        log_target = math.log(max(tol / 4.0 * abs(value), _TINY))
        if not log_c - p * math.log(a.real) > log_target:
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


def zeta_auto(k: int, b: complex, spec: QuadratureSpec | None = None):
    """Evaluate ``zeta(k, b)`` by whichever route is valid at ``b``.

    Positive integer ``b`` goes to the series oracle at its default
    relative tolerance (the closed form is undefined there); everything
    else goes through :func:`hurwitz_zeta`.
    Returns ``(value, method, breakdown_or_none)`` with ``method`` one of
    ``"closed-form"`` or ``"series"``.
    """
    b = check_finite(b, "b")
    if _is_integer_valued(b):
        return hurwitz_series_oracle(k, b), "series", None
    params = ZetaParams.create(k, b)
    br = hurwitz_zeta(params, spec)
    return br.total, "closed-form", br
