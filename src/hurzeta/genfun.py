"""The generating function ``f(x, b) = sum_{k>=2} x**k * (zeta(k,b) - b**-k)``
and its relatives: a five-branch closed form selected by the arithmetic
nature of ``b`` (generic, zero, positive integer, negative integer and
half-integer), the defining series for cross-checks, the odd-zeta integral
representation, and recovery of ``zeta(k, b)`` from Taylor coefficients of
``f``.

Branch selection is discontinuous in *representation* (the closed forms for
generic ``b`` and for ``b`` with ``2b`` in Z look nothing alike), so
classification is explicit, carries proximity diagnostics for every singular
locus, and has a defined warning band near the boundaries ``2b`` in Z.  The
four branches of ``2b`` in Z are one formula, the removable limit of the
generic one, evaluated at ``b``'s exact integer or half-integer value.
"""

import cmath
import math
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import (
    ConditioningWarning,
    DivergenceError,
    DomainError,
    EvaluationError,
    IllConditionedError,
    InstabilityWarning,
    RangeOverflowError,
    check_finite,
    check_k,
    check_real,
)
from .hurwitz import check_b, hurwitz_series_oracle
from .quadrature import (
    DEFAULT_SPEC,
    QuadratureResult,
    QuadratureSpec,
    integrate_cot_weighted,
)
from .special_functions import bernoulli

__all__ = [
    "ProximityFlags",
    "GenFunCase",
    "GenFunEval",
    "GenFunSeries",
    "classify_case",
    "genfun_closed",
    "genfun_series",
    "series_coefficient",
    "radius_of_convergence",
    "odd_zeta_integral",
    "zeta_from_genfun",
]

INT_EPS = 1e-9  # 2b this close to an integer takes an integer branch
PROX_TOL = 1e-6  # x this close to a singular locus is refused
WARN_BAND = 1e-6  # b within [INT_EPS, WARN_BAND) of an integer locus: warn, proceed
COEFFICIENT_TOL = 1e-13  # relative tolerance of each series coefficient
SERIES_MARGIN = 0.1  # genfun_series needs |x| < (1 - SERIES_MARGIN) * r(b)
STABILITY_TOL = 1e-4  # relative spread between the two recovery circles that warns


@dataclass(frozen=True)
class ProximityFlags:
    """Distances from (x, b) to every singular locus of the closed forms."""

    x_minus_b: float      # pole of the rational term x**2/(2b(x-b))
    two_b_int: float      # 2b near Z: branch boundary / sin(pi*b) trouble
    two_xmb_int: float    # 2(x-b) near Z: integral normalization vanishes
    xmb_int: float        # x-b near Z: csc(pi*(x-b)) pole (generic branch)
    x_int: float          # x near Z: cot(pi*x) pole (integer branches)
    two_x_int: float      # 2x near Z: sin(2*pi*x) vanishes (branches of 2b in Z)


@dataclass(frozen=True)
class GenFunCase:
    tag: str  # generic | b_zero | b_pos_int | b_neg_int | b_half_int
    proximity_flags: ProximityFlags


@dataclass
class GenFunEval:
    """One closed-form evaluation; total = rational + trig + integral terms."""

    x: complex
    b: complex
    case: GenFunCase
    rational_term: complex
    trig_term: complex
    integral_term: complex
    total: complex
    quadrature: QuadratureResult
    warnings: list = field(default_factory=list)


@dataclass(frozen=True)
class GenFunSeries:
    """Partial sum of the defining series with a geometric tail estimate."""

    value: complex
    tail_estimate: float
    kmax: int


def _branch_tag(b: complex):
    """The closed-form branch of ``b`` and the distance of 2b from the integers."""
    m2 = round(2 * b.real)
    two_b_int = abs(2 * b - m2)  # complex distance from the nearest integer
    if not two_b_int < INT_EPS:
        return "generic", two_b_int
    if m2 % 2 != 0:
        return "b_half_int", two_b_int
    return ("b_zero" if m2 == 0 else "b_pos_int" if m2 > 0 else "b_neg_int"), two_b_int


def _point_distances(x: complex, b: complex) -> list:
    """``|x - b|`` and the distances of ``x - b``, ``2(x - b)``, ``x`` and
    ``2x`` from the nearest integer, measured as ``two_b_int`` is."""
    w = x - b
    return [abs(w)] + [abs(z - round(z.real)) for z in (w, 2 * w, x, 2 * x)]


def _array_distances(x, b: complex):
    """The distances of :func:`_point_distances` for every point of the
    array ``x``, as one (5, n) array.  ``np.hypot`` (not numpy's complex
    ``abs``) and round-half-even ``np.round`` agree with Python's ``abs``
    and ``round``, so column ``i`` has the bits of the point ``x[i]``."""
    w = x - b
    z = np.array((w, w, 2.0 * w, x, 2.0 * x))
    r = np.round(z.real)
    r[0] = 0.0
    return np.hypot(z.real - r, z.imag)


def _classify(x, b: complex):
    """The case of the point ``x`` (or of the first point of the array
    ``x``) and finite ``b``, and the distances of the point (a list) or of
    every point (an array) from the singular loci."""
    tag, two_b_int = _branch_tag(b)
    if isinstance(x, np.ndarray):
        dist = _array_distances(x, b)
        d = dist[:, 0].tolist()
    else:
        dist = d = _point_distances(x, b)
    flags = ProximityFlags(x_minus_b=d[0], two_b_int=two_b_int, two_xmb_int=d[2],
                           xmb_int=d[1], x_int=d[3], two_x_int=d[4])
    return GenFunCase(tag=tag, proximity_flags=flags), dist


def classify_case(x: complex, b: complex) -> GenFunCase:
    """Assign the closed-form branch from ``b`` alone (with tolerance
    ``INT_EPS`` for integer membership) and record proximity diagnostics.
    A non-finite ``x`` or ``b`` is a :class:`DomainError`."""
    x, b = check_finite(x, "x"), check_finite(b, "b")
    return _classify(x, b)[0]


def radius_of_convergence(b: complex) -> float:
    """``r(b) = min_{j>=1} |j+b|``, skipping any exact pole ``j = -b`` (the
    convention for negative integer ``b``), over the at most three ``j``
    nearest to ``-Re b``; a non-finite ``b`` is a :class:`DomainError`.

    Each ``j + b`` is ``(j - n) + (b + n)``, ``n`` the int nearest to
    ``-Re b``: for ``Re b <= -1/2``, ``b + n`` is exact, so each is ``j + b``
    rounded once, where ``float(j) + b`` rounds ``j`` itself past ``2**53``."""
    b = check_finite(b, "b")
    n = max(1, round(-b.real))
    c = b + n
    dist = (abs((j - n) + c) for j in range(max(1, n - 1), n + 2))
    return min(d for d in dist if d > 1e-12)


def _admit(b: complex, tag: str, two_b_int: float) -> list:
    """Warn inside the band near a branch boundary and return the note."""
    if tag == "generic" and two_b_int < WARN_BAND:
        msg = (
            f"b = {b} lies within {two_b_int:.2e} of a branch boundary "
            f"(2b near an integer); generic-branch evaluation is ill-conditioned there"
        )
        warnings.warn(msg, ConditioningWarning, stacklevel=3)
        return [msg]
    return []


# The guarded loci, in the order they are tried: the message and the locus
# named.  Locus j is entry j of a point's distances (see _point_distances);
# _guarded says which of them a branch guards.
_LOCI = (
    ("|x - b| = {d:.2e} < {tol:g}", "x = b"),
    ("x - b within {d:.2e} of an integer", "sin(pi*(x-b)) = 0"),
    ("2(x - b) within {d:.2e} of an integer", "sin(2*pi*(x-b)) = 0"),
    ("x within {d:.2e} of a nonzero integer", "cot(pi*x) pole"),
    ("2x within {d:.2e} of a nonzero integer", "sin(2*pi*x) = 0"),
)


def _guarded(tag: str, far: bool):
    """Whether the branch ``tag`` guards each locus of ``_LOCI`` at a point
    ``far`` from 0 (``|Re x| > 1/4``) or not.  The generic branch guards
    loci 0-2, the integer branches loci 0, 3 and 4, the half-integer branch
    loci 0 and 4: their integer loci count only away from 0 (near an
    integer, ``|Re x| <= 1/4`` only if that integer is 0), as does ``x = b``
    only for b != 0."""
    if tag == "generic":
        return True, True, True, False, False
    if tag == "b_half_int":  # no cot(pi*x) pole: cot(pi*(x-b)) = -tan(pi*x)
        return True, False, False, False, far
    return tag != "b_zero", False, False, far, far


def _point_guard(x: complex, dist: list, tag: str):
    """``(message, locus)`` of the first locus of the branch ``tag`` that
    the point ``x`` is within ``PROX_TOL`` of, or None, from its distances
    ``dist`` (see :func:`_point_distances`).  The loci are tried in a fixed
    order, so the first one it is near is the one named."""
    for j, guarded in enumerate(_guarded(tag, abs(x.real) > 0.25)):
        if guarded and dist[j] < PROX_TOL:
            text, locus = _LOCI[j]
            return text.format(d=dist[j], tol=PROX_TOL), locus
    return None


def _first_guard(x, dist, tag: str):
    """``(index, message, locus)`` of the first point of the array ``x`` within
    ``PROX_TOL`` of a singular locus of the branch ``tag``, or None, from the
    points' distances ``dist`` (see :func:`_array_distances`): what
    :func:`_point_guard` gives at that point.  It runs, in order, on the
    points with some distance below ``PROX_TOL`` alone: points clear of
    every locus pay one comparison and one count over the array."""
    near = dist < PROX_TOL
    if not np.count_nonzero(near):
        return None
    for i in np.flatnonzero(near.any(axis=0)).tolist():
        hit = _point_guard(complex(x[i]), dist[:, i].tolist(), tag)
        if hit is not None:
            return i, *hit
    return None


def _closed_terms(x, b: complex, tag: str, spec: QuadratureSpec):
    """Rational, trig and integral terms, total and the integral's
    quadrature of ``f(x, b)`` for nonzero ``x`` (a point, or an array of
    points) clear of every guard locus, on the branch ``tag`` of ``b``.

    Each branch formula is written once.  A point (:func:`genfun_closed`)
    evaluates the per-point factors through ``cmath`` and ``math`` and its
    integral as a plain integrand, so every term is a Python complex and
    the quadrature a scalar result; an array (a recovery's circles)
    evaluates them as numpy expressions over all points and the integrals
    as one family.  One point costs less in scalars (about 73 against 97 us
    per point of the benchmark's rounds, on a shared 2-vCPU x86-64 machine),
    64 nodes as arrays.  ``cmath`` and numpy round complex sines, quotients
    and products differently: on the 1280 seeded points of the benchmark's
    seeds 1-5, a point's rational and trig terms are within 4.3e-16, and its
    integral and total within 1.4e-14, of the largest of its terms in an
    array of points, and its total within 6.4e-14 relative of the same point
    run as a one-point array."""
    point = not isinstance(x, np.ndarray)
    sin, cos, exp = (cmath.sin, cmath.cos, math.exp) if point else (np.sin, np.cos, np.exp)
    sign = -1.0 if tag == "b_half_int" else 1.0  # cos(2*pi*b) where 2b is an integer
    try:
        with nullcontext() if point else np.errstate(over="raise"):  # numpy raises like cmath
            if tag == "generic":
                sb2 = 2.0 * cmath.sin(math.pi * b)
                a2 = 2.0 * math.pi * b
                s2inv = 1.0 / cmath.sin(a2)
                v = x - b
                a1 = 2.0 * math.pi * v
                s1inv = 1.0 / sin(a1)
                rational = x * x / (2.0 * b * v)
                trig = -math.pi * x * sin(math.pi * x) / (sb2 * sin(math.pi * v))
                hint = abs(s1inv) * exp(abs(a1.imag)) + abs(s2inv) * math.exp(abs(a2.imag))

                def g(u, a, sinv):
                    return kernels.sin_ratio_gap(u, a, sinv, a2, s2inv)
            else:
                bi = round(2.0 * b.real) / 2.0  # b's exact integer or half-integer value
                w = 2.0 * math.pi * bi
                a1 = 2.0 * math.pi * (x - bi)
                s1inv = sign / sin(a1)  # so the kernel gives cos(2*pi*b) times the integrand
                rational = (0.5 + 0j if bi == 0 else x * x / (2.0 * bi * (x - bi))
                            + (1.0 if tag == "b_neg_int" else 0.0))
                px = math.pi * x
                num, den = (cos(px), sin(px)) if sign > 0 else (-sin(px), cos(px))
                trig = -(px / 2.0) * num / den  # cot(pi*(x-b)) = num/den
                hint = abs(s1inv) * exp(abs(a1.imag)) + 1.0 + abs(x.imag) * 7.0

                def g(u, a, sinv):
                    return kernels.sin_ratio_ucos_gap(u, a, sinv, w)

        if point:  # the kernels take lines of abscissae: u as one line
            quad = integrate_cot_weighted(lambda u: g(u[None], a1, s1inv)[0], spec,
                                          scale_hint=hint)
        else:  # a1 and s1inv become the per-row arrays that g gathers by row
            a1, s1inv = a1.reshape(-1), s1inv.reshape(-1)
            quad = integrate_cot_weighted(lambda u, rows: g(u, a1[rows], s1inv[rows]), spec,
                                          scale_hint=hint, family=a1.size)
    except (OverflowError, FloatingPointError):  # sines and exponentials past double range
        at = f"x = {x}" if point else "the circle nodes"
        raise RangeOverflowError(
            f"the closed form's sines exceed double range at {at}, b = {b}"
        ) from None
    integral = -sign * math.pi * x * quad.value  # sign * sign = 1
    return rational, trig, integral, rational + trig + integral, quad


def genfun_closed(x: complex, b: complex,
                  spec: QuadratureSpec | None = None) -> GenFunEval:
    """Closed-form ``f(x, b)`` on the branch selected by ``b``.

    Branches (``q``-free, all singular integrals are cotangent-weighted with
    endpoint-vanishing smooth factors):

    * generic (2b not integer)::

        x**2/(2b(x-b)) - pi*x*sin(pi*x)/(2*sin(pi*b)*sin(pi*(x-b)))
            - pi*x * I[sin(2pi(x-b)u)/sin(2pi(x-b)) - sin(2pi*b*u)/sin(2pi*b)]

    * b = 0::          1/2 - (pi*x/2)*cot(pi*x) - pi*x * I[sin(2pi*x*u)/sin(2pi*x) - u]
    * b positive int:: x**2/(2b(x-b)) - (pi*x/2)*cot(pi*x)
                       - pi*x * I[sin(2pi(x-b)u)/sin(2pi(x-b)) - u*cos(2pi*b*u)]
    * b negative int:: 1 + the positive-integer form
    * b half-int (2b odd):: x**2/(2b(x-b)) + (pi*x/2)*tan(pi*x)
                       - pi*x * I[sin(2pi(x-b)u)/sin(2pi(x-b)) + u*cos(2pi*b*u)]

    where ``I[g] = integral_0^1 g(u) cot(pi*u) du``.  The last four are one
    formula at ``b``'s exact value, the generic one's removable limit::

        x**2/(2b(x-b)) - (pi*x/2)*cot(pi*(x-b))
            - pi*x * I[sin(2pi(x-b)u)/sin(2pi(x-b)) - u*cos(2pi*b*u)/cos(2pi*b)]

    with ``1/2`` in place of the rational term at b = 0, and 1 added at
    negative integers, where the series skips its term j = -b.
    (For integer ``b`` the printed normalization ``sin(2*pi*x)`` equals
    ``sin(2*pi*(x-b))``; the latter is used so the ``u = 1`` endpoint
    cancels exactly in floats.)  Inputs within ``PROX_TOL`` of a singular
    locus raise :class:`IllConditionedError` naming the locus; ``b`` within
    ``[INT_EPS, WARN_BAND)`` of a point of 2b in Z proceeds on the generic
    branch with a :class:`ConditioningWarning`: there the limit formula is
    off by 0.1-4 times ``|2b - round(2b)|`` relative, and the generic branch
    by up to 5e-5 at the band's inner edge, so neither holds 1e-10 across
    it.  No finite ``b`` is refused.  Sines past double range (an
    imaginary part of ``x - b``, ``x`` or ``b`` beyond about 113) raise
    :class:`RangeOverflowError`.

    The point is classified, guarded and evaluated in Python scalars, and
    its integral is a plain integrand, so every term is a Python complex
    and ``quadrature`` the driver's scalar result (see
    :func:`_closed_terms`; :func:`zeta_from_genfun` runs the same formulas
    over arrays).
    """
    spec = spec or DEFAULT_SPEC
    x, b = check_finite(x, "x"), check_finite(b, "b")
    case, dist = _classify(x, b)
    notes = _admit(b, case.tag, case.proximity_flags.two_b_int)

    if x == 0:  # f(0, b) = 0: the series is empty and every closed-form term carries x
        return GenFunEval(x=x, b=b, case=case, rational_term=0j, trig_term=0j,
                          integral_term=0j, total=0j, warnings=notes,
                          quadrature=QuadratureResult(0j, 0.0, 0, True, []))

    hit = _point_guard(x, dist, case.tag)
    if hit is not None:
        raise IllConditionedError(hit[0], locus=hit[1])
    rational, trig, integral, total, quad = _closed_terms(x, b, case.tag, spec)
    notes.extend(quad.warnings)
    return GenFunEval(x=x, b=b, case=case, rational_term=rational, trig_term=trig,
                      integral_term=integral, total=total, quadrature=quad,
                      warnings=notes)


def series_coefficient(k: int, b: complex) -> complex:
    """``zeta(k, b) - b**-k = sum_{j>=1} (j+b)**(-k)``, by direct summation.

    Computed as the series oracle at ``b + 1`` (``zeta(k, b+1)``) so no
    cancellation against ``b**-k`` ever happens.  An exact negative integer
    ``b = -m`` skips its singular term per the series convention, in two
    oracle calls whatever ``m``.  The oracle runs at relative tolerance
    ``COEFFICIENT_TOL``.
    """
    b = check_finite(b, "b")
    if b.imag == 0.0 and float(b.real).is_integer() and b.real < 0.0:
        # skip j = m: the terms left are zeta(k) + (-1)**k * H_k(m - 1), and
        # H_k(m - 1) = zeta(k) - zeta(k, m); at odd k the zeta(k) cancel exactly
        sign = (-1.0) ** check_k(k)
        return ((1.0 + sign) * hurwitz_series_oracle(k, 1.0, tol=COEFFICIENT_TOL)
                - sign * hurwitz_series_oracle(k, -b, tol=COEFFICIENT_TOL))
    return hurwitz_series_oracle(k, b + 1.0, tol=COEFFICIENT_TOL)


def genfun_series(x: complex, b: complex, kmax: int) -> GenFunSeries:
    """Partial sum of ``sum_{k=2..kmax} x**k * (zeta(k,b) - b**-k)``.

    Coefficients come from the series oracle (independent of every closed
    form here).  Requires ``|x| < r(b)*(1 - SERIES_MARGIN)`` so the
    geometric tail estimate ``A * rho**(kmax+1) / (1 - rho)``, ``rho =
    |x|/r(b)``, is meaningful; it is returned alongside the value.  ``A``
    is the largest ``|a_k| * r**k`` of the last three orders, and each
    ``|a_k| * r**k * rho**(kmax+1)`` is formed as ``|a_k * x**k| *
    rho**(kmax+1-k)``, without the ``r**k`` that overflows at large ``|b|``.
    """
    kmax = check_k(kmax, name="kmax")
    x, b = check_finite(x, "x"), check_finite(b, "b")
    r = radius_of_convergence(b)
    if not abs(x) < r * (1.0 - SERIES_MARGIN):
        raise DomainError(
            f"|x| = {abs(x):g} is not inside {1 - SERIES_MARGIN:g} * r(b) = "
            f"{(1 - SERIES_MARGIN) * r:g}: series diverges or converges too slowly"
        )
    if x == 0:
        return GenFunSeries(value=0j, tail_estimate=0.0, kmax=kmax)
    acc = 0j
    xp = x  # x**k tracker, starts at k=1
    rho = abs(x) / r
    tails = []  # |a_k| * r**k * rho**(kmax+1) of the last three orders
    for k in range(2, kmax + 1):
        xp *= x
        term = xp * series_coefficient(k, b)
        acc += term
        if k > kmax - 3:
            tails.append(abs(term) * rho ** (kmax + 1 - k))
    tail = max(tails) / (1.0 - rho) if tails else 0.0
    return GenFunSeries(value=complex(acc), tail_estimate=float(tail), kmax=kmax)


# ---------------------------------------------------------------------------
# Odd zeta values
# ---------------------------------------------------------------------------

def _odd_zeta_poly_coeffs(j: int):
    # r_p = B_{2p} (2 - 2**(2p)) / ((2p)! (2j-2p+1)!), exact, then floated
    out = []
    for p in range(j + 1):
        r = (
            bernoulli(2 * p)
            * (2 - 4**p)
            / (math.factorial(2 * p) * math.factorial(2 * j - 2 * p + 1))
        )
        out.append(float(r))
    return out


def odd_zeta_integral(j: int, spec: QuadratureSpec | None = None) -> float:
    """``zeta(2j+1)`` from its cotangent-integral representation:

    ``-(-1)**j (2*pi)**(2j+1) / 2 * integral_0^1 P_j(u) cot(pi*u) du`` with
    ``P_j(u) = sum_{p=0..j} B_{2p} (2-2**(2p)) u**(2j-2p+1) /
    ((2p)!(2j-2p+1)!)``.  ``P_j`` has only odd powers (so ``P_j(0) = 0``)
    and its coefficients sum to zero (so ``P_j(1) = 0``); both are enforced
    by the quadrature's endpoint precondition, making a transcription error
    in the coefficients self-detecting.
    """
    j = check_k(j, minimum=1, name="j")
    if j > 10:
        raise DomainError(
            f"j must be an integer in [1, 10], got {j!r} "
            "(Bernoulli growth exceeds double precision beyond that)"
        )
    # (2*pi)**(2j+1) reaches ~1e16 at j=10 and multiplies the integral's
    # absolute error, so the default tolerances are tighter here
    spec = spec or QuadratureSpec(rel_tol=1e-12, abs_tol=1e-16)
    # coefficient of v**(j-p) in P_j(u)/u with v = u**2 is r_p
    vcoeffs = np.array(_odd_zeta_poly_coeffs(j))

    def poly(u):
        v = u * u
        acc = np.full(u.shape, vcoeffs[0])
        for c in vcoeffs[1:]:
            acc = acc * v + c
        return acc * u

    try:
        quad = integrate_cot_weighted(poly, spec)
    except DivergenceError as exc:
        raise DivergenceError(
            f"odd-zeta polynomial failed its endpoint self-check for j={j}: {exc} "
            "(formula transcription error)"
        ) from exc
    return -((-1.0) ** j) * (2.0 * math.pi) ** (2 * j + 1) / 2.0 * quad.value.real


# ---------------------------------------------------------------------------
# Taylor-coefficient recovery of zeta(k, b)
# ---------------------------------------------------------------------------

def zeta_from_genfun(k, b: complex, radius: float, nodes: int,
                     spec: QuadratureSpec | None = None):
    """``zeta(k, b) = b**-k + (k-th Taylor coefficient of f(., b) at 0)``
    for one order ``k`` (a complex) or a sequence of orders (an array).

    The coefficients are extracted by discrete circle averaging of the
    closed form of ``f`` over ``nodes >= 4 * max(k)`` equispaced points on
    ``|x| = radius`` (spectrally accurate for analytic ``f``; the aliasing
    error is the ``k + nodes``-th coefficient's contribution).  A second
    pass at half the radius cross-checks each; disagreement beyond
    ``STABILITY_TOL`` relative emits :class:`InstabilityWarning` naming the
    orders.  Both circles are one family of ``2 * nodes`` cotangent
    integrals, made in one quadrature call.  A node at a singular locus
    raises :class:`IllConditionedError`, and a node whose integral does not
    converge raises :class:`EvaluationError`; either names the first such
    node, the circle at ``radius`` first.  A ``b``, or a circle, whose sines
    pass double range raises :class:`RangeOverflowError`, as in
    :func:`genfun_closed`.
    """
    scalar = np.ndim(k) == 0
    orders = [check_k(j) for j in ([k] if scalar else k)]
    if not orders:
        raise DomainError("k must name at least one order")
    b = check_b(b)
    radius = check_real(radius, "radius", 0.0, radius_of_convergence(b))
    nodes = check_k(nodes, name="nodes")
    if nodes < 4 * max(orders):
        raise DomainError(f"nodes = {nodes} < 4k = {4 * max(orders)}: aliasing would bite")
    unit = np.exp(2j * math.pi / nodes * np.arange(nodes))
    x = np.concatenate((radius * unit, (radius / 2.0) * unit))
    case, dist = _classify(x, b)
    _admit(b, case.tag, case.proximity_flags.two_b_int)

    def node(i):
        return f"circle node {i % nodes}/{nodes} at x = {complex(x[i]):.6g}"

    hit = _first_guard(x, dist, case.tag)
    if hit is not None:
        i, msg, locus = hit
        raise IllConditionedError(
            f"{node(i)} hits a singular locus ({locus}); choose a different radius",
            locus=locus,
        ) from IllConditionedError(msg, locus=locus)
    _, _, _, total, quad = _closed_terms(x, b, case.tag, spec)
    if not quad.converged:
        i = int(np.flatnonzero(~quad.row_converged)[0])
        raise EvaluationError(
            f"{node(i)}: cotangent integral did not converge "
            f"({quad.row_warnings[i][0]})",
            row=i,
        )

    # exp(-2*pi*i * k_j * m / nodes), one line per order, so a range changes no order's bits
    ks = np.array(orders)
    twiddle = unit[ks[:, None] * np.arange(nodes) % nodes].conj()
    a = (total.reshape(2, 1, nodes) * twiddle).sum(axis=-1)
    a /= nodes * np.array([[radius], [radius / 2.0]]) ** ks
    spread = abs(a[0] - a[1]) / np.maximum(abs(a).max(axis=0), 1e-300)
    unstable = spread > STABILITY_TOL
    if np.count_nonzero(unstable):
        warnings.warn(
            f"Taylor coefficient of k = {ks[unstable].tolist()} unstable across radii "
            f"{radius:g} and {radius / 2:g}: relative spread up to {spread.max():.2e}",
            InstabilityWarning,
            stacklevel=2,
        )
    zeta = 1.0 / (b.real**ks if b.imag == 0.0 else b**ks) + a[0]
    return complex(zeta[0]) if scalar else zeta

