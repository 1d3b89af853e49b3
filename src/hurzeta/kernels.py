"""Vectorized integrand kernels and a power sum, in numpy.

Every integrand here is evaluated over a whole array of abscissae: the
adaptive quadrature driver batches the nodes of all pending panels into a
single call, so one call per refinement round is all the Python overhead a
kernel costs.  The power sum adds a contiguous run of series terms in one
vector operation.  Callers reach the kernels as ``kernels.<name>``, so a
profiler can wrap any of them by replacing that one module attribute.

Conventions
-----------
* ``r`` always denotes the centered fractional part ``u - floor(u + 1/2)``,
  which reduces ``cot(pi*u)`` and ``sin(2*pi*n*u)`` (integer ``n``) exactly:
  both are periodic with period 1, so evaluating at ``r`` avoids the
  catastrophic cancellation of forming ``pi*u`` near ``u = 1``.
* Oscillatory kernels are stated in terms of ``1 - u`` in the source
  identities; for integer ``n`` the reductions
  ``sin(2*pi*n*(1-u))*cot(pi*(1-u)) == sin(2*pi*n*r)/tan(pi*r)`` and
  ``(1-cos(2*pi*n*(1-u)))*cot(pi*(1-u)) == -2*sin(pi*n*r)**2/tan(pi*r)``
  hold identically, and the reduced forms are what is implemented.
* The three scan kernels (``pow_sin_cot``, ``one_minus_cos_cot``,
  ``decay_one_minus_cos_cot``) take their sines from ``t = tan(theta)``,
  ``theta = pi*n*r``, by the half-angle identities
  ``sin(2*theta) == 2*t/(1 + t**2)`` and
  ``2*sin(theta)**2 == 2*t**2/(1 + t**2)``.  ``tan`` is evaluated at the
  same rounded argument ``sin`` would be, and the results agree with the
  ``sin`` expressions to within 1e-15 of ``max(|value|, 1)``.  The reason is
  speed: with numpy 2.4 on x86-64 with AVX-512, float64 ``tan`` runs
  vectorized at 2-4 ns per value while ``sin`` falls back to scalar libm at
  10-32 ns, and these kernels take most of the time of ``validate``'s scans.
* The genfun kernels (``sin_ratio_gap``, ``sin_ratio_ucos_gap``) take
  ``sin(a*u)``, complex ``a = alpha + i*beta`` and real ``u``, from real
  ufuncs: with ``x = alpha*u``, ``y = beta*u`` and ``t = tan(x/2)``,
  ``sin(a*u) == sin(x)*cosh(y) + i*cos(x)*sinh(y)``,
  ``sin(x) == 2*t/(1 + t**2)`` and ``cos(x) == 2/(1 + t**2) - 1``.
  ``x`` and ``y`` are the parts ``np.sin(a*u)`` would see, bit for bit, and
  the result is within 7e-16 of ``|sin(a*u)|`` (against ``cmath.sin``, for
  ``|Re a| <= 60``, ``|Im a| <= 25`` on the cotangent driver's first-pass
  abscissae); ``u = 0`` gives exactly 0.  ``sinh`` and ``cosh`` are
  ``np.sinh`` and ``np.cosh``, not ``(exp(y) -+ exp(-y))/2``: that loses
  relative accuracy as ``u -> 0``, 2e-9 at the margin strip points
  ``u = 2.5e-9``.  The reason is speed: numpy 2.4 evaluates complex ``sin``
  one value at a time, about 50 ns each, while float64 ``tan``, ``sinh``
  and ``cosh`` run at 1-3 ns per value; over the 12,096 first-pass values
  of a 64-node recovery (timeit best) complex ``sin`` took 590 us against
  26-33 for ``tan``, 19-20 for ``sinh`` and 13-14 for ``cosh``.  The
  steps run in place, so a call makes few temporaries of its size; a
  recovery's first pass, 64 x 189 values in one call, faults no pages.
"""

import numpy as np

__all__ = [
    "cot_pi",
    "poly_exp_gap",
    "sin_ratio_gap",
    "sin_ratio_ucos_gap",
    "sinh_ratio_gap",
    "pow_sin_cot",
    "one_minus_cos_cot",
    "decay_one_minus_cos_cot",
    "inv_power_sum",
]


def cot_pi(u):
    """cot(pi*u) with exact period-1 argument reduction."""
    r = u - np.floor(u + 0.5)
    return 1.0 / np.tan(np.pi * r)


def poly_exp_gap(u, coeffs, c, offset):
    """polyval(coeffs, u) * exp(c*u) - offset  (coeffs highest power first).

    ``u`` is cast to complex once: numpy multiplies a complex array by a
    float one through that same cast, so the bits are those of ``p * u``,
    but a mixed-type operand costs a buffered cast in every Horner step.
    The steps run in place.
    """
    uc = u.astype(np.complex128)
    p = np.full(u.shape, coeffs[0], dtype=np.complex128)
    for cj in coeffs[1:]:
        p *= uc
        p += cj
    p *= np.exp(c * uc)
    p -= offset
    return p


def _sin_complex(a, u):
    """sin(a*u) for complex ``a`` and real ``u``, from real ufuncs (see the
    Conventions); the steps run in place."""
    t = (0.5 * a.real) * u
    np.tan(t, t)
    y = a.imag * u
    w = t * t
    w += 1.0
    np.divide(2.0, w, w)  # 1 + cos(x)
    t *= w                # sin(x)
    w -= 1.0              # cos(x)
    s = np.empty(t.shape, np.complex128)
    np.multiply(t, np.cosh(y), s.real)
    np.sinh(y, y)
    np.multiply(w, y, s.imag)
    return s


def sin_ratio_gap(u, a1, s1inv, a2, s2inv):
    """sin(a1*u)*s1inv - sin(a2*u)*s2inv for complex amplitudes."""
    s = _sin_complex(a1, u)
    s *= s1inv
    s2 = _sin_complex(a2, u)
    s2 *= s2inv
    s -= s2
    return s


def sin_ratio_ucos_gap(u, a, sinv, w):
    """sin(a*u)*sinv - u*cos(w*u); w = 0 degenerates the second term to u."""
    s = _sin_complex(a, u)
    s *= sinv
    s -= u * np.cos(w * u)
    return s


def sinh_ratio_gap(u, a1, s1inv, a2, s2inv):
    """sinh(a1*u)*s1inv - sinh(a2*u)*s2inv, all real."""
    return np.sinh(a1 * u) * s1inv - np.sinh(a2 * u) * s2inv


def pow_sin_cot(u, p, n):
    """u**p * sin(2*pi*n*u) * cot(pi*u), reduced; p, n integers."""
    r = u - np.floor(u + 0.5)
    t = np.tan((np.pi * n) * r)
    return u**p * (2.0 * t) / ((1.0 + t * t) * np.tan(np.pi * r))


def one_minus_cos_cot(u, n):
    """(1 - cos(2*pi*n*(1-u))) * cot(pi*(1-u)), reduced; n integer."""
    r = u - np.floor(u + 0.5)
    t2 = np.tan((np.pi * n) * r) ** 2
    return -2.0 * t2 / ((1.0 + t2) * np.tan(np.pi * r))


def decay_one_minus_cos_cot(u, kexp, n):
    """(1-u)**kexp * (1 - cos(2*pi*n*u)) * cot(pi*u), reduced; n integer."""
    r = u - np.floor(u + 0.5)
    t2 = np.tan((np.pi * n) * r) ** 2
    return (1.0 - u) ** kexp * 2.0 * t2 / ((1.0 + t2) * np.tan(np.pi * r))


def inv_power_sum(b, k, j0, j1):
    """sum_{j=j0..j1} (j + b)**(-k), complex b, integer k >= 1, in
    np.longdouble: in double, z**(-k) loses accuracy in proportion to k (up to
    7e-14 relative at k = 170)."""
    j = np.arange(j0, j1 + 1, dtype=np.longdouble)
    return complex(np.sum((j + np.clongdouble(b)) ** (-k)))

