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
    """polyval(coeffs, u) * exp(c*u) - offset  (coeffs highest power first)."""
    p = np.full(u.shape, coeffs[0], dtype=np.complex128)
    for j in range(1, coeffs.shape[0]):
        p = p * u + coeffs[j]
    return p * np.exp(c * u) - offset


def sin_ratio_gap(u, a1, s1inv, a2, s2inv):
    """sin(a1*u)*s1inv - sin(a2*u)*s2inv for complex amplitudes."""
    return np.sin(a1 * u) * s1inv - np.sin(a2 * u) * s2inv


def sin_ratio_ucos_gap(u, a, sinv, w):
    """sin(a*u)*sinv - u*cos(w*u); w = 0 degenerates the second term to u."""
    return np.sin(a * u) * sinv - u * np.cos(w * u)


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

