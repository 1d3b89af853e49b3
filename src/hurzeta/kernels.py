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
* ``pow_sin_cot`` and ``decay_one_minus_cos_cot`` take their exponent as a
  scalar or as a column, one exponent per line of the result: a validation
  scan integrates all its orders as one family, whose first pass shares one
  line of abscissae, so the trigonometric factors are computed once for
  every order.  Each line gets the bits of its exponent as a scalar.
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
  26-33 for ``tan``, 19-20 for ``sinh`` and 13-14 for ``cosh``.  The steps
  run in place, in blocks of at most ``_SINE_BLOCK`` values: in one block a
  64-node first pass (65 x 189 values) faulted 110 pages (~460 us against 185)
  per call in a fresh process, as glibc returned its ~0.6 MB after each call.
* ``poly_exp_gap``, the closed form's integrand, evaluates its polynomial
  as one matrix product of the powers ``u**m`` and the coefficients, not
  by Horner's rule: a fixed few numpy calls whatever the degree, where
  Horner took two per coefficient.  On the cotangent driver's 189
  first-pass abscissae (numpy 2.4 and OpenBLAS, 2-vCPU x86-64) that is
  about 10 us at every k from 2 to 24, where Horner took 9-31 us.  The
  powers of that shared read-only line are computed once per process and
  kept; any other ``u`` gets them computed by the same products, so both
  give the same bits.  The value is within ``4k*eps`` of the summed sizes
  of its terms.
"""

import numpy as np

_SINE_BLOCK = 1 << 13  # most values one pass of the genfun sines' steps runs over
_POWER_BLOCK = 1 << 12  # most abscissae one power table covers (k rows of them)

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


def _power_rows(u, k):
    """``u**m`` for ``m = 0..k-1`` as row ``m`` of a ``(k, u.size)`` array,
    ``u`` one line, by doubling: rows ``h..2h-1`` are rows ``0..h-1`` times
    ``u**h``.  Row ``m`` is the same products whatever ``k`` is, so the
    first ``k`` rows of a larger table have the bits of this one."""
    t = np.empty((k, u.size))
    t[0] = 1.0
    if k > 1:
        t[1] = u
    h = 2
    while h < k:
        n = min(h, k - h)
        np.multiply(t[:n], t[1] * t[h - 1], out=t[h:h + n])
        h += h
    return t


# The last read-only line met by _powers (in practice the cotangent driver's
# first-pass abscissae) and its power rows.
_shared = (None, None)


def _powers(x, k):
    """:func:`_power_rows` of the line ``x``.  A view of all of a read-only
    array (whose values therefore cannot change), as the driver's first-pass
    line is, takes its rows from one shared table, built once and grown to
    the largest ``k`` asked; any other ``x`` gets its rows computed."""
    global _shared
    line = x.base
    if not (isinstance(line, np.ndarray) and not line.flags.writeable
            and (line.shape, line.strides, line.dtype) == (x.shape, x.strides, x.dtype)):
        return _power_rows(x, k)
    known, rows = _shared
    if line is not known or len(rows) < k:
        rows = _power_rows(line, k)
        # one assignment, so a thread reads a whole pair; a race between
        # threads costs at most a rebuilt table, as each call uses the rows
        # it read or built
        _shared = (line, rows)
    return rows[:k]


def poly_exp_gap(u, coeffs, c, offset):
    """polyval(coeffs, u) * exp(c*u) - offset  (coeffs highest power first).

    The polynomial is one matrix product: the powers ``u**m`` (rows of
    :func:`_powers`, transposed to one row per abscissa) times the
    coefficients as a ``(k, 2)`` real array, lowest power first, whose
    ``(n, 2)`` result is viewed back as complex.  A fixed few numpy calls
    whatever ``k`` is, where Horner's rule took ``2k``; the powers of the
    driver's shared first-pass line are computed once per process.  A
    ``u`` of more than ``_POWER_BLOCK`` values is taken in blocks of that
    many, so the table stays near cache size (the driver's calls fit one).
    """
    x = u.ravel()
    if x.size > _POWER_BLOCK:
        return np.concatenate([poly_exp_gap(x[i:i + _POWER_BLOCK], coeffs, c, offset)
                               for i in range(0, x.size, _POWER_BLOCK)]).reshape(u.shape)
    pairs = np.array(coeffs[::-1], dtype=np.complex128).view(np.float64).reshape(-1, 2)
    p = (_powers(x, len(pairs)).T @ pairs).view(np.complex128).reshape(u.shape)
    p *= np.exp(c * u)
    p -= offset
    return p


def _sin_complex(a, u):
    """sin(a*u), ``a`` a complex scalar or column and ``u`` one real line or one
    per row, from real ufuncs (see the Conventions) in blocks of ``_SINE_BLOCK``."""
    rows, n = max(np.size(a), len(u)), u.shape[1]
    if rows * n <= _SINE_BLOCK:
        return _sines(a, u)
    s = np.empty((rows, n), np.complex128)
    step = _SINE_BLOCK // n
    for i in range(0, rows, step):
        block = slice(i, i + step)
        _sines(a[block] if np.size(a) > 1 else a, u[block] if len(u) > 1 else u, s[block])
    return s


def _sines(a, u, s=None):
    """sin(a*u) into ``s`` (a new array by default); the steps run in place."""
    t = (0.5 * a.real) * u
    np.tan(t, t)
    y = a.imag * u
    w = t * t
    w += 1.0
    np.divide(2.0, w, w)  # 1 + cos(x)
    t *= w                # sin(x)
    w -= 1.0              # cos(x)
    s = np.empty(t.shape, np.complex128) if s is None else s
    np.multiply(t, np.cosh(y), s.real)
    np.sinh(y, y)
    np.multiply(w, y, s.imag)
    return s


def sin_ratio_gap(u, a1, s1inv, a2, s2inv):
    """sin(a1*u)*s1inv - sin(a2*u)*s2inv; on one shared line ``u``, one call."""
    if len(u) == 1:
        s = _sin_complex(np.append(a1, a2)[:, None], u)
        s, s2 = s[:-1], s[-1]
    else:
        s, s2 = _sin_complex(a1, u), _sin_complex(a2, u)
    s *= s1inv
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


def _power(u, p):
    """``u**p`` for a scalar ``p`` or a column of exponents, one per line of
    the result, each line by the scalar expression ``u**p``.  numpy raises
    an array to a scalar 2, 0.5 or -1 by ``square``, ``sqrt`` or
    ``reciprocal``, but may take an exponent from an array through ``pow``,
    whose last bits differ; so a line gets the bits its exponent gives
    alone."""
    if np.ndim(p) == 0:
        return u**p
    col = p[:, 0]
    out = np.empty((col.size, u.shape[-1]))
    for i, e in enumerate(col.tolist()):  # one shared line, or a line per exponent
        out[i] = u[0 if len(u) == 1 else i] ** e
    return out


def pow_sin_cot(u, p, n):
    """u**p * sin(2*pi*n*u) * cot(pi*u), reduced; p, n integers (``p`` a
    scalar or a column of exponents, see :func:`_power`)."""
    r = u - np.floor(u + 0.5)
    t = np.tan((np.pi * n) * r)
    out = _power(u, p)
    out *= 2.0 * t
    out /= (1.0 + t * t) * np.tan(np.pi * r)
    return out


def one_minus_cos_cot(u, n):
    """(1 - cos(2*pi*n*(1-u))) * cot(pi*(1-u)), reduced; n integer."""
    r = u - np.floor(u + 0.5)
    t2 = np.tan((np.pi * n) * r) ** 2
    return -2.0 * t2 / ((1.0 + t2) * np.tan(np.pi * r))


def decay_one_minus_cos_cot(u, kexp, n):
    """(1-u)**kexp * (1 - cos(2*pi*n*u)) * cot(pi*u), reduced; n integer
    (``kexp`` a scalar or a column of exponents, see :func:`_power`)."""
    r = u - np.floor(u + 0.5)
    t2 = np.tan((np.pi * n) * r) ** 2
    out = _power(1.0 - u, kexp)
    out *= 2.0
    out *= t2
    out /= (1.0 + t2) * np.tan(np.pi * r)
    return out


def inv_power_sum(b, k, j0, j1):
    """sum_{j=j0..j1} (j + b)**(-k), complex b, integer k >= 1, in
    np.longdouble: in double, z**(-k) loses accuracy in proportion to k (up to
    7e-14 relative at k = 170)."""
    j = np.arange(j0, j1 + 1, dtype=np.longdouble)
    return complex(np.sum((j + np.clongdouble(b)) ** (-k)))

