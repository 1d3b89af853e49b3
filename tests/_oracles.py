"""Reference implementations the test suite trusts.

Everything here is deliberately primitive: plain summation with explicit
tail corrections, textbook series acceleration, or mpmath special functions
and quadrature at 40 digits.  Nothing here imports ``hurzeta`` (a lint in
``test_imports.py`` holds that), so agreement between these and the
library is evidence, not circularity.
"""

from __future__ import annotations

import cmath
import math


def sumalt(terms, n: int = 40) -> float:
    """Cohen-Rodriguez Villegas-Zagier acceleration for alternating series.

    ``terms[k]`` supplies the positive magnitudes ``a_k`` of
    ``sum_k (-1)**k a_k``.  Convergence is ~ ``5.83**-n``, so ``n = 40``
    is already beyond double precision for any reasonable summand.
    """
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    s = 0.0
    for k in range(n):
        c = b - c
        s += c * terms(k)
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1.0))
    return s / d


def catalan_constant() -> float:
    """G = sum_{n>=0} (-1)**n / (2n+1)**2 via CVZ acceleration."""
    return sumalt(lambda k: 1.0 / (2 * k + 1) ** 2)


def euler_gamma() -> float:
    """gamma via H_N - ln N - 1/(2N) + 1/(12 N**2), N = 2**20.

    The next Euler-Maclaurin term is -1/(120 N**4) ~ 8e-28, far below
    double precision.
    """
    n = 1 << 20
    h = math.fsum(1.0 / j for j in range(1, n + 1))
    return h - math.log(n) - 1.0 / (2.0 * n) + 1.0 / (12.0 * n * n)


def riemann_zeta(s: int, n: int = 200_000) -> float:
    """zeta(s) for integer s >= 2: direct sum plus midpoint integral tail."""
    if s < 2:
        raise ValueError("need s >= 2")
    head = math.fsum(j ** (-float(s)) for j in range(1, n + 1))
    # integral_{n+1/2}^inf t**-s dt; midpoint placement cancels the first
    # Euler-Maclaurin correction, leaving ~ s/24 * n**-(s+1).
    tail = (n + 0.5) ** (1.0 - s) / (s - 1.0)
    return head + tail


def _inv_pow(w: complex, k: int) -> complex:
    # (1/w)**k instead of w**-k: repeated squaring on a magnitude-below-one
    # base underflows to zero cleanly, while w**k can overflow to inf first
    # and turn the reciprocal into nan.
    return (1.0 / w) ** k


def hurwitz_direct(k: int, b: complex, n: int = 100_000) -> complex:
    """sum_{j>=0} (j+b)**-k by brute force with a midpoint tail.

    Needs ``Re b > 0``.  Tail error ~ k/24 * n**-(k+1), i.e. < 1e-16 for
    every k >= 2 at the default ``n``.
    """
    b = complex(b)
    if b.real <= 0:
        raise ValueError("need Re b > 0")
    terms = [_inv_pow(j + b, k) for j in range(n + 1)]
    terms.append(_inv_pow(n + 0.5 + b, k - 1) / (k - 1))
    return complex(
        math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)
    )


def rotated_direct(k: int, b: float, n: int = 100_000) -> complex:
    """sum_{j>=0} (i*j + b)**-k for real b > 0, brute force + midpoint tail.

    The tail integral is ``integral_n^inf (i*t+b)**-k dt
    = (i*n+b)**(1-k) / (i*(k-1))`` evaluated at the midpoint.
    """
    if b <= 0:
        raise ValueError("need b > 0")
    terms = [_inv_pow(1j * j + b, k) for j in range(n + 1)]
    terms.append(_inv_pow(1j * (n + 0.5) + b, k - 1) / (1j * (k - 1)))
    return complex(
        math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)
    )


def genfun_direct(x: complex, b: complex, n: int = 40_000) -> complex:
    """f(x,b) = sum_{k>=2} x**k (zeta(k,b) - b**-k), resummed in j.

    Swapping the sums gives ``sum_{j>=1} x**2 / ((j+b)(j+b-x))`` -- a
    geometric resummation that converges for any x with ``|x| <
    min_j |j + b|``.  Tail: ``x * log((t+b)/(t+b-x))`` at the midpoint.
    """
    x, b = complex(x), complex(b)
    head = sum(x * x / ((j + b) * (j + b - x)) for j in range(1, n + 1))
    t = n + 0.5
    if x == 0:
        return head
    tail = x * cmath.log((t + b) / (t + b - x))
    return head + tail


def genfun_digamma(x: complex, b: complex) -> complex:
    """f(x,b) = x * (psi(1+b) - psi(1+b-x)), by mpmath's digamma at 40 digits.

    Termwise, ``x**2 / ((j+b)(j+b-x)) = x * (1/(j+b-x) - 1/(j+b))``, and
    ``sum_{j>=1} (1/(j+a) - 1/(j+c)) = psi(1+c) - psi(1+a)``.  Valid for
    every x and b off the poles of psi, so also where the series in x
    converges slowly; b must not be a negative integer (psi(1+b) is
    infinite there, and the series skips that term instead).
    """
    import mpmath

    with mpmath.workdps(40):
        x, b = mpmath.mpc(complex(x)), mpmath.mpc(complex(b))
        return complex(x * (mpmath.digamma(1 + b) - mpmath.digamma(1 + b - x)))


def negative_integer_coefficient(k: int, m: int) -> float:
    """``sum_{j>=1, j != m} (j - m)**(-k)``, the series coefficient at
    ``b = -m`` with its singular term skipped, at 40 digits: ``zeta(k)``
    (the terms j > m) plus ``(-1)**k * H_k(m - 1)`` (the terms j < m, each
    summed by ``mpmath.fsum``)."""
    import mpmath

    with mpmath.workdps(40):
        head = mpmath.fsum(mpmath.mpf(j) ** -k for j in range(1, m))
        return float(mpmath.zeta(k) + (-1) ** k * head)


def rotated_genfun_parts(x: float, b: float) -> complex:
    """``F(x, b) = sum_{k>=2} x**k sum_{j>=1} (i*j + b)**(-k)`` for real
    ``x`` and ``b`` from its exponential / hyperbolic split, at 40 digits:

    ``Re F = x**2/(2b(x-b)) + pi*x*(e**(2*pi*x)-1) /
    ((e**(-2*pi*b)-1)(e**(2*pi*x)-e**(2*pi*b)))`` and ``Im F = pi*x *
    integral_0^1 [sinh(2pi(x-b)u)/sinh(2pi(x-b)) - sinh(2pi*b*u)/sinh(2pi*b)]
    cot(pi*u) du``, the integral by ``mpmath.quad``.  ``F(x, b)`` is the
    generating function at rotated arguments, ``f(-i*x, -i*b)``.
    """
    import mpmath

    with mpmath.workdps(40):
        x, b = mpmath.mpf(x), mpmath.mpf(b)
        pi = mpmath.pi
        ex, eb = mpmath.exp(2 * pi * x), mpmath.exp(2 * pi * b)
        real = x * x / (2 * b * (x - b)) + pi * x * (ex - 1) / (
            mpmath.expm1(-2 * pi * b) * (ex - eb))
        a1, a2 = 2 * pi * (x - b), 2 * pi * b

        def g(u):
            gap = mpmath.sinh(a1 * u) / mpmath.sinh(a1) - mpmath.sinh(a2 * u) / mpmath.sinh(a2)
            return gap * mpmath.cot(pi * u)

        imag = pi * x * mpmath.quad(g, [0, 1])
        return complex(float(real), float(imag))


def sinh_kernel(c: complex, u: float) -> complex:
    """``c * sinh(c*u) / sinh(c)``: the closed form of the double series of
    :func:`sinh_kernel_series`, the identity behind the odd-zeta integral."""
    return c * cmath.sinh(c * u) / cmath.sinh(c)


def sinh_series_depth(c_abs: float, tol: float = 1e-12) -> int:
    """Number of j-terms of the sinh double series needed so the geometric
    tail (ratio ``(|c|/pi)**2``, below 1) drops below ``tol``."""
    q = (c_abs / math.pi) ** 2
    if q == 0.0:
        return 1
    return max(1, math.ceil(math.log(tol * (1.0 - q) / 2.0) / math.log(q)))


def sinh_kernel_series(c: complex, u: float, n_terms: int) -> complex:
    """The double series ``sum_j c**(2j+1) sum_p B_{2p}(2-2**(2p))
    u**(2j-2p+1)/((2p)!(2j-2p+1)!)`` after ``n_terms`` values of ``j``.

    Rearranged as a convolution so no intermediate overflows: with
    ``A_p = B_{2p}(2-2**(2p)) c**(2p) / (2p)!`` (magnitude ~
    ``2(|c|/pi)**(2p)``) and ``S_m = (c*u)**(2m+1)/(2m+1)!``, the j-th term
    is ``sum_{p=0..j} A_p S_{j-p}``.  ``A_p`` is built through the ratios
    ``A_p / A_{p-1}``, from ``mpmath.bernoulli`` at 40 digits: the factors
    ``c**(2p)`` and ``B_{2p}`` overflow double long before the product does.
    """
    import mpmath

    jmax = n_terms - 1
    with mpmath.workdps(40):
        t = [mpmath.bernoulli(2 * p) * (2 - 4**p) / mpmath.factorial(2 * p)
             for p in range(jmax + 1)]
        ratios = [float(t[p] / t[p - 1]) for p in range(1, jmax + 1)]
    a = [1.0 + 0j]  # A_0 = B_0 * (2-1) / 0! = 1
    for r in ratios:
        a.append(a[-1] * c * c * r)
    cu = c * u
    s = [cu]  # S_0
    for m in range(1, jmax + 1):
        s.append(s[-1] * cu * cu / ((2 * m) * (2 * m + 1)))
    acc = 0j
    for j in range(jmax + 1):
        term = 0j
        for p in range(j + 1):
            term += a[p] * s[j - p]
        acc += term
    return acc
