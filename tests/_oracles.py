"""Reference implementations the test suite trusts.

Everything here is deliberately primitive: plain summation with explicit
tail corrections, textbook series acceleration, or one mpmath special
function at 40 digits.  Nothing imports the package's closed forms, so
agreement between these and the library is evidence, not circularity.
"""

from __future__ import annotations

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
    import cmath

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
