"""Reference values computed apart from the program, and the output checker.

Every reference comes from mpmath at 30 digits (a development-time
dependency only; the program never imports it) or from a closed form
derived here:

* ζ(k, b) and ζ(2j+1): ``mpmath.zeta``.
* The generating function: f(x, b) = x (ψ(1+b) − ψ(1+b−x)), which is the
  sum over j >= 1 of x**2 / ((j+b)(j+b−x)).  At b = −m the singular term
  j = m is skipped, leaving x (ψ(1) − ψ(1−x)) + Σ_{i<m} x**2 / (i (i+x)).
* The convergence scans: the exact finite-n integrals.  Writing the
  Dirichlet kernels as cosine and sine sums turns each integral of the
  polynomial g(t) = (1−t)**k into Fourier coefficients of g, which
  repeated integration by parts gives exactly; their sums over m are
  power sums.  At n -> infinity they tend to the limits the scans target:
  1 (k = 0) and 1/2 (k >= 1) for the theorem-1 integral, 0 for the zero
  integral, and −∫ (u**k − u) cot(πu) du for the log-asymptotic residual.

References are recomputed on every run (about a second); nothing is
cached.  ``python3 perfbench/reference.py`` runs the checker's self-test.
"""

import mpmath

mpmath.mp.dps = 30

RTOL = 1e-8


def score(value, ref, floor=0.0):
    """|value - ref| in units of the tolerance RTOL * max(|ref|, floor):
    at most 1 passes.  A missing or non-finite value scores infinity."""
    if value is None:
        return float("inf")
    value, ref = complex(value), complex(ref)
    err = abs(value - ref)
    if err != err:
        return float("inf")
    return err / (RTOL * max(abs(ref), floor, 1e-300))


def check(value, ref, floor=0.0):
    """True when ``value`` is within RTOL of ``ref``, relative to
    ``max(|ref|, floor)``; a missing or non-finite value fails."""
    return score(value, ref, floor) <= 1.0


def zeta(k, b):
    b = complex(b)
    return complex(mpmath.zeta(k, mpmath.mpc(b.real, b.imag)))


def odd_zeta(j):
    return float(mpmath.zeta(2 * j + 1))


def genfun(x, b):
    x, b = mpmath.mpc(complex(x).real, complex(x).imag), complex(b)
    if b.imag == 0.0 and b.real.is_integer() and b.real < 0:
        m = int(-b.real)
        f = x * (mpmath.digamma(1) - mpmath.digamma(1 - x))
        for i in range(1, m):
            f += x * x / (i * (i + x))
        return complex(f)
    b = mpmath.mpc(b.real, b.imag)
    return complex(x * (mpmath.digamma(1 + b) - mpmath.digamma(1 + b - x)))


def _dirichlet_sum(p, n):
    """2 Σ_{m=1}^{n-1} m**-p + n**-p."""
    head = mpmath.harmonic(n - 1) if p == 1 else mpmath.zeta(p) - mpmath.zeta(p, n)
    return 2 * head + mpmath.mpf(n) ** (-p)


def _dg(k, p, t):
    """p-th derivative of (1 - t)**k at t = 0 or t = 1."""
    if p > k or (t == 1 and p != k):
        return mpmath.mpf(0)
    return (-1) ** p * mpmath.factorial(k) / mpmath.factorial(k - p)


def theorem1(k, n):
    """∫_0^1 u**k sin(2πn(1−u)) cot(π(1−u)) du, exactly.

    sin(2nθ) cot θ = 1 + 2 Σ_{m<n} cos 2mθ + cos 2nθ, and for g = (1−t)**k
    ∫ g cos(2πmt) = Σ_r (−1)**r (g^(2r+1)(1) − g^(2r+1)(0)) / (2πm)**(2r+2).
    """
    total = mpmath.mpf(1) / (k + 1)
    for r in range(k + 1):
        d = _dg(k, 2 * r + 1, 1) - _dg(k, 2 * r + 1, 0)
        if d:
            total += (-1) ** r * d / (2 * mpmath.pi) ** (2 * r + 2) * _dirichlet_sum(2 * r + 2, n)
    return float(total)


def log_residual(k, n):
    """∫_0^1 (1−u)**k (1 − cos 2πnu) cot(πu) du − (γ + log n)/π, exactly.

    (1 − cos 2nθ) cot θ = 2 Σ_{m<n} sin 2mθ + sin 2nθ, and
    ∫ g sin(ωu) = (g(0) − g(1))/ω + Σ_r (−1)**r (g^(2r+2)(1) − g^(2r+2)(0)) / ω**(2r+3).
    """
    total = (_dg(k, 0, 0) - _dg(k, 0, 1)) / (2 * mpmath.pi) * _dirichlet_sum(1, n)
    for r in range(k + 1):
        d = _dg(k, 2 * r + 2, 1) - _dg(k, 2 * r + 2, 0)
        if d:
            total += (-1) ** r * d / (2 * mpmath.pi) ** (2 * r + 3) * _dirichlet_sum(2 * r + 3, n)
    return float(total - (mpmath.euler + mpmath.log(n)) / mpmath.pi)


def log_target(k):
    """The residual's limit, −∫_0^1 (u**k − u) cot(πu) du."""
    return float(-mpmath.quad(lambda u: (u**k - u) * mpmath.cot(mpmath.pi * u), [0, 1]))


def self_test():
    """The checker passes a value at the reference and counts one moved by
    1e-6 relative (100x the tolerance) as failed.  Returns failure messages."""
    ref = zeta(3, 1.25)
    cases = [
        (ref, True),
        (ref * (1 + 1e-10), True),
        (ref * (1 + 1e-6), False),
        (ref * (1 - 1e-6), False),
        (ref + 1e-6 * abs(ref) * 1j, False),
        (float("nan"), False),
        (None, False),
    ]
    bad = [f"check({v!r}, {ref!r}) should be {want}"
           for v, want in cases if check(v, ref) != want]
    # at a limit of 0 the floor makes the test absolute
    if check(1e-6, 0.0, floor=1.0) or not check(1e-9, 0.0, floor=1.0):
        bad.append("absolute floor at a zero limit")
    return bad


if __name__ == "__main__":
    failures = self_test()
    for msg in failures:
        print("FAIL", msg)
    print("checker self-test:", "failed" if failures else "passed")
    raise SystemExit(1 if failures else 0)
