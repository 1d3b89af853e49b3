"""Finite-n convergence scans for the limit theorems the closed forms rest on.

Each scan evaluates a family of oscillatory integrals at increasing n,
compares against the known limit (or divergence model), and fits the decay
rate of the deviation by least squares on the log-log cloud.  These are
numerical *checks*, not proofs: they exist so a transcription error in any
kernel shows up as a wrong limit or a wrong rate long before it corrupts a
zeta value.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import DomainError, HurzetaError, check_finite, check_k, check_real
from .hurwitz import (
    ZetaParams,
    hp_partial_sum,
    hurwitz_zeta,
    imag_part_integral,
    real_part_formula,
)
from .quadrature import (
    DEFAULT_SPEC,
    QuadratureSpec,
    integrate_cot_weighted,
    integrate_oscillatory,
)
from .special_functions import EULER_GAMMA

__all__ = [
    "ConvergenceReport",
    "fit_rate",
    "theorem1_scan",
    "zero_integral_scan",
    "log_asymptotic_scan",
    "hp_limit_scan",
]

N_CAP = 10_000  # oscillatory cost grows linearly in n; rates are clear by here


@dataclass
class ConvergenceReport:
    """Outcome of one scan: observed values vs target across n."""

    parameter: str          # human description of what was scanned
    n_values: tuple
    observed: tuple         # same length as n_values (nan where a cell failed)
    target: complex | None  # limit value; None when the model is divergent
    deviations: tuple       # |observed - target| (or residual magnitudes)
    fitted_rate: float      # decay exponent alpha in |dev| ~ n**-alpha (nan if unfit)
    verdict: str            # "pass" | "fail"
    noise_floor: float = 0.0
    notes: list = field(default_factory=list)

    def __post_init__(self):
        if list(self.n_values) != sorted(set(self.n_values)):
            raise DomainError("n_values must be strictly increasing")
        if len(self.observed) != len(self.n_values):
            raise DomainError("observed and n_values lengths differ")


def fit_rate(n_values, deviations, floor: float = 0.0) -> float:
    """Least-squares decay exponent: slope of log|dev| against log n,
    negated so n**-1 decay reports 1.0.  Points at or below ``floor``
    (already in the noise) are excluded; fewer than 3 usable points
    returns nan — no verdict from a rate fit should rest on less."""
    ns, ds = [], []
    for n, d in zip(n_values, deviations):
        if d > floor and math.isfinite(d) and d > 0.0:
            ns.append(math.log(float(n)))
            ds.append(math.log(float(d)))
    if len(ns) < 3:
        return math.nan
    # the closed-form slope: np.polyfit would call LAPACK, whose buffers add
    # 1.3 MiB to the resident memory of a process that fits a few points
    mx, my = sum(ns) / len(ns), sum(ds) / len(ds)
    sxx = sum((x - mx) ** 2 for x in ns)
    if sxx == 0.0:
        return math.nan
    return -sum((x - mx) * (y - my) for x, y in zip(ns, ds)) / sxx


def _check_n_values(n_values, lo: int = 1):
    out = [check_k(n, minimum=0, name="n_values") for n in n_values]
    if not out:
        raise DomainError("n_values must be non-empty")
    if out != sorted(set(out)):
        raise DomainError("n_values must be strictly increasing")
    if out[0] < lo or out[-1] > N_CAP:
        raise DomainError(f"n_values must lie within [{lo}, {N_CAP}]")
    return out


def _orders(k, check):
    """``(scalar, orders)``: one order, or a non-empty sequence of them, each
    through ``check``."""
    scalar = np.ndim(k) == 0
    orders = [check(j) for j in ([k] if scalar else k)]
    if not orders:
        raise DomainError("k must name at least one order")
    return scalar, orders


def _scan(ns, kernel, orders, spec):
    """``integrate_oscillatory`` of ``kernel(u, k, n)`` at each frequency
    ``n``, for each order ``k`` of ``orders``: per order, the real parts, the
    largest error estimate and the notes.  Several orders are one family,
    one quadrature call per ``n``, and ``kernel`` gets their column of
    orders.  A typed failure at one ``n`` records nan and a note for every
    order, naming the order that raised when one did; any other exception
    propagates."""
    exps = [float(j) for j in orders]
    col = np.array(exps)
    family = len(exps) if len(exps) > 1 else None
    values = [[] for _ in exps]
    worst_error = [0.0] * len(exps)
    notes = [[] for _ in exps]
    for n in ns:
        try:
            if family is None:
                res = integrate_oscillatory(lambda u, n=n: kernel(u, exps[0], n), n, spec)
            else:
                res = integrate_oscillatory(
                    lambda u, rows, n=n: kernel(u, col[rows], n), n, spec, family=family)
        except HurzetaError as exc:
            row = getattr(exc, "row", None)
            who = "" if row is None else f", k={exps[row]:g}"
            for row_values, row_notes in zip(values, notes):
                row_values.append(math.nan)
                row_notes.append(f"n={n}{who}: {type(exc).__name__}: {exc}")
            continue
        converged = res.converged if family is None else res.row_converged
        for j, (v, e, ok) in enumerate(zip(np.atleast_1d(res.value),
                                           np.atleast_1d(res.error_estimate),
                                           np.atleast_1d(converged))):
            values[j].append(float(v.real))
            worst_error[j] = max(worst_error[j], float(e))
            if not ok:
                notes[j].append(f"n={n}: quadrature did not converge")
    return list(zip(values, worst_error, notes))


def theorem1_scan(k, n_values, spec: QuadratureSpec | None = None):
    """``integral_0^1 u**k sin(2*pi*n*(1-u)) cot(pi*(1-u)) du -> 1`` (k = 0)
    or ``1/2`` (integer k >= 1), for one order ``k`` (a
    :class:`ConvergenceReport`) or a sequence of orders (a list of them).

    For k in {0, 1} the integral is *exactly* the limit for every n (the
    Dirichlet-kernel part integrates exactly); deviations there are pure
    quadrature noise, so the verdict uses the noise floor instead of a rate
    fit.  For k >= 2 the deviation decays like C/n and the fitted exponent
    must land in [0.8, 1.2].

    At each n all orders are one family of integrals, made in one
    quadrature call: they share the abscissae and the trigonometric
    factors, and each row gets the bits a scan of its order alone gets.
    Each order keeps its own target, noise floor, rate fit and verdict; a
    typed failure at one n fails that n for every order.
    """
    scalar, orders = _orders(k, lambda j: check_k(j, minimum=0))
    ns = _check_n_values(n_values, lo=1)
    spec = spec or DEFAULT_SPEC
    scans = _scan(ns, kernels.pow_sin_cot, orders, spec)
    reports = [_theorem1_report(j, ns, *scan) for j, scan in zip(orders, scans)]
    return reports[0] if scalar else reports


def _theorem1_report(k, ns, observed, floor, notes):
    target = 1.0 if k == 0 else 0.5
    devs = tuple(abs(o - target) for o in observed)
    floor = max(floor, 1e-12)
    rate = fit_rate(ns, devs, floor=floor)
    if k <= 1:
        ok = all(math.isfinite(d) and d <= 100.0 * floor for d in devs)
        if ok:
            notes.append(
                f"k={k}: integral is exactly {target} for every n; "
                f"deviations are quadrature noise (max {max(devs):.2e})"
            )
    else:
        ok = math.isfinite(rate) and 0.8 <= rate <= 1.2 if len(ns) >= 3 else all(
            d <= 10.0 / n for d, n in zip(devs, ns)
        )
    return ConvergenceReport(
        parameter=f"theorem-1 integral, k={k}",
        n_values=tuple(ns), observed=tuple(observed), target=target,
        deviations=devs, fitted_rate=rate,
        verdict="pass" if ok else "fail", noise_floor=floor, notes=notes,
    )


def zero_integral_scan(n_values, spec: QuadratureSpec | None = None) -> ConvergenceReport:
    """``integral_0^1 (1 - cos(2*pi*n*(1-u))) cot(pi*(1-u)) du = 0`` for every
    integer n; observed values are pure quadrature residue."""
    ns = _check_n_values(n_values, lo=1)
    spec = spec or DEFAULT_SPEC
    [(observed, _, notes)] = _scan(
        ns, lambda u, _k, n: kernels.one_minus_cos_cot(u, n), [0], spec)
    devs = tuple(abs(o) for o in observed)
    ok = all(
        math.isfinite(d) and d <= (1e-8 if n <= 100 else 1e-7)
        for d, n in zip(devs, ns)
    )
    return ConvergenceReport(
        parameter="zero integral (1 - cos(2*pi*n*u)) against cot",
        n_values=tuple(ns), observed=tuple(observed), target=0.0,
        deviations=devs, fitted_rate=math.nan,
        verdict="pass" if ok else "fail", notes=notes,
    )


def log_asymptotic_scan(k, n_values, spec: QuadratureSpec | None = None):
    """``integral_0^1 (1-u)**k (1 - cos(2*pi*n*u)) cot(pi*u) du`` diverges like
    ``(gamma + log n)/pi``; after subtracting that, the residual tends to
    ``-integral_0^1 (u**k - u) cot(pi*u) du``.  For one real order ``k > 0``
    (a :class:`ConvergenceReport`) or a sequence of them (a list of them).

    ``observed`` holds the residuals (divergence already removed), ``target``
    the limiting constant from an independent cotangent-weighted quadrature.
    The verdict requires residual deviations to shrink by >= 2x per decade
    of n (evidence the log term was removed correctly, without demanding a
    sharp rate for slowly-converging k).

    At each n all orders are one family of integrals in one quadrature call,
    as in :func:`theorem1_scan`; each order keeps its own target, rate fit,
    verdict and notes.
    """
    scalar, orders = _orders(k, lambda j: check_real(j, "k", 0.0, math.inf))
    ns = _check_n_values(n_values, lo=10)
    spec = spec or DEFAULT_SPEC
    scans = _scan(ns, kernels.decay_one_minus_cos_cot, orders, spec)
    reports = [_log_asymptotic_report(j, ns, values, notes, spec)
               for j, (values, _, notes) in zip(orders, scans)]
    return reports[0] if scalar else reports


def _log_asymptotic_report(k, ns, values, notes, spec):
    target = -integrate_cot_weighted(lambda u: u**k - u, spec).value.real
    observed = [v - (EULER_GAMMA + math.log(n)) / math.pi for v, n in zip(values, ns)]
    devs = tuple(abs(o - target) for o in observed)
    rate = fit_rate(ns, devs, floor=1e-13)
    # successive-decade shrink: compare deviations one decade of n apart
    ok = all(math.isfinite(d) for d in devs)
    pairs = 0
    for i, ni in enumerate(ns):
        for jj, nj in enumerate(ns):
            if nj >= 10 * ni and devs[i] > 1e-12:
                pairs += 1
                if devs[jj] > devs[i] / 2.0:
                    ok = False
    if pairs == 0 and len(ns) >= 2 and ok:
        # no full decade available: fall back to plain monotone improvement
        ok = devs[-1] <= devs[0] or devs[-1] <= 1e-10
    return ConvergenceReport(
        parameter=f"log-asymptotic residual, k={k:g} "
                  f"(model (gamma + log n)/pi + const)",
        n_values=tuple(ns), observed=tuple(observed), target=target,
        deviations=devs, fitted_rate=rate,
        verdict="pass" if ok else "fail", notes=notes,
    )


def _hp_limit(k: int, b: complex) -> complex:
    """The n -> infinity value of hp_partial_sum: sum_{j>=1} (i*j + b)**(-k).

    Real b > 0 uses the dedicated real/imaginary split; complex b routes
    through the rotated zeta evaluation (the rotation that defines the
    series in the first place)."""
    b = check_finite(b, "b")
    if b.imag == 0.0:  # real_part_formula refuses b <= 0
        full = complex(real_part_formula(k, b.real), imag_part_integral(k, b.real))
    else:
        params = ZetaParams.create(k, -1j * b)
        full = (-1j) ** (k % 4) * hurwitz_zeta(params).total
    return full - 1.0 / b**k


def hp_limit_scan(k: int, b: complex, n_values) -> ConvergenceReport:
    """Partial sums of the rotated series against their closed-form limit;
    the tail is ~ n**(1-k)/(k-1), so the deviation must decay like n**(1-k).

    With fewer than 3 n-values no rate is fit; the verdict then checks each
    deviation against 3x the analytic tail bound instead.
    """
    k = check_k(k)
    ns = _check_n_values(n_values, lo=1)
    limit = _hp_limit(k, b)
    observed, devs, notes = [], [], []
    for n in ns:
        s = hp_partial_sum(k, b, n)
        observed.append(complex(s))
        devs.append(abs(s - limit))
    devs = tuple(devs)
    rate = fit_rate(ns, devs, floor=1e-14)
    expected = k - 1
    if len(ns) >= 3 and math.isfinite(rate):
        ok = abs(rate - expected) <= 0.3
    else:
        ok = all(
            d <= 3.0 * n ** (1 - k) / (k - 1) + 1e-12 for d, n in zip(devs, ns)
        )
        notes.append("fewer than 3 usable points: verdict from tail bound, not rate")
    return ConvergenceReport(
        parameter=f"rotated partial sums, k={k}, b={b}",
        n_values=tuple(ns), observed=tuple(observed), target=limit,
        deviations=devs, fitted_rate=rate,
        verdict="pass" if ok else "fail", notes=notes,
    )
