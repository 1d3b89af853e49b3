"""Every count, point and real bound a caller passes goes through the
shared validators of ``hurzeta.errors``: ``check_k`` for integer counts and
orders, ``check_finite`` for points, ``check_real`` for real numbers of
an open interval and ``check_abscissae`` for a kernel's abscissae.  A count
that is not an integer of its range, a point that is not a finite number,
a real that is not a number of its interval, or an abscissa that is not a
finite real number is a :class:`DomainError`, never a bare ``TypeError``/
``ValueError``, a silently truncated count or a NaN result; an
integer-valued float or a numpy integer counts as the int it equals."""

import math

import numpy as np
import pytest

from hurzeta import (
    DomainError,
    QuadratureSpec,
    ZetaParams,
    bernoulli,
    bracket_kernel,
    eulerian_row,
    genfun_parts_real_imag,
    harmonic_number,
    hp_partial_sum,
    hurwitz_series_oracle,
    imag_part_integral,
    integrate_cot_weighted,
    integrate_open,
    integrate_oscillatory,
    log_asymptotic_scan,
    polylog_nonpos,
    polylog_nonpos_orders,
    real_part_formula,
    sinh_kernel,
    sinh_kernel_series,
    sinh_series_depth,
    theorem1_scan,
    zeta_auto,
    zeta_from_genfun,
)
from hurzeta.errors import check_abscissae, check_finite, check_real


def _f(u):
    return u * u


# Calls with a count that is not an integer of its range, a point that is
# not a finite number, or a real that is not a number of its interval.
DOMAIN_ERROR_CALLS = {
    "integrate_oscillatory(f, nan)": lambda: integrate_oscillatory(_f, math.nan),
    "integrate_oscillatory(f, '3')": lambda: integrate_oscillatory(_f, "3"),
    "integrate_open(f, initial_panels=2.5)": lambda: integrate_open(_f, initial_panels=2.5),
    "integrate_open(f, initial_panels=nan)": lambda: integrate_open(_f, initial_panels=math.nan),
    "QuadratureSpec(max_subdivisions=2.5)": lambda: QuadratureSpec(max_subdivisions=2.5),
    "QuadratureSpec(max_subdivisions=nan)": lambda: QuadratureSpec(max_subdivisions=math.nan),
    "bernoulli(2.5)": lambda: bernoulli(2.5),
    "bernoulli('4')": lambda: bernoulli("4"),
    "eulerian_row(2.5)": lambda: eulerian_row(2.5),
    "polylog_nonpos(1.5, 0.3)": lambda: polylog_nonpos(1.5, 0.3),
    "harmonic_number(2, 2.5)": lambda: harmonic_number(2, 2.5),
    "harmonic_number(2.5, 3)": lambda: harmonic_number(2.5, 3),
    "polylog_nonpos_orders(3, nan)": lambda: polylog_nonpos_orders(3, math.nan),
    "polylog_nonpos_orders(3, inf)": lambda: polylog_nonpos_orders(3, math.inf),
    "hp_partial_sum(2, nan, 10)": lambda: hp_partial_sum(2, math.nan, 10),
    "hp_partial_sum(2, inf, 10)": lambda: hp_partial_sum(2, math.inf, 10),
    "sinh_kernel(nan, 0.5)": lambda: sinh_kernel(math.nan, 0.5),
    "sinh_kernel_series(nan, 0.5, 3)": lambda: sinh_kernel_series(math.nan, 0.5, 3),
    "sinh_series_depth(1.0, tol=nan)": lambda: sinh_series_depth(1.0, tol=math.nan),
    "sinh_series_depth(1.0, tol=0)": lambda: sinh_series_depth(1.0, tol=0.0),
    "sinh_series_depth(1.0, tol=1)": lambda: sinh_series_depth(1.0, tol=1.0),
    "log_asymptotic_scan(inf, [10, 100])": lambda: log_asymptotic_scan(math.inf, [10, 100]),
    "log_asymptotic_scan(nan, [10, 100])": lambda: log_asymptotic_scan(math.nan, [10, 100]),
    # not numbers at all: once a bare TypeError or ValueError
    "check_finite('abc', 'b')": lambda: check_finite("abc", "b"),
    "hp_partial_sum(2, 'x', 3)": lambda: hp_partial_sum(2, "x", 3),
    "zeta_auto(3, None)": lambda: zeta_auto(3, None),
    "real_part_formula(3, 'x')": lambda: real_part_formula(3, "x"),
    "real_part_formula(3, None)": lambda: real_part_formula(3, None),
    "imag_part_integral(3, 'x')": lambda: imag_part_integral(3, "x"),
    "imag_part_integral(3, None)": lambda: imag_part_integral(3, None),
    "hurwitz_series_oracle(3, 0.5, tol='x')": lambda: hurwitz_series_oracle(3, 0.5, tol="x"),
    "sinh_series_depth(1.0, tol='x')": lambda: sinh_series_depth(1.0, tol="x"),
    "sinh_series_depth('x')": lambda: sinh_series_depth("x"),
    "sinh_kernel_series(0.5, 'x', 3)": lambda: sinh_kernel_series(0.5, "x", 3),
    "genfun_parts_real_imag('x', 0.3)": lambda: genfun_parts_real_imag("x", 0.3),
    "genfun_parts_real_imag(0.2, 'x')": lambda: genfun_parts_real_imag(0.2, "x"),
    "zeta_from_genfun(3, 0.3, 'x', 32)": lambda: zeta_from_genfun(3, 0.3, "x", 32),
    "log_asymptotic_scan('abc', [10, 100])": lambda: log_asymptotic_scan("abc", [10, 100]),
    "QuadratureSpec(rel_tol='x')": lambda: QuadratureSpec(rel_tol="x"),
    "QuadratureSpec(abs_tol='x')": lambda: QuadratureSpec(abs_tol="x"),
    "integrate_cot_weighted(f, scale_hint='x')":
        lambda: integrate_cot_weighted(_f, scale_hint="x"),
    "polylog_nonpos_orders(3, 'x')": lambda: polylog_nonpos_orders(3, "x"),
    "polylog_nonpos(2, 'x')": lambda: polylog_nonpos(2, "x"),
    # family sizes of the open drivers, and orders of the scans
    "integrate_open(f, family=0)": lambda: integrate_open(_f, family=0),
    "integrate_open(f, family=2.5)": lambda: integrate_open(_f, family=2.5),
    "integrate_oscillatory(f, 3, family='3')": lambda: integrate_oscillatory(_f, 3, family="3"),
    "theorem1_scan('x', [10, 100])": lambda: theorem1_scan("x", [10, 100]),
    "theorem1_scan([], [10, 100])": lambda: theorem1_scan([], [10, 100]),
    "log_asymptotic_scan([2, nan], [10, 100])":
        lambda: log_asymptotic_scan([2, math.nan], [10, 100]),
    # kernel abscissae, a number or an array: once a bare TypeError or
    # ValueError, or a NaN result
    "sinh_kernel(1.0, 'x')": lambda: sinh_kernel(1.0, "x"),
    "sinh_kernel(1.0, [nan])": lambda: sinh_kernel(1.0, [math.nan]),
    "sinh_kernel(1.0, 0.5 + 1j)": lambda: sinh_kernel(1.0, 0.5 + 1j),
    "bracket_kernel(params, 'x')": lambda: bracket_kernel(ZetaParams.create(3, 0.3), "x"),
    "bracket_kernel(params, [nan])":
        lambda: bracket_kernel(ZetaParams.create(3, 0.3), [math.nan]),
    "bracket_kernel(params, [0.5, None])":
        lambda: bracket_kernel(ZetaParams.create(3, 0.3), [0.5, None]),
}


@pytest.mark.parametrize("call", sorted(DOMAIN_ERROR_CALLS))
def test_bad_count_or_point_is_a_domain_error(call):
    with pytest.raises(DomainError):
        DOMAIN_ERROR_CALLS[call]()


def test_integer_valued_counts_are_the_int():
    assert bernoulli(4.0) == bernoulli(4)
    assert harmonic_number(np.int64(2), 3.0) == harmonic_number(2, 3)
    assert (integrate_oscillatory(_f, 3.0).evaluations
            == integrate_oscillatory(_f, 3).evaluations)
    assert type(QuadratureSpec(max_subdivisions=np.int64(50)).max_subdivisions) is int


def test_check_real_refuses_a_complex():
    # whatever its imaginary part, and also as a numpy scalar, which float()
    # would otherwise truncate with only a warning
    with pytest.raises(DomainError, match=r"x must lie in \(0, 1\), got"):
        check_real(0.5 + 0j, "x", 0, 1)
    with pytest.raises(DomainError):
        check_real(np.complex128(0.5), "x", 0, 1)


def test_check_real_returns_a_python_float():
    x = check_real(np.float64(0.3), "x", 0, 1)
    assert type(x) is float and x == 0.3


def test_check_abscissae_returns_float64():
    assert check_abscissae(3).dtype == np.float64 and check_abscissae(3).ndim == 0
    u = np.linspace(0.0, 1.0, 5)
    assert check_abscissae(u) is u
    assert np.array_equal(check_abscissae([0, 0.5]), [0.0, 0.5])
