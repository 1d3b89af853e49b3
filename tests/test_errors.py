"""Every count, point and real bound a caller passes goes through the
shared validators of ``hurzeta.errors``: ``check_k`` for integer counts and
orders, ``check_finite`` for points and ``check_real`` for real numbers of
an open interval.  A count that is not an integer of its range, a point
that is not a finite number or a real that is not a number of its
interval is a :class:`DomainError`, never a bare ``TypeError``/
``ValueError``, a silently truncated count or a NaN result; an
integer-valued float or a numpy integer counts as the int it equals."""

import math

import numpy as np
import pytest

from hurzeta import (
    DomainError,
    QuadratureSpec,
    RangeOverflowError,
    bernoulli,
    endpoint_residual,
    eulerian_row,
    genfun_closed,
    hp_partial_sum,
    hurwitz_series_oracle,
    imag_part_integral,
    integrate_cot_weighted,
    integrate_open,
    integrate_oscillatory,
    log_asymptotic_scan,
    polylog_nonpos,
    polylog_nonpos_orders,
    hurwitz_zeta,
    real_part_formula,
    theorem1_scan,
    zeta_auto,
    zeta_from_genfun,
)
from hurzeta.errors import check_finite, check_real


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
    "polylog_nonpos_orders(3, nan)": lambda: polylog_nonpos_orders(3, math.nan),
    "polylog_nonpos_orders(3, inf)": lambda: polylog_nonpos_orders(3, math.inf),
    "hp_partial_sum(2, nan, 10)": lambda: hp_partial_sum(2, math.nan, 10),
    "hp_partial_sum(2, inf, 10)": lambda: hp_partial_sum(2, math.inf, 10),
    "log_asymptotic_scan(inf, [10, 100])": lambda: log_asymptotic_scan(math.inf, [10, 100]),
    "log_asymptotic_scan(nan, [10, 100])": lambda: log_asymptotic_scan(math.nan, [10, 100]),
    # not numbers at all: once a bare TypeError or ValueError
    "check_finite('abc', 'b')": lambda: check_finite("abc", "b"),
    "hp_partial_sum(2, 'x', 3)": lambda: hp_partial_sum(2, "x", 3),
    "zeta_auto(3, None)": lambda: zeta_auto(3, None),
    # zeta_auto checks k and b before it routes: none of these reaches the
    # series fallback
    "zeta_auto(1, 0.5)": lambda: zeta_auto(1, 0.5),
    "zeta_auto(3, nan)": lambda: zeta_auto(3, math.nan),
    "zeta_auto(3, 'abc')": lambda: zeta_auto(3, "abc"),
    # the closed form and its endpoint residual check k and b as zeta_auto does
    "hurwitz_zeta(3, 'x')": lambda: hurwitz_zeta(3, "x"),
    "hurwitz_zeta(3, -2.0)": lambda: hurwitz_zeta(3, -2.0),
    "endpoint_residual(2.5, 0.3)": lambda: endpoint_residual(2.5, 0.3),
    "endpoint_residual(3, nan)": lambda: endpoint_residual(3, math.nan),
    "real_part_formula(3, 'x')": lambda: real_part_formula(3, "x"),
    "real_part_formula(3, None)": lambda: real_part_formula(3, None),
    "imag_part_integral(3, 'x')": lambda: imag_part_integral(3, "x"),
    "imag_part_integral(3, None)": lambda: imag_part_integral(3, None),
    "hurwitz_series_oracle(3, 0.5, tol='x')": lambda: hurwitz_series_oracle(3, 0.5, tol="x"),
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
}


@pytest.mark.parametrize("call", sorted(DOMAIN_ERROR_CALLS))
def test_bad_count_or_point_is_a_domain_error(call):
    with pytest.raises(DomainError):
        DOMAIN_ERROR_CALLS[call]()


def test_integer_valued_counts_are_the_int():
    assert bernoulli(4.0) == bernoulli(4)
    assert hp_partial_sum(np.int64(2), 0.5, 3.0) == hp_partial_sum(2, 0.5, 3)
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


# Finite inputs whose intermediate values leave double range: a
# RangeOverflowError, never a bare OverflowError.
RANGE_OVERFLOW_CALLS = {
    # cmath.sin(2*pi*b) in the recovery's set-up: once a bare OverflowError
    "zeta_from_genfun(2, 0.7+120j, 50.0, 32)": lambda: zeta_from_genfun(2, 0.7 + 120j, 50.0, 32),
    # numpy's sines of the circle nodes' large imaginary parts: once an
    # overflow RuntimeWarning, then a DomainError about a NaN scale_hint
    "zeta_from_genfun(2, 200.3, 150.0, 32)": lambda: zeta_from_genfun(2, 200.3, 150.0, 32),
    "genfun_closed(0.3, 0.7+120j)": lambda: genfun_closed(0.3, 0.7 + 120j),
}


@pytest.mark.parametrize("call", sorted(RANGE_OVERFLOW_CALLS))
def test_past_double_range_is_a_range_overflow(call):
    with pytest.raises(RangeOverflowError, match="double range"):
        RANGE_OVERFLOW_CALLS[call]()
