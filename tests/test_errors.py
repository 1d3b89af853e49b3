"""Every count and every point a caller passes goes through the shared
validators of ``hurzeta.errors``: ``check_k`` for integer counts and
orders, ``check_finite`` for points.  A count that is not an integer of
its range, or a NaN or infinite point, is a :class:`DomainError`, never a
bare ``TypeError``/``ValueError``, a silently truncated count or a NaN
result; an integer-valued float or a numpy integer counts as the int it
equals."""

import math

import numpy as np
import pytest

from hurzeta import (
    DomainError,
    QuadratureSpec,
    bernoulli,
    eulerian_row,
    harmonic_number,
    hp_partial_sum,
    integrate_open,
    integrate_oscillatory,
    log_asymptotic_scan,
    polylog_nonpos,
    polylog_nonpos_orders,
    sinh_kernel,
    sinh_kernel_series,
    sinh_series_depth,
)


def _f(u):
    return u * u


# Calls with a count that is not an integer of its range, or a point that
# is not finite.
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
