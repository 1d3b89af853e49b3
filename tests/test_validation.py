"""Convergence scans: rates, verdicts, and the report container."""

import math

import numpy as np
import pytest

from hurzeta import (
    ConvergenceReport,
    fit_rate,
    hp_limit_scan,
    log_asymptotic_scan,
    theorem1_scan,
    zero_integral_scan,
)
from hurzeta import kernels
from hurzeta.errors import DomainError


class TestFitRate:
    def test_exact_power_law(self):
        n = np.array([10, 100, 1000, 10000])
        dev = 3.7 / n
        assert fit_rate(n, dev) == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_decay(self):
        n = np.array([10, 100, 1000])
        dev = 0.5 / n**2
        assert fit_rate(n, dev) == pytest.approx(2.0, abs=1e-12)

    def test_floor_masks_noise_points(self):
        n = np.array([10, 100, 1000, 10000, 100000])
        dev = np.array([1e-2, 1e-3, 1e-4, 1e-15, 1e-15])  # last two at floor
        r = fit_rate(n, dev, floor=1e-12)
        assert r == pytest.approx(1.0, abs=1e-6)

    def test_too_few_points_is_nan(self):
        assert math.isnan(fit_rate(np.array([10, 100]), np.array([1e-2, 1e-3]),
                                   floor=1e-4))


class TestConvergenceReport:
    def test_rejects_unsorted_n(self):
        with pytest.raises((ValueError, DomainError)):
            ConvergenceReport(
                parameter="x", n_values=(100, 10), observed=(1.0, 1.0),
                target=1.0, deviations=(0.1, 0.1), fitted_rate=1.0,
                verdict="pass",
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises((ValueError, DomainError)):
            ConvergenceReport(
                parameter="x", n_values=(10, 100), observed=(1.0,),
                target=1.0, deviations=(0.1, 0.1), fitted_rate=1.0,
                verdict="pass",
            )


class TestTheorem1:
    def test_k0_is_exact_for_every_n(self):
        # the k=0 integrand is a pure Dirichlet kernel: the integral equals
        # the target identically and only quadrature noise remains
        rep = theorem1_scan(0, (10, 100, 1000))
        assert rep.verdict == "pass"
        assert rep.target == pytest.approx(1.0)
        assert max(rep.deviations) < 1e-10

    def test_k1_exactness(self):
        rep = theorem1_scan(1, (10, 100))
        assert rep.verdict == "pass"
        assert rep.target == pytest.approx(0.5)

    def test_k3_decays_at_first_order(self):
        rep = theorem1_scan(3, (100, 1000, 10000))
        assert rep.verdict == "pass"
        assert 0.8 <= rep.fitted_rate <= 1.2

    def test_zero_integral_scan(self):
        rep = zero_integral_scan((10, 30, 100))
        assert rep.verdict == "pass"
        assert max(rep.deviations) <= 1e-8


class TestLogAsymptotic:
    def test_decade_improvement(self):
        rep = log_asymptotic_scan(3, (10, 100, 1000))
        assert rep.verdict == "pass"
        # residual after removing (gamma + log n)/pi must shrink by >= 2x
        # per decade towards the cot-weighted moment integral
        assert rep.deviations[1] <= rep.deviations[0] / 2
        assert rep.deviations[2] <= rep.deviations[1] / 2

    def test_target_is_cot_moment(self):
        # for k=3 the limit is -integral (u**3 - u) cot(pi u) du
        # = -12 zeta(3) / (2 pi)**3
        rep = log_asymptotic_scan(3, (10, 100))
        zeta3 = 1.2020569031595943
        assert rep.target == pytest.approx(-12 * zeta3 / (2 * math.pi) ** 3,
                                           rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_asymptotic_scan(-1.0, (10, 100))
        with pytest.raises(DomainError):
            log_asymptotic_scan(2, (2, 5))  # n too small


class TestHpLimit:
    def test_partial_sums_approach_zeta_minus_leading(self):
        rep = hp_limit_scan(3, 1.25, (10, 100, 1000))
        assert rep.verdict == "pass"
        # H_{k,n}(b) - b**-k converges at rate n**-(k-1)
        assert abs(rep.fitted_rate - 2.0) <= 0.3

    def test_complex_parameter(self):
        rep = hp_limit_scan(2, 1.0 + 0.5j, (10, 100, 1000))
        assert rep.verdict == "pass"

    def test_integer_b_uses_real_decomposition(self):
        rep = hp_limit_scan(2, 2.0, (10, 100, 1000))
        assert rep.verdict == "pass"

    def test_domain(self):
        with pytest.raises(DomainError):
            hp_limit_scan(1, 1.0, (10, 100))


class TestScanFailures:
    def test_programming_error_propagates(self, monkeypatch):
        def broken(u, k, n):
            raise TypeError("broken kernel")

        monkeypatch.setattr(kernels, "pow_sin_cot", broken)
        with pytest.raises(TypeError, match="broken kernel"):
            theorem1_scan(3, [10, 100, 1000])

    def test_non_finite_kernel_records_nan_and_a_note(self, monkeypatch):
        monkeypatch.setattr(kernels, "one_minus_cos_cot",
                            lambda u, n: np.full(np.shape(u), np.nan))
        rep = zero_integral_scan([1, 17])
        assert all(math.isnan(o) for o in rep.observed)
        assert len(rep.notes) == 2
        assert "EvaluationError" in rep.notes[0]
        assert rep.verdict == "fail"
