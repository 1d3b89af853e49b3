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
from hurzeta import cli, kernels, quadrature, validation
from hurzeta.errors import DomainError
from hurzeta.quadrature import QuadratureSpec


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

    def test_one_repeated_n_is_nan(self):
        assert math.isnan(fit_rate([10, 10, 10], [1e-2, 1e-3, 1e-4]))


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


def _same_reports(got, want):
    # repr shows every field, floats to the last bit and nan as nan
    assert [repr(r) for r in got] == [repr(r) for r in want]


class TestFamilyScans:
    # at each n every order is a row of one quadrature call, and each row
    # gets the report a scan of its order alone gets
    def test_theorem1_orders_are_lone_scans(self):
        _same_reports(theorem1_scan((0, 1, 3), cli.SCAN_NS),
                      [theorem1_scan(k, cli.SCAN_NS) for k in (0, 1, 3)])

    def test_log_asymptotic_orders_are_lone_scans(self):
        _same_reports(log_asymptotic_scan((2, 3), cli.SCAN_NS),
                      [log_asymptotic_scan(k, cli.SCAN_NS) for k in (2, 3)])

    def test_squared_and_root_orders_too(self):
        # numpy squares for a scalar 2 and takes sqrt for 0.5
        ns = (10, 17, 100)
        _same_reports(theorem1_scan([2, 3, 2, 4], ns),
                      [theorem1_scan(k, ns) for k in (2, 3, 2, 4)])
        _same_reports(log_asymptotic_scan(np.array([0.5, 2.0, 3.5]), ns),
                      [log_asymptotic_scan(k, ns) for k in (0.5, 2.0, 3.5)])

    def test_one_order_is_a_report_and_a_sequence_a_list(self):
        assert isinstance(theorem1_scan(3, (10, 100)), ConvergenceReport)
        assert isinstance(theorem1_scan([3], (10, 100)), list)
        assert isinstance(log_asymptotic_scan((3,), (10, 100)), list)

    @pytest.mark.parametrize("orders", [(), (0, -1), (1, 2.5)])
    def test_bad_orders_are_domain_errors(self, orders):
        with pytest.raises(DomainError):
            theorem1_scan(orders, (10, 100))

    def test_non_finite_row_fails_that_n_for_every_order(self, monkeypatch):
        real = kernels.pow_sin_cot

        def broken(u, p, n):
            out = real(u, p, n)
            return np.where(p == 1.0, np.nan, out) if n == 17 else out

        monkeypatch.setattr(kernels, "pow_sin_cot", broken)
        for rep in theorem1_scan((0, 1, 3), [10, 17, 100]):
            assert math.isnan(rep.observed[1])
            assert not math.isnan(rep.observed[0]) and not math.isnan(rep.observed[2])
            assert [n[:30] for n in rep.notes if n.startswith("n=17")] == [
                "n=17, k=1: EvaluationError: in"]
            assert rep.verdict == "fail"


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
        # one order is no family: the note names no order and no family row
        assert rep.notes[0].startswith("n=1: EvaluationError: ")
        assert "family row" not in rep.notes[0]
        assert rep.verdict == "fail"


def test_validate_scans_stay_within_their_evaluation_budget(monkeypatch):
    # from half-period first panels the theorem-1, zero-integral and
    # log-asymptotic suites of ``validate`` make 1,673,880 evaluations
    # (quarter-period panels made 3,337,080), in one family call per suite
    # and n; no integrand call gets more than _BLOCK abscissae, which keeps
    # a kernel's temporaries small enough to be reused, not faulted in
    counts, sizes = [], []
    real = validation.integrate_oscillatory

    def counted(f, n, spec, family=None):
        def sized(u, *rows):
            sizes.append(u.size)
            return f(u, *rows)

        res = real(sized, n, spec, family=family)
        counts.append(res.evaluations)
        return res

    monkeypatch.setattr(validation, "integrate_oscillatory", counted)
    for suite in ("theorem1", "zero-integral", "log-asymptotic"):
        records = cli.SUITE_RUNNERS[suite](QuadratureSpec(), cli.DEFAULT_SEED)
        assert all(r["verdict"] == "pass" for r in records), suite
    assert len(counts) == 9
    assert sum(counts) == 1_673_880
    assert max(sizes) <= quadrature._BLOCK
