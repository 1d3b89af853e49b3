"""Adaptive quadrature: known values, error honesty, failure modes."""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hurzeta import genfun, hurwitz, kernels, quadrature
from hurzeta.errors import DivergenceError, DomainError, EvaluationError
from hurzeta.quadrature import (
    QuadratureResult,
    QuadratureSpec,
    integrate_cot_weighted,
    integrate_open,
    integrate_oscillatory,
)
from hurzeta.validation import N_CAP


class TestIntegrateOpen:
    def test_polynomial(self):
        r = integrate_open(lambda u: u * u)
        assert r.converged
        assert r.value.real == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_sin_squared(self):
        r = integrate_open(lambda u: np.sin(2 * np.pi * u) ** 2)
        assert r.value.real == pytest.approx(0.5, abs=1e-13)

    def test_error_estimate_is_honest(self):
        # a moderately oscillatory integrand with a known value:
        # integral_0^1 sin(20u) du = (1 - cos 20)/20
        r = integrate_open(lambda u: np.sin(20 * u))
        exact = (1 - math.cos(20.0)) / 20.0
        assert abs(r.value.real - exact) <= max(10 * r.error_estimate, 1e-14)

    def test_budget_exhaustion_reports_not_raises(self):
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-18, max_subdivisions=3)
        r = integrate_open(lambda u: np.sin(50 * u) * np.exp(u), spec)
        assert not r.converged
        assert any("budget" in w for w in r.warnings)
        # the value must still be in the right neighbourhood
        exact = (math.sin(50) - 50 * math.cos(50)) / 2501 * math.e - (-50) / 2501
        assert r.value.real == pytest.approx(exact, rel=1e-4)

    def test_nonfinite_integrand_is_typed(self):
        with pytest.raises(EvaluationError):
            integrate_open(lambda u: u * np.nan)

    def test_shape_misuse_is_callers_fault(self):
        with pytest.raises(ValueError):
            integrate_open(lambda u: 1.0)  # scalar, not one value per node

    def test_panel_count_must_be_positive(self):
        with pytest.raises(DomainError):
            integrate_open(lambda u: u, initial_panels=0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=-1)

    @pytest.mark.parametrize("knob", [{"rel_tol": math.nan}, {"abs_tol": math.nan},
                                      {"rel_tol": math.inf}, {"abs_tol": math.inf}])
    def test_non_finite_tolerance_is_a_domain_error(self, knob):
        # a NaN tolerance once passed validation and made refinement loop forever
        with pytest.raises(DomainError):
            QuadratureSpec(**knob)

    def test_row_that_cannot_split_stops_unconverged(self):
        # values near the top of the double range overflow the K15 and G7
        # sums, so the estimate is NaN and no panel qualifies for a split
        sizes = []

        def f(u):
            sizes.append(u.size)
            return np.full_like(u, 1.7e308)

        with np.errstate(over="ignore", invalid="ignore"):
            r = integrate_open(f)
        assert sizes == [8 * 15]  # the stuck pass makes no empty call
        assert not r.converged
        assert r.evaluations == 8 * 15
        assert "no panel can be split further" in r.warnings[0]


class TestCotWeighted:
    # integral_0^1 sin(2 pi n u) cot(pi u) du = 1 for every n >= 1
    # (the integrand telescopes into a Dirichlet kernel), which gives an
    # exact family of nontrivial test values.

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_dirichlet_family(self, n):
        r = integrate_cot_weighted(lambda u: np.sin(2 * np.pi * n * u))
        assert r.converged
        assert r.value.real == pytest.approx(1.0, abs=1e-12)
        assert abs(r.value.imag) < 1e-13

    @given(
        a=st.floats(-2, 2), b=st.floats(-2, 2), c=st.floats(-2, 2)
    )
    @settings(max_examples=25, deadline=None)
    # a subnormal scale once underflowed the interior abs_tol to 0
    @example(a=0.0, b=0.0, c=5e-324)
    def test_linearity_property(self, a, b, c):
        def g(u):
            return (a * np.sin(2 * np.pi * u) + b * np.sin(4 * np.pi * u)
                    + c * np.sin(6 * np.pi * u))

        r = integrate_cot_weighted(g)
        assert r.value.real == pytest.approx(a + b + c, abs=1e-10)

    def test_endpoint_violation_diverges(self):
        # g(1) = 1 != 0 rides the cot pole
        with pytest.raises(DivergenceError):
            integrate_cot_weighted(lambda u: u)

    def test_zero_integrand(self):
        r = integrate_cot_weighted(lambda u: np.zeros_like(u))
        assert r.value == 0

    def test_scale_hint_relaxes_endpoint_check(self):
        # a kernel whose endpoint values are tiny-but-nonzero relative to a
        # large declared working scale must be accepted...
        noise = 1e-9

        def g(u):
            return np.sin(2 * np.pi * u) + noise

        r = integrate_cot_weighted(g, scale_hint=1e8)
        assert r.converged
        # ...and rejected when the declared scale is O(1)
        with pytest.raises(DivergenceError):
            integrate_cot_weighted(g, scale_hint=1.0)

    def test_overflowing_total_is_not_converged(self):
        # every value of g is finite, but the first-pass sums overflow; the
        # margin strips are added after the interior has been judged
        with np.errstate(over="ignore", invalid="ignore"):
            r = integrate_cot_weighted(lambda u: 1e308 * np.sin(np.pi * u))
        assert not math.isfinite(abs(r.value)) or not math.isfinite(r.error_estimate)
        assert r.converged is False
        assert "total overflowed" in r.warnings[0]

    def test_non_finite_scale_hint_is_a_domain_error(self):
        with pytest.raises(DomainError):
            integrate_cot_weighted(lambda u: np.sin(2 * np.pi * u), scale_hint=math.nan)
        with pytest.raises(DomainError):
            integrate_cot_weighted(lambda u, rows: np.sin(2 * np.pi * u), family=2,
                                   scale_hint=np.array([1.0, math.inf]))

    @pytest.mark.parametrize("family", [-2, 0, 2.5, "2"])
    def test_malformed_family_is_a_domain_error(self, family):
        # refused, not run as an empty "converged" family or truncated to 2 rows
        with pytest.raises(DomainError, match="family"):
            integrate_cot_weighted(lambda u, rows: np.sin(2 * np.pi * u) + 0 * rows,
                                   family=family)

    @pytest.mark.parametrize("family, hint", [
        (None, np.ones(2)), (2, np.ones(3)), (2, np.ones((2, 1))), (2, np.ones((1, 2))),
    ])
    def test_scale_hint_of_another_shape_is_a_domain_error(self, family, hint):
        # a hint is one value, or one value per row; any other shape is
        # refused, not broadcast against the rows
        if family is None:
            def g(u):
                return np.sin(2 * np.pi * u)
        else:
            def g(u, rows):
                return np.sin(2 * np.pi * u) + 0 * rows
        with pytest.raises(DomainError, match="scale_hint"):
            integrate_cot_weighted(g, scale_hint=hint, family=family)

    def test_converged_single_row_is_one_call_of_the_first_pass(self):
        # a single integrand is a family of one: one call, on the 189
        # first-pass abscissae, and nothing more when that pass converges
        calls = []

        def g(u):
            calls.append(u.copy())
            return np.sin(2 * np.pi * u)

        r = integrate_cot_weighted(g)
        assert r.converged and r.evaluations == 189
        assert len(calls) == 1
        assert np.array_equal(calls[0], quadrature._cot_layout().u.ravel())


class TestOscillatory:
    @pytest.mark.parametrize("n", [3, 10, 100])
    def test_linear_times_sine(self, n):
        # integral_0^1 u sin(2 pi n u) du = -1/(2 pi n)
        r = integrate_oscillatory(lambda u: u * np.sin(2 * np.pi * n * u), n)
        assert r.value.real == pytest.approx(-1.0 / (2 * math.pi * n), rel=1e-10)

    def test_frequency_validation(self):
        with pytest.raises(DomainError):
            integrate_oscillatory(lambda u: u, 0)

    def test_first_mesh_is_two_panels_per_period(self):
        # 2n panels, half a period each: 98 panels at n = 49
        sizes = []

        def f(u):
            sizes.append(u.size)
            return np.sin(2 * np.pi * 49 * u)

        r = integrate_oscillatory(f, 49, QuadratureSpec(max_subdivisions=0))
        assert r.evaluations == sum(sizes) == 2 * 49 * 15 == 1470
        assert integrate_oscillatory(lambda u: u, 1).evaluations == 2 * 15

    def test_high_frequency_stays_resolved(self):
        # with half-period panels the quadrature must not alias even at
        # n = 10**4; the integral of sin(2 pi n u) alone is exactly 0
        n = 10_000
        r = integrate_oscillatory(lambda u: np.sin(2 * np.pi * n * u), n)
        assert abs(r.value) < 1e-12


class TestFamily:
    # rows n = 1..5 of sin(2 pi n u) * amp, whose cotangent integrals are
    # amp (the Dirichlet family above); ``refine`` needs refinement at a
    # tight tolerance
    N = np.array([1, 2, 3, 5, 8])
    AMP = np.array([1.0, -0.5 + 0.25j, 2.0, 1e-3, 3.0 - 1.0j])

    FIRST = 33 + 6 + 10 * 15  # first-pass evaluations of every row

    @staticmethod
    def refine(u):
        return u * (1 - u) * np.cos(40 * u) * np.exp(3 * u)

    def dirichlet(self, u, rows):
        return self.AMP[rows] * np.sin(2 * np.pi * self.N[rows] * u)

    def test_cot_family_matches_separate_calls(self):
        fam = integrate_cot_weighted(self.dirichlet, family=len(self.N))
        assert fam.value.shape == (len(self.N),)
        for m, (n, amp) in enumerate(zip(self.N, self.AMP)):
            one = integrate_cot_weighted(
                lambda u, n=n, amp=amp: amp * np.sin(2 * np.pi * n * u))
            assert abs(fam.value[m] - one.value) <= max(fam.error_estimate[m], 1e-15)
            assert abs(fam.value[m] - amp) <= 1e-12 * abs(amp)
            assert fam.row_evaluations[m] == one.evaluations
        assert fam.evaluations == fam.row_evaluations.sum()
        assert fam.converged is True

    def test_converged_rows_keep_first_mesh_count(self):
        spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15)

        def family(u, rows):
            # row 0 converges on the first pass; row 1 refines
            return np.where(rows == 0, np.sin(2 * np.pi * u), self.refine(u))

        fam = integrate_cot_weighted(family, spec, family=2)
        assert fam.row_evaluations[0] == self.FIRST
        assert fam.row_evaluations[1] > self.FIRST
        assert fam.row_converged.all()

    def test_many_refining_rows_match_lone_calls(self):
        # every row refines, so each pass sums many rows' panels at once;
        # each row still gets what its lone call gets, up to the rounding
        # of the fused first pass
        freq = 32.0 + 3.0 * np.arange(24)
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-15)
        fam = integrate_cot_weighted(
            lambda u, rows: u * (1 - u) * np.cos(freq[rows] * u) * np.exp(u),
            spec, family=freq.size)
        assert np.count_nonzero(fam.row_evaluations > self.FIRST) >= 20
        assert fam.converged
        for m, c in enumerate(freq):
            one = integrate_cot_weighted(
                lambda u, c=c: u * (1 - u) * np.cos(c * u) * np.exp(u), spec)
            assert fam.row_evaluations[m] == one.evaluations
            assert abs(fam.value[m] - one.value) <= 1e-15 * abs(one.value)
            assert abs(fam.error_estimate[m] - one.error_estimate) <= 1e-15 * abs(one.value)

    def test_row_that_cannot_split_stops_without_a_further_call(self):
        # in the refinement pass, row 1's values near the top of the double
        # range overflow the K15 and G7 sums, so its estimate is NaN and no
        # panel qualifies for a further split
        spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15)
        calls = []

        def family(u, rows):
            calls.append(u.shape)
            row1 = 1.7e308 * np.sin(np.pi * u) if len(calls) > 1 else self.refine(u)
            return np.where(rows == 1, row1, np.sin(2 * np.pi * u))

        with np.errstate(over="ignore", invalid="ignore"):
            fam = integrate_cot_weighted(family, spec, family=3)
        assert len(calls) == 2  # the first pass and one refinement pass
        assert fam.row_converged.tolist() == [True, False, True]
        assert fam.row_evaluations[[0, 2]].tolist() == [self.FIRST] * 2
        assert fam.row_evaluations[1] == self.FIRST + 15 * calls[1][0]
        assert np.isnan(fam.error_estimate[1])
        assert "no panel can be split further" in fam.row_warnings[1][0]

    def test_overflowing_row_is_not_converged(self):
        # row 0's sums overflow; row 1 is the Dirichlet row and converges
        def family(u, rows):
            return np.where(rows == 0, 1e308, 1.0) * np.sin(np.pi * (rows + 1) * u)

        with np.errstate(over="ignore", invalid="ignore"):
            fam = integrate_cot_weighted(family, family=2)
        assert fam.row_converged.tolist() == [False, True]
        assert fam.converged is False
        assert "total overflowed" in fam.row_warnings[0][0]
        assert fam.row_warnings[1] == []
        assert fam.value[1] == pytest.approx(1.0, abs=1e-12)

    def test_nonfinite_row_raises_for_that_row(self):
        def family(u, rows):
            return np.where(rows == 2, np.nan, u) * np.sin(2 * np.pi * u)

        with pytest.raises(EvaluationError) as info:
            integrate_cot_weighted(family, family=4)
        assert info.value.row == 2
        assert "family row 2" in str(info.value)

        # a non-finite value in a refinement pass names its family row too;
        # row 0 converges on the first pass, so rows 1 and 2 refine
        spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15)
        calls = []

        def later(u, rows):
            calls.append(u.shape)
            bad = (rows == 2) & (len(calls) > 1)
            g = np.where(rows == 0, np.sin(2 * np.pi * u), self.refine(u))
            return np.where(bad, np.inf, 1.0) * g

        with pytest.raises(EvaluationError) as info:
            integrate_cot_weighted(later, spec, family=3)
        assert len(calls) == 2
        assert info.value.row == 2
        assert "family row 2" in str(info.value)

    def test_nonvanishing_endpoint_row_diverges(self):
        def family(u, rows):
            # row 1 is the constant-offset sine, which does not vanish at 0
            return np.sin(2 * np.pi * u) + (rows == 1) * 0.5

        with pytest.raises(DivergenceError, match="family row 1"):
            integrate_cot_weighted(family, family=3)

    def test_budget_is_per_row(self):
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-18, max_subdivisions=3)

        def family(u, rows):
            return np.where(rows == 0, np.sin(2 * np.pi * u), self.refine(u))

        fam = integrate_cot_weighted(family, spec, family=2)
        assert fam.row_converged.tolist() == [True, False]
        assert fam.converged is False
        assert fam.row_warnings[0] == []
        assert "budget (3)" in fam.row_warnings[1][0]
        assert fam.warnings == ["row 1: " + fam.row_warnings[1][0]]
        # a lone call of row 1 spends the same budget to the same value
        one = integrate_cot_weighted(self.refine, spec)
        assert fam.row_evaluations[1] == one.evaluations
        assert one.warnings[0].startswith("subdivision budget (3) exhausted")
        assert abs(fam.value[1] - one.value) <= one.error_estimate

    def test_identical_calls_agree_bitwise(self):
        spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15)

        def family(u, rows):
            return u * (1 - u) * np.cos((10 + 7 * rows) * u) * np.exp(rows * u)

        a = integrate_cot_weighted(family, spec, family=6)
        b = integrate_cot_weighted(family, spec, family=6)
        assert np.array_equal(a.value, b.value)
        assert np.array_equal(a.error_estimate, b.error_estimate)
        assert np.array_equal(a.row_evaluations, b.row_evaluations)


class TestBlockedPasses:
    # integrate_open's first pass and every refinement pass hand the
    # integrand at most 2**12 values (rows times abscissae) per call,
    # whatever the mesh
    BLOCK = 2**12

    def recorded(self, n, spec=None):
        sizes = []

        def f(u):
            sizes.append(u.size)
            return kernels.pow_sin_cot(u, 3.0, n)

        return integrate_oscillatory(f, n, spec), sizes

    def test_scan_at_the_cap_is_blocked(self):
        r, sizes = self.recorded(N_CAP)
        assert r.converged
        assert r.evaluations == 300_000 == sum(sizes)
        assert len(sizes) > 1 and max(sizes) <= self.BLOCK

    def test_refinement_pass_is_blocked(self):
        # a tight target splits 5000 of the 20000 first-pass panels in one
        # pass: 150000 values after the first 300000
        spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=5000)
        r, sizes = self.recorded(N_CAP, spec)
        assert r.evaluations == 450_000 == sum(sizes)
        first = int(np.searchsorted(np.cumsum(sizes), 300_000)) + 1
        assert sum(sizes[:first]) == 300_000 and sum(sizes[first:]) == 150_000
        assert len(sizes) - first > 1
        assert "budget (5000)" in r.warnings[0]
        assert max(sizes) <= self.BLOCK

    def test_blocks_match_a_one_shot_reference(self):
        # no subdivision budget: the result is the first pass alone
        n = N_CAP
        r = integrate_oscillatory(lambda u: kernels.pow_sin_cot(u, 3.0, n), n,
                                  QuadratureSpec(max_subdivisions=0))
        edges = np.linspace(0.0, 1.0, r.evaluations // 15 + 1)
        half = 0.5 * np.diff(edges)[:, None]
        fv = kernels.pow_sin_cot(edges[:-1, None] + half * (quadrature._XK + 1.0), 3.0, n)
        kron = half[:, 0] * np.sum(quadrature._WK * fv, axis=1)
        gauss = half[:, 0] * np.sum(quadrature._WG * fv[:, quadrature._GAUSS_IDX], axis=1)
        ulps = 8 * np.finfo(float).eps * np.sum(half * np.abs(quadrature._WK * fv))
        assert abs(r.value - kron.sum()) <= ulps
        assert abs(r.error_estimate - np.abs(kron - gauss).sum()) <= ulps

    def test_family_across_blocks_matches_lone_calls(self):
        # rows 0 and 2 of this cotangent family refine to thousands of
        # panels, so their later passes take several calls; each row still
        # spends what a lone call spends, to the same value
        funcs = [lambda u: u * (1 - u) * np.cos(4000 * u),
                 lambda u: np.sin(2 * np.pi * u),
                 lambda u: u * (1 - u) * np.cos(3000 * u) * np.exp(u)]
        sizes = []

        def family(u, rows):
            sizes.append(math.prod(np.broadcast_shapes(u.shape, rows.shape)))
            return np.choose(rows, [np.broadcast_to(fn(u), u.shape) for fn in funcs])

        spec = QuadratureSpec(max_subdivisions=3000)
        fam = integrate_cot_weighted(family, spec, family=3)
        assert fam.converged
        assert sum(sizes) == fam.evaluations
        full = self.BLOCK // 15 * 15  # one block of whole panels
        assert max(sizes) == full and sizes.count(full) >= 2
        for m, fn in enumerate(funcs):
            one = integrate_cot_weighted(fn, spec)
            assert fam.row_evaluations[m] == one.evaluations
            assert abs(fam.value[m] - one.value) <= one.error_estimate
        assert fam.row_evaluations[1] == 33 + 6 + 10 * 15


class TestOpenFamily:
    # integrate_open and integrate_oscillatory take ``family=M`` as the
    # cotangent driver does: the first pass hands every call the abscissae
    # of at most 2**12 // 15 panels as one line shared by the M rows, and
    # each row's values are reduced as a lone run reduces them
    BLOCK = 2**12
    ORDERS = np.array([0.0, 1.0, 2.0, 3.0])

    @staticmethod
    def same(fam, m, one):
        return (fam.value[m] == one.value.real
                and fam.error_estimate[m] == one.error_estimate
                and fam.row_evaluations[m] == one.evaluations
                and fam.row_converged[m] == one.converged)

    @pytest.mark.parametrize("n", [1, 3, 100, 1000, N_CAP])
    def test_scan_rows_are_lone_scans_bitwise(self, n):
        # every scan integral converges on its half-period first mesh, so
        # the whole result is the shared first pass
        sizes = []

        def family(u, rows):
            sizes.append(u.size)
            return kernels.pow_sin_cot(u, self.ORDERS[rows], n)

        fam = integrate_oscillatory(family, n, family=len(self.ORDERS))
        assert fam.converged and fam.value.shape == (len(self.ORDERS),)
        for m, p in enumerate(self.ORDERS):
            one = integrate_oscillatory(lambda u: kernels.pow_sin_cot(u, p, n), n)
            assert self.same(fam, m, one), p
        assert max(sizes) <= self.BLOCK
        assert sum(sizes) == fam.evaluations // len(self.ORDERS)

    def test_first_pass_rows_are_lone_runs_bitwise(self):
        # with no subdivision budget a result is its first pass alone,
        # here of complex rows and a mesh of several blocks
        funcs = [lambda u: np.exp(3j * u), lambda u: np.log(u) + 0j,
                 lambda u: 1.0 / (1e-3 + (u - 0.3) ** 2) + 0j]
        spec = QuadratureSpec(max_subdivisions=0)

        def family(u, rows):
            return np.choose(rows, [np.broadcast_to(fn(u), np.broadcast_shapes(
                u.shape, rows.shape)) for fn in funcs])

        fam = integrate_open(family, spec, initial_panels=700, family=3)
        for m, fn in enumerate(funcs):
            one = integrate_open(fn, spec, initial_panels=700)
            assert fam.value[m] == one.value and fam.error_estimate[m] == one.error_estimate
            assert fam.row_evaluations[m] == one.evaluations == 700 * 15

    def test_refining_rows_spend_what_lone_runs_spend(self):
        # later passes give each line its own abscissae; a row refines the
        # panels a lone run refines, to the same value up to rounding
        funcs = [lambda u: np.cos(40 * u) * np.exp(u), lambda u: u**3,
                 lambda u: np.sqrt(u), lambda u: np.log(u)]

        def family(u, rows):
            return np.choose(rows, [np.broadcast_to(fn(u), np.broadcast_shapes(
                u.shape, rows.shape)) for fn in funcs])

        spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15)
        fam = integrate_open(family, spec, family=4)
        assert fam.row_evaluations[1] == 8 * 15 < fam.row_evaluations[3]
        for m, fn in enumerate(funcs):
            one = integrate_open(fn, spec)
            assert fam.row_evaluations[m] == one.evaluations
            assert fam.row_converged[m] == one.converged
            assert abs(fam.value[m] - one.value) <= 8 * np.finfo(float).eps * abs(one.value)
            assert fam.error_estimate[m] == pytest.approx(one.error_estimate, rel=1e-10)

    def test_calls_count_shared_abscissae_against_the_block(self):
        sizes = []

        def family(u, rows):
            sizes.append((u.shape, rows.shape[0]))
            return kernels.pow_sin_cot(u, self.ORDERS[rows], N_CAP)

        fam = integrate_oscillatory(family, N_CAP, family=4)
        # 20000 panels of 15 abscissae in blocks of 273 panels: 74 calls of
        # one shared line, each returning four rows
        assert len(sizes) == 74 and fam.evaluations == 4 * 300_000
        assert all(shape[0] == 1 and shape[1] <= self.BLOCK and rows == 4
                   for shape, rows in sizes)

    def test_block_that_turns_complex_keeps_its_imaginary_part(self):
        # np.emath.sqrt is real on the first two blocks of 273 panels and
        # complex on the third, past u = 0.95
        r = integrate_open(lambda u: np.emath.sqrt(0.95 - u), initial_panels=600)
        exact = 2 / 3 * 0.95**1.5 + 2j / 3 * 0.05**1.5
        assert abs(r.value - exact) <= 1e-9

    def test_single_integrand_is_a_family_of_one(self):
        f = lambda u: np.sin(7 * u) * np.exp(u)  # noqa: E731
        one = integrate_open(f)
        fam = integrate_open(lambda u, rows: f(u), family=1)
        assert fam.value.shape == (1,)
        assert self.same(fam, 0, one)

    def test_non_finite_row_is_named(self):
        def family(u, rows):
            return np.where(rows == 1, np.log(u - 0.5), u)

        with pytest.raises(EvaluationError, match=r"family row 1") as err:
            with np.errstate(invalid="ignore"):
                integrate_open(family, family=2)
        assert err.value.row == 1


def _row(fam, i):
    """Row ``i`` of a family result, as the result of that integrand alone."""
    return QuadratureResult(
        value=complex(fam.value[i]),
        error_estimate=float(fam.error_estimate[i]),
        evaluations=int(fam.row_evaluations[i]),
        converged=bool(fam.row_converged[i]),
        warnings=list(fam.row_warnings[i]),
    )


def _cot_first_pass_reference(g, m):
    """Value, error estimate and sum of |weight * g| of the cotangent
    driver's first pass, panel by panel: GK15 (with its embedded G7) on
    the interior panels of g(u) * cot(pi*u), and the least-squares line
    through each endpoint zero on the margin strips."""
    xk, wk, wg = quadrature._XK, quadrature._WK, quadrature._WG
    gauss = quadrature._GAUSS_IDX
    edges = np.concatenate(([m], np.linspace(0.1, 0.9, 9), [1.0 - m]))
    value, error, size = 0j, 0.0, 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        u = a + half * (xk + 1.0)
        fv = g(u) / np.tan(np.pi * u)
        kron, gl = half * np.sum(wk * fv), half * np.sum(wg * fv[gauss])
        value += kron
        error += abs(kron - gl)
        size += half * np.sum(np.abs(wk * fv))
    t = np.array([0.25 * m, 0.5 * m, 0.75 * m])
    for end, sign in ((0.0, 1.0), (1.0, -1.0)):
        gs = g(end + sign * t[::int(sign)])
        off = sign * t[::int(sign)]
        c = np.sum(gs * off) / np.sum(off**2)
        value += c * (m / math.pi - math.pi * m**3 / 9.0)
        resid = np.max(np.abs(gs - c * off) / np.abs(off))
        error += resid * m / math.pi + abs(c) * m**3
        size += np.sum(np.abs(gs * off)) / np.sum(off**2) * m / math.pi
    return value, error, size


class TestFusedFirstPass:
    # the first pass is one matrix product of the 189 first-pass values;
    # with no subdivision budget the result is that pass alone
    SPEC = QuadratureSpec(max_subdivisions=0)
    ROWS = [
        lambda u: np.sin(2 * np.pi * u),
        lambda u: (0.3 - 1.1j) * u * (1 - u) * np.exp(2 * u),
        lambda u: np.sin(6 * np.pi * u) * np.cos(5 * u),
        lambda u: 1e-7 * u**3 * (1 - u) ** 2,
        lambda u: (2 + 1j) * np.sin(np.pi * u) ** 2 * np.exp(-3j * u),
    ]

    def check(self, got, value, error, size):
        ulps = 8 * np.finfo(float).eps * size
        assert abs(got.value - value) <= ulps
        assert abs(got.error_estimate - error) <= ulps

    def test_single_row_matches_per_panel_reference(self):
        for g in self.ROWS:
            ref = _cot_first_pass_reference(g, quadrature.ENDPOINT_MARGIN)
            self.check(integrate_cot_weighted(g, self.SPEC), *ref)

    def test_family_rows_match_per_panel_reference(self):
        def family(u, rows):
            return np.choose(rows, [np.broadcast_to(g(u), u.shape) for g in self.ROWS])

        fam = integrate_cot_weighted(family, self.SPEC, family=len(self.ROWS))
        for r, g in enumerate(self.ROWS):
            self.check(_row(fam, r), *_cot_first_pass_reference(g, quadrature.ENDPOINT_MARGIN))
            assert fam.row_evaluations[r] == 33 + 6 + 10 * 15

    def test_gauss_nodes_are_gauss_legendre(self):
        x, w = np.polynomial.legendre.leggauss(7)
        assert np.allclose(quadrature._XK[quadrature._GAUSS_IDX], x, rtol=0, atol=1e-15)
        assert np.allclose(quadrature._WG, w, rtol=0, atol=1e-15)

    def test_refining_row_goes_on_from_the_fused_panels(self):
        spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15)
        rows = [lambda u: np.sin(2 * np.pi * u),
                lambda u: u * (1 - u) * np.cos(40 * u) * np.exp(3 * u),
                lambda u: np.sin(4 * np.pi * u) * (1 + 1j)]

        def family(u, r):
            return np.choose(r, [np.broadcast_to(g(u), u.shape).astype(complex)
                                 for g in rows])

        fam = integrate_cot_weighted(family, spec, family=3)
        first = 33 + 6 + 10 * 15
        assert fam.row_evaluations[1] > first
        for r, g in enumerate(rows):
            one = integrate_cot_weighted(g, spec)
            assert fam.row_evaluations[r] == one.evaluations
            assert abs(fam.value[r] - one.value) <= one.error_estimate

    def test_wrong_shape_still_rejected(self):
        with pytest.raises(ValueError):
            integrate_cot_weighted(lambda u, rows: np.sin(2 * np.pi * u[0]), family=2)
        with pytest.raises(ValueError):  # one line for two rows
            integrate_cot_weighted(lambda u, rows: np.sin(2 * np.pi * u), family=2)


def _exact(r):
    """The fields of a :class:`QuadratureResult` as something two results
    compare equal by only when each field has the same bits and type."""
    def one(x):
        if isinstance(x, np.ndarray):
            return x.dtype.str, x.shape, repr(x.tolist())
        return type(x).__name__, repr(x)
    return tuple((f.name, one(getattr(r, f.name))) for f in dataclasses.fields(r))


class TestLoneFirstPass:
    # A one-row family whose first pass converges is finished in Python
    # scalars; every result must be the general path's, field by field and
    # bit for bit, and so must every row that falls through to it.
    SPEC0 = QuadratureSpec(max_subdivisions=0)

    @staticmethod
    def outcomes(monkeypatch, work, general):
        """What ``work()`` gets from every ``integrate_cot_weighted`` call,
        through the scalar finish, or through the general path alone when
        ``general``; and how many rows the finish took."""
        took = []
        finish = quadrature._lone_first_pass

        def lone(*args):
            r = None if general else finish(*args)
            took.append(r is not None)
            return r

        seen = []

        def recorded(*args, **kw):
            try:
                r = quadrature.integrate_cot_weighted(*args, **kw)
            except Exception as exc:
                seen.append((type(exc).__name__, str(exc)))
                raise
            seen.append(_exact(r))
            return r

        with monkeypatch.context() as m:
            m.setattr(quadrature, "_lone_first_pass", lone)
            for module in (hurwitz, genfun):
                m.setattr(module, "integrate_cot_weighted", recorded)
            outputs = []
            for call in work:
                try:
                    outputs.append(repr(call()))
                except Exception as exc:
                    outputs.append(f"{type(exc).__name__}: {exc}")
        return seen, outputs, sum(took)

    def check(self, monkeypatch, work, lone_rows):
        fast, fast_out, took = self.outcomes(monkeypatch, work, general=False)
        slow, slow_out, _ = self.outcomes(monkeypatch, work, general=True)
        assert fast == slow
        assert fast_out == slow_out
        assert took >= lone_rows  # the finish did run

    def test_closed_form_cells_are_bitwise_the_general_path(self, monkeypatch):
        rng = random.Random(22)
        cells = [(k, complex(rng.uniform(0.05, 1.5 if k <= 4 else 0.4), rng.uniform(-1, 1)))
                 for k in range(2, 25) for _ in range(3)]
        # (4, 6.1-2.9i) refines past its first pass; (23, 0.49+0.09i) fails
        # its endpoint check
        cells += [(4, 6.1 - 2.9j), (23, 0.4909441357573397 + 0.08848688183090925j)]
        work = [lambda k=k, b=b: hurwitz.zeta_auto(k, b) for k, b in cells]
        work += [lambda k=k, b=b: hurwitz.imag_part_integral(k, b)
                 for k, b in ((2, 0.3), (7, 1.0), (16, 2.6))]
        self.check(monkeypatch, work, lone_rows=60)

    def test_genfun_points_are_bitwise_the_general_path(self, monkeypatch):
        # x, b on the generic, zero, positive and negative integer branches;
        # the last point refines past its first pass
        points = [(0.2 + 0.1j, 1.3 + 0.2j), (-0.31 + 0.05j, 2.77 - 0.4j),
                  (0.25 - 0.2j, 0j), (-0.15 + 0.3j, 0j),
                  (0.3 + 0.12j, 3 + 0j), (-0.2 - 0.35j, 1 + 0j),
                  (0.18 - 0.4j, -2 + 0j), (-0.4 + 0.1j, -7 + 0j)]
        work = [lambda x=x, b=b: genfun.genfun_closed(x, b) for x, b in points]
        self.check(monkeypatch, work, lone_rows=len(points) - 1)

    def test_real_integrands_are_bitwise_the_general_path(self, monkeypatch):
        work = [lambda j=j: genfun.odd_zeta_integral(j) for j in range(1, 11)]
        self.check(monkeypatch, work, lone_rows=10)

    def test_rows_the_finish_leaves_are_bitwise_the_general_path(self, monkeypatch):
        # an all-zero probe, a row that does not converge with no
        # subdivision budget, and a total that overflows: all go on to the
        # general path
        def zero(u):
            return np.zeros_like(u)

        def wavy(u):
            return np.sin(40 * np.pi * u) * (1.0 + 0.5j)

        def huge(u):
            return 1e308 * np.sin(np.pi * u)

        def run(g, spec=None, family=None):
            f = g if family is None else (lambda u, rows: g(u))
            with np.errstate(over="ignore", invalid="ignore"):
                return _exact(quadrature.integrate_cot_weighted(f, spec, family=family))

        work = [lambda g=g, s=s, fam=fam: run(g, s, fam)
                for g, s in ((zero, None), (wavy, self.SPEC0), (huge, None))
                for fam in (None, 1)]
        fast, slow = (self.outcomes(monkeypatch, work, general)[1] for general in (False, True))
        assert fast == slow
        assert "('converged', ('bool', 'False'))" in fast[2] and "total overflowed" in fast[4]

    def test_converged_lone_row_never_reaches_adapt(self, monkeypatch):
        def adapt(*args):
            raise AssertionError("_adapt reached")

        monkeypatch.setattr(quadrature, "_adapt", adapt)
        r = integrate_cot_weighted(lambda u: np.sin(2 * np.pi * u))
        assert r.converged and r.evaluations == 189 and r.value.real == pytest.approx(1.0)
        fam = integrate_cot_weighted(lambda u, rows: np.sin(2 * np.pi * u), family=1)
        assert _row(fam, 0) == r
        assert fam.value.shape == fam.error_estimate.shape == (1,)
        assert fam.row_evaluations.tolist() == [189] and fam.row_warnings == [[]]
        with pytest.raises(AssertionError, match="_adapt reached"):  # a family of two
            integrate_cot_weighted(lambda u, rows: np.sin(2 * np.pi * u) + 0 * rows, family=2)
