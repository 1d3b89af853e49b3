"""Generating function: branch closed forms, series, and the sinh identity."""

import cmath
import math

import numpy as np
import pytest

from _oracles import genfun_direct, hurwitz_direct, riemann_zeta
from hurzeta import (
    QuadratureSpec,
    classify_case,
    genfun_closed,
    genfun_parts_real_imag,
    genfun_series,
    odd_zeta_integral,
    radius_of_convergence,
    series_coefficient,
    sinh_kernel,
    sinh_kernel_series,
    sinh_series_depth,
    zeta_from_genfun,
)
from hurzeta import kernels
from hurzeta.errors import (
    CapacityError,
    DomainError,
    EvaluationError,
    IllConditionedError,
    InstabilityWarning,
    RangeOverflowError,
    UnsupportedParameterError,
)
from hurzeta.special_functions import BERNOULLI_MAX_INDEX


def _draw_generic(rng):
    """(x, b) in the generic branch, clear of every guard locus."""
    while True:
        b = complex(rng.uniform(0.15, 2.2), rng.uniform(-0.7, 0.7))
        r = radius_of_convergence(b)
        x = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.4, 0.4)) * 0.8 * r
        d2b = abs(2 * b - round((2 * b).real))
        xmb = x - b
        if (d2b > 1e-2 and abs(xmb) > 0.05
                and abs(xmb - round(xmb.real)) > 0.05
                and abs(2 * xmb - round((2 * xmb).real)) > 0.05
                and abs(x) < 0.85 * r):
            return x, b


class TestClassification:
    def test_tags(self):
        assert classify_case(0.3, 0.8 + 0.2j).tag == "generic"
        assert classify_case(0.3, 0.0).tag == "b_zero"
        assert classify_case(0.3, 2.0).tag == "b_pos_int"
        assert classify_case(0.3, -1.0).tag == "b_neg_int"
        assert classify_case(0.3, 0.5).tag == "half_int_unsupported"
        assert classify_case(0.3, -1.5).tag == "half_int_unsupported"

    def test_proximity_flags_are_distances(self):
        c = classify_case(0.25, 0.8)
        assert c.proximity_flags.x_minus_b == pytest.approx(0.55)
        assert c.proximity_flags.two_b_int == pytest.approx(0.4)

    def test_snapping_tolerance(self):
        assert classify_case(0.3, 2.0 + 1e-12).tag == "b_pos_int"
        assert classify_case(0.3, 2.0 + 1e-5).tag == "generic"


class TestClosedVsSeries:
    def test_generic_draws(self):
        rng = np.random.default_rng(777)
        for _ in range(8):
            x, b = _draw_generic(rng)
            ev = genfun_closed(x, b)
            s = genfun_series(x, b, 120)
            assert abs(ev.total - s.value) <= max(1e-8, 10 * s.tail_estimate)

    @pytest.mark.parametrize("b", [0.0, 1.0, 3.0, -1.0, -2.0])
    def test_integer_branches(self, b):
        rng = np.random.default_rng(int(1000 + b))
        r = radius_of_convergence(b)
        for _ in range(6):
            x = complex(rng.uniform(0.05, 0.6), rng.uniform(-0.3, 0.3)) * r
            if (abs(x - round(x.real)) < 0.05 and round(x.real) != 0) or \
               (abs(2 * x - round(2 * x.real)) < 0.05 and round(2 * x.real) != 0):
                continue
            ev = genfun_closed(x, b)
            s = genfun_series(x, b, 120)
            assert abs(ev.total - s.value) <= max(1e-8, 10 * s.tail_estimate), (x, b)

    def test_against_resummed_direct_sum(self):
        # fully independent reference: geometric resummation in j
        for x, b in [(0.3, 0.77), (0.25 + 0.2j, 1.3 - 0.4j), (-0.35, 0.6)]:
            ev = genfun_closed(x, b)
            assert abs(ev.total - genfun_direct(x, b)) < 1e-9

    def test_x_zero_is_zero(self):
        assert genfun_closed(0.0, 0.77).total == 0
        assert genfun_series(0.0, 0.77, 50).value == 0


class TestGuards:
    def test_half_integer_b_unsupported(self):
        with pytest.raises(UnsupportedParameterError):
            genfun_closed(0.3, 1.5)

    def test_x_on_top_of_b(self):
        with pytest.raises(IllConditionedError):
            genfun_closed(0.8, 0.8 + 1e-9)

    def test_sin_gap_near_integer(self):
        # 2(x-b) integer makes the generic trig factor blow up
        with pytest.raises(IllConditionedError):
            genfun_closed(0.3, 0.8)

    def test_series_needs_margin_inside_radius(self):
        with pytest.raises(DomainError):
            genfun_series(0.95, 0.0, 50)  # r(0) = 1, margin 0.1

    def test_series_tail_estimate_is_honest(self):
        x, b = 0.45, 0.77
        short = genfun_series(x, b, 40)
        long = genfun_series(x, b, 140)
        assert abs(short.value - long.value) <= 10 * short.tail_estimate


class TestEvalStructure:
    def test_terms_reassemble(self):
        ev = genfun_closed(0.3, 0.77)
        assert ev.rational_term + ev.trig_term + ev.integral_term == ev.total

    def test_x_equals_2b_kills_the_integral(self):
        # the two sine-ratio halves of the integrand coincide identically
        for b in (0.37, 0.21 - 0.13j, 0.8 + 0.3j):
            ev = genfun_closed(2 * b, b)
            assert abs(ev.integral_term) <= 1e-9


class TestSeriesCoefficient:
    @pytest.mark.parametrize("k,b", [(2, 0.77), (4, 0.77), (3, 2.0),
                                     (3, -2.0), (2, -1.3), (2, 0.5 + 0.5j)])
    def test_matches_shifted_direct_sum(self, k, b):
        # a_k = sum_{j>=1, j+b != 0} (j+b)**-k, by brute force with the
        # first few terms split off so the tail oracle sees Re > 0
        bb = complex(b)
        skip = -int(bb.real) if bb == int(bb.real) and bb.real < 0 else None
        head_n = max(0, 1 - int(math.floor(bb.real)))
        head = sum(
            (1.0 / (j + bb)) ** k
            for j in range(1, head_n + 1) if j != skip
        )
        ref = head + hurwitz_direct(k, bb + head_n + 1)
        assert abs(series_coefficient(k, b) - ref) < 1e-12


class TestZetaRecovery:
    def test_contour_average_recovers_zeta(self):
        for k, b, radius, nodes in [(2, 0.7, 0.25, 32), (2, 1.25, 0.3, 32),
                                    (4, 0.6 + 0.4j, 0.3, 40)]:
            v = zeta_from_genfun(k, b, radius, nodes)
            ref = hurwitz_direct(k, b)
            assert abs(v - ref) <= 1e-8 * (1 + abs(ref))

    def test_integer_b_where_closed_form_cannot_go(self):
        # the coefficient path has no polylogarithm pole at integer b
        v = zeta_from_genfun(3, 1.0, 0.3, 48)
        assert v.real == pytest.approx(riemann_zeta(3), rel=1e-10)
        assert abs(v.imag) < 1e-12

    def test_radius_guardrails(self):
        with pytest.raises(DomainError):
            zeta_from_genfun(2, 0.7, 1.9, 32)  # outside r(b)
        with pytest.raises(DomainError):
            zeta_from_genfun(2, 0.7, 0.3, 6)  # too few nodes for k

    def test_near_radius_instability_is_reported(self):
        with pytest.warns(InstabilityWarning):
            zeta_from_genfun(2, 0.7, 0.98 * radius_of_convergence(0.7), 32)

    @pytest.mark.parametrize("k,b,radius,nodes", [
        (3, 1.25, 0.3, 32), (5, 0.6 + 0.4j, 0.5, 40), (2, 3.0, 1.2, 32),
        (8, 5.132 - 1.584j, 2.058, 32)])
    def test_matches_pointwise_circle_average(self, k, b, radius, nodes):
        # reference: the circle average taken one genfun_closed call per node
        def coefficient(rad):
            acc = sum(genfun_closed(rad * cmath.exp(2j * math.pi * m / nodes), b).total
                      * cmath.exp(-2j * math.pi * k * m / nodes) for m in range(nodes))
            return acc / (nodes * rad**k)

        ref = complex(b) ** -k + coefficient(radius)
        assert abs(zeta_from_genfun(k, b, radius, nodes) - ref) <= 1e-12 * abs(ref)

    def test_both_circles_are_one_kernel_batch(self, monkeypatch):
        calls = []
        kernel = kernels.sin_ratio_gap

        def counted(*args):
            calls.append((np.shape(args[0]), np.shape(args[1])))
            return kernel(*args)

        monkeypatch.setattr(kernels, "sin_ratio_gap", counted)
        zeta_from_genfun(3, 1.25, 0.3, 32)
        # one node at a time made 4 calls per node: probe, two strips, mesh
        assert 1 <= len(calls) <= 8
        # the first pass shares its 189 abscissae across the 64 nodes, so
        # the b-only term sin(2*pi*b*u)/sin(2*pi*b) is computed once
        assert calls[0] == ((1, 33 + 6 + 150), (64, 1))

    def test_unconverged_node_is_an_error(self):
        # with no subdivision budget, nodes 14..19 of the first circle stop
        # short of their targets on the first mesh
        with pytest.raises(EvaluationError, match=r"circle node 14/32 .* > target") as info:
            zeta_from_genfun(8, 5.132 - 1.584j, 2.058, 32,
                             spec=QuadratureSpec(max_subdivisions=0))
        assert info.value.row == 14

    def test_singular_node_is_named_in_circle_order(self):
        # the radius circle is clear; node 0 of the half-radius circle is b
        with pytest.raises(IllConditionedError, match=r"circle node 0/32 at x = 0\.2\+0j"
                           r" hits a singular locus \(x = b\)"):
            zeta_from_genfun(2, 0.2, 0.4, 32)


class TestRotatedParts:
    def test_parts_match_rotated_closed_form(self):
        # F(x,b) = f(-i*x, -i*b): the hyperbolic split must agree with the
        # trigonometric one evaluated at rotated arguments
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 8:
            x = float(rng.uniform(-0.8, 0.8))
            b = float(rng.uniform(0.15, 2.0))
            if abs(x) < 0.02 or abs(x - b) < 0.05 or abs(x - 2 * b) < 1e-3:
                continue
            re, im = genfun_parts_real_imag(x, b)
            ref = genfun_closed(-1j * x, -1j * b).total
            assert abs(complex(re, im) - ref) < 1e-10 * (1 + abs(ref))
            checked += 1

    def test_range_cap(self):
        with pytest.raises(RangeOverflowError):
            genfun_parts_real_imag(115.0, 0.5)

    def test_degenerate_exponentials(self):
        with pytest.raises(IllConditionedError):
            genfun_parts_real_imag(0.7, 0.7 + 1e-12)


class TestOddZeta:
    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_integral_reproduces_odd_zeta(self, j):
        ref = riemann_zeta(2 * j + 1)
        v = odd_zeta_integral(j)
        assert abs(v - ref) / ref < 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            odd_zeta_integral(0)
        with pytest.raises(DomainError):
            odd_zeta_integral(11)


class TestSinhKernel:
    def test_closed_form_is_elementary(self):
        for c, u in [(1.7, 0.3), (0.5 + 2.0j, 0.9), (-2.4, 0.1)]:
            assert sinh_kernel(c, u) == pytest.approx(
                c * cmath.sinh(c * u) / cmath.sinh(c), rel=1e-14)

    def test_series_matches_closed_form(self):
        rng = np.random.default_rng(99)
        for _ in range(12):
            c = complex(rng.uniform(-2.5, 2.5), rng.uniform(-1.2, 1.2))
            if abs(c) < 0.1:
                continue
            u = float(rng.uniform(0.0, 1.0))
            n = sinh_series_depth(abs(c))
            got = sinh_kernel_series(c, u, n)
            want = sinh_kernel(c, u)
            assert abs(got - want) <= 1e-10 * (1 + abs(want))

    def test_depth_grows_with_c(self):
        depths = [sinh_series_depth(c) for c in (0.5, 1.5, 2.5, 2.9)]
        assert depths == sorted(depths)
        assert sinh_series_depth(1.0, tol=1e-6) <= sinh_series_depth(1.0, tol=1e-14)

    def test_degenerate_and_capacity(self):
        with pytest.raises(DomainError):
            sinh_kernel(0.0, 0.5)
        # n_terms needs B_{2(n_terms-1)}
        with pytest.raises(CapacityError):
            sinh_kernel_series(2.0, 0.5, BERNOULLI_MAX_INDEX // 2 + 2)
