"""Generating function: branch closed forms, series, and the sinh identity."""

import cmath
import compileall
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

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
from hurzeta import genfun, kernels
from hurzeta.errors import (
    CapacityError,
    ConditioningWarning,
    DomainError,
    EvaluationError,
    IllConditionedError,
    InstabilityWarning,
    RangeOverflowError,
    UnsupportedParameterError,
)
from hurzeta.quadrature import DEFAULT_SPEC
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

    def test_flags_are_the_python_distances_bitwise(self):
        # a point's flags must keep the bits of the scalar Python expressions
        # below, which the CLI's "proximity" record and its envelope
        # signature carry; the distance array of a recovery's points must
        # have the same bits, point by point, and genfun_closed must refuse
        # a point exactly when the array guard refuses it, naming the same
        # locus in the same words
        def dist_to_int(w):
            return abs(w - round(w.real))

        def reference(x, b):
            return {"x_minus_b": abs(x - b), "two_b_int": dist_to_int(2 * b),
                    "two_xmb_int": dist_to_int(2 * (x - b)),
                    "xmb_int": dist_to_int(x - b), "x_int": dist_to_int(x),
                    "two_x_int": dist_to_int(2 * x)}

        rng = np.random.default_rng(20261019)
        tags = set()
        by_b = {}
        for i in range(1600):
            b = (complex(rng.uniform(-4, 4), rng.uniform(-1.5, 1.5)), 0j,
                 complex(rng.integers(1, 9)), complex(-rng.integers(1, 9)))[i % 4]
            # a point anywhere, or within 1e-6 of one of the loci x = b,
            # x - b, 2(x - b), x and 2x in Z
            n = int(rng.integers(-3, 4))
            near = 10.0 ** rng.uniform(-9, -6) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            x = (complex(rng.uniform(-4, 4), rng.uniform(-1.5, 1.5)), b + near,
                 b + n + near, b + n / 2 + near, n + near, n / 2 + near)[i // 4 % 6]
            case = classify_case(x, b)
            tags.add(case.tag)
            got = {k: v.hex() for k, v in vars(case.proximity_flags).items()}
            assert got == {k: v.hex() for k, v in reference(x, b).items()}, (x, b)
            by_b.setdefault(b, []).append(x)

            xs = np.array([x])
            hit = genfun._first_guard(xs, genfun._classify(xs, b)[1], case.tag)
            try:
                genfun_closed(x, b)
                refused = None
            except IllConditionedError as exc:
                refused = (0, str(exc), exc.locus)
            assert refused == hit, (x, b)
        assert tags == {"generic", "b_zero", "b_pos_int", "b_neg_int"}
        assert max(map(len, by_b.values())) > 1  # some arrays hold many points
        for b, points in by_b.items():
            dist = genfun._classify(np.array(points), b)[1]
            for i, x in enumerate(points):
                point = genfun._classify(x, b)[1]
                assert [d.hex() for d in dist[:, i].tolist()] == [d.hex() for d in point], (x, b)

    def test_evaluation_carries_the_classified_case(self):
        rng = np.random.default_rng(7)
        for b in (0.8 + 0.2j, 0.0, 3.0, -2.0):
            for _ in range(4):
                x = complex(rng.uniform(0.1, 0.4), rng.uniform(-0.3, 0.3))
                assert genfun_closed(x, b).case == classify_case(x, b)


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

    @pytest.mark.parametrize("b", [0.0, 2.0, -1.0])
    def test_integer_branches_guard_only_nonzero_integer_loci(self, b):
        # x and 2x near 0, and x near b = 0, are regular points of f
        genfun_closed(3e-7 + 1e-7j, b)
        for x, locus in ((1 + 3e-7, "cot(pi*x) pole"), (-0.5 + 2e-7j, "sin(2*pi*x) = 0")):
            with pytest.raises(IllConditionedError) as err:
                genfun_closed(x, b)
            assert err.value.locus == locus

    def test_series_needs_margin_inside_radius(self):
        with pytest.raises(DomainError):
            genfun_series(0.95, 0.0, 50)  # r(0) = 1, margin 0.1

    @pytest.mark.parametrize("x,b", [
        (math.nan, 1.3), (0.2, math.nan), (math.inf, 1.3), (0.2, complex(0, -math.inf)),
        (complex(0.1, math.nan), 0.0), (0.2, math.inf)])
    def test_non_finite_input_is_a_domain_error(self, x, b):
        # once a bare ValueError or OverflowError from round()
        for call in (lambda: classify_case(x, b), lambda: genfun_closed(x, b),
                     lambda: genfun_series(x, b, 20)):
            with pytest.raises(DomainError, match="must be finite"):
                call()

    @pytest.mark.parametrize("b", [math.nan, math.inf, complex(1.3, -math.inf)])
    def test_recovery_of_non_finite_b_is_a_domain_error(self, b):
        with pytest.raises(DomainError, match="b must be finite"):
            zeta_from_genfun(3, b, 0.3, 32)

    @pytest.mark.parametrize("b", [0.0, -1.0, -3.0, complex(-3.0, 0.0)])
    def test_recovery_at_a_pole_of_zeta_is_a_domain_error(self, b):
        # b = 0 once raised a bare ZeroDivisionError, and b = -3 returned a
        # finite value for the infinite zeta(2, -3)
        with pytest.raises(DomainError, match="pole"):
            zeta_from_genfun(2, b, 0.3, 32)

    def test_series_tail_estimate_is_honest(self):
        x, b = 0.45, 0.77
        short = genfun_series(x, b, 40)
        long = genfun_series(x, b, 140)
        assert abs(short.value - long.value) <= 10 * short.tail_estimate


def _radius_by_scan(b):
    """r(b) by its first definition: every j from 1 to |b| + 2, skipping
    the exact pole."""
    b = complex(b)
    jmax = max(2, math.ceil(abs(b)) + 2)
    return min(d for d in (abs(j + b) for j in range(1, jmax + 1)) if d > 1e-12)


class TestRadius:
    def test_matches_a_scan_over_every_term(self):
        grid = [complex(re, im) for re in np.arange(-30.0, 30.0, 0.25)
                for im in (0.0, 1e-13, -0.7, 2.5)]
        grid += [0.5, -0.5, -1e-13, -3 + 1e-13, -3 - 1e-13, 999.0, -999.0,
                 -1000.0, -999.5, -998.6 + 2j, 1e3j, 700 - 700j, -700 + 0.1j]
        for b in grid:
            assert radius_of_convergence(b) == _radius_by_scan(b), b

    def test_huge_b_costs_no_more_than_a_small_one(self):
        # the scan once built a list of |b| + 2 distances
        assert radius_of_convergence(1e15) == 1e15 + 1
        assert radius_of_convergence(-1e15) == 1.0
        assert radius_of_convergence(complex(-1e15, 3.0)) == 3.0

    @pytest.mark.parametrize("b", [math.nan, math.inf, complex(0, -math.inf)])
    def test_non_finite_b_is_a_domain_error(self, b):
        with pytest.raises(DomainError, match="b must be finite"):
            radius_of_convergence(b)


class TestEvalStructure:
    def test_terms_reassemble(self):
        ev = genfun_closed(0.3, 0.77)
        assert ev.rational_term + ev.trig_term + ev.integral_term == ev.total

    def test_x_equals_2b_kills_the_integral(self):
        # the two sine-ratio halves of the integrand coincide identically
        for b in (0.37, 0.21 - 0.13j, 0.8 + 0.3j):
            ev = genfun_closed(2 * b, b)
            assert abs(ev.integral_term) <= 1e-9


    @pytest.mark.parametrize("b", [1.3 + 0.4j, 0.0, 3.0, -4.0])
    def test_lone_point_matches_its_row_of_an_array(self, b):
        # genfun_closed sets up one point through cmath, a recovery an array
        # of points through numpy: the rational and trig terms agree to
        # rounding; the integrals to the rounding of a plain integrand's
        # first pass against a family row's, which sum in another order
        rng = np.random.default_rng(7)
        xs = rng.uniform(-0.45, 0.45, 40) + 1j * rng.uniform(-0.45, 0.45, 40)
        xs = xs[np.abs(xs) > 0.1]
        b = complex(b)
        rational, trig, integral, total, _ = genfun._closed_terms(
            xs, b, classify_case(0.1, b).tag, DEFAULT_SPEC)
        rational = np.broadcast_to(rational, xs.shape)
        for i, x in enumerate(xs):
            ev = genfun_closed(x, b)
            big = max(abs(ev.rational_term), abs(ev.trig_term), abs(ev.integral_term))
            assert abs(ev.rational_term - rational[i]) <= 1e-15 * big
            assert abs(ev.trig_term - trig[i]) <= 1e-15 * big
            assert abs(ev.integral_term - integral[i]) <= 1e-14 * big
            assert abs(ev.total - total[i]) <= 1e-14 * big


    def test_a_point_stays_on_its_path(self, monkeypatch):
        # a lone point is classified, guarded and integrated in Python
        # scalars: the array distances, the array guard and the family-row
        # unpacking are never reached, on any branch, for a point whose
        # integral refines, at x = 0 or inside the warning band
        def reached(*args, **kwargs):
            raise AssertionError("array path reached")

        monkeypatch.setattr(genfun, "_array_distances", reached)
        monkeypatch.setattr(genfun, "_first_guard", reached)
        monkeypatch.setattr(genfun.QuadratureResult, "row", reached)
        for x, b, tag in ((0.2 + 0.1j, 1.3 + 0.2j, "generic"), (0.25 - 0.2j, 0j, "b_zero"),
                          (0.3 + 0.12j, 3, "b_pos_int"), (0.18 - 0.4j, -2, "b_neg_int")):
            ev = genfun_closed(x, b)
            assert ev.case.tag == tag and ev.quadrature.evaluations == 189
            assert all(type(v) is complex for v in (
                ev.rational_term, ev.trig_term, ev.integral_term, ev.total, ev.quadrature.value))
            assert type(ev.quadrature.error_estimate) is float
        refining = genfun_closed(-0.4 + 0.1j, -7)
        assert refining.quadrature.evaluations > 189 and type(refining.total) is complex
        assert genfun_closed(0.0, 0.77).total == 0
        with pytest.warns(ConditioningWarning):
            banded = genfun_closed(0.3, 1 + 3e-7)
        assert banded.case.tag == "generic" and len(banded.warnings) == 1
        with pytest.raises(IllConditionedError, match="2\\(x - b\\)"):
            genfun_closed(0.3, 0.8)
        with pytest.raises(UnsupportedParameterError):
            genfun_closed(0.3, 1.5)

    @pytest.mark.parametrize("x,b", [(0.3 + 120j, 2.0), (0.3 + 300j, 0.7 + 0.1j),
                                     (0.3, 0.7 + 120j)])
    def test_sines_past_double_range_are_a_range_overflow(self, x, b):
        # once numpy's overflow warning and a DomainError on the scale hint
        # (x), or a bare OverflowError (b)
        with pytest.raises(RangeOverflowError, match="double range"):
            genfun_closed(x, b)


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

    @pytest.mark.parametrize("nodes", [32.5, "32", None, 1])
    def test_nodes_must_be_an_integer(self, nodes):
        # once a bare TypeError from the aliasing comparison
        with pytest.raises(DomainError, match="nodes must be an integer"):
            zeta_from_genfun(3, 1.25, 0.3, nodes)

    def test_integer_valued_nodes_are_accepted(self):
        assert zeta_from_genfun(3, 1.25, 0.3, 32.0) == zeta_from_genfun(3, 1.25, 0.3, 32)
        with pytest.raises(DomainError, match="aliasing would bite"):
            zeta_from_genfun(3, 1.25, 0.3, 11.0)

    @pytest.mark.parametrize("orders", [range(2, 9), [8, 3, 5], np.arange(2, 9)])
    def test_range_of_orders_matches_single_calls(self, orders):
        b, radius, nodes = 1.3 + 0.7j, 0.3, 32
        got = zeta_from_genfun(orders, b, radius, nodes)
        assert got.shape == (len(orders),)
        # each order's sums run alone, so a range changes no bits
        for k, v in zip(orders, got):
            assert v == zeta_from_genfun(int(k), b, radius, nodes)

    @pytest.mark.parametrize("orders", [[2, 9], [2, 1], [2, 2.5], [2, "3"], []])
    def test_range_is_checked_order_by_order(self, orders):
        # 9 needs 36 nodes; 1, 2.5 and "3" are no orders
        with pytest.raises(DomainError):
            zeta_from_genfun(orders, 1.3 + 0.7j, 0.3, 32)

    def test_instability_names_the_unstable_orders(self):
        # at half of radius 0.5, (0.25/1.7)**20 * a_20 sinks below the
        # rounding of f; order 2 stays stable
        with pytest.warns(InstabilityWarning, match=r"k = \[20\] unstable"):
            zeta_from_genfun([2, 20], 0.7, 0.5, 80)

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

    def test_recoveries_fault_no_pages_with_cached_bytecode(self, tmp_path):
        # compiling the sources at import happens to raise glibc's trim
        # threshold; from cached bytecode nothing does, and a first pass
        # whose sines ran as one block faulted ~100 fresh pages per recovery
        src = Path(__file__).parent.parent / "src" / "hurzeta"
        shutil.copytree(src, tmp_path / "hurzeta")
        assert compileall.compile_dir(tmp_path / "hurzeta", quiet=1)
        code = ("import json, resource, statistics, sys\n"
                "from hurzeta import genfun\n"
                "calls = [(k, b, 0.3 * abs(1 + b)) for k, b in ((5, 1.3 + 0.7j),\n"
                "         (3, 0.37 + 2.2j), (7, 2.6 - 1.1j), (8, 5.132 - 1.584j))]\n"
                "faults = []\n"
                "def minflt():\n"
                "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "for i, (k, b, r) in enumerate(calls * 6):\n"
                "    f0 = minflt()\n"
                "    genfun.zeta_from_genfun(k, b, r, 32)\n"
                "    if i >= len(calls):\n"
                "        faults.append(minflt() - f0)\n"
                "print(json.dumps([genfun.__cached__, statistics.median(faults)]),\n"
                "      file=sys.stderr)\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=dict(env, PYTHONPATH=str(tmp_path)), timeout=120)
        cached, faults = json.loads(p.stderr.splitlines()[-1])
        assert cached.startswith(str(tmp_path))
        assert faults <= 5

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
        for j in (0, 11, np.int64(11), 3.5, "3", None):
            with pytest.raises(DomainError):
                odd_zeta_integral(j)

    @pytest.mark.parametrize("j", [np.int64(3), 3.0])
    def test_integer_valued_j_is_accepted(self, j):
        # as every order entry point accepts them
        assert odd_zeta_integral(j) == odd_zeta_integral(3)


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
