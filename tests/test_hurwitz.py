"""The zeta evaluator: exact algebra, oracle agreement, error contract."""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import catalan_constant, hurwitz_direct, rotated_direct
from hurzeta import (
    ZetaParams,
    bracket_kernel,
    bracket_scale,
    endpoint_residual,
    eulerian_row,
    genfun_parts_real_imag,
    genfun_series,
    hp_limit_scan,
    hp_partial_sum,
    hurwitz_series_oracle,
    hurwitz_zeta,
    imag_part_integral,
    real_part_formula,
    sinh_kernel_series,
    sinh_series_depth,
    theorem1_scan,
    zeta_auto,
    zeta_from_genfun,
)
from hurzeta import cli
from hurzeta.errors import (
    CapacityError,
    ConditioningWarning,
    DomainError,
    RangeOverflowError,
)
from hurzeta.hurwitz import EM_SHIFT, EM_TERMS, _I_POW, _em_constants, _em_tail
from hurzeta.quadrature import DEFAULT_SPEC, integrate_cot_weighted


def _bits(z: complex) -> tuple:
    return z.real.hex(), z.imag.hex()


def _li_exact(m: int, q: Fraction) -> Fraction:
    """Li_{-m}(q) as an exact rational: q * A_m(q) / (1-q)**(m+1)."""
    if m == 0:
        return q / (1 - q)
    num = Fraction(0)
    for a in reversed(eulerian_row(m)):
        num = num * q + a
    return q * num / (1 - q) ** (m + 1)


class TestEndpointIdentityExact:
    """B(0) = B(1) is a rational identity in q = exp(-2*pi*i*b).

    With c_j = (delta_{1j} + Li_{1-j}(q)) / ((j-1)!(k-j)!), the bracket
    satisfies c_k = q * sum_j c_j identically.  For fixed k both sides are
    rational functions whose numerators (after clearing (1-q)**k) have
    degree <= k+1, so exact equality at k+2 distinct rational points proves
    the identity outright -- no floating point involved.
    """

    POINTS = [Fraction(p, r) for p, r in
              [(3, 7), (-2, 5), (22, 7), (-31, 3), (1, 99), (13, 2),
               (-7, 11), (5, 3), (-1, 2), (9, 4), (101, 100), (-17, 6)]]

    @pytest.mark.parametrize("k", range(2, 9))
    def test_bracket_endpoints_agree_exactly(self, k):
        for q in self.POINTS:
            cs = []
            for j in range(1, k + 1):
                delta = Fraction(1 if j == 1 else 0)
                cs.append((delta + _li_exact(j - 1, q))
                          / (math.factorial(j - 1) * math.factorial(k - j)))
            assert cs[-1] == q * sum(cs), f"identity broke at k={k}, q={q}"


class TestClosedFormValues:
    def test_half_integer_b(self):
        # zeta(2, 1/2) = pi**2 / 2
        v = hurwitz_zeta(ZetaParams.create(2, 0.5)).total
        assert v.real == pytest.approx(math.pi**2 / 2, rel=1e-12)
        assert abs(v.imag) < 1e-12

    def test_quarter_shift_catalan(self):
        # zeta(2, 5/4) = -16 + pi**2 + 8*G, with G from an accelerated
        # alternating series rather than a stored constant
        exact = -16.0 + math.pi**2 + 8.0 * catalan_constant()
        v = hurwitz_zeta(ZetaParams.create(2, 1.25)).total
        assert v.real == pytest.approx(exact, rel=1e-12)

    def test_three_quarters(self):
        # zeta(2, 3/4) = pi**2 - 8*G: the odd-denominator lattice sum
        # pi**2/8 splits into G plus the 3-mod-4 part
        exact = math.pi**2 - 8.0 * catalan_constant()
        v = hurwitz_zeta(ZetaParams.create(2, 0.75)).total
        assert v.real == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("k,b", [(2, 0.3), (3, 1.7), (4, 2.25),
                                     (5, 0.6 + 0.4j), (7, 1.2 - 0.8j)])
    def test_against_brute_force(self, k, b):
        v = hurwitz_zeta(ZetaParams.create(k, b)).total
        ref = hurwitz_direct(k, b)
        assert abs(v - ref) <= 1e-10 * (1 + abs(ref))

    def test_high_orders_against_mpmath(self):
        # where the closed form is accurate at large k: Re b in [0.05, 0.4],
        # |Im b| <= 1 and |1 - q| >= 0.5
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20261019)
        drawn = 0
        while drawn < 36:
            k = (16, 20, 24)[drawn % 3]
            b = complex(rng.uniform(0.05, 0.4), rng.uniform(-1.0, 1.0))
            if abs(1.0 - ZetaParams.create(k, b).q) < 0.5:
                continue
            drawn += 1
            with mpmath.workdps(40):
                ref = complex(mpmath.zeta(k, b))
            value, route, _ = zeta_auto(k, b)
            assert route == "closed-form"
            assert abs(value - ref) <= 1e-9 * abs(ref), (k, b)

    def test_breakdown_reassembles(self):
        br = hurwitz_zeta(ZetaParams.create(3, 0.8))
        s = (br.term_half_bk + br.term_polylog_single
             + br.term_polylog_sum + br.term_integral)
        assert s == br.total

    # (4, 6.1-2.9i) refines its integral past the first pass
    @pytest.mark.parametrize("k, b", [(2, 0.3 + 0.2j), (7, 0.8), (12, 0.35 - 0.4j),
                                      (24, 0.25 + 0.1j), (4, 6.1 - 2.9j)])
    def test_integral_term_is_the_public_kernel_integral_bitwise(self, k, b):
        # hurwitz_zeta integrates kernels.poly_exp_gap directly; it must be
        # the integral of bracket_kernel against bracket_scale, bit for bit
        params = ZetaParams.create(k, b)
        br = hurwitz_zeta(params)
        quad = integrate_cot_weighted(lambda u: bracket_kernel(params, u),
                                      scale_hint=bracket_scale(params))
        ipk = _I_POW[k % 4] * (2.0 * math.pi) ** k
        assert _bits(br.quadrature.value) == _bits(quad.value)
        assert _bits(br.term_integral) == _bits(-0.5j * ipk * quad.value)
        assert br.quadrature.error_estimate.hex() == quad.error_estimate.hex()
        assert br.quadrature.evaluations == quad.evaluations
        assert br.quadrature.warnings == quad.warnings


class TestRotatedDecomposition:
    # real_part_formula + i * imag_part_integral must reassemble
    # sum_{j>=0} (i*j + b)**-k -- including at integer b, where the
    # combined complex-q formula is off-limits but the real-decay
    # decomposition is perfectly regular.

    @pytest.mark.parametrize("b", [0.3, 1.0, 1.25, 2.0, 3.75])
    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_reassembly(self, k, b):
        got = complex(real_part_formula(k, b), imag_part_integral(k, b))
        ref = rotated_direct(k, b)
        assert abs(got - ref) <= 1e-9 * (1 + abs(ref))

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            real_part_formula(1, 0.5)
        with pytest.raises(DomainError):
            real_part_formula(2, -0.5)
        with pytest.raises(DomainError):
            imag_part_integral(2, 0.0)

    @pytest.mark.parametrize("part,value", [(real_part_formula, 9.998922675745358e27),
                                            (imag_part_integral, 91487298714.41197)])
    def test_pole_note_is_warned_at_the_caller_on_every_call(self, part, value):
        # p = exp(-2*pi*b) is within POLE_GUARD of 1; the second call finds
        # the bracket set-up, note included, in the cache and warns again.
        # The values are pinned, not checked: the real part is off by about
        # 1e-4 relative here, which is what the note warns of.
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert part(2, 1e-14) == value
            assert [w.category for w in caught] == [ConditioningWarning]
            assert caught[0].filename == __file__


class TestBracketEndpoint:
    def test_seeded_draws_cancel_to_working_precision(self):
        rng = np.random.default_rng(421)
        for _ in range(60):
            k = int(rng.integers(2, 13))
            b = complex(rng.uniform(0.05, 6.0), rng.uniform(-2.5, 2.5))
            params = ZetaParams.create(k, b)
            if abs(1.0 - params.q) < 1e-3:
                continue
            g0 = abs(bracket_kernel(params, np.array([0.0]))[0])
            assert g0 <= 1e-11 * bracket_scale(params)

    @pytest.mark.parametrize("k, b", [(20, 0.5), (24, 0.5), (24, 0.5 + 0.001j)])
    def test_large_k_keeps_half_the_endpoint_allowance(self, k, b):
        # the quadrature refuses a bracket whose endpoint residual exceeds
        # max(abs_tol, 64 eps) * scale; here the residual reads 0.17-0.33 of
        # that, so a rewrite of the bracket set-up that loses accuracy at
        # large k near Re b = 1/2 fails here before it refuses sweep cells
        params = ZetaParams.create(k, b)
        eps = float(np.finfo(np.float64).eps)
        allowance = max(DEFAULT_SPEC.abs_tol, 64 * eps) * bracket_scale(params)
        assert abs(bracket_kernel(params, 0.0)) <= 0.5 * allowance

    @pytest.mark.parametrize("seed", [cli.DEFAULT_SEED, 1])
    def test_residual_is_the_kernel_at_zero_bitwise(self, seed):
        # on the endpoint-identity suite's draws: B(0) is the constant
        # coefficient, so the cached set-up gives the kernel's value
        draws = list(cli._endpoint_draws(seed))
        assert len(draws) == cli.ENDPOINT_DRAWS
        for params in draws:
            assert (endpoint_residual(params)
                    == abs(bracket_kernel(params, 0.0)) / bracket_scale(params)), params

    def test_scale_tracks_uncancelled_magnitudes(self):
        # large |Im b| => huge |q|; the yardstick must grow with it even
        # though the cancelled coefficients stay O(1/|q|)
        params = ZetaParams.create(2, 1.3 + 2.4j)
        assert bracket_scale(params) > abs(params.q)


class TestProperties:
    # The closed form's conditioning degrades like |1 - q|**-k as b
    # approaches an integer (the polylogarithm pole), so the sampled
    # domain keeps the fractional part of b in [0.2, 0.8] -- same standoff
    # the fixed acceptance grid uses.  Points closer to an integer are the
    # documented job of the series route.

    @given(k=st.integers(2, 8), n=st.integers(0, 3), f=st.floats(0.2, 0.8))
    @settings(max_examples=30, deadline=None)
    def test_shift_identity(self, k, n, f):
        b = n + f
        z1 = hurwitz_zeta(ZetaParams.create(k, b)).total
        z2 = hurwitz_zeta(ZetaParams.create(k, b + 1)).total
        assert abs(z1 - z2 - b ** (-k)) < 1e-9 * (1 + abs(z1))

    @given(k=st.integers(2, 6), n=st.integers(0, 3), f=st.floats(0.2, 0.8))
    @settings(max_examples=30, deadline=None)
    def test_realness_for_real_b(self, k, n, f):
        v = hurwitz_zeta(ZetaParams.create(k, n + f)).total
        assert abs(v.imag) <= 1e-10 * (1 + abs(v))

    @given(k=st.integers(2, 8), n=st.integers(0, 2), f=st.floats(0.2, 0.8),
           im=st.floats(-1.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_conjugate_symmetry(self, k, n, f, im):
        if abs(im) < 1e-3:
            return
        b = n + f
        z_up = zeta_auto(k, complex(b, im))[0]
        z_dn = zeta_auto(k, complex(b, -im))[0]
        assert abs(z_up - z_dn.conjugate()) < 1e-9 * (1 + abs(z_up))


class TestRouting:
    def test_integer_b_goes_to_series(self):
        v, route, breakdown = zeta_auto(2, 1.0)
        assert route == "series"
        assert breakdown is None
        assert v.real == pytest.approx(math.pi**2 / 6, rel=1e-12)

    def test_generic_b_goes_to_closed_form(self):
        v, route, breakdown = zeta_auto(2, 1.25)
        assert route == "closed-form"
        assert breakdown is not None

    def test_series_oracle_tolerance_scaling(self):
        loose = hurwitz_series_oracle(2, 0.7, tol=1e-6)
        tight = hurwitz_series_oracle(2, 0.7, tol=1e-12)
        ref = hurwitz_direct(2, 0.7)
        assert abs(loose - ref) < 1e-6
        assert abs(tight - ref) < 1e-11

    def test_cancellation_diagnostic_fires_where_expected(self):
        # k=10, b=3.75: answer ~ 5.7e-6 against O(10) working terms; the
        # evaluator must confess its degraded relative accuracy
        br = hurwitz_zeta(ZetaParams.create(10, 3.75))
        assert any("cancellation" in w for w in br.warnings)
        # and stay silent on a benign point
        br2 = hurwitz_zeta(ZetaParams.create(2, 1.25))
        assert not any("cancellation" in w for w in br2.warnings)


class TestErrorContract:
    def test_pole_at_nonpositive_integer_b(self):
        for bad in (0.0, -1.0, -7.0):
            with pytest.raises(DomainError):
                zeta_auto(3, bad)

    def test_k_below_two(self):
        with pytest.raises(DomainError):
            ZetaParams.create(1, 0.5)

    def test_factorial_range_cap(self):
        with pytest.raises(RangeOverflowError):
            hurwitz_zeta(ZetaParams.create(200, 0.5))
        # 171! overflows a float; this once escaped as a bare OverflowError
        with pytest.raises(RangeOverflowError):
            real_part_formula(172, 1.3)

    @pytest.mark.parametrize("tol", [0.0, 1.0, math.nan])
    def test_oracle_tolerance_is_a_domain_error(self, tol):
        with pytest.raises(DomainError, match="tol"):
            hurwitz_series_oracle(2, 0.7, tol=tol)

    def test_imaginary_cap(self):
        with pytest.raises(RangeOverflowError):
            ZetaParams.create(2, 1 + 9j)

    def test_near_integer_b_warns(self):
        with pytest.warns(ConditioningWarning):
            hurwitz_zeta(ZetaParams.create(2, 1.0 + 1e-13))

    def test_polylog_past_double_range_is_typed(self):
        # |1 - q| = 2e-14: (1 - q)**24 underflows and Li_{-23}(q) is past
        # double range; this once escaped as a ZeroDivisionError
        with pytest.raises(RangeOverflowError):
            zeta_auto(24, 2 - 3e-15 + 1e-15j)

    def test_infinite_polylog_is_typed(self):
        # |1 - q| = 6e-14: (1 - q)**24 stays normal but Li_{-21}(q) is inf;
        # this once surfaced as "DomainError: scale_hint must be finite"
        with pytest.raises(RangeOverflowError, match=r"Li_\(-21\)"):
            zeta_auto(24, 1 + 1e-14)

    def test_pole_note_is_given_once(self):
        with pytest.warns(ConditioningWarning):
            br = zeta_auto(12, 2 - 3e-15 + 1e-15j)[2]
        assert sum("pole" in w for w in br.warnings) == 1

    @pytest.mark.parametrize("k", [10**16, 10**30])
    def test_series_coefficients_past_double_range_are_typed(self, k):
        # (k)_23 B_24 / 24! overflows a float; this once escaped as an OverflowError
        with pytest.raises(RangeOverflowError, match=f"k = {k}"):
            hurwitz_series_oracle(k, 2.0)


# Every entry point that takes an order k, with its minimum and a call
# that is valid at k = 3.
K_ENTRY_POINTS = {
    "ZetaParams.create": (2, lambda k: ZetaParams.create(k, 0.3)),
    "real_part_formula": (2, lambda k: real_part_formula(k, 0.3)),
    "imag_part_integral": (2, lambda k: imag_part_integral(k, 0.3)),
    "hurwitz_series_oracle": (2, lambda k: hurwitz_series_oracle(k, 0.3)),
    "zeta_from_genfun": (2, lambda k: zeta_from_genfun(k, 0.7, 0.25, 32)),
    "genfun_series": (2, lambda kmax: genfun_series(0.2, 0.77, kmax)),
    "hp_limit_scan": (2, lambda k: hp_limit_scan(k, 1.25, (10, 100, 1000))),
    "hp_partial_sum": (1, lambda k: hp_partial_sum(k, 0.7, 10)),
}


class TestOrderValidation:
    @pytest.mark.parametrize("entry", sorted(K_ENTRY_POINTS))
    def test_rejects_non_orders_and_accepts_integral_float(self, entry):
        minimum, call = K_ENTRY_POINTS[entry]
        for bad in (minimum - 1, 2.5, "3"):
            with pytest.raises(DomainError):
                call(bad)
        call(3.0)


# Every entry point that takes a count, with its minimum and a call that is
# valid at a count of 3.  A fractional scan frequency was once truncated and
# scanned without complaint.
COUNT_ENTRY_POINTS = {
    "hp_partial_sum": (0, lambda n: hp_partial_sum(2, 0.5, n)),
    "theorem1_scan": (0, lambda n: theorem1_scan(3, [n, 1000, 10000])),
    "sinh_kernel_series": (1, lambda n: sinh_kernel_series(1.0, 0.5, n)),
}


class TestCountValidation:
    @pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
    def test_rejects_non_counts_and_accepts_integral_values(self, entry):
        minimum, call = COUNT_ENTRY_POINTS[entry]
        for bad in (minimum - 1, 2.5, "3"):
            with pytest.raises(DomainError):
                call(bad)
        assert call(3.0) == call(np.int64(3)) == call(3)


# Calls with a NaN or infinite real input.
NON_FINITE_CALLS = {
    "real_part_formula(3, inf)": lambda: real_part_formula(3, math.inf),
    "real_part_formula(3, nan)": lambda: real_part_formula(3, math.nan),
    "imag_part_integral(3, inf)": lambda: imag_part_integral(3, math.inf),
    "imag_part_integral(3, nan)": lambda: imag_part_integral(3, math.nan),
    "genfun_parts_real_imag(nan, 0.3)": lambda: genfun_parts_real_imag(math.nan, 0.3),
    "genfun_parts_real_imag(0.3, nan)": lambda: genfun_parts_real_imag(0.3, math.nan),
    "sinh_series_depth(nan)": lambda: sinh_series_depth(math.nan),
}


@pytest.mark.parametrize("call", sorted(NON_FINITE_CALLS))
def test_non_finite_real_input_is_a_domain_error(call):
    with pytest.raises(DomainError):
        NON_FINITE_CALLS[call]()


class TestRotatedPartialSum:
    @pytest.mark.parametrize("k", [3, 60, 170])
    @pytest.mark.parametrize("b", [1.1, 0.7 + 0.4j, 0.25 - 3.5j])
    def test_against_mpmath(self, k, b):
        mpmath = pytest.importorskip("mpmath")
        n = 50
        with mpmath.workdps(40):
            ref = complex(mpmath.fsum((mpmath.mpc(b) + mpmath.mpc(0, j)) ** -k
                                      for j in range(1, n + 1)))
        assert abs(hp_partial_sum(k, b, n) - ref) <= 1e-15 * abs(ref), (k, b)

    def test_summand_pole_is_refused(self):
        # b = -3i makes the j = 3 term infinite, once that term is summed
        with pytest.raises(DomainError, match="summand pole"):
            hp_partial_sum(2, -3j, 5)
        assert hp_partial_sum(2, -3j, 2) == (1j - 3j) ** -2 + (2j - 3j) ** -2


class TestOracleExtended:
    @pytest.mark.parametrize("k,b", [(2, -1.3), (3, -0.5 + 0.2j), (4, -2.7 - 1j)])
    def test_non_positive_real_part_matches_direct_sum(self, k, b):
        # split off the terms with Re(j + b) <= 0 so the reference sum
        # starts where hurwitz_direct accepts it
        m = math.floor(-b.real) + 1
        ref = sum((1.0 / (j + b)) ** k for j in range(m)) + hurwitz_direct(k, b + m)
        assert abs(hurwitz_series_oracle(k, b) - ref) <= 1e-11 * (1 + abs(ref))

    @pytest.mark.parametrize("b", [0.0, -1.0, -4.0])
    def test_pole_at_non_positive_integer(self, b):
        with pytest.raises(DomainError):
            hurwitz_series_oracle(3, b)

    @pytest.mark.parametrize("k,b", [(6, 20.0), (6, 8.0)])
    def test_tolerance_is_relative_for_small_values(self, k, b):
        # zeta(6, 20) ~ 7e-8: an absolute tolerance leaves 4e-7 relative error
        ref = hurwitz_direct(k, complex(b))
        assert abs(hurwitz_series_oracle(k, b, tol=1e-12) - ref) <= 1e-11 * abs(ref)


# The Euler--Maclaurin box: k 2..24 plus two large orders, Re b in [-6, 8],
# |Im b| <= 5.
EM_BOX_K = tuple(range(2, 25)) + (60, 170)


def _em_truncated(mpmath, k, a):
    """The Euler--Maclaurin sum the oracle adds at ``a``, at working precision."""
    return (a ** (1 - k) / (k - 1) + a ** (-k) / 2
            + mpmath.fsum(mpmath.bernoulli(2 * m) / mpmath.factorial(2 * m)
                          * mpmath.rf(k, 2 * m - 1) * a ** (1 - k - 2 * m)
                          for m in range(1, EM_TERMS + 1)))


class TestEulerMaclaurin:
    def test_wide_box_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20261018)
        eps = float(np.finfo(np.float64).eps)
        for i in range(16 * len(EM_BOX_K)):
            k = EM_BOX_K[i % len(EM_BOX_K)]
            b = complex(rng.uniform(-6, 8), rng.uniform(-5, 5))
            with mpmath.workdps(40):
                ref = complex(mpmath.zeta(k, b))
            rel = abs(hurwitz_series_oracle(k, b) - ref) / abs(ref)
            assert rel <= (1e-14 if b.real > 0 else 1e-12), (k, b, rel)

            # the remainder bound at the first shift covers the truncation
            # error, and the evaluated tail misses by no more than it plus
            # rounding
            a = b + max(0, math.ceil(EM_SHIFT - b.real))
            p = k + 2 * EM_TERMS - 1
            bound = math.exp(_em_constants(k)[1] - p * math.log(a.real))
            with mpmath.workdps(60):
                am = mpmath.mpc(a.real, a.imag)
                ref_a = mpmath.zeta(k, am)
                truncation = abs(_em_truncated(mpmath, k, am) - ref_a)
            assert truncation <= bound, (k, b, truncation, bound)
            ref_a = complex(ref_a)
            miss = abs(_em_tail(k, a) - ref_a)
            assert miss <= bound + 4 * eps * abs(ref_a), (k, b, miss, bound)

    def test_capacity_is_refused_before_summing(self):
        t0 = time.perf_counter()
        with pytest.raises(CapacityError):
            hurwitz_series_oracle(2, -1e9 + 0.5j)
        assert time.perf_counter() - t0 < 1.0
