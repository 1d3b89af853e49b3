"""Exact and oracle-backed checks for the arithmetic bottom layer."""

import cmath
import math
import warnings
from fractions import Fraction

import pytest

from _oracles import catalan_constant, euler_gamma
from hurzeta import (
    bernoulli,
    eulerian_row,
    harmonic_number,
    polylog_nonpos,
)
from hurzeta.errors import (
    CapacityError,
    ConditioningWarning,
    DomainError,
    RangeOverflowError,
)
from hurzeta.hurwitz import EM_TERMS
from hurzeta.special_functions import (
    BERNOULLI_MAX_INDEX,
    CATALAN,
    EULER_GAMMA,
    PI,
    _horner_rows,
    polylog_nonpos_orders,
)


def test_catalan_against_accelerated_series():
    # independent oracle: CVZ-accelerated alternating series
    assert abs(CATALAN - catalan_constant()) < 5e-16


def test_euler_gamma_against_harmonic_asymptotic():
    assert abs(EULER_GAMMA - euler_gamma()) < 5e-15


def test_pi():
    assert PI == math.pi


class TestBernoulli:
    def test_known_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(12) == Fraction(-691, 2730)
        assert bernoulli(24) == Fraction(-236364091, 2730)

    def test_odd_vanish(self):
        for n in (3, 5, 7, 9, 11, 13, 21, 23):
            assert bernoulli(n) == 0

    def test_matches_the_full_recurrence(self):
        # bernoulli() leaves the zero B_j (odd j >= 3) out of its sum; the
        # sum over every j < n gives the same Fractions
        full = [Fraction(1)]
        for n in range(1, BERNOULLI_MAX_INDEX + 1):
            full.append(-sum(math.comb(n + 1, j) * full[j] for j in range(n)) / (n + 1))
        assert [bernoulli(n) for n in range(BERNOULLI_MAX_INDEX + 1)] == full

    def test_von_staudt_clausen(self):
        # denominator of B_2n is the product of primes p with (p-1) | 2n
        def primes_dividing(n2):
            return [p for p in range(2, n2 + 2)
                    if all(p % d for d in range(2, p)) and n2 % (p - 1) == 0]

        for n2 in (2, 10, 12, 20, 24):
            assert bernoulli(n2).denominator == math.prod(primes_dividing(n2))

    def test_capacity_contract(self):
        # the cap is what the package asks for: B_24 for the series oracle's
        # Euler-Maclaurin terms (odd_zeta_integral at j = 10 needs B_20)
        assert BERNOULLI_MAX_INDEX == 2 * EM_TERMS == 24
        bernoulli(BERNOULLI_MAX_INDEX)  # the last one served
        with pytest.raises(CapacityError, match=f"B_{BERNOULLI_MAX_INDEX + 1}"):
            bernoulli(BERNOULLI_MAX_INDEX + 1)
        with pytest.raises(DomainError):
            bernoulli(-1)


class TestEulerian:
    def test_small_rows(self):
        assert eulerian_row(1) == (1,)
        assert eulerian_row(2) == (1, 1)
        assert eulerian_row(3) == (1, 4, 1)
        assert eulerian_row(4) == (1, 11, 11, 1)

    def test_row_sums_are_factorials(self):
        for m in range(1, 12):
            assert sum(eulerian_row(m)) == math.factorial(m)

    def test_symmetry(self):
        for m in range(1, 12):
            row = eulerian_row(m)
            assert row == row[::-1]

    def test_worpitzky_column(self):
        # <m, 1> = 2**m - m - 1
        for m in range(2, 15):
            assert eulerian_row(m)[1] == 2**m - m - 1


class TestPolylog:
    def test_order_zero_is_geometric(self):
        for z in (0.3, -0.9, 0.5 + 0.25j, -2.0 + 1.0j):
            assert polylog_nonpos(0, z) == pytest.approx(z / (1 - z), rel=1e-15)

    def test_against_defining_series(self):
        # Li_{-m}(z) = sum_{n>=1} n**m z**n, summed far past double precision
        # for |z| <= 1/2.
        for m in range(0, 9):
            for z in (0.5, -0.5, 0.3 - 0.35j, 0.1 + 0.4j):
                brute = sum(n**m * z**n for n in range(1, 400))
                assert polylog_nonpos(m, z) == pytest.approx(brute, rel=2e-14)

    def test_negation_formula(self):
        # Li_{-m}(z) + (-1)**m Li_{-m}(1/z) = 0 for m >= 1
        for m in range(1, 10):
            for z in (2.5, -3.0 + 1.0j, 0.2 + 0.1j):
                lhs = polylog_nonpos(m, z) + (-1) ** m * polylog_nonpos(m, 1 / z)
                scale = abs(polylog_nonpos(m, z)) + 1
                assert abs(lhs) < 1e-13 * scale

    def test_pole_is_hard_error(self):
        with pytest.raises(DomainError):
            polylog_nonpos(3, 1.0)

    def test_near_pole_warns_and_proceeds(self):
        with pytest.warns(ConditioningWarning):
            v = polylog_nonpos(2, 1.0 + 1e-13)
        assert math.isfinite(v.real)

    def test_overflow_is_typed(self):
        with pytest.raises(RangeOverflowError):
            polylog_nonpos(60, 1e6 + 0j)

    def test_pole_factor_underflow_is_typed(self):
        # |1 - z| = 2e-14: (1 - z)**24 underflows to 0, the value is past
        # double range, and the division once raised ZeroDivisionError
        z = 1 + 6e-15 + 2e-14j
        with pytest.raises(RangeOverflowError):
            polylog_nonpos(23, z)
        with pytest.raises(RangeOverflowError):
            polylog_nonpos_orders(24, z)

    def test_infinite_value_is_typed_at_its_order(self):
        # q at b = 1 + 1e-14: (1 - q)**(m+1) stays normal, but Li_{-21}(q)
        # .. Li_{-23}(q) are past double range and once came back as inf
        q = complex(cmath.exp(-2j * math.pi * (1 + 1e-14)))
        assert all(cmath.isfinite(v) for v in polylog_nonpos_orders(21, q)[0])
        with pytest.raises(RangeOverflowError, match=r"Li_\(-21\)"):
            polylog_nonpos_orders(24, q)
        with pytest.raises(RangeOverflowError, match=r"Li_\(-21\)"):
            polylog_nonpos(22, q)

    def test_orders_fail_as_single_calls_do(self):
        with pytest.raises(DomainError):
            polylog_nonpos_orders(3, 1.0)
        with pytest.raises(RangeOverflowError):
            polylog_nonpos_orders(61, 1e6 + 0j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the note is returned, not warned
            values, note = polylog_nonpos_orders(3, 1.0 + 1e-13)
        assert "pole" in note and all(math.isfinite(v.real) for v in values)
        assert polylog_nonpos_orders(3, 0.5)[1] is None

    def test_rejects_negative_order(self):
        with pytest.raises(DomainError):
            polylog_nonpos(-1, 0.5)

    def test_coefficients_are_eulerian(self):
        # the float rows the evaluator runs Horner's rule on, highest power first
        assert _horner_rows(5)[4] == (1.0, 11.0, 11.0, 1.0)
        assert _horner_rows(5)[0] == (1.0,)


def test_harmonic_number_matches_direct_sum():
    for k in (1, 2, 5):
        for n in (0, 1, 7, 100):
            direct = math.fsum(j ** (-float(k)) for j in range(1, n + 1))
            assert harmonic_number(k, n) == pytest.approx(direct, rel=5e-15, abs=1e-15)
