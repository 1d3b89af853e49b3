"""Numerical kernels: the kernel set and a few analytic anchors."""

import inspect

import numpy as np
import pytest

from hurzeta import kernels

KERNELS = {
    "cot_pi", "poly_exp_gap", "sin_ratio_gap", "sin_ratio_ucos_gap",
    "sinh_ratio_gap", "pow_sin_cot", "one_minus_cos_cot",
    "decay_one_minus_cos_cot", "inv_power_sum",
}


def test_kernel_set_is_complete():
    assert len(kernels.__all__) == len(KERNELS)
    assert set(kernels.__all__) == KERNELS
    for name in kernels.__all__:
        fn = getattr(kernels, name)
        assert inspect.isfunction(fn), name
        assert fn.__module__ == "hurzeta.kernels", name
        assert fn.__name__ == name


def test_cot_pi_anchors():
    u = np.array([0.25, 0.5, 0.75])
    v = kernels.cot_pi(u)
    assert v == pytest.approx([1.0, 0.0, -1.0], abs=1e-15)


def test_cot_pi_antisymmetry():
    u = np.linspace(0.01, 0.49, 23)
    assert kernels.cot_pi(1.0 - u) == pytest.approx(-kernels.cot_pi(u), rel=1e-14)


def test_inv_power_sum_is_plain_sum():
    # the j1 bound is inclusive
    b, k = 1.3 + 0.4j, 4
    brute = sum((j + b) ** (-k) for j in range(2, 38))
    assert kernels.inv_power_sum(b, k, 2, 37) == pytest.approx(brute, rel=1e-14)


def test_poly_exp_gap_matches_direct_evaluation():
    u = np.linspace(0.0, 1.0, 9)
    coeffs = np.array([0.4 - 0.2j, 0.1j, -0.3 + 0.05j])
    c = -2j * np.pi * (1.2 + 0.3j)
    offset = 0.07 - 0.02j
    direct = (coeffs[0] * u**2 + coeffs[1] * u + coeffs[2]) * np.exp(c * u) - offset
    assert kernels.poly_exp_gap(u, coeffs, c, offset) == pytest.approx(direct, rel=1e-13)


def test_pow_sin_cot_is_product():
    u = np.linspace(0.1, 0.9, 7)
    n = 17
    direct = u**3 * np.sin(2 * np.pi * n * u) / np.tan(np.pi * u)
    assert kernels.pow_sin_cot(u, 3.0, n) == pytest.approx(direct, rel=1e-12)


def test_one_minus_cos_cot_is_reflected_product():
    # evaluates at the reflected abscissa: (1-cos(2*pi*n*(1-u))) cot(pi*(1-u))
    u = np.linspace(0.1, 0.9, 7)
    n = 9
    direct = (1 - np.cos(2 * np.pi * n * (1 - u))) / np.tan(np.pi * (1 - u))
    assert kernels.one_minus_cos_cot(u, n) == pytest.approx(direct, rel=1e-12)


def test_decay_one_minus_cos_cot_is_product():
    u = np.linspace(0.1, 0.9, 7)
    n = 9
    direct = (1 - u) ** 2 * (1 - np.cos(2 * np.pi * n * u)) / np.tan(np.pi * u)
    assert kernels.decay_one_minus_cos_cot(u, 2.0, n) == pytest.approx(direct, rel=1e-12)


def _scan_abscissae(n):
    """Random u, both ends and the middle, and the odd quarter-period nodes
    (2j+1)/(4n), where tan(pi*n*r) is largest."""
    rng = np.random.default_rng(n)
    ends = [1e-12, 1e-8, 0.5, 1 - 1e-8, 1 - 1e-12]
    return np.concatenate([rng.uniform(0.0, 1.0, 4000), ends,
                           (2 * np.arange(2 * n) + 1) / (4 * n)])


@pytest.mark.parametrize("n", [1, 17, 100, 10_000])
def test_scan_kernels_match_their_sine_forms(n):
    # the scan kernels take their sines from t = tan(pi*n*r) by half-angle
    # identities; the references are the reduced products written with sin
    u = _scan_abscissae(n)
    r = u - np.floor(u + 0.5)
    s = np.sin((np.pi * n) * r)
    tan = np.tan(np.pi * r)
    pairs = [
        (kernels.pow_sin_cot(u, 3.0, n), u**3 * np.sin((2 * np.pi * n) * r) / tan),
        (kernels.pow_sin_cot(u, 0.0, n), np.sin((2 * np.pi * n) * r) / tan),
        (kernels.one_minus_cos_cot(u, n), -2.0 * s * s / tan),
        (kernels.decay_one_minus_cos_cot(u, 2.0, n), (1 - u) ** 2 * 2.0 * s * s / tan),
    ]
    for got, ref in pairs:
        assert np.all(np.abs(got - ref) <= 4e-15 * np.maximum(np.abs(ref), 1.0))
