"""Numerical kernels: the kernel set and a few analytic anchors."""

import cmath
import inspect
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from hurzeta import kernels, quadrature

_N_PROBE = quadrature._PROBE.size  # the strip points follow the probe grid

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


def _bracket_like(k):
    """Coefficients (highest power first), ``c`` and offset of a seeded
    bracket of degree ``k - 1``."""
    rng = np.random.default_rng(k)
    coeffs = rng.normal(size=k) + 1j * rng.normal(size=k)
    c = -2j * np.pi * complex(rng.uniform(0.05, 3), rng.uniform(-0.5, 0.5))
    return coeffs, c, complex(rng.normal(), rng.normal())


@pytest.mark.parametrize("k", [1, 2, 7, 24, 170])
def test_poly_exp_gap_on_the_first_pass_line_is_its_copy_bitwise(k):
    # the driver's read-only first-pass line takes its powers from a table
    # kept across calls (here grown past k first); a writable copy gets
    # them computed, by the same products
    line = quadrature._cot_layout().u.ravel()
    assert not line.flags.writeable
    kernels.poly_exp_gap(line, np.ones(171), 0j, 0j)
    coeffs, c, offset = _bracket_like(k)
    got = kernels.poly_exp_gap(line, coeffs, c, offset)
    ref = kernels.poly_exp_gap(line.copy(), coeffs, c, offset)
    assert got.dtype == ref.dtype and got.shape == ref.shape == line.shape
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_poly_exp_gap_shares_its_table_between_threads():
    # threads that grow, read and race over the shared table, with a short
    # switch interval, still get the bits of a writable copy of the line
    line = quadrature._cot_layout().u.ravel()
    ks = [1, 5, 12, 30, 24, 2, 60, 7]
    cases = [(_bracket_like(k), k) for k in ks]
    refs = [kernels.poly_exp_gap(line.copy(), *case) for case, _ in cases]
    kernels._shared = (None, None)  # start from no table
    bad = []

    def work(i):
        for j in range(i, i + 50):
            (case, k), ref = cases[j % len(cases)], refs[j % len(cases)]
            got = kernels.poly_exp_gap(line, *case)
            if not np.array_equal(got.view(np.uint64), ref.view(np.uint64)):
                bad.append((i, k))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


def test_poly_exp_gap_takes_a_long_line_in_blocks():
    # the power table of k = 24 rows over 200,000 abscissae would be 37 MB;
    # in blocks the peak stays under three times the result (3.2 MB)
    u = np.linspace(0.0, 1.0, 200_000)
    coeffs, c, offset = _bracket_like(24)
    tracemalloc.start()
    try:
        got = kernels.poly_exp_gap(u, coeffs, c, offset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * got.nbytes
    block = kernels._POWER_BLOCK
    for i in (0, 7 * block, len(u) // block * block):  # the last block is short
        part = kernels.poly_exp_gap(u[i:i + block], coeffs, c, offset)
        assert np.array_equal(got[i:i + block].view(np.uint64), part.view(np.uint64))


@pytest.mark.parametrize("k", [1, 2, 7, 24, 170])
def test_poly_exp_gap_against_mpmath(k):
    # within 4k eps of the summed sizes of its terms, |c_j u**(k-j) exp(cu)|
    # and |offset|, on the first-pass line (endpoints and margin strips
    # included); a RuntimeWarning is an error here as in the whole suite
    mpmath = pytest.importorskip("mpmath")
    line = quadrature._cot_layout().u.ravel()
    coeffs, c, offset = _bracket_like(k)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = kernels.poly_exp_gap(line, coeffs, c, offset)
    eps = np.finfo(np.float64).eps
    with mpmath.workdps(40):
        cs = [mpmath.mpc(z.real, z.imag) for z in coeffs]
        for u, g in zip(line.tolist(), got.tolist()):
            e = mpmath.exp(mpmath.mpc(c.real, c.imag) * u)
            poly, size = mpmath.mpc(0), mpmath.mpf(0)
            for cj in cs:
                poly = poly * u + cj
                size = size * u + abs(cj)
            ref = poly * e - mpmath.mpc(offset.real, offset.imag)
            bound = 4 * k * eps * (size * abs(e) + abs(offset))
            assert abs(mpmath.mpc(g.real, g.imag) - ref) <= bound, (u, g)


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


@pytest.mark.parametrize("kernel", [kernels.pow_sin_cot, kernels.decay_one_minus_cos_cot])
def test_column_exponents_give_the_bits_of_scalar_ones(kernel):
    # a family row raises u to its order as a scan of that order alone
    # does; numpy squares for a scalar 2 (and takes sqrt for 0.5 and
    # reciprocal for -1) but may take pow for an exponent from an array
    exps = np.array([2.0, 3.0, 0.5, 2.0, 1.0, -1.0, 0.0])
    shared = _scan_abscissae(3)[None, :90]
    col = kernel(shared, exps[:, None], 3)
    assert col.shape == (exps.size, 90)
    for row, e in zip(col, exps):
        assert np.array_equal(row, kernel(shared.ravel(), float(e), 3)), e
    # one line per exponent, as a refinement pass has it
    lines = _scan_abscissae(3)[:exps.size * 15].reshape(exps.size, 15)
    col = kernel(lines, exps[:, None], 3)
    for line, row, e in zip(lines, col, exps):
        assert np.array_equal(row, kernel(line, float(e), 3)), e


def _amplitudes(rows):
    """Complex amplitudes with |Re a| <= 60 and |Im a| <= 25, both limits
    and a real one among them, as a (rows, 1) column."""
    rng = np.random.default_rng(rows)
    n = max(rows, 4)
    a = rng.uniform(-60, 60, n) + 1j * rng.uniform(-25, 25, n)
    a[:4] = [60 + 25j, -60 - 25j, 0.3 + 25j, 17.5]
    return a[:rows, None]


def _cmath_sin(a, u):
    """sin(a*u) by cmath, for a (rows, 1) column ``a`` against ``u`` of one
    line or one line per row."""
    lines = np.broadcast_to(u, (a.shape[0], u.shape[1]))
    return np.array([[cmath.sin(complex(ai) * float(ui)) for ui in line]
                     for ai, line in zip(a[:, 0], lines)])


@pytest.mark.parametrize("rows,shared", [(1, True), (64, True), (64, False)])
def test_genfun_kernel_sines_match_cmath(rows, shared):
    # the genfun kernels take sin(a*u) from tan(x/2), sinh(y) and cosh(y);
    # on the cotangent driver's first-pass abscissae (u = 0, the strip points
    # at 2.5e-9 and the rest), shared by every row as in a first pass or one
    # line per row as in a refinement pass
    u = quadrature._cot_layout().u
    assert u[0, 0] == 0.0 and u[0, _N_PROBE] == 2.5e-9
    if not shared:
        u = np.repeat(u, rows, axis=0)
    a = _amplitudes(rows)
    ref = _cmath_sin(a, u)
    ones = np.ones((rows, 1))
    # sin(0*u) is exactly 0, so the second term of sin_ratio_gap drops out
    got = kernels.sin_ratio_gap(u, a, ones, 0j, 1.0)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 2e-15 * np.abs(ref))
    assert np.all(got[:, 0] == 0)
    # sin_ratio_ucos_gap subtracts u*cos(w*u) last: its rounding, at most one
    # half ulp of the result, comes on top
    w = 2 * np.pi * 3
    term = u * np.cos(w * u)
    got = kernels.sin_ratio_ucos_gap(u, a, ones, w)
    want = ref - term
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - want) <= 2e-15 * np.abs(ref) + eps * np.abs(want))
    assert np.all(got[:, 0] == 0)


def test_genfun_kernel_of_a_scalar_amplitude():
    # the b-only term of a family is one scalar amplitude against every row
    u = quadrature._cot_layout().u
    a = 4.2 - 19.5j
    got = kernels.sin_ratio_gap(u, a, 1.0, 0j, 1.0)
    ref = _cmath_sin(np.array([[a]]), u)
    assert np.all(np.abs(got - ref) <= 2e-15 * np.abs(ref))
    assert got[0, 0] == 0


@pytest.mark.parametrize("rows,shared", [(64, True), (200, True), (64, False)])
def test_genfun_sines_run_in_blocks_with_the_bits_of_one_pass(monkeypatch, rows, shared):
    # in one pass, a 64-node recovery's first pass (65 x 189 values) needs
    # ~0.6 MB of temporaries, which glibc can hand back to the kernel after
    # every call and fault in again at the next
    u = quadrature._cot_layout().u
    if not shared:
        u = np.repeat(u, rows, axis=0)
    a = _amplitudes(rows)
    whole = kernels._sines(a, u)
    sizes = []
    sines = kernels._sines
    monkeypatch.setattr(kernels, "_sines",
                        lambda a, u, s: (sizes.append(s.size), sines(a, u, s)))
    assert np.array_equal(kernels._sin_complex(a, u), whole)
    assert len(sizes) > 1 and max(sizes) <= kernels._SINE_BLOCK
    assert sum(sizes) == whole.size


@pytest.mark.parametrize("rows", [1, 64])
def test_shared_line_takes_both_sines_in_one_call(monkeypatch, rows):
    # with one line of abscissae shared by every row, the b-only sines are
    # one more row of the same call, and the bits are those of two calls
    u = quadrature._cot_layout().u
    a1 = _amplitudes(rows)
    s1inv = 1.0 / np.sin(a1)
    a2, s2inv = 4.2 - 19.5j, 0.3 + 0.1j
    want = kernels._sin_complex(a1, u) * s1inv - kernels._sin_complex(a2, u) * s2inv
    calls = []
    sin_complex = kernels._sin_complex
    monkeypatch.setattr(kernels, "_sin_complex",
                        lambda a, u: (calls.append(np.shape(a)), sin_complex(a, u))[1])
    assert np.array_equal(kernels.sin_ratio_gap(u, a1, s1inv, a2, s2inv), want)
    assert calls == [(rows + 1, 1)]
