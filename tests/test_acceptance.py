"""Acceptance criteria, one test per guarantee.

``pytest tests/test_acceptance.py -v`` prints one pass/fail line per
criterion.  Every test measures its own wall time and asserts the stated
runtime budget on top of the numeric tolerance; reference values come from
the independent oracles in ``tests._oracles``, never from the code under
test.
"""

import cmath
import csv
import io
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from hurzeta.genfun import (
    genfun_closed,
    genfun_series,
    odd_zeta_integral,
    radius_of_convergence,
    sinh_kernel,
    sinh_kernel_series,
    sinh_series_depth,
    zeta_from_genfun,
)
from hurzeta.hurwitz import (
    ZetaParams,
    bracket_kernel,
    bracket_scale,
    hurwitz_zeta,
    zeta_auto,
)
from hurzeta.validation import (
    log_asymptotic_scan,
    theorem1_scan,
    zero_integral_scan,
)

from _oracles import catalan_constant, hurwitz_direct, riemann_zeta

SEED = 20260818


class _Budget:
    """Context manager asserting the criterion's runtime budget."""

    def __init__(self, seconds: float, label: str):
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            return False
        elapsed = time.perf_counter() - self.t0
        print(f"[{self.label}] elapsed {elapsed:.2f}s (budget {self.seconds:g}s)")
        assert elapsed < self.seconds, (
            f"{self.label} took {elapsed:.2f}s, budget {self.seconds:g}s"
        )
        return False


def test_criterion_01_catalan_closed_form():
    with _Budget(1.0, "criterion 1"):
        exact = -16.0 + math.pi**2 + 8.0 * catalan_constant()
        v = hurwitz_zeta(ZetaParams.create(2, 1.25)).total
        rel = abs(v - exact) / abs(exact)
        print(f"[criterion 1] zeta(2, 5/4) rel error {rel:.2e} (<= 1e-10)")
        assert rel <= 1e-10

        g = zeta_from_genfun(2, 1.25, radius=0.3, nodes=32)
        rel_g = abs(g - exact) / abs(exact)
        print(f"[criterion 1] coefficient recovery rel error {rel_g:.2e} (<= 1e-6)")
        assert rel_g <= 1e-6


def test_criterion_02_oracle_grid():
    with _Budget(30.0, "criterion 2"):
        ks = range(2, 11)
        bs = (0.25, 0.5, 1.25, 2.0, 3.75, 1 + 0.5j, 2 + 1j, 0.6 - 0.2j)
        worst = 0.0
        worst_at = None
        for k in ks:
            for b in bs:
                value, _, _ = zeta_auto(k, complex(b))
                oracle = hurwitz_direct(k, complex(b))
                rel = abs(value - oracle) / (1.0 + abs(oracle))
                if rel > worst:
                    worst, worst_at = rel, (k, b)
        print(f"[criterion 2] 72 points, worst scaled error {worst:.2e} "
              f"at (k, b) = {worst_at} (<= 1e-8)")
        assert worst <= 1e-8


def test_criterion_03_endpoint_identity():
    with _Budget(5.0, "criterion 3"):
        rng = np.random.default_rng(SEED)
        checked = 0
        worst = 0.0
        while checked < 300:
            k = int(rng.integers(2, 13))
            re_b = float(rng.uniform(0.05, 6.0))
            im_b = 0.0 if rng.uniform() < 0.3 else float(rng.uniform(-2.5, 2.5))
            if im_b == 0.0 and abs(re_b - round(re_b)) < 1e-6:
                continue
            b = complex(re_b, im_b)
            if abs(1.0 - cmath.exp(-2j * math.pi * b)) < 1e-3:
                continue
            params = ZetaParams.create(k, b)
            g0 = abs(complex(bracket_kernel(params, 0.0)))
            worst = max(worst, g0 / bracket_scale(params))
            checked += 1
        print(f"[criterion 3] 300 draws, worst scaled endpoint residual "
              f"{worst:.2e} (<= 1e-11)")
        assert worst <= 1e-11


def test_criterion_04_realness_and_shift():
    with _Budget(10.0, "criterion 4"):
        worst_im = 0.0
        worst_shift = 0.0
        for k in range(2, 9):
            for b in (0.25, 0.5, 1.25, 2.2, 3.75):
                z1 = hurwitz_zeta(ZetaParams.create(k, b)).total
                # shifted companion is an off-grid helper for the recurrence
                # check only; the realness bound applies to the grid itself
                z2 = hurwitz_zeta(ZetaParams.create(k, b + 1)).total
                worst_im = max(worst_im, abs(z1.imag) / (1.0 + abs(z1)))
                worst_shift = max(worst_shift, abs(z1 - z2 - b ** float(-k)))
        print(f"[criterion 4] worst scaled |Im| {worst_im:.2e} (<= 1e-10); "
              f"worst shift residual {worst_shift:.2e} (<= 1e-9)")
        assert worst_im <= 1e-10
        assert worst_shift <= 1e-9


def _accept_genfun(x, b, integer_b):
    """Stand clear of the active branch's guard loci.

    The generic branch trips on 2b, x-b, and 2(x-b) near integers; the
    integer-b branches have no b-dependent loci and instead guard x and 2x
    near nonzero integers.
    """
    x, b = complex(x), complex(b)
    xmb = x - b
    if abs(xmb) < 0.05 or abs(x) >= 0.85 * radius_of_convergence(b):
        return False
    if integer_b:
        loci = (x, 2 * x)
    else:
        if abs(2 * b - round((2 * b).real)) < 1e-2:  # includes half-integer b
            return False
        loci = (xmb, 2 * xmb)
    return all(
        abs(w - round(w.real)) >= 5e-2 or round(w.real) == 0 for w in loci
    )


def test_criterion_05_genfun_branches():
    with _Budget(60.0, "criterion 5"):
        rng = np.random.default_rng(SEED + 5)
        branches = {
            "generic": None,
            "b_zero": [0.0],
            "b_pos_int": [1.0, 2.0, 3.0],
            "b_neg_int": [-1.0, -2.0],
        }
        worst = {}
        for tag, b_pool in branches.items():
            done = 0
            w = 0.0
            while done < 25:
                if b_pool is None:
                    b = complex(rng.uniform(0.15, 2.2), rng.uniform(-0.7, 0.7))
                else:
                    b = complex(b_pool[done % len(b_pool)])
                r = radius_of_convergence(b)
                x = complex(rng.uniform(-0.75, 0.75),
                            rng.uniform(-0.4, 0.4)) * 0.8 * r
                if b_pool is None and abs(b - round(b.real)) < 0.05:
                    continue
                if not _accept_genfun(x, b, integer_b=b_pool is not None):
                    continue
                ev = genfun_closed(x, b)
                s = genfun_series(x, b, 120)
                err = abs(ev.total - s.value)
                assert err <= max(1e-6, s.tail_estimate), (tag, x, b, err)
                w = max(w, err)
                done += 1
            worst[tag] = w
        for tag, w in worst.items():
            print(f"[criterion 5] {tag}: 25 draws, worst |closed - series| "
                  f"{w:.2e} (<= 1e-6)")

        for b in (0.37, 0.21 - 0.13j, 0.8 + 0.3j):
            ev = genfun_closed(2 * b, b)
            assert abs(ev.integral_term) <= 1e-9, b
        print("[criterion 5] integral term at x = 2b <= 1e-9 at 3 points")


def test_criterion_06_odd_zeta_values():
    with _Budget(10.0, "criterion 6"):
        worst = 0.0
        for j in range(1, 6):
            val = odd_zeta_integral(j)
            ref = riemann_zeta(2 * j + 1)
            rel = abs(val - ref) / ref
            worst = max(worst, rel)
        print(f"[criterion 6] zeta(3..11 odd), worst rel error {worst:.2e} "
              f"(<= 1e-9)")
        assert worst <= 1e-9


def test_criterion_07_partial_sum_decay():
    with _Budget(120.0, "criterion 7"):
        ns = [100, 1000, 10000]
        for k in (0, 1, 3):
            rep = theorem1_scan(k, ns)
            if k == 3:
                print(f"[criterion 7] k=3 fitted decay rate {rep.fitted_rate:.3f} "
                      f"(in [0.8, 1.2])")
                assert 0.8 <= rep.fitted_rate <= 1.2
            else:
                # the u**k - u weight vanishes in the integral for k in {0, 1}:
                # deviations sit at rounding level, so a decay fit is vacuous
                print(f"[criterion 7] k={k} exactness verdict {rep.verdict} "
                      f"(max dev {max(rep.deviations):.1e})")
                assert rep.verdict == "pass"
        zrep = zero_integral_scan([1, 17, 100])
        zworst = max(zrep.deviations)
        print(f"[criterion 7] zero-integral n <= 100, worst |value| "
              f"{zworst:.2e} (<= 1e-8)")
        assert zworst <= 1e-8


def test_criterion_08_log_asymptotic():
    with _Budget(120.0, "criterion 8"):
        ns = [100, 1000, 10000]
        for k in (2.0, 3.0):
            rep = log_asymptotic_scan(k, ns)
            devs = list(rep.deviations)
            ratios = [devs[i] / devs[i + 1] for i in range(len(devs) - 1)]
            print(f"[criterion 8] k={k:g} residual deviations "
                  f"{[f'{d:.2e}' for d in devs]}, decade ratios "
                  f"{[f'{r:.1f}' for r in ratios]} (each >= 2)")
            assert all(r >= 2.0 for r in ratios)


def test_criterion_09_sinh_kernel():
    with _Budget(1.0, "criterion 9"):
        rng = np.random.default_rng(SEED + 9)
        worst = 0.0
        for _ in range(20):
            c = float(rng.uniform(0.2, 2.9)) * cmath.exp(
                2j * math.pi * float(rng.uniform())
            )
            u = float(rng.uniform())
            depth = sinh_series_depth(abs(c), tol=1e-12)
            got = sinh_kernel_series(c, u, depth)
            want = sinh_kernel(c, u)
            worst = max(worst, abs(got - want))
        print(f"[criterion 9] 20 draws, worst |series - closed| {worst:.2e} "
              f"(<= 1e-10)")
        assert worst <= 1e-10


def test_criterion_10_cli_contract(tmp_path):
    base = [sys.executable, "-m", "hurzeta"]

    def run(*args):
        return subprocess.run(base + list(args), capture_output=True,
                              text=True, timeout=60)

    def signature(text):
        def strip(node):
            if isinstance(node, dict):
                return {k: strip(v) for k, v in sorted(node.items())
                        if k not in ("timing_s", "wall_time_s")}
            if isinstance(node, list):
                return [strip(v) for v in node]
            return node

        return json.dumps(strip(json.loads(text)), sort_keys=True)

    with _Budget(10.0, "criterion 10"):
        a = run("eval", "--k", "2", "--b", "1.25", "--format", "json")
        assert a.returncode == 0
        assert json.loads(a.stdout)["results"][0]["discrepancy_rel"] < 1e-10
        b = run("eval", "--k", "2", "--b", "1.25", "--format", "json")
        assert signature(a.stdout) == signature(b.stdout)

        assert run("eval", "--k", "1", "--b", "0.5").returncode == 2
        bad = run("eval", "--k", "200", "--b", "0.5", "--format", "json")
        assert bad.returncode == 3
        assert json.loads(bad.stdout)["results"][0]["status"] == "error"
        assert run("genfun", "--x", "0.2", "--b", "0.5").returncode == 3

        args = ("sweep", "--k", "2,3", "--b", "0.3:1.3:3", "--format", "csv")
        c1, c2 = run(*args), run(*args)
        assert c1.returncode == 0

        def stable(text):
            return [{k: v for k, v in row.items() if k != "timing_s"}
                    for row in csv.DictReader(io.StringIO(text))]

        rows = stable(c1.stdout)
        assert rows == stable(c2.stdout)
        assert len(rows) == 6
        print("[criterion 10] exit codes 0/2/3 and JSON/CSV determinism hold "
              "over the scripted session")
