"""Black-box CLI checks: exit codes, schemas, determinism.

Everything but the last test goes through ``python -m hurzeta`` in a
subprocess and reaches into nothing but ``envelope_signature``, the
canonical form of the determinism contract, so these tests pin the
observable contract scripts will depend on.  (The memory guard starts the package
with ``runpy`` under ``python -c``, so that each child can print its own
peak memory.)  The last one runs ``main`` in process to count the work a
record does.
"""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

from hurzeta.cli import envelope_signature

BASE = [sys.executable, "-m", "hurzeta"]


def run(*args, **kw):
    return subprocess.run(BASE + list(args), capture_output=True, text=True,
                          timeout=120, **kw)



class TestEval:
    def test_happy_path_json(self):
        p = run("eval", "--k", "2", "--b", "1.25", "--format", "json")
        assert p.returncode == 0, p.stderr
        doc = json.loads(p.stdout)
        rec = doc["results"][0]
        assert rec["route"] == "closed-form"
        assert rec["value"]["re"] == pytest.approx(1.1973291545071153, rel=1e-12)
        assert rec["discrepancy_rel"] < 1e-10
        assert doc["config_echo"]["params"]["k"] == 2

    def test_complex_b_parsing(self):
        for spelling in ("1+0.5i", "1+0.5j", "1,0.5"):
            p = run("eval", "--k", "3", "--b", spelling, "--format", "json")
            assert p.returncode == 0, (spelling, p.stderr)
            rec = json.loads(p.stdout)["results"][0]
            assert rec["b"] == {"re": 1.0, "im": 0.5}

    def test_integer_b_routes_to_series_with_reason(self):
        p = run("eval", "--k", "2", "--b", "2", "--format", "json")
        assert p.returncode == 0
        rec = json.loads(p.stdout)["results"][0]
        assert rec["route"] == "series"
        assert rec["route_reason"] == "integer b"
        assert rec["estimate"] == 1e-10
        assert "breakdown" not in rec and "notice" not in rec

    def test_usage_errors_exit_2(self):
        assert run("eval", "--k", "1", "--b", "0.5").returncode == 2
        assert run("eval", "--k", "2", "--b", "0").returncode == 2
        assert run("eval", "--k", "2", "--b", "not-a-number").returncode == 2
        assert run("nonsense-command").returncode == 2

    def test_numeric_failures_exit_3_with_envelope(self):
        # the closed form does not converge here, and the series would need
        # 1e9 terms
        p = run("eval", "--k", "2", "--b=-1e9,0.5", "--format", "json")
        assert p.returncode == 3
        rec = json.loads(p.stdout)["results"][0]
        assert rec["status"] == "error"
        assert rec["error_type"] == "CapacityError"
        assert "error:" in p.stderr

    def test_negative_real_part_without_equals_sign(self):
        # argparse alone reads "-1.5,0.5" as an unknown option and exits 2
        p = run("eval", "--k", "2", "--b", "-1.5,0.5", "--format", "json")
        assert p.returncode == 0, p.stderr
        assert json.loads(p.stdout)["results"][0]["b"] == {"re": -1.5, "im": 0.5}
        p = run("eval", "--k", "2", "--b", "-1e9,0.5", "--format", "json")
        assert p.returncode == 3, p.stderr
        assert json.loads(p.stdout)["results"][0]["error_type"] == "CapacityError"

    def test_polylog_past_double_range_falls_back_to_series(self):
        # the polylogarithms are evaluated 2e-14 from their pole, and
        # Li_{-21} is past double range; once a traceback, exit 1, then a
        # RangeOverflowError and exit 3
        p = run("eval", "--k", "24", "--b", "1.999999999999997,1e-15",
                "--format", "json")
        assert p.returncode == 0, p.stderr
        rec = json.loads(p.stdout)["results"][0]
        assert rec["route"] == "series" and rec["verdict"] == "pass"
        assert rec["route_reason"].startswith("RangeOverflowError: Li_(-21)")
        assert "Traceback" not in p.stderr

    def test_imaginary_b_past_double_range_falls_back_to_series(self):
        # exp(2*pi*400) in the closed form's refusal message once overflowed
        # first: a bare OverflowError, a traceback and exit 1
        mpmath = pytest.importorskip("mpmath")
        p = run("eval", "--k", "2", "--b", "0.5,400", "--format", "json")
        assert p.returncode == 0, p.stderr
        assert "Traceback" not in p.stderr
        rec = json.loads(p.stdout)["results"][0]
        assert rec["route"] == "series" and rec["verdict"] == "pass"
        assert rec["route_reason"].startswith("RangeOverflowError: |Im b| = 400")
        with mpmath.workdps(30):
            ref = complex(mpmath.zeta(2, mpmath.mpc(0.5, 400)))
        value = complex(rec["value"]["re"], rec["value"]["im"])
        assert abs(value - ref) <= 1e-10 * abs(ref)

    def test_huge_k_on_the_series_route_exits_3(self):
        # b = 2 takes the series route, whose coefficients overflow at this
        # k; once a traceback and exit 1
        p = run("eval", "--k", "10000000000000000", "--b", "2", "--format", "json")
        assert p.returncode == 3
        rec = json.loads(p.stdout)["results"][0]
        assert rec["status"] == "error"
        assert rec["error_type"] == "RangeOverflowError"
        assert "Traceback" not in p.stderr

    def test_determinism_modulo_timing(self):
        a = run("eval", "--k", "4", "--b", "0.6-0.2i", "--format", "json")
        b = run("eval", "--k", "4", "--b", "0.6-0.2i", "--format", "json")
        assert envelope_signature(json.loads(a.stdout)) == envelope_signature(
            json.loads(b.stdout))

    def test_output_file(self, tmp_path):
        out = tmp_path / "r.json"
        p = run("eval", "--k", "2", "--b", "1.25", "--format", "json",
                "--output", str(out))
        assert p.returncode == 0
        assert json.loads(out.read_text())["results"][0]["k"] == 2

    def test_human_format_mentions_all_terms(self):
        p = run("eval", "--k", "2", "--b", "1.25", "--format", "human")
        assert p.returncode == 0
        for label in ("1/(2 b^k)", "polylog single", "polylog sum",
                      "integral term", "total", "summary:"):
            assert label in p.stdout


    def test_cancelling_closed_form_falls_back_and_passes(self):
        # the closed form returns 9.3e-10+3.4e-9i, estimated 7e4 relative;
        # zeta(12, 7.3) is 5.6e-11
        p = run("eval", "--k", "12", "--b", "7.3", "--format", "json")
        assert p.returncode == 0, p.stderr
        doc = json.loads(p.stdout)
        rec = doc["results"][0]
        assert rec["route"] == "series" and rec["verdict"] == "pass"
        assert rec["route_reason"] == "estimate 7e+04 > 1e-10"
        assert rec["value"]["re"] == pytest.approx(5.6495e-11, rel=1e-4)
        assert doc["summary"]["fail"] == 0

    def test_records_say_how_the_value_was_checked(self):
        # a series record passes on its own bound and carries no oracle; a
        # closed-form record carries its independent oracle and discrepancy
        p = run("eval", "--k", "2", "--b", "2", "--format", "json")
        rec = json.loads(p.stdout)["results"][0]
        assert "oracle" not in rec and "discrepancy_rel" not in rec
        assert "cross_check" not in rec
        p = run("eval", "--k", "2", "--b", "1.25", "--format", "json")
        rec = json.loads(p.stdout)["results"][0]
        assert rec["route"] == "closed-form" and "cross_check" not in rec
        assert rec["discrepancy_rel"] <= rec["estimate"] <= 1e-10
        assert rec["route_reason"] == f"estimate {rec['estimate']:.0e} <= 1e-10"

    @pytest.mark.parametrize("args", [
        ("eval", "--k", "3", "--b", "0.3", "--rel-tol", "nan"),
        ("eval", "--k", "3", "--b", "0.3", "--abs-tol", "inf"),
        ("genfun", "--x", "0.3", "--b", "0.4", "--rel-tol", "nan"),
        ("eval", "--k", "3", "--b", "0.3", "--rel-tol", "inf"),
        ("eval", "--k", "3", "--b", "0.3", "--rel-tol", "-0.5"),
        ("eval", "--k", "3", "--b", "0.3", "--abs-tol", "0"),
        ("eval", "--k", "3", "--b", "0.3", "--max-subdivisions", "-1"),
    ])
    def test_non_finite_tolerance_exits_2(self, args):
        # a NaN tolerance once made the quadrature refine forever; the
        # message is QuadratureSpec's own, behind the flag it came from
        p = run(*args)  # under a timeout
        assert p.returncode == 2, p.stderr
        flag, field = args[-2], args[-2][2:].replace("-", "_")
        assert f"error: {flag}: {field} must" in p.stderr, p.stderr
        assert "Traceback" not in p.stderr

    @pytest.mark.parametrize("flag", ["--max-subdivisions", "--rel-tol"])
    def test_zero_budget_or_relative_tolerance_is_accepted(self, flag):
        # QuadratureSpec takes both: no subdivision (first pass only), or an
        # absolute target alone; the CLI refused them with exit 2
        p = run("eval", "--k", "3", "--b", "0.3", flag, "0")
        assert p.returncode == 0, p.stderr
        rec = json.loads(p.stdout)["results"][0]
        assert rec["status"] == "ok" and rec["verdict"] == "pass"

    def test_non_finite_b_exits_2(self):
        assert run("eval", "--k", "2", "--b", "nan").returncode == 2


class TestGenfun:
    def test_grid_evaluation(self):
        p = run("genfun", "--x", "0.2", "--b", "0.77", "--format", "json")
        assert p.returncode == 0
        rec = json.loads(p.stdout)["results"][0]
        assert rec["status"] == "ok"
        assert rec["case"] == "generic"

    @pytest.mark.parametrize("x,b", [("nan", "1.3"), ("0.2", "nan"), ("inf", "1.3"),
                                     ("0.1:nan:3", "1.3"), ("0.2", "0,inf")])
    def test_non_finite_input_exits_2(self, x, b):
        # once a traceback and exit 1
        p = run("genfun", "--x", x, "--b", b)
        assert p.returncode == 2, p.stderr
        assert "must be finite" in p.stderr and "Traceback" not in p.stderr

    def test_half_integer_b_passes_its_series_check(self):
        # half-integer b was once refused: an "unsupported" record and exit 3
        p = run("genfun", "--x", "0.2", "--b", "0.5", "--series-kmax", "60",
                "--format", "json")
        assert p.returncode == 0, p.stderr
        rec = json.loads(p.stdout)["results"][0]
        assert rec["status"] == "ok" and rec["case"] == "b_half_int"
        assert rec["verdict"] == "pass"
        assert rec["series_discrepancy"] < 1e-12

    def test_any_failed_point_exits_3(self):
        # x = 0.77 = b is ill-conditioned; x = 0.3 passes
        p = run("genfun", "--x", "0.3:0.77:2", "--b", "0.77", "--format", "json")
        assert p.returncode == 3
        doc = json.loads(p.stdout)
        assert [r["status"] for r in doc["results"]] == ["ok", "ill_conditioned"]
        assert doc["summary"]["fail"] == 1

    def test_series_cross_check_flag(self):
        p = run("genfun", "--x", "0.2", "--b", "0.77", "--series-kmax", "100",
                "--format", "json")
        assert p.returncode == 0
        rec = json.loads(p.stdout)["results"][0]
        assert rec["series_discrepancy"] < 1e-10

    def test_series_miss_exits_3(self):
        # near x = 0 the closed form cancels O(1) terms down to the O(x^2)
        # answer: at (1e-4, 4) it misses the series by 7e-4 relative
        p = run("genfun", "--x", "1e-4", "--b", "4", "--series-kmax", "40",
                "--format", "json")
        assert p.returncode == 3
        doc = json.loads(p.stdout)
        rec = doc["results"][0]
        assert rec["status"] == "ok" and rec["verdict"] == "fail"
        series = abs(complex(rec["series_value"]["re"], rec["series_value"]["im"]))
        assert rec["series_discrepancy"] > 1e-4 * series
        assert doc["summary"]["fail"] == 1

    def test_series_cross_check_passes_inside_the_radius(self):
        p = run("genfun", "--x", "0.05:0.45:9", "--b", "0.77", "--series-kmax", "120",
                "--format", "json")
        assert p.returncode == 0
        rows = json.loads(p.stdout)["results"]
        assert [r["verdict"] for r in rows] == ["pass"] * 9
        assert max(r["series_discrepancy"] for r in rows) < 1e-12

    def test_grid_of_x_values(self):
        p = run("genfun", "--x", "0.05:0.25:5", "--b", "0.77",
                "--format", "json")
        assert p.returncode == 0
        rows = json.loads(p.stdout)["results"]
        assert len(rows) == 5
        assert [r["x"]["re"] for r in rows] == pytest.approx(
            [0.05, 0.1, 0.15, 0.2, 0.25])


    def test_negative_grid_and_b_without_equals_sign(self):
        p = run("genfun", "--x", "-0.2:-0.1:2", "--b", "-1.3,0.2", "--format", "json")
        assert p.returncode == 0, p.stderr
        rows = json.loads(p.stdout)["results"]
        assert [r["x"]["re"] for r in rows] == [-0.2, -0.1]
        assert rows[0]["b"] == {"re": -1.3, "im": 0.2}


class TestOddzeta:
    def test_range(self):
        p = run("oddzeta", "--j", "1-3", "--format", "json")
        assert p.returncode == 0
        rows = json.loads(p.stdout)["results"]
        assert [r["j"] for r in rows] == [1, 2, 3]
        assert all(r["relative_discrepancy"] <= 1e-9 for r in rows)
        assert rows[0]["zeta_argument"] == 3

    def test_out_of_range_exits_2(self):
        assert run("oddzeta", "--j", "0").returncode == 2
        assert run("oddzeta", "--j", "25").returncode == 2


class TestValidate:
    def test_single_suite(self):
        p = run("validate", "--suite", "endpoint-identity", "--format", "json")
        assert p.returncode == 0
        doc = json.loads(p.stdout)
        assert doc["summary"]["fail"] == 0

    def test_seed_changes_draws_not_verdict(self):
        a = run("validate", "--suite", "endpoint-identity", "--seed", "7",
                "--format", "json")
        b = run("validate", "--suite", "endpoint-identity", "--seed", "8",
                "--format", "json")
        assert a.returncode == b.returncode == 0
        ra = json.loads(a.stdout)["results"][0]
        rb = json.loads(b.stdout)["results"][0]
        assert ra["worst_scaled_endpoint_residual"] != \
            rb["worst_scaled_endpoint_residual"]

    def test_unknown_suite_exits_2(self):
        assert run("validate", "--suite", "bogus").returncode == 2

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_scans_peak_near_eval(self):
        # the n = 10**4 scans once passed 600k abscissae to one integrand
        # call and peaked 24 MiB above eval, and numpy.random, loaded for the
        # endpoint-identity draws alone, added 5.4 MiB more.  A sibling
        # child, not a fixed figure, is the baseline, so the numpy build
        # does not matter.  Each child reads its own VmHWM: ru_maxrss would
        # keep the peak of this process, which it inherits through fork and
        # exec.
        code = ("import runpy, sys\n"
                "try:\n"
                "    runpy.run_module('hurzeta', run_name='__main__', alter_sys=True)\n"
                "except SystemExit:\n"
                "    pass\n"
                "with open('/proc/self/status') as status:\n"
                "    print([s for s in status if s.startswith('VmHWM:')][0], end='', file=sys.stderr)\n"
                "print('numpy.random' in sys.modules, file=sys.stderr)\n")

        def peak_mib(*args):
            p = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                               text=True, timeout=120)
            *_, hwm, loaded = p.stderr.splitlines()
            assert loaded == "False", args  # no command loads numpy.random
            return int(hwm.split()[-2]) / 1024  # "VmHWM:  33520 kB"

        scans = peak_mib("validate", "--suite", "all")
        one = peak_mib("eval", "--k", "3", "--b", "0.3")
        assert scans <= one + 3.0, (scans, one)

    def test_oracle_grid_sends_small_values_to_the_series(self):
        # zeta(10, 3.75) is 5.7e-6 against O(10) terms: once a failed record
        p = run("validate", "--suite", "oracle-grid", "--format", "json")
        assert p.returncode == 0, p.stderr
        results = json.loads(p.stdout)["results"]
        assert all(r["verdict"] == "pass" for r in results)
        series = {(r["k"], r["b"]["re"], r["b"]["im"])
                  for r in results if r["route"] == "series"}
        assert (10, 3.75, 0.0) in series


class TestSweep:
    def test_negative_grid_without_equals_sign(self):
        p = run("sweep", "--k", "2", "--b", "-1.5:-0.5:2", "--b-im", "-1e-1",
                "--format", "json")
        assert p.returncode == 0, p.stderr
        bs = [r["b"] for r in json.loads(p.stdout)["results"]]
        assert bs == [{"re": -1.5, "im": -0.1}, {"re": -0.5, "im": -0.1}]

    def test_csv_shape_and_determinism(self):
        args = ("sweep", "--k", "2,3,4", "--b", "0.3:3.3:7", "--format", "csv")
        a = run(*args)
        b = run(*args)
        assert a.returncode == 0

        def stable(text):
            rows = list(csv.DictReader(io.StringIO(text)))
            return [{k: v for k, v in r.items() if k != "timing_s"}
                    for r in rows]

        assert stable(a.stdout) == stable(b.stdout)
        rows = stable(a.stdout)
        assert len(rows) == 21
        assert all(r["status"] == "ok" for r in rows)
        # every numeric cell must round-trip as float at 17 digits
        v = float(rows[0]["value_re"])
        assert f"{v:.17g}" == rows[0]["value_re"]
        float(rows[0]["discrepancy_rel"])
        float(rows[-1]["estimate"])

    def test_json_csv_value_agreement(self):
        j = run("sweep", "--k", "2", "--b", "0.3:1.3:2", "--format", "json")
        c = run("sweep", "--k", "2", "--b", "0.3:1.3:2", "--format", "csv")
        jrows = json.loads(j.stdout)["results"]
        crows = list(csv.DictReader(io.StringIO(c.stdout)))
        assert len(jrows) == len(crows) == 2
        for jr, cr in zip(jrows, crows):
            assert float(cr["value_re"]) == jr["value"]["re"]

    def test_pole_on_grid_exits_2(self):
        assert run("sweep", "--k", "2", "--b", "0:1:2").returncode == 2

    def test_bad_k_exits_2(self):
        assert run("sweep", "--k", "2,1", "--b", "0.3").returncode == 2

    def test_records_come_back_in_grid_order(self):
        p = run("sweep", "--k", "3,2", "--b", "0.3:1.3:3", "--b-im", "0.25",
                "--format", "json")
        assert p.returncode == 0
        cells = [(r["k"], r["b"]["re"], r["b"]["im"])
                 for r in json.loads(p.stdout)["results"]]
        # k-major: every b for the first k, then every b for the next
        assert cells == [(k, re, 0.25) for k in (3, 2) for re in (0.3, 0.8, 1.3)]


def test_stale_backend_variable_is_ignored():
    # a stale setting from older versions must not break start-up
    env = dict(os.environ, HURZETA_BACKEND="bogus")
    p = subprocess.run(BASE + ["eval", "--k", "2", "--b", "1.25"],
                       capture_output=True, text=True, env=env, timeout=120)
    assert p.returncode == 0, p.stderr


@pytest.mark.parametrize("args", [
    ("eval", "--k", "12", "--b", "7.3"),
    ("genfun", "--x", "0.3:0.77:2", "--b", "0.77"),
    ("oddzeta", "--j", "1-2"),
    ("validate", "--suite", "zero-integral"),
    ("sweep", "--k", "2,12", "--b", "4.3:7.3:2"),
])
def test_summary_counts_record_verdicts(args):
    p = run(*args, "--format", "json")
    doc = json.loads(p.stdout)
    verdicts = [r["verdict"] for r in doc["results"]]
    assert doc["summary"]["pass"] == verdicts.count("pass")
    assert doc["summary"]["fail"] == len(verdicts) - verdicts.count("pass")


def test_integer_b_record_sums_the_series_once(monkeypatch, capsys):
    # the series route's value passes on its own bound: one summation,
    # counted through both bindings of the series, and no oracle
    from hurzeta import cli, hurwitz

    calls = []
    oracle = hurwitz.hurwitz_series_oracle

    def counted(*args, **kw):
        calls.append(args)
        return oracle(*args, **kw)

    monkeypatch.setattr(hurwitz, "hurwitz_series_oracle", counted)
    monkeypatch.setattr(cli, "hurwitz_series_oracle", counted)
    assert cli.main(["eval", "--k", "3", "--b", "2", "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out)["results"][0]
    assert len(calls) == 1
    assert rec["route"] == "series" and "oracle" not in rec
