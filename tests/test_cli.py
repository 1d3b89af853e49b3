"""Black-box CLI checks: exit codes, schemas, determinism.

Everything but the last test goes through ``python -m hurzeta`` in a
subprocess and reaches into nothing, so these tests pin the observable
contract scripts will depend on.  The last one runs ``main`` in process to
count the work a record does.
"""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

BASE = [sys.executable, "-m", "hurzeta"]


def run(*args, **kw):
    return subprocess.run(BASE + list(args), capture_output=True, text=True,
                          timeout=120, **kw)


def signature(report_text):
    """Canonical JSON with volatile timing fields removed."""

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in sorted(node.items())
                    if k not in ("timing_s", "wall_time_s")}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    return json.dumps(strip(json.loads(report_text)), sort_keys=True)


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

    def test_integer_b_routes_to_series_with_notice(self):
        p = run("eval", "--k", "2", "--b", "2", "--format", "json")
        assert p.returncode == 0
        rec = json.loads(p.stdout)["results"][0]
        assert rec["route"] == "series"
        assert "direct summation" in rec["notice"]
        assert "breakdown" not in rec

    def test_usage_errors_exit_2(self):
        assert run("eval", "--k", "1", "--b", "0.5").returncode == 2
        assert run("eval", "--k", "2", "--b", "0").returncode == 2
        assert run("eval", "--k", "2", "--b", "not-a-number").returncode == 2
        assert run("nonsense-command").returncode == 2

    def test_numeric_failures_exit_3_with_envelope(self):
        p = run("eval", "--k", "200", "--b", "0.5", "--format", "json")
        assert p.returncode == 3
        rec = json.loads(p.stdout)["results"][0]
        assert rec["status"] == "error"
        assert rec["error_type"] == "RangeOverflowError"
        assert "error:" in p.stderr

    def test_polylog_past_double_range_exits_3(self):
        # Li_{-23} is evaluated 2e-14 from its pole; once a traceback, exit 1
        p = run("eval", "--k", "24", "--b", "1.999999999999997,1e-15",
                "--format", "json")
        assert p.returncode == 3
        rec = json.loads(p.stdout)["results"][0]
        assert rec["error_type"] == "RangeOverflowError"
        assert "Traceback" not in p.stderr

    def test_determinism_modulo_timing(self):
        a = run("eval", "--k", "4", "--b", "0.6-0.2i", "--format", "json")
        b = run("eval", "--k", "4", "--b", "0.6-0.2i", "--format", "json")
        assert signature(a.stdout) == signature(b.stdout)

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


    def test_relative_verdict_fails_small_value_and_exits_3(self):
        # the closed form returns 9.3e-10+3.4e-9i; zeta(12, 7.3) is 5.6e-11
        p = run("eval", "--k", "12", "--b", "7.3", "--format", "json")
        assert p.returncode == 3
        doc = json.loads(p.stdout)
        assert doc["results"][0]["verdict"] == "fail"
        assert doc["results"][0]["discrepancy_rel"] > 1.0
        assert doc["summary"]["fail"] == 1

    def test_integer_b_marks_same_route_cross_check(self):
        p = run("eval", "--k", "2", "--b", "2", "--format", "json")
        assert json.loads(p.stdout)["results"][0]["cross_check"] == "same-route"
        p = run("eval", "--k", "2", "--b", "1.25", "--format", "json")
        assert json.loads(p.stdout)["results"][0]["cross_check"] == "independent"

    @pytest.mark.parametrize("args", [
        ("eval", "--k", "3", "--b", "0.3", "--rel-tol", "nan"),
        ("eval", "--k", "3", "--b", "0.3", "--abs-tol", "inf"),
        ("genfun", "--x", "0.3", "--b", "0.4", "--rel-tol", "nan"),
    ])
    def test_non_finite_tolerance_exits_2(self, args):
        # a NaN tolerance once made the quadrature refine forever
        p = run(*args)  # under a timeout
        assert p.returncode == 2, p.stderr
        assert "finite" in p.stderr

    def test_non_finite_b_exits_2(self):
        assert run("eval", "--k", "2", "--b", "nan").returncode == 2


class TestGenfun:
    def test_grid_evaluation(self):
        p = run("genfun", "--x", "0.2", "--b", "0.77", "--format", "json")
        assert p.returncode == 0
        rec = json.loads(p.stdout)["results"][0]
        assert rec["status"] == "ok"
        assert rec["case"] == "generic"

    def test_half_integer_b_exits_3(self):
        p = run("genfun", "--x", "0.2", "--b", "0.5", "--format", "json")
        assert p.returncode == 3

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

    def test_grid_of_x_values(self):
        p = run("genfun", "--x", "0.05:0.25:5", "--b", "0.77",
                "--format", "json")
        assert p.returncode == 0
        rows = json.loads(p.stdout)["results"]
        assert len(rows) == 5
        assert [r["x"]["re"] for r in rows] == pytest.approx(
            [0.05, 0.1, 0.15, 0.2, 0.25])


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

    def test_oracle_grid_fails_small_values_relatively(self):
        p = run("validate", "--suite", "oracle-grid", "--format", "json")
        assert p.returncode == 3
        failed = {(r["k"], r["b"]["re"], r["b"]["im"])
                  for r in json.loads(p.stdout)["results"] if r["verdict"] == "fail"}
        assert (10, 3.75, 0.0) in failed


class TestSweep:
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
        float(rows[-1]["discrepancy_rel"])

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
    # the series route's value is its own oracle: one summation, counted
    # through both bindings of the oracle
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
    assert rec["route"] == "series" and rec["cross_check"] == "same-route"
    assert rec["discrepancy_abs"] == 0.0
