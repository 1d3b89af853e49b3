"""Command-line surface: evaluate zeta(k, b), sweep the generating function,
run validation suites, and emit reproducible machine-readable reports.

Exit codes: 0 success, 2 usage error (bad parameters, excluded domain),
3 numeric failure (a computation raised after validation passed, or a
value failed its cross-check against the series oracle).

Reports are JSON (an envelope with config echo, per-record results, and a
summary), CSV (flattened records, 17-significant-digit floats), or human
text.  Complex numbers serialize as {"re": ..., "im": ...}; rerunning the
echoed config with the same seed reproduces every numeric field bitwise
(timing fields are the only exception, and the only fields excluded from
the determinism contract).
"""

import argparse
import gc
import io
import json
import math
import random
import re
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .errors import (
    DomainError,
    HurzetaError,
    IllConditionedError,
    UnsupportedParameterError,
    check_finite,
    check_k,
    check_real,
)
from .genfun import (
    genfun_closed,
    genfun_series,
    odd_zeta_integral,
)
from .hurwitz import (
    ZetaParams,
    check_b,
    endpoint_residual,
    hurwitz_series_oracle,
    zeta_auto,
)
from .quadrature import DEFAULT_SPEC, QuadratureSpec
from .validation import (
    log_asymptotic_scan,
    theorem1_scan,
    zero_integral_scan,
)

DEFAULT_SEED = 12345
ORACLE_GRID_K = tuple(range(2, 11))
ORACLE_GRID_B = (0.25, 0.5, 1.25, 2.0, 3.75, 1 + 0.5j, 2 + 1j, 0.6 - 0.2j)
SCAN_NS = (100, 1000, 10000)
ORACLE_TOL = 1e-13
VERDICT_RTOL = 1e-8
ENDPOINT_DRAWS = 300  # draws of the endpoint-identity suite
_TINY = float(np.finfo(np.float64).tiny)


@dataclass
class RunConfig:
    command: str
    params: dict
    tolerances: dict = field(default_factory=dict)
    output_format: str = "json"
    output_path: str | None = None
    seed: int = DEFAULT_SEED

    def spec(self) -> QuadratureSpec:
        return QuadratureSpec(**self.tolerances) if self.tolerances else DEFAULT_SPEC


@dataclass
class ReportEnvelope:
    tool_version: str
    config_echo: dict
    results: list
    summary: dict


class UsageError(Exception):
    """Parameter problems detected after argparse: exit code 2."""


# ---------------------------------------------------------------------------
# Parsing and serialization helpers
# ---------------------------------------------------------------------------

def parse_complex(text: str) -> complex:
    """Accept 're', 're,im', and 're+imi' / 're-imi' spellings."""
    s = text.strip()
    try:
        if "," in s:
            re_part, im_part = s.split(",")
            return complex(float(re_part), float(im_part))
        # i notation: normalize bare 'i'/'+i'/'-i' to '1j' forms
        s2 = s.replace("I", "i").replace("i", "j")
        s2 = re.sub(r"(?<![\dj.])j", "1j", s2)
        return complex(s2.replace(" ", ""))
    except ValueError as exc:
        raise UsageError(f"cannot parse complex number from {text!r}") from exc


def parse_grid(text: str):
    """'start:stop:count' -> evenly spaced floats; a single number -> [value]."""
    s = text.strip()
    if ":" in s:
        try:
            start, stop, count = s.split(":")
            start, stop, count = float(start), float(stop), int(count)
        except ValueError as exc:
            raise UsageError(f"grid must be start:stop:count, got {text!r}") from exc
        if count < 1:
            raise UsageError("grid count must be >= 1")
        return [float(v) for v in np.linspace(start, stop, count)]
    try:
        return [float(s)]
    except ValueError as exc:
        raise UsageError(f"cannot parse grid value {text!r}") from exc


def jsonify(obj):
    """Recursively convert to JSON-ready values; complex -> {re, im}."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and math.isnan(obj):
        return "nan"
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    return obj


def _flatten(record: dict, prefix: str = "") -> dict:
    out = {}
    for key, val in record.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            if set(val.keys()) == {"re", "im"}:
                out[name + "_re"] = val["re"]
                out[name + "_im"] = val["im"]
            else:
                out.update(_flatten(val, name + "."))
        elif isinstance(val, list):
            out[name] = json.dumps(val, separators=(",", ":"))
        else:
            out[name] = val
    return out


def _fmt_cell(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    return v


def render_csv(envelope: ReportEnvelope) -> str:
    import csv

    rows = [_flatten(r) for r in envelope.results]
    headers: list = []
    for row in rows:
        for key in row:
            if key not in headers:
                headers.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=headers, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt_cell(v) for k, v in row.items()})
    return buf.getvalue()


def render_json(envelope: ReportEnvelope) -> str:
    # _report built every field JSON-ready, so no copy or second pass
    return json.dumps(vars(envelope), indent=2, sort_keys=True) + "\n"


def _fmt_c(z) -> str:
    if isinstance(z, dict):
        z = complex(z["re"], z["im"])
    z = complex(z)
    if z.imag == 0:
        return f"{z.real:+.15e}"
    return f"{z.real:+.15e} {z.imag:+.15e}i"


def render_human(envelope: ReportEnvelope) -> str:
    lines = [f"hurzeta {envelope.tool_version} :: {envelope.config_echo['command']}"]
    for rec in envelope.results:
        lines.append("-" * 64)
        if "breakdown" in rec and rec["breakdown"] is not None:
            bd = rec["breakdown"]
            lines.append(f"zeta({rec['k']}, {_fmt_c(rec['b'])})")
            lines.append(f"  1/(2 b^k) term        {_fmt_c(bd['term_half_bk'])}")
            lines.append(f"  polylog single term   {_fmt_c(bd['term_polylog_single'])}")
            lines.append(f"  polylog sum term      {_fmt_c(bd['term_polylog_sum'])}")
            lines.append(f"  integral term         {_fmt_c(bd['term_integral'])}")
            lines.append(f"  total                 {_fmt_c(rec['value'])}")
        else:
            for key, val in rec.items():
                if isinstance(val, dict) and set(val.keys()) == {"re", "im"}:
                    lines.append(f"  {key:<20} {_fmt_c(val)}")
                elif isinstance(val, (int, float, str, bool)) or val is None:
                    lines.append(f"  {key:<20} {val}")
    lines.append("-" * 64)
    lines.append(
        "summary: "
        + " ".join(f"{k}={v}" for k, v in sorted(envelope.summary.items()))
    )
    return "\n".join(lines) + "\n"


def emit(envelope: ReportEnvelope, cfg: RunConfig) -> None:
    if cfg.output_format == "json":
        text = render_json(envelope)
    elif cfg.output_format == "csv":
        text = render_csv(envelope)
    else:
        text = render_human(envelope)
    if cfg.output_path:
        with open(cfg.output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def envelope_signature(envelope_dict: dict) -> str:
    """Canonical JSON of an envelope minus timing (the determinism contract:
    everything but wall-clock must reproduce bitwise under the echoed config)."""

    def strip(obj):
        if isinstance(obj, dict):
            return {
                k: strip(v)
                for k, v in obj.items()
                if k not in ("timing_s", "wall_time_s")
            }
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    return json.dumps(strip(envelope_dict), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _checked(check, value, **kw):
    """``check(value, **kw)`` with its :class:`DomainError` as a usage error."""
    try:
        return check(value, **kw)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc


def _report(cfg: RunConfig, results: list, t0: float) -> tuple[ReportEnvelope, int]:
    """The envelope of one command, whose ``pass`` counts the records with
    ``verdict == "pass"``, and exit code 3 unless every record passed."""
    results = [jsonify(r) for r in results]
    n_pass = sum(1 for r in results if r["verdict"] == "pass")
    env = ReportEnvelope(
        tool_version=__version__,
        config_echo=jsonify(vars(cfg)),
        results=results,
        summary={
            "pass": n_pass,
            "fail": len(results) - n_pass,
            "total": len(results),
            "wall_time_s": time.perf_counter() - t0,
        },
    )
    return env, 0 if n_pass == len(results) else 3


def _error_record(exc: HurzetaError) -> dict:
    return {"status": "error", "error_type": type(exc).__name__,
            "message": str(exc), "verdict": "fail"}


def _oracle(k: int, b: complex) -> complex:
    """The CLI's one reference for ``zeta(k, b)``: the direct series."""
    return hurwitz_series_oracle(k, b, tol=ORACLE_TOL)


def _zeta_record(k: int, b: complex, spec: QuadratureSpec):
    """``zeta(k, b)`` beside the series oracle: the record, with its
    ``verdict``, and the closed-form breakdown (``None`` on the series
    route).  It passes when ``|value - oracle| <= VERDICT_RTOL * |oracle|``,
    ``|oracle|`` floored at the smallest normal double only so that an
    exact-zero oracle still compares.  On the series route the value is the
    oracle's own summation, used as is: ``cross_check`` says ``"same-route"``.
    """
    b = complex(b)
    t0 = time.perf_counter()
    value, route, br = zeta_auto(k, b, spec)
    oracle = value if route == "series" else _oracle(k, b)
    disc = abs(value - oracle)
    scale = max(abs(oracle), _TINY)
    return {
        "k": k,
        "b": b,
        "status": "ok",
        "value": value,
        "oracle": oracle,
        "discrepancy_abs": disc,
        "discrepancy_rel": disc / scale,
        "route": route,
        "cross_check": "same-route" if route == "series" else "independent",
        "verdict": "pass" if disc <= VERDICT_RTOL * scale else "fail",
        "timing_s": time.perf_counter() - t0,
    }, br


def cmd_eval(cfg: RunConfig) -> tuple[ReportEnvelope, int]:
    k = _checked(check_k, cfg.params["k"], name="--k")
    b = _checked(check_b, parse_complex(cfg.params["b"]))
    t0 = time.perf_counter()
    record, br = _zeta_record(k, b, cfg.spec())
    if br is None:
        record["notice"] = (
            "integer b routed to direct summation: the combined closed form "
            "has a pole of its phase factor at every integer b"
        )
    else:
        record["breakdown"] = {
            "term_half_bk": br.term_half_bk,
            "term_polylog_single": br.term_polylog_single,
            "term_polylog_sum": br.term_polylog_sum,
            "term_integral": br.term_integral,
        }
        record["quadrature"] = {
            "error_estimate": br.quadrature.error_estimate,
            "evaluations": br.quadrature.evaluations,
            "converged": br.quadrature.converged,
        }
        record["warnings"] = list(br.warnings)
    return _report(cfg, [record], t0)


def _genfun_point(x: float, b: complex, spec: QuadratureSpec, series_kmax: int):
    """One ``genfun`` record.  It passes when ``genfun_closed`` returns and,
    with ``series_kmax``, when ``|series - total| <= VERDICT_RTOL * |series|
    + tail_estimate``: the partial sum to ``series_kmax`` is the reference,
    within its own tail."""
    t0 = time.perf_counter()
    try:
        ev = genfun_closed(x, b, spec)
    except UnsupportedParameterError as exc:
        return {
            "x": complex(x), "b": b, "status": "unsupported",
            "message": str(exc), "verdict": "fail",
            "timing_s": time.perf_counter() - t0,
        }
    except IllConditionedError as exc:
        return {
            "x": complex(x), "b": b, "status": "ill_conditioned",
            "locus": exc.locus, "message": str(exc), "verdict": "fail",
            "timing_s": time.perf_counter() - t0,
        }
    record = {
        "x": complex(x),
        "b": b,
        "status": "ok",
        "verdict": "pass",
        "case": ev.case.tag,
        "rational_term": ev.rational_term,
        "trig_term": ev.trig_term,
        "integral_term": ev.integral_term,
        "total": ev.total,
        "proximity": vars(ev.case.proximity_flags),
        "warnings": list(ev.warnings),
    }
    if abs(complex(x) - 2 * b) < 1e-12:
        record["warnings"].append(
            "x = 2b: the integral term vanishes identically on this locus")
    if series_kmax:
        gs = genfun_series(x, b, series_kmax)
        record["series_value"] = gs.value
        record["series_tail_estimate"] = gs.tail_estimate
        record["series_discrepancy"] = disc = abs(gs.value - ev.total)
        if disc > VERDICT_RTOL * abs(gs.value) + gs.tail_estimate:
            record["verdict"] = "fail"
    record["timing_s"] = time.perf_counter() - t0
    return record


def cmd_genfun(cfg: RunConfig) -> tuple[ReportEnvelope, int]:
    xs = parse_grid(cfg.params["x"])
    for x in xs:  # a non-finite x or b is a usage error
        _checked(check_finite, x, name="x")
    b = _checked(check_finite, parse_complex(cfg.params["b"]), name="b")
    series_kmax = cfg.params.get("series_kmax", 0)
    spec = cfg.spec()
    t0 = time.perf_counter()
    return _report(cfg, [_genfun_point(x, b, spec, series_kmax) for x in xs], t0)


def cmd_oddzeta(cfg: RunConfig) -> tuple[ReportEnvelope, int]:
    raw = str(cfg.params["j"])
    lo, dash, hi = raw.partition("-")
    try:
        js = list(range(int(lo), int(hi if dash else lo) + 1))
    except ValueError as exc:
        raise UsageError(f"--j must be N or LO-HI, got {raw!r}") from exc
    if any(not 1 <= j <= 10 for j in js):
        raise UsageError("--j values must lie in [1, 10]")
    spec = QuadratureSpec(**cfg.tolerances) if cfg.tolerances else None
    t0 = time.perf_counter()
    results = []
    for j in js:
        t1 = time.perf_counter()
        val = odd_zeta_integral(j, spec)
        ref = _oracle(2 * j + 1, 1.0).real
        rel = abs(val - ref) / ref
        results.append(
            {
                "j": j,
                "zeta_argument": 2 * j + 1,
                "value": val,
                "series_reference": ref,
                "relative_discrepancy": rel,
                "verdict": "pass" if rel <= 1e-9 else "fail",
                "timing_s": time.perf_counter() - t1,
            }
        )
    return _report(cfg, results, t0)


# -- validation suites -------------------------------------------------------

def _report_to_record(report, suite):
    """``suite`` and every field of the ``ConvergenceReport`` but its
    ``noise_floor``, in field order."""
    return {"suite": suite, **{f.name: getattr(report, f.name) for f in fields(report)
                               if f.name != "noise_floor"}}


def _suite_theorem1(spec, _seed):
    return [_report_to_record(report, "theorem1")
            for report in theorem1_scan((0, 1, 3), SCAN_NS, spec)]


def _suite_zero_integral(spec, _seed):
    return [_report_to_record(zero_integral_scan([1, 17, 100], spec), "zero-integral")]


def _suite_log_asymptotic(spec, _seed):
    return [_report_to_record(report, "log-asymptotic")
            for report in log_asymptotic_scan((2, 3), SCAN_NS, spec)]


def _suite_oracle_grid(spec, _seed):
    return [{"suite": "oracle-grid", **_zeta_record(k, b, spec)[0]}
            for k in ORACLE_GRID_K for b in ORACLE_GRID_B]


def _endpoint_draws(seed):
    """The ``ENDPOINT_DRAWS`` seeded ``ZetaParams`` of the endpoint-identity suite.

    The endpoint identity B(0) = B(1) is algebraic; the suite checks its
    *transcription* in floats, so draws keep |1 - q| away from the
    conditioning locus q = 1 (b near a real integer), where any formula
    measures rounding amplification rather than correctness."""
    # stdlib random is loaded anyway; numpy.random would add 5.4 MiB of RSS
    rng = random.Random(seed)
    checked = 0
    while checked < ENDPOINT_DRAWS:
        k = rng.randrange(2, 13)
        re_b = rng.uniform(0.05, 6.0)
        im_b = rng.uniform(-2.5, 2.5)
        if rng.random() < 0.3:
            im_b = 0.0
        if im_b == 0.0 and abs(re_b - round(re_b)) < 1e-6:
            continue
        params = ZetaParams.create(k, complex(re_b, im_b))
        if abs(1.0 - params.q) < 0.05:
            continue
        checked += 1
        yield params


def _suite_endpoint_identity(_spec, seed):
    worst = max(map(endpoint_residual, _endpoint_draws(seed)))
    ok = worst <= 1e-11
    return [
        {
            "suite": "endpoint-identity",
            "draws": ENDPOINT_DRAWS,
            "worst_scaled_endpoint_residual": worst,
            "threshold": 1e-11,
            "verdict": "pass" if ok else "fail",
        }
    ]


SUITE_RUNNERS = {
    "theorem1": _suite_theorem1,
    "zero-integral": _suite_zero_integral,
    "log-asymptotic": _suite_log_asymptotic,
    "oracle-grid": _suite_oracle_grid,
    "endpoint-identity": _suite_endpoint_identity,
}
SUITES = (*SUITE_RUNNERS, "all")


def cmd_validate(cfg: RunConfig) -> tuple[ReportEnvelope, int]:
    suite = cfg.params["suite"]
    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    spec = cfg.spec()
    names = list(SUITE_RUNNERS) if suite == "all" else [suite]
    t0 = time.perf_counter()
    results = []
    for name in names:
        results.extend(SUITE_RUNNERS[name](spec, cfg.seed))
    return _report(cfg, results, t0)


def cmd_sweep(cfg: RunConfig) -> tuple[ReportEnvelope, int]:
    try:
        ks = [int(s) for s in str(cfg.params["k"]).split(",")]
    except ValueError as exc:
        raise UsageError("--k must be comma-separated integers") from exc
    ks = [_checked(check_k, k, name="--k") for k in ks]
    b_im = cfg.params.get("b_im", 0.0)
    bs = [_checked(check_b, complex(br, b_im)) for br in parse_grid(cfg.params["b"])]
    spec = cfg.spec()

    def cell(k, b):
        t1 = time.perf_counter()
        try:
            return _zeta_record(k, b, spec)[0]
        except HurzetaError as exc:
            return {"k": k, "b": b, **_error_record(exc),
                    "timing_s": time.perf_counter() - t1}

    t0 = time.perf_counter()
    return _report(cfg, [cell(k, b) for k in ks for b in bs], t0)


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--format", choices=("json", "csv", "human"), default="json",
                     help="output format (default json)")
    sub.add_argument("--output", default=None, help="write report to this path")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help=f"seed for randomized suites (default {DEFAULT_SEED})")
    sub.add_argument("--rel-tol", type=float, default=None,
                     help="quadrature relative tolerance override")
    sub.add_argument("--abs-tol", type=float, default=None,
                     help="quadrature absolute tolerance override")
    sub.add_argument("--max-subdivisions", type=int, default=None,
                     help="quadrature panel budget override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hurzeta",
        description="Hurwitz zeta at integer k >= 2 via polylog-and-cotangent "
                    "closed forms, with series oracles and convergence scans.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("eval", help="evaluate zeta(k, b) by formula and oracle")
    p.add_argument("--k", type=int, required=True, help="integer exponent >= 2")
    p.add_argument("--b", required=True, help="complex offset: re[,im] or re+imi")
    _add_common(p)

    p = subs.add_parser("genfun", help="evaluate the generating function f(x, b)")
    p.add_argument("--x", required=True, help="point or grid start:stop:count")
    p.add_argument("--b", required=True, help="complex parameter")
    p.add_argument("--series-kmax", type=int, default=0,
                   help="cross-check each point against the defining series "
                        "summed to this k (0 = off)")
    _add_common(p)

    p = subs.add_parser("oddzeta", help="zeta(2j+1) from the cotangent integral")
    p.add_argument("--j", required=True, help="index in [1,10], or range LO-HI")
    _add_common(p)

    p = subs.add_parser("validate", help="run a validation suite")
    p.add_argument("--suite", required=True,
                   help="one of: " + ", ".join(SUITES))
    _add_common(p)

    p = subs.add_parser("sweep", help="zeta evaluation over a (k, b) grid")
    p.add_argument("--k", required=True, help="comma-separated integer ks")
    p.add_argument("--b", required=True, help="real-part grid start:stop:count")
    p.add_argument("--b-im", type=float, default=0.0,
                   help="imaginary part applied to every grid b (default 0)")
    _add_common(p)

    return parser


# the argparse destinations of every command (_add_common); the rest are its params
_TOLERANCES = ("rel_tol", "abs_tol", "max_subdivisions")
_COMMON_ARGS = ("command", "format", "output", "seed") + _TOLERANCES


def config_from_args(args: argparse.Namespace) -> RunConfig:
    tolerances = {}
    for key in _TOLERANCES:
        val = getattr(args, key)
        if val is not None:
            _checked(check_real, val, name=f"--{key.replace('_', '-')}", lo=0, hi=math.inf)
            tolerances[key] = val
    return RunConfig(
        command=args.command,
        params={k: v for k, v in vars(args).items() if k not in _COMMON_ARGS},
        tolerances=tolerances,
        output_format=args.format,
        output_path=args.output,
        seed=args.seed,
    )


COMMANDS = {
    "eval": cmd_eval,
    "genfun": cmd_genfun,
    "oddzeta": cmd_oddzeta,
    "validate": cmd_validate,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    # One command per process: the import-time heap (numpy and this package,
    # about 22k objects) lives until exit, so collector passes over it during
    # the command and at interpreter shutdown are pure overhead.
    gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        cfg = config_from_args(args)
        envelope, code = COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HurzetaError as exc:
        err_env, _ = _report(cfg, [_error_record(exc)], t0)
        sys.stdout.write(render_json(err_env))
        print(f"error: {exc}", file=sys.stderr)
        return 3
    emit(envelope, cfg)
    return code


if __name__ == "__main__":
    sys.exit(main())
