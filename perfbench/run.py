"""hurzeta benchmark: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload zeta_grid --seed 1 --seconds 30 --trace 0

Run from the root of a hurzeta source tree; the program is imported from
``src/`` there and from nowhere else.  Workloads:

* ``zeta_grid``: ``hurwitz.zeta_auto`` over seeded distinct (k, b) cells
  plus a fixed lattice that exercises the closed form's cancellation fault.
* ``genfun_circle``: ``genfun.zeta_from_genfun`` recoveries (nodes = 32)
  and ``genfun.genfun_closed`` points on all four branches.
* ``cli_session``: ``python -m hurzeta`` eval, sweep, validate and oddzeta
  as subprocesses, one at a time.

Every output is checked against references computed apart from the program
(``reference.py``).  With ``--trace 0`` the last stdout line holds the
end-to-end metrics; with ``--trace 1`` untraced and traced rounds alternate
and it holds the per-layer metrics.  Lines before it give the figures under
their workload-specific names.  Spans and results are written under
``.perfbench_out/``.
"""

import argparse
import json
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import pace
import reference

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")
SETUP_PROBES = 3          # set-up probes before, and again after, the timed rounds
DEADLINE_S = 170          # every run ends within 180 s, whatever hangs
ENDPOINT_RESIDUAL_MAX = 1e-11
SCAN_FLOOR = 1.0          # scan values are checked to 1e-8 of max(|ref|, 1)
INF = float("inf")

_live = []                # child processes to kill if the deadline passes


class Run:
    """Counts and checks for one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.near = 0          # passed, but within 10x of the tolerance
        self.unexpected = []   # failures not explained by a known fault

    def record(self, score, known_fault=False, what=""):
        """One checked output; ``score`` is its error in tolerance units."""
        self.attempted += 1
        if score > 1.0:
            self.failed += 1
            if not known_fault:
                self.unexpected.append(what)
        elif score > 0.1:
            self.near += 1


def _on_deadline(signum, frame):
    for p in _live:
        p.kill()
        p.wait()
    print(f"error: run exceeded {DEADLINE_S} s", file=sys.stderr)
    os._exit(1)


class Procs:
    """How children start: the checkout's source on PYTHONPATH, stderr to a log."""

    def __init__(self, src, log):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.log = log


def child(argv, procs, stdin_text=""):
    """Run ``argv`` to its end: (wall_s, first_line_s, stdout, returncode,
    speed factor from calibrations just before and just after it)."""
    cals = [pace.calibrate(), pace.calibrate()]
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                         stderr=procs.log, env=procs.env)
    _live.append(p)
    try:
        p.stdin.write(stdin_text.encode())
        p.stdin.close()
        first = p.stdout.readline()
        first_s = time.perf_counter() - t0
        rest = p.stdout.read()    # a hang here is ended by the run's deadline
        p.wait()
        wall = time.perf_counter() - t0
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
        _live.remove(p)
    cals += [pace.calibrate(), pace.calibrate()]
    return wall, first_s, (first + rest).decode(), p.returncode, pace.factor(cals)


# ---------------------------------------------------------------------------
# zeta_grid and genfun_circle: a worker process runs the rounds
# ---------------------------------------------------------------------------

def worker_job(workload, seed):
    if workload == "zeta_grid":
        cells = inputs.zeta_cells(seed)
        refs = [reference.zeta(k, complex(*b)) for k, b, _ in cells]
        known = [fault for _, _, fault in cells]
        return {"workload": workload, "inputs": cells}, refs, known
    data = inputs.genfun_inputs(seed)
    refs = [reference.zeta(k, complex(*b)) for k, b, _ in data["recoveries"]]
    refs += [reference.genfun(complex(*x), complex(*b)) for x, b, _ in data["points"]]
    known = [False] * len(data["recoveries"]) + [fault for _, _, fault in data["points"]]
    return {"workload": workload, "inputs": data, "nodes": inputs.NODES}, refs, known


def output_score(out, ref):
    return INF if out[0] == "error" else reference.score(complex(out[0], out[1]), ref)


def run_worker(args, procs, run):
    job, refs, known = worker_job(args.workload, args.seed)
    job.update(seconds=args.seconds, trace=args.trace,
               spans_path=str(OUT_DIR / f"spans-{args.workload}-{args.seed}.json"))
    text = json.dumps(job)
    argv = [sys.executable, str(HERE / "worker.py")]

    setup = []

    def probe():
        _, first_s, out, code, f = child(argv + ["setup"], procs, text)
        result = json.loads(out)["out"] if code == 0 else ["error", f"exit {code}"]
        if output_score(result, refs[0]) > 1.0:
            run.unexpected.append(f"set-up probe output {result}")
        setup.append(first_s * f)

    for _ in range(SETUP_PROBES):
        probe()
    _, _, out, code, _ = child(argv + ["run"], procs, text)
    for _ in range(SETUP_PROBES):
        probe()
    if code != 0:
        raise SystemExit(f"error: worker exited with {code}; see {procs.log.name}")
    res = json.loads(out.splitlines()[-1])
    (OUT_DIR / f"worker-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(res["times"]))

    def judge(i, out):
        # failures on the fixed lattice are the known faults it was built to show
        return output_score(out, refs[i]), known[i]

    first = [judge(i, o) for i, o in enumerate(res["first"])]
    changed = {}
    for rnd, i, o in res["diffs"]:
        changed.setdefault(rnd, {})[i] = judge(i, o)
    for rnd in range(res["rounds"]):
        over = changed.get(rnd, {})
        for i, verdict in enumerate(first):
            score, fault = over.get(i, verdict)
            run.record(score, fault, f"op {i} round {rnd}")

    t = res["times"]
    speed = {kind: v["raw_s"] / v["total_s"] for kind, v in t.items()}
    print("speed factors (reference / measured): "
          + " ".join(f"{kind} {1 / v:.4f}" for kind, v in speed.items()))
    if args.workload == "zeta_grid":
        cell = t["cell"]
        named = {"zeta_cells_per_s": (cell["n"] / cell["total_s"], "cells/s"),
                 "zeta_p50_us": (cell["p50"] * 1e6, "us"),
                 "zeta_p90_us": (cell["p90"] * 1e6, "us")}
        e2e = {"values_per_s": cell["n"] / cell["total_s"],
               "light_call_ms": cell["p50"] * 1e3,
               "heavy_call_ms": cell["p90"] * 1e3}
    else:
        rec, pt = t["recover"], t["point"]
        named = {"genfun_recover_p50_ms": (rec["p50"] * 1e3, "ms"),
                 "genfun_points_per_s": (pt["n"] / pt["total_s"], "points/s")}
        e2e = {"values_per_s": pt["n"] / pt["total_s"],
               "light_call_ms": pt["p50"] * 1e3,
               "heavy_call_ms": rec["p50"] * 1e3}
    layers = None
    if args.trace:
        tr = res["trace"]
        layers = per_round(tr["totals"], tr["rounds"], tr["factor"])
        layers["trace.overhead"] = tr["overhead"]
    return setup, named, e2e, layers


# ---------------------------------------------------------------------------
# cli_session: the parent runs the CLI as subprocesses
# ---------------------------------------------------------------------------

def sweep_grid():
    lo, hi, n = inputs.SWEEP_B
    return [(k, complex(lo + (hi - lo) * i / (n - 1), inputs.SWEEP_B_IM))
            for k in inputs.SWEEP_K for i in range(n)]


class CliRefs:
    """References for everything one CLI round prints, computed up front."""

    def __init__(self, cmds):
        k, b = int(cmds["eval"][2]), complex(*map(float, cmds["eval"][4].split(",")))
        self.eval_cell = (k, b)
        self.zeta = {(k, b): reference.zeta(k, b)}
        self.sweep = sweep_grid()
        for cell in self.sweep:
            self.zeta[cell] = reference.zeta(*cell)
        self.odd = {j: reference.odd_zeta(j) for j in range(1, 11)}
        self.theorem1 = {(kk, n): reference.theorem1(kk, n)
                         for kk in (0, 1, 3) for n in (100, 1000, 10000)}
        self.log = {(kk, n): reference.log_residual(kk, n)
                    for kk in (2, 3) for n in (100, 1000, 10000)}
        self.log_target = {kk: reference.log_target(kk) for kk in (2, 3)}

    def zeta_of(self, k, b):
        if (k, b) not in self.zeta:
            self.zeta[(k, b)] = reference.zeta(k, b)
        return self.zeta[(k, b)]


def _c(d):
    return complex(d["re"], d["im"])


def _param_k(record):
    m = re.search(r"k=([0-9.]+)", record["parameter"])
    return int(float(m.group(1)))


def check_eval(rep, refs, run):
    (rec,) = rep["results"]
    k, b = refs.eval_cell
    score = INF
    if rec["k"] == k and _c(rec["b"]) == b:
        score = reference.score(_c(rec["value"]), refs.zeta[(k, b)])
    run.record(score, what=f"eval {k} {b}")


def check_sweep(rep, refs, run):
    cells = [(r["k"], _c(r["b"])) for r in rep["results"]]
    if cells != refs.sweep:
        run.unexpected.append("sweep grid differs from the requested grid")
    for r in rep["results"]:
        cell = (r["k"], _c(r["b"]))
        score = INF
        if r["status"] == "ok":
            score = reference.score(_c(r["value"]), refs.zeta_of(*cell))
        run.record(score, True, f"sweep {cell}")   # fixed grid: known faults


def check_validate(rep, refs, run):
    for r in rep["results"]:
        suite = r["suite"]
        pairs = []   # (value, reference) for every number the record reports
        if suite == "theorem1":
            k = _param_k(r)
            pairs = [(o, refs.theorem1[(k, n)]) for n, o in zip(r["n_values"], r["observed"])]
        elif suite == "zero-integral":
            pairs = [(o, 0.0) for o in r["observed"]]
        elif suite == "log-asymptotic":
            k = _param_k(r)
            pairs = [(r["target"], refs.log_target[k])] + [
                (o, refs.log[(k, n)]) for n, o in zip(r["n_values"], r["observed"])]
        elif suite == "oracle-grid":
            cell = (r["k"], _c(r["b"]))
            score = reference.score(_c(r["value"]), refs.zeta_of(*cell))
            run.record(score, True, f"oracle-grid {cell}")   # fixed grid: known faults
            continue
        if suite == "endpoint-identity":
            # B(0) = B(1) holds exactly; what is left is rounding
            score = r["worst_scaled_endpoint_residual"] / ENDPOINT_RESIDUAL_MAX
        else:
            score = max((reference.score(v, ref, SCAN_FLOOR) for v, ref in pairs),
                        default=INF)
        run.record(score, what=f"validate {suite} {r.get('parameter', '')}")


def check_oddzeta(rep, refs, run):
    for r in rep["results"]:
        run.record(reference.score(r["value"], refs.odd[r["j"]]), what=f"oddzeta {r['j']}")


CLI_CHECKS = {"eval": check_eval, "sweep": check_sweep,
              "validate": check_validate, "oddzeta": check_oddzeta}
# records per report: validate has 3 theorem1, 1 zero-integral, 2 log-asymptotic,
# 72 oracle-grid and 1 endpoint-identity records
CLI_RECORDS = {"eval": 1, "sweep": len(sweep_grid()), "validate": 79, "oddzeta": 10}


def cli_call(name, argv_tail, procs, refs, run, traced=None):
    """One CLI invocation, checked: (scaled wall s, stdout, report, speed factor).
    ``traced`` is (summary_path, keep_spans)."""
    if traced is None:
        argv = [sys.executable, "-m", "hurzeta"]
    else:
        argv = [sys.executable, str(HERE / "traced_cli.py"), traced[0], str(int(traced[1]))]
    wall, _, out, code, f = child(argv + argv_tail, procs)
    try:
        rep = json.loads(out)
    except json.JSONDecodeError:
        rep = None
    if rep is None or code not in (0, 3) or "results" not in rep:
        for _ in range(CLI_RECORDS[name]):
            run.record(INF, what=f"{name} exited {code}")
        return wall * f, out, None, f
    CLI_CHECKS[name](rep, refs, run)
    return wall * f, out, rep, f


def run_cli(args, procs, run):
    cmds = inputs.cli_inputs(args.seed)
    refs = CliRefs(cmds)

    for name, tail in cmds.items():   # warm-up round: checked, not timed
        cli_call(name, tail, procs, refs, run)
    walls = {name: [] for name in cmds}
    plain_rounds, traced_rounds, plain_s, traced_s = 0, 0, 0.0, 0.0
    totals, import_s, report_bytes, busy = {}, 0.0, 0, []
    start = time.perf_counter()
    while True:
        traced = args.trace and plain_rounds > traced_rounds
        round_s = 0.0
        for name, tail in cmds.items():
            opt = None
            if traced:
                # the first traced round keeps its spans; later ones give totals only
                keep = traced_rounds == 0
                path = OUT_DIR / (f"spans-cli_session-{args.seed}-{name}.json" if keep
                                  else "cli-trace-totals.json")
                opt = (str(path), keep)
            wall, out, rep, f = cli_call(name, tail, procs, refs, run, opt)
            round_s += wall
            if traced:
                summary = json.loads(path.read_text())
                import_s += summary["import_s"] * f
                for key, val in summary["totals"].items():
                    totals[key] = totals.get(key, 0) + (val * f if key.endswith("_s") else val)
                if not keep:
                    path.unlink()
            else:
                walls[name].append(wall)
                report_bytes += len(out.encode())
                if name == "sweep" and rep is not None:
                    busy.append(f * sum(r["timing_s"] for r in rep["results"]))
        if traced:
            traced_rounds += 1
            traced_s += round_s
        else:
            plain_rounds += 1
            plain_s += round_s
        if time.perf_counter() - start >= args.seconds and (
                not args.trace or traced_rounds == plain_rounds):
            break

    (OUT_DIR / f"walls-cli_session-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(walls))
    # each eval is a fresh interpreter returning its first result: the set-up time
    setup = walls["eval"]
    med = {name: statistics.median(w) for name, w in walls.items()}
    named = {f"cli_{name}_s": (med[name], "s") for name in ("eval", "sweep", "validate")}
    e2e = {"values_per_s": CLI_RECORDS["sweep"] / med["sweep"],
           "light_call_ms": med["eval"] * 1e3,
           "heavy_call_ms": med["validate"] * 1e3}
    layers = None
    if args.trace:
        layers = per_round(totals, traced_rounds, 1.0)   # times already scaled
        layers["cli.import_s"] = import_s / traced_rounds
        layers["cli.report_bytes"] = report_bytes / plain_rounds
        layers["cli.sweep_busy_s"] = statistics.median(busy)
        layers["trace.overhead"] = (traced_s / traced_rounds) / (plain_s / plain_rounds) - 1.0
    return setup, named, e2e, layers


# ---------------------------------------------------------------------------
# Metrics and entry point
# ---------------------------------------------------------------------------

PER_LAYER_UNITS = {
    "kernels.calls": "count", "kernels.points": "count", "kernels.self_s": "s",
    "kernels.ns_per_point": "ns",
    "quadrature.calls": "count", "quadrature.evaluations": "count",
    "quadrature.unconverged": "count", "quadrature.self_s": "s",
    "special_functions.polylog_calls": "count", "special_functions.self_s": "s",
    "hurwitz.closed_form_calls": "count", "hurwitz.series_calls": "count",
    "hurwitz.series_terms": "count", "hurwitz.self_s": "s",
    "genfun.closed_calls": "count", "genfun.self_s": "s",
    "validation.scan_calls": "count", "validation.self_s": "s",
    "cli.import_s": "s", "cli.command_s": "s", "cli.serialize_s": "s",
    "cli.report_bytes": "bytes", "cli.sweep_busy_s": "s",
    "trace.overhead": "ratio",
}

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MiB", "values_per_s": "1/s",
             "light_call_ms": "ms", "heavy_call_ms": "ms"}


def per_round(totals, rounds, f):
    """Per-layer figures for one round of the workload: counts, which repeat
    exactly, and times scaled to the reference speed by ``f``."""
    out = dict.fromkeys(PER_LAYER_UNITS, 0)
    for key, val in totals.items():
        if key not in out:
            continue
        if key.endswith("_s"):
            out[key] = val / rounds * f
        else:
            # a count that did not repeat exactly in every round shows as a fraction
            out[key] = val // rounds if val % rounds == 0 else val / rounds
    if out["kernels.points"]:
        out["kernels.ns_per_point"] = out["kernels.self_s"] / out["kernels.points"] * 1e9
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("zeta_grid", "genfun_circle", "cli_session"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = Path("src").resolve()
    if not (src / "hurzeta" / "__init__.py").is_file():
        print("error: src/hurzeta not found; run from the root of a hurzeta "
              "source tree", file=sys.stderr)
        return 2
    failures = reference.self_test()
    if failures:
        print("error: checker self-test failed: " + "; ".join(failures), file=sys.stderr)
        return 1

    signal.signal(signal.SIGALRM, _on_deadline)
    signal.alarm(DEADLINE_S)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    run = Run()
    with open(OUT_DIR / f"stderr-{tag}.log", "w") as log:
        runner = run_cli if args.workload == "cli_session" else run_worker
        setup, named, e2e, layers = runner(args, Procs(src, log), run)
    signal.alarm(0)

    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    named = {"setup_s": (statistics.median(setup), "s"), "peak_rss_mb": (peak_mib, "MiB"), **named}
    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in layers.items()}
    else:
        e2e.update(setup_s=statistics.median(setup), peak_rss_mb=peak_mib)
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E_UNITS.items()}
    for note in run.unexpected[:20]:
        print("unexpected failure:", note)
    print(f"near_misses {run.near} of {run.attempted} (passed, within 10x of the tolerance)")
    for k, (v, unit) in named.items():
        print(f"{k:<24} {v:.6g} {unit}")
    result = {"correct": not run.unexpected, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
