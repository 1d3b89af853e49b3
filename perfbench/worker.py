"""Runs the in-process workloads (zeta_grid, genfun_circle) in a fresh
interpreter, so peak RSS and set-up time are the program's own.

Reads a job from stdin as JSON and writes one JSON line to stdout.

* ``worker.py setup``: import the program, make the workload's first call,
  print its output.  The parent times this from process start.
* ``worker.py run``: one untimed warm-up round, then whole rounds until
  ``seconds`` have passed.  With ``trace`` set, untraced and traced rounds
  alternate; the traced ones give the per-layer figures.

Outputs go back to the parent for checking: the warm-up round's in full,
and any later output that differs from it.  Operation times are scaled to
the reference machine speed by calibrations taken during the round
(``pace.py``).
"""

import json
import statistics
import sys
import time

import pace

CAL_INTERVAL_S = 0.05     # calibrate this often during a round


def ops_for(job):
    """[(kind, call)] for one round, in order."""
    from hurzeta import genfun, hurwitz

    ops = []
    if job["workload"] == "zeta_grid":
        for k, b, _ in job["inputs"]:
            ops.append(("cell", lambda k=k, b=complex(*b): hurwitz.zeta_auto(k, b)))
    else:
        nodes = job["nodes"]
        for k, b, radius in job["inputs"]["recoveries"]:
            ops.append(("recover", lambda k=k, b=complex(*b), r=radius:
                        genfun.zeta_from_genfun(k, b, r, nodes)))
        for x, b, _ in job["inputs"]["points"]:
            ops.append(("point", lambda x=complex(*x), b=complex(*b):
                        genfun.genfun_closed(x, b)))
    return ops


def encode(kind, result):
    """JSON form of one output: [re, im] or ["error", type name]."""
    if isinstance(result, BaseException):
        return ["error", type(result).__name__]
    value = {"cell": lambda r: r[0], "recover": lambda r: r,
             "point": lambda r: r.total}[kind](result)
    return [value.real, value.imag]


def run_round(ops, tracer=None, base=0):
    """One pass over ``ops``: (outputs, [(kind, seconds)], speed factor)."""
    outs, times, cals = [], [], []
    last_cal = -CAL_INTERVAL_S
    for i, (kind, call) in enumerate(ops):
        if time.perf_counter() - last_cal >= CAL_INTERVAL_S:
            cals.append(pace.calibrate())
            last_cal = time.perf_counter()
        if tracer is not None:
            tracer.op = base + i
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # counted as a failed operation by the parent
            result = exc
        times.append((kind, time.perf_counter() - t0))
        outs.append(encode(kind, result))
    return outs, times, pace.factor(cals)


class Stats:
    """Per-kind operation times, kept as per-round figures so memory does not
    grow with the number of rounds (which would tie peak RSS to speed)."""

    def __init__(self):
        self.n, self.total_s, self.raw_s = 0, 0.0, 0.0
        self.p50, self.p90, self.mean = [], [], []

    def add_round(self, times, f):
        self.n += len(times)
        self.raw_s += sum(times)
        self.total_s += sum(times) * f
        self.p50.append(statistics.median(times) * f)
        self.p90.append(statistics.quantiles(times, n=10)[8] * f)
        self.mean.append(statistics.mean(times) * f)

    def summary(self):
        """Scaled totals, the medians over rounds of each round's p50 and p90,
        and the per-round figures themselves."""
        return {"n": self.n, "total_s": self.total_s, "raw_s": self.raw_s,
                "p50": statistics.median(self.p50), "p90": statistics.median(self.p90),
                "rounds": {"p50": self.p50, "p90": self.p90, "mean": self.mean}}


def main():
    mode = sys.argv[1]
    job = json.load(sys.stdin)
    ops = ops_for(job)
    if mode == "setup":
        outs, _, _ = run_round(ops[:1])
        print(json.dumps({"out": outs[0]}), flush=True)
        return

    tracer = None
    if job["trace"]:
        import spans
        tracer = spans.Tracer()
    first, _, _ = run_round(ops)
    stats = {kind: Stats() for kind, _ in ops}
    diffs = []
    rounds = 1
    plain, traced_rounds, traced_factors = [], [], []   # scaled round times
    start = time.perf_counter()
    while True:
        traced = tracer is not None and rounds % 2 == 0
        if traced:
            tracer.keep_spans = not traced_rounds
            restore = spans.install(tracer, sys.modules)
        t0 = time.perf_counter()
        try:
            outs, times, f = run_round(ops, tracer if traced else None, rounds * len(ops))
        finally:
            if traced:
                restore()
        round_s = (time.perf_counter() - t0) * f
        if traced:
            traced_rounds.append(round_s)
            traced_factors.append(f)
        else:
            plain.append(round_s)
            for kind, st in stats.items():
                st.add_round([dt for k, dt in times if k == kind], f)
        diffs.extend([rounds, i, o] for i, o in enumerate(outs) if o != first[i])
        rounds += 1
        if time.perf_counter() - start >= job["seconds"] and (tracer is None or traced):
            break

    result = {"rounds": rounds, "first": first, "diffs": diffs,
              "times": {kind: st.summary() for kind, st in stats.items()}}
    if tracer is not None:
        result["trace"] = {
            "rounds": len(traced_rounds),
            "totals": tracer.totals(),
            "factor": statistics.median(traced_factors),
            "overhead": statistics.mean(traced_rounds) / statistics.mean(plain) - 1.0,
        }
        with open(job["spans_path"], "w") as fh:
            json.dump({"fields": ["id", "parent", "op", "layer", "name",
                                  "start", "end", "self_s"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
