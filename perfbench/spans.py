"""Timing spans around the program's public functions, installed from outside.

Each wrapped function is replaced at the name its callers bind (a module
attribute for ``kernels.cot_pi``-style calls, the importing module's global
for ``from .x import f`` bindings), so the program itself is unchanged.  A
span records its layer, name, parent span, start, end and self time (its
duration minus the time covered by its child spans).  Per-layer totals and
counts are kept for every span; the spans themselves are kept in memory
only while ``Tracer.keep_spans`` is true and are written out by the caller
at the end of the run.
"""

import time

import numpy as np

LAYERS = ("kernels", "quadrature", "special_functions", "hurwitz", "genfun",
          "validation", "cli")

KERNELS = ("cot_pi", "poly_exp_gap", "sin_ratio_gap", "sin_ratio_ucos_gap",
           "sinh_ratio_gap", "pow_sin_cot", "one_minus_cos_cot",
           "decay_one_minus_cos_cot", "inv_power_sum", "rot_inv_power_sum")
POWER_SUMS = ("inv_power_sum", "rot_inv_power_sum")

# (module, attribute, layer): every binding through which one layer's
# public functions are reached from another layer or from the benchmark.
BINDINGS = (
    [("hurzeta.kernels", name, "kernels") for name in KERNELS]
    + [
        ("hurzeta.quadrature", "integrate_open", "quadrature"),
        ("hurzeta.hurwitz", "integrate_cot_weighted", "quadrature"),
        ("hurzeta.genfun", "integrate_cot_weighted", "quadrature"),
        ("hurzeta.validation", "integrate_cot_weighted", "quadrature"),
        ("hurzeta.validation", "integrate_oscillatory", "quadrature"),
        ("hurzeta.hurwitz", "polylog_nonpos", "special_functions"),
        ("hurzeta.genfun", "bernoulli", "special_functions"),
        ("hurzeta.genfun", "harmonic_number", "special_functions"),
        ("hurzeta.hurwitz", "zeta_auto", "hurwitz"),
        ("hurzeta.hurwitz", "hurwitz_zeta", "hurwitz"),
        ("hurzeta.hurwitz", "hurwitz_series_oracle", "hurwitz"),
        ("hurzeta.hurwitz", "bracket_kernel", "hurwitz"),
        ("hurzeta.hurwitz", "bracket_scale", "hurwitz"),
        ("hurzeta.genfun", "hurwitz_series_oracle", "hurwitz"),
        ("hurzeta.validation", "hurwitz_zeta", "hurwitz"),
        ("hurzeta.cli", "zeta_auto", "hurwitz"),
        ("hurzeta.cli", "hurwitz_series_oracle", "hurwitz"),
        ("hurzeta.cli", "bracket_kernel", "hurwitz"),
        ("hurzeta.cli", "bracket_scale", "hurwitz"),
        ("hurzeta.genfun", "genfun_closed", "genfun"),
        ("hurzeta.genfun", "zeta_from_genfun", "genfun"),
        ("hurzeta.cli", "genfun_closed", "genfun"),
        ("hurzeta.cli", "odd_zeta_integral", "genfun"),
        ("hurzeta.cli", "theorem1_scan", "validation"),
        ("hurzeta.cli", "zero_integral_scan", "validation"),
        ("hurzeta.cli", "log_asymptotic_scan", "validation"),
        ("hurzeta.cli", "emit", "cli"),
    ]
)

COUNTERS = ("kernels.calls", "kernels.points", "quadrature.calls",
            "quadrature.evaluations", "quadrature.unconverged",
            "special_functions.polylog_calls", "hurwitz.closed_form_calls",
            "hurwitz.series_calls", "hurwitz.series_terms",
            "genfun.closed_calls", "validation.scan_calls")


class Tracer:
    """Span recorder; one per process, driven by the wrappers ``install`` makes."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.cli_s = {"command": 0.0, "emit": 0.0}  # whole durations, not self
        self.spans = []
        self.keep_spans = False
        self.op = 0          # identifier shared by the spans of one operation
        self._stack = []     # open spans: [span_id, layer, name, child_s]
        self._next_id = 0

    def call(self, fn, layer, name, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, layer, name, 0.0]
        self._stack.append(frame)
        result = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dur = t1 - t0
            own = dur - frame[3]
            self.self_s[layer] += own
            if parent is not None:
                parent[3] += dur
            if layer == "cli":
                self.cli_s[name] += dur
            self._count(layer, name, parent, args, result)
            if self.keep_spans:
                self.spans.append((span_id, parent[0] if parent else None, self.op,
                                   layer, name, t0, t1, own))

    def _count(self, layer, name, parent, args, result):
        c = self.counts
        if layer == "kernels":
            c["kernels.calls"] += 1
            if name in POWER_SUMS:
                points = args[3] - args[2] + 1
                if parent is not None and parent[2] == "hurwitz_series_oracle":
                    c["hurwitz.series_terms"] += points
            else:
                points = int(np.size(args[0]))
            c["kernels.points"] += points
        elif layer == "quadrature":
            # calls into the layer from outside it; nested driver calls are
            # part of the outer call's work
            if parent is None or parent[1] != "quadrature":
                c["quadrature.calls"] += 1
                if result is not None:
                    c["quadrature.evaluations"] += result.evaluations
                    c["quadrature.unconverged"] += int(not result.converged)
        elif name == "polylog_nonpos":
            c["special_functions.polylog_calls"] += 1
        elif name == "hurwitz_zeta":
            c["hurwitz.closed_form_calls"] += 1
        elif name == "hurwitz_series_oracle":
            c["hurwitz.series_calls"] += 1
        elif name == "genfun_closed":
            c["genfun.closed_calls"] += 1
        elif layer == "validation":
            c["validation.scan_calls"] += 1

    def totals(self):
        out = dict(self.counts)
        for layer in LAYERS:
            out[layer + ".self_s"] = self.self_s[layer]
        out["cli.command_s"] = self.cli_s["command"]
        out["cli.serialize_s"] = self.cli_s["emit"]
        return out


def _wrap(tracer, fn, layer, name):
    def traced(*args, **kwargs):
        return tracer.call(fn, layer, name, args, kwargs)
    traced.__wrapped__ = fn
    return traced


def install(tracer, modules):
    """Wrap every binding in ``BINDINGS`` found in ``modules`` (name -> module).

    ``hurzeta.cli.COMMANDS`` entries are wrapped too, as cli-layer spans.
    Returns a function that restores the original bindings.
    """
    saved = []
    for mod_name, attr, layer in BINDINGS:
        mod = modules.get(mod_name)
        if mod is None or not hasattr(mod, attr):
            continue
        fn = getattr(mod, attr)
        saved.append((mod, attr, fn))
        setattr(mod, attr, _wrap(tracer, fn, layer, attr))
    cli = modules.get("hurzeta.cli")
    commands = dict(cli.COMMANDS) if cli is not None else {}
    for key, fn in commands.items():
        cli.COMMANDS[key] = _wrap(tracer, fn, "cli", "command")

    def restore():
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)
        if cli is not None:
            cli.COMMANDS.update(commands)
    return restore
