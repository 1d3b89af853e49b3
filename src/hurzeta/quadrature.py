"""Adaptive Gauss-Kronrod quadrature on panels, over one integrand or a whole
family of them, plus two specializations: cotangent-weighted integrals on
(0, 1) and high-frequency oscillatory ones.

A single integrand ``f(u)`` takes a float64 array and returns one value per
abscissa (real or complex).  A family of ``M`` integrands is passed as
``family=M`` and one function ``f(u, rows)``: ``u`` is a float64 array of
shape ``(P, n)``, ``rows`` an int array of shape ``(P, 1)`` naming the
family row that each line of ``u`` belongs to, and the result has shape
``(P, n)``.  A single integrand runs as a family of one: there is one
driver.

Each row is integrated as if it were alone, with its own panels, error
estimate (per-panel ``|K15 - G7|`` differences, summed), convergence test
(the estimate meets ``max(rel_tol * |value|, abs_tol)``) and
``max_subdivisions`` budget.  The first pass evaluates every row on the
shared initial mesh in one integrand call; each later pass splits the
panels of the rows that have not converged yet, again in one call.  A
non-finite value raises :class:`EvaluationError` for its row.  Running out
of subdivision budget is reported through ``converged=False``, never as an
exception.

For a family, ``value`` and ``error_estimate`` of the result are ``(M,)``
arrays and the ``row_*`` fields hold the per-row evaluations, convergence
flags and warnings; ``evaluations`` and ``converged`` stay an int total and
a bool that holds only when every row converged.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import DivergenceError, EvaluationError

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "integrate_open",
    "integrate_cot_weighted",
    "integrate_oscillatory",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and budget knobs shared by every integral in the library."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    max_subdivisions: int = 200
    endpoint_margin: float = 1e-8

    def __post_init__(self):
        if self.rel_tol < 0 or self.abs_tol <= 0:
            raise ValueError("need rel_tol >= 0 and abs_tol > 0")
        if not 0 < self.endpoint_margin <= 0.1:
            raise ValueError("endpoint_margin must lie in (0, 0.1]")
        if self.max_subdivisions < 0:
            raise ValueError("max_subdivisions must be >= 0")


@dataclass
class QuadratureResult:
    """One integral, or a family of them (see the module docstring)."""

    value: complex
    error_estimate: float
    evaluations: int
    converged: bool
    warnings: list = field(default_factory=list)
    row_evaluations: np.ndarray | None = None
    row_converged: np.ndarray | None = None
    row_warnings: list | None = None

    def row(self, i):
        """Row ``i`` of a family result, as the result of that integrand alone."""
        return QuadratureResult(
            value=complex(self.value[i]),
            error_estimate=float(self.error_estimate[i]),
            evaluations=int(self.row_evaluations[i]),
            converged=bool(self.row_converged[i]),
            warnings=list(self.row_warnings[i]),
        )


# 15-point Kronrod extension of 7-point Gauss on (-1, 1); standard published
# abscissae/weights.  Nodes are stored ascending; the Gauss subset sits at
# the odd indices.
_XK_HALF = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WK_HALF = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG_HALF = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_XK = np.concatenate([-_XK_HALF[:7], _XK_HALF[::-1]])
_WK = np.concatenate([_WK_HALF[:7], _WK_HALF[::-1]])
_GAUSS_IDX = np.arange(1, 15, 2)
_WG = np.concatenate([_WG_HALF[:3], _WG_HALF[::-1]])

# Panels mapped from (-1,1) never touch their endpoints: the rule is open.
_NODE_FRAC = 0.5 * (_XK + 1.0)


# The cotangent-weighted driver probes g at both endpoints and on a 1/32 grid,
# models g on each margin strip from three points, and starts the interior
# from breakpoints 0.1, 0.2, ..., 0.9 plus the margins.
_PROBE = np.concatenate(([0.0, 1.0], np.linspace(0.03125, 0.96875, 31)))
_INNER_EDGES = np.linspace(0.1, 0.9, 9)
_TINY = float(np.finfo(np.float64).tiny)
_NOISE = 64.0 * float(np.finfo(np.float64).eps)


def _abscissae(lefts, widths):
    """Kronrod abscissae of every panel, one panel per line."""
    return lefts[:, None] + widths[:, None] * _NODE_FRAC[None, :]


class _Mesh(NamedTuple):
    """Initial panels, shared by every row."""

    lefts: np.ndarray
    widths: np.ndarray
    half: np.ndarray

    @classmethod
    def from_edges(cls, edges):
        widths = np.diff(edges)
        return cls(edges[:-1].copy(), widths, 0.5 * widths)


class _CotLayout(NamedTuple):
    """Everything the cotangent-weighted driver needs that depends on the
    endpoint margin alone: the abscissae of its first evaluation (probe,
    then three left and three right strip points, then the interior mesh),
    cot(pi*u) on the interior mesh, and the strip model's constants."""

    u: np.ndarray
    cot: np.ndarray
    mesh: _Mesh
    strip_t: np.ndarray      # strip points as offsets from their endpoint
    strip_dist: np.ndarray   # |offsets|
    strip_norm: np.ndarray   # sum of squared offsets, left and right
    strip_weight: float      # integral of the model against the cotangent
    m: float


@functools.lru_cache(maxsize=16)
def _cot_layout(m):
    left = np.array([0.25 * m, 0.5 * m, 0.75 * m])
    right = 1.0 - left[::-1]
    mesh = _Mesh.from_edges(np.concatenate(([m], _INNER_EDGES, [1.0 - m])))
    x = _abscissae(mesh.lefts, mesh.widths).ravel()
    lay = _CotLayout(
        u=np.concatenate([_PROBE, left, right, x]),
        cot=kernels.cot_pi(x),
        mesh=mesh,
        strip_t=np.concatenate([left, right - 1.0]),
        strip_dist=np.concatenate([left, 1.0 - right]),
        strip_norm=np.array([np.sum(left**2), np.sum((right - 1.0) ** 2)]),
        strip_weight=m / math.pi - math.pi * m**3 / 9.0,
        m=m,
    )
    # shared by every call with this margin, so nothing may write to them
    for a in (lay.u, lay.cot, lay.strip_t, lay.strip_dist, lay.strip_norm,
              mesh.lefts, mesh.widths, mesh.half):
        a.setflags(write=False)
    return lay


def _single(f):
    """A plain integrand ``f(u)`` as a family of one."""
    def family(u, rows):
        fv = np.asarray(f(u.ravel()))
        return fv.reshape(u.shape) if fv.shape == (u.size,) else fv
    return family


def _shared(x, rows):
    """The abscissae ``x`` as ``rows`` identical lines (a view for one row)."""
    return x[None, :] if rows == 1 else np.repeat(x[None, :], rows, axis=0)


def _evaluate(f, u, rows):
    """``f(u, rows)``, checked for shape."""
    fv = np.asarray(f(u, rows))
    if fv.shape != u.shape:
        raise ValueError("integrand must return one value per abscissa")
    return fv


def _check_finite(fv, u, rows, family, what="integrand"):
    """Raise :class:`EvaluationError` for the first non-finite value, by row."""
    bad = ~np.isfinite(fv)
    if bad.any():
        line, col = divmod(int(np.flatnonzero(bad)[0]), fv.shape[1])
        row = int(rows[line, 0])
        where = f" (family row {row})" if family is not None else ""
        raise EvaluationError(
            f"{what} returned a non-finite value at u = {u[line, col]!r}{where}",
            node=float(u[line, col]), row=row if family is not None else None,
        )


def _first_pass(f, x, rows, family):
    """Every row of ``f`` on the shared abscissae ``x``, checked.  (A function
    of its own so that ``x``, which can be large, is freed before the
    refinement passes allocate theirs.)"""
    u = _shared(x, rows)
    everyone = np.arange(rows)[:, None]
    fv = _evaluate(f, u, everyone)
    _check_finite(fv, u, everyone, family)
    return fv


def _gauss_kronrod(fv, half):
    """Kronrod values and ``|K15 - G7|`` estimates of panels whose node values
    are ``fv`` (..., 15) and whose half-widths are ``half``."""
    ik = half * (fv @ _WK)
    return ik, np.abs(ik - half * (fv[..., _GAUSS_IDX] @ _WG))


def _budget_cap(split, errs, nsplit, budget):
    """Keep at most ``budget[j]`` of row j's split panels, the largest errors
    first, for every row over its budget."""
    pieces = np.split(split, np.cumsum(nsplit)[:-1])
    return np.concatenate([
        p if p.size <= b else p[np.argsort(errs[p])[::-1][:b]]
        for p, b in zip(pieces, budget)
    ])


def _adapt(f, fv, mesh, spec, abs_tol, family):
    """Adaptive Gauss-Kronrod over a family, from its values ``fv`` (rows,
    n) on the shared initial ``mesh``.

    ``f(u, rows)`` evaluates refined panels and ``abs_tol`` is each row's
    absolute target.  Returns per-row values, error estimates, evaluation
    counts, convergence flags and warnings.
    """
    rows, first = fv.shape[0], mesh.lefts.size
    vals, errs = _gauss_kronrod(fv.reshape(rows, first, _XK.size), mesh.half)
    value = vals.sum(axis=1)
    error = errs.sum(axis=1)
    target = np.maximum(spec.rel_tol * np.abs(value), abs_tol)
    converged = error <= target
    evaluations = np.full(rows, fv.shape[1])
    notes = [[] for _ in range(rows)]
    if converged.all():
        return value, error, evaluations, converged, notes

    # The rows still refining, and their panels flat, grouped by row, each
    # row's panels in the order a lone run of that row would hold them.
    todo = np.flatnonzero(~converged) if spec.max_subdivisions > 0 else np.empty(0, int)
    subdivisions = np.zeros(todo.size, dtype=np.int64)
    owner = np.repeat(np.arange(todo.size), first)
    lefts = np.tile(mesh.lefts, todo.size)
    widths = np.tile(mesh.widths, todo.size)
    vals, errs = vals[todo].ravel(), errs[todo].ravel()
    count = np.full(todo.size, first)
    while todo.size:
        # Split every panel holding more than its row's fair share of the
        # row's target; since the row's summed estimate exceeds its target,
        # at least one panel of every pending row qualifies.
        theta = target[todo] / (2.0 * count)
        split = np.flatnonzero(errs > theta[owner])
        nsplit = np.bincount(owner[split], minlength=todo.size)
        budget = spec.max_subdivisions - subdivisions
        if np.any(nsplit > budget):
            split = _budget_cap(split, errs, nsplit, budget)
            nsplit = np.minimum(nsplit, budget)
        subdivisions += nsplit
        evaluations[todo] += 2 * _XK.size * nsplit

        half = 0.5 * widths[split]
        new_lefts = np.concatenate([lefts[split], lefts[split] + half])
        new_widths = np.concatenate([half, half])
        new_owner = np.concatenate([owner[split], owner[split]])
        u = _abscissae(new_lefts, new_widths)
        who = todo[new_owner][:, None]
        nfv = _evaluate(f, u, who)
        _check_finite(nfv, u, who, family)
        nv, ne = _gauss_kronrod(nfv, 0.5 * new_widths)

        keep = np.ones(owner.size, dtype=bool)
        keep[split] = False
        owner = np.concatenate([owner[keep], new_owner])
        lefts = np.concatenate([lefts[keep], new_lefts])
        widths = np.concatenate([widths[keep], new_widths])
        vals = np.concatenate([vals[keep], nv])
        errs = np.concatenate([errs[keep], ne])
        if todo.size > 1:  # regroup by row; one row is already in order
            order = np.argsort(owner, kind="stable")
            owner, lefts, widths = owner[order], lefts[order], widths[order]
            vals, errs = vals[order], errs[order]

        count = np.bincount(owner, minlength=todo.size)
        ends = np.cumsum(count)
        bounds = list(zip((ends - count).tolist(), ends.tolist()))
        value[todo] = [vals[a:b].sum() for a, b in bounds]
        error[todo] = [errs[a:b].sum() for a, b in bounds]
        target[todo] = np.maximum(spec.rel_tol * np.abs(value[todo]), abs_tol[todo])
        converged[todo] = error[todo] <= target[todo]

        stay = ~converged[todo] & (subdivisions < spec.max_subdivisions)
        if not stay.all():
            panels = stay[owner]
            owner = (np.cumsum(stay) - 1)[owner[panels]]
            lefts, widths = lefts[panels], widths[panels]
            vals, errs = vals[panels], errs[panels]
            todo, count, subdivisions = todo[stay], count[stay], subdivisions[stay]

    for r in np.flatnonzero(~converged):
        notes[r].append(
            f"subdivision budget ({spec.max_subdivisions}) exhausted with "
            f"error estimate {error[r]:.3e} > target {target[r]:.3e}"
        )
    return value, error, evaluations, converged, notes


def _result(value, error, evaluations, converged, notes, family):
    if family is None:
        return QuadratureResult(complex(value[0]), float(error[0]),
                                int(evaluations[0]), bool(converged[0]), notes[0])
    return QuadratureResult(
        value=value,
        error_estimate=error,
        evaluations=int(evaluations.sum()),
        converged=bool(converged.all()),
        warnings=[f"row {r}: {w}" for r, ws in enumerate(notes) for w in ws],
        row_evaluations=evaluations,
        row_converged=converged,
        row_warnings=notes,
    )


def integrate_open(f, spec=None, interval=(0.0, 1.0), initial_panels=8,
                   max_panel_width=None, family=None):
    """Adaptive integration of ``f`` over ``interval`` with an open rule.

    ``max_panel_width`` caps the width of the initial uniform mesh (used by
    the oscillatory front end); adaptivity proceeds from whatever mesh that
    implies.  ``initial_panels`` may also be an explicit breakpoint sequence
    covering the interval.  ``family=M`` integrates the M rows of a family
    ``f(u, rows)`` (see the module docstring).
    """
    spec = spec or QuadratureSpec()
    a0, b0 = float(interval[0]), float(interval[1])
    if not b0 > a0:
        raise ValueError("interval must have positive width")

    if np.ndim(initial_panels) > 0:
        edges = np.asarray(initial_panels, dtype=np.float64)
        if edges[0] != a0 or edges[-1] != b0 or np.any(np.diff(edges) <= 0):
            raise ValueError("breakpoints must increase from interval start to end")
    else:
        count = int(initial_panels)
        if max_panel_width is not None:
            count = max(count, math.ceil((b0 - a0) / max_panel_width))
        edges = np.linspace(a0, b0, count + 1)
    mesh = _Mesh.from_edges(edges)
    rows = 1 if family is None else int(family)
    f = _single(f) if family is None else f
    fv = _first_pass(f, _abscissae(mesh.lefts, mesh.widths).ravel(), rows, family)
    parts = _adapt(f, fv, mesh, spec, np.full(rows, spec.abs_tol), family)
    return _result(*parts, family)


def integrate_cot_weighted(g, spec=None, scale_hint=0.0, family=None):
    """Integral of ``g(u) * cot(pi*u)`` over (0, 1) for smooth ``g`` that
    vanishes at both endpoints.

    The endpoint zeros are what make the integral exist, so they are checked
    up front (:class:`DivergenceError` on failure).  Inside
    ``[margin, 1-margin]`` the product is integrated adaptively; on each
    margin strip the cotangent pole is integrated in closed form against a
    local linear model of ``g`` fitted through the endpoint zero.

    ``scale_hint`` tells the driver the magnitude of the *intermediate*
    quantities inside ``g`` when that exceeds ``max |g|`` (a difference of
    large near-equal values evaluates with rounding floor ``eps * hint``,
    not ``eps * max|g|``).  Both the endpoint check and the attainable
    absolute tolerance are referenced to it.  The working absolute target is
    ``abs_tol`` *scaled by the integrand size*, so tiny integrals are still
    resolved to relative accuracy instead of being accepted at a fixed
    absolute floor.

    ``g`` is evaluated once on the probe grid, the strip points and the
    initial interior mesh together.  Checks run in this order, each raising
    for the first row that fails it: non-finite values on the probe grid,
    the endpoint zeros, non-finite values anywhere else.  A row whose probe
    values all vanish integrates to 0.

    ``family=M`` integrates the M rows of a family ``g(u, rows)`` (see the
    module docstring); ``scale_hint`` is then a scalar or one value per row.
    Every row gets its own scale, endpoint check, strip model and absolute
    target.
    """
    spec = spec or QuadratureSpec()
    lay = _cot_layout(spec.endpoint_margin)
    rows = 1 if family is None else int(family)
    f = _single(g) if family is None else g
    u = _shared(lay.u, rows)
    everyone = np.arange(rows)[:, None]
    gv = _evaluate(f, u, everyone)
    n_probe, n_head = _PROBE.size, _PROBE.size + 6
    finite = np.isfinite(gv).all()
    if not finite:
        _check_finite(gv[:, :n_probe], u, everyone, family, "integrand factor")
    scale = np.abs(gv[:, :n_probe]).max(axis=1)
    eval_scale = np.maximum(scale, scale_hint)

    # floored at rounding noise so a tight abs_tol cannot demand an endpoint
    # residual below what evaluating g in doubles can produce
    tol_end = max(spec.abs_tol, _NOISE) * eval_scale
    ends = np.abs(gv[:, :2])
    bad = np.flatnonzero((ends > tol_end[:, None]).any(axis=1))
    if bad.size:
        r = bad[0]
        raise DivergenceError(
            "cotangent-weighted integrand must vanish at the endpoints: "
            f"|g(0)| = {ends[r, 0]:.3e}, |g(1)| = {ends[r, 1]:.3e}, "
            f"allowed {tol_end[r]:.3e} (= abs_tol * scale)"
            + (f" (family row {r})" if family is not None else "")
        )
    if not finite:
        _check_finite(gv, u, everyone, family, "integrand factor")

    # Margin strips: model g linearly through its endpoint zero (g ~ c*t,
    # t the offset from the endpoint) and integrate the model against the
    # exact cotangent expansion 1/(pi*t) - pi*t/3 + ...
    gs = gv[:, n_probe:n_head]
    c = (gs * lay.strip_t).reshape(rows, 2, 3).sum(axis=2) / lay.strip_norm
    model = c.repeat(3, axis=1) * lay.strip_t
    resid = (np.abs(gs - model) / lay.strip_dist).max(axis=1)
    strip_value = c.sum(axis=1) * lay.strip_weight
    strip_err = resid * lay.m / math.pi + np.abs(c).sum(axis=1) * lay.m**3

    # Absolute target referenced to the integrand scale, floored at the
    # rounding noise the evaluation of g can actually deliver, and at the
    # smallest normal double so a subnormal scale cannot underflow it to 0.
    # A row whose probe values all vanish integrates to 0: an infinite
    # target keeps it out of refinement.
    abs_tol = np.maximum(np.maximum(spec.abs_tol * scale, _NOISE * eval_scale), _TINY)
    zero = scale == 0.0
    abs_tol[zero] = np.inf
    value, error, evaluations, converged, notes = _adapt(
        lambda u, r: f(u, r) * kernels.cot_pi(u),
        gv[:, n_head:] * lay.cot, lay.mesh, spec, abs_tol, family,
    )
    value = value + strip_value
    error = error + strip_err
    value[zero] = 0.0
    error[zero] = 0.0
    return _result(value, error, evaluations + n_head, converged, notes, family)


def integrate_oscillatory(f, n, spec=None):
    """Integrate ``f`` over (0, 1) when it oscillates at integer frequency ``n``.

    Starts from a uniform mesh of width at most ``1/(4n)`` so every panel sees
    at most a quarter period, then refines adaptively as usual.  ``f`` must be
    bounded on the closed interval (the oscillatory integrands here all have
    removable endpoint singularities).
    """
    if n < 1 or n != int(n):
        raise ValueError("frequency n must be a positive integer")
    spec = spec or QuadratureSpec()
    return integrate_open(f, spec, interval=(0.0, 1.0), initial_panels=4,
                          max_panel_width=1.0 / (4.0 * int(n)))
