"""Adaptive Gauss-Kronrod quadrature on panels, over one integrand or a whole
family of them, plus two specializations: cotangent-weighted integrals on
(0, 1) and high-frequency oscillatory ones.

A single integrand ``f(u)`` takes a float64 array and returns one value per
abscissa (real or complex).  A family of ``M`` integrands is passed as
``family=M`` and one function ``f(u, rows)``: ``u`` is a float64 array of
shape ``(P, n)`` and ``rows`` an int array of shape ``(L, 1)`` naming the
family row of each line of the result, which has shape ``(L, n)``.  The
first pass shares its abscissae: ``u`` is ``(1, n)`` and ``rows`` is
``(M, 1)``, so numpy broadcasting gives ``(M, n)`` and a factor that does
not depend on the row is computed once.  Later passes give every line its
own abscissae (``P == L``).  A result of the shape of ``u`` is taken to
depend on ``u`` alone and is the same for every row.  A single integrand
runs as a family of one: there is one driver.

Each row is integrated as if it were alone, with its own panels, error
estimate (per-panel ``|K15 - G7|`` differences, summed), convergence test
(the estimate meets ``max(rel_tol * |value|, abs_tol)``) and
``max_subdivisions`` budget.  The first pass evaluates every row on the
shared initial mesh; each later pass splits the panels of the rows that
have not converged yet.  Either pass hands the integrand its panels in
blocks of at most ``2**14`` values (rows times abscissae) per call, so the
working set stays near cache size however fine the mesh; a pass that fits
one block is one call.  (A first pass of more than 1092 rows takes one
panel per call; the cotangent driver's first pass is one call of 189
values per row.)  A non-finite value raises :class:`EvaluationError`
for its row, the first met in block order.  Running out of subdivision
budget, or an estimate that no split can lower (NaN), is reported through
``converged=False`` with a note, never as an exception.

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
from .errors import DivergenceError, DomainError, EvaluationError

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
        # a NaN tolerance would pass the sign checks and stop refinement
        if not (0 <= self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise DomainError("need finite rel_tol >= 0 and abs_tol > 0")
        if not 0 < self.endpoint_margin <= 0.1:
            raise DomainError("endpoint_margin must lie in (0, 0.1]")
        if self.max_subdivisions < 0:
            raise DomainError("max_subdivisions must be >= 0")


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
_BLOCK = 1 << 14  # most values (rows times abscissae) one integrand call gets

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

    @classmethod
    def from_edges(cls, edges):
        return cls(edges[:-1].copy(), np.diff(edges))


class _CotLayout(NamedTuple):
    """Everything the cotangent-weighted driver needs that depends on the
    endpoint margin alone: the abscissae of its first evaluation (probe,
    then three left and three right strip points, then the interior mesh,
    as one line) and the matrix of its first-pass functionals.

    A row ``gv`` of first-pass values gives ``gv @ weights``: the Kronrod
    values of the ``P`` interior panels of ``g * cot(pi*u)``, their
    Kronrod - Gauss differences, the slopes ``c`` of the left and right
    strip models ``g ~ c*t`` (``t`` the offset from the endpoint, fitted by
    least squares through the endpoint zero) and the six strip residuals
    ``(g - c*t) / |t|``."""

    u: np.ndarray
    weights: np.ndarray      # real, (n, 2P + 8)
    cweights: np.ndarray     # the same as complex, for complex g
    mesh: _Mesh
    strip_weight: float      # integral of the model against the cotangent
    m: float


@functools.lru_cache(maxsize=16)
def _cot_layout(m):
    left = np.array([0.25 * m, 0.5 * m, 0.75 * m])
    right = 1.0 - left[::-1]
    mesh = _Mesh.from_edges(np.concatenate(([m], _INNER_EDGES, [1.0 - m])))
    x = _abscissae(mesh.lefts, mesh.widths)
    p, head = mesh.lefts.size, _PROBE.size
    w = np.zeros((head + 6 + x.size, 2 * p + 8))

    inner = head + 6 + np.arange(x.size).reshape(x.shape)
    panel = np.arange(p)[:, None]
    wg = np.zeros(_XK.size)
    wg[_GAUSS_IDX] = _WG
    kron = 0.5 * mesh.widths[:, None] * kernels.cot_pi(x)
    w[inner, panel] = kron * _WK
    w[inner, p + panel] = kron * (_WK - wg)

    t = np.concatenate([left, right - 1.0]).reshape(2, 3)
    fit = t / np.sum(t**2, axis=1, keepdims=True)
    for side in range(2):
        at = head + 3 * side + np.arange(3)
        w[at, 2 * p + side] = fit[side]
        cols = 2 * p + 2 + 3 * side + np.arange(3)
        w[at[:, None], cols] = (np.eye(3) - np.outer(fit[side], t[side])) / np.abs(t[side])

    lay = _CotLayout(
        u=np.concatenate([_PROBE, left, right, x.ravel()])[None, :],
        weights=w,
        cweights=w.astype(np.complex128),
        mesh=mesh,
        strip_weight=m / math.pi - math.pi * m**3 / 9.0,
        m=m,
    )
    # shared by every call with this margin, so nothing may write to them
    for a in (lay.u, lay.weights, lay.cweights, mesh.lefts, mesh.widths):
        a.setflags(write=False)
    return lay


def _single(f):
    """A plain integrand ``f(u)`` as a family of one."""
    def family(u, rows):
        fv = np.asarray(f(u.ravel()))
        return fv.reshape(u.shape) if fv.shape == (u.size,) else fv
    return family


def _evaluate(f, u, rows):
    """``f(u, rows)`` as an array of one line per line of ``rows``; a result
    of the shape of ``u`` is every row's (see the module docstring)."""
    fv = np.asarray(f(u, rows))
    shape = (rows.shape[0], u.shape[1])
    if fv.shape != shape:
        if fv.shape != u.shape:
            raise ValueError("integrand must return one value per abscissa")
        fv = np.broadcast_to(fv, shape)
    return fv


def _check_finite(fv, u, rows, family, what="integrand"):
    """Raise :class:`EvaluationError` for the first non-finite value, by row."""
    bad = ~np.isfinite(fv)
    if bad.any():
        line, col = divmod(int(np.flatnonzero(bad)[0]), fv.shape[1])
        row = int(rows[line, 0])
        node = np.broadcast_to(u, fv.shape)[line, col]
        where = f" (family row {row})" if family is not None else ""
        raise EvaluationError(
            f"{what} returned a non-finite value at u = {node!r}{where}",
            node=float(node), row=row if family is not None else None,
        )


def _gauss_kronrod(fv, half):
    """Kronrod values and ``|K15 - G7|`` estimates of panels whose node values
    are ``fv`` (..., 15) and whose half-widths are ``half``."""
    ik = half * (fv @ _WK)
    return ik, np.abs(ik - half * (fv[..., _GAUSS_IDX] @ _WG))


def _panels(f, lefts, widths, rows, family, shared=False):
    """Kronrod values and ``|K15 - G7|`` estimates of panels ``lefts``,
    ``widths``, from calls of at most ``_BLOCK`` values.  Line ``i`` of
    ``rows`` (L, 1) owns panel ``i`` and gets (L,) arrays, ``_BLOCK // 15``
    panels per call; with ``shared`` (a first pass) every row sees every
    panel through ``u`` of shape (1, n) and gets (L, P) arrays,
    ``max(1, _BLOCK // (15 L))`` panels per call."""
    step = max(1, _BLOCK // (_XK.size * rows.shape[0])) if shared else _BLOCK // _XK.size
    parts = []
    for s in range(0, lefts.size, step):
        u = _abscissae(lefts[s:s + step], widths[s:s + step])
        who = rows if shared else rows[s:s + step]
        if shared:
            u = u.reshape(1, -1)
        fv = _evaluate(f, u, who)
        _check_finite(fv, u, who, family)
        if shared:
            fv = fv.reshape(who.shape[0], -1, _XK.size)
        parts.append(_gauss_kronrod(fv, 0.5 * widths[s:s + step]))
    if len(parts) == 1:
        return parts[0]
    vals, errs = zip(*parts)
    return np.concatenate(vals, axis=-1), np.concatenate(errs, axis=-1)


def _budget_cap(split, errs, nsplit, budget):
    """Keep at most ``budget[j]`` of row j's split panels, the largest errors
    first, for every row over its budget."""
    pieces = np.split(split, np.cumsum(nsplit)[:-1])
    return np.concatenate([
        p if p.size <= b else p[np.argsort(errs[p])[::-1][:b]]
        for p, b in zip(pieces, budget)
    ])


def _adapt(f, vals, errs, mesh, spec, abs_tol, family, first):
    """Adaptive Gauss-Kronrod over a family, from the Kronrod values and
    error estimates ``vals``, ``errs`` (rows, P) of its panels on the shared
    initial ``mesh``, which took ``first`` evaluations per row.

    ``f(u, rows)`` evaluates refined panels and ``abs_tol`` is each row's
    absolute target.  Returns per-row values, error estimates, evaluation
    counts, convergence flags and warnings.
    """
    rows, p = vals.shape
    value = vals.sum(axis=1)
    error = errs.sum(axis=1)
    target = np.maximum(spec.rel_tol * np.abs(value), abs_tol)
    converged = error <= target
    evaluations = np.full(rows, first)
    notes = [[] for _ in range(rows)]
    if converged.all():
        return value, error, evaluations, converged, notes

    # The rows still refining, and their panels flat, grouped by row, each
    # row's panels in the order a lone run of that row would hold them.
    todo = np.flatnonzero(~converged) if spec.max_subdivisions > 0 else np.empty(0, int)
    subdivisions = np.zeros(todo.size, dtype=np.int64)
    stuck = np.zeros(rows, dtype=bool)
    owner = np.repeat(np.arange(todo.size), p)
    lefts = np.tile(mesh.lefts, todo.size)
    widths = np.tile(mesh.widths, todo.size)
    vals, errs = vals[todo].ravel(), errs[todo].ravel()
    count = np.full(todo.size, p)
    while todo.size:
        # Split every panel holding more than its row's fair share of the
        # row's target.  A row whose summed estimate exceeds its target has
        # such a panel unless the estimate or the target is NaN; a row that
        # splits nothing is stuck, and stops.
        theta = target[todo] / (2.0 * count)
        split = np.flatnonzero(errs > theta[owner])
        nsplit = np.bincount(owner[split], minlength=todo.size)
        stuck[todo] = nsplit == 0
        if not split.size:
            break
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
        nv, ne = _panels(f, new_lefts, new_widths, todo[new_owner][:, None], family)

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

        stay = ~converged[todo] & (subdivisions < spec.max_subdivisions) & ~stuck[todo]
        if not stay.all():
            panels = stay[owner]
            owner = (np.cumsum(stay) - 1)[owner[panels]]
            lefts, widths = lefts[panels], widths[panels]
            vals, errs = vals[panels], errs[panels]
            todo, count, subdivisions = todo[stay], count[stay], subdivisions[stay]

    for r in np.flatnonzero(~converged):
        why = ("no panel can be split further" if stuck[r] else
               f"subdivision budget ({spec.max_subdivisions}) exhausted")
        notes[r].append(
            f"{why} with error estimate {error[r]:.3e} > target {target[r]:.3e}"
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
    vals, errs = _panels(f, mesh.lefts, mesh.widths, np.arange(rows)[:, None], family,
                         shared=True)
    parts = _adapt(f, vals, errs, mesh, spec, np.full(rows, spec.abs_tol), family,
                   _XK.size * mesh.lefts.size)
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
    absolute tolerance are referenced to it; it must be finite
    (:class:`DomainError`).  The working absolute target is ``abs_tol``
    *scaled by the integrand size*, so tiny integrals are still resolved to
    relative accuracy instead of being accepted at a fixed absolute floor.

    ``g`` is evaluated once on the probe grid, the strip points and the
    initial interior mesh together, and one matrix product of those values
    gives every first-pass panel value, error estimate and strip model.
    Checks run in this order, each raising for the first row that fails it:
    non-finite values on the probe grid, the endpoint zeros, non-finite
    values anywhere else.  A row whose probe values all vanish integrates
    to 0.

    ``family=M`` integrates the M rows of a family ``g(u, rows)`` (see the
    module docstring); ``scale_hint`` is then a scalar or one value per row.
    Every row gets its own scale, endpoint check, strip model and absolute
    target.
    """
    spec = spec or QuadratureSpec()
    if not np.isfinite(scale_hint).all():
        raise DomainError(f"scale_hint must be finite, got {scale_hint!r}")
    lay = _cot_layout(spec.endpoint_margin)
    rows = 1 if family is None else int(family)
    f = _single(g) if family is None else g
    everyone = np.arange(rows)[:, None]
    gv = _evaluate(f, lay.u, everyone)
    n_probe = _PROBE.size
    finite = np.isfinite(gv).all()
    if not finite:
        _check_finite(gv[:, :n_probe], lay.u[:, :n_probe], everyone, family,
                      "integrand factor")
    probe = np.abs(gv[:, :n_probe])
    scale = probe.max(axis=1)
    eval_scale = np.maximum(scale, scale_hint)

    # floored at rounding noise so a tight abs_tol cannot demand an endpoint
    # residual below what evaluating g in doubles can produce
    tol_end = max(spec.abs_tol, _NOISE) * eval_scale
    ends = probe[:, :2]
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
        _check_finite(gv, lay.u, everyone, family, "integrand factor")

    # Margin strips: the model g ~ c*t through the endpoint zero is
    # integrated against the exact cotangent expansion 1/(pi*t) - pi*t/3 + ...
    p = lay.mesh.lefts.size
    fused = gv @ (lay.cweights if np.iscomplexobj(gv) else lay.weights)
    size = np.abs(fused[:, p:])
    strip_value = fused[:, 2 * p:2 * p + 2].sum(axis=1) * lay.strip_weight
    strip_err = (size[:, p + 2:].max(axis=1) * lay.m / math.pi
                 + size[:, p:p + 2].sum(axis=1) * lay.m**3)

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
        fused[:, :p], size[:, :p], lay.mesh, spec, abs_tol, family, gv.shape[1],
    )
    value = value + strip_value
    error = error + strip_err
    value[zero] = 0.0
    error[zero] = 0.0
    return _result(value, error, evaluations, converged, notes, family)


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
