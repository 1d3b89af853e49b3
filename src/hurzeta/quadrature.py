"""Adaptive Gauss-Kronrod quadrature on panels, plus two specializations:
cotangent-weighted integrals on (0, 1), over one integrand or a whole family
of them, and high-frequency oscillatory ones.

A single integrand ``f(u)`` takes a float64 array and returns one value per
abscissa (real or complex).  Every driver also takes a family of ``M``
integrands as ``family=M`` and one function ``f(u, rows)``: ``u`` is a
float64 array of shape ``(P, n)`` and ``rows`` an int array of shape
``(L, 1)`` naming the family row of each line of the result, which has
shape ``(L, n)``.  The first pass shares its abscissae: ``u`` is ``(1, n)``
and ``rows`` is ``(M, 1)``, so whatever the rows share (the trigonometric
factors of the validation scans, say) is computed once.  Later passes give
every line its own abscissae (``P == L``).  A single integrand runs as a
family of one: there is one driver.  ``family`` must be an integer >= 1 and
a ``scale_hint`` one value or one per row (:class:`DomainError` otherwise).

The single-row path is what one closed-form ``zeta(k, b)`` and one
generating-function point pay on every call, each as a plain integrand:
one integrand call of 189 values, one matrix product and a fixed set of
operations on arrays of one row.  Their fixed cost, not the arithmetic,
is what that path spends, and nearly every such row converges on the
first pass (2286 of the 2290 closed-form cells of the benchmark's rounds
at seeds 1 and 2, and 471 of their 514 generating-function points).  So a
one-row family (a plain integrand, or ``family=1``) whose first pass
converges is finished in Python scalars:
its scale, endpoint check, strip model, target, convergence test and
totals, with no refinement loop.  That halves the driver's share of a
cell, from about 34-39 us to 18-19 us on a shared 2-vCPU x86-64 machine.
``np.abs`` of its probe and fused row and its two panel sums stay numpy
calls, because numpy's vectorised complex ``abs`` and its pairwise
summation set the bits of the general path; Python's ``abs()`` differs
in the last place (put in their place, it moved 687 of the 2802 error
estimates those cells and points return), and so would ``sum()``.
Every other step is the general path's, in the same order, so the
result is that path's, bit for bit, and of the same types.  A row that
would refine, fails its endpoint check, has an all-zero or overflowed
probe or a total that is not finite goes through the general path; so
does every family of several rows.
Elsewhere a default ``spec`` is the one instance ``DEFAULT_SPEC``; the
``rows`` column of a first pass is built once per family size;
two-column sums are single additions; and each check that almost never
fires (a non-finite value, an endpoint violation, a row whose probe
values all vanish, a total that overflowed) is one count over a small
array before any search or masking runs.  The checks run in the same
order for one row as for a family.

Each row is integrated as if it were alone, with its own panels, error
estimate (per-panel ``|K15 - G7|`` differences, summed), convergence test
(the estimate meets ``max(rel_tol * |value|, abs_tol)``) and
``max_subdivisions`` budget.  The first pass evaluates every row on the
shared initial mesh; each later pass splits the panels of the rows that
have not converged yet.  :func:`integrate_open`'s first pass and every
later pass hand the integrand its panels in blocks of at most ``2**12``
abscissae (``2**12 // 15`` panels) per call, so the working set stays near
cache size however fine the mesh, and a kernel's temporaries are small
enough that the allocator reuses them instead of returning their pages
after every call and faulting them in again at the next; a pass that fits
one block is one call.  A block counts abscissae, not values: a first-pass
call shares its abscissae among the ``M`` rows and returns ``M`` times as
many values.  (Counting rows times abscissae instead tripled the kernel
calls of the three-order theorem-1 scan, 245 against 83, and made it about
1.5 times as slow.)  The cotangent driver's first pass is one call of 189
abscissae.  A non-finite value raises :class:`EvaluationError` for its row,
the first met in block order.

A row's first-pass values are reduced to panel sums on their own, as a
lone run of that row reduces them, so a row that converges on the initial
mesh (every validation scan integral does) has the bits it has alone.  A
refining row splits the panels a lone run splits and spends the same
evaluations, to the same value up to rounding: a later pass reduces the
panels of all rows together, and BLAS rounds a line's sum by its place in
the block.  Running out of subdivision budget, or an estimate
that no split can lower (NaN), or a cotangent-weighted total that is not
finite, is reported through ``converged=False`` with a note, never as an
exception.

For a family, ``value`` and ``error_estimate`` of the result are ``(M,)``
arrays and the ``row_*`` fields hold the per-row evaluations, convergence
flags and warnings; ``evaluations`` and ``converged`` stay an int total and
a bool that holds only when every row converged.
"""

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import DivergenceError, DomainError, EvaluationError, check_k, check_real

__all__ = [
    "QuadratureSpec",
    "DEFAULT_SPEC",
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

    def __post_init__(self):
        # a NaN tolerance would pass a sign check and stop refinement; floats,
        # and an int as the driver slices with it; frozen, hence object.__setattr__
        rel_tol = check_real(self.rel_tol, "rel_tol", -math.inf, math.inf)
        if rel_tol < 0.0:
            raise DomainError(f"rel_tol must be >= 0, got {self.rel_tol!r}")
        object.__setattr__(self, "rel_tol", rel_tol)
        object.__setattr__(self, "abs_tol", check_real(self.abs_tol, "abs_tol", 0, math.inf))
        object.__setattr__(self, "max_subdivisions", check_k(
            self.max_subdivisions, minimum=0, name="max_subdivisions"))


# What every ``spec=None`` means; one instance, as building and validating a
# spec on each call costs about a microsecond.
DEFAULT_SPEC = QuadratureSpec()


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
_BLOCK = 1 << 12  # most abscissae one integrand call gets (shared by a first pass's rows)

# Panels mapped from (-1,1) never touch their endpoints: the rule is open.
_NODE_FRAC = 0.5 * (_XK + 1.0)


# The cotangent-weighted driver probes g at both endpoints and on a 1/32 grid,
# models g on each margin strip from three points, and starts the interior
# from breakpoints 0.1, 0.2, ..., 0.9 plus the margins.
ENDPOINT_MARGIN = 1e-8  # width of each margin strip
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
    """Everything the cotangent-weighted driver needs that does not depend
    on ``g``: the abscissae of its first evaluation (probe, then three left
    and three right strip points, then the interior mesh, as one line) and
    the matrix of its first-pass functionals.

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


@functools.cache
def _cot_layout():
    m = ENDPOINT_MARGIN
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
    )
    # shared by every call, so nothing may write to them (nor to the line
    # lay.u views, whose power rows kernels.poly_exp_gap keeps)
    for a in (lay.u.base, lay.u, lay.weights, lay.cweights, mesh.lefts, mesh.widths):
        a.setflags(write=False)
    return lay


@functools.lru_cache(maxsize=16)
def _row_index(rows):
    """``rows`` family row numbers as a read-only (rows, 1) column: the
    ``rows`` argument of a first pass, shared by every call of that size."""
    index = np.arange(rows)[:, None]
    index.setflags(write=False)
    return index


def _single(f):
    """A plain integrand ``f(u)`` as a family of one."""
    def family(u, _rows):
        fv = np.asarray(f(u.ravel()))
        return fv.reshape(u.shape) if fv.shape == (u.size,) else fv
    return family


def _evaluate(f, u, rows):
    """``f(u, rows)`` as an array of one line per line of ``rows``."""
    fv = np.asarray(f(u, rows))
    if fv.shape != (rows.shape[0], u.shape[1]):
        raise ValueError("integrand must return one value per abscissa")
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


def _panels(f, lefts, widths, rows, family):
    """Kronrod values and ``|K15 - G7|`` estimates, as (L,) arrays, of panels
    ``lefts``, ``widths``, from calls of ``_BLOCK // 15`` panels at most.
    Line ``i`` of ``rows`` (L, 1) owns panel ``i``."""
    step = _BLOCK // _XK.size
    parts = []
    for s in range(0, lefts.size, step):
        u = _abscissae(lefts[s:s + step], widths[s:s + step])
        who = rows[s:s + step]
        fv = _evaluate(f, u, who)
        _check_finite(fv, u, who, family)
        parts.append(_gauss_kronrod(fv, 0.5 * widths[s:s + step]))
    if len(parts) == 1:
        return parts[0]
    vals, errs = zip(*parts)
    return np.concatenate(vals), np.concatenate(errs)


def _shared_pass(f, mesh, rows, family):
    """Kronrod values and ``|K15 - G7|`` estimates, as (M, P) arrays, of the
    ``P`` panels of ``mesh`` for each of the ``M`` lines of ``rows``.  Each
    call gets the abscissae of at most ``_BLOCK // 15`` panels as one line,
    shared by every row; each row's values of a block are then reduced on
    their own, as a lone run of that row reduces them, so a row gets the
    bits it would get alone."""
    step = _BLOCK // _XK.size
    vals = errs = None
    for s in range(0, mesh.lefts.size, step):
        u = _abscissae(mesh.lefts[s:s + step], mesh.widths[s:s + step])
        line = u.reshape(1, -1)
        fv = _evaluate(f, line, rows)
        _check_finite(fv, line, rows, family)
        if vals is None:  # filled in place: one pair of (M, P) arrays, no block copies
            vals = np.empty((len(rows), mesh.lefts.size), np.result_type(fv, np.float64))
            errs = np.empty(vals.shape)
        elif fv.dtype.kind == "c" and vals.dtype.kind != "c":  # a later block turned complex
            vals = vals.astype(np.complex128)
        half = 0.5 * mesh.widths[s:s + step]
        for r, fr in enumerate(fv):
            vals[r, s:s + step], errs[r, s:s + step] = _gauss_kronrod(fr.reshape(u.shape), half)
    return vals, errs


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
    if np.count_nonzero(converged) == rows:
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
        assert count.all()  # reduceat gives an empty segment the next row's first panel
        starts = np.cumsum(count) - count
        value[todo] = np.add.reduceat(vals, starts)
        error[todo] = np.add.reduceat(errs, starts)
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


def integrate_open(f, spec=None, initial_panels=8, family=None):
    """Adaptive integration of ``f`` over (0, 1) with an open rule, from a
    uniform mesh of ``initial_panels`` panels.

    ``family=M`` integrates the M rows of a family ``f(u, rows)`` (see the
    module docstring); a ``family`` that is not an integer >= 1 is a
    :class:`DomainError`.
    """
    spec = spec or DEFAULT_SPEC
    initial_panels = check_k(initial_panels, minimum=1, name="initial_panels")
    rows = 1 if family is None else check_k(family, minimum=1, name="family")
    mesh = _Mesh.from_edges(np.linspace(0.0, 1.0, initial_panels + 1))
    f = _single(f) if family is None else f
    vals, errs = _shared_pass(f, mesh, _row_index(rows), family)
    parts = _adapt(f, vals, errs, mesh, spec, np.full(rows, spec.abs_tol), family,
                   _XK.size * mesh.lefts.size)
    return _result(*parts, family)


def _lone_first_pass(gv, lay, spec, hint, family):
    """The result of a one-row family whose first pass converges, from
    Python scalars, or None when the general path must run: an endpoint
    violation, a probe that is all zero (or overflowed), a row that would
    refine, a total that is not finite.  Every step is the general path's,
    in the same order, with numpy calls where they set the bits (see the
    module docstring).  A plain integrand (``family`` None, as a closed-form
    cell and a generating-function point pass) gets a scalar result,
    ``family=1`` the one-row arrays of a family."""
    probe = np.abs(gv[0, :_PROBE.size]).tolist()
    scale = max(probe)
    if not 0.0 < scale < math.inf:
        return None
    eval_scale = max(scale, hint)
    tol_end = max(spec.abs_tol, _NOISE) * eval_scale
    if probe[0] > tol_end or probe[1] > tol_end:
        return None
    p = lay.mesh.lefts.size
    fused = gv @ (lay.cweights if gv.dtype.kind == "c" else lay.weights)
    size = np.abs(fused[:, p:])
    value = fused[:, :p].sum(axis=1)
    error = size[:, :p].sum(axis=1).item()
    abs_tol = max(max(spec.abs_tol * scale, _NOISE * eval_scale), _TINY)
    if not error <= max(spec.rel_tol * np.abs(value).item(), abs_tol):
        return None
    size = size[0].tolist()
    if not math.isfinite(sum(size)):  # Python's max would skip a NaN residual
        return None
    slopes = fused[0, 2 * p:2 * p + 2].tolist()
    value = value.item() + (slopes[0] + slopes[1]) * lay.strip_weight
    error += (max(size[p + 2:]) * ENDPOINT_MARGIN / math.pi
              + (size[p] + size[p + 1]) * ENDPOINT_MARGIN**3)
    if not cmath.isfinite(value + error):
        return None
    first = gv.shape[1]
    if family is None:
        return QuadratureResult(complex(value), error, first, True, [])
    return QuadratureResult(np.array([value]), np.array([error]), first, True, [],
                            np.full(1, first), np.ones(1, bool), [[]])


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
    Any other shape of hint, or a ``family`` that is not an integer >= 1, is
    a :class:`DomainError`.
    Every row gets its own scale, endpoint check, strip model and absolute
    target.
    """
    spec = spec or DEFAULT_SPEC
    rows = 1 if family is None else check_k(family, minimum=1, name="family")
    try:
        hint = np.asarray(scale_hint, dtype=np.float64)
    except (TypeError, ValueError):  # not numbers: fails the check below
        hint = np.array(math.nan)
    # math.isfinite per value: for the usual one-value hint, a tenth of the
    # cost of a numpy reduction
    if hint.shape not in ((), (rows,)) or not all(map(math.isfinite, hint.flat)):
        raise DomainError("scale_hint must be finite, and a scalar or one value "
                          f"per row, got {scale_hint!r}")
    lay = _cot_layout()
    f = _single(g) if family is None else g
    everyone = _row_index(rows)
    gv = _evaluate(f, lay.u, everyone)
    n_probe = _PROBE.size
    finite = np.count_nonzero(np.isfinite(gv)) == gv.size
    if rows == 1 and finite:  # finished in scalars if its first pass converges
        lone = _lone_first_pass(gv, lay, spec, hint.item(), family)
        if lone is not None:
            return lone
    if not finite:
        _check_finite(gv[:, :n_probe], lay.u[:, :n_probe], everyone, family,
                      "integrand factor")
    probe = np.abs(gv[:, :n_probe])
    scale = probe.max(axis=1)
    eval_scale = np.maximum(scale, hint)

    # floored at rounding noise so a tight abs_tol cannot demand an endpoint
    # residual below what evaluating g in doubles can produce
    tol_end = max(spec.abs_tol, _NOISE) * eval_scale
    ends = probe[:, :2]
    over = ends > tol_end[:, None]
    if np.count_nonzero(over):
        r = np.flatnonzero(over.any(axis=1))[0]
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
    # Two-column sums are written as one addition: the same bits as
    # ``.sum(axis=1)``, without a reduction's set-up.
    p = lay.mesh.lefts.size
    fused = gv @ (lay.cweights if gv.dtype.kind == "c" else lay.weights)
    size = np.abs(fused[:, p:])
    strip_value = (fused[:, 2 * p] + fused[:, 2 * p + 1]) * lay.strip_weight
    strip_err = (size[:, p + 2:].max(axis=1) * ENDPOINT_MARGIN / math.pi
                 + (size[:, p] + size[:, p + 1]) * ENDPOINT_MARGIN**3)

    # Absolute target referenced to the integrand scale, floored at the
    # rounding noise the evaluation of g can actually deliver, and at the
    # smallest normal double so a subnormal scale cannot underflow it to 0.
    # A row whose probe values all vanish integrates to 0: an infinite
    # target keeps it out of refinement.
    abs_tol = np.maximum(np.maximum(spec.abs_tol * scale, _NOISE * eval_scale), _TINY)
    zero = scale == 0.0 if np.count_nonzero(scale) < rows else None
    if zero is not None:
        abs_tol[zero] = np.inf
    value, error, evaluations, converged, notes = _adapt(
        lambda u, r: f(u, r) * kernels.cot_pi(u),
        fused[:, :p], size[:, :p], lay.mesh, spec, abs_tol, family, gv.shape[1],
    )
    value = value + strip_value
    error = error + strip_err
    if zero is not None:
        value[zero] = 0.0
        error[zero] = 0.0
    # _adapt judged the interior alone: a total that is not finite (the sums
    # overflowed) has not converged, whatever the interior estimate said
    total = value + error
    if np.count_nonzero(np.isfinite(total)) < rows:
        for r in np.flatnonzero(~np.isfinite(total)):
            converged[r] = False
            notes[r].append(f"total overflowed: value {complex(value[r])!r}, "
                            f"error estimate {error[r]:.3e}")
    return _result(value, error, evaluations, converged, notes, family)


def integrate_oscillatory(f, n, spec=None, family=None):
    """Integrate ``f`` over (0, 1) when it oscillates at integer frequency ``n``.

    Starts from a uniform mesh of ``2n`` panels (at least 2), half a period
    each, then refines adaptively as usual.  The 15-point Kronrod rule
    resolves half a period of the validation scan kernels well inside the
    default ``rel_tol``: at n = 100, 10**3 and 10**4 every theorem-1 and
    log-asymptotic scan integral converges on this first mesh.  ``f`` must
    be bounded on the closed interval (the oscillatory integrands here all
    have removable endpoint singularities).  ``family=M`` integrates the M
    rows of a family ``f(u, rows)``, as :func:`integrate_open` does.
    """
    n = check_k(n, minimum=1, name="n")
    return integrate_open(f, spec, initial_panels=max(2, 2 * n), family=family)
