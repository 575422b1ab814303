"""Dirichlet solver for the discrete graph equation on masked grid domains.

Damped Newton iteration on the conservative residual, with the Jacobian
assembled by stencil-colored finite differences and a frozen-coefficient
(Picard) fallback when a Newton step cannot reduce the residual.  Boundary
nodes are constrained, never solved, so prescribed data is attained exactly.
Failure to drive the residual down is reported as divergence, the numerical
stand-in for boundary geometry that admits no graph solution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import operator
from .geometry import PARABOLIC, _check_kind
from .operator import GridFunction, OrientationConvention


class SolverDivergence(RuntimeError):
    """No graph solution detected: the residual failed to decrease."""


@dataclass
class SolverConfig:
    tol: float = 1e-8
    max_iters: int = 40
    picard_sweeps: int = 50
    min_step: float = 2.0**-20
    dense_cutoff: int = 400


@dataclass
class SolveReport:
    iterations: int = 0
    picard_iterations: int = 0
    final_residual: float = math.inf
    converged: bool = False
    damping_history: list = field(default_factory=list)
    gradient_bands: list = field(default_factory=list)


@dataclass
class DirichletProblem:
    """Graph equation data on a node mask of a grid box.

    ``mask`` selects the computational nodes; its discrete boundary (mask
    nodes missing a full stencil neighborhood inside the mask) carries the
    prescribed values of ``data``, a full-shape array read on that boundary.
    """

    grid: GridFunction
    mask: np.ndarray
    data: np.ndarray
    H: float
    kind: str = PARABOLIC

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        self.data = np.asarray(self.data, dtype=float)
        self._interior = None
        if abs(self.H) >= 1:
            raise ValueError(f"|H| must be < 1, got H = {self.H}")
        _check_kind(self.kind)
        if self.mask.shape != self.grid.values.shape:
            raise ValueError("mask shape must match the grid")
        if not self.interior_mask().any():
            raise ValueError("mask has no interior nodes")

    def interior_mask(self) -> np.ndarray:
        if self._interior is None:
            inner = self.mask.copy()
            d = self.mask.ndim
            for off in itertools.product((-1, 0, 1), repeat=d):
                if all(o == 0 for o in off):
                    continue
                inner &= _shift(self.mask, off)
            self._interior = inner
        return self._interior

    def boundary_mask(self) -> np.ndarray:
        return self.mask & ~self.interior_mask()


def _shift(arr: np.ndarray, off) -> np.ndarray:
    """Array shifted by the offset, padded with False/0 at the moved-in edge."""
    out = np.zeros_like(arr)
    src = []
    dst = []
    for o in off:
        if o == 0:
            src.append(slice(None))
            dst.append(slice(None))
        elif o > 0:
            src.append(slice(o, None))
            dst.append(slice(None, -o))
        else:
            src.append(slice(None, o))
            dst.append(slice(-o, None))
    out[tuple(dst)] = arr[tuple(src)]
    return out


def ball_mask(grid: GridFunction, center, radius: float) -> np.ndarray:
    """Chart-Euclidean ball of nodes, for masked Dirichlet problems."""
    mesh = grid.meshgrid()
    center = np.atleast_1d(np.asarray(center, dtype=float))
    d2 = sum((mesh[i] - center[i]) ** 2 for i in range(len(mesh)))
    return d2 <= radius**2


# ---------------------------------------------------------------------------
# Residual and Jacobian plumbing
# ---------------------------------------------------------------------------

def _residual_field(values: np.ndarray, grid: GridFunction, kind: str, H: float,
                    conv: OrientationConvention) -> np.ndarray:
    h = grid.spacing
    n = values.ndim
    if kind == PARABOLIC:
        return operator.residual_field_parabolic(values, grid.y_grid(), h, n, H, conv.sign)
    gamma_fn, drift_fn = operator._hyperbolic_chart_fns(n)
    return operator.residual_field_chart(values, grid.axes, h, n, H, conv.sign,
                                         gamma_fn, drift_fn)


def _frozen_residual_factory(values: np.ndarray, grid: GridFunction, kind: str, H: float,
                             conv: OrientationConvention):
    """Linearized residual with the nonlinear factors frozen at ``values``.

    Freezes the face W factors and the centered-slope W of the drift term;
    the returned callable is affine in its argument, so one colored pass
    yields the Picard matrix.
    """
    if kind != PARABOLIC:
        raise SolverDivergence("picard fallback is only wired for the translation structure")
    h = grid.spacing
    d = values.ndim
    n = d
    w_faces = []
    for a in range(d):
        _, w = operator._face_w(values, h, a)
        w_faces.append(w)
    grads = operator._centered_gradients(values, h)
    wc = np.sqrt(1.0 + sum(g**2 for g in grads))
    y_grid = grid.y_grid()

    def frozen(v: np.ndarray) -> np.ndarray:
        div = np.zeros_like(v)
        for a in range(d):
            dn = np.diff(v, axis=a) / h[a]
            flux = dn / w_faces[a]
            sl_hi = [slice(None)] * d
            sl_lo = [slice(None)] * d
            sl_c = [slice(None)] * d
            sl_hi[a] = slice(1, None)
            sl_lo[a] = slice(None, -1)
            sl_c[a] = slice(1, -1)
            div[tuple(sl_c)] += (flux[tuple(sl_hi)] - flux[tuple(sl_lo)]) / h[a]
        gy = operator._centered_gradients(v, h)[-1]
        return conv.sign * (y_grid * div - n * gy / wc) - n * H

    return frozen


_OFFSETS_CACHE: dict[int, list] = {}


def _stencil_offsets(d: int) -> list:
    if d not in _OFFSETS_CACHE:
        _OFFSETS_CACHE[d] = [off for off in itertools.product((-1, 0, 1), repeat=d)]
    return _OFFSETS_CACHE[d]


class JacobianBuilder:
    """Colored finite-difference Jacobian of the interior residual.

    Perturbing every interior node of one 3^d color class simultaneously
    keeps at most one perturbed node per stencil, so each colored evaluation
    recovers one coupling per row exactly.  The color classes and scatter
    index lists are precomputed once per (shape, interior) and reused across
    Newton iterations; small problems assemble a dense matrix.
    """

    def __init__(self, shape, interior: np.ndarray, dense_cutoff: int = 400):
        self.shape = shape
        d = len(shape)
        self.m = int(np.count_nonzero(interior))
        self.dense = self.m <= dense_cutoff
        idx = -np.ones(shape, dtype=np.int64)
        idx[interior] = np.arange(self.m)
        coords = np.indices(shape)
        color = sum((coords[k] % 3) * 3**k for k in range(d))
        self.color_plan = []
        for c in range(3**d):
            pert = interior & (color == c)
            if not pert.any():
                continue
            entries = []
            for off in _stencil_offsets(d):
                neighbor_pert = _shift(pert, tuple(-o for o in off))
                touched = interior & neighbor_pert
                if not touched.any():
                    continue
                entries.append((touched, idx[touched],
                                _shift(idx, tuple(-o for o in off))[touched]))
            self.color_plan.append((pert, entries))

    def assemble(self, values: np.ndarray, resid_fn, F0: np.ndarray,
                 eps: float | None = None):
        if eps is None:
            eps = math.sqrt(np.finfo(float).eps) * (1.0 + float(np.max(np.abs(values))))
        if self.dense:
            J = np.zeros((self.m, self.m))
        else:
            rows, cols, data = [], [], []
        for pert, entries in self.color_plan:
            vp = values.copy()
            vp[pert] += eps
            dF = (resid_fn(vp) - F0) / eps
            for touched, r_idx, c_idx in entries:
                vals = dF[touched]
                if self.dense:
                    J[r_idx, c_idx] = vals
                else:
                    rows.append(r_idx)
                    cols.append(c_idx)
                    data.append(vals)
        if self.dense:
            return J
        return sp.csr_matrix((np.concatenate(data),
                              (np.concatenate(rows), np.concatenate(cols))),
                             shape=(self.m, self.m))


_BUILDER_CACHE: dict = {}


def _cached_builder(shape, interior: np.ndarray, dense_cutoff: int) -> JacobianBuilder:
    """Builders keyed by the interior pattern; ball lifts reuse a handful."""
    key = (shape, dense_cutoff, interior.tobytes())
    builder = _BUILDER_CACHE.get(key)
    if builder is None:
        builder = JacobianBuilder(shape, interior, dense_cutoff)
        if len(_BUILDER_CACHE) > 128:
            _BUILDER_CACHE.clear()
        _BUILDER_CACHE[key] = builder
    return builder


def _factorize(J):
    """Linear solver for one assembled matrix: ``solve(rhs)`` returns the step.

    A sparse matrix is LU-factored here, once, and the factors serve every
    right-hand side until the caller drops the solver; a dense matrix (the
    builder's choice for small problems) goes to ``np.linalg.solve`` per
    call.  A singular matrix gives ``None``, "no step", from either branch.
    """
    if isinstance(J, np.ndarray):
        def solve(rhs):
            try:
                return np.linalg.solve(J, rhs)
            except np.linalg.LinAlgError:
                return None

        return solve
    try:
        lu = spla.splu(J.tocsc())
    except RuntimeError:  # SuperLU: "Factor is exactly singular"
        return lambda rhs: None
    return lu.solve


def harmonic_extension(problem: DirichletProblem) -> np.ndarray:
    """Chart-Laplace extension of the boundary data, used as a warm start."""
    grid = problem.grid
    interior = problem.interior_mask()
    values = problem.data.copy()
    values[interior] = 0.0
    h = grid.spacing
    d = values.ndim

    def lap(v):
        out = np.zeros_like(v)
        for a in range(d):
            sl_c = [slice(None)] * d
            sl_p = [slice(None)] * d
            sl_m = [slice(None)] * d
            sl_c[a] = slice(1, -1)
            sl_p[a] = slice(2, None)
            sl_m[a] = slice(None, -2)
            out[tuple(sl_c)] += (v[tuple(sl_p)] - 2 * v[tuple(sl_c)] + v[tuple(sl_m)]) / h[a] ** 2
        return out

    builder = JacobianBuilder(values.shape, interior)
    F0 = lap(values)
    sol = _factorize(builder.assemble(values, lap, F0))(-F0[interior])
    out = values.copy()
    if sol is not None:
        out[interior] += sol
    return out


# ---------------------------------------------------------------------------
# Newton driver
# ---------------------------------------------------------------------------

def residual_norm(u: GridFunction | np.ndarray, problem: DirichletProblem,
                  convention: OrientationConvention | None = None) -> float:
    """Max-norm of the discrete residual over the mask's interior nodes."""
    conv = convention or operator.orientation()
    values = u.values if isinstance(u, GridFunction) else np.asarray(u, dtype=float)
    res = _residual_field(values, problem.grid, problem.kind, problem.H, conv)
    return float(np.max(np.abs(res[problem.interior_mask()])))


def solve_dirichlet(problem: DirichletProblem, cfg: SolverConfig | None = None,
                    initial: np.ndarray | str = "harmonic",
                    convention: OrientationConvention | None = None,
                    compute_bands: bool = True):
    """Solve the masked Dirichlet problem; returns (GridFunction, SolveReport).

    Newton directions come from the colored-FD Jacobian with backtracking
    halving on the residual max-norm down to step 2^-20; if no Newton step
    makes progress the solver falls back to frozen-coefficient sweeps before
    declaring divergence.
    """
    cfg = cfg or SolverConfig()
    conv = convention or operator.orientation()
    grid = problem.grid
    interior = problem.interior_mask()
    boundary = problem.boundary_mask()

    if isinstance(initial, str):
        if initial == "harmonic":
            values = harmonic_extension(problem)
        elif initial == "mean":
            values = problem.data.copy()
            values[interior] = float(np.mean(problem.data[boundary]))
        else:
            raise ValueError(f"unknown initializer {initial!r}")
    else:
        values = np.asarray(initial, dtype=float).copy()
        values[boundary] = problem.data[boundary]
    values[~problem.mask] = 0.0

    def resid(v):
        return _residual_field(v, grid, problem.kind, problem.H, conv)

    report = SolveReport()
    F = resid(values)
    nrm = float(np.max(np.abs(F[interior])))
    builder = None
    solve = None  # factored Jacobian, reused for up to three more steps
    reused = 0

    def line_search(step):
        """Backtracking on the residual max-norm; (values, F, nrm, lam) or None."""
        if step is None or not np.all(np.isfinite(step)):
            return None
        lam = 1.0
        while lam >= cfg.min_step:
            trial = values.copy()
            trial[interior] += lam * step
            Ft = resid(trial)
            nt = float(np.max(np.abs(Ft[interior])))
            if nt < nrm * (1.0 - 1e-4 * lam) or nt <= cfg.tol:
                return trial, Ft, nt, lam
            lam *= 0.5
        return None

    for it in range(cfg.max_iters):
        if nrm <= cfg.tol:
            report.converged = True
            break
        if builder is None:
            builder = _cached_builder(values.shape, interior, cfg.dense_cutoff)
        if solve is None or reused >= 3:
            solve = None  # drop the old factors before the new assembly
            solve = _factorize(builder.assemble(values, resid, F))
            reused = 0
        else:
            reused += 1
        found = line_search(solve(-F[interior]))
        if found is None and reused > 0:
            # stale Jacobian may be the culprit: rebuild before falling back
            solve = None
            solve = _factorize(builder.assemble(values, resid, F))
            reused = 0
            found = line_search(solve(-F[interior]))
        elif found is not None and found[3] < 1.0:
            solve = None  # damped step: refresh the linearization next time
        report.iterations = it + 1
        if found is not None:
            values, F, nrm, lam = found
            report.damping_history.append(lam)
        else:
            solve = None  # the fallback factors matrices of its own
            values, F, nrm, picard_used = _picard_phase(values, F, nrm, problem, cfg, conv,
                                                        interior, resid)
            report.picard_iterations += picard_used
            if nrm > cfg.tol:
                report.final_residual = nrm
                raise SolverDivergence(
                    f"no graph solution detected: residual stalled at {nrm:.3e} "
                    f"(tolerance {cfg.tol:.1e})")
            report.converged = True
            break
    else:
        report.final_residual = nrm
        raise SolverDivergence(
            f"no graph solution detected: residual {nrm:.3e} after {cfg.max_iters} "
            f"Newton iterations (tolerance {cfg.tol:.1e})")

    solve = None  # release the factors before the diagnostic's workspace
    report.final_residual = nrm
    out = GridFunction(grid.axes, values, boundary | ~problem.mask)
    if compute_bands:
        report.gradient_bands = gradient_diagnostic(out, problem)
    return out, report


def _picard_phase(values, F, nrm, problem, cfg, conv, interior, resid):
    used = 0
    builder = _cached_builder(values.shape, interior, cfg.dense_cutoff)
    for sweep in range(cfg.picard_sweeps):
        if nrm <= cfg.tol:
            break
        frozen = _frozen_residual_factory(values, problem.grid, problem.kind, problem.H, conv)
        step = _factorize(builder.assemble(values, frozen, frozen(values)))(-F[interior])
        if step is None or not np.all(np.isfinite(step)):
            break
        omega = 1.0
        progressed = False
        while omega >= cfg.min_step:
            trial = values.copy()
            trial[interior] += omega * step
            Ft = resid(trial)
            nt = float(np.max(np.abs(Ft[interior])))
            if nt < nrm:
                values, F, nrm = trial, Ft, nt
                progressed = True
                break
            omega *= 0.5
        used = sweep + 1
        if not progressed:
            break
    return values, F, nrm, used


# ---------------------------------------------------------------------------
# Interior gradient diagnostic
# ---------------------------------------------------------------------------

def gradient_diagnostic(u: GridFunction, problem: DirichletProblem,
                        bands: int = 4) -> list:
    """Sup of the chart gradient over bands of distance to the mask boundary.

    Distances are hyperbolic, to the nearest boundary node.  The table only
    reports empirical suprema; no a priori constant is asserted, but the
    suprema are expected to be stable under refinement and nondecreasing as
    the band distance shrinks.
    """
    interior = problem.interior_mask()
    boundary = problem.boundary_mask()
    if not interior.any():
        return []
    mesh = u.meshgrid()
    pts = np.stack([m[interior] for m in mesh], axis=-1)
    bpts = np.stack([m[boundary] for m in mesh], axis=-1)

    # hyperbolic distance of every interior node to the boundary node set,
    # chunked over interior nodes to bound the pairwise workspace
    dmin = np.full(pts.shape[0], np.inf)
    chunk = max(1, 2**22 // max(bpts.shape[0], 1))
    for start in range(0, pts.shape[0], chunk):
        pp = pts[start:start + chunk]
        diff2 = ((pp[:, None, :] - bpts[None, :, :]) ** 2).sum(axis=-1)
        arg = 1.0 + diff2 / (2.0 * pp[:, None, -1] * bpts[None, :, -1])
        dmin[start:start + chunk] = np.arccosh(np.maximum(arg, 1.0)).min(axis=1)

    grads = operator._centered_gradients(u.values, u.spacing)
    gnorm = np.sqrt(sum(g**2 for g in grads))[interior]

    rmax = float(np.max(dmin))
    out = []
    for k in range(bands):
        r = rmax * (k + 1) / (bands + 1)
        sel = dmin >= r
        if not sel.any():
            continue
        out.append({"distance": r, "sup_gradient": float(np.max(gnorm[sel])),
                    "nodes": int(np.sum(sel))})
    return out
