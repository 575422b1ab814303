"""Monotone Perron iteration for the asymptotic graph problem.

The unbounded slice is truncated to a box {|x| <= L} x [y_min, y_max]; the
bottom face carries the boundary datum, the remaining faces carry the datum
smoothed by the Poisson kernel of the linearized operator y Lap(v) - n v_y
(Weinstein's generalized axially symmetric potential kernel), plus the
supersolution plane's slope, clamped between the available lower barriers
and that plane.  The kernel is exact for the linearization on the
half-space above y_min and approaches the kernel of the y = 0 boundary as
y_min -> 0, so the face data track the far field of the untruncated
solution and the core barely moves when the box grows.

Starting from the zero subsolution the iterate is repeatedly replaced by
the Dirichlet solution on one ball that covers the whole box, combined with
a pointwise maximum, so sweeps are nondecreasing by construction and the
iterate stays within the barrier sandwich.  The first sweep's solve starts
from the solver's own start, every later one from the iterate; the fixed
point satisfies the solver's residual tolerance.  A lift whose solve
diverges from both starts is replaced by a cover of its ball with balls of
half the radius, recursively, so the sweep still lifts every free node of
the box; a sweep after the first that needs such a cover raises
:class:`PerronDivergence`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import barriers, operator, solver
from .geometry import PARABOLIC
from .operator import GridFunction
from .solver import DirichletProblem, SolverConfig, SolverDivergence


class PerronFailure(RuntimeError):
    """The Perron iteration failed; ``kind`` names how, the message where and by how much."""

    kind = "failure"


class PerronStall(PerronFailure):
    """The iteration stopped moving while the residual stayed above tolerance."""

    kind = "stall"


class PerronSweepLimit(PerronFailure):
    """``max_sweeps`` sweeps ran without reaching the tolerance."""

    kind = "sweep limit"


class PerronDecrease(PerronFailure):
    """A sweep lowered the iterate by more than the tolerance; lifts must not."""

    kind = "decrease"


class PerronDivergence(PerronFailure):
    """A ball lift diverged where no sub-cover may replace it.

    Raised for a lift that diverges at ``MIN_RADIUS`` and for a whole-box
    lift that needed a sub-cover, whose sweep then lifts smaller balls only.
    """

    kind = "divergence"


class SandwichViolation(PerronFailure):
    """The iterate left the barrier sandwich [0, upper] by more than ten tolerances."""

    kind = "sandwich violation"


# ---------------------------------------------------------------------------
# Boundary data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryDatum:
    """Continuous datum on the ideal boundary of the slice, valued in [0, c_max].

    Profiles depend on the first horizontal coordinate (radially for bumps);
    all are globally continuous and bounded, and construction verifies the
    between-spheres window on a sample sweep.
    """

    kind: str
    params: dict
    c_max: float

    def __call__(self, x):
        first = np.asarray(x, dtype=float)
        p = self.params
        if self.kind == "constant":
            return np.full(np.shape(first), float(p["c"])) if np.shape(first) else float(p["c"])
        if self.kind == "smooth_step":
            t = (first - p["center"]) / p["width"] + 0.5
            t = np.clip(t, 0.0, 1.0)
            s = t * t * t * (t * (6.0 * t - 15.0) + 10.0)
            return p["lo"] + (p["hi"] - p["lo"]) * s
        if self.kind == "bump":
            r = np.abs(first - p["center"]) / p["width"]
            prof = np.where(r < 1.0, (1.0 - np.minimum(r, 1.0) ** 2) ** 3, 0.0)
            return p["base"] + p["height"] * prof
        if self.kind == "sinusoid_decay":
            return p["base"] + p["amplitude"] * np.sin(2.0 * math.pi * first / p["period"]) \
                * np.exp(-p["decay"] * np.abs(first))
        if self.kind == "table":
            xs = np.asarray(p["xs"], dtype=float)
            vals = np.asarray(p["values"], dtype=float)
            return np.interp(first, xs, vals)
        raise ValueError(f"unknown boundary datum kind {self.kind!r}")

    def __post_init__(self):
        if not 0 < self.c_max < math.inf:
            raise ValueError(f"c_max must be positive and finite, got {self.c_max}")
        xs = np.linspace(-40.0, 40.0, 8001)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.asarray(self(xs), dtype=float)
        if not np.all(np.isfinite(vals)):
            bad = int(np.argmax(~np.isfinite(vals)))
            raise ValueError(f"boundary datum is not finite at x = {xs[bad]} (value {vals[bad]})")
        if np.any(vals < -1e-12) or np.any(vals > self.c_max + 1e-12):
            bad = int(np.argmax((vals < -1e-12) | (vals > self.c_max + 1e-12)))
            raise ValueError(
                f"boundary datum escapes [0, {self.c_max}] at x = {xs[bad]} (value {vals[bad]})")


def constant_datum(c: float, c_max: float | None = None) -> BoundaryDatum:
    return BoundaryDatum("constant", {"c": float(c)}, float(c_max if c_max is not None else max(c, 1e-12)))


def smooth_step_datum(lo: float, hi: float, center: float = 0.0, width: float = 1.0,
                      c_max: float | None = None) -> BoundaryDatum:
    return BoundaryDatum("smooth_step", {"lo": float(lo), "hi": float(hi),
                                         "center": float(center), "width": float(width)},
                         float(c_max if c_max is not None else max(lo, hi)))


def bump_datum(center: float, height: float, width: float, base: float = 0.0,
               c_max: float | None = None) -> BoundaryDatum:
    return BoundaryDatum("bump", {"center": float(center), "height": float(height),
                                  "width": float(width), "base": float(base)},
                         float(c_max if c_max is not None else base + max(height, 0.0)))


def sinusoid_decay_datum(amplitude: float, period: float, decay: float,
                         base: float | None = None, c_max: float | None = None) -> BoundaryDatum:
    """base + amplitude sin(2 pi x / period) exp(-decay |x|).

    ``c_max`` defaults to 2 base, else to 2 |amplitude|, and ``base`` to c_max / 2.
    """
    if c_max is None:
        c_max = 2 * (base if base is not None else abs(amplitude))
    params = {"amplitude": float(amplitude), "period": float(period), "decay": float(decay),
              "base": float(base if base is not None else c_max / 2.0)}
    return BoundaryDatum("sinusoid_decay", params, float(c_max))


def table_datum(xs, values, c_max: float | None = None) -> BoundaryDatum:
    """Linear interpolation of ``values`` at increasing ``xs``; c_max defaults to max(values)."""
    rising = np.diff(np.asarray(xs, dtype=float)) > 0
    if not rising.all():
        bad = int(np.argmin(rising)) + 1
        raise ValueError(f"xs must be strictly increasing: xs[{bad}] = {xs[bad]} "
                         f"follows xs[{bad - 1}] = {xs[bad - 1]}")
    params = {"xs": [float(x) for x in xs], "values": [float(v) for v in values]}
    return BoundaryDatum("table", params, float(c_max if c_max is not None else max(values)))


# Each boundary datum kind and its constructor; the constructor's parameters
# are the kind's config keys.
DATUM_KINDS = {"constant": constant_datum, "smooth_step": smooth_step_datum,
               "bump": bump_datum, "sinusoid_decay": sinusoid_decay_datum,
               "table": table_datum}


_KERNEL_NODES = 801
# Samples per block of face points: a float64 temporary of the (points x
# nodes) sample array is then 128 KiB, and the few the datum's formula keeps
# live at once stay in cache instead of being faulted in afresh every solve.
_SAMPLE_BUDGET = 2**14
_KERNEL_BLOCK = max(1, _SAMPLE_BUDGET // _KERNEL_NODES)


def poisson_smoothed(phi, x, scale, n: int = 2) -> np.ndarray:
    """Datum smoothed by the Poisson kernel of the linearized operator.

    Linearized about a horizontal plane, the parabolic residual
    y div(Du/W) - n u_y/W becomes y Lap(v) - n v_y, a generalized axially
    symmetric potential equation (Weinstein, Bull. AMS 59, 1953).  For a
    datum that depends on x_1 alone its half-space Poisson kernel reduces to
    the x_1-marginal

        K_n(xi, s) = c_n s^(n+1) / (xi^2 + s^2)^((n+2)/2),
        c_n = Gamma((n+2)/2) / (sqrt(pi) Gamma((n+1)/2)),

    which has unit mass, so S(x, s) = int K_n(x - t, s) phi(t) dt solves
    s Lap(S) - n S_s = 0 exactly and tends to phi(x) as s -> 0.  The
    substitution t = x + s tan(theta) turns the kernel measure into
    c_n cos(theta)^n dtheta on (-pi/2, pi/2): the integral has no tails, and
    the midpoint rule on equispaced theta nodes with normalized weights is
    exact on constants.

    ``scale`` is the height s (per point or shared), ``n`` the number of
    axes of the slice grid.  At scale 0 the datum itself is returned.

    The points are sampled ``_KERNEL_BLOCK`` at a time, at most
    ``_SAMPLE_BUDGET`` samples per block, so the temporaries stay
    cache-sized on any face set.  Each block is reduced by a row-wise
    weighted sum rather than a matrix-vector product: BLAS ``dgemv`` rounds
    a row differently depending on how many rows it is given, and the
    row-wise sum makes each value independent of the block it fell in.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    scale = np.broadcast_to(np.asarray(scale, dtype=float), x.shape)
    theta = (np.arange(_KERNEL_NODES) + 0.5) * (math.pi / _KERNEL_NODES) - math.pi / 2
    weights = np.cos(theta) ** n
    weights /= weights.sum()
    offsets = np.tan(theta)

    out = np.empty_like(x)
    flat = scale <= 0
    out[flat] = np.asarray(phi(x[flat]), dtype=float)
    rows = np.flatnonzero(~flat)
    for start in range(0, rows.size, _KERNEL_BLOCK):
        block = rows[start:start + _KERNEL_BLOCK]
        ts = x[block, None] + scale[block, None] * offsets
        samples = np.asarray(phi(ts.ravel()), dtype=float).reshape(ts.shape)
        out[block] = (samples * weights).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# Ball covers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: int


def build_ball_cover(boundary: np.ndarray, radius: int, within: Ball | None = None) -> list:
    """Lattice of index balls (a list of :class:`Ball`) covering the free nodes.

    Stride is the radius less two so that ball interiors (which shrink by a
    stencil layer) still tile the grid.  With ``within`` the lattice spans
    that ball's bounding box only, the sub-cover of a lift that diverged.
    """
    shape = boundary.shape
    d = len(shape)
    if radius >= max(shape):
        center = tuple(int(s // 2) for s in shape)
        return [Ball(center=center, radius=int(radius))]
    stride = max(radius - 2, 1)
    centers_per_axis = []
    for k in range(d):
        low, top = 0, shape[k] - 1
        if within is not None:
            low = max(low, within.center[k] - within.radius)
            top = min(top, within.center[k] + within.radius)
        cs = list(range(low, top + 1, stride))
        if cs[-1] != top:
            cs.append(top)
        centers_per_axis.append(cs)
    balls = []
    free = ~boundary
    for center in itertools.product(*centers_per_axis):
        idx_ball = _index_ball_mask(shape, center, radius)
        if np.any(idx_ball & free):
            balls.append(Ball(center=tuple(int(c) for c in center), radius=int(radius)))
    covered = np.zeros(shape, dtype=bool)
    for b in balls:
        covered |= _index_ball_interior(shape, b.center, b.radius)
    if np.any(free & ~covered & ~operator.outer_face_mask(shape)):
        raise RuntimeError("ball cover has holes; radius/stride bookkeeping is wrong")
    return balls


def _index_ball_mask(shape, center, radius: int) -> np.ndarray:
    grids = np.indices(shape)
    d2 = sum((grids[k] - center[k]) ** 2 for k in range(len(shape)))
    return d2 <= radius**2


def _index_ball_interior(shape, center, radius: int) -> np.ndarray:
    return solver.stencil_reduce(_index_ball_mask(shape, center, radius), np.logical_and)


# The smallest radius a sub-cover of a diverging lift goes down to; the
# boundary points under which lower barrier stacks are built, and the
# stacks' height as a fraction of the datum there.
MIN_RADIUS = 2
BARRIER_POINTS = 3
BARRIER_GAP = 0.5


@dataclass
class PerronConfig:
    tol: float = 1e-8
    max_sweeps: int = 200
    solver_max_iters: int = 40
    shuffle_seed: int | None = None

    def solver_cfg(self) -> SolverConfig:
        return SolverConfig(tol=min(self.tol * 1e-2, 1e-9), max_iters=self.solver_max_iters)


# ---------------------------------------------------------------------------
# Lifts and sweeps
# ---------------------------------------------------------------------------

def _lift_inplace(u: GridFunction, ball: Ball, H: float, cfg: PerronConfig,
                  upper: np.ndarray | None, region: np.ndarray | None,
                  rng: np.random.Generator | None, own_start_first: bool) -> tuple:
    """Lift in place; returns (sub-covers, Newton iterations, smallest radius, retries,
    LU fallbacks).

    ``region`` (full grid shape) holds the nodes the lift may change, the
    ball of the lift it replaces; None leaves the whole grid.  A solve that
    diverges from both starts of :func:`_lift_once` is replaced by a
    sub-cover of radius r/2 restricted to the ball, lifted in the order
    ``rng`` permutes it to (lattice order without one).  The sub-covers
    count the lifts so replaced, the iterations are those of the solves that
    succeeded, the smallest radius is that of the smallest ball that ran,
    and the retries count the solves that diverged from their first start
    and converged from the other; the LU fallbacks are those of the solves
    that succeeded.  A solve that diverges at ``MIN_RADIUS``
    raises :class:`PerronDivergence` naming the ball's centre.
    """
    try:
        iterations, retries, fallbacks = _lift_once(u, ball, H, cfg, upper, region,
                                                    own_start_first)
        return 0, iterations, ball.radius, retries, fallbacks
    except SolverDivergence as exc:
        if ball.radius <= MIN_RADIUS:
            at = np.ravel_multi_index(ball.center, u.values.shape)
            raise PerronDivergence(f"ball lift of radius {ball.radius} centred at "
                                   f"{_node_text(u, at)} diverged: {exc}") from exc
    inside = _index_ball_mask(u.values.shape, ball.center, ball.radius)
    if region is not None:
        inside &= region
    radius = max(MIN_RADIUS, ball.radius // 2)
    covers, iterations, smallest, retries, fallbacks = 1, 0, radius, 0, 0
    for sub in _ordered(build_ball_cover(u.boundary | ~inside, radius, within=ball), rng):
        sub_covers, iters, ran_at, sub_retries, sub_fallbacks = _lift_inplace(
            u, sub, H, cfg, upper, inside, rng, own_start_first)
        covers += sub_covers
        iterations += iters
        smallest = min(smallest, ran_at)
        retries += sub_retries
        fallbacks += sub_fallbacks
    return covers, iterations, smallest, retries, fallbacks


def _ordered(cover: list, rng: np.random.Generator | None) -> list:
    """The cover in lattice order, or permuted by ``rng``."""
    return cover if rng is None else [cover[i] for i in rng.permutation(len(cover))]


def _lift_once(u: GridFunction, ball: Ball, H: float, cfg: PerronConfig,
               upper: np.ndarray | None, region: np.ndarray | None,
               own_start_first: bool) -> tuple:
    """One ball solve combined into u in place; returns (Newton iterations, retries,
    LU fallbacks).

    The ball's nodes outside ``region``, when it is given, keep their values
    as boundary data.  Newton starts from the iterate and retries from the
    solver's own start, or the other way round with ``own_start_first``;
    retries is 1 if the first start diverged and the second converged.
    The LU fallbacks are the converged solve's ``SolveReport.lu_fallbacks``,
    its nested-iteration levels' included.  Raises :class:`SolverDivergence`
    if the solve diverges from both starts.
    """
    shape = u.values.shape
    d = len(shape)
    lo = [max(0, ball.center[k] - ball.radius - 1) for k in range(d)]
    hi = [min(shape[k], ball.center[k] + ball.radius + 2) for k in range(d)]
    window = tuple(slice(lo[k], hi[k]) for k in range(d))

    sub_axes = tuple(u.axes[k][window[k]] for k in range(d))
    sub_vals = u.values[window].copy()
    sub_grid = GridFunction(sub_axes, sub_vals, operator.outer_face_mask(sub_vals.shape))

    center_local = tuple(ball.center[k] - lo[k] for k in range(d))
    mask = _index_ball_mask(sub_vals.shape, center_local, ball.radius)
    # truncation faces stay pinned: they are never interior to a ball solve
    pinned = u.boundary[window]
    mask &= ~pinned
    if region is not None:
        mask &= region[window]
    if not mask.any():
        return 0, 0, 0
    problem_mask = _dilate(mask)
    problem = DirichletProblem(grid=sub_grid, mask=problem_mask, data=sub_vals,
                               H=H, kind=PARABOLIC)
    # None is the solver's own start: nested iteration on an odd whole box,
    # the linearization otherwise.  Where no lift has reached yet the iterate
    # is zero next to the ball's boundary values, a start from which Newton
    # can diverge although the ball's solution exists; elsewhere the iterate
    # is the closer start
    first, second = (None, sub_vals) if own_start_first else (sub_vals, None)
    retries = 0
    try:
        solved, report = solver.solve_dirichlet(problem, cfg.solver_cfg(), initial=first)
    except SolverDivergence:
        solved, report = solver.solve_dirichlet(problem, cfg.solver_cfg(), initial=second)
        retries = 1
    interior = problem.interior_mask()
    # maximum with the old values up to a noise guard: genuine increases are
    # kept, decreases beyond solver noise are rejected (monotone sweeps)
    guard = cfg.solver_cfg().tol
    lifted = np.maximum(solved.values[interior], sub_vals[interior] - guard)
    if upper is not None:
        lifted = np.minimum(lifted, upper[window][interior])
    u.values[window][interior] = lifted
    fallbacks = report.lu_fallbacks + sum(level.lu_fallbacks for level in report.levels)
    return report.iterations, retries, fallbacks


def _dilate(mask: np.ndarray) -> np.ndarray:
    return solver.stencil_reduce(mask, np.logical_or)


def perron_sweep(u: GridFunction, upper: np.ndarray, cover: list, H: float,
                 cfg: PerronConfig, rng: np.random.Generator | None) -> tuple:
    """One pass of lifts over the cover, in place.

    Returns (increment, sub-covers, Newton iterations, smallest radius,
    retries, LU fallbacks).  The cover and every sub-cover are lifted in lattice order, or
    in the order ``rng`` permutes them to.  A sweep that starts from the
    zero subsolution, the first, starts its solves from the solver's own
    start and retries from the iterate; any other sweep starts from the
    iterate and retries from the solver's own start (:func:`_lift_once`).
    Every lift is clamped below the supersolution values ``upper``; the
    sub-covers count the lifts whose solve diverged from both starts and
    were replaced by a cover of their ball with balls of half the radius,
    the iterations are those of the lift solves that succeeded, the smallest
    radius is that of the smallest ball any lift ran at, and the retries
    count the solves that converged from their second start, and the LU
    fallbacks the Jacobians the lift solves factored after GMRES missed its
    tolerance on them.  Raises
    :class:`PerronDecrease` if a lift lowered the iterate beyond the sweep
    tolerance, and :class:`SandwichViolation` if the iterate leaves the
    sandwich [0, upper] by more than ten times it (a discretization
    inconsistency); both name the worst node.  A lift that diverges at
    ``MIN_RADIUS`` raises :class:`PerronDivergence`.
    """
    before = u.values.copy()
    own_start_first = not np.any(u.values[~u.boundary])
    covers = iterations = retries = fallbacks = 0
    smallest = max(u.values.shape)
    for ball in _ordered(cover, rng):
        sub_covers, iters, ran_at, ball_retries, ball_fallbacks = _lift_inplace(
            u, ball, H, cfg, upper, None, rng, own_start_first)
        covers += sub_covers
        iterations += iters
        smallest = min(smallest, ran_at)
        retries += ball_retries
        fallbacks += ball_fallbacks
    change = u.values - before
    increment = float(np.max(change))
    drop = float(np.min(change))
    if drop < -cfg.tol:
        raise PerronDecrease(f"lift decreased the iterate by {drop:.3e} at "
                             f"{_node_text(u, np.argmin(change))} (tolerance {cfg.tol:.1e})")
    low, high = _sandwich_margins(u, upper)
    if low < -10 * cfg.tol or high > 10 * cfg.tol:
        excess = np.maximum(-u.values, u.values - upper)
        side = "below 0" if -low >= high else "above the supersolution"
        raise SandwichViolation(
            f"sandwich violated by {float(np.max(excess)):.3e} {side} at "
            f"{_node_text(u, np.argmax(excess))}: min(u) = {low:.3e}, "
            f"max(u - upper) = {high:.3e}, tolerance {10 * cfg.tol:.1e}")
    return increment, covers, iterations, smallest, retries, fallbacks


def _node_text(u: GridFunction, flat_index) -> str:
    """'x = ..., y = ...' of a node given by its flat index: the first and the height axis."""
    at = np.unravel_index(int(flat_index), u.values.shape)
    return f"x = {float(u.axes[0][at[0]]):.4g}, y = {float(u.axes[-1][at[-1]]):.4g}"


def _sandwich_margins(u: GridFunction, upper: np.ndarray) -> tuple:
    """min(u) and max(u - upper): how far the iterate sits inside [0, upper]."""
    return float(np.min(u.values)), float(np.max(u.values - upper))


# ---------------------------------------------------------------------------
# Full asymptotic solve
# ---------------------------------------------------------------------------

@dataclass
class PerronReport:
    """How a Perron solve went; each list holds one entry per sweep.

    ``radii`` holds the radius of the sweep's cover, the whole-box ball's
    max(shape).  ``newton_iterations`` sums the Newton iterations of the
    sweep's lift solves that succeeded; ``radius_halvings`` counts the lifts
    that diverged from both starts and were replaced by a sub-cover of half
    their radius, ``smallest_radii`` the radius of the smallest ball any of
    the sweep's lifts ran at, ``lift_retries`` the lift solves that
    diverged from their first start and converged from the other, and
    ``lu_fallbacks`` the Jacobians those solves (their nested-iteration
    levels included) LU-factored after GMRES missed its tolerance on them.
    """

    sweeps: int = 0
    increments: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    radii: list = field(default_factory=list)
    radius_halvings: list = field(default_factory=list)
    smallest_radii: list = field(default_factory=list)
    lift_retries: list = field(default_factory=list)
    newton_iterations: list = field(default_factory=list)
    lu_fallbacks: list = field(default_factory=list)
    final_residual: float = math.inf
    min_u: float = math.nan
    max_above_upper: float = math.nan
    converged: bool = False


def _face_data(grid: GridFunction, phi, plane: barriers.SupersolutionPlane,
               lower_envelope) -> np.ndarray:
    """Dirichlet data on the truncation faces.

    Bottom face: the datum itself.  Lateral and top faces: the supersolution
    plane's slope times the height above the bottom face (so constant data
    reproduces the exact plane through the bottom values) plus the datum
    smoothed by ``poisson_smoothed``, clamped between the lower-barrier
    envelope and the translated supersolution plane.

    Linearized about that plane, whose slope a has 1 + a^2 = W^2, the
    residual is (1/W) [y v_xx + (y v_yy - n v_y) / W^2]: the H = 0 operator
    with x stretched by W, so the smoothing scale is W (y - y_min).  The
    kernel is exact for the linearization on the half-space above y_min with
    heights measured from y_min; the operator's own coefficient y differs
    from that by y_min, so the match becomes exact as y_min -> 0.
    """
    mesh = grid.meshgrid()
    shape = grid.values.shape
    y_min = float(grid.axes[-1][0])
    data = np.zeros(shape)
    mask = operator.outer_face_mask(shape)
    ys_all = mesh[-1][mask]
    bottom = np.isclose(ys_all, y_min)

    first_coord = mesh[0][mask] if len(mesh) > 1 else np.zeros_like(ys_all)
    vals = np.empty_like(ys_all)
    vals[bottom] = np.asarray(phi(first_coord[bottom]), dtype=float)
    rest = ~bottom
    stretch = math.hypot(1.0, plane.slope)
    smoothed = poisson_smoothed(phi, first_coord[rest], stretch * (ys_all[rest] - y_min),
                                grid.ndim)
    guess = smoothed + plane.slope * (ys_all[rest] - y_min)
    upper = plane.c + plane.slope * (ys_all[rest] - y_min)
    lower = lower_envelope(first_coord[rest], ys_all[rest])
    vals[rest] = np.minimum(np.maximum(guess, lower), upper)
    data[mask] = vals
    return data


def run_asymptotic_solve(phi: BoundaryDatum, H: float, grid: GridFunction, cfg: PerronConfig):
    """Drive the truncated asymptotic problem on the box ``grid`` to the solver tolerance.

    Returns (GridFunction, PerronReport).  The iterate starts at the zero
    subsolution inside the box, and every sweep lifts one ball that covers
    the whole box (:func:`perron_sweep`).  It stops when both the sweep
    increment and the interior residual are below tolerance.  The sandwich
    between zero and the supersolution plane through ``phi.c_max`` is
    checked after every sweep; the report keeps the final iterate's margins
    ``min_u`` = min(u) and ``max_above_upper`` = max(u - upper).

    A sweep whose whole-box lift ran is a deterministic map of the iterate,
    so a sweep that ends with increment <= tol and residual > tol will
    repeat itself: that raises :class:`PerronStall`, which names the sweep,
    the residual and where it peaks, and the increment.  The stall test
    reads the radius the lifts ran at.  The first sweep's whole-box lift may
    diverge from both starts and be replaced by its sub-cover; a later
    sweep's raises :class:`PerronDivergence` instead, with the sweep, the
    radius the sub-cover reached and the residual, unless that sweep
    converged.  ``cfg.shuffle_seed`` permutes the sub-covers.
    """
    if abs(H) >= 1:
        raise ValueError(f"|H| must be < 1, got H = {H}")
    if cfg.max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {cfg.max_sweeps}")

    plane = barriers.make_supersolution(phi.c_max, H)
    y_min = float(grid.axes[-1][0])
    y_max = float(grid.axes[-1][-1])
    # sandwich plane translated to pass through c_max on the bottom face,
    # so it dominates the truncated data for either sign of the slope
    if phi.c_max + plane.slope * (y_max - y_min) <= 0:
        raise ValueError(
            "truncation box too tall for H < 0: the supersolution plane crosses zero "
            f"inside the box (y_max = {y_max}, zero at height {phi.c_max / -plane.slope:.4g} "
            "above the bottom face)")

    stacks = _build_lower_stacks(phi, grid) if H >= 0 else []

    def lower_envelope(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        env = np.zeros(np.broadcast(x, y).shape)
        for st in stacks:
            env = np.maximum(env, st(x, y))
        return env

    face = _face_data(grid, phi, plane, lower_envelope)
    u = grid.copy()
    u.values = face.copy()
    u.values[~u.boundary] = 0.0
    upper = plane.c + plane.slope * (grid.meshgrid()[-1] - y_min)
    report = PerronReport()

    rng = np.random.default_rng(cfg.shuffle_seed) if cfg.shuffle_seed is not None else None
    whole_box = max(grid.values.shape)
    cover = build_ball_cover(u.boundary, whole_box)
    problem_all = DirichletProblem(grid=grid, mask=np.ones(u.values.shape, dtype=bool),
                                   data=face, H=H, kind=PARABOLIC)

    for sweep in range(1, cfg.max_sweeps + 1):
        try:
            increment, covers, iterations, smallest, retries, fallbacks = perron_sweep(
                u, upper, cover, H, cfg, rng)
        except PerronDivergence as exc:
            raise PerronDivergence(f"perron iteration diverged at sweep {sweep}: {exc}") from exc
        res = solver.residual_norm(u, problem_all)
        report.sweeps = sweep
        report.increments.append(increment)
        report.residuals.append(res)
        report.radii.append(whole_box)
        report.radius_halvings.append(covers)
        report.smallest_radii.append(smallest)
        report.lift_retries.append(retries)
        report.newton_iterations.append(iterations)
        report.lu_fallbacks.append(fallbacks)
        if increment <= cfg.tol and res <= cfg.tol:
            report.converged = True
            break
        if sweep > 1 and smallest < whole_box:
            raise PerronDivergence(
                f"perron iteration diverged at sweep {sweep}: the whole-box lift needed a "
                f"sub-cover down to radius {smallest}, residual {res:.4e} with increment "
                f"{increment:.3e} (tolerance {cfg.tol:.1e})")
        if increment <= cfg.tol and smallest >= whole_box:  # the whole-box lift ran
            field = np.abs(operator.residual_field(u.values, grid, PARABOLIC, H,
                                                   operator.orientation()))
            field[~problem_all.interior_mask()] = -np.inf
            raise PerronStall(
                f"perron iteration stalled at sweep {sweep}: residual {res:.4e} "
                f"(max at {_node_text(u, np.argmax(field))}) with increment {increment:.3e} "
                f"from a whole-box lift (tolerance {cfg.tol:.1e})")
    else:
        raise PerronSweepLimit(
            f"perron iteration did not converge within {cfg.max_sweeps} sweeps "
            f"(last increment {report.increments[-1]:.3e}, residual {report.residuals[-1]:.3e}, "
            f"tolerance {cfg.tol:.1e})")

    report.final_residual = report.residuals[-1]
    report.min_u, report.max_above_upper = _sandwich_margins(u, upper)
    return u, report


def _build_lower_stacks(phi: BoundaryDatum, grid: GridFunction) -> list:
    """Stacked lower barriers under a few sample boundary points."""
    lo = float(grid.axes[0][0]) if grid.ndim > 1 else 0.0
    hi = float(grid.axes[0][-1]) if grid.ndim > 1 else 0.0
    xs = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), BARRIER_POINTS)
    out = []
    for x0 in xs:
        q_offset = BARRIER_GAP * float(phi(x0))
        if q_offset <= 1e-6:
            continue
        # separating radius: a safety fraction of the sampled distance to the datum graph
        ts = np.linspace(x0 - 4.0, x0 + 4.0, 801)
        d2 = (q_offset - np.asarray(phi(ts), dtype=float)) ** 2 + (ts - x0) ** 2
        dist = math.sqrt(float(np.min(d2)))
        if dist <= 1e-6:
            continue
        out.append(barriers.transformed_stack(q_offset, [x0], 0.7 * dist))
    return out


# ---------------------------------------------------------------------------
# Comparison and attainment reports
# ---------------------------------------------------------------------------

def comparison_check(u1: GridFunction, u2: GridFunction, tol: float = 1e-8) -> dict:
    """Max positive part of u1 - u2 over shared nodes; pass iff <= 10 tol."""
    if u1.values.shape != u2.values.shape or any(
            not np.array_equal(a, b) for a, b in zip(u1.axes, u2.axes)):
        raise ValueError("comparison requires matching grids")
    gap = float(np.max(np.maximum(u1.values - u2.values, 0.0)))
    return {"max_positive_part": gap, "tolerance": 10 * tol, "passed": gap <= 10 * tol}


def boundary_attainment_report(u: GridFunction, phi, stacks: list | None = None,
                               caps: list | None = None, samples: int = 21) -> dict:
    """Datum attainment along the bottom of the box.

    The bottom face itself is pinned to the datum, so the attainment error
    is measured on the first free layer above it (index 1 on the height
    axis); the report also carries the sandwich margins against the supplied
    lower stacks and upper caps there.  The datum depends on x_1 only, so
    each sampled x_1 reports the worst node over the remaining horizontal
    axes: its value and error, and the smallest margins.
    """
    xs_axis = u.axes[0] if u.ndim > 1 else np.array([0.0])
    y0 = float(u.axes[-1][0])
    y1 = float(u.axes[-1][1])
    layer = u.values[..., 1].reshape(len(xs_axis), -1)  # one line per x_1
    sel = np.linspace(0, len(xs_axis) - 1, min(samples, len(xs_axis))).astype(int)
    xs, lines = xs_axis[sel], layer[sel]
    targets = np.asarray(phi(xs), dtype=float)
    worst = lines[np.arange(sel.size), np.argmax(np.abs(lines - targets[:, None]), axis=1)]
    if stacks:
        lower = lines.min(axis=1) - np.max([st(xs, np.array(y1)) for st in stacks], axis=0)
    if caps:
        bound = np.min([cap.upper_bound(xs[:, None], np.array(y1)) for cap in caps], axis=0)
        upper = np.where(np.isfinite(bound), bound - lines.max(axis=1), math.inf)
    rows = []
    for k, x in enumerate(xs.tolist()):
        uval, target = float(worst[k]), float(targets[k])
        row = {"x": x, "height": y1, "u": uval, "phi": target, "error": abs(uval - target)}
        if stacks:
            row["lower_margin"] = float(lower[k])
        if caps:
            row["upper_margin"] = float(upper[k])
        rows.append(row)
    max_err = max(r["error"] for r in rows)
    return {"rows": rows, "max_error": max_err, "pinned_height": y0, "probe_height": y1}
