"""Divergence-form mean-curvature operator for Killing graphs.

The residual of a graph function u on the slice M is

    resid(u; H) = s * [ div(grad u / W) - (gamma / W) <grad u, drift> ] - n H,
    W = sqrt(gamma + |grad u|^2),

with div, grad, and the inner product taken in the hyperbolic slice metric.
For the translation structure this reduces, in the (x, y) chart, to

    resid(u; H) = s * [ y div_E(Du / W_E) - n (d_y u) / W_E ] - n H,
    W_E = sqrt(1 + |Du|_E^2),

where Du is the Euclidean chart gradient.  The sign s is not assumed: it is
fixed once per session by :func:`orientation`, which measures the
mean curvature of a unit-slope tilted plane with an independent
finite-difference shape-operator oracle and requires the residual to vanish
exactly on graphs whose measured curvature equals H.  With the conventions
here that measurement gives +a/sqrt(1+a^2) for the plane u = a*y and the
discovered prefactor is s = -1, so resid(u; H) = n * (H_measured(u) - H).

On structured grids one face-flux kernel, :func:`_face_flux_residual`,
discretizes the residual for every structure:

    s * (scale * sum_a D_a(weight_a D_a u / W) - <Du, drift> / W) - n H,
    W^2 = g + |Du|^2,

with normal differences and averaged tangential slopes on the cell faces and
centered differences at the nodes.  It evaluates the inner block, the nodes
with a full 3^d stencil, and every other node reads 0.  Its index tuples
come from a plan built once per number of axes (:func:`_slice_plan`), and
its floating-point operations run in one fixed order, so its outputs are
reproducible bit for bit.  A structure supplies only coefficient data
(:class:`FluxCoefficients`), restricted to the inner block and the face
blocks: g, the node scale and the drift at the nodes, g and the flux weight
on the faces.  The translation structure passes the constants g = 1,
weight 1, drift n on the height axis and the scale y
(:func:`parabolic_coefficients`, exact on constants and tilted planes); the
dilation structure passes gamma / y^2, the height powers y^{1-n} and y^n
and its drift, with gamma and the drift read from
``KillingStructure.chart_gamma`` and ``chart_drift``, the one source of
Killing data (:func:`chart_coefficients`).  :func:`residual_field_parabolic`
and :func:`residual_field_chart` are the two entry points.  Given ``w_at``,
the kernel takes the slopes inside W from that grid function: the Picard
linearization, affine in u, for either structure.

Beside it, :func:`_face_flux_jacobian` differentiates the same kernel
exactly, with the same coefficients and index plan, and returns the
derivative as 3^d stencil coefficients per inner node; given ``w_at`` it
returns the exact matrix of the frozen, affine kernel.  The solver gathers
that array into its sparse Newton Jacobian, so an assembly costs about two
residual evaluations and no finite-difference rounding.
:func:`residual_evaluator` is the one dispatch on the structure; it forms
the coefficients once for all evaluations on a grid, or takes the dilation
structure's sliced from the grid with twice the intervals
(:func:`coarse_chart_coefficients`), and its ``resid`` carries the matching
``resid.jacobian(values, w_at)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .geometry import (PARABOLIC, HYPERBOLIC, _point_array, _check_kind,
                       ambient_christoffel_term, exact_solution_callables,
                       killing_structure)

# Relative finite-difference steps (scaled by the local height y).  The
# first-derivative step serves a fourth-order difference, whose truncation
# (h^4) and roundoff (eps / h) errors balance near h = 4e-4 y on the catalog
# patches (see :func:`generic_qh_value`).
FD_STEP_FIRST = 4e-4
FD_STEP_SECOND = 3.16e-4


class OrientationError(RuntimeError):
    """Raised when the two orientation anchors disagree (discretization bug)."""


# ---------------------------------------------------------------------------
# Scalar patches
# ---------------------------------------------------------------------------

@dataclass
class ScalarPatch:
    """A C^2 graph function on the chart, with its analytic derivatives.

    ``grad`` and ``hess`` call ``gradient`` and ``hessian``; a value-only
    patch serves the oracle :func:`graph_mean_curvature`, which reads values.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    hessian: Callable[[np.ndarray], np.ndarray] | None = None

    def grad(self, z) -> np.ndarray:
        return np.asarray(self.gradient(np.asarray(z, dtype=float)), dtype=float)

    def hess(self, z) -> np.ndarray:
        return np.asarray(self.hessian(np.asarray(z, dtype=float)), dtype=float)

    def shifted(self, offset: float) -> "ScalarPatch":
        return ScalarPatch(lambda z, _v=self.value: _v(z) + offset, self.gradient, self.hessian)


def exact_patch(name: str, **params) -> ScalarPatch:
    """Catalog solution wrapped as a patch with analytic derivatives."""
    val, grad, hess = exact_solution_callables(name, **params)
    return ScalarPatch(val, grad, hess)


# ---------------------------------------------------------------------------
# Grid functions
# ---------------------------------------------------------------------------

@dataclass
class GridFunction:
    """Scalar field on a structured chart grid over a truncation box.

    ``axes`` holds the coordinate vector per axis, the last axis being the
    height y (with y_min > 0); ``values`` is the nodal array and ``boundary``
    a mask of pinned nodes (defaults to the outer faces).
    """

    axes: tuple
    values: np.ndarray
    boundary: np.ndarray | None = None

    def __post_init__(self):
        self.axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != tuple(len(a) for a in self.axes):
            raise ValueError("values shape must match the axes")
        if any(len(a) < 3 for a in self.axes):
            raise ValueError("grid needs at least 3 nodes per axis")
        if self.axes[-1][0] <= 0:
            raise ValueError("grid must satisfy y_min > 0")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")
        if self.boundary is None:
            self.boundary = outer_face_mask(self.values.shape)
        else:
            self.boundary = np.asarray(self.boundary, dtype=bool)

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def spacing(self) -> tuple:
        return tuple(float(a[1] - a[0]) for a in self.axes)

    def meshgrid(self):
        return np.meshgrid(*self.axes, indexing="ij")

    def y_grid(self) -> np.ndarray:
        shape = [1] * self.ndim
        shape[-1] = len(self.axes[-1])
        return self.axes[-1].reshape(shape)

    def copy(self) -> "GridFunction":
        return GridFunction(self.axes, self.values.copy(), self.boundary.copy())


def outer_face_mask(shape) -> np.ndarray:
    mask = np.zeros(shape, dtype=bool)
    for d in range(len(shape)):
        sl = [slice(None)] * len(shape)
        sl[d] = 0
        mask[tuple(sl)] = True
        sl[d] = -1
        mask[tuple(sl)] = True
    return mask


def make_grid(n: int, half_width: float, y_min: float, y_max: float, nodes) -> GridFunction:
    """Zero grid on the box {|x_i| <= half_width} x [y_min, y_max], n axes."""
    if np.isscalar(nodes):
        nodes = [int(nodes)] * n
    axes = [np.linspace(-half_width, half_width, nodes[d]) for d in range(n - 1)]
    axes.append(np.linspace(y_min, y_max, nodes[-1]))
    shape = tuple(len(a) for a in axes)
    return GridFunction(tuple(axes), np.zeros(shape))


def sample_on_grid(grid: GridFunction, fn) -> GridFunction:
    """Sample fn(z) (z the chart coordinate array) onto a copy of the grid."""
    mesh = grid.meshgrid()
    out = grid.copy()
    it = np.nditer(out.values, flags=["multi_index"], op_flags=["writeonly"])
    for cell in it:
        z = np.array([m[it.multi_index] for m in mesh])
        cell[...] = fn(z)
    return out


# ---------------------------------------------------------------------------
# Independent mean curvature oracle
# ---------------------------------------------------------------------------

def numerical_mean_curvature(patch_map, xi0, n: int, orientation_ref) -> float:
    """Mean curvature of a parametric hypersurface patch at a parameter point.

    ``patch_map`` sends a parameter vector in R^n to an ambient point of the
    half-space; derivatives are formed by centered differences with step
    ``FD_STEP_SECOND`` times the height (at least 1e-3), the ambient
    connection enters through the analytic conformal correction, and the
    result is the trace of the shape operator over n against the unit normal
    whose inner product with ``orientation_ref`` (a vector, or a callable on
    the ambient point) is nonpositive.  Sign convention: the value is the
    normal component of the mean curvature vector, so a horosphere measured
    against the upward normal gives +1.
    """
    xi0 = np.atleast_1d(np.asarray(xi0, dtype=float))
    d = xi0.shape[0]
    if d != n:
        raise ValueError("parameter dimension must equal the hypersurface dimension")
    P0 = np.asarray(patch_map(xi0), dtype=float)
    y = P0[-1]
    if y <= 0:
        raise ValueError("patch leaves the half-space")
    h = FD_STEP_SECOND * max(y, 1e-3)

    T = np.empty((d, P0.shape[0]))
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        T[i] = (np.asarray(patch_map(xi0 + e)) - np.asarray(patch_map(xi0 - e))) / (2 * h)

    G = (T @ T.T) / y**2
    cond = np.linalg.cond(G)
    if not np.isfinite(cond) or cond > 1e8:
        raise ValueError("degenerate tangent frame at the evaluation point")

    _, _, vt = np.linalg.svd(T)
    n_euc = vt[-1]
    ref = orientation_ref(P0) if callable(orientation_ref) else np.asarray(orientation_ref, dtype=float)
    if np.dot(n_euc, ref) > 0:
        n_euc = -n_euc
    eta = y * n_euc  # hyperbolic unit normal

    Gi = np.linalg.inv(G)
    total = 0.0
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        for j in range(i, d):
            ej = np.zeros(d)
            ej[j] = h
            second = (np.asarray(patch_map(xi0 + ei + ej)) - np.asarray(patch_map(xi0 + ei - ej))
                      - np.asarray(patch_map(xi0 - ei + ej)) + np.asarray(patch_map(xi0 - ei - ej))) / (4 * h**2)
            II = second + ambient_christoffel_term(T[i], T[j], y)
            b = float(np.dot(II, eta)) / y**2
            total += Gi[i, j] * b * (1.0 if i == j else 2.0)
    return total / n


def graph_patch_map(patch: ScalarPatch, kind: str):
    """Parametric map of the Killing graph of a chart patch."""
    struct = killing_structure(kind)

    def f(z):
        z = np.asarray(z, dtype=float)
        return struct.embed_graph_point(patch.value(z), z)

    return f


def graph_mean_curvature(patch: ScalarPatch, P, kind: str, n: int) -> float:
    """Oracle mean curvature of a Killing graph, normal opposing the flow."""
    struct = killing_structure(kind)
    return numerical_mean_curvature(graph_patch_map(patch, kind), _point_array(P), n,
                                    orientation_ref=struct.field)


# ---------------------------------------------------------------------------
# Orientation convention
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrientationConvention:
    """Session-wide sign bookkeeping for the graph operator.

    ``sign`` multiplies the raw divergence-form expression inside the
    residual.  ``plane_curvature`` is the oracle measurement on the
    unit-slope tilted plane against the flow-opposing normal; the exact
    solution slope for target curvature H is ``-sign * H / sqrt(1 - H^2)``.
    """

    sign: int
    plane_curvature: float

    def solution_slope(self, H: float) -> float:
        if abs(H) >= 1:
            raise ValueError(f"|H| must be < 1, got H = {H}")
        return -self.sign * H / math.sqrt(1.0 - H * H)


_ORIENTATION: OrientationConvention | None = None


def orientation() -> OrientationConvention:
    """Fix the operator sign from the mean-curvature oracle, once per session.

    The unit-slope plane u = y is embedded as a graph and measured with the
    flow-opposing normal; the sign s is the one making s * (raw expression)
    equal n * (measured curvature) on that plane.  Two consistency anchors
    are then asserted: the reduced chart form matches the structure-level
    expression at random points, and for H = 0.5 the residual-zero plane has
    nonnegative slope (the supersolution family consists of positive
    functions).  Failure raises :class:`OrientationError`.  Later calls
    return the cached convention until :func:`reset_orientation`.
    """
    global _ORIENTATION
    if _ORIENTATION is not None:
        return _ORIENTATION

    n = 2
    plane = exact_patch("tilted_plane", a=1.0, b=0.0)
    probe = np.array([0.3, 1.2])
    measured = graph_mean_curvature(plane, probe, PARABOLIC, n)
    raw = _reduced_parabolic_value(plane, probe, n)
    ratio = n * measured / raw
    if abs(abs(ratio) - 1.0) > 2e-5:
        raise OrientationError(
            f"oracle/operator magnitude mismatch on the unit-slope plane: ratio = {ratio!r}")
    sign = 1 if ratio > 0 else -1
    conv = OrientationConvention(sign=sign, plane_curvature=float(measured))

    # anchor 1: reduced chart form vs structure-level form
    gap = verify_reduction(n, rng=np.random.default_rng(7))
    if gap > 1e-10:
        raise OrientationError(f"chart reduction mismatch: max gap {gap:.3e} > 1e-10")

    # anchor 2: positive supersolution slope for H = 0.5, stable across grids
    H = 0.5
    slope = conv.solution_slope(H)
    if slope < 0:
        raise OrientationError("residual-zero slope for H = 0.5 is negative; "
                               "contradicts the positive supersolution family")
    sol = exact_patch("tilted_plane", a=slope, b=0.2)
    res = qh_pointwise(sol, np.array([0.4, 0.9]), PARABOLIC, H, n=n, convention=conv)
    if abs(res) > 1e-10:
        raise OrientationError(f"exact equidistant plane has residual {res:.3e}")
    for nodes in (17, 33):
        grid = make_grid(2, 1.0, 0.3, 1.3, nodes)
        samp = sample_on_grid(grid, lambda z: slope * z[-1] + 0.2)
        r = qh_residual_grid(samp, PARABOLIC, H, convention=conv)
        interior = r.values[tuple(slice(1, -1) for _ in range(2))]
        if np.max(np.abs(interior)) > 1e-9:
            raise OrientationError("grid residual of the equidistant plane is not stable")

    _ORIENTATION = conv
    return conv


def reset_orientation() -> None:
    global _ORIENTATION
    _ORIENTATION = None


# ---------------------------------------------------------------------------
# Pointwise residual
# ---------------------------------------------------------------------------

def _reduced_parabolic_value(patch: ScalarPatch, z, n: int) -> float:
    """Raw chart expression y * div_E(Du/W) - n * u_y / W (no sign, no -nH)."""
    z = np.asarray(z, dtype=float)
    g = patch.grad(z)
    Hs = patch.hess(z)
    W2 = 1.0 + float(np.dot(g, g))
    W = math.sqrt(W2)
    # div_E(Du/W) = sum_ij (delta_ij W^2 - u_i u_j) u_ij / W^3
    div = float(np.trace(Hs) * W2 - g @ Hs @ g) / W**3
    return z[-1] * div - n * g[-1] / W


def generic_qh_value(patch: ScalarPatch, z, kind: str, n: int) -> float:
    """Structure-level expression div(grad u / W) - (gamma/W) <grad u, drift>.

    Evaluated directly from the slice metric and the Killing data: the flux
    field sqrt(g) * (grad u)^i / W is formed at displaced chart points and
    differenced, so no chart simplification is assumed.  The divergence is
    the fourth-order five-point difference at h = ``FD_STEP_FIRST`` y.  A
    two-point centered difference would need h near 1e-5 y to keep its
    truncation small, and its roundoff, about eps / h, would then reach
    1e-11; at 4e-4 y the five-point rule's truncation and roundoff both
    stay near 1e-12 (measured against the translation structure's analytic
    reduction, and by perturbing gamma in its last bit).
    """
    z = np.asarray(z, dtype=float)
    struct = killing_structure(kind)
    d = z.shape[0]

    def flux(q):
        q = np.asarray(q, dtype=float)
        yq = q[-1]
        grad = patch.grad(q)
        gamma = struct.chart_gamma(q)
        wtil = math.sqrt(gamma + yq**2 * float(np.dot(grad, grad)))
        # sqrt(det g) = y^-n, (grad u)^i = y^2 u_i
        return yq ** (2 - n) * grad / wtil

    h = FD_STEP_FIRST * z[-1]
    div = 0.0
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        div += (8.0 * (flux(z + e)[i] - flux(z - e)[i])
                - (flux(z + 2 * e)[i] - flux(z - 2 * e)[i])) / (12.0 * h)
    div *= z[-1] ** n

    grad0 = patch.grad(z)
    gamma0 = struct.chart_gamma(z)
    wtil0 = math.sqrt(gamma0 + z[-1] ** 2 * float(np.dot(grad0, grad0)))
    drift = struct.chart_drift(z)
    return div - (gamma0 / wtil0) * float(np.dot(grad0, drift))


def verify_reduction(n: int, rng: np.random.Generator) -> float:
    """Max |generic - reduced| over 25 random points and three catalog patches."""
    patches = [
        exact_patch("constant", c=0.7),
        exact_patch("tilted_plane", a=0.8, b=-0.1),
        exact_patch("hemisphere", t=0.2, R=2.0),
    ]
    worst = 0.0
    for _ in range(25):
        z = np.empty(n)
        z[:-1] = rng.uniform(-0.6, 0.6, size=n - 1)
        z[-1] = rng.uniform(0.4, 1.4)
        for patch in patches:
            gen = generic_qh_value(patch, z, PARABOLIC, n)
            red = _reduced_parabolic_value(patch, z, n)
            worst = max(worst, abs(gen - red))
    return worst


def qh_pointwise(patch: ScalarPatch, P, kind: str, H: float, n: int,
                 convention: OrientationConvention | None = None) -> float:
    """Residual of the graph equation at a chart point: s * Q(u) - n H.

    Vanishes exactly on graphs whose oracle mean curvature (flow-opposing
    normal) equals H.  The translation structure uses the analytic chart
    reduction; the dilation structure evaluates the structure-level form
    with pulled-back Killing data.
    """
    if abs(H) >= 1:
        raise ValueError(f"|H| must be < 1, got H = {H}")
    z = _point_array(P)
    conv = convention or orientation()
    if kind == PARABOLIC:
        raw = _reduced_parabolic_value(patch, z, n)
    else:
        raw = generic_qh_value(patch, z, _check_kind(kind), n)
    return conv.sign * raw - n * H


# ---------------------------------------------------------------------------
# Grid residual
# ---------------------------------------------------------------------------

def _index(d: int, fill: slice, at: dict) -> tuple:
    """Index of the trailing ``d`` axes: ``at[axis]`` on the listed axes, ``fill`` elsewhere."""
    return (Ellipsis, *(at.get(axis, fill) for axis in range(d)))


class _SlicePlan(NamedTuple):
    """The kernel's index tuples for ``d`` grid axes (see :func:`_slice_plan`)."""

    inner: tuple           # the inner block: the full-stencil nodes
    centered: tuple        # per axis b, (hi, lo) of the centered difference, all rows of the others
    inner_centered: tuple  # per axis b, (hi, lo) of the centered difference on the inner block
    along: tuple           # per axis a, all rows of a and inner rows of the others
    normal: tuple          # per axis a, (hi, lo) of the normal difference on the faces of a
    tangential: tuple      # per axis a, (b, lo, hi) of each centered difference at the face ends
    flux: tuple            # per axis a, (hi, lo) of the difference of face values along a


@functools.lru_cache(maxsize=None)
def _slice_plan(d: int) -> _SlicePlan:
    """Index tuples of the face-flux kernel on ``d`` grid axes, built once per ``d``.

    The faces of axis a that the kernel evaluates are those between inner
    rows of every other axis (the face block of a).  ``along[a]`` restricts
    an array to that block when its axis a already holds only the needed
    rows: a centered difference along a to the inner block, or a face array
    of a to the face block.
    """
    full, mid = slice(None), slice(1, -1)
    head, tail, upper, lower = slice(1, None), slice(None, -1), slice(2, None), slice(None, -2)
    axes = range(d)
    return _SlicePlan(
        inner=_index(d, mid, {}),
        centered=tuple((_index(d, full, {b: upper}), _index(d, full, {b: lower})) for b in axes),
        inner_centered=tuple((_index(d, mid, {b: upper}), _index(d, mid, {b: lower}))
                             for b in axes),
        along=tuple(_index(d, mid, {a: full}) for a in axes),
        normal=tuple((_index(d, mid, {a: head}), _index(d, mid, {a: tail})) for a in axes),
        tangential=tuple(tuple((b, _index(d, mid, {a: tail, b: full}),
                                _index(d, mid, {a: head, b: full}))
                               for b in axes if b != a) for a in axes),
        flux=tuple((_index(d, full, {a: head}), _index(d, full, {a: tail})) for a in axes),
    )


def _centered_gradients(values: np.ndarray, h) -> list[np.ndarray]:
    """Centered differences per grid axis (trailing ``len(h)`` axes) on the inner block."""
    return [(values[hi] - values[lo]) / (2 * h[b])
            for b, (hi, lo) in enumerate(_slice_plan(len(h)).inner_centered)]


@dataclass(frozen=True)
class FluxCoefficients:
    """A structure's coefficient data for :func:`_face_flux_residual`.

    ``scale``, ``gamma`` and the drift coefficients (``drift`` lists
    (axis, coefficient) pairs, at least one) hold their values on the inner
    block; ``faces[a]`` is the pair (g, flux weight) on the face block of
    axis a, weight ``None`` for 1.  Arrays broadcast against those blocks;
    scalars stand for constants.
    """

    scale: np.ndarray | float
    gamma: np.ndarray | float
    drift: tuple
    faces: tuple


def parabolic_coefficients(y_grid: np.ndarray, n: int) -> FluxCoefficients:
    """Translation structure: g = 1, weight 1, the drift n on the height axis, scale y.

    ``y_grid`` is the height column shaped to broadcast against the grid
    (:meth:`GridFunction.y_grid`).
    """
    d = y_grid.ndim
    return FluxCoefficients(scale=y_grid[..., 1:-1], gamma=1.0, drift=((d - 1, n),),
                            faces=((1.0, None),) * d)


def chart_coefficients(axes, n: int) -> FluxCoefficients:
    """Dilation structure: g = gamma / y^2, weight y^{1-n}, scale y^n, drift (gamma / y) * drift.

    gamma and the drift are ``KillingStructure.chart_gamma`` and
    ``chart_drift``, evaluated once on the stacked node mesh and once per
    axis on the face mesh, then restricted to the blocks the kernel reads.
    """
    d = len(axes)
    plan = _slice_plan(d)
    struct = killing_structure(HYPERBOLIC)
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"))  # coordinate-first, (d, ...)
    y = nodes[-1]
    gamma_y = struct.chart_gamma(nodes) / y
    drift = struct.chart_drift(nodes)
    faces = []
    for a in range(d):
        hi, lo = plan.flux[a]
        face = 0.5 * (nodes[lo] + nodes[hi])
        block = plan.along[a]
        faces.append(((struct.chart_gamma(face) / face[-1] ** 2)[block],
                      (face[-1] ** (1 - n))[block]))
    inner = plan.inner
    return FluxCoefficients(scale=(y**n)[inner], gamma=(gamma_y / y)[inner],
                            drift=tuple((b, (gamma_y * drift[b])[inner]) for b in range(d)),
                            faces=tuple(faces))


def coarse_chart_coefficients(fine: FluxCoefficients, axes, n: int) -> FluxCoefficients:
    """:func:`chart_coefficients` on every other node, sliced from the finer grid's ``fine``.

    ``axes`` are the coarse axes, every other node of the fine axes, which
    have an odd node count.  A coarse node is a fine node, and so is a coarse
    face, the midpoint of two coarse nodes: the node data are ``fine``'s at
    every other inner row, and a face's g = gamma / y^2 is ``fine.gamma`` at
    the fine node there.  Only the flux weight y^{1-n}, a power of the face
    height, is formed from ``axes``; the structure's gamma and drift are not
    evaluated again.  The face g differs from :func:`chart_coefficients`'s in
    the last bits, as the fine node's coordinates and the midpoint's may,
    and as (gamma / y) / y and gamma / y^2 round differently.
    """
    d = len(axes)
    plan = _slice_plan(d)
    # in the fine inner block, the coarse nodes are the odd rows of every
    # axis, and the faces of axis a the even rows of a
    odd, even = slice(1, None, 2), slice(None, None, 2)
    nodes = _index(d, odd, {})
    y = np.meshgrid(*axes, indexing="ij")[-1]
    faces = []
    for a in range(d):
        hi, lo = plan.flux[a]
        weight = (0.5 * (y[lo] + y[hi])) ** (1 - n)
        faces.append((fine.gamma[_index(d, odd, {a: even})], weight[plan.along[a]]))
    return FluxCoefficients(scale=fine.scale[nodes], gamma=fine.gamma[nodes],
                            drift=tuple((b, c[nodes]) for b, c in fine.drift),
                            faces=tuple(faces))


def _face_flux_residual(values: np.ndarray, h, n: int, H: float, sign: int,
                        coefficients: FluxCoefficients, w_at: np.ndarray | None) -> np.ndarray:
    """The face-flux residual kernel, evaluated on the inner block; 0 at every other node.

        sign * (scale * sum_a D_a(weight_a D_a u / W) - <Du, drift> / W) - n H,
        W^2 = g + |Du|^2.

    The inner block is the full-stencil nodes.  On the faces of axis a
    between inner rows of the other axes, D_a u is the normal difference,
    the tangential slopes are averaged from the centered node differences,
    and g and the flux weight are ``coefficients.faces[a]``.  At the nodes
    the slopes are the centered differences.  The grid is ``values`` itself.

    The float operations run in a fixed order, so that every output is
    bitwise reproducible: on a face, the tangential sum t^2 is formed in
    axis order and then added to g + (D_a u)^2; the divergence accumulates
    axis 0, then 1, then 2; at a node, W = sqrt(g + ((u_0^2 + u_1^2) + u_2^2)).

    Given a ``w_at`` array, the slopes inside every W are those of ``w_at``: the
    result is affine in ``values`` (the Picard linearization frozen at
    ``w_at``) and equals the full residual at ``values = w_at``.
    """
    plan = _slice_plan(len(h))
    w = values if w_at is None else w_at
    slopes = [(w[hi] - w[lo]) / (2 * h[b]) for b, (hi, lo) in enumerate(plan.centered)]
    div = None
    for a, (face_gamma, weight) in enumerate(coefficients.faces):
        hi, lo = plan.normal[a]
        wn = (w[hi] - w[lo]) / h[a]
        dn = wn if w_at is None else (values[hi] - values[lo]) / h[a]
        t2 = [(0.5 * (slopes[b][lo_b] + slopes[b][hi_b])) ** 2
              for b, lo_b, hi_b in plan.tangential[a]] or [0.0]  # 0.0: one axis
        # one expression, so that numpy reuses its temporaries' buffers
        flux = (dn if weight is None else weight * dn) / np.sqrt(
            face_gamma + wn**2 + sum(t2[1:], t2[0]))
        hi, lo = plan.flux[a]
        term = (flux[hi] - flux[lo]) / h[a]
        div = term if div is None else div + term
    node = [s[block] for s, block in zip(slopes, plan.along)]
    w_c = np.sqrt(coefficients.gamma + sum((g**2 for g in node[1:]), node[0] ** 2))
    grads = node if w_at is None else _centered_gradients(values, h)
    (b, c), *rest = coefficients.drift
    pairing = grads[b] * c
    for b, c in rest:
        pairing = pairing + grads[b] * c
    del slopes, node, grads  # free the slopes before the output is allocated
    out = np.zeros(values.shape)
    out[plan.inner] = sign * (coefficients.scale * div - pairing / w_c) - n * H
    return out


def _face_flux_jacobian(values: np.ndarray, h, sign: int, coefficients: FluxCoefficients,
                        w_at: np.ndarray | None) -> np.ndarray:
    """The exact derivative of :func:`_face_flux_residual` as stencil coefficients.

    Returns an array shaped (3^d, *inner): entry k at an inner node i is
    dR_i / du_{i + o_k}, where the offsets o_k run over {-1, 0, 1}^d in C
    order (k = sum_b (o_b + 1) 3^(d - 1 - b)).  With D the normal difference
    on a face, t_b its averaged tangential slopes and W^2 = g + D^2 + sum t_b^2,
    the face flux weight D / W has the partial derivatives

        d/dD = weight (g + sum t_b^2) / W^3,   d/dt_b = -weight D t_b / W^3,

    and at a node, with the centered slopes s_b, p = <Du, drift> and
    W_c^2 = gamma + sum s_b^2, d(p / W_c)/ds_b = c_b / W_c - p s_b / W_c^3.
    The stencil weights are +-1 / h_a on D, +-1 / (4 h_b) on the four
    face-end neighbours of t_b and +-1 / (2 h_b) on s_b.  Given ``w_at``,
    W and W_c are read from ``w_at`` and the result is the exact matrix of
    the frozen, affine kernel: d/dD = weight / W, d(p / W_c)/ds_b = c_b / W_c
    and no t_b term.  The grid is ``values`` itself.
    """
    d = len(h)
    plan = _slice_plan(d)
    w = values if w_at is None else w_at
    out = np.zeros((3**d,) + values[plan.inner].shape)

    def entry(offset: dict) -> int:  # the stencil index of the offset {axis: +-1}
        return sum((offset.get(b, 0) + 1) * 3 ** (d - 1 - b) for b in range(d))

    centre = entry({})
    slopes = [(w[hi] - w[lo]) / (2 * h[b]) for b, (hi, lo) in enumerate(plan.centered)]
    for a, (face_gamma, weight) in enumerate(coefficients.faces):
        hi, lo = plan.normal[a]
        wn = (w[hi] - w[lo]) / h[a]
        tangential = [(b, 0.5 * (slopes[b][lo_b] + slopes[b][hi_b]))
                      for b, lo_b, hi_b in plan.tangential[a]]
        squares = [t**2 for _, t in tangential] or [0.0]  # 0.0: one axis
        t2 = sum(squares[1:], squares[0])
        w2 = face_gamma + wn**2 + t2
        omega = 1.0 if weight is None else weight
        if w_at is None:
            inv_w3 = omega / (w2 * np.sqrt(w2))
            normal = (face_gamma + t2) * inv_w3
            tangents = [(b, -wn * t * inv_w3) for b, t in tangential]
        else:
            normal, tangents = omega / np.sqrt(w2), []
        # the node's upper face minus its lower face, times sign * scale / h_a
        upper, lower = plan.flux[a]
        factor = sign * coefficients.scale / h[a]
        up, down = factor * normal[upper] / h[a], factor * normal[lower] / h[a]
        out[entry({a: 1})] += up
        out[centre] -= up + down
        out[entry({a: -1})] += down
        for b, dflux in tangents:
            up, down = factor * dflux[upper] / (4 * h[b]), factor * dflux[lower] / (4 * h[b])
            out[entry({b: 1})] += up - down
            out[entry({b: -1})] -= up - down
            out[entry({a: 1, b: 1})] += up
            out[entry({a: 1, b: -1})] -= up
            out[entry({a: -1, b: 1})] -= down
            out[entry({a: -1, b: -1})] += down
    node = [s[block] for s, block in zip(slopes, plan.along)]
    w_c = np.sqrt(coefficients.gamma + sum((g**2 for g in node[1:]), node[0] ** 2))
    if w_at is None:
        drift = dict(coefficients.drift)
        cubed = sum(node[b] * c for b, c in coefficients.drift) / w_c**3
        node_terms = [(b, drift.get(b, 0.0) / w_c - node[b] * cubed) for b in range(d)]
    else:
        node_terms = [(b, c / w_c) for b, c in coefficients.drift]
    for b, deriv in node_terms:  # - sign p / W_c through s_b
        step = sign * deriv / (2 * h[b])
        out[entry({b: 1})] -= step
        out[entry({b: -1})] += step
    return out


def residual_field_parabolic(values: np.ndarray, y_grid: np.ndarray, h, n: int,
                             H: float, sign: int, w_at: np.ndarray | None,
                             coefficients: FluxCoefficients | None = None) -> np.ndarray:
    """Translation-structure residual y div_E(Du/W) - n u_y/W on the grid.

    The kernel with :func:`parabolic_coefficients`; ``y_grid`` broadcasts
    against the grid axes.  A caller evaluating many times on one grid
    passes those coefficients, formed once, as ``coefficients``.
    """
    if coefficients is None:
        coefficients = parabolic_coefficients(y_grid, n)
    return _face_flux_residual(values, h, n, H, sign, coefficients, w_at)


def residual_field_chart(values: np.ndarray, axes, h, n: int, H: float, sign: int,
                         w_at: np.ndarray | None,
                         coefficients: FluxCoefficients | None = None) -> np.ndarray:
    """Dilation-structure residual on the grid.

    Conservative form y^n d_j(y^{2-n} u_j / Wtil) - (gamma / Wtil) <Du, drift>
    with Wtil^2 = gamma + y^2 |Du|^2, where gamma and the drift are the
    dilation structure's ``chart_gamma`` and ``chart_drift``, pulled back
    from the hemisphere slice.  With W = Wtil / y this is the kernel with
    :func:`chart_coefficients`.  A caller
    evaluating many times on one grid passes those coefficients, formed
    once, as ``coefficients``.
    """
    if coefficients is None:
        coefficients = chart_coefficients(axes, n)
    return _face_flux_residual(values, h, n, H, sign, coefficients, w_at)


def residual_evaluator(grid: GridFunction, kind: str, H: float, conv: OrientationConvention,
                       coefficients: FluxCoefficients | None = None):
    """``resid(values, w_at=None)``: the residual on ``grid`` for the ``kind`` structure.

    The one dispatch on the structure.  The spacing and the structure's
    coefficients are formed here, once, unless the caller has them already
    (``coefficients``, e.g. :func:`coarse_chart_coefficients`); every
    evaluation reuses them, as does ``resid.jacobian(values, w_at)``, the
    kernel's exact stencil derivative (:func:`_face_flux_jacobian`; ``w_at``
    None for the full residual's), and they are kept as
    ``resid.coefficients``.  ``w_at`` freezes the W factors of the residual
    (see :func:`_face_flux_residual`).  Calls go
    through the module attributes ``residual_field_parabolic`` and
    ``residual_field_chart``, so wrapping those sees every evaluation.
    """
    h, n, sign, axes = grid.spacing, grid.ndim, conv.sign, grid.axes
    if kind == PARABOLIC:
        y_grid = grid.y_grid()
        if coefficients is None:
            coefficients = parabolic_coefficients(y_grid, n)

        def resid(values, w_at=None):
            return residual_field_parabolic(values, y_grid, h, n, H, sign, w_at, coefficients)
    else:
        if coefficients is None:
            coefficients = chart_coefficients(axes, n)

        def resid(values, w_at=None):
            return residual_field_chart(values, axes, h, n, H, sign, w_at, coefficients)

    def jacobian(values, w_at):
        return _face_flux_jacobian(values, h, sign, coefficients, w_at)

    resid.jacobian = jacobian
    resid.coefficients = coefficients
    return resid


def residual_field(values: np.ndarray, grid: GridFunction, kind: str, H: float,
                   conv: OrientationConvention, w_at: np.ndarray | None = None) -> np.ndarray:
    """Residual of ``values`` on the grid for the ``kind`` structure, one evaluation.

    See :func:`residual_evaluator`, which repeated evaluations should use.
    """
    return residual_evaluator(grid, kind, H, conv)(values, w_at)


def qh_residual_grid(u: GridFunction, kind: str, H: float,
                     convention: OrientationConvention | None = None) -> GridFunction:
    """Discrete residual of the graph equation at interior nodes.

    Face fluxes (delta u / h) / W at half-nodes, differenced and scaled by
    the chart factor, with the drift by centered differences; boundary nodes
    carry zero and stay marked in the boundary mask.
    """
    if abs(H) >= 1:
        raise ValueError(f"|H| must be < 1, got H = {H}")
    _check_kind(kind)
    res = residual_field(u.values, u, kind, H, convention or orientation())
    out = u.copy()
    out.values = np.where(u.boundary, 0.0, res)
    # nodes missing a full stencil (where the kernel reads 0) are boundary
    out.boundary = u.boundary | outer_face_mask(u.values.shape)
    return out
