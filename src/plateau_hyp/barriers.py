"""Explicit barrier hypersurfaces for the asymptotic graph problem.

Three constructions:

* a lower barrier made of stacked geodesic-hemisphere graphs with shrinking
  radii, pasted by running maxima; the opening angle alpha is selected so
  the stack's limiting height lands strictly between l and l + 1, where l
  is the boundary distance of the point being separated;
* the one-parameter family of equidistant planes c + slope * y that solve
  the graph equation exactly for |H| < 1 and serve as supersolutions;
* spherical caps over small ideal spheres, used as one-sided upper bounds
  near boundary points on the far side of the data graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import operator
from .geometry import PARABOLIC, IdealSphere
from .operator import exact_patch, qh_pointwise


def alpha_margin(alpha: float) -> float:
    """The limiting stack height cos(b) (sin a - sin b) / (cos b - cos a), b = a/2.

    Continuous on (0, pi/2), asymptotic to 4 / (3 alpha) near zero, and equal
    to the limit of the pasted stack's center heights t_k.  Evaluated through
    the cancellation-free product form cos(a/2) * cot(3a/4).
    """
    if not 0 < alpha < math.pi / 2:
        raise ValueError("alpha must lie in (0, pi/2)")
    return math.cos(alpha / 2.0) * math.cos(0.75 * alpha) / math.sin(0.75 * alpha)


def select_alpha(l: float) -> float:
    """Opening angle with limiting height in (l, l + 1), by bisection.

    Targets the midpoint l + 1/2: the margin function decreases from
    +infinity to about 0.293 on (0, pi/2), so a sign-changing bracket always
    exists for l > 0 and bisection converges to |margin - target| <= 1e-10
    within 200 halvings.
    """
    if l <= 0:
        raise ValueError("separation distance l must be positive")
    target = l + 0.5
    lo, hi = 1e-12, math.pi / 2 - 1e-12
    if not (alpha_margin(lo) > target > alpha_margin(hi)):
        raise RuntimeError("bisection bracket failed; margin function not straddling the target")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = alpha_margin(mid)
        if abs(val - target) <= 1e-10:
            alpha = mid
            break
        if val > target:
            lo = mid
        else:
            hi = mid
    else:
        raise RuntimeError(f"bisection did not reach tolerance 1e-10 for l = {l}")
    g = alpha_margin(alpha)
    if not (l < g < l + 1):
        raise RuntimeError(f"selected alpha fails the height window: margin = {g}")
    return alpha


@dataclass(frozen=True)
class BarrierStack:
    """Stacked-hemisphere lower barrier in the normalized configuration.

    The separated boundary point sits at distance ``l`` along the flow axis
    and the outermost hemisphere has unit radius.  ``levels`` holds the
    center heights and radii (t_k, R_k); radii decay geometrically with
    ratio cos(alpha)/cos(beta) and the heights increase to a limit inside
    (l, l + 1).  ``K`` is the index of the first level above l.
    """

    l: float
    alpha: float
    levels: tuple = field(default_factory=tuple)

    @property
    def beta(self) -> float:
        return self.alpha / 2.0

    @property
    def K(self) -> int:
        return len(self.levels) - 1

    @property
    def limit_height(self) -> float:
        return alpha_margin(self.alpha)

    def radii(self) -> np.ndarray:
        return np.array([R for _, R in self.levels])

    def heights(self) -> np.ndarray:
        return np.array([t for t, _ in self.levels])


def build_stack(l: float, alpha: float) -> BarrierStack:
    """Generate stack levels until the center height first exceeds l.

    Each level is produced by the two-term recursion and cross-checked
    against the geometric-series closed form to 1e-12, for at most 10^6
    levels; the
    construction also verifies t_0 = -sin(beta) exactly, the final height
    window l < t_K < l + 1, and strict monotonicity of both sequences.
    """
    beta = alpha / 2.0
    ratio = math.cos(alpha) / math.cos(beta)
    limit = alpha_margin(alpha)
    if limit <= l:
        raise ValueError(f"alpha = {alpha} cannot separate distance l = {l}: limit {limit} <= l")

    sin_a, sin_b = math.sin(alpha), math.sin(beta)
    levels = [(-sin_b, 1.0)]
    t, R = -sin_b, 1.0
    # closed form: t_k = S_k sin(a) - S_{k+1} sin(b), S_k = (1 - r^k)/(1 - r)
    for k in range(1, 10**6 + 1):
        R_next = ratio * R
        t_next = t + R * sin_a - R_next * sin_b
        s_k = (1.0 - ratio**k) / (1.0 - ratio)
        s_k1 = (1.0 - ratio ** (k + 1)) / (1.0 - ratio)
        closed = s_k * sin_a - s_k1 * sin_b
        if abs(t_next - closed) > 1e-12:
            raise RuntimeError(
                f"recursion/closed-form mismatch at level {k}: {abs(t_next - closed):.3e}")
        if not (t_next > t and R_next < R):
            raise RuntimeError(f"monotonicity broken at level {k}")
        levels.append((t_next, R_next))
        t, R = t_next, R_next
        if t > l:
            break
    else:
        raise RuntimeError("stack did not terminate; alpha selection is inconsistent")
    if not (l < t < l + 1):
        raise RuntimeError(f"final height t_K = {t} escaped the window ({l}, {l + 1})")
    return BarrierStack(l=float(l), alpha=float(alpha), levels=tuple(levels))


def eval_stack_radial(stack: BarrierStack, rho) -> np.ndarray:
    """Pasted barrier value max(0, max_k v_k), v_k = t_k + sqrt(R_k^2 - rho^2), at chart radii rho.

    Each piece takes part on its own closed disk, consecutive pieces agree
    on the pasting spheres rho = R_{k-1} cos(alpha), and the value vanishes
    outside the unit disk.
    """
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    for t_k, R_k in stack.levels:
        inside = rho <= R_k
        if not np.any(inside):
            break
        v = np.where(inside, t_k + np.sqrt(np.maximum(R_k**2 - rho**2, 0.0)), -np.inf)
        out = np.maximum(out, v)
    return np.maximum(out, 0.0)


@dataclass(frozen=True)
class TransformedStack:
    """A normalized stack carried to a general position by a boundary similarity.

    The barrier separates the ideal point at offset q_offset over x-center
    ``center`` using a separating hemisphere of radius ``scale``; values are
    scale * (normalized stack at ((x - center)/scale, y/scale)).
    """

    stack: BarrierStack
    center: np.ndarray
    scale: float

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.center.shape[0] == 1:
            diff2 = (x - self.center[0]) ** 2
        else:
            diff2 = sum((x[..., i] - self.center[i]) ** 2 for i in range(self.center.shape[0]))
        rho = np.sqrt(diff2 + y**2) / self.scale
        return self.scale * eval_stack_radial(self.stack, rho)


def transformed_stack(q_offset: float, center, radius: float) -> TransformedStack:
    """Lower barrier separating the ideal point at (q_offset, center).

    ``radius`` is the separating hemisphere radius; the normalized distance
    is l = q_offset / radius and the returned callable evaluates the carried
    barrier at chart points (x, y).
    """
    if q_offset <= 0 or radius <= 0:
        raise ValueError("q_offset and radius must be positive")
    l = q_offset / radius
    alpha = select_alpha(l)
    stack = build_stack(l, alpha)
    return TransformedStack(stack=stack, center=np.atleast_1d(np.asarray(center, dtype=float)),
                            scale=float(radius))


# ---------------------------------------------------------------------------
# Supersolution planes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupersolutionPlane:
    """Equidistant-plane graph c + slope * y; exact solution for its H."""

    c: float
    slope: float
    H: float

    def __call__(self, y):
        return self.c + self.slope * np.asarray(y, dtype=float)

    def patch(self):
        return exact_patch("tilted_plane", a=self.slope, b=self.c)


def make_supersolution(c: float, H: float) -> SupersolutionPlane:
    """Exact equidistant plane through boundary offset c for curvature H.

    The slope has magnitude |H| / sqrt(1 - H^2) with the sign fixed by the
    orientation convention so the residual vanishes identically; for H >= 0
    the slope is nonnegative and the plane dominates its offset everywhere.
    Construction verifies the residual at 12 sampled chart points.
    """
    if abs(H) >= 1:
        raise ValueError(f"no equidistant graph exists for |H| >= 1 (got H = {H})")
    if c <= 0:
        raise ValueError("boundary offset c must be positive")
    conv = operator.orientation()
    slope = conv.solution_slope(H)
    plane = SupersolutionPlane(c=float(c), slope=float(slope), H=float(H))
    patch = plane.patch()
    rng = np.random.default_rng(3)
    for _ in range(12):
        z = np.array([rng.uniform(-2, 2), rng.uniform(0.2, 2.5)])
        r = qh_pointwise(patch, z, PARABOLIC, H, n=2, convention=conv)
        if abs(r) > 1e-10:
            raise RuntimeError(f"supersolution plane residual {r:.3e} exceeds 1e-10")
    return plane


# ---------------------------------------------------------------------------
# Upper caps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UpperCap:
    """Spherical cap shielding the far side of the data graph near one point.

    The cap's ideal boundary is the round sphere of radius ``rho`` about
    (offset, center) in the boundary plane; its Euclidean center sits at
    signed height ``center_height`` <= 0 and its mean curvature vector
    points away from the enclosed ideal disk (toward the data graph), with
    magnitude |H|.
    """

    offset: float
    center: np.ndarray
    rho: float
    H: float

    @property
    def center_height(self) -> float:
        return -abs(self.H) * self.rho / math.sqrt(1.0 - self.H**2)

    @property
    def radius(self) -> float:
        return self.rho / math.sqrt(1.0 - self.H**2)

    @property
    def boundary_sphere(self) -> IdealSphere:
        return IdealSphere(kind="round",
                           center=np.concatenate([[self.offset], self.center]),
                           radius=self.rho)

    def upper_bound(self, x, y):
        """Largest graph value at (x, y) compatible with avoiding the cap.

        Returns +inf where the cap's vertical cylinder is missed.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float)
        if self.center.shape[0] == 1 and x.shape[-1:] != (1,):
            lat2 = (x - self.center[0]) ** 2
        else:
            lat2 = sum((x[..., i] - self.center[i]) ** 2 for i in range(self.center.shape[0]))
        gap2 = self.radius**2 - lat2 - (y - self.center_height) ** 2
        with np.errstate(invalid="ignore"):
            bound = self.offset - np.sqrt(np.maximum(gap2, 0.0))
        return np.where(gap2 > 0, bound, np.inf)

    def cap_patch_map(self, n: int):
        """Parametric map of the cap over its ideal disk, for curvature checks.

        Parameters are horizontal displacements xi in R^n from the cap
        center; the first component displaces along the flow axis.
        """
        R, cy = self.radius, self.center_height

        def f(xi):
            xi = np.atleast_1d(np.asarray(xi, dtype=float))
            lat2 = float(np.dot(xi, xi))
            y = cy + math.sqrt(max(R**2 - lat2, 1e-15))
            return np.concatenate([[self.offset + xi[0]], self.center + xi[1:], [y]])

        return f


def upper_cap_barrier(q_offset: float, q_center, phi, H: float) -> UpperCap:
    """Cap over a small ideal sphere about (q_offset, q_center), avoiding the data.

    The point must lie on the far side of the data graph (q_offset above
    phi near its center).  The disk radius is half the distance from the
    point to the graph of phi, sampled within 6 of the center (4001 samples
    on one axis, 64 per axis on several); a radius of at most 1e-8
    raises a ValueError.
    """
    q_center = np.atleast_1d(np.asarray(q_center, dtype=float))
    if abs(H) >= 1:
        raise ValueError(f"|H| must be < 1, got H = {H}")
    x0 = q_center[0] if q_center.shape[0] == 1 else q_center
    if q_offset <= float(phi(x0)):
        raise ValueError("cap center must lie beyond the data graph")
    if q_center.shape[0] == 1:
        xs = np.linspace(q_center[0] - 6.0, q_center[0] + 6.0, 4001)
        d2 = np.array([ (q_offset - float(phi(x)))**2 + (q_center[0] - x)**2 for x in xs ])
    else:
        axes = [np.linspace(c - 6.0, c + 6.0, 64) for c in q_center]
        grid = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grid], axis=-1)
        d2 = np.array([(q_offset - float(phi(p)))**2 + float(np.dot(q_center - p, q_center - p))
                       for p in pts])
    dist = math.sqrt(float(np.min(d2)))
    rho = 0.5 * dist
    if rho <= 1e-8:
        raise ValueError("no disjoint ideal sphere found: data graph touches the cap point")
    return UpperCap(offset=float(q_offset), center=q_center, rho=float(rho), H=float(H))
