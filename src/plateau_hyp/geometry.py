"""Half-space model of hyperbolic space and its Killing structures.

Ambient points are Euclidean coordinates (x_1, ..., x_n, y) with y > 0 and
metric ds^2 = (dx^2 + dy^2) / y^2.  The working slice M is the totally
geodesic copy of H^n given by {x_1 = 0}, charted by (x, y) with x in
R^{n-1}.  Two one-parameter isometry groups act transversally to M:

* ``parabolic``  -- horizontal translation along x_1; orbits are horocycles
  through the ideal point at infinity, gamma = y^2.
* ``hyperbolic`` -- dilation about the origin; orbits are rays, the
  equidistant curves of the vertical axis.  Its slice is the unit upper
  hemisphere, mapped to the vertical-plane chart by an inversion.

The module also carries the catalog of exact graph solutions (constants,
tilted planes, hemisphere caps) behind the operator's exact patches and the
CLI's solve-dirichlet data, and the ideal spheres of the between-spheres
condition on boundary data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PARABOLIC = "parabolic"
HYPERBOLIC = "hyperbolic"
_KINDS = (PARABOLIC, HYPERBOLIC)


def _check_kind(kind: str) -> str:
    if kind not in _KINDS:
        raise ValueError(f"unknown Killing structure kind {kind!r}; expected one of {_KINDS}")
    return kind


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChartPoint:
    """Point of the slice M in the (x, y) chart, x in R^{n-1}, y > 0."""

    x: np.ndarray
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "y", float(self.y))
        if self.y <= 0:
            raise ValueError(f"chart point must have y > 0, got y = {self.y}")

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.x, [self.y]])


@dataclass(frozen=True)
class IdealSphere:
    """Sphere of the ideal boundary {y = 0}.

    ``round`` spheres are Euclidean spheres (center, radius); ``flat``
    spheres are hyperplanes (unit normal, offset) together with infinity.
    """

    kind: str
    center: np.ndarray | None = None
    radius: float | None = None
    normal: np.ndarray | None = None
    offset: float | None = None

    def __post_init__(self):
        if self.kind == "round":
            if self.center is None or self.radius is None or self.radius <= 0:
                raise ValueError("round ideal sphere needs a center and radius > 0")
            object.__setattr__(self, "center", np.atleast_1d(np.asarray(self.center, dtype=float)))
        elif self.kind == "flat":
            if self.normal is None or self.offset is None:
                raise ValueError("flat ideal sphere needs a unit normal and offset")
            nrm = np.atleast_1d(np.asarray(self.normal, dtype=float))
            if abs(np.linalg.norm(nrm) - 1.0) > 1e-12:
                raise ValueError("flat ideal sphere normal must have unit norm")
            object.__setattr__(self, "normal", nrm)
        else:
            raise ValueError(f"unknown ideal sphere kind {self.kind!r}")


def _point_array(p) -> np.ndarray:
    """Coordinates of one point, shape (d,), or of many, coordinate-first (d, ...).

    Serves ambient and chart points alike; a :class:`ChartPoint` is unpacked.
    """
    if isinstance(p, ChartPoint):
        return p.as_array()
    c = np.atleast_1d(np.asarray(p, dtype=float))
    if np.any(c[-1] <= 0):
        raise ValueError(f"point must have y > 0, got y = {np.min(c[-1])}")
    return c


# ---------------------------------------------------------------------------
# Connection
# ---------------------------------------------------------------------------

def ambient_christoffel_term(u, v, y: float) -> np.ndarray:
    """Connection correction Gamma(u, v) of the conformal metric delta / y^2.

    Gamma(u, v) = (1/y) * (-u_y v - v_y u + (u . v) e_y), with e_y the unit
    vertical coordinate direction.  In particular Gamma(e_1, e_1) = e_y / y.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    e_y = np.zeros_like(u)
    e_y[-1] = 1.0
    return (-u[-1] * v - v[-1] * u + np.dot(u, v) * e_y) / y


# ---------------------------------------------------------------------------
# Hemisphere chart for the dilation structure
# ---------------------------------------------------------------------------

def hemisphere_chart_to_ambient(chart) -> np.ndarray:
    """Map a vertical-plane chart point (x, y) to the unit-hemisphere slice.

    Uses the boundary inversion centered at -e_1 with radius sqrt(2); it is
    an involutive isometry carrying the plane {x_1 = 0} onto {|p| = 1}.
    Broadcasts over coordinate-first arrays (d, ...).
    """
    z = _point_array(chart)
    rho2 = np.sum(z * z, axis=0)
    denom = 1.0 + rho2
    out = np.empty((z.shape[0] + 1,) + z.shape[1:])
    out[0] = (1.0 - rho2) / denom
    out[1:] = 2.0 * z / denom
    return out


def hemisphere_inversion_differential(p, v) -> np.ndarray:
    """Differential at p, applied to v, of the chart's inversion (center -e_1, radius sqrt(2)).

    Broadcasts over coordinate-first arrays (d, ...) of points and vectors.
    """
    p = _point_array(p)
    v = np.asarray(v, dtype=float)
    w = p.copy()
    w[0] += 1.0  # p minus the inversion center -e_1
    r2 = np.sum(w * w, axis=0)
    u = w / np.sqrt(r2)
    return (2.0 / r2) * (v - 2.0 * np.sum(v * u, axis=0) * u)


# ---------------------------------------------------------------------------
# Killing structures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KillingStructure:
    """The data (gamma, drift, flow) of a transversal Killing field.

    ``gamma`` is the inverse squared field strength 1 / <Z, Z>, ``drift`` the
    ambient acceleration nabla_Z Z, and ``flow`` the one-parameter isometry
    group; all evaluated at ambient points.  Chart-level access goes through
    ``chart_gamma`` / ``chart_drift`` which, for the dilation structure, pull
    the hemisphere-slice data back to the vertical-plane chart.  The chart
    methods take one point (d,) or a coordinate-first array (d, ...) of
    points, in any dimension d.
    """

    kind: str

    def field(self, p) -> np.ndarray:
        p = _point_array(p)
        if self.kind == PARABOLIC:
            v = np.zeros_like(p)
            v[0] = 1.0
            return v
        return p.copy()

    def gamma(self, p) -> float:
        p = _point_array(p)
        if self.kind == PARABOLIC:
            return p[-1] ** 2
        r2 = float(np.dot(p, p))
        if r2 == 0.0:
            raise ValueError("dilation field vanishes at the origin")
        return p[-1] ** 2 / r2

    def drift(self, p) -> np.ndarray:
        """Ambient components of nabla_Z Z at p, or at each point of a (d, ...) array."""
        p = _point_array(p)
        if self.kind == PARABOLIC:
            out = np.zeros_like(p)
            out[-1] = 1.0 / p[-1]
            return out
        out = -p
        out[-1] += np.sum(p * p, axis=0) / p[-1]
        return out

    def flow(self, s: float, p) -> np.ndarray:
        p = _point_array(p)
        if self.kind == PARABOLIC:
            out = p.copy()
            out[0] += s
            return out
        return math.exp(s) * p

    # -- chart-level data -------------------------------------------------

    def chart_gamma(self, chart):
        """gamma on the slice, at one point (d,) or at each point of a (d, ...) array.

        For the dilation structure this is gamma at the hemisphere
        representative, where |p| = 1: (2 y / (1 + rho^2))^2.
        """
        z = _point_array(chart)
        if self.kind == PARABOLIC:
            return z[-1] ** 2
        rho2 = np.sum(z * z, axis=0)
        return (2.0 * z[-1] / (1.0 + rho2)) ** 2

    def chart_drift(self, chart) -> np.ndarray:
        """Chart components of the drift, tangent to the slice.

        ``chart`` is one point (d,) or a coordinate-first array (d, ...) of
        points; the result has the same shape.
        """
        z = _point_array(chart)
        if self.kind == PARABOLIC:
            out = np.zeros_like(z)
            out[-1] = 1.0 / z[-1]
            return out
        p = hemisphere_chart_to_ambient(z)
        pulled = hemisphere_inversion_differential(p, self.drift(p))
        # tangency to {x_1 = 0} holds up to roundoff; drop that component
        return pulled[1:]

    def embed_graph_point(self, u_value: float, chart) -> np.ndarray:
        z = _point_array(chart)
        if self.kind == PARABOLIC:
            return np.concatenate([[u_value], z])
        return math.exp(u_value) * hemisphere_chart_to_ambient(z)


def killing_structure(kind: str) -> KillingStructure:
    return KillingStructure(_check_kind(kind))


# ---------------------------------------------------------------------------
# Exact solution catalog
# ---------------------------------------------------------------------------

# Each catalog family's parameters and their defaults, None marking a
# required one; the CLI's solve-dirichlet family keys are read from here.
EXACT_FAMILIES = {"constant": {"c": None}, "tilted_plane": {"a": None, "b": 0.0},
                  "hemisphere": {"t": 0.0, "R": None}}


def exact_solution_callables(name: str, **params):
    """Return (value, gradient, hessian) callables on chart arrays z = (x, y)."""
    if name not in EXACT_FAMILIES:
        raise ValueError(f"unknown exact solution family {name!r}")
    declared = EXACT_FAMILIES[name]
    merged = {**declared, **params}
    if merged.keys() != declared.keys() or None in merged.values():
        raise ValueError(f"family {name!r} takes {declared} (None: required), got {params}")
    params = merged
    if name == "constant":
        return exact_solution_callables("tilted_plane", a=0.0, b=params["c"])

    if name == "tilted_plane":
        a = float(params["a"])
        b = float(params["b"])

        def val(z):
            return a * float(np.asarray(z)[-1]) + b

        def grad(z):
            g = np.zeros_like(np.asarray(z, dtype=float))
            g[-1] = a
            return g

        def hess(z):
            d = np.asarray(z).shape[0]
            return np.zeros((d, d))

        return val, grad, hess

    if name == "hemisphere":
        t = float(params["t"])
        R = float(params["R"])
        if R <= 0:
            raise ValueError("hemisphere radius must be positive")

        def _s(z):
            z = np.asarray(z, dtype=float)
            rho2 = float(np.dot(z, z))
            if rho2 >= R**2:
                raise ValueError(
                    f"hemisphere graph evaluated outside its open disk: |(x,y)| = {math.sqrt(rho2):.6g} >= R = {R}")
            return math.sqrt(R**2 - rho2)

        def val(z):
            return t + _s(z)

        def grad(z):
            z = np.asarray(z, dtype=float)
            return -z / _s(z)

        def hess(z):
            z = np.asarray(z, dtype=float)
            s = _s(z)
            d = z.shape[0]
            return -(np.eye(d) / s + np.outer(z, z) / s**3)

        return val, grad, hess


# ---------------------------------------------------------------------------
# Between-spheres condition on boundary data
# ---------------------------------------------------------------------------

def between_spheres_check(phi, e1: IdealSphere, e2: IdealSphere):
    """Check 0 <= phi(x_1) <= c for the normalized parallel flat sphere pair.

    ``e1`` must be the flat sphere at offset 0 and ``e2`` the parallel flat
    sphere at offset c > 0.  The datum is a function of x_1 alone, sampled at
    2001 points of [-8, 8].  Returns (ok, witness); on failure the witness is
    (x_1, phi(x_1)) at a sample where the datum escapes the closed slab.
    """
    if e1.kind != "flat" or e2.kind != "flat":
        raise ValueError("between-spheres check expects flat ideal spheres in the normalized chart")
    if np.linalg.norm(np.asarray(e1.normal) - np.asarray(e2.normal)) > 1e-12:
        raise ValueError("ideal spheres must be parallel in the normalized chart")
    if abs(float(e1.offset)) > 1e-14:
        raise ValueError("normalized chart requires the first sphere at offset 0")
    c = float(e2.offset)
    if c <= 0:
        raise ValueError("second sphere offset must be positive")

    for x in np.linspace(-8.0, 8.0, 2001):
        v = float(phi(x))
        if v < -1e-12 or v > c + 1e-12:
            return False, (x, v)
    return True, None
