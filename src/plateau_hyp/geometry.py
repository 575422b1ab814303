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

The module also carries a small catalog of exact graph solutions
(constants, tilted planes, hemisphere caps) used as test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
class IdealPoint:
    """Point of the ideal boundary: either finite (on {y = 0}) or infinity."""

    coords: np.ndarray | None = None

    @property
    def is_infinity(self) -> bool:
        return self.coords is None

    def __post_init__(self):
        if self.coords is not None:
            object.__setattr__(self, "coords", np.atleast_1d(np.asarray(self.coords, dtype=float)))


IDEAL_INFINITY = IdealPoint(None)


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
# Metric, distance, connection
# ---------------------------------------------------------------------------

def hyperbolic_inner(u, v, y: float) -> float:
    """Inner product of tangent vectors at height y: <u, v> = (u . v) / y^2."""
    return float(np.dot(u, v)) / y**2


def hyperbolic_distance(p, q) -> float:
    """Distance in the half-space model.

    d(P, Q) = arccosh(1 + |P - Q|_E^2 / (2 y_P y_Q)).
    """
    a, b = _point_array(p), _point_array(q)
    diff = a - b
    arg = 1.0 + float(np.dot(diff, diff)) / (2.0 * a[-1] * b[-1])
    return float(np.arccosh(max(arg, 1.0)))


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


def fd_covariant_derivative(vector_field, p, h: float = 1e-5) -> np.ndarray:
    """Finite-difference covariant derivative (nabla_X X)(p) of an ambient field.

    The connection coefficients are obtained from centered differences of the
    metric delta_ij / y^2 itself, so the result is independent of any analytic
    Christoffel formula; used as an oracle for drift fields.
    """
    p = _point_array(p)
    d = p.shape[0]
    step = h * p[-1]

    def metric(q):
        return np.eye(d) / q[-1] ** 2

    dg = np.zeros((d, d, d))
    for k in range(d):
        e = np.zeros(d)
        e[k] = step
        dg[k] = (metric(p + e) - metric(p - e)) / (2 * step)
    ginv = np.eye(d) * p[-1] ** 2
    gamma = np.zeros((d, d, d))
    for k in range(d):
        for i in range(d):
            for j in range(d):
                gamma[k, i, j] = 0.5 * np.dot(ginv[k], dg[i, :, j] + dg[j, i, :] - dg[:, i, j])

    X0 = np.asarray(vector_field(p), dtype=float)
    dX = np.zeros((d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = step
        dX[i] = (np.asarray(vector_field(p + e)) - np.asarray(vector_field(p - e))) / (2 * step)
    directional = X0 @ dX
    correction = np.einsum("kij,i,j->k", gamma, X0, X0)
    return directional + correction


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
# Isometries as composition lists of exact primitives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryTranslation:
    v: np.ndarray  # horizontal n-vector

    def apply(self, p: np.ndarray) -> np.ndarray:
        out = p.copy()
        out[:-1] += self.v
        return out

    def inverse(self) -> "BoundaryTranslation":
        return BoundaryTranslation(-np.asarray(self.v))


@dataclass(frozen=True)
class Dilation:
    scale: float

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("dilation scale must be positive")

    def apply(self, p: np.ndarray) -> np.ndarray:
        return self.scale * p

    def inverse(self) -> "Dilation":
        return Dilation(1.0 / self.scale)


@dataclass(frozen=True)
class BoundaryRotation:
    matrix: np.ndarray  # orthogonal map of the horizontal factor

    def apply(self, p: np.ndarray) -> np.ndarray:
        out = p.copy()
        out[:-1] = np.asarray(self.matrix) @ p[:-1]
        return out

    def inverse(self) -> "BoundaryRotation":
        return BoundaryRotation(np.asarray(self.matrix).T.copy())


@dataclass(frozen=True)
class HemisphereInversion:
    center: np.ndarray  # horizontal n-vector on {y = 0}
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("inversion radius must be positive")

    def apply(self, p: np.ndarray) -> np.ndarray:
        c = np.concatenate([np.asarray(self.center, dtype=float), [0.0]])
        w = p - c
        return c + self.radius**2 * w / float(np.dot(w, w))

    def inverse(self) -> "HemisphereInversion":
        return self


@dataclass(frozen=True)
class Isometry:
    """Composition of primitive half-space isometries, applied left to right."""

    primitives: tuple = field(default_factory=tuple)

    def apply(self, p) -> np.ndarray:
        out = _point_array(p).copy()
        for prim in self.primitives:
            out = prim.apply(out)
        return out

    def apply_ideal(self, q: IdealPoint) -> IdealPoint:
        cur = q
        for prim in self.primitives:
            cur = _apply_primitive_ideal(prim, cur)
        return cur

    def inverse(self) -> "Isometry":
        return Isometry(tuple(prim.inverse() for prim in reversed(self.primitives)))


def _apply_primitive_ideal(prim, q: IdealPoint) -> IdealPoint:
    if q.is_infinity:
        if isinstance(prim, HemisphereInversion):
            return IdealPoint(np.asarray(prim.center, dtype=float))
        return q
    c = q.coords
    if isinstance(prim, BoundaryTranslation):
        return IdealPoint(c + prim.v)
    if isinstance(prim, Dilation):
        return IdealPoint(prim.scale * c)
    if isinstance(prim, BoundaryRotation):
        return IdealPoint(np.asarray(prim.matrix) @ c)
    if isinstance(prim, HemisphereInversion):
        w = c - np.asarray(prim.center, dtype=float)
        r2 = float(np.dot(w, w))
        if r2 == 0.0:
            return IDEAL_INFINITY
        return IdealPoint(np.asarray(prim.center) + prim.radius**2 * w / r2)
    raise TypeError(f"unknown primitive {type(prim)}")


def random_isometry(rng: np.random.Generator, n: int) -> Isometry:
    """Random composition of four primitives, for invariance property tests."""
    prims = []
    for _ in range(4):
        choice = rng.integers(0, 4)
        if choice == 0:
            prims.append(BoundaryTranslation(rng.normal(size=n)))
        elif choice == 1:
            prims.append(Dilation(float(np.exp(rng.normal() * 0.7))))
        elif choice == 2:
            a = rng.normal(size=(n, n))
            q, _ = np.linalg.qr(a)
            prims.append(BoundaryRotation(q))
        else:
            prims.append(HemisphereInversion(rng.normal(size=n), float(np.exp(rng.normal() * 0.4))))
    return Isometry(tuple(prims))


# ---------------------------------------------------------------------------
# Exact solution catalog
# ---------------------------------------------------------------------------

def exact_solution(name: str, p, **params) -> float:
    """Evaluate a catalog solution at a chart point.

    constant(c); tilted_plane(a, b) = a*y + b; hemisphere(t, R) =
    t + sqrt(R^2 - |(x, y)|^2) on its open disk.
    """
    value, _, _ = exact_solution_callables(name, **params)
    return float(value(_point_array(p)))


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
