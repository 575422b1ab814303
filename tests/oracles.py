"""Oracles the tests compare the package against; the program itself never calls them.

The hyperbolic metric, its distance and a finite-difference connection
check the geometry; the stack's point value and its discrete subsolution
report check the barriers; :func:`lift` is one Perron ball lift on a copy.
"""

import math

import numpy as np

from plateau_hyp import operator
from plateau_hyp import perron as pe
from plateau_hyp.barriers import BarrierStack, eval_stack_radial
from plateau_hyp.geometry import PARABOLIC, _point_array


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


def eval_stack(stack: BarrierStack, P) -> float:
    """Pasted barrier value max(0, max_k v_k) with v_k = t_k + sqrt(R_k^2 - rho^2).

    ``rho`` is the chart radius |(x, y)|; pieces participate on their own
    closed disks, consecutive pieces agree on the pasting spheres
    rho = R_{k-1} cos(alpha), and the function vanishes outside the unit
    disk.  Values are nonnegative.
    """
    z = _point_array(P)
    return float(eval_stack_radial(stack, math.sqrt(float(np.dot(z, z)))))


def stack_subsolution_report(stack: BarrierStack, H_values) -> dict:
    """Worst discrete residual of the stack sampled on a 49^2 grid at smooth nodes, per H.

    Nodes are counted as smooth when a single hemisphere piece dominates
    strictly over the whole stencil; the subsolution inequality asks for a
    nonpositive residual there, up to the scheme's O(h^2) consistency slack.
    A minimal piece satisfies it exactly for H >= 0.
    """
    grid = operator.make_grid(2, 1.1, 0.02, 1.1, 49)
    mesh = grid.meshgrid()
    rho = np.sqrt(sum(m**2 for m in mesh))
    sampled = grid.copy()
    sampled.values = eval_stack_radial(stack, rho)

    # identify nodes whose whole stencil is strictly inside one piece
    t = stack.heights()[:, None, None]
    R = stack.radii()[:, None, None]
    with np.errstate(invalid="ignore"):
        vk = np.where(rho[None] <= R, t + np.sqrt(np.maximum(R**2 - rho[None] ** 2, 0.0)), -np.inf)
    vk = np.concatenate([np.zeros_like(rho)[None], vk], axis=0)
    best = np.argmax(vk, axis=0)
    sorted_vals = np.sort(vk, axis=0)
    margin = sorted_vals[-1] - sorted_vals[-2]
    h = max(grid.spacing)
    smooth = (margin > 4 * h) & (best > 0)
    core = (slice(1, -1), slice(1, -1))
    for a in range(2):
        sl_p = [slice(1, -1)] * 2
        sl_m = [slice(1, -1)] * 2
        sl_p[a] = slice(2, None)
        sl_m[a] = slice(None, -2)
        agree = np.zeros_like(smooth)
        agree[core] = (best[tuple(sl_p)] == best[core]) & (best[tuple(sl_m)] == best[core])
        smooth &= agree

    out = {}
    slack = 50.0 * h**2
    for H in H_values:
        res = operator.qh_residual_grid(sampled, PARABOLIC, H)
        vals = res.values[smooth]
        worst = float(np.max(vals)) if vals.size else float("nan")
        out[float(H)] = {"max_residual": worst, "holds": bool(vals.size and worst <= slack),
                         "slack": slack, "smooth_nodes": int(np.sum(smooth))}
    return out


def lift(u, ball, H: float, cfg):
    """One Perron lift of ``u`` in ``ball``, on a copy, not clamped from above.

    It runs the sweeps' lift (``perron._lift_inplace``) on its own: the
    ball's solve starts from the iterate, then from the solver's own start,
    and a lift that diverges from both is replaced by a sub-cover of half
    the radius, restricted to the ball; the result is combined with ``u``
    by a pointwise maximum up to the solver's noise guard.
    """
    out = u.copy()
    pe._lift_inplace(out, ball, H, cfg, upper=None, region=None, rng=None,
                     own_start_first=False)
    return out
