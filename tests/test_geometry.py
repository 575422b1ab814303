"""Geometry oracles: distances, Killing data, exact solutions."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from plateau_hyp import geometry as ge

import oracles

ARCCOSH_15 = 0.9624236501192069  # arccosh(1.5), frozen from the quadrature oracle


def geodesic_length_quadrature(p, q):
    """Independent length oracle: integrate ds = |dgamma|/y along the connecting arc."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    horiz = q[:-1] - p[:-1]
    dist = np.linalg.norm(horiz)
    if dist < 1e-14:
        return abs(math.log(q[-1] / p[-1]))
    # reduce to the vertical 2-plane through both points
    y1, y2 = p[-1], q[-1]
    a = (dist**2 + y2**2 - y1**2) / (2 * dist)
    r = math.hypot(a, y1)
    th1 = math.atan2(y1, -a)
    th2 = math.atan2(y2, dist - a)
    lo, hi = min(th1, th2), max(th1, th2)
    val, _ = quad(lambda t: 1.0 / math.sin(t), lo, hi, epsabs=1e-13, epsrel=1e-13)
    return abs(val)


class TestDistance:
    def test_vertical_segment_is_log_ratio(self):
        d = oracles.hyperbolic_distance([0.0, 0.0, 1.0], [0.0, 0.0, math.e])
        assert abs(d - 1.0) < 1e-14

    def test_identity_point(self):
        p = [0.3, -1.0, 2.0]
        assert oracles.hyperbolic_distance(p, p) == 0.0

    def test_unit_horizontal_offset_matches_quadrature(self):
        p, q = [0.0, 0.0, 1.0], [1.0, 0.0, 1.0]
        d = oracles.hyperbolic_distance(p, q)
        assert abs(d - math.acosh(1.5)) < 1e-14
        assert abs(d - ARCCOSH_15) < 1e-14
        assert abs(d - geodesic_length_quadrature(p, q)) < 1e-10

    def test_quadrature_agrees_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = np.append(rng.normal(size=2), rng.uniform(0.3, 2.5))
            q = np.append(rng.normal(size=2), rng.uniform(0.3, 2.5))
            assert abs(oracles.hyperbolic_distance(p, q) - geodesic_length_quadrature(p, q)) < 1e-9

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            pts = [np.append(rng.normal(size=2), rng.uniform(0.2, 3.0)) for _ in range(3)]
            d01 = oracles.hyperbolic_distance(pts[0], pts[1])
            d10 = oracles.hyperbolic_distance(pts[1], pts[0])
            d02 = oracles.hyperbolic_distance(pts[0], pts[2])
            d12 = oracles.hyperbolic_distance(pts[1], pts[2])
            assert abs(d01 - d10) < 1e-13
            assert d02 <= d01 + d12 + 1e-12

    def test_rejects_nonpositive_height(self):
        with pytest.raises(ValueError):
            oracles.hyperbolic_distance([0.0, 0.0, 0.0], [0.0, 0.0, 1.0])


class TestKillingStructures:
    def test_parabolic_flow_translates(self):
        out = ge.killing_structure(ge.PARABOLIC).flow(1.5, [0.0, 2.0, 1.0])
        assert np.allclose(out, [1.5, 2.0, 1.0], atol=0)

    def test_hyperbolic_flow_dilates(self):
        out = ge.killing_structure(ge.HYPERBOLIC).flow(math.log(2.0), [1.0, 0.0, 1.0])
        assert np.allclose(out, [2.0, 0.0, 2.0], rtol=1e-15)

    def test_flow_identity_and_group_law(self):
        rng = np.random.default_rng(3)
        for kind in (ge.PARABOLIC, ge.HYPERBOLIC):
            flow = ge.killing_structure(kind).flow
            p = np.append(rng.normal(size=2), rng.uniform(0.5, 2.0))
            assert np.allclose(flow(0.0, p), p, atol=0)
            s, t = rng.normal(size=2) * 0.8
            one = flow(s, flow(t, p))
            two = flow(s + t, p)
            assert np.allclose(one, two, rtol=1e-12)

    def test_flow_is_isometric(self):
        rng = np.random.default_rng(9)
        for kind in (ge.PARABOLIC, ge.HYPERBOLIC):
            flow = ge.killing_structure(kind).flow
            for _ in range(200):
                p = np.append(rng.normal(size=2), rng.uniform(0.2, 3.0))
                q = np.append(rng.normal(size=2), rng.uniform(0.2, 3.0))
                s = rng.normal() * 1.2
                d0 = oracles.hyperbolic_distance(p, q)
                d1 = oracles.hyperbolic_distance(flow(s, p), flow(s, q))
                assert abs(d0 - d1) <= 1e-10

    def test_gamma_parabolic(self):
        struct = ge.killing_structure(ge.PARABOLIC)
        assert abs(struct.chart_gamma(ge.ChartPoint(np.zeros(1), 3.0)) - 9.0) < 1e-15
        assert struct.chart_gamma(ge.ChartPoint(np.zeros(1), 1.0)) == 1.0

    def test_gamma_hyperbolic_ambient(self):
        assert abs(ge.killing_structure(ge.HYPERBOLIC).gamma([0.0, 0.0, 2.0]) - 1.0) < 1e-15

    def test_gamma_consistency_direct_metric(self):
        # gamma * <Z, Z> = 1 with <Z, Z> evaluated from the model metric
        rng = np.random.default_rng(21)
        for kind in (ge.PARABOLIC, ge.HYPERBOLIC):
            struct = ge.killing_structure(kind)
            for _ in range(100):
                p = np.append(rng.normal(size=2), rng.uniform(0.2, 3.0))
                z = struct.field(p)
                zz = oracles.hyperbolic_inner(z, z, p[-1])
                assert abs(struct.gamma(p) * zz - 1.0) <= 1e-12

    def test_gamma_chart_pullback_consistency(self):
        # the closed-form chart gamma equals the ambient gamma at the
        # hemisphere representative
        struct = ge.killing_structure(ge.HYPERBOLIC)
        rng = np.random.default_rng(2)
        for _ in range(50):
            z = np.array([rng.normal() * 0.8, rng.uniform(0.3, 2.0)])
            p = ge.hemisphere_chart_to_ambient(z)
            assert abs(np.linalg.norm(p) - 1.0) < 1e-14
            assert abs(struct.chart_gamma(z) - struct.gamma(p)) < 1e-14


SYMPY_DRIFT = None


def sympy_drift_oracle(dim):
    """Symbolic Christoffel oracle for nabla_{e1} e1 of the metric delta/y^2."""
    global SYMPY_DRIFT
    import sympy as sp

    y = sp.symbols("y", positive=True)
    coords = list(sp.symbols(f"q0:{dim}")) + [y]
    g = sp.eye(dim + 1) / y**2
    ginv = g.inv()
    gamma_k = []
    for k in range(dim + 1):
        total = 0
        for l in range(dim + 1):
            total += ginv[k, l] * (sp.diff(g[l, 0], coords[0]) * 2 - sp.diff(g[0, 0], coords[l])) / 2
        gamma_k.append(sp.simplify(total))
    return [sp.lambdify(y, expr) for expr in gamma_k]


class TestDrift:
    def test_parabolic_chart_values(self):
        struct = ge.killing_structure(ge.PARABOLIC)
        d = struct.chart_drift(ge.ChartPoint(np.zeros(1), 2.0))
        assert np.allclose(d, [0.0, 0.5], atol=0)
        d = struct.chart_drift(ge.ChartPoint(np.array([5.0]), 1.0))
        assert np.allclose(d, [0.0, 1.0], atol=0)

    def test_parabolic_matches_symbolic_christoffels(self):
        funcs = sympy_drift_oracle(2)
        for yv in (0.5, 1.0, 2.0, 3.7):
            expected = np.array([f(yv) for f in funcs])
            got = ge.killing_structure(ge.PARABOLIC).drift([0.3, -0.2, yv])
            assert np.allclose(got, expected, atol=1e-14)

    def test_hyperbolic_drift_matches_fd_connection(self):
        struct = ge.killing_structure(ge.HYPERBOLIC)
        rng = np.random.default_rng(13)
        for _ in range(25):
            p = np.append(rng.normal(size=2) * 0.7, rng.uniform(0.4, 2.0))
            closed = struct.drift(p)
            oracle = oracles.fd_covariant_derivative(struct.field, p)
            assert np.max(np.abs(closed - oracle)) <= 1e-6

    def test_fd_oracle_second_order(self):
        struct = ge.killing_structure(ge.HYPERBOLIC)
        p = np.array([0.4, -0.3, 1.1])
        closed = struct.drift(p)
        errs = []
        for h in (2e-2, 1e-2, 5e-3):
            approx = oracles.fd_covariant_derivative(struct.field, p, h=h)
            errs.append(np.max(np.abs(approx - closed)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 1.7

    def test_parabolic_ambient_drift_matches_fd(self):
        struct = ge.killing_structure(ge.PARABOLIC)
        p = np.array([0.1, 0.2, 1.7])
        oracle = oracles.fd_covariant_derivative(struct.field, p)
        assert np.max(np.abs(struct.drift(p) - oracle)) <= 1e-8

    def test_hyperbolic_chart_drift_tangent_and_isometric(self):
        struct = ge.killing_structure(ge.HYPERBOLIC)
        z = np.array([0.4, 0.9])
        b_chart = struct.chart_drift(ge.ChartPoint(z[:1], z[1]))
        assert b_chart.shape == (2,)
        # pull back through the inversion and compare against the ambient drift
        p = ge.hemisphere_chart_to_ambient(z)
        ambient = struct.drift(p)
        pushed = ge.hemisphere_inversion_differential(p, ambient)
        assert abs(pushed[0]) < 1e-12  # tangent to the vertical-plane slice
        assert np.allclose(pushed[1:], b_chart, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind", [ge.PARABOLIC, ge.HYPERBOLIC])
    def test_chart_drift_broadcasts_over_point_arrays(self, kind, n):
        # a coordinate-first (d, ...) array gives the per-point values, for
        # the drift (one vector per point) and gamma (one number per point)
        struct = ge.killing_structure(kind)
        rng = np.random.default_rng(40 + n)
        shape = (5, 7)
        pts = np.empty((n,) + shape)
        pts[:-1] = rng.uniform(-1.5, 1.5, size=(n - 1,) + shape)
        pts[-1] = rng.uniform(0.05, 2.0, size=shape)
        for method, per_point in (("chart_drift", (n,)), ("chart_gamma", ())):
            evaluate = getattr(struct, method)
            field = evaluate(pts)
            assert field.shape == per_point + shape
            for idx in np.ndindex(shape):
                expected = evaluate(pts[(slice(None),) + idx])
                assert np.shape(expected) == per_point
                assert np.max(np.abs(field[(Ellipsis,) + idx] - expected)) <= 1e-14

    def test_point_arrays_reject_nonpositive_height(self):
        struct = ge.killing_structure(ge.HYPERBOLIC)
        pts = np.array([[0.1, 0.2], [0.5, -0.1]])
        with pytest.raises(ValueError, match="y > 0"):
            struct.chart_drift(pts)


class TestOrbits:
    def test_parabolic_orbits_keep_height(self):
        for s in (-2.0, 0.7, 5.0):
            out = ge.killing_structure(ge.PARABOLIC).flow(s, [0.0, 1.0, 0.8])
            assert out[-1] == 0.8

    def test_hyperbolic_orbits_stay_on_ray(self):
        p = np.array([0.6, -0.2, 1.1])
        for s in (-1.0, 0.3, 2.0):
            out = ge.killing_structure(ge.HYPERBOLIC).flow(s, p)
            cross = np.linalg.norm(np.cross(out / np.linalg.norm(out), p / np.linalg.norm(p)))
            assert cross < 1e-14


class TestExactSolutions:
    @staticmethod
    def value(name, point, **params):
        val, _, _ = ge.exact_solution_callables(name, **params)
        return val(point.as_array())

    def test_hemisphere_value(self):
        val = self.value("hemisphere", ge.ChartPoint(np.array([0.3]), 0.4), t=0.0, R=1.0)
        assert abs(val - 0.8660254037844386) < 1e-15

    def test_constant_and_plane(self):
        assert self.value("constant", ge.ChartPoint(np.zeros(1), 5.0), c=2.0) == 2.0
        val = self.value("tilted_plane", ge.ChartPoint(np.array([7.0]), 3.0), a=1.0, b=0.0)
        assert val == 3.0

    def test_hemisphere_domain_guard(self):
        with pytest.raises(ValueError):
            self.value("hemisphere", ge.ChartPoint(np.array([1.2]), 0.4), t=0.0, R=1.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            ge.exact_solution_callables("torus")


class TestBetweenSpheres:
    E1 = ge.IdealSphere(kind="flat", normal=np.array([1.0]), offset=0.0)

    def e2(self, c):
        return ge.IdealSphere(kind="flat", normal=np.array([1.0]), offset=c)

    def test_inside_window(self):
        ok, witness = ge.between_spheres_check(lambda x: 0.5 + 0.3 * np.tanh(x), self.E1, self.e2(1.0))
        assert ok and witness is None

    def test_violation_returns_witness(self):
        ok, witness = ge.between_spheres_check(lambda x: -0.1 if abs(x) < 0.5 else 0.3,
                                               self.E1, self.e2(1.0))
        assert not ok
        pt, val = witness
        assert val < 0

    def test_boundary_contact_allowed(self):
        ok, _ = ge.between_spheres_check(lambda x: 1.0, self.E1, self.e2(1.0))
        assert ok

    def test_round_sphere_rejected(self):
        bad = ge.IdealSphere(kind="round", center=np.array([0.0]), radius=1.0)
        with pytest.raises(ValueError):
            ge.between_spheres_check(lambda x: 0.5, self.E1, bad)


class TestGraphEmbedding:
    def test_zero_graph_lies_on_slice(self):
        pts = [ge.ChartPoint(np.array([x]), y) for x, y in [(0.0, 1.0), (0.5, 0.3), (-1.0, 2.0)]]
        struct = ge.killing_structure(ge.PARABOLIC)
        out = np.array([struct.embed_graph_point(0.0, cp) for cp in pts])
        assert np.allclose(out[:, 0], 0.0, atol=0)

    def test_hemisphere_graph_lies_on_sphere(self):
        val, _, _ = ge.exact_solution_callables("hemisphere", t=0.0, R=1.0)
        pts = [ge.ChartPoint(np.array([x]), y) for x, y in [(0.0, 0.5), (0.3, 0.4), (-0.2, 0.7)]]
        struct = ge.killing_structure(ge.PARABOLIC)
        out = np.array([struct.embed_graph_point(val(cp.as_array()), cp) for cp in pts])
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-14)

    def test_dilation_graph_scales_hemisphere(self):
        pts = [ge.ChartPoint(np.array([x]), y) for x, y in [(0.0, 1.0), (0.4, 0.8), (-0.6, 1.5)]]
        struct = ge.killing_structure(ge.HYPERBOLIC)
        out = np.array([struct.embed_graph_point(math.log(2.0), cp) for cp in pts])
        assert np.allclose(np.linalg.norm(out, axis=1), 2.0, rtol=1e-14)
