"""Operator residual against the independent shape-operator oracle."""

import itertools
import math

import numpy as np
import pytest

from plateau_hyp import geometry as ge
from plateau_hyp import operator as op
from plateau_hyp.geometry import PARABOLIC, HYPERBOLIC

SQRT2 = math.sqrt(2.0)


def random_chart_points(rng, count, n=2, x_span=0.5, y_range=(0.3, 1.0)):
    pts = np.empty((count, n))
    pts[:, :-1] = rng.uniform(-x_span, x_span, size=(count, n - 1))
    pts[:, -1] = rng.uniform(*y_range, size=count)
    return pts


class TestOrientation:
    def test_sign_fixed_and_cached(self):
        conv = op.orientation()
        assert conv.sign in (-1, 1)
        assert conv is op.orientation()
        op.reset_orientation()
        recomputed = op.orientation()
        assert recomputed is not conv
        assert recomputed.sign == conv.sign

    def test_plane_measurement(self):
        conv = op.orientation()
        assert abs(abs(conv.plane_curvature) - 1.0 / SQRT2) < 1e-6

    def test_solution_slope_sign_for_positive_curvature(self):
        conv = op.orientation()
        assert conv.solution_slope(0.5) > 0
        assert abs(abs(conv.solution_slope(0.5)) - 0.5 / math.sqrt(0.75)) < 1e-15

    def test_equidistant_plane_substitution(self):
        conv = op.orientation()
        slope = conv.solution_slope(0.5)
        patch = op.exact_patch("tilted_plane", a=slope, b=0.7)
        rng = np.random.default_rng(1)
        for z in random_chart_points(rng, 20):
            assert abs(op.qh_pointwise(patch, z, PARABOLIC, 0.5, n=2)) <= 1e-10


class TestPointwiseResidual:
    def test_constant_graphs_minimal(self):
        patch = op.exact_patch("constant", c=2.0)
        rng = np.random.default_rng(2)
        for z in random_chart_points(rng, 30):
            assert abs(op.qh_pointwise(patch, z, PARABOLIC, 0.0, n=2)) <= 1e-14

    def test_hemisphere_graphs_minimal(self):
        patch = op.exact_patch("hemisphere", t=0.2, R=1.5)
        rng = np.random.default_rng(3)
        for z in random_chart_points(rng, 100, y_range=(0.2, 0.9)):
            assert abs(op.qh_pointwise(patch, z, PARABOLIC, 0.0, n=2)) <= 1e-9

    def test_unit_slope_plane_magnitude(self):
        patch = op.exact_patch("tilted_plane", a=1.0, b=0.0)
        val = op.qh_pointwise(patch, np.array([0.2, 1.3]), PARABOLIC, 0.0, n=2)
        assert abs(abs(val) - SQRT2) < 1e-12
        # the sign is pinned by the convention: positive residual means the
        # graph curves toward larger flow values than the target H
        conv = op.orientation()
        oracle = op.graph_mean_curvature(patch, np.array([0.2, 1.3]), PARABOLIC, 2)
        assert abs(val - 2 * oracle) < 1e-6

    def test_reduction_generic_vs_chart(self):
        gap = op.verify_reduction(2, np.random.default_rng(17))
        assert gap <= 1e-10

    def test_translation_equivariance(self):
        patch = op.exact_patch("hemisphere", t=0.0, R=2.0)
        shifted = patch.shifted(3.7)
        rng = np.random.default_rng(4)
        for z in random_chart_points(rng, 20):
            a = op.qh_pointwise(patch, z, PARABOLIC, 0.3, n=2)
            b = op.qh_pointwise(shifted, z, PARABOLIC, 0.3, n=2)
            assert a == b

    def test_horizontal_translation_invariance(self):
        base = op.exact_patch("hemisphere", t=0.1, R=2.0)
        offset = 0.8

        def shifted_value(z):
            w = np.array(z, dtype=float)
            w[0] -= offset
            return base.value(w)

        def shifted_grad(z):
            w = np.array(z, dtype=float)
            w[0] -= offset
            return base.grad(w)

        def shifted_hess(z):
            w = np.array(z, dtype=float)
            w[0] -= offset
            return base.hess(w)

        moved = op.ScalarPatch(shifted_value, shifted_grad, shifted_hess)
        rng = np.random.default_rng(5)
        for z in random_chart_points(rng, 20):
            z2 = z.copy()
            z2[0] += offset
            a = op.qh_pointwise(base, z, PARABOLIC, 0.2, n=2)
            b = op.qh_pointwise(moved, z2, PARABOLIC, 0.2, n=2)
            assert abs(a - b) < 1e-12

    def test_minimal_case_is_sign_blind(self):
        conv = op.orientation()
        flipped = op.OrientationConvention(sign=-conv.sign,
                                           plane_curvature=-conv.plane_curvature)
        patch = op.exact_patch("hemisphere", t=0.0, R=1.5)
        z = np.array([0.3, 0.5])
        a = op.qh_pointwise(patch, z, PARABOLIC, 0.0, n=2, convention=conv)
        b = op.qh_pointwise(patch, z, PARABOLIC, 0.0, n=2, convention=flipped)
        assert abs(a) < 1e-12 and abs(b) < 1e-12

    def test_rejects_supercritical_curvature(self):
        patch = op.exact_patch("constant", c=1.0)
        with pytest.raises(ValueError):
            op.qh_pointwise(patch, np.array([0.0, 1.0]), PARABOLIC, 1.0, n=2)

    def test_domain_error_propagates(self):
        patch = op.exact_patch("hemisphere", t=0.0, R=1.0)
        with pytest.raises(ValueError):
            op.qh_pointwise(patch, np.array([0.9, 0.9]), PARABOLIC, 0.0, n=2)

    def test_dilation_residual_is_stable_under_a_last_bit_change_of_gamma(self, monkeypatch):
        # the structure-level divergence is a difference quotient of the flux;
        # multiplying gamma by (1 + 2^-52) must move it by no more than 1e-12
        # at 20 points of the box |x| <= 0.5, y in [0.3, 1.3]
        patches = [op.exact_patch("tilted_plane", a=0.8, b=-0.1),
                   op.exact_patch("hemisphere", t=0.2, R=2.0)]
        cases = [(n, patch, z) for n in (2, 3) for patch in patches
                 for z in random_chart_points(np.random.default_rng(20), 20, n=n,
                                              y_range=(0.3, 1.3))]

        def values():
            return np.array([op.qh_pointwise(patch, z, HYPERBOLIC, 0.0, n=n)
                             for n, patch, z in cases])

        before = values()
        real_gamma = ge.KillingStructure.chart_gamma
        monkeypatch.setattr(ge.KillingStructure, "chart_gamma",
                            lambda self, chart: real_gamma(self, chart) * (1.0 + 2.0**-52))
        assert np.max(np.abs(values() - before)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dimension_generic_residuals(self, n):
        patch = op.exact_patch("hemisphere", t=0.1, R=1.5)
        rng = np.random.default_rng(6)
        for z in random_chart_points(rng, 10, n=n, x_span=0.4, y_range=(0.3, 0.8)):
            assert abs(op.qh_pointwise(patch, z, PARABOLIC, 0.0, n=n)) <= 1e-9


class TestOracleEquivalence:
    def test_catalog_families_agree_with_oracle(self):
        conv = op.orientation()
        rng = np.random.default_rng(8)
        families = [
            op.exact_patch("constant", c=0.8),
            op.exact_patch("tilted_plane", a=0.6, b=0.2),
            op.exact_patch("hemisphere", t=0.15, R=1.6),
        ]
        H = 0.25
        worst = 0.0
        for patch in families:
            for z in random_chart_points(rng, 100, y_range=(0.35, 1.1)):
                resid = op.qh_pointwise(patch, z, PARABOLIC, H, n=2, convention=conv)
                oracle = op.graph_mean_curvature(patch, z, PARABOLIC, 2)
                worst = max(worst, abs(resid / 2 - (oracle - H)))
        assert worst <= 1e-6

    def test_hemisphere_oracle_zero(self):
        patch = op.exact_patch("hemisphere", t=0.0, R=1.0)
        val = op.graph_mean_curvature(patch, np.array([0.3, 0.4]), PARABOLIC, 2)
        assert abs(val) <= 1e-6

    def test_horosphere_unit_curvature(self):
        def level_plane(xi):
            xi = np.atleast_1d(np.asarray(xi, dtype=float))
            return np.concatenate([xi, [1.3]])

        down = np.array([0.0, 0.0, 1.0])
        val = op.numerical_mean_curvature(level_plane, np.array([0.1, -0.2]), 2,
                                          orientation_ref=down)
        assert abs(abs(val) - 1.0) <= 1e-6

    def test_euclidean_tilted_plane_magnitude(self):
        patch = op.exact_patch("tilted_plane", a=1.0, b=0.0)
        val = op.graph_mean_curvature(patch, np.array([0.0, 1.0]), PARABOLIC, 2)
        assert abs(abs(val) - 1.0 / SQRT2) <= 1e-6

    def test_degenerate_frame_rejected(self):
        def collapsed(xi):
            return np.array([0.0, 0.0, 1.0])

        with pytest.raises(ValueError):
            op.numerical_mean_curvature(collapsed, np.array([0.0, 0.0]), 2,
                                        orientation_ref=np.array([1.0, 0.0, 0.0]))


class TestGridResidual:
    def test_constant_grid_zero(self):
        grid = op.make_grid(2, 0.5, 0.2, 1.0, 17)
        u = op.sample_on_grid(grid, lambda z: 0.7)
        res = op.qh_residual_grid(u, PARABOLIC, 0.0)
        assert np.max(np.abs(res.values[~res.boundary])) <= 1e-12

    def test_plane_grid_exact(self):
        conv = op.orientation()
        slope = conv.solution_slope(0.5)
        grid = op.make_grid(2, 0.5, 0.2, 1.0, 33)
        u = op.sample_on_grid(grid, lambda z: slope * z[-1] + 0.3)
        res = op.qh_residual_grid(u, PARABOLIC, 0.5)
        assert np.max(np.abs(res.values[~res.boundary])) <= 1e-12

    def test_hemisphere_refinement_order(self):
        errs = []
        for nodes in (65, 129, 257):
            grid = op.make_grid(2, 0.45, 0.25, 0.95, nodes)
            u = op.sample_on_grid(grid, lambda z: math.sqrt(1.5**2 - float(np.dot(z, z))))
            res = op.qh_residual_grid(u, PARABOLIC, 0.0)
            errs.append(float(np.max(np.abs(res.values[~res.boundary]))))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            op.GridFunction((np.array([0.0, 1.0]), np.array([0.5, 1.0, 1.5])), np.zeros((2, 3)))

    def test_one_dimensional_grid(self):
        grid = op.make_grid(1, 0.0, 0.2, 1.2, 41)
        u = op.sample_on_grid(grid, lambda z: math.sqrt(2.0**2 - z[-1] ** 2))
        res = op.qh_residual_grid(u, PARABOLIC, 0.0)
        assert np.max(np.abs(res.values[~res.boundary])) <= 2e-3

    def test_hyperbolic_chart_residual_constant(self):
        # constant radial graphs over the hemisphere slice are minimal
        grid = op.make_grid(2, 0.5, 0.5, 1.4, 33)
        u = op.sample_on_grid(grid, lambda z: 0.4)
        res = op.qh_residual_grid(u, HYPERBOLIC, 0.0)
        assert np.max(np.abs(res.values[~res.boundary])) <= 1e-10

    @pytest.mark.parametrize("n, nodes", [(2, 65), (2, (33, 17)), (3, 13)])
    def test_coarse_chart_coefficients_are_the_coarse_grids(self, n, nodes):
        # coarse nodes and faces are fine nodes: the node data are slices,
        # bit for bit, and a face's g differs only by the rounding of its
        # coordinates and of gamma / y^2 (at most 9e-16 relative measured)
        grid = op.make_grid(n, 0.45, 0.25, 0.95, nodes)
        axes = tuple(a[::2] for a in grid.axes)
        got = op.coarse_chart_coefficients(op.chart_coefficients(grid.axes, n), axes, n)
        ref = op.chart_coefficients(axes, n)
        assert np.array_equal(got.scale, ref.scale) and np.array_equal(got.gamma, ref.gamma)
        assert [b for b, _ in got.drift] == [b for b, _ in ref.drift]
        assert all(np.array_equal(c, r) for (_, c), (_, r) in zip(got.drift, ref.drift))
        for (g, weight), (g_ref, weight_ref) in zip(got.faces, ref.faces, strict=True):
            assert g.shape == g_ref.shape and np.array_equal(weight, weight_ref)
            assert np.max(np.abs(g / g_ref - 1.0)) <= 1e-14


class TestFrozenResidual:
    """With ``w_at`` the residual kernel is the Picard linearization at ``w_at``."""

    @pytest.mark.parametrize("kind", [PARABOLIC, HYPERBOLIC])
    @pytest.mark.parametrize("n", [2, 3])
    def test_exact_at_freeze_point_and_affine(self, n, kind):
        grid = op.make_grid(n, 0.5, 0.3, 1.1, 9 if n == 3 else 17)
        mesh = grid.meshgrid()
        u = 0.4 + 0.2 * np.sin(2.0 * mesh[0]) * mesh[-1]
        w = 0.2 * np.cos(3.0 * mesh[0]) * mesh[-1] ** 2
        conv = op.orientation()

        def frozen(v):
            return op.residual_field(v, grid, kind, 0.3, conv, w_at=u)

        base = frozen(u.copy())  # a copy, so the slopes of both arguments are formed
        assert base.tobytes() == op.residual_field(u, grid, kind, 0.3, conv).tobytes()
        unit = frozen(u + w) - base
        for t in (-0.5, 0.25, 2.0):
            assert np.max(np.abs(frozen(u + t * w) - base - t * unit)) <= 1e-12
        # away from the freeze point it is not the full residual
        full = op.residual_field(u + w, grid, kind, 0.3, conv)
        assert np.max(np.abs(frozen(u + w) - full)) > 1e-3


def _loop_face_flux_residual(u, w, axes, kind, n, H, sign):
    """The face-flux formula node by node, with coefficients read pointwise.

    At each full-stencil node p: sign * (scale * sum_a (F_a(p) - F_a(p - e_a)) / h_a
    - <Du, drift> / W) - n H, where F_a(q) = weight (u(q + e_a) - u(q)) / h_a / W_f
    on the face between q and q + e_a, whose W_f^2 is g + the squared normal
    difference of w + the squares of w's tangential slopes, each the mean
    of the centered slopes at q and q + e_a.  Every other node is 0.
    """
    d = u.ndim
    h = [float(a[1] - a[0]) for a in axes]
    struct = ge.killing_structure(kind)
    unit = np.eye(d, dtype=int)

    def point(q):
        return np.array([axes[k][q[k]] for k in range(d)])

    def slope(f, q, b):
        return (f[tuple(q + unit[b])] - f[tuple(q - unit[b])]) / (2 * h[b])

    def node_coefficients(z):
        # scale, g and the drift coefficients at a node
        if kind == PARABOLIC:
            drift = np.zeros(d)
            drift[-1] = n
            return z[-1], 1.0, drift
        gamma = struct.chart_gamma(z)
        return z[-1] ** n, gamma / z[-1] ** 2, gamma / z[-1] * struct.chart_drift(z)

    def face_coefficients(z):
        # g and the flux weight on a face
        if kind == PARABOLIC:
            return 1.0, 1.0
        return struct.chart_gamma(z) / z[-1] ** 2, z[-1] ** (1 - n)

    def flux(q, a):
        g, weight = face_coefficients(0.5 * (point(q) + point(q + unit[a])))
        normal = (w[tuple(q + unit[a])] - w[tuple(q)]) / h[a]
        tangential = sum((0.5 * (slope(w, q, b) + slope(w, q + unit[a], b))) ** 2
                         for b in range(d) if b != a)
        W = math.sqrt(g + normal**2 + tangential)
        return weight * (u[tuple(q + unit[a])] - u[tuple(q)]) / h[a] / W

    out = np.zeros(u.shape)
    for p in itertools.product(*(range(1, s - 1) for s in u.shape)):
        p = np.array(p)
        scale, g, drift = node_coefficients(point(p))
        div = sum((flux(p, a) - flux(p - unit[a], a)) / h[a] for a in range(d))
        W = math.sqrt(g + sum(slope(w, p, b) ** 2 for b in range(d)))
        pairing = sum(slope(u, p, b) * drift[b] for b in range(d))
        out[tuple(p)] = sign * (scale * div - pairing / W) - n * H
    return out


class TestKernelOracle:
    """The kernel against a per-node loop of its formula, on four grid functions."""

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("kind", [PARABOLIC, HYPERBOLIC])
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_per_node_loop(self, n, kind, frozen):
        # unequal node counts and spacings per axis catch an axis mix-up
        grid = op.make_grid(n, 0.5, 0.3, 1.1, [9, 11] if n == 2 else [6, 7, 8])
        rng = np.random.default_rng(17)
        mesh = grid.meshgrid()
        base = 0.4 + 0.3 * np.sin(2.0 * mesh[0]) * mesh[-1] + 0.2 * mesh[-1] ** 2
        stack = base + 0.05 * rng.standard_normal((4,) + base.shape)
        w_at = base + 0.05 * rng.standard_normal(base.shape) if frozen else None
        h = grid.spacing
        sign = op.orientation().sign
        inner = np.zeros(base.shape, dtype=bool)
        inner[(slice(1, -1),) * n] = True
        for values in stack:  # one kernel call per grid function
            if kind == PARABOLIC:
                got = op.residual_field_parabolic(values, grid.y_grid(), h, n, 0.3, sign, w_at)
            else:
                got = op.residual_field_chart(values, grid.axes, h, n, 0.3, sign, w_at)
            w = values if w_at is None else w_at
            want = _loop_face_flux_residual(values, w, grid.axes, kind, n, 0.3, sign)
            scale = np.max(np.abs(want[inner]))
            assert np.max(np.abs(got[inner] - want[inner])) <= 1e-13 * scale
            assert np.all(got[~inner] == 0.0)
