"""Barrier constructions: angle selection, stack recursions, caps, planes."""

import math

import mpmath
import numpy as np
import pytest

from plateau_hyp import barriers as ba
from plateau_hyp import operator as op
from plateau_hyp.geometry import PARABOLIC

import oracles


def margin_direct(alpha):
    """The selection function in its raw quotient form (independent oracle)."""
    beta = alpha / 2.0
    return math.cos(beta) * (math.sin(alpha) - math.sin(beta)) / (math.cos(beta) - math.cos(alpha))


def stack_oracle_mp(l, alpha, digits=50):
    """Iterate the height/radius recursion in extended precision."""
    with mpmath.workdps(digits):
        a = mpmath.mpf(alpha)
        b = a / 2
        ratio = mpmath.cos(a) / mpmath.cos(b)
        t = -mpmath.sin(b)
        R = mpmath.mpf(1)
        levels = [(t, R)]
        while t <= l:
            R_next = ratio * R
            t = t + R * mpmath.sin(a) - R_next * mpmath.sin(b)
            R = R_next
            levels.append((t, R))
        return [(float(tv), float(Rv)) for tv, Rv in levels]


class TestSelectAlpha:
    @pytest.mark.parametrize("l", [0.5, 1.0, 2.0])
    def test_window_and_target(self, l):
        alpha = ba.select_alpha(l)
        g = margin_direct(alpha)
        assert l < g < l + 1
        assert abs(g - (l + 0.5)) <= 1e-10

    def test_example_alpha_point_evaluation(self):
        # 0.90 is an admissible angle for l = 1; the bisection target returns less
        assert 1.0 < margin_direct(0.90) < 2.0
        assert abs(margin_direct(0.90) - 1.1249613226297974) < 1e-12
        assert ba.select_alpha(1.0) < 0.90

    def test_small_angle_asymptote(self):
        # margin ~ 4 / (3 alpha) as alpha -> 0
        for alpha in (1e-3, 1e-4, 1e-5):
            ratio = ba.alpha_margin(alpha) * 3 * alpha / 4
            assert abs(ratio - 1.0) < 10 * alpha

    def test_product_form_matches_quotient_form(self):
        for alpha in np.linspace(0.05, 1.5, 40):
            assert abs(ba.alpha_margin(alpha) - margin_direct(alpha)) < 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ba.select_alpha(0.0)
        with pytest.raises(ValueError):
            ba.alpha_margin(2.0)

    def test_bit_identical_reproduction(self):
        a1 = ba.select_alpha(1.0)
        a2 = ba.select_alpha(1.0)
        assert a1 == a2
        s1 = ba.build_stack(1.0, a1)
        s2 = ba.build_stack(1.0, a2)
        assert s1.levels == s2.levels


class TestBuildStack:
    def test_frozen_example_values(self):
        stack = ba.build_stack(1.0, 0.9)
        t, R = stack.heights(), stack.radii()
        assert stack.K == 7
        assert t[0] == -math.sin(0.45)
        assert abs(R[1] - 0.6903347977316265) < 1e-15
        assert abs(t[1] - 0.04808953150534817) < 1e-15
        assert abs(stack.limit_height - 1.1249613226297974) < 1e-12

    @pytest.mark.parametrize("l", [0.5, 1.0, 2.0])
    def test_matches_extended_precision_oracle(self, l):
        alpha = ba.select_alpha(l)
        stack = ba.build_stack(l, alpha)
        oracle = stack_oracle_mp(l, alpha)
        assert len(oracle) == len(stack.levels)
        for (t, R), (t_mp, R_mp) in zip(stack.levels, oracle):
            assert abs(t - t_mp) < 1e-13
            assert abs(R - R_mp) < 1e-13

    def test_closed_form_per_level(self):
        stack = ba.build_stack(1.0, 0.9)
        a, b = stack.alpha, stack.beta
        ratio = math.cos(a) / math.cos(b)
        for k, (t, R) in enumerate(stack.levels):
            s_k = (1 - ratio**k) / (1 - ratio)
            s_k1 = (1 - ratio ** (k + 1)) / (1 - ratio)
            closed = s_k * math.sin(a) - s_k1 * math.sin(b)
            assert abs(t - closed) <= 1e-12
            assert abs(R - ratio**k) <= 1e-12

    def test_monotone_geometric(self):
        stack = ba.build_stack(2.0, ba.select_alpha(2.0))
        t, R = stack.heights(), stack.radii()
        assert np.all(np.diff(t) > 0)
        assert np.all(np.diff(R) < 0)
        ratios = R[1:] / R[:-1]
        assert np.allclose(ratios, math.cos(stack.alpha) / math.cos(stack.beta), atol=1e-14)

    def test_limit_approached_monotonically(self):
        stack = ba.build_stack(1.0, 0.9)
        gaps = stack.limit_height - stack.heights()
        assert np.all(gaps > 0)
        assert np.all(np.diff(gaps) < 0)
        # geometric closed form of the gap
        a, b = stack.alpha, stack.beta
        ratio = math.cos(a) / math.cos(b)
        coef = (math.sin(a) - ratio * math.sin(b)) / (1 - ratio)
        for k, gap in enumerate(gaps):
            assert abs(gap - coef * ratio**k) < 1e-12

    def test_exit_window(self):
        for l in (0.5, 1.0, 2.0, 5.0):
            stack = ba.build_stack(l, ba.select_alpha(l))
            t_final = stack.heights()[-1]
            assert l < t_final < l + 1
            assert stack.heights()[-2] <= l

    def test_pasting_identity(self):
        stack = ba.build_stack(1.0, 0.9)
        R = stack.radii()
        worst = max(abs(R[k] * math.cos(stack.beta) - R[k - 1] * math.cos(stack.alpha))
                    for k in range(1, len(R)))
        assert worst <= 1e-14

    def test_inconsistent_alpha_rejected(self):
        with pytest.raises(ValueError):
            ba.build_stack(5.0, 1.4)  # limit height ~0.35 cannot separate l = 5


class TestEvalStack:
    def setup_method(self):
        self.stack = ba.build_stack(1.0, 0.9)

    def test_zero_outside_unit_disk(self):
        assert oracles.eval_stack(self.stack, np.array([1.05, 0.2])) == 0.0
        assert oracles.eval_stack(self.stack, np.array([0.9, 0.9])) == 0.0

    def test_pieces_agree_on_pasting_spheres(self):
        t, R = self.stack.heights(), self.stack.radii()
        for k in range(1, len(R)):
            rho = R[k - 1] * math.cos(self.stack.alpha)
            vk = t[k] + math.sqrt(R[k] ** 2 - rho**2)
            vk1 = t[k - 1] + math.sqrt(R[k - 1] ** 2 - rho**2)
            assert abs(vk - vk1) <= 1e-9

    def test_piece_domination_characterization(self):
        # v_k > v_{k-1} exactly inside the pasting radius
        t, R = self.stack.heights(), self.stack.radii()
        for k in range(1, len(R)):
            paste = R[k - 1] * math.cos(self.stack.alpha)
            for rho in np.linspace(1e-6, R[k] - 1e-9, 200):
                vk = t[k] + math.sqrt(R[k] ** 2 - rho**2)
                vk1 = t[k - 1] + math.sqrt(R[k - 1] ** 2 - rho**2)
                if rho < paste - 1e-12:
                    assert vk > vk1
                elif rho > paste + 1e-12:
                    assert vk < vk1

    def test_axis_value_separates(self):
        val = oracles.eval_stack(self.stack, np.array([0.0, 1e-9]))
        t, R = self.stack.heights(), self.stack.radii()
        assert abs(val - max(tk + Rk for tk, Rk in zip(t, R))) < 1e-12
        assert val > self.stack.l

    def test_continuity_on_radial_sweep(self):
        rho = np.linspace(0.0, 1.1, 20001)
        vals = ba.eval_stack_radial(self.stack, rho)
        jumps = np.abs(np.diff(vals))
        # Lipschitz away from the rim; the rim slope is steep but finite on this mesh
        assert np.max(jumps) < 0.02
        assert np.min(vals) >= 0.0

    def test_active_pieces_are_minimal_graphs(self):
        t, R = self.stack.heights(), self.stack.radii()
        for k in (0, 2, 5):
            patch = op.exact_patch("hemisphere", t=t[k], R=R[k])
            z = np.array([0.3 * R[k], 0.4 * R[k]])
            assert abs(op.qh_pointwise(patch, z, PARABOLIC, 0.0, n=2)) < 1e-12

    def test_transformed_stack_scales(self):
        gen = ba.transformed_stack(0.5, [1.0], 0.4)
        inner = gen.stack
        x = np.array([1.0 + 0.1, 1.0])
        direct = 0.4 * oracles.eval_stack(inner, np.array([0.1 / 0.4, 1.0 / 0.4]))
        assert abs(float(gen(x[0], np.array(x[1]))) - direct) < 1e-14


class TestSupersolution:
    def test_zero_curvature_is_flat(self):
        w = ba.make_supersolution(1.0, 0.0)
        assert w.slope == 0.0
        assert w(5.0) == 1.0

    def test_half_curvature_slope_and_residual(self):
        w = ba.make_supersolution(1.0, 0.5)
        assert abs(abs(w.slope) - 0.5773502691896258) < 1e-15
        assert w.slope > 0
        rng = np.random.default_rng(10)
        patch = w.patch()
        for _ in range(30):
            z = np.array([rng.uniform(-2, 2), rng.uniform(0.1, 3.0)])
            assert abs(op.qh_pointwise(patch, z, PARABOLIC, 0.5, n=2)) <= 1e-10

    def test_mirrored_sign(self):
        w_pos = ba.make_supersolution(1.0, 0.5)
        w_neg = ba.make_supersolution(1.0, -0.5)
        assert w_neg.slope == -w_pos.slope
        patch = w_neg.patch()
        assert abs(op.qh_pointwise(patch, np.array([0.3, 0.7]), PARABOLIC, -0.5, n=2)) <= 1e-10

    def test_rejects_unit_curvature(self):
        with pytest.raises(ValueError):
            ba.make_supersolution(1.0, 1.0)
        with pytest.raises(ValueError):
            ba.make_supersolution(1.0, -1.2)

    def test_rejects_nonpositive_offset(self):
        with pytest.raises(ValueError):
            ba.make_supersolution(0.0, 0.3)


def flat_datum(level):
    def phi(x):
        return np.full(np.shape(x), level) if np.shape(x) else level
    return phi


class TestUpperCap:
    def test_construction_and_disjointness(self):
        cap = ba.upper_cap_barrier(1.0, [0.0], flat_datum(0.5), 0.0)
        assert cap.rho > 0
        # ideal boundary sphere stays on the far side of the datum graph
        sphere = cap.boundary_sphere
        assert sphere.kind == "round"
        assert sphere.center[0] - sphere.radius > 0.5

    @pytest.mark.parametrize("H", [0.0, 0.5, -0.4])
    def test_cap_oracle_curvature(self, H):
        cap = ba.upper_cap_barrier(1.0, [0.0], flat_datum(0.5), H)
        f = cap.cap_patch_map(2)
        center = np.concatenate([[cap.offset], cap.center, [cap.center_height]])
        toward_center = lambda P: center - P
        val = op.numerical_mean_curvature(f, np.array([0.03, 0.06]), 2,
                                          orientation_ref=toward_center)
        assert abs(val - abs(H)) <= 1e-6

    def test_upper_bound_branch(self):
        cap = ba.upper_cap_barrier(1.0, [0.0], flat_datum(0.5), 0.0)
        inside = cap.upper_bound(np.array([0.0]), np.array(0.5 * cap.radius))
        assert np.isfinite(inside) and inside < cap.offset
        outside = cap.upper_bound(np.array([3.0]), np.array(0.1))
        assert np.isinf(outside)

    def test_rejects_center_on_data_graph(self):
        with pytest.raises(ValueError):
            ba.upper_cap_barrier(0.4, [0.0], flat_datum(0.5), 0.0)

    def test_rejects_touching_data(self):
        def spike(x):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x) < 1e-3, 1.0, 0.2)
        with pytest.raises(ValueError):
            ba.upper_cap_barrier(1.0, [0.0], spike, 0.0)


class TestSubsolutionRecord:
    def test_sign_of_discrete_subsolution_inequality(self):
        stack = ba.build_stack(1.0, 0.9)
        report = oracles.stack_subsolution_report(stack, [0.4, 0.0, -0.4])
        assert report[0.4]["holds"]
        assert report[0.0]["holds"]
        assert not report[-0.4]["holds"]
        assert report[0.4]["smooth_nodes"] > 50
