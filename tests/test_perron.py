"""Monotone lift iteration: lifts, sweeps, asymptotic solves, comparison."""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from plateau_hyp import barriers as ba
from plateau_hyp import operator as op
from plateau_hyp import perron as pe
from plateau_hyp import solver as sv
from plateau_hyp.geometry import PARABOLIC

import oracles

SMALL = dict(half_width=1.0, y_min=0.05, y_max=0.65, nodes=33)


def small_grid():
    return op.make_grid(2, SMALL["half_width"], SMALL["y_min"], SMALL["y_max"], SMALL["nodes"])


class TestBoundaryData:
    def test_constant_profile(self):
        phi = pe.constant_datum(0.5)
        assert phi(3.2) == 0.5
        assert np.all(phi(np.linspace(-5, 5, 11)) == 0.5)

    def test_smooth_step_range_and_tails(self):
        phi = pe.smooth_step_datum(0.2, 0.8, center=0.0, width=0.5)
        assert phi(-10.0) == 0.2 and phi(10.0) == 0.8
        assert abs(phi(0.0) - 0.5) < 1e-14
        xs = np.linspace(-2, 2, 401)
        vals = phi(xs)
        assert np.all(np.diff(vals) >= 0)

    def test_bump_support(self):
        phi = pe.bump_datum(center=0.0, height=0.4, width=1.0, base=0.2)
        assert phi(2.0) == 0.2
        assert abs(phi(0.0) - 0.6) < 1e-14

    def test_table_interpolation(self):
        phi = pe.BoundaryDatum("table", {"xs": [-1.0, 0.0, 1.0], "values": [0.1, 0.5, 0.3]},
                               c_max=0.5)
        assert abs(phi(0.5) - 0.4) < 1e-14
        assert phi(5.0) == 0.3  # flat extension

    def test_sinusoid_decay_window_defaults(self):
        # c_max is 2 base, else 2 |amplitude|; base is c_max / 2
        about_base = pe.sinusoid_decay_datum(0.1, 2.0, 0.5, base=0.3)
        assert about_base.c_max == 0.6 and about_base(0.0) == 0.3
        about_amplitude = pe.sinusoid_decay_datum(-0.2, 2.0, 0.5)
        assert about_amplitude.c_max == 0.4 and about_amplitude(0.0) == 0.2
        about_window = pe.sinusoid_decay_datum(0.1, 2.0, 0.5, c_max=0.5)
        assert about_window(0.0) == 0.25
        x = 0.3
        expected = 0.3 + 0.1 * math.sin(2 * math.pi * x / 2.0) * math.exp(-0.5 * x)
        assert about_base(x) == pytest.approx(expected, abs=1e-15)

    def test_table_datum_window(self):
        phi = pe.table_datum([-1.0, 0.0, 1.0], [0.1, 0.5, 0.3])
        assert phi.c_max == 0.5 and abs(phi(0.5) - 0.4) < 1e-14
        assert pe.table_datum([-1.0, 1.0], [0.1, 0.3], c_max=2.0).c_max == 2.0

    @pytest.mark.parametrize("xs, bad", [([1.0, 0.0, -1.0], 1), ([-1.0, 0.0, 0.0], 2)])
    def test_table_datum_rejects_xs_not_increasing(self, xs, bad):
        # np.interp assumes increasing abscissae: [1, 0, -1] read 0.3 at x = 0, not 0.5
        with pytest.raises(ValueError, match=rf"strictly increasing: xs\[{bad}\]"):
            pe.table_datum(xs, [0.1, 0.5, 0.3])

    def test_non_finite_datum_rejected_at_its_x(self):
        # a zero-width step is 0/0 at its center: NaN there, which no window check catches
        with pytest.raises(ValueError, match=r"not finite at x = 0\.0"):
            pe.smooth_step_datum(0.2, 0.8, width=0.0)
        with pytest.raises(ValueError, match="c_max"):
            pe.constant_datum(0.5, c_max=math.nan)

    def test_window_violation_rejected(self):
        with pytest.raises(ValueError):
            pe.bump_datum(center=0.0, height=1.2, width=1.0, base=0.0, c_max=1.0)
        with pytest.raises(ValueError):
            pe.BoundaryDatum("table", {"xs": [0.0, 1.0], "values": [-0.2, 0.5]}, c_max=1.0)

    def test_poisson_smoothing_limits(self):
        phi = pe.smooth_step_datum(0.2, 0.8, width=0.5)
        xs = np.array([-1.0, 0.0, 1.0])
        assert np.allclose(pe.poisson_smoothed(phi, xs, 0.0), phi(xs), atol=0)
        flat = pe.constant_datum(0.5)
        assert np.allclose(pe.poisson_smoothed(flat, xs, 1.3), 0.5, atol=1e-12)
        smoothed = pe.poisson_smoothed(phi, np.array([0.0]), 0.5)
        assert abs(smoothed[0] - 0.5) < 1e-3  # symmetric profile keeps the midpoint

    @pytest.mark.parametrize("n, H", [(2, 0.0), (3, 0.0), (2, 0.5)])
    def test_poisson_smoothing_solves_linearized_operator(self, n, H):
        # about the plane of slope a, 1 + a^2 = W^2, the linearized operator is
        # y S_xx + (y S_yy - n S_y) / W^2, solved by the smoothing at scale W y;
        # the five-point residual then decays like h^2 (a harmonic kernel leaves
        # an O(1) residual -n S_y that does not decay)
        phi = pe.smooth_step_datum(0.2, 0.8, width=0.5)
        stretch = math.hypot(1.0, ba.make_supersolution(0.8, H).slope)
        x0, y0 = 0.4, 1.0

        def residual(h):
            xs = x0 + h * np.array([0.0, -1.0, 1.0, 0.0, 0.0])
            ys = y0 + h * np.array([0.0, 0.0, 0.0, -1.0, 1.0])
            s = pe.poisson_smoothed(phi, xs, stretch * ys, n)
            s_xx = (s[1] + s[2] - 2.0 * s[0]) / h**2
            s_yy = (s[3] + s[4] - 2.0 * s[0]) / h**2
            s_y = (s[4] - s[3]) / (2.0 * h)
            return abs(y0 * s_xx + (y0 * s_yy - n * s_y) / stretch**2)

        errors = [residual(h) for h in (0.1, 0.05, 0.025)]
        assert errors[-1] < 1e-3
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 < coarse / fine < 4.5

    @pytest.mark.parametrize("scale", [0.05, 1.0, 8.0])
    def test_poisson_smoothing_matches_quad_reference(self, scale):
        phi = pe.smooth_step_datum(0.2, 0.8, center=0.0, width=0.5)
        n = 2
        c_n = math.gamma((n + 2) / 2) / (math.sqrt(math.pi) * math.gamma((n + 1) / 2))
        xs = np.array([-6.0, -1.0, -0.2, 0.0, 0.3, 2.5])
        got = pe.poisson_smoothed(phi, xs, scale, n)
        for x, value in zip(xs, got):
            def integrand(t):
                return c_n * scale ** (n + 1) / ((x - t) ** 2 + scale**2) ** ((n + 2) / 2) \
                    * float(phi(t))
            # split at the kink points of the step and at the kernel's peak
            cuts = [-np.inf] + sorted({-0.25, 0.25, float(x)}) + [np.inf]
            reference = sum(quad(integrand, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
                            for a, b in zip(cuts[:-1], cuts[1:]))
            assert abs(value - reference) <= 1e-6

    @pytest.mark.parametrize("H", [-0.5, 0.0, 0.5])
    def test_constant_face_data_is_the_plane(self, H):
        grid = op.make_grid(2, 1.0, 1e-4, 0.65, 33)
        plane = ba.make_supersolution(0.5, H)
        face = pe._face_data(grid, pe.constant_datum(0.5), plane,
                             lambda x, y: np.zeros(np.shape(x)))
        mask = op.outer_face_mask(face.shape)
        height = grid.meshgrid()[-1][mask] - grid.axes[-1][0]
        assert np.max(np.abs(face[mask] - (plane.c + plane.slope * height))) <= 1e-12


class TestBallCover:
    def test_cover_has_no_holes(self):
        boundary = op.outer_face_mask((33, 33))
        for radius in (2, 4, 7):
            cover = pe.build_ball_cover(boundary, radius)
            covered = np.zeros((33, 33), dtype=bool)
            for ball in cover:
                covered |= pe._index_ball_interior((33, 33), ball.center, ball.radius)
            assert np.all(covered[~boundary])

    def test_full_radius_single_ball(self):
        boundary = op.outer_face_mask((33, 33))
        cover = pe.build_ball_cover(boundary, 40)
        assert len(cover) == 1


class TestLift:
    def test_exact_solution_is_fixed_point(self):
        conv = op.orientation()
        slope = conv.solution_slope(0.4)
        grid = small_grid()
        u = op.sample_on_grid(grid, lambda z: slope * z[-1] + 0.2)
        cfg = pe.PerronConfig(tol=1e-9)
        ball = pe.Ball(center=(16, 16), radius=5)
        lifted = oracles.lift(u, ball, 0.4, cfg)
        assert np.max(np.abs(lifted.values - u.values)) <= 1e-9

    def test_lift_from_zero_with_positive_boundary_is_positive(self):
        grid = small_grid()
        u = grid.copy()
        u.values[:] = 0.0
        u.values[:, 0] = 0.5  # bottom face data
        ball = pe.Ball(center=(16, 2), radius=4)  # touches the bottom face
        lifted = oracles.lift(u, ball, 0.0, pe.PerronConfig(tol=1e-9))
        assert np.max(lifted.values - u.values) > 1e-4
        assert np.min(lifted.values) >= -1e-12

    def test_lift_monotone_in_boundary_data(self):
        grid = small_grid()
        base = op.sample_on_grid(grid, lambda z: 0.2 + 0.1 * math.sin(2 * z[0]) * z[-1])
        raised = base.copy()
        raised.values = base.values + 0.05
        ball = pe.Ball(center=(16, 16), radius=6)
        cfg = pe.PerronConfig(tol=1e-9)
        lo = oracles.lift(base, ball, 0.0, cfg)
        hi = oracles.lift(raised, ball, 0.0, cfg)
        assert np.min(hi.values - lo.values) >= -1e-9

    def test_divergence_lifts_a_sub_cover_of_the_ball(self, monkeypatch):
        # a radius-6 lift whose solve diverges is replaced by radius-3 lifts
        # restricted to its ball: every free node of the ball rises from zero
        # toward the bottom data, the annulus outside radius 3 included, and
        # nothing outside the ball moves
        grid = small_grid()
        u = grid.copy()
        u.values[:] = 0.0
        u.values[:, 0] = 0.5
        ball = pe.Ball(center=(16, 4), radius=6)
        windows = []
        real_solve = sv.solve_dirichlet

        def diverging_above_radius_3(problem, *args, **kwargs):
            windows.append(max(problem.grid.values.shape))
            if windows[-1] > 2 * 3 + 3:  # the radius-3 window is 9 nodes wide
                raise sv.SolverDivergence("forced divergence")
            return real_solve(problem, *args, **kwargs)

        monkeypatch.setattr(sv, "solve_dirichlet", diverging_above_radius_3)
        lifted = oracles.lift(u, ball, 0.0, pe.PerronConfig(tol=1e-9))
        # the radius-6 solve diverges from the iterate and from the solver's own start
        assert windows[:2] == [2 * 6 + 3] * 2 and len(windows) > 2
        assert max(windows[2:]) <= 2 * 3 + 3
        raised = lifted.values - u.values
        offsets = np.indices(raised.shape) - np.array([16, 4])[:, None, None]
        d2 = np.sum(offsets**2, axis=0)
        in_ball = (d2 <= 6**2) & ~u.boundary
        annulus = in_ball & (d2 > 3**2)
        assert annulus.sum() > in_ball.sum() // 2
        # a node left out stays at 0; the undiverged lift raises each by 7.2e-3 or more
        assert np.min(raised[in_ball]) > 1e-3
        assert np.all(raised[d2 > 6**2] == 0.0)

    def test_divergence_at_min_radius_names_the_ball(self, monkeypatch):
        # every solve diverges: the sub-covers halve the radius down to
        # MIN_RADIUS, where the first ball's failure is named with its centre
        def diverging(problem, *args, **kwargs):
            raise sv.SolverDivergence("forced divergence")

        monkeypatch.setattr(sv, "solve_dirichlet", diverging)
        grid = small_grid()
        nodes = np.indices(grid.values.shape)

        def disc(center, radius):
            return np.sum((nodes - np.array(center)[:, None, None]) ** 2, axis=0) <= radius**2

        free = disc((16, 4), 4) & ~grid.boundary
        # radius 2 has lattice stride 1: the first ball is the first node of the
        # bounding box whose radius-2 ball meets a free node of the radius-4 ball
        first = next(c for c in itertools.product(range(12, 21), range(0, 9))
                     if np.any(free & disc(c, 2)))
        with pytest.raises(pe.PerronDivergence) as info:
            oracles.lift(grid, pe.Ball((16, 4), 4), 0.0, pe.PerronConfig(tol=1e-9))
        x, y = grid.axes[0][first[0]], grid.axes[1][first[1]]
        assert info.value.kind == "divergence"
        assert f"radius {pe.MIN_RADIUS} centred at x = {x:.4g}, y = {y:.4g}" in str(info.value)


class TestSweep:
    def test_radius_halvings_are_counted_per_sweep(self, monkeypatch):
        # the sweep-1 whole-box lift diverges and is replaced by its sub-cover
        # of radius 16; the report counts it against that sweep, whose
        # smallest lift ran at radius 16, and the next sweep's whole-box
        # lift converges
        grid = small_grid()
        phi = pe.constant_datum(0.4)
        cfg = pe.PerronConfig(tol=1e-8)
        _, plain = pe.run_asymptotic_solve(phi, 0.0, grid, cfg)
        forced = {"n": 0}
        real_lift = pe._lift_once

        def diverging_first_whole_box(u, ball, *args):
            if ball.radius >= max(u.values.shape) and forced["n"] < 1:
                forced["n"] += 1
                raise sv.SolverDivergence("forced divergence")
            return real_lift(u, ball, *args)

        monkeypatch.setattr(pe, "_lift_once", diverging_first_whole_box)
        _, rep = pe.run_asymptotic_solve(phi, 0.0, grid, cfg)
        assert plain.radius_halvings == [0] * plain.sweeps
        assert plain.smallest_radii == plain.radii == [33] * plain.sweeps
        assert rep.converged and forced["n"] == 1 and rep.sweeps >= 2
        assert rep.radii == [33] * rep.sweeps
        assert rep.radius_halvings == [1] + [0] * (rep.sweeps - 1)
        assert rep.smallest_radii == [16] + rep.radii[1:]

    def test_step_row_takes_two_whole_box_sweeps(self, monkeypatch):
        # one step row of the benchmark's 33^2 asymptotic workload: every
        # sweep lifts the whole box, the first from the solver's own start
        starts = []
        real_solve = sv.solve_dirichlet

        def recording_solve(problem, cfg=None, initial=None, **kwargs):
            starts.append(initial is None)
            return real_solve(problem, cfg, initial, **kwargs)

        monkeypatch.setattr(sv, "solve_dirichlet", recording_solve)
        grid = op.make_grid(2, 2.0, 0.05, 0.8, 33)
        phi = pe.smooth_step_datum(0.21, 0.79, center=-0.09, width=0.5)
        _, rep = pe.run_asymptotic_solve(phi, 0.0, grid, pe.PerronConfig(tol=1e-8))
        assert rep.converged
        assert rep.radii == [33, 33] and rep.radius_halvings == [0, 0]
        assert rep.lift_retries == [0, 0]
        assert rep.newton_iterations[0] <= 8
        assert starts[0]  # the first lift solve took no start values

    def test_whole_box_divergence_is_named(self, monkeypatch):
        # the whole-box lift diverges and its sub-cover lifts radius-16 balls:
        # a divergence with the sweep, that radius and the residual, not a
        # stall from a whole-box lift
        grid = small_grid()
        real_lift = pe._lift_once

        def diverging_whole_box(u, ball, *args):
            if ball.radius >= max(u.values.shape):
                raise sv.SolverDivergence("forced divergence")
            return real_lift(u, ball, *args)

        monkeypatch.setattr(pe, "_lift_once", diverging_whole_box)
        phi = pe.smooth_step_datum(0.2, 0.8, width=0.5)
        with pytest.raises(pe.PerronDivergence) as info:
            pe.run_asymptotic_solve(phi, 0.0, grid, pe.PerronConfig(tol=1e-8))
        message = str(info.value)
        assert info.value.kind == "divergence"
        assert "sweep 2: the whole-box lift needed a sub-cover down to radius 16" in message
        assert "residual " in message and "\n" not in message

    def test_decrease_names_the_node(self, monkeypatch):
        grid = small_grid()
        u = grid.copy()
        u.values[:] = 0.3

        def lowering(u, ball, H, cfg, upper, region, rng, own_start_first):
            u.values[5, 7] -= 1e-3
            # sub-covers, Newton iterations, smallest radius, retries, LU fallbacks
            return 0, 0, ball.radius, 0, 0

        monkeypatch.setattr(pe, "_lift_inplace", lowering)
        with pytest.raises(pe.PerronDecrease) as info:
            pe.perron_sweep(u, np.ones_like(u.values), [pe.Ball((5, 7), 4)], 0.0,
                            pe.PerronConfig(tol=1e-8), None)
        x, y = grid.axes[0][5], grid.axes[1][7]
        assert f"by -1.000e-03 at x = {x:.4g}, y = {y:.4g}" in str(info.value)

    def test_sandwich_violation_names_the_worst_node(self):
        grid = small_grid()
        u = grid.copy()
        u.values[:] = 0.3
        upper = np.full(u.values.shape, 0.5)
        upper[20, 3] = 0.3 - 2e-3
        u.values[4, 9] = -1e-3
        with pytest.raises(pe.SandwichViolation) as info:
            pe.perron_sweep(u, upper, [], 0.0, pe.PerronConfig(tol=1e-8), None)
        x, y = grid.axes[0][20], grid.axes[1][3]
        message = str(info.value)
        assert f"by 2.000e-03 above the supersolution at x = {x:.4g}, y = {y:.4g}" in message
        assert "min(u) = -1.000e-03" in message and "\n" not in message

    def test_sweep_limit_is_named(self):
        phi = pe.smooth_step_datum(0.2, 0.8, width=0.5)
        with pytest.raises(pe.PerronSweepLimit, match="within 1 sweeps"):
            pe.run_asymptotic_solve(phi, 0.0, small_grid(), pe.PerronConfig(max_sweeps=1))

    def test_sweep_is_monotone_and_bounded(self):
        grid = small_grid()
        phi = pe.constant_datum(0.4)
        cfg = pe.PerronConfig(tol=1e-8)
        u, rep = pe.run_asymptotic_solve(phi, 0.0, grid, cfg)
        assert rep.min_u >= -10 * cfg.tol and rep.max_above_upper <= 10 * cfg.tol
        assert all(inc >= -cfg.tol for inc in rep.increments)

    def test_increments_settle_from_first_sweep(self):
        grid = small_grid()
        phi = pe.smooth_step_datum(0.2, 0.5, width=0.5, c_max=0.6)
        cfg = pe.PerronConfig(tol=1e-8)
        u, rep = pe.run_asymptotic_solve(phi, 0.0, grid, cfg)
        inc = rep.increments
        assert all(inc[i + 1] <= inc[i] + 10 * cfg.tol for i in range(len(inc) - 1))


class TestAsymptoticSolve:
    def test_constant_zero_curvature(self):
        grid = small_grid()
        phi = pe.constant_datum(0.5)
        u, rep = pe.run_asymptotic_solve(phi, 0.0, grid, pe.PerronConfig(tol=1e-8))
        assert rep.converged
        assert np.max(np.abs(u.values - 0.5)) <= 1e-7

    def test_constant_half_curvature_matches_plane(self):
        grid = op.make_grid(2, 1.0, 1e-4, 0.65, 33)
        phi = pe.constant_datum(0.5)
        u, rep = pe.run_asymptotic_solve(phi, 0.5, grid, pe.PerronConfig(tol=1e-8))
        plane = ba.make_supersolution(0.5, 0.5)
        err = np.max(np.abs(u.values - plane(u.meshgrid()[-1])))
        h2 = max(u.spacing) ** 2
        assert err <= max(1e-7, 5 * h2)

    def test_step_data_sandwich(self):
        grid = small_grid()
        phi = pe.smooth_step_datum(0.2, 0.8, width=0.5)
        u, rep = pe.run_asymptotic_solve(phi, 0.0, grid, pe.PerronConfig(tol=1e-8))
        assert rep.converged
        assert rep.min_u >= -1e-7 and rep.max_above_upper <= 1e-7
        assert rep.min_u == np.min(u.values)
        assert np.min(u.values) >= -1e-7
        assert np.max(u.values) <= 0.8 + 1e-7

    def test_order_independence(self, monkeypatch):
        # one whole-box ball per sweep has no order: each run's sweep-1
        # whole-box lift is forced onto its sub-cover, whose radius-16 balls
        # are lifted in lattice or shuffled order
        phi = pe.smooth_step_datum(0.2, 0.6, width=0.5)
        tol = 1e-8
        real_lift = pe._lift_once
        runs = []  # per run: whether the whole-box lift was forced, the balls lifted

        def forced_sub_cover(u, ball, *args):
            run = runs[-1]
            if ball.radius < max(u.values.shape):
                run["balls"].append((ball.center, ball.radius))
            elif not run["forced"]:
                run["forced"] = True
                raise sv.SolverDivergence("forced divergence")
            return real_lift(u, ball, *args)

        monkeypatch.setattr(pe, "_lift_once", forced_sub_cover)
        solutions = []
        for seed in (None, 123):
            runs.append({"forced": False, "balls": []})
            u, rep = pe.run_asymptotic_solve(phi, 0.0, small_grid(),
                                             pe.PerronConfig(tol=tol, shuffle_seed=seed))
            solutions.append(u)
            assert rep.converged and rep.radius_halvings[0] == 1
        lex, shuffled = (run["balls"] for run in runs)
        assert len(lex) == 16 and all(radius == 16 for _, radius in lex)
        assert sorted(lex) == sorted(shuffled) and lex != shuffled
        assert np.max(np.abs(solutions[0].values - solutions[1].values)) <= 10 * tol

    def test_tall_box_rejected_for_negative_curvature(self):
        grid = op.make_grid(2, 1.0, 0.05, 1.2, 33)
        phi = pe.constant_datum(0.5)
        with pytest.raises(ValueError):
            pe.run_asymptotic_solve(phi, -0.5, grid, pe.PerronConfig(tol=1e-8))

    def test_rejects_zero_sweeps(self):
        with pytest.raises(ValueError, match="max_sweeps"):
            pe.run_asymptotic_solve(pe.constant_datum(0.4), 0.0, small_grid(),
                                    pe.PerronConfig(max_sweeps=0))

    def test_rejects_unit_curvature(self):
        with pytest.raises(ValueError):
            pe.run_asymptotic_solve(pe.constant_datum(0.5), 1.0, small_grid(),
                                    pe.PerronConfig(tol=1e-8))


class TestStall:
    """A whole-box sweep that stops moving above tolerance raises a named stall."""

    @pytest.mark.parametrize("y_min, H, sweep, residual", [
        # zero is no lower barrier for H < 0
        pytest.param(0.05, -0.5, 2, 3.8339, id="negative_H"),
    ])
    def test_step_data_stall_is_named(self, y_min, H, sweep, residual):
        grid = op.make_grid(2, 2.0, y_min, 0.8, 33)
        phi = pe.smooth_step_datum(0.2, 0.8, width=0.5)
        with pytest.raises(pe.PerronStall) as info:
            pe.run_asymptotic_solve(phi, H, grid, pe.PerronConfig(tol=1e-8, max_sweeps=12))
        message = str(info.value)
        assert f"sweep {sweep}:" in message and "increment" in message
        assert "max at x = " in message
        reported = float(message.split("residual ")[1].split()[0])
        assert reported == pytest.approx(residual, rel=1e-3)

    def test_small_y_min_step_converges(self):
        # this case stalled while sweep 1 lifted balls smaller than the box
        # from the zero interior.  Whole-box lifts reach the solution that a
        # whole-box Newton solve with the same face data finds from another
        # start: its half-resolution solution, prolonged (on 33^2 the lift's
        # own start is the linearization)
        tol = 1e-8
        grid = op.make_grid(2, 2.0, 1e-4, 0.8, 33)
        phi = pe.smooth_step_datum(0.2, 0.8, width=0.5)
        u, rep = pe.run_asymptotic_solve(phi, 0.0, grid, pe.PerronConfig(tol=tol, max_sweeps=12))
        assert rep.converged and rep.final_residual <= tol
        assert rep.min_u >= -10 * tol and rep.max_above_upper <= 10 * tol

        def whole_box(values, axes):
            return sv.DirichletProblem(grid=op.GridFunction(axes, values),
                                       mask=np.ones(values.shape, dtype=bool), data=values, H=0.0)

        data = np.where(u.boundary, u.values, 0.0)
        solver_cfg = sv.SolverConfig(tol=tol * 1e-2)
        half, _ = sv.solve_dirichlet(whole_box(data[::2, ::2], tuple(a[::2] for a in u.axes)),
                                     solver_cfg)
        direct, _ = sv.solve_dirichlet(whole_box(data, u.axes), solver_cfg,
                                       initial=sv.prolong(half.values))
        assert np.max(np.abs(direct.values - u.values)) <= 10 * tol


class TestComparison:
    def test_identical_data(self):
        grid = small_grid()
        phi = pe.constant_datum(0.4)
        cfg = pe.PerronConfig(tol=1e-8)
        u1, _ = pe.run_asymptotic_solve(phi, 0.0, grid, cfg)
        u2, _ = pe.run_asymptotic_solve(phi, 0.0, grid, cfg)
        out = pe.comparison_check(u1, u2, cfg.tol)
        assert out["passed"]

    def test_ordered_constants(self):
        grid = small_grid()
        cfg = pe.PerronConfig(tol=1e-8)
        u1, _ = pe.run_asymptotic_solve(pe.constant_datum(0.3, c_max=0.5), 0.0, grid, cfg)
        u2, _ = pe.run_asymptotic_solve(pe.constant_datum(0.5, c_max=0.5), 0.0, grid, cfg)
        out = pe.comparison_check(u1, u2, cfg.tol)
        assert out["passed"]
        assert np.max(np.abs(u1.values - 0.3)) <= 1e-7
        assert np.max(np.abs(u2.values - 0.5)) <= 1e-7

    def test_mismatched_grids_rejected(self):
        u1 = op.make_grid(2, 1.0, 0.05, 0.65, 33)
        u2 = op.make_grid(2, 1.0, 0.05, 0.65, 17)
        with pytest.raises(ValueError):
            pe.comparison_check(u1, u2)


class TestAttainment:
    def test_constant_data_attained(self):
        grid = small_grid()
        phi = pe.constant_datum(0.5)
        u, _ = pe.run_asymptotic_solve(phi, 0.0, grid, pe.PerronConfig(tol=1e-8))
        report = pe.boundary_attainment_report(u, phi)
        assert report["max_error"] <= 1e-7

    def test_step_attainment_improves_with_smaller_y_min(self):
        phi = pe.smooth_step_datum(0.2, 0.8, width=0.4)
        errors = []
        for y_min in (0.1, 0.05):
            grid = op.make_grid(2, 1.5, y_min, 0.8, (49, 41))
            u, _ = pe.run_asymptotic_solve(phi, 0.0, grid, pe.PerronConfig(tol=1e-6))
            report = pe.boundary_attainment_report(u, phi)
            errors.append(report["max_error"])
        assert errors[1] < errors[0]

    def test_three_axis_grid_reports_worst_node_per_x1(self):
        # no solve: the first free layer is the datum in x_1 plus 0.01 x_2^2
        grid = op.make_grid(3, 0.5, 0.1, 0.9, 9)
        phi = pe.smooth_step_datum(0.3, 0.7, width=0.5)
        mesh = grid.meshgrid()
        u = grid.copy()
        u.values = phi(mesh[0]) + 0.01 * mesh[1] ** 2
        flat_stack = lambda x, y: np.full(np.shape(x), 0.1)  # noqa: E731
        report = pe.boundary_attainment_report(u, phi, stacks=[flat_stack], samples=5)
        assert len(report["rows"]) == 5
        for row in report["rows"]:
            assert abs(row["error"] - 0.01 * 0.5**2) <= 1e-12  # worst at |x_2| = 0.5
            assert abs(row["u"] - row["phi"] - 0.01 * 0.5**2) <= 1e-12
            assert abs(row["lower_margin"] - (row["phi"] - 0.1)) <= 1e-12  # min at x_2 = 0
        assert report["probe_height"] == grid.axes[-1][1]

    def test_margins_reported_against_barriers(self):
        grid = small_grid()
        phi = pe.smooth_step_datum(0.3, 0.7, width=0.5)
        cfg = pe.PerronConfig(tol=1e-8)
        u, rep = pe.run_asymptotic_solve(phi, 0.0, grid, cfg)
        stacks = pe._build_lower_stacks(phi, grid)
        caps = [ba.upper_cap_barrier(0.9, [0.0], phi, 0.0)]
        report = pe.boundary_attainment_report(u, phi, stacks=stacks, caps=caps)
        assert all("lower_margin" in row for row in report["rows"])
        assert all(row["lower_margin"] >= -1e-7 for row in report["rows"])
        assert all(row.get("upper_margin", math.inf) >= -1e-7 for row in report["rows"])
