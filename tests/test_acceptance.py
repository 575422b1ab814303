"""Acceptance criteria: one test per criterion, printed as a pass/fail line.

Each criterion runs at its stated tolerance; the heavy asymptotic runs use
the grids named in the criteria.  The suite prints one summary line per
criterion so a full run doubles as a verification protocol.
"""

import math
import time

import numpy as np
import pytest

from plateau_hyp import barriers as ba
from plateau_hyp import geometry as ge
from plateau_hyp import operator as op
from plateau_hyp import perron as pe
from plateau_hyp import solver as sv
from plateau_hyp.geometry import HYPERBOLIC, PARABOLIC

import oracles


def criterion_line(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {num}] {status} {name}: {detail}")


def random_points(rng, count, n=2, x_span=0.5, y_range=(0.3, 1.0)):
    pts = np.empty((count, n))
    pts[:, :-1] = rng.uniform(-x_span, x_span, size=(count, n - 1))
    pts[:, -1] = rng.uniform(*y_range, size=count)
    return pts


class TestCriterion1ExactResiduals:
    def test_pointwise_residuals_at_1e9(self):
        started = time.perf_counter()
        conv = op.orientation()
        rng = np.random.default_rng(101)
        slope = conv.solution_slope(0.5)
        cases = [
            ("constant", op.exact_patch("constant", c=0.7), 0.0),
            ("hemisphere", op.exact_patch("hemisphere", t=0.1, R=1.5), 0.0),
            ("matched plane", op.exact_patch("tilted_plane", a=slope, b=0.3), 0.5),
        ]
        worst = 0.0
        for _, patch, H in cases:
            for z in random_points(rng, 100, y_range=(0.25, 0.95)):
                worst = max(worst, abs(op.qh_pointwise(patch, z, PARABOLIC, H, n=2,
                                                       convention=conv)))
        elapsed = time.perf_counter() - started
        passed = worst <= 1e-9 and elapsed < 1.0
        criterion_line(1, "exact-solution residuals",
                       passed, f"max |residual| = {worst:.3e} (tol 1e-9), {elapsed:.2f} s")
        assert worst <= 1e-9
        assert elapsed < 1.0


class TestCriterion2OracleAgreement:
    def test_oracle_agreement_at_1e6(self):
        started = time.perf_counter()
        conv = op.orientation()
        rng = np.random.default_rng(102)
        H = 0.3
        families = [
            op.exact_patch("constant", c=0.8),
            op.exact_patch("tilted_plane", a=0.7, b=0.1),
            op.exact_patch("hemisphere", t=0.2, R=1.6),
        ]
        worst = 0.0
        for patch in families:
            for z in random_points(rng, 100, y_range=(0.35, 1.1)):
                resid = op.qh_pointwise(patch, z, PARABOLIC, H, n=2, convention=conv)
                oracle = op.graph_mean_curvature(patch, z, PARABOLIC, 2)
                worst = max(worst, abs(resid / 2.0 - (oracle - H)))

        def level_plane(xi):
            xi = np.atleast_1d(np.asarray(xi, dtype=float))
            return np.concatenate([xi, [1.3]])

        horo = op.numerical_mean_curvature(level_plane, np.array([0.1, -0.2]), 2,
                                           orientation_ref=np.array([0.0, 0.0, 1.0]))
        horo_err = abs(abs(horo) - 1.0)
        elapsed = time.perf_counter() - started
        passed = worst <= 1e-6 and horo_err <= 1e-6 and elapsed < 5.0
        criterion_line(2, "orientation oracle agreement", passed,
                       f"max |gap| = {worst:.3e}, horosphere |H|-1 = {horo_err:.3e} "
                       f"(tol 1e-6), {elapsed:.2f} s")
        assert worst <= 1e-6
        assert horo_err <= 1e-6
        assert elapsed < 5.0


class TestCriterion3DiscreteConvergence:
    GRIDS = (65, 129, 257)
    FLOOR = 1e-9  # exact discrete solutions sit at roundoff

    @staticmethod
    def order_of(seq, floor):
        if max(seq) <= floor:
            return float("inf")
        return min(math.log2(seq[i] / seq[i + 1]) for i in range(len(seq) - 1))

    def test_residual_and_solver_orders(self):
        started = time.perf_counter()
        conv = op.orientation()
        slope = conv.solution_slope(0.5)
        families = {
            "constant": (lambda z: 0.7, 0.0),
            "tilted_plane": (lambda z: slope * z[-1] + 0.3, 0.5),
            "hemisphere": (lambda z: 0.1 + math.sqrt(1.5**2 - float(np.dot(z, z))), 0.0),
        }
        resid_errs = {k: [] for k in families}
        solve_errs = {k: [] for k in families}
        for nodes in self.GRIDS:
            grid = op.make_grid(2, 0.45, 0.25, 0.95, nodes)
            for name, (fn, H) in families.items():
                u = op.sample_on_grid(grid, fn)
                res = op.qh_residual_grid(u, PARABOLIC, H, convention=conv)
                resid_errs[name].append(float(np.max(np.abs(res.values[~res.boundary]))))
                problem = sv.DirichletProblem(grid=grid, mask=np.ones(grid.values.shape, bool),
                                              data=u.values, H=H)
                sol, _ = sv.solve_dirichlet(problem, sv.SolverConfig(tol=1e-10),
                                            compute_bands=False)
                solve_errs[name].append(float(np.max(np.abs(sol.values - u.values))))
        elapsed = time.perf_counter() - started
        resid_orders = {k: self.order_of(v, self.FLOOR) for k, v in resid_errs.items()}
        solve_orders = {k: self.order_of(v, self.FLOOR) for k, v in solve_errs.items()}
        ok = all(o >= 1.9 for o in resid_orders.values()) and \
            all(o >= 1.9 for o in solve_orders.values()) and elapsed < 120.0
        criterion_line(3, "discrete convergence order",
                       ok, f"residual orders {resid_orders}, solve orders {solve_orders}, "
                           f"{elapsed:.1f} s")
        for name in families:
            assert resid_orders[name] >= 1.9, name
            assert solve_orders[name] >= 1.9, name
        assert elapsed < 120.0


class TestCriterion4BarrierConstruction:
    def test_quantitative_stack_battery(self):
        started = time.perf_counter()
        details = []
        for l in (0.5, 1.0, 2.0):
            alpha = ba.select_alpha(l)
            beta = alpha / 2.0
            g = math.cos(beta) * (math.sin(alpha) - math.sin(beta)) \
                / (math.cos(beta) - math.cos(alpha))
            assert l < g < l + 1
            assert abs(g - (l + 0.5)) <= 1e-10
            stack = ba.build_stack(l, alpha)
            t, R = stack.heights(), stack.radii()
            assert t[0] == -math.sin(beta)
            ratio = math.cos(alpha) / math.cos(beta)
            for k in range(len(t)):
                s_k = (1 - ratio**k) / (1 - ratio)
                s_k1 = (1 - ratio ** (k + 1)) / (1 - ratio)
                closed = s_k * math.sin(alpha) - s_k1 * math.sin(beta)
                assert abs(t[k] - closed) <= 1e-12
            pasting = max(abs(R[k] * math.cos(beta) - R[k - 1] * math.cos(alpha))
                          for k in range(1, len(R)))
            assert pasting <= 1e-14
            gaps = stack.limit_height - t
            assert np.all(gaps > 0) and np.all(np.diff(gaps) < 0)
            coef = (math.sin(alpha) - ratio * math.sin(beta)) / (1 - ratio)
            assert max(abs(gaps[k] - coef * ratio**k) for k in range(len(t))) <= 1e-12
            assert l < t[-1] < l + 1
            details.append(f"l={l}: alpha={alpha:.6f}, K={stack.K}")
        # bit-identical reproduction for l = 1
        a1, a2 = ba.select_alpha(1.0), ba.select_alpha(1.0)
        s1, s2 = ba.build_stack(1.0, a1), ba.build_stack(1.0, a2)
        assert a1 == a2 and s1.levels == s2.levels
        elapsed = time.perf_counter() - started
        criterion_line(4, "barrier construction", elapsed < 1.0,
                       "; ".join(details) + f"; reproduced bit-identically, {elapsed:.2f} s")
        assert elapsed < 1.0


@pytest.fixture(scope="module")
def perron_runs_129():
    """Shared asymptotic solves for criteria 5: 129^2, phi = 0.5, three H values."""
    runs = {}
    phi = pe.constant_datum(0.5)
    for H in (-0.5, 0.0, 0.5):
        grid = op.make_grid(2, 2.0, 1e-4, 0.8, 129)
        started = time.perf_counter()
        u, rep = pe.run_asymptotic_solve(phi, H, grid, pe.PerronConfig(tol=1e-8))
        runs[H] = (u, rep, time.perf_counter() - started)
    return runs


class TestCriterion5PerronConvergence:
    @pytest.mark.parametrize("H", [-0.5, 0.0, 0.5])
    def test_sandwiched_convergence_to_plane(self, perron_runs_129, H):
        u, rep, elapsed = perron_runs_129[H]
        tol = 1e-8
        y = u.meshgrid()[-1]
        y_min = float(u.axes[-1][0])
        plane = ba.make_supersolution(0.5, H)
        err = float(np.max(np.abs(u.values - plane(y))))
        h2 = max(u.spacing) ** 2
        bound = max(10 * tol, 5 * h2)
        monotone = all(inc >= -tol for inc in rep.increments)
        w_grid = plane.c + plane.slope * (y - y_min)
        sandwich = (np.min(u.values) >= -10 * tol
                    and np.max(u.values - w_grid) <= 10 * tol)
        ok = (rep.converged and rep.final_residual <= tol and err <= bound
              and monotone and sandwich and elapsed < 300.0)
        criterion_line(5, f"perron convergence H={H}", ok,
                       f"residual {rep.final_residual:.2e} (tol 1e-8), plane gap {err:.2e} "
                       f"(bound {bound:.2e}), sweeps {rep.sweeps}, {elapsed:.0f} s")
        assert rep.converged
        assert rep.final_residual <= tol
        assert err <= bound
        assert monotone
        assert sandwich
        assert elapsed < 300.0


class TestCriterion6ComparisonPrinciple:
    def test_three_ordered_pairs(self):
        started = time.perf_counter()
        tol = 1e-8
        cfg = pe.PerronConfig(tol=tol)
        grid = lambda: op.make_grid(2, 2.0, 0.05, 0.8, 65)
        pairs = [
            ("constants", pe.constant_datum(0.3, c_max=0.5), pe.constant_datum(0.5, c_max=0.5)),
            ("steps", pe.smooth_step_datum(0.2, 0.6, width=0.5, c_max=0.7),
             pe.smooth_step_datum(0.3, 0.7, width=0.5, c_max=0.7)),
            ("bumps", pe.bump_datum(0.0, 0.3, 1.0, base=0.2, c_max=0.7),
             pe.bump_datum(0.0, 0.3, 1.0, base=0.3, c_max=0.7)),
        ]
        gaps = {}
        for name, lo, hi in pairs:
            u1, _ = pe.run_asymptotic_solve(lo, 0.0, grid(), cfg)
            u2, _ = pe.run_asymptotic_solve(hi, 0.0, grid(), cfg)
            gaps[name] = pe.comparison_check(u1, u2, tol)["max_positive_part"]
        elapsed = time.perf_counter() - started
        ok = all(g <= 10 * tol for g in gaps.values()) and elapsed < 600.0
        criterion_line(6, "comparison principle", ok,
                       f"max (u1-u2)+ per pair {gaps} (tol {10 * tol:.1e}), {elapsed:.0f} s")
        for name, gap in gaps.items():
            assert gap <= 10 * tol, name
        assert elapsed < 600.0


class TestCriterion7OrderIndependence:
    def test_lexicographic_vs_shuffled(self, monkeypatch):
        # every sweep lifts one whole-box ball, so the two orders differ only
        # on a sub-cover: each run's sweep-1 whole-box lift is forced onto
        # its cover by radius-32 balls, lifted in lattice or shuffled order
        started = time.perf_counter()
        tol = 1e-8
        phi = pe.smooth_step_datum(0.2, 0.6, width=0.5, c_max=0.7)
        grid = lambda: op.make_grid(2, 2.0, 0.05, 0.8, 65)
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
        for seed in (None, 42):
            runs.append({"forced": False, "balls": []})
            u, rep = pe.run_asymptotic_solve(phi, 0.0, grid(),
                                             pe.PerronConfig(tol=tol, shuffle_seed=seed))
            solutions.append(u)
            assert rep.converged and rep.radius_halvings[0] == 1
        lex, shuffled = (run["balls"] for run in runs)
        gap = float(np.max(np.abs(solutions[0].values - solutions[1].values)))
        elapsed = time.perf_counter() - started
        reordered = sorted(lex) == sorted(shuffled) and lex != shuffled
        ok = gap <= 10 * tol and reordered and elapsed < 600.0
        criterion_line(7, "ball order independence", ok,
                       f"max |u_lex - u_shuffled| = {gap:.2e} (tol {10 * tol:.1e}) over "
                       f"{len(lex)} sub-cover balls lifted per run, {elapsed:.0f} s")
        assert len(lex) == 16 and all(radius == 32 for _, radius in lex)
        assert reordered
        assert gap <= 10 * tol
        assert elapsed < 600.0


class TestCriterion8BoundaryAttainment:
    HX = 0.125
    HY = 0.0495

    def run(self, y_min, half_width=6.0, ny=81):
        phi = pe.smooth_step_datum(0.2, 0.8, center=0.0, width=0.5)
        nx = int(round(2 * half_width / self.HX)) + 1
        axes_x = np.linspace(-half_width, half_width, nx)
        axes_y = y_min + self.HY * np.arange(ny)
        grid = op.GridFunction((axes_x, axes_y), np.zeros((nx, ny)))
        u, rep = pe.run_asymptotic_solve(phi, 0.0, grid, pe.PerronConfig(tol=1e-4))
        return u, rep, phi

    def test_attainment_trend_and_truncation_stability(self):
        started = time.perf_counter()
        errors = []
        base = {}
        for y_min in (0.08, 0.04, 0.02):
            u, rep, phi = self.run(y_min)
            report = pe.boundary_attainment_report(u, phi, samples=41)
            errors.append(report["max_error"])
            if y_min == 0.04:
                base["u"] = u
        strict = errors[0] > errors[1] > errors[2]

        # truncation rerun: half-width and height window doubled, same spacings
        u_big, _, _ = self.run(0.04, half_width=12.0, ny=161)
        u0 = base["u"]
        ix = np.isin(np.round(u_big.axes[0], 10), np.round(u0.axes[0], 10))
        iy = np.isin(np.round(u_big.axes[1], 10), np.round(u0.axes[1], 10))
        shared = u_big.values[np.ix_(ix, iy)]
        xs, ys = np.meshgrid(u0.axes[0], u0.axes[1], indexing="ij")
        core = (np.abs(xs) <= 3.0) & (ys <= 2.0)
        movement = float(np.max(np.abs(shared[core] - u0.values[core])))
        tol = 1e-4
        elapsed = time.perf_counter() - started
        ok = strict and movement <= 10 * tol and elapsed < 900.0
        criterion_line(8, "boundary attainment", ok,
                       f"attainment errors {['%.4f' % e for e in errors]} strictly decreasing: "
                       f"{strict}; truncation movement {movement:.2e} (tol {10 * tol:.1e}), "
                       f"{elapsed:.0f} s")
        assert strict
        assert movement <= 10 * tol
        assert elapsed < 900.0


class TestCriterion9HyperbolicStructure:
    def test_dilation_structure_oracles(self):
        started = time.perf_counter()
        struct = ge.killing_structure(HYPERBOLIC)
        rng = np.random.default_rng(109)
        worst_gamma = 0.0
        worst_drift = 0.0
        for _ in range(50):
            p = np.append(rng.normal(size=2) * 0.7, rng.uniform(0.4, 2.0))
            z = struct.field(p)
            zz = oracles.hyperbolic_inner(z, z, p[-1])
            worst_gamma = max(worst_gamma, abs(struct.gamma(p) - 1.0 / zz))
            oracle = oracles.fd_covariant_derivative(struct.field, p)
            worst_drift = max(worst_drift, float(np.max(np.abs(struct.drift(p) - oracle))))

        radial = op.ScalarPatch(lambda z: 0.35)
        mc = op.graph_mean_curvature(radial, np.array([0.2, 0.9]), HYPERBOLIC, 2)
        elapsed = time.perf_counter() - started
        ok = worst_gamma <= 1e-6 and worst_drift <= 1e-6 and abs(mc) <= 1e-6 and elapsed < 5.0
        criterion_line(9, "dilation Killing structure", ok,
                       f"gamma gap {worst_gamma:.2e}, drift gap {worst_drift:.2e}, "
                       f"radial-graph curvature {abs(mc):.2e} (tol 1e-6), {elapsed:.2f} s")
        assert worst_gamma <= 1e-6
        assert worst_drift <= 1e-6
        assert abs(mc) <= 1e-6
        assert elapsed < 5.0
