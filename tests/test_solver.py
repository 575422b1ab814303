"""Masked Dirichlet solver: recovery, comparison, diagnostics, divergence."""

import math

import numpy as np
import pytest

from plateau_hyp import operator as op
from plateau_hyp import solver as sv
from plateau_hyp.geometry import PARABOLIC


def full_problem(grid, fn, H):
    data = op.sample_on_grid(grid, fn).values
    mask = np.ones(grid.values.shape, dtype=bool)
    return sv.DirichletProblem(grid=grid, mask=mask, data=data, H=H), data


class TestRecovery:
    def test_constant_data_recovered_exactly(self):
        grid = op.make_grid(2, 0.5, 0.2, 1.0, 25)
        problem, data = full_problem(grid, lambda z: 0.8, 0.0)
        u, rep = sv.solve_dirichlet(problem, sv.SolverConfig(tol=1e-12))
        assert rep.converged
        assert np.max(np.abs(u.values - data)) <= 1e-12

    def test_plane_recovered_for_matched_curvature(self):
        conv = op.orientation()
        slope = conv.solution_slope(0.5)
        grid = op.make_grid(2, 0.5, 0.2, 1.0, 33)
        problem, data = full_problem(grid, lambda z: slope * z[-1] + 0.3, 0.5)
        u, rep = sv.solve_dirichlet(problem)
        assert np.max(np.abs(u.values - data)) <= 1e-10

    def test_hemisphere_refinement_order(self):
        errs = []
        for nodes in (33, 65, 129):
            grid = op.make_grid(2, 0.45, 0.25, 0.95, nodes)
            problem, data = full_problem(
                grid, lambda z: 0.1 + math.sqrt(1.5**2 - float(np.dot(z, z))), 0.0)
            u, _ = sv.solve_dirichlet(problem, sv.SolverConfig(tol=1e-10))
            errs.append(float(np.max(np.abs(u.values - data))))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    def test_ball_mask_recovery(self):
        grid = op.make_grid(2, 0.5, 0.2, 1.0, 49)
        mask = sv.ball_mask(grid, [0.0, 0.6], 0.3)
        data = op.sample_on_grid(grid, lambda z: math.sqrt(1.2**2 - float(np.dot(z, z)))).values
        problem = sv.DirichletProblem(grid=grid, mask=mask, data=data, H=0.0)
        u, rep = sv.solve_dirichlet(problem)
        assert rep.converged
        assert np.max(np.abs(u.values[mask] - data[mask])) <= 1e-4

    def test_boundary_attained_exactly(self):
        grid = op.make_grid(2, 0.5, 0.2, 1.0, 25)
        problem, data = full_problem(grid, lambda z: 0.4 + 0.1 * math.sin(2 * z[0]), 0.0)
        u, _ = sv.solve_dirichlet(problem)
        boundary = problem.boundary_mask()
        assert np.array_equal(u.values[boundary], data[boundary])

    @pytest.mark.parametrize("n", [1, 3])
    def test_other_dimensions(self, n):
        grid = op.make_grid(n, 0.4, 0.3, 0.9, 13 if n == 3 else 41)
        problem, data = full_problem(
            grid, lambda z: 0.1 + math.sqrt(2.0**2 - float(np.dot(z, z))), 0.0)
        u, rep = sv.solve_dirichlet(problem)
        assert rep.converged
        assert np.max(np.abs(u.values - data)) <= 5e-3


class TestResidualNorm:
    def test_exact_solution_below_tolerance(self):
        grid = op.make_grid(2, 0.5, 0.2, 1.0, 25)
        problem, data = full_problem(grid, lambda z: 0.8, 0.0)
        u, _ = sv.solve_dirichlet(problem)
        assert sv.residual_norm(u, problem) <= 1e-12

    def test_point_perturbation_scales_inverse_h_squared(self):
        norms = {}
        for nodes in (33, 65):
            grid = op.make_grid(2, 0.5, 0.2, 1.0, nodes)
            problem, data = full_problem(grid, lambda z: 0.5, 0.0)
            values = data.copy()
            center = (nodes // 2, nodes // 2)
            delta = 1e-6
            values[center] += delta
            norms[nodes] = sv.residual_norm(values, problem)
        ratio = norms[65] / norms[33]
        assert 3.0 <= ratio <= 5.0  # halving h quadruples the stencil response

    def test_constant_forcing_of_zero_function(self):
        grid = op.make_grid(2, 0.5, 0.2, 1.0, 25)
        problem, _ = full_problem(grid, lambda z: 0.0, 0.5)
        assert sv.residual_norm(np.zeros(grid.values.shape), problem) == 1.0


class TestComparisonAndUniqueness:
    def test_ordered_data_give_ordered_solutions(self):
        grid = op.make_grid(2, 0.5, 0.2, 1.0, 33)
        mask = sv.ball_mask(grid, [0.0, 0.6], 0.32)
        lo = op.sample_on_grid(grid, lambda z: 0.3 + 0.05 * math.sin(3 * z[0])).values
        hi = lo + 0.12
        p1 = sv.DirichletProblem(grid=grid, mask=mask, data=lo, H=0.0)
        p2 = sv.DirichletProblem(grid=grid, mask=mask, data=hi, H=0.0)
        u1, _ = sv.solve_dirichlet(p1)
        u2, _ = sv.solve_dirichlet(p2)
        gap = np.max(np.maximum(u1.values[mask] - u2.values[mask], 0.0))
        assert gap <= 1e-8

    def test_two_initializations_agree(self):
        grid = op.make_grid(2, 0.5, 0.2, 1.0, 33)
        problem, _ = full_problem(grid, lambda z: 0.4 + 0.2 * math.tanh(z[0]), 0.2)
        cfg = sv.SolverConfig(tol=1e-10)
        ua, _ = sv.solve_dirichlet(problem, cfg, initial="harmonic")
        ub, _ = sv.solve_dirichlet(problem, cfg, initial="mean")
        assert np.max(np.abs(ua.values - ub.values)) <= 10 * cfg.tol


class TestGradientDiagnostic:
    def test_constant_solution_has_zero_bands(self):
        grid = op.make_grid(2, 0.5, 0.2, 1.0, 25)
        problem, _ = full_problem(grid, lambda z: 0.8, 0.0)
        u, rep = sv.solve_dirichlet(problem)
        assert rep.gradient_bands
        assert all(b["sup_gradient"] <= 1e-11 for b in rep.gradient_bands)

    def test_band_sup_nondecreasing_as_distance_shrinks(self):
        grid = op.make_grid(2, 0.45, 0.25, 0.95, 49)
        problem, _ = full_problem(
            grid, lambda z: 0.1 + math.sqrt(1.5**2 - float(np.dot(z, z))), 0.0)
        u, rep = sv.solve_dirichlet(problem)
        sups = [b["sup_gradient"] for b in sorted(rep.gradient_bands, key=lambda b: b["distance"])]
        assert all(sups[i] >= sups[i + 1] - 1e-12 for i in range(len(sups) - 1))

    def test_band_sup_stable_under_refinement(self):
        sups = {}
        for nodes in (49, 97):
            grid = op.make_grid(2, 0.45, 0.25, 0.95, nodes)
            problem, _ = full_problem(
                grid, lambda z: 0.1 + math.sqrt(1.5**2 - float(np.dot(z, z))), 0.0)
            u, rep = sv.solve_dirichlet(problem)
            bands = sorted(rep.gradient_bands, key=lambda b: b["distance"])
            sups[nodes] = bands[0]["sup_gradient"]
        assert abs(sups[49] - sups[97]) / sups[97] <= 0.05


def hemisphere_problem(nodes):
    grid = op.make_grid(2, 0.45, 0.25, 0.95, nodes)
    return full_problem(grid, lambda z: 0.1 + math.sqrt(1.5**2 - float(np.dot(z, z))), 0.0)[0]


class TestFactorization:
    def test_one_sparse_factorization_per_assembly(self, monkeypatch):
        problem = hemisphere_problem(33)  # 31^2 unknowns: the sparse branch
        counts = {"splu": 0, "sparse_assemblies": 0}
        real_splu = sv.spla.splu
        real_assemble = sv.JacobianBuilder.assemble

        def counting_splu(*args, **kwargs):
            counts["splu"] += 1
            return real_splu(*args, **kwargs)

        def counting_assemble(self, *args, **kwargs):
            if not self.dense:
                counts["sparse_assemblies"] += 1
            return real_assemble(self, *args, **kwargs)

        monkeypatch.setattr(sv.spla, "splu", counting_splu)
        monkeypatch.setattr(sv.JacobianBuilder, "assemble", counting_assemble)
        _, rep = sv.solve_dirichlet(problem, sv.SolverConfig(tol=1e-10))
        assert rep.converged
        newton_assemblies = counts["sparse_assemblies"] - 1  # one is the harmonic start
        assert rep.iterations > newton_assemblies >= 1  # some Jacobians served several steps
        assert counts["splu"] == counts["sparse_assemblies"]


class TestDivergence:
    def test_impossible_data_reports_no_graph_solution(self):
        grid = op.make_grid(2, 0.5, 0.2, 1.0, 17)
        mesh = grid.meshgrid()
        data = 500.0 * np.sign(np.sin(40.0 * mesh[0]) + 0.3 * np.cos(37.0 * mesh[1]))
        mask = np.ones(grid.values.shape, dtype=bool)
        problem = sv.DirichletProblem(grid=grid, mask=mask, data=data, H=0.5)
        with pytest.raises(sv.SolverDivergence):
            sv.solve_dirichlet(problem, sv.SolverConfig(tol=1e-10, max_iters=8, picard_sweeps=5))

    def test_rejects_unit_curvature(self):
        grid = op.make_grid(2, 0.5, 0.2, 1.0, 17)
        with pytest.raises(ValueError):
            sv.DirichletProblem(grid=grid, mask=np.ones(grid.values.shape, bool),
                                data=np.zeros(grid.values.shape), H=1.0)

    def test_rejects_empty_interior(self):
        grid = op.make_grid(2, 0.5, 0.2, 1.0, 17)
        mask = np.zeros(grid.values.shape, dtype=bool)
        mask[3, 3] = True
        with pytest.raises(ValueError):
            sv.DirichletProblem(grid=grid, mask=mask, data=np.zeros(grid.values.shape), H=0.0)

    @pytest.mark.parametrize("nodes", [17, 33])
    def test_singular_retry_jacobian_reports_divergence(self, nodes, monkeypatch):
        # The first Newton step succeeds; the step from the reused Jacobian is
        # unusable, so the solver rebuilds it, and every matrix from then on
        # is singular.  That must end as divergence, not as a linear algebra
        # error.  17^2 takes the dense branch, 33^2 the sparse one.
        problem = hemisphere_problem(nodes)
        start = sv.harmonic_extension(problem)
        calls = {"n": 0}

        def nan_step(rhs):
            return np.full_like(rhs, np.nan)

        if nodes == 17:
            real_solve = np.linalg.solve

            def flaky_solve(a, b):
                calls["n"] += 1
                if calls["n"] == 1:
                    return real_solve(a, b)
                if calls["n"] == 2:
                    return nan_step(b)
                raise np.linalg.LinAlgError("Singular matrix")

            monkeypatch.setattr(np.linalg, "solve", flaky_solve)
        else:
            real_splu = sv.spla.splu

            class StaleLU:
                def __init__(self, lu):
                    self.lu = lu
                    self.uses = 0

                def solve(self, rhs):
                    self.uses += 1
                    return self.lu.solve(rhs) if self.uses == 1 else nan_step(rhs)

            def flaky_splu(*args, **kwargs):
                calls["n"] += 1
                if calls["n"] == 1:
                    return StaleLU(real_splu(*args, **kwargs))
                raise RuntimeError("Factor is exactly singular")

            monkeypatch.setattr(sv.spla, "splu", flaky_splu)
        with pytest.raises(sv.SolverDivergence):
            sv.solve_dirichlet(problem, sv.SolverConfig(tol=1e-12), initial=start)
        assert calls["n"] >= 3  # the retry and the fallback both asked for a factorization
