"""Masked Dirichlet solver: recovery, comparison, diagnostics, divergence."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from plateau_hyp import geometry as ge
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
        mean_start = problem.data.copy()
        mean_start[problem.interior_mask()] = float(np.mean(problem.data[problem.boundary_mask()]))
        ua, _ = sv.solve_dirichlet(problem, cfg)
        ub, _ = sv.solve_dirichlet(problem, cfg, initial=mean_start)
        assert np.max(np.abs(ua.values - ub.values)) <= 10 * cfg.tol


class TestGradientDiagnostic:
    def test_constant_solution_has_zero_bands(self):
        grid = op.make_grid(2, 0.5, 0.2, 1.0, 25)
        problem, _ = full_problem(grid, lambda z: 0.8, 0.0)
        u, rep = sv.solve_dirichlet(problem, compute_bands=True)
        assert rep.gradient_bands
        assert all(b["sup_gradient"] <= 1e-11 for b in rep.gradient_bands)

    def test_band_sup_nondecreasing_as_distance_shrinks(self):
        grid = op.make_grid(2, 0.45, 0.25, 0.95, 49)
        problem, _ = full_problem(
            grid, lambda z: 0.1 + math.sqrt(1.5**2 - float(np.dot(z, z))), 0.0)
        u, rep = sv.solve_dirichlet(problem, compute_bands=True)
        sups = [b["sup_gradient"] for b in sorted(rep.gradient_bands, key=lambda b: b["distance"])]
        assert sups
        assert all(sups[i] >= sups[i + 1] - 1e-12 for i in range(len(sups) - 1))

    def test_band_sup_stable_under_refinement(self):
        sups = {}
        for nodes in (49, 97):
            grid = op.make_grid(2, 0.45, 0.25, 0.95, nodes)
            problem, _ = full_problem(
                grid, lambda z: 0.1 + math.sqrt(1.5**2 - float(np.dot(z, z))), 0.0)
            u, rep = sv.solve_dirichlet(problem, compute_bands=True)
            bands = sorted(rep.gradient_bands, key=lambda b: b["distance"])
            sups[nodes] = bands[0]["sup_gradient"]
        assert abs(sups[49] - sups[97]) / sups[97] <= 0.05


def hemisphere_problem(nodes):
    grid = op.make_grid(2, 0.45, 0.25, 0.95, nodes)
    return full_problem(grid, lambda z: 0.1 + math.sqrt(1.5**2 - float(np.dot(z, z))), 0.0)[0]


def counting_factorizations(monkeypatch) -> dict:
    """Counts of the factorizations made through each LU backend, by matrix size."""
    sizes = {"band": [], "superlu": []}
    real_gbtrf, real_splu = sv._gbtrf, sv.spla.splu

    def counting_gbtrf(band, *args, **kwargs):
        sizes["band"].append(band.shape[1])
        return real_gbtrf(band, *args, **kwargs)

    def counting_splu(A, *args, **kwargs):
        sizes["superlu"].append(A.shape[0])
        return real_splu(A, *args, **kwargs)

    monkeypatch.setattr(sv, "_gbtrf", counting_gbtrf)
    monkeypatch.setattr(sv.spla, "splu", counting_splu)
    return sizes


class TestFactorization:
    @pytest.mark.parametrize("nodes", [17, 33, 98])
    def test_one_factorization_per_assembly(self, nodes, monkeypatch):
        # 15^2 and 31^2 unknowns are factored by the band LU, the 96^2 of an
        # even box (no nested iteration) by SuperLU; either way each
        # assembled matrix is factored once
        backend = "superlu" if nodes == 98 else "band"
        problem = hemisphere_problem(nodes)
        sizes = counting_factorizations(monkeypatch)
        assemblies = [0]
        real_assemble = sv.JacobianBuilder.assemble

        def counting_assemble(self, *args, **kwargs):
            assemblies[0] += 1
            return real_assemble(self, *args, **kwargs)

        monkeypatch.setattr(sv.JacobianBuilder, "assemble", counting_assemble)
        _, rep = sv.solve_dirichlet(problem, sv.SolverConfig(tol=1e-10))
        assert rep.converged and rep.levels == []
        newton_assemblies = assemblies[0] - 1  # one is the linearized start
        assert rep.iterations > newton_assemblies >= 1  # some Jacobians served several steps
        assert sizes[backend] == [(nodes - 2) ** 2] * assemblies[0]
        assert sum(map(len, sizes.values())) == assemblies[0]

    def test_sparse_factors_order_for_the_symmetric_stencil_pattern(self, monkeypatch):
        # 95^2 unknowns take SuperLU; the nested-dissection numbering fills at
        # most 3/4 of what SuperLU's default COLAMD ordering does (0.60
        # measured), with the same step
        J, solve, lu, rhs = factored_start_jacobian(hemisphere_problem(97), monkeypatch)
        colamd = sv.spla.splu(J, permc_spec="COLAMD")
        assert lu.L.nnz + lu.U.nnz <= 0.75 * (colamd.L.nnz + colamd.U.nnz)
        reference = colamd.solve(rhs)
        assert np.max(np.abs(solve(rhs) - reference)) <= 1e-12 * np.max(np.abs(reference))


def factored_start_jacobian(problem, monkeypatch):
    """The sparse Jacobian at the linearized start, factored by ``_factorize``.

    Returns (the matrix in C order, as CSC for SuperLU's own orderings, the
    solver, its SuperLU factors of the matrix renumbered by nested
    dissection, the Newton right-hand side).
    """
    interior = problem.interior_mask()
    values = sv.linearized_start(problem)
    resid = sv._residual_fn(problem)
    F = resid(values)
    builder = sv._cached_builder(values.shape, interior)
    J = builder.assemble(values, resid)
    assert builder.kl is None  # numbered by nested dissection for SuperLU
    factors = []
    real_splu = sv.spla.splu

    def keeping_splu(*args, **kwargs):
        factors.append(real_splu(*args, **kwargs))
        return factors[-1]

    with monkeypatch.context() as patch:
        patch.setattr(sv.spla, "splu", keeping_splu)
        solve = sv._factorize(J, builder)
    (lu,) = factors
    return J.tocsc(), solve, lu, -F[interior]


class TestBandLU:
    """Narrow-band Jacobians keep C order and are factored by LAPACK's band LU."""

    @staticmethod
    def box_interior(shape):
        return sv.stencil_reduce(np.ones(shape, dtype=bool), np.logical_and)

    @pytest.mark.parametrize("n, nodes, window", [(2, 33, False), (2, 41, True),
                                                  (3, 9, False), (3, 13, False)])
    def test_band_step_equals_the_superlu_step(self, n, nodes, window, monkeypatch):
        problem = hemisphere_box(n, nodes)
        if window:
            problem = sv.DirichletProblem(grid=problem.grid,
                                          mask=sv.ball_mask(problem.grid, [0.0, 0.6], 0.33),
                                          data=problem.data, H=0.0)
        interior = problem.interior_mask()
        values = sv.linearized_start(problem)
        resid = sv._residual_fn(problem)
        F = resid(values)
        steps = []
        for layout, work in (("band", sv.BAND_WORK), ("nested", 0)):
            monkeypatch.setattr(sv, "BAND_WORK", work)
            builder = sv.JacobianBuilder(values.shape, interior)
            assert (builder.kl is not None) == (layout == "band")
            steps.append(sv._factorize(builder.assemble(values, resid), builder)(-F[interior]))
        band, superlu = steps
        assert np.max(np.abs(band - superlu)) <= 1e-12 * np.max(np.abs(superlu))

    @pytest.mark.parametrize("shape, kl", [((65, 65), 64), ((13, 13, 13), 11 * 11 + 11 + 1),
                                           ((97, 97), None), ((17, 17, 17), None)])
    def test_layout_rule(self, shape, kl):
        # m kl^2 against BAND_WORK: 16.3e6 and 23.5e6 take the band, 83.2e6
        # and 196e6 nested dissection
        interior = self.box_interior(shape)
        builder = sv.JacobianBuilder(shape, interior)
        assert builder.kl == kl
        m = builder.m
        # every builder numbers in C order, where the matrix has half-bandwidth
        # c_order_kl, its largest offset, and one diagonal per stencil entry
        # in ascending order; the nested-dissection numbering is SuperLU's alone
        inner = [s - 2 for s in shape]
        c_order_kl = sum(math.prod(inner[a + 1:]) for a in range(len(shape)))
        assert np.max(np.abs(builder.offsets)) == c_order_kl
        assert builder.offsets.size == 3 ** len(shape) and np.all(np.diff(builder.offsets) > 0)
        if kl is None:
            assert m * c_order_kl**2 > sv.BAND_WORK
            nested = builder.nested
            assert np.array_equal(nested.order, sv.nested_dissection_order(interior))
            assert np.array_equal(nested.order[nested.position], np.arange(m))
        else:
            assert m * kl**2 <= sv.BAND_WORK

    @pytest.mark.parametrize("shape", [(17, 17), (9, 7, 8)])
    def test_band_storage_holds_the_matrix(self, shape, monkeypatch):
        # the diagonals hold stencil entry k of node r at J[r, r + o_k], and
        # _factorize hands gbtrf LAPACK's layout: A[i, j] at row 2 kl + i - j
        # of column j, kl rows above it left free for the fill of pivoting
        d, inner = len(shape), tuple(s - 2 for s in shape)
        builder = sv.JacobianBuilder(shape, self.box_interior(shape))
        kl, m = builder.kl, builder.m
        stencil = np.arange(1.0, 3**d * m + 1.0).reshape((3,) * d + inner)  # all distinct
        J = sv.sp.dia_matrix((builder._diagonals(stencil.copy()), builder.offsets), shape=(m, m))
        A = J.toarray()
        for vector in itertools.product((-1, 0, 1), repeat=d):
            for node in np.ndindex(*inner):
                other = tuple(i + o for i, o in zip(node, vector))
                if all(0 <= i < s for i, s in zip(other, inner)):
                    entry = stencil[tuple(o + 1 for o in vector) + node]
                    assert A[np.ravel_multi_index(node, inner),
                             np.ravel_multi_index(other, inner)] == entry
        bands = []

        def recording_gbtrf(band, *args, **kwargs):
            bands.append(band.copy())
            return band, None, 1  # reported singular: no solve follows

        monkeypatch.setattr(sv, "_gbtrf", recording_gbtrf)
        sv._factorize(J, builder)
        (band,) = bands
        i, j = np.nonzero(np.abs(np.subtract.outer(np.arange(m), np.arange(m))) <= kl)
        assert np.array_equal(band[2 * kl + i - j, j], A[i, j])
        # every coupling that stays in the box, and no other
        couplings = math.prod(3 * s - 2 for s in inner)
        assert np.count_nonzero(band) == np.count_nonzero(A) == couplings

    def test_isolated_interior_nodes_make_a_zero_band(self):
        # three 3 x 3 patches: each centre is an interior node with no
        # interior neighbor, so the interior block is diagonal and the band
        # holds zeros off the diagonal: the band of their 7 x 6 bounding box
        # (kl = 6 + 1), whose other nodes are unit rows
        grid = op.make_grid(2, 0.5, 0.2, 1.0, 17)
        mask = np.zeros(grid.values.shape, dtype=bool)
        for i, j in ((3, 3), (3, 8), (9, 5)):
            mask[i - 1:i + 2, j - 1:j + 2] = True
        data = op.sample_on_grid(grid, lambda z: 0.4 + 0.3 * z[0] * z[-1]).values
        problem = sv.DirichletProblem(grid=grid, mask=mask, data=data, H=0.0)
        interior = problem.interior_mask()
        builder = sv.JacobianBuilder(mask.shape, interior)
        assert builder.m == 3 and builder.kl == 7
        values = np.where(interior, 0.0, data)
        resid = sv._residual_fn(problem)
        F = resid(values)
        J = builder.assemble(values, resid)
        assert np.array_equal(J.toarray(), np.diag(J.diagonal()))
        diagonal = J.diagonal()[builder.inside.reshape(-1)]
        step = sv._factorize(J, builder)(-F[interior])
        assert np.allclose(step, -F[interior] / diagonal, rtol=1e-14, atol=0.0)
        u, rep = sv.solve_dirichlet(problem, sv.SolverConfig(tol=1e-12))
        assert rep.converged and sv.residual_norm(u, problem) <= 1e-12

    def test_singular_band_matrix_gives_no_step_and_divergence(self, monkeypatch):
        # a zero first column: gbtrf reports U[0, 0] == 0 (info 1), which is
        # no step; Newton and the frozen-W fallback then end in divergence
        problem = hemisphere_problem(17)
        start = sv.linearized_start(problem)
        infos = []
        real_gbtrf, real_assemble = sv._gbtrf, sv.JacobianBuilder.assemble

        def recording_gbtrf(*args, **kwargs):
            lu, piv, info = real_gbtrf(*args, **kwargs)
            infos.append(info)
            return lu, piv, info

        def singular_assemble(self, *args, **kwargs):
            J = real_assemble(self, *args, **kwargs)
            J.data[:, 0] = 0.0  # column j of the matrix is column j of its diagonals
            return J

        monkeypatch.setattr(sv, "_gbtrf", recording_gbtrf)
        monkeypatch.setattr(sv.JacobianBuilder, "assemble", singular_assemble)
        interior = problem.interior_mask()
        builder = sv.JacobianBuilder(start.shape, interior)
        resid = sv._residual_fn(problem)
        F = resid(start)
        assert sv._factorize(builder.assemble(start, resid), builder)(-F[interior]) is None
        with pytest.raises(sv.SolverDivergence, match="on the 17x17 grid"):
            sv.solve_dirichlet(problem, sv.SolverConfig(tol=1e-12), initial=start)
        assert len(infos) >= 3 and all(info == 1 for info in infos)


class TestNestedDissection:
    """The sparse branch numbers its unknowns by nested dissection of the box."""

    @staticmethod
    def box_interior(shape):
        return sv.stencil_reduce(np.ones(shape, dtype=bool), np.logical_and)

    @pytest.mark.parametrize("shape", [(9,), (12,), (17, 17), (18, 11), (11, 9, 13),
                                       (10, 12, 8)])
    def test_whole_box_positions_are_a_permutation(self, shape):
        order = sv.nested_dissection_order(self.box_interior(shape))
        assert np.array_equal(np.sort(order), np.arange(math.prod(s - 2 for s in shape)))

    def test_ball_interior_positions_are_a_permutation(self):
        # a ball of 7,917 unknowns, too wide a band for the band LU
        grid = op.make_grid(2, 0.5, 0.2, 1.0, 129)
        mask = sv.ball_mask(grid, [0.1, 0.55], 0.36)
        interior = sv.stencil_reduce(mask, np.logical_and)
        builder = sv.JacobianBuilder(mask.shape, interior)
        assert builder.kl is None
        nested = builder.nested
        assert np.array_equal(np.sort(nested.order), np.arange(builder.m))
        assert np.array_equal(nested.order[nested.position], np.arange(builder.m))

    @pytest.mark.parametrize("shape, axis", [((21, 15), 0), ((14, 19), 1), ((9, 9, 12), 2)])
    def test_top_separator_is_numbered_after_both_halves(self, shape, axis):
        # the longest interior axis is cut at its middle plane; the lower half
        # comes first, then the upper half, then the plane
        interior = self.box_interior(shape)
        order = sv.nested_dissection_order(interior)
        coord = np.nonzero(interior)[axis] - 1
        mid = (shape[axis] - 2) // 2
        side = np.sign(coord[order] - mid)
        blocks = [s for i, s in enumerate(side) if i == 0 or s != side[i - 1]]
        assert blocks == [-1, 1, 0]
        assert np.count_nonzero(side == 0) == math.prod(s - 2 for i, s in enumerate(shape)
                                                        if i != axis)

    def test_numbering_is_computed_once_per_builder(self, monkeypatch):
        # 95^2 unknowns on the LU path (start values given): the builder keeps
        # C order until its first SuperLU factorization numbers the unknowns,
        # and every later factorization reuses that numbering
        problem = hemisphere_problem(97)
        monkeypatch.setattr(sv, "_BUILDER_CACHE", {})
        calls = []
        real = sv.nested_dissection_order

        def counting(interior):
            calls.append(interior.shape)
            return real(interior)

        monkeypatch.setattr(sv, "nested_dissection_order", counting)
        builder = sv._cached_builder(problem.mask.shape, problem.interior_mask())
        assert builder.kl is None and "nested" not in vars(builder)
        sizes = counting_factorizations(monkeypatch)
        start = sv.linearized_start(problem)
        assert calls == [(97, 97)] and "nested" in vars(builder)
        u, rep = sv.solve_dirichlet(problem, sv.SolverConfig(tol=1e-10), initial=start)
        assert rep.converged and sv.residual_norm(u, problem) <= 1e-10
        assert len(sizes["superlu"]) >= 2 and calls == [(97, 97)]

    def test_krylov_levels_never_number_by_nested_dissection(self, monkeypatch):
        # a 129^2 whole box takes GMRES steps on 65^2 and 129^2 and band LU
        # steps on 33^2, so no level needs the SuperLU numbering
        def refuse(interior):
            raise AssertionError(f"numbered a {interior.shape} interior for SuperLU")

        monkeypatch.setattr(sv, "nested_dissection_order", refuse)
        monkeypatch.setattr(sv, "_BUILDER_CACHE", {})
        problem = hemisphere_box(2, 129)
        u, rep = sv.solve_dirichlet(problem, sv.SolverConfig(tol=1e-10))
        assert rep.converged and rep.lu_fallbacks == 0
        assert [level.shape for level in rep.levels] == [(33, 33), (65, 65)]
        assert min(rep.krylov_iterations) >= 1
        assert sv.residual_norm(u, problem) <= 1e-10

    def test_fills_less_than_minimum_degree_on_a_cube(self, monkeypatch):
        # 15^3 unknowns: at most 0.85 of the fill of SuperLU's minimum degree
        # on A + A^T (0.76 measured), and the step of a COLAMD solve
        J, solve, lu, rhs = factored_start_jacobian(hemisphere_box(3, 17), monkeypatch)
        mmd = sv.spla.splu(J, permc_spec="MMD_AT_PLUS_A")
        assert lu.L.nnz + lu.U.nnz <= 0.85 * (mmd.L.nnz + mmd.U.nnz)
        reference = sv.spla.splu(J, permc_spec="COLAMD").solve(rhs)
        assert np.max(np.abs(solve(rhs) - reference)) <= 1e-12 * np.max(np.abs(reference))


def one_node_jacobian(values, interior, resid, eps):
    """Central-difference Jacobian perturbing one interior node per pair of evaluations."""
    nodes = np.argwhere(interior)
    J = np.zeros((len(nodes), len(nodes)))
    for j, node in enumerate(nodes):
        up, down = values.copy(), values.copy()
        up[tuple(node)] += eps
        down[tuple(node)] -= eps
        J[:, j] = ((resid(up) - resid(down)) / (2 * eps))[interior]
    return J


def jacobian_case(n, nodes, kind, window):
    """(values, interior, the solve's residual) on a rough field over the test box."""
    grid = op.make_grid(n, 0.5, 0.2, 1.0, nodes)
    mesh = grid.meshgrid()
    values = 0.3 + 0.2 * np.sin(3.0 * mesh[0]) * mesh[-1] \
        + 0.02 * np.random.default_rng(5).standard_normal(mesh[0].shape)
    mask = sv.ball_mask(grid, [0.0, 0.6], 0.4) if window else np.ones(values.shape, bool)
    problem = sv.DirichletProblem(grid=grid, mask=mask, data=values, H=0.2, kind=kind)
    return values, problem.interior_mask(), sv._residual_fn(problem)


class TestJacobianBuilder:
    @pytest.mark.parametrize("n, nodes, kind, window", [
        (2, 11, PARABOLIC, True),     # a ball-lift window
        (3, 5, PARABOLIC, False),     # three axes
        (2, 17, "hyperbolic", False),  # chart residual
        (2, 33, PARABOLIC, False),    # whole box
        (2, 41, PARABOLIC, True),     # a large ball window
        (3, 7, "hyperbolic", False),  # chart residual on three axes
    ])
    def test_colored_equals_one_node_at_a_time(self, n, nodes, kind, window):
        # the assembled matrix is the kernel's exact derivative
        self.check_against_one_node(n, nodes, kind, window, band=True)

    @pytest.mark.parametrize("n, nodes", [(2, [17, 4]), (2, [9, 3]), (3, [5, 4, 6]),
                                          (3, [6, 7, 3]), (2, [3, 9]), (3, [3, 5, 6]),
                                          (3, [4, 3, 3])])
    def test_thin_boxes_share_diagonals(self, n, nodes):
        # a box 2 nodes wide on an axis maps two stencil entries to one
        # offset, and on a box 1 node wide some entries reach past the box:
        # leading thin axes too; the matrix and its band LU step still hold
        values, interior, resid = jacobian_case(n, nodes, PARABOLIC, False)
        builder = sv.JacobianBuilder(values.shape, interior)
        assert builder.offsets.size < 3**n
        J = builder.assemble(values, resid)
        expected = one_node_jacobian(values, interior, resid, 1e-6)
        assert np.max(np.abs(J.toarray() - expected)) <= 1e-8 * np.max(np.abs(expected))
        rhs = -resid(values)[interior]
        step = sv._factorize(J, builder)(rhs)
        assert np.max(np.abs(J @ step - rhs)) <= 1e-12 * np.max(np.abs(rhs))

    @pytest.mark.parametrize("n, nodes, radius", [(2, [3, 9], None), (3, [3, 5, 6], None),
                                                  (2, 33, 0.0625), (2, 33, 0.055)])
    def test_one_node_wide_interior_solves(self, n, nodes, radius):
        # interiors one node wide along a leading axis: whole boxes, and
        # balls about a node that keep one axis-0 column of 3 nodes (h_y =
        # 0.8 h_x, radius 2 h_x) or the centre alone
        grid = op.make_grid(n, 0.5, 0.2, 1.0, nodes)
        mask = np.ones(grid.values.shape, bool) if radius is None \
            else sv.ball_mask(grid, [0.0, 0.6], radius)
        data = op.sample_on_grid(grid, lambda z: 0.4 + 0.3 * z[0] * z[-1]).values
        problem = sv.DirichletProblem(grid=grid, mask=mask, data=data, H=0.2)
        interior = problem.interior_mask()
        assert min(w.max() - w.min() for w in np.nonzero(interior)) == 0
        u, rep = sv.solve_dirichlet(problem, sv.SolverConfig(tol=1e-12))
        assert rep.converged and sv.residual_norm(u, problem) <= 1e-12

    @pytest.mark.parametrize("nodes, window", [(33, False), (41, True)])
    def test_nested_numbering_equals_one_node_at_a_time(self, nodes, window, monkeypatch):
        # the numbering of matrices too wide for the band LU; the window
        # is numbered by its bounding box
        monkeypatch.setattr(sv, "BAND_WORK", 0)
        self.check_against_one_node(2, nodes, PARABOLIC, window, band=False)

    @staticmethod
    def check_against_one_node(n, nodes, kind, window, band):
        """The analytic matrix against one-node central differences, full and frozen.

        At eps = 1e-6 the differences' truncation and rounding stay below
        1e-9 of the largest entry; the frozen residual is affine, so its
        differences at eps = 1 are exact up to rounding.
        """
        values, interior, resid = jacobian_case(n, nodes, kind, window)
        builder = sv.JacobianBuilder(values.shape, interior)
        assert (builder.kl is not None) == band
        inside = builder.inside.reshape(-1)  # the interior nodes of the box
        assert window == (not inside.all())
        unit = np.eye(inside.size)
        frozen_at = 0.5 * values + 0.1 * np.cos(2.0 * np.arange(values.size)).reshape(values.shape)
        for w_at, eps, rtol in ((None, 1e-6, 1e-8), (frozen_at, 1.0, 1e-14)):
            J = builder.assemble(values, resid, w_at=w_at).toarray()
            expected = one_node_jacobian(values, interior,
                                         functools.partial(resid, w_at=w_at), eps)
            assert np.count_nonzero(expected) > 0
            assert np.max(np.abs(J[np.ix_(inside, inside)] - expected)) \
                <= rtol * np.max(np.abs(expected))
            # the other box nodes are unit rows, and no interior row couples to them
            assert np.array_equal(J[~inside], unit[~inside])
            assert np.array_equal(J[:, ~inside], unit[:, ~inside])
        if not band:  # the interior block SuperLU factors, renumbered by nested dissection
            J = builder.assemble(values, resid)
            renumbered = builder.nested.renumber(J)
            assert renumbered.has_sorted_indices
            order = builder.nested.order
            block = J.toarray()[np.ix_(inside, inside)]
            assert np.array_equal(renumbered.toarray(), block[order][:, order])

    @pytest.mark.parametrize("nodes", [11, 33, 129])
    def test_assembly_makes_no_residual_call(self, nodes, monkeypatch):
        problem = hemisphere_problem(nodes)
        interior = problem.interior_mask()
        resid = sv._residual_fn(problem)
        values = problem.data
        calls = []
        for name in ("residual_field_parabolic", "residual_field_chart", "_face_flux_residual"):
            real = getattr(op, name)
            monkeypatch.setattr(op, name,
                                lambda *a, _real=real, **k: calls.append(a) or _real(*a, **k))
        builder = sv.JacobianBuilder(values.shape, interior)
        for w_at in (None, values):
            assert builder.assemble(values, resid, w_at=w_at).nnz > 0
        assert calls == []

    @pytest.mark.parametrize("n, nodes, window", [
        (2, 129, False),  # whole box, SuperLU layout
        (2, 129, True),   # a ball window of the same grid
        (2, 17, False),   # band layout
        (3, 17, False),   # three axes, SuperLU layout
    ])
    def test_product_equals_directional_difference(self, n, nodes, window):
        # J v against (R(u + t v) - R(u - t v)) / 2t for a random v on the
        # interior: t = 1e-7 leaves truncation and rounding near 3e-9 of
        # the largest component, where a misplaced coupling would show at O(1)
        values, interior, resid = jacobian_case(n, nodes, PARABOLIC, window)
        builder = sv.JacobianBuilder(values.shape, interior)
        J = builder.assemble(values, resid)
        v = np.zeros(values.shape)
        v[interior] = np.random.default_rng(9).standard_normal(np.count_nonzero(interior))
        t = 1e-7
        expected = ((resid(values + t * v) - resid(values - t * v)) / (2 * t))[interior]
        product = (J @ v[builder.box].reshape(-1))[builder.inside.reshape(-1)]
        assert np.max(np.abs(product - expected)) <= 1e-8 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n, nodes, kind", [(2, 33, PARABOLIC), (2, 33, "hyperbolic"),
                                                (3, 9, PARABOLIC), (3, 9, "hyperbolic")])
    def test_product_sums_in_the_order_of_the_csc_product(self, n, nodes, kind):
        # ascending offsets add each row's couplings in column order, as the
        # CSC product does, so the two products agree bit for bit
        values, interior, resid = jacobian_case(n, nodes, kind, False)
        J = sv.JacobianBuilder(values.shape, interior).assemble(values, resid)
        assert np.all(np.diff(J.offsets) > 0)
        v = np.random.default_rng(4).standard_normal(J.shape[0])
        assert (J @ v).tobytes() == (J.tocsc() @ v).tobytes()

    def test_large_grid_builder_and_assembly_memory(self):
        # tracemalloc peaks on 129^2: a builder that sorts packed int64
        # (m x 9) couplings reaches 9.0 MB and an assembly that stacks nine
        # perturbed copies of the grid 12.9 MB, above both bounds; a builder
        # of per-coupling CSC index arrays 4.1 MB, and this one 0.28 MB; the
        # assembly of the diagonals 3.5 MB.  The builder holds 20.6 KB, its
        # copy of the interior mask (16.6 KB) and the offsets; one byte per
        # coupling would take 145 KB (9 x 127^2), and the CSC builder held
        # 1.9 MB
        problem = hemisphere_problem(129)
        interior = problem.interior_mask()
        resid = sv._residual_fn(problem)
        values = problem.data
        tracemalloc.start()
        try:
            builder = sv.JacobianBuilder(values.shape, interior)
            held, build_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            builder.assemble(values, resid)
            assemble_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert build_peak <= 6e6
        assert assemble_peak <= 5e6
        assert held <= 64e3

    def test_lu_between_assemblies_leaves_the_builder_intact(self):
        # splu sorts a matrix's indices in place, so a renumbered matrix that
        # shared unsorted index arrays with the numbering would scramble every
        # later factorization
        problem = hemisphere_problem(97)
        resid = sv._residual_fn(problem)
        values = problem.data
        builder = sv.JacobianBuilder(values.shape, problem.interior_mask())
        assert builder.kl is None  # factored by SuperLU
        first = builder.assemble(values, resid)
        renumbered = builder.nested.renumber(first)
        arrays = [a.copy() for a in (first.data, first.offsets, renumbered.data,
                                     renumbered.indices, renumbered.indptr)]
        assert sv._factorize(first, builder)(-resid(values)[problem.interior_mask()]) is not None
        second = builder.assemble(values, resid)
        renumbered = builder.nested.renumber(second)
        assert all(np.array_equal(a, b)
                   for a, b in zip(arrays, (second.data, second.offsets, renumbered.data,
                                            renumbered.indices, renumbered.indptr)))


class TestDivergence:
    def test_impossible_data_reports_no_graph_solution(self):
        grid = op.make_grid(2, 0.5, 0.2, 1.0, 17)
        mesh = grid.meshgrid()
        data = 500.0 * np.sign(np.sin(40.0 * mesh[0]) + 0.3 * np.cos(37.0 * mesh[1]))
        mask = np.ones(grid.values.shape, dtype=bool)
        problem = sv.DirichletProblem(grid=grid, mask=mask, data=data, H=0.5)
        with pytest.raises(sv.SolverDivergence):
            sv.solve_dirichlet(problem, sv.SolverConfig(tol=1e-10, max_iters=8))

    def test_convergence_on_the_last_allowed_iteration_is_not_divergence(self):
        grid = op.make_grid(2, 0.45, 0.25, 0.95, 17)
        problem, _ = full_problem(
            grid, lambda z: 0.1 + math.sqrt(1.5**2 - float(np.dot(z, z))), 0.0)
        _, free = sv.solve_dirichlet(problem, sv.SolverConfig(tol=1e-10))
        _, capped = sv.solve_dirichlet(
            problem, sv.SolverConfig(tol=1e-10, max_iters=free.iterations))
        assert free.iterations == 5
        assert capped.converged and capped.final_residual <= 1e-10
        assert capped.iterations == 5

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

    @pytest.mark.parametrize("nodes", [17, 33, 97])
    def test_singular_retry_jacobian_reports_divergence(self, nodes, monkeypatch):
        # The first Newton step succeeds; the step from the reused Jacobian is
        # unusable, so the solver rebuilds it, and every matrix from then on
        # is singular.  That must end as divergence, not as a linear algebra
        # error.  17^2 and 33^2 take the band LU, 97^2 SuperLU.
        problem = hemisphere_problem(nodes)
        start = sv.linearized_start(problem)
        calls = {"n": 0}

        def nan_step(rhs):
            return np.full_like(rhs, np.nan)

        if nodes < 97:
            real_gbtrf, real_gbtrs = sv._gbtrf, sv._gbtrs
            steps = {"n": 0}

            def flaky_gbtrf(*args, **kwargs):
                calls["n"] += 1
                lu, piv, info = real_gbtrf(*args, **kwargs)
                return lu, piv, (info if calls["n"] == 1 else 1)  # then: U[0, 0] == 0

            def stale_gbtrs(lu, kl, ku, rhs, piv):
                steps["n"] += 1
                return (nan_step(rhs), 0) if steps["n"] == 2 else real_gbtrs(lu, kl, ku, rhs, piv)

            monkeypatch.setattr(sv, "_gbtrf", flaky_gbtrf)
            monkeypatch.setattr(sv, "_gbtrs", stale_gbtrs)
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


def dilation_problem(nodes):
    grid = op.make_grid(2, 0.45, 0.25, 0.95, nodes)
    x, y = grid.meshgrid()
    data = 0.35 + 0.25 * x + 0.15 * y**2
    data[1:-1, 1:-1] = 0.0
    return sv.DirichletProblem(grid=grid, mask=np.ones(data.shape, dtype=bool), data=data,
                               H=0.0, kind="hyperbolic")


class TestJacobianReuse:
    def test_every_damped_step_refreshes_the_jacobian(self, monkeypatch):
        # the first reused step is made to fail, so a fresh Jacobian is
        # assembled at once, and that retry's lam = 1 trial is made to fail
        # the decrease test, so the line search takes it at lam = 1/2.  A
        # damped retry ends its Jacobian's reuse like any damped step: the
        # step after every damped one assembles afresh
        problem = hemisphere_box(2, 33)  # the LU path, from the linearization
        events = []  # "assemble", or each line search's lam (None: no step)
        real_assemble, real_backtrack = sv.JacobianBuilder.assemble, sv._backtrack

        def assemble(self, values, resid, w_at=None):
            if w_at is None:  # a Newton Jacobian, not the start's frozen matrix
                events.append("assemble")
            return real_assemble(self, values, resid, w_at)

        def backtrack(values, step, nrm, interior, resid, tol):
            searches = sum(event != "assemble" for event in events)
            trials = []

            def first_trial_fails(v):
                trials.append(v)
                return resid(v) * (1e3 if len(trials) == 1 else 1.0)

            if searches == 1:
                found = None
            else:
                found = real_backtrack(values, step, nrm, interior,
                                       first_trial_fails if searches == 2 else resid, tol)
            events.append(None if found is None else found[3])
            return found

        monkeypatch.setattr(sv.JacobianBuilder, "assemble", assemble)
        monkeypatch.setattr(sv, "_backtrack", backtrack)
        _, rep = sv.solve_dirichlet(problem, sv.SolverConfig(tol=1e-10))
        assert rep.converged and rep.picard_iterations == 0
        assert events[:5] == ["assemble", 1.0, None, "assemble", 0.5]
        damped = [k for k, event in enumerate(events[:-1])
                  if event not in ("assemble", None) and event < 1.0]
        assert all(events[k + 1] == "assemble" for k in damped)


class TestPicardFallback:
    def test_dilation_structure_falls_back_to_picard(self, monkeypatch):
        # Newton's first factorization gives no step, so the solve must go on
        # with frozen-W sweeps of the chart residual
        problem = dilation_problem(17)
        start = sv.linearized_start(problem)
        real_factorize = sv._factorize
        calls = {"n": 0}

        def first_gives_no_step(J, builder):
            calls["n"] += 1
            return (lambda rhs: None) if calls["n"] == 1 else real_factorize(J, builder)

        monkeypatch.setattr(sv, "_factorize", first_gives_no_step)
        u, rep = sv.solve_dirichlet(problem, sv.SolverConfig(tol=1e-9), initial=start)
        assert rep.converged and rep.picard_iterations > 0
        assert rep.final_residual <= 1e-9
        assert sv.residual_norm(u, problem) <= 1e-9


class TestLinearizedStart:
    @pytest.mark.parametrize("n, kind", [(2, PARABOLIC), (3, PARABOLIC),
                                         (2, "hyperbolic"), (3, "hyperbolic")])
    def test_solves_the_flat_linearization(self, n, kind):
        grid = op.make_grid(n, 0.5, 0.2, 1.0, 17 if n == 2 else 9)
        mesh = grid.meshgrid()
        data = 0.4 + 0.2 * np.sin(3.0 * mesh[0]) + 0.1 * mesh[-1] ** 2
        problem = sv.DirichletProblem(grid=grid, mask=np.ones(data.shape, dtype=bool),
                                      data=data, H=0.2, kind=kind)
        start = sv.linearized_start(problem)
        interior = problem.interior_mask()
        assert np.array_equal(start[~interior], data[~interior])
        # W frozen at the slopes of the equidistant plane a y
        plane = op.orientation().solution_slope(0.2) * mesh[-1]
        frozen = op.residual_field(start, grid, kind, 0.2, op.orientation(), plane)
        assert np.max(np.abs(frozen[interior])) <= 1e-10

    def test_equidistant_plane_needs_no_newton_step(self):
        # criterion 3's tilted plane: the start reproduces the exact solution
        slope = op.orientation().solution_slope(0.5)
        grid = op.make_grid(2, 0.45, 0.25, 0.95, 65)
        problem, data = full_problem(grid, lambda z: slope * z[-1] + 0.3, 0.5)
        sol, rep = sv.solve_dirichlet(problem, sv.SolverConfig(tol=1e-10))
        assert rep.converged and rep.iterations == 0
        assert np.max(np.abs(sol.values - data)) <= 1e-12

    def test_cold_solve_builds_one_jacobian_builder(self, monkeypatch):
        # the start and Newton share the cached builder of the interior
        built = []
        real_init = sv.JacobianBuilder.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args[0])
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(sv, "_BUILDER_CACHE", {})
        monkeypatch.setattr(sv.JacobianBuilder, "__init__", counting_init)
        _, rep = sv.solve_dirichlet(hemisphere_problem(17), sv.SolverConfig(tol=1e-10))
        assert rep.converged and rep.iterations > 0
        assert len(built) == 1

    def test_default_solve_skips_gradient_diagnostic(self, monkeypatch):
        def diagnostic(*args, **kwargs):
            raise AssertionError("gradient_diagnostic ran in a default solve")

        monkeypatch.setattr(sv, "gradient_diagnostic", diagnostic)
        _, rep = sv.solve_dirichlet(hemisphere_problem(17))
        assert rep.converged and rep.gradient_bands == []


class TestResidualEntryPoints:
    """Solves evaluate the residual kernel only through the two public names."""

    @pytest.mark.parametrize("kind", [PARABOLIC, "hyperbolic"])
    def test_solve_reaches_kernel_through_public_names(self, kind, monkeypatch):
        problem = hemisphere_problem(17) if kind == PARABOLIC else dilation_problem(17)
        names = ("residual_field_parabolic", "residual_field_chart")
        calls = dict.fromkeys(names + ("kernel", "kernel_outside"), 0)
        depth = [0]

        def counting(name, real):
            def wrapper(values, *args, **kwargs):
                assert values.shape[-2:] == problem.grid.values.shape
                calls[name] += 1
                depth[0] += 1
                try:
                    return real(values, *args, **kwargs)
                finally:
                    depth[0] -= 1
            return wrapper

        real_kernel = op._face_flux_residual

        def kernel(*args, **kwargs):
            calls["kernel"] += 1
            calls["kernel_outside"] += depth[0] == 0
            return real_kernel(*args, **kwargs)

        for name in names:
            monkeypatch.setattr(op, name, counting(name, getattr(op, name)))
        monkeypatch.setattr(op, "_face_flux_residual", kernel)
        _, rep = sv.solve_dirichlet(problem, sv.SolverConfig(tol=1e-9))
        assert rep.converged
        used = names[0] if kind == PARABOLIC else names[1]
        assert calls[used] > 0
        assert calls["kernel"] == calls[names[0]] + calls[names[1]]
        assert calls["kernel_outside"] == 0


class TestCoefficientsPerSolve:
    """A solve forms the structure's coefficient data once, not once per evaluation."""

    def test_dilation_solve_reads_the_drift_once(self, monkeypatch):
        op.orientation()  # fixed once per session; its oracle reads drifts of its own
        counts = {"drift": 0, "residual": 0}
        real_drift = ge.KillingStructure.chart_drift
        real_chart = op.residual_field_chart

        def drift(self, chart):
            counts["drift"] += 1
            return real_drift(self, chart)

        def chart(*args, **kwargs):
            counts["residual"] += 1
            return real_chart(*args, **kwargs)

        monkeypatch.setattr(ge.KillingStructure, "chart_drift", drift)
        monkeypatch.setattr(op, "residual_field_chart", chart)
        _, rep = sv.solve_dirichlet(dilation_problem(17), sv.SolverConfig(tol=1e-9))
        assert rep.converged and rep.iterations > 0
        assert counts["residual"] > 2
        assert counts["drift"] == 1


class TestStencilReduce:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_per_node_loop(self, d):
        rng = np.random.default_rng(d)
        shape = (12, 7, 6)[:d]
        for density in (0.1, 0.95):
            mask = rng.random(shape) < density
            interior = np.zeros(shape, bool)
            dilated = np.zeros(shape, bool)
            for node in np.ndindex(*shape):
                stencil = []
                for off in itertools.product((-1, 0, 1), repeat=d):
                    q = tuple(i + o for i, o in zip(node, off))
                    inside = all(0 <= qi < si for qi, si in zip(q, shape))
                    stencil.append(inside and bool(mask[q]))
                interior[node] = all(stencil)
                dilated[node] = any(stencil)
            assert np.array_equal(sv.stencil_reduce(mask, np.logical_and), interior)
            assert np.array_equal(sv.stencil_reduce(mask, np.logical_or), dilated)
            if density > 0.5:
                assert interior.any() and not interior.all()
            else:
                assert dilated.any() and not dilated.all()


def hemisphere_box(n, nodes):
    grid = op.make_grid(n, 0.45, 0.25, 0.95, nodes)
    return full_problem(grid, lambda z: 0.1 + math.sqrt(1.5**2 - float(np.dot(z, z))), 0.0)[0]


class TestNestedIteration:
    """Whole odd-sized boxes start Newton from the half-resolution solution, prolonged."""

    @pytest.mark.parametrize("problem_of, levels, tol", [
        (lambda: hemisphere_box(2, 65), [(33, 33)], 1e-10),
        (lambda: hemisphere_box(2, 129), [(33, 33), (65, 65)], 1e-10),
        (lambda: dilation_problem(65), [(33, 33)], 1e-9),
        (lambda: hemisphere_box(3, 25), [(13, 13, 13)], 1e-10),
    ], ids=["hemisphere_65", "hemisphere_129", "dilation_65", "hemisphere_25^3"])
    def test_agrees_with_the_linearized_start(self, problem_of, levels, tol):
        problem = problem_of()
        cfg = sv.SolverConfig(tol=tol)
        nested, rep = sv.solve_dirichlet(problem, cfg)
        direct, _ = sv.solve_dirichlet(problem, cfg, initial=sv.linearized_start(problem))
        assert rep.converged and rep.final_residual <= tol
        assert [level.shape for level in rep.levels] == levels
        assert np.max(np.abs(nested.values - direct.values)) <= 1e-12

    def test_finest_level_is_not_factored(self, monkeypatch):
        # only the 33^2 level is LU-factored; the 65^2 and 129^2 levels take
        # their Newton steps by GMRES, preconditioned through those factors
        # (the 65^2 level, stopped at discretization accuracy, takes one
        # step), and the prolonged start still leaves the 127^2 unknowns two
        # or three steps (11 GMRES iterations over 3 steps measured)
        problem = hemisphere_box(2, 129)
        by_backend = counting_factorizations(monkeypatch)
        _, rep = sv.solve_dirichlet(problem, sv.SolverConfig(tol=1e-10))
        sizes = by_backend["band"] + by_backend["superlu"]
        assert rep.converged and rep.iterations <= 3
        assert sizes.count(127**2) == 0 and sizes.count(63**2) == 0
        assert set(sizes) == {31**2}
        assert len(rep.krylov_iterations) == rep.iterations
        assert min(rep.krylov_iterations) >= 1 and sum(rep.krylov_iterations) <= 20
        coarsest, middle = rep.levels
        assert set(coarsest.krylov_iterations) == {0}
        assert min(middle.krylov_iterations) >= 1

    def test_level_records_are_the_coarse_reports(self, monkeypatch):
        # the record is the coarse solve's own report, the solve run as the
        # nested start runs it: on the coarse level that _coarse_problem makes
        problem = hemisphere_box(2, 65)
        cfg = sv.SolverConfig(tol=1e-10)
        _, rep = sv.solve_dirichlet(problem, cfg)
        coarse = sv._coarse_problem(problem, sv._residual_fn(problem))
        real = sv._backtrack
        steps = []  # (residual before, residual after, lam) of each step

        def recording(values, step, nrm, *args):
            found = real(values, step, nrm, *args)
            steps.append((nrm, found[2], found[3]))
            return found

        monkeypatch.setattr(sv, "_backtrack", recording)
        solved, coarse_rep = sv.solve_dirichlet(coarse, cfg)
        assert coarse_rep.levels == []  # 15^2 unknowns below: the hierarchy ends at 33^2
        assert rep.levels == [sv.LevelRecord((33, 33), coarse_rep.iterations,
                                             coarse_rep.final_residual,
                                             tuple(coarse_rep.krylov_iterations),
                                             coarse_rep.lu_fallbacks)]
        # the level stops at its first full step that cuts the residual by
        # LEVEL_STOP: the first four cut it by 0.05 to 0.15 (three of them on
        # a reused Jacobian), the fifth ends at 2.0e-10, above the tolerance
        assert coarse_rep.iterations == len(steps) == 5 and all(lam == 1.0 for *_, lam in steps)
        assert [after <= sv.LEVEL_STOP * before for before, after, _ in steps] == \
            [False] * 4 + [True]
        start = sv.residual_norm(sv.linearized_start(coarse), coarse)
        assert steps[0][0] == start and steps[-1][1] == coarse_rep.final_residual
        assert cfg.tol < coarse_rep.final_residual <= sv.LEVEL_STOP * start
        assert sv.residual_norm(solved, coarse) == coarse_rep.final_residual
        # the coarse data are the fine data injected, boundary values included
        assert np.array_equal(coarse.data, problem.data[::2, ::2])
        for fine_axis, coarse_axis in zip(problem.grid.axes, solved.axes):
            assert np.array_equal(coarse_axis, fine_axis[::2])

    @pytest.mark.parametrize("problem_of, tol", [
        (lambda: hemisphere_box(2, 65), 1e-10),
        (lambda: hemisphere_box(2, 129), 1e-10),
        (lambda: dilation_problem(65), 1e-9),
    ], ids=["hemisphere_65", "hemisphere_129", "dilation_65"])
    def test_coarse_level_stops_below_the_discretization_gap(self, problem_of, tol):
        # the level's algebraic error, its distance from the same problem
        # solved to the tolerance, against max |u_h - I u_2h| (measured:
        # 0.0 %, 1.6 % and 1.8 % of it)
        problem = problem_of()
        cfg = sv.SolverConfig(tol=tol)
        fine, _ = sv.solve_dirichlet(problem, cfg)
        coarse = sv._coarse_problem(problem, sv._residual_fn(problem))
        level, _ = sv.solve_dirichlet(coarse, cfg)
        full, full_rep = sv.solve_dirichlet(
            sv.DirichletProblem(grid=coarse.grid, mask=coarse.mask, data=coarse.data,
                                H=coarse.H, kind=coarse.kind), cfg)
        assert full_rep.final_residual <= tol
        gap = np.max(np.abs(fine.values - sv.prolong(full.values)))
        assert np.max(np.abs(level.values - full.values)) <= 0.1 * gap

    def test_finest_level_counts_match_coarse_levels_solved_to_the_tolerance(self, monkeypatch):
        problem = hemisphere_box(2, 129)
        cfg = sv.SolverConfig(tol=1e-10)
        u, rep = sv.solve_dirichlet(problem, cfg)
        monkeypatch.setattr(sv, "LEVEL_STOP", 0.0)  # every level stops at the tolerance
        ref, ref_rep = sv.solve_dirichlet(problem, cfg)
        assert all(level.final_residual <= cfg.tol for level in ref_rep.levels)
        assert [level.iterations for level in rep.levels] == [5, 1]
        assert [level.iterations for level in ref_rep.levels] == [6, 3]
        assert (rep.iterations, rep.krylov_iterations, rep.damping_history) == \
            (ref_rep.iterations, ref_rep.krylov_iterations, ref_rep.damping_history)
        assert rep.final_residual <= cfg.tol
        assert np.max(np.abs(u.values - ref.values)) <= 1e-12

    def test_only_a_coarse_level_hands_its_solver_up(self):
        # the 33^2 level hands its LU factors to the 65^2 Krylov level; the
        # top-level solve keeps neither its cycle nor any factors
        problem = hemisphere_box(2, 65)
        cfg = sv.SolverConfig(tol=1e-10)
        _, rep = sv.solve_dirichlet(problem, cfg)
        assert rep.converged and min(rep.krylov_iterations) >= 1
        assert rep.linear_solver is None
        coarse = sv._coarse_problem(problem, sv._residual_fn(problem))
        _, coarse_rep = sv.solve_dirichlet(coarse, cfg)
        assert coarse_rep.linear_solver is not None

    def test_damped_step_does_not_stop_a_coarse_level(self, monkeypatch):
        # the 33^2 level of this dilation box stops after one full step, which
        # cuts its residual by 1.4e-3.  Here that first step is doubled and
        # its lam = 1 trial is made to fail the decrease test, so the line
        # search takes it at lam = 1/2: the same iterate, reached by a damped
        # step, where the level must not stop
        problem = dilation_problem(65)
        cfg = sv.SolverConfig(tol=1e-9)
        coarse = sv._coarse_problem(problem, sv._residual_fn(problem))
        _, plain = sv.solve_dirichlet(coarse, cfg)
        assert plain.iterations == 1 and plain.damping_history == [1.0]
        real = sv._backtrack
        trials = []

        def damped_first_step(values, step, nrm, interior, resid, tol):
            if trials:
                return real(values, step, nrm, interior, resid, tol)

            def first_trial_fails(v):
                trials.append(v)
                return resid(v) * (1e3 if len(trials) == 1 else 1.0)

            return real(values, 2.0 * step, nrm, interior, first_trial_fails, tol)

        monkeypatch.setattr(sv, "_backtrack", damped_first_step)
        _, rep = sv.solve_dirichlet(coarse, cfg)
        assert len(trials) == 2 and rep.damping_history[0] == 0.5
        assert rep.iterations >= 2 and rep.damping_history[-1] == 1.0
        assert rep.final_residual < plain.final_residual

    def test_dilation_levels_slice_the_fine_coefficients(self, monkeypatch):
        # the 33^2 level reads the 65^2 level's chart coefficients, sliced;
        # built anew from the structure they move the answer by rounding only
        problem = dilation_problem(65)
        cfg = sv.SolverConfig(tol=1e-9)
        real = op.chart_coefficients
        built = []

        def counting(axes, n):
            built.append(tuple(len(a) for a in axes))
            return real(axes, n)

        monkeypatch.setattr(op, "chart_coefficients", counting)
        u, rep = sv.solve_dirichlet(problem, cfg)
        assert built == [(65, 65)] and [level.shape for level in rep.levels] == [(33, 33)]
        monkeypatch.setattr(op, "coarse_chart_coefficients", lambda fine, axes, n: real(axes, n))
        ref, ref_rep = sv.solve_dirichlet(problem, cfg)
        assert (rep.iterations, rep.krylov_iterations) == \
            (ref_rep.iterations, ref_rep.krylov_iterations)
        assert [(level.iterations, level.krylov_iterations) for level in rep.levels] == \
            [(level.iterations, level.krylov_iterations) for level in ref_rep.levels]
        assert np.max(np.abs(u.values - ref.values)) <= 1e-12

    @pytest.mark.parametrize("case", ["whole_33", "ball_mask", "even_nodes"])
    def test_other_problems_keep_the_linearized_start(self, case):
        if case == "whole_33":
            problem = hemisphere_box(2, 33)  # its half would have 15^2 unknowns
        elif case == "even_nodes":
            problem = hemisphere_box(2, 64)
        else:
            problem = hemisphere_box(2, 65)
            problem = sv.DirichletProblem(grid=problem.grid,
                                          mask=sv.ball_mask(problem.grid, [0.0, 0.6], 0.3),
                                          data=problem.data, H=0.0)
        cfg = sv.SolverConfig(tol=1e-10)
        u, rep = sv.solve_dirichlet(problem, cfg)
        ref, ref_rep = sv.solve_dirichlet(problem, cfg, initial=sv.linearized_start(problem))
        assert rep.levels == []
        assert np.array_equal(u.values, ref.values)
        assert (rep.iterations, rep.damping_history, rep.final_residual) == \
            (ref_rep.iterations, ref_rep.damping_history, ref_rep.final_residual)

    def test_diverging_coarse_level_is_named(self):
        grid = op.make_grid(2, 0.5, 0.2, 1.0, 65)
        mesh = grid.meshgrid()
        data = 500.0 * np.sign(np.sin(40.0 * mesh[0]) + 0.3 * np.cos(37.0 * mesh[1]))
        problem = sv.DirichletProblem(grid=grid, mask=np.ones(grid.values.shape, dtype=bool),
                                      data=data, H=0.5)
        with pytest.raises(sv.SolverDivergence, match="on the 33x33 grid"):
            sv.solve_dirichlet(problem, sv.SolverConfig(tol=1e-10, max_iters=8))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_prolongation_exact_on_cubics_inside_and_quadratics_at_the_ends(self, d):
        coarse_axes = [np.linspace(-0.7, 0.9, 7), np.linspace(0.2, 1.0, 6),
                       np.linspace(-1.0, 0.5, 5)][:d]
        fine_axes = [np.linspace(a[0], a[-1], 2 * len(a) - 1) for a in coarse_axes]

        def cubic(mesh):
            return sum((1.0 + k) * z**3 - 0.5 * z**2 + 0.3 * z for k, z in enumerate(mesh)) \
                + math.prod(mesh) ** 3

        def quadratic(mesh):
            return sum((0.7 - k) * z**2 + z for k, z in enumerate(mesh)) + math.prod(mesh) ** 2

        for fn, exact_at in ((quadratic, None), (cubic, slice(2, -2))):
            coarse = fn(np.meshgrid(*coarse_axes, indexing="ij"))
            fine = fn(np.meshgrid(*fine_axes, indexing="ij"))
            got = sv.prolong(coarse)
            assert got.shape == fine.shape and got.flags.c_contiguous
            assert np.array_equal(got[(slice(None, None, 2),) * d], coarse)
            # interior midpoints read four coarse nodes per axis; the two
            # midpoints beside an axis end read three
            region = (exact_at or slice(None),) * d
            assert np.max(np.abs(got[region] - fine[region])) <= 1e-13
            if exact_at is not None:
                assert np.max(np.abs(got - fine)) > 1e-6  # the ends are only quadratic


def gmres_case(case):
    """(A, b, Jacobi preconditioner) for the GMRES oracle tests."""
    if case == "jacobian":  # a 17^2 Jacobian off the linearized start
        problem = hemisphere_problem(17)
        interior = problem.interior_mask()
        values = sv.linearized_start(problem)
        values[interior] += 0.01 * np.sin(np.arange(np.count_nonzero(interior)))
        resid = sv._residual_fn(problem)
        F = resid(values)
        A, b = sv.JacobianBuilder(values.shape, interior).assemble(values, resid), -F[interior]
    else:  # dense, nonsymmetric, diagonally dominant
        rng = np.random.default_rng(3)
        n = 40
        A = rng.standard_normal((n, n)) / math.sqrt(n) + np.diag(3.0 + rng.random(n))
        b = rng.standard_normal(n)
    diagonal = A.diagonal()
    return A, b, lambda v: v / diagonal


class TestGMRES:
    """Right-preconditioned GMRES against dense oracles."""

    @pytest.mark.parametrize("case", ["jacobian", "dense"])
    @pytest.mark.parametrize("rtol", [1e-1, 1e-3])
    def test_step_is_the_krylov_least_squares_solution(self, case, rtol):
        A, b, M = gmres_case(case)
        counts = [0]
        x, reported = sv._gmres(A, M, b, rtol, counts)
        true = np.linalg.norm(A @ x - b)
        assert true <= rtol * np.linalg.norm(b)
        assert abs(reported - true) <= 1e-12 * true
        # the same problem, dense: min |b - A M y| over the Krylov space of
        # A M and b with as many dimensions as GMRES took iterations, its
        # basis made by Householder QR
        k = counts[0]
        Q = (b / np.linalg.norm(b))[:, None]
        for _ in range(k - 1):
            Q = np.linalg.qr(np.column_stack([Q, A @ M(Q[:, -1])]))[0]
        AMQ = np.column_stack([A @ M(q) for q in Q.T])
        expected = M(Q @ np.linalg.lstsq(AMQ, b, rcond=None)[0])
        assert np.max(np.abs(x - expected)) <= 1e-10 * np.max(np.abs(expected))

    @pytest.mark.parametrize("case", ["jacobian", "dense"])
    @pytest.mark.parametrize("rtol", [1e-1, 1e-3])
    def test_single_precision_preconditioner_keeps_the_true_residual(self, case, rtol):
        # z_j = M(v_j) is kept in float32 and A z_j is a float64 product, so
        # the step's residual reads as in a float64 solve
        A, b, _ = gmres_case(case)
        diagonal = A.diagonal()
        x, reported = sv._gmres(A, lambda v: (v / diagonal).astype(np.float32), b, rtol, [0])
        assert x.dtype == np.float64
        true = np.linalg.norm(A @ x - b)
        assert true <= rtol * np.linalg.norm(b)
        assert abs(reported - true) <= 1e-12 * true

    @pytest.mark.parametrize("case", ["jacobian", "dense"])
    def test_preconditioner_runs_once_per_iteration(self, case):
        A, b, M = gmres_case(case)
        calls = [0]

        def counting(v):
            calls[0] += 1
            return M(v)

        counts = [0]
        assert sv._gmres(A, counting, b, 1e-3, counts) is not None
        assert counts[0] >= 2 and calls[0] == counts[0]

    @pytest.mark.parametrize("case", ["jacobian", "dense"])
    def test_cap_miss_and_nan_preconditioner_give_none(self, case, monkeypatch):
        A, b, M = gmres_case(case)
        assert sv._gmres(A, lambda v: np.full_like(v, np.nan), b, 1e-3, [0]) is None
        monkeypatch.setattr(sv, "KRYLOV_CAP", 2)
        counts = [0]
        assert sv._gmres(A, M, b, 1e-8, counts) is None
        assert counts[0] == 2


class TestPreconditionedSteps:
    """Levels above the coarsest take GMRES steps preconditioned by a V-cycle."""

    @staticmethod
    def transfer_matrices(shape):
        """(P, R) of ``sv._transfer(shape)`` as dense float64 matrices, from unit vectors."""
        P, R = sv._transfer(shape)
        fine = math.prod(s - 2 for s in shape)
        coarse = math.prod((s + 1) // 2 - 2 for s in shape)
        return (np.column_stack([P(e) for e in np.eye(coarse)]),
                np.column_stack([R(e) for e in np.eye(fine)]))

    @pytest.mark.parametrize("shape", [(9,), (9, 7), (7, 9, 5), (5, 9), (9, 5), (5, 7, 9)])
    def test_restriction_is_the_scaled_adjoint_of_prolongation(self, shape):
        # a 5-node axis has a 3-node coarse axis, one interior node
        d = len(shape)
        P, R = sv._transfer(shape)
        coarse_shape = tuple((s + 1) // 2 for s in shape)
        inside = (slice(1, -1),) * d
        rng = np.random.default_rng(7)
        e = rng.standard_normal(math.prod(s - 2 for s in coarse_shape))
        r = rng.standard_normal(math.prod(s - 2 for s in shape))
        # P is solver.prolong applied to the correction extended by zeros,
        # which stays zero on the fine faces
        padded = np.zeros(coarse_shape)
        padded[inside] = e.reshape(tuple(s - 2 for s in coarse_shape))
        fine = sv.prolong(padded)
        assert np.max(np.abs(P(e) - fine[inside].ravel())) <= 1e-15 * np.max(np.abs(e))
        faces = np.ones(fine.shape, dtype=bool)
        faces[inside] = False
        assert not fine[faces].any()
        P_matrix, R_matrix = self.transfer_matrices(shape)
        assert np.array_equal(R_matrix, P_matrix.T * 2.0**-d)
        assert abs(R(r) @ e - 2.0**-d * (r @ P(e))) <= 1e-14 * np.linalg.norm(r) \
            * np.linalg.norm(P(e))

    @pytest.mark.parametrize("shape", [(129, 129), (33, 33, 33)])
    def test_per_axis_transfers_equal_the_kronecker_products(self, shape):
        # the oracle: the Kronecker product of the 1-D matrices whose columns
        # are prolonged unit vectors, in float64; the transfers act on float32
        # vectors and round between axes, to within 4 float32 units
        d = len(shape)
        factors = [sp.csr_matrix(np.stack([sv.prolong(u)[1:-1]
                                           for u in np.eye((s + 1) // 2)[1:-1]], axis=1))
                   for s in shape]
        P_oracle = functools.reduce(lambda a, b: sp.kron(a, b, format="csr"), factors)
        R_oracle = (P_oracle.T * 2.0**-d).tocsr()
        P, R = sv._transfer(shape)
        rng = np.random.default_rng(11)
        ulp = 4 * np.finfo(np.float32).eps
        for A, A_oracle in ((P, P_oracle), (R, R_oracle)):
            for _ in range(3):
                v = rng.standard_normal(A_oracle.shape[1]).astype(np.float32)
                got, expected = A(v), A_oracle @ v.astype(np.float64)
                assert got.dtype == np.float32 and got.shape == expected.shape
                assert np.max(np.abs(got - expected)) <= ulp * np.max(np.abs(expected))

    def test_transfers_hold_no_box_sized_data(self, monkeypatch):
        # the transfers keep their 1-D factors per axis length, O(s) each:
        # after a 25^3 solve (its 13^3 level is the coarsest, factored) they
        # hold the two 25-node factors, 992 bytes, where a 25^3 Kronecker
        # pair would hold 2.4 MB; making the 33^3 transfers peaks at 19 KB,
        # where building the 33^3 Kronecker pair (389,017 entries per
        # matrix) peaks at 9.6 MB
        monkeypatch.setattr(sv, "_AXIS_FACTORS", {})
        _, rep = sv.solve_dirichlet(hemisphere_box(3, 25), sv.SolverConfig(tol=1e-10))
        assert rep.converged and rep.krylov_iterations[0] >= 1  # the cycle ran
        assert set(sv._AXIS_FACTORS) == {25}
        held = sum(a.nbytes for pair in sv._AXIS_FACTORS.values() for A in pair
                   for a in (A.data, A.indices, A.indptr))
        assert held <= 64e3
        monkeypatch.setattr(sv, "_AXIS_FACTORS", {})
        tracemalloc.start()
        try:
            sv._transfer((33, 33, 33))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1e6

    @staticmethod
    def first_step(n, nodes):
        """(J, builder, coarse solver, interior F) at a hemisphere box's nested start."""
        problem = hemisphere_box(n, nodes)
        values, coarse = sv._nested_start(problem, sv.SolverConfig(tol=1e-10),
                                          sv._residual_fn(problem), sv.SolveReport())
        assert coarse is not None
        interior = problem.interior_mask()
        resid = sv._residual_fn(problem)
        builder = sv._cached_builder(values.shape, interior)
        return builder.assemble(values, resid), builder, coarse, resid(values)[interior]

    @pytest.mark.parametrize("n, nodes", [(2, 65), (3, 25)])
    def test_preconditioned_step_agrees_with_the_lu_step(self, n, nodes):
        J, builder, coarse, F = self.first_step(n, nodes)
        lu_step = sv._factorize(J.copy(), builder)(-F)
        counts = [0]
        solve, cycle = sv._krylov_solver(J, builder, coarse, counts, 1e-10)
        # GMRES with the cycle as preconditioner, run to 1e-12, reproduces the LU step
        step, _ = sv._gmres(J, cycle, -F, 1e-12, [0])
        assert np.max(np.abs(step - lu_step)) <= 1e-10 * np.max(np.abs(lu_step))
        # the Newton loop's first step stops at its forcing term min(1/2, max |F|)
        first = solve(-F)
        eta = min(0.5, float(np.max(np.abs(F))))
        assert np.linalg.norm(J @ first + F) <= eta * np.linalg.norm(F) * (1 + 1e-8)
        assert 1 <= counts[0] <= 5

    @pytest.mark.parametrize("n, nodes", [(2, 65), (3, 25)])
    def test_single_precision_cycle_costs_no_iterations(self, n, nodes):
        J, builder, coarse, F = self.first_step(n, nodes)
        _, cycle = sv._krylov_solver(J, builder, coarse, [0], 1e-10)
        # the same cycle in float64, on the same J and coarse LU factors, its
        # per-axis P and R computing in the float64 of their vectors
        P, R = sv._transfer(builder.shape)
        weight = sv.JACOBI_WEIGHT / J.data[builder.centre]

        def reference(r):
            x = weight * r
            x += weight * (r - J @ x)
            x += P(coarse(R(r - J @ x)))
            for _ in range(2):
                x += weight * (r - J @ x)
            return x

        single, double = cycle(-F), reference(-F)
        assert single.dtype == np.float32
        assert np.max(np.abs(single - double)) <= 1e-6 * np.max(np.abs(double))
        counts = {"single": [0], "double": [0]}
        for name, M in (("single", cycle), ("double", reference)):
            assert sv._gmres(J, M, -F, 1e-12, counts[name]) is not None
        assert counts["single"] == counts["double"]

    def test_forcing_term_stops_at_half_the_newton_tolerance(self, monkeypatch):
        # Eisenstat-Walker alone asks the last 129^2 steps for a linear
        # residual of 0.019 tol; with the floor no GMRES solve is asked for
        # less than 0.5 tol (2-norm), and the Newton steps per level (3 on
        # 129^2, [5, 1] on 33^2 and 65^2, which stop at discretization
        # accuracy) do not rise
        problem = hemisphere_box(2, 129)
        cfg = sv.SolverConfig(tol=1e-10)
        asked = []
        real_gmres = sv._gmres

        def recording(A, M, b, rtol, counts):
            asked.append(rtol * float(np.linalg.norm(b)))
            return real_gmres(A, M, b, rtol, counts)

        monkeypatch.setattr(sv, "_gmres", recording)
        _, rep = sv.solve_dirichlet(problem, cfg)
        assert rep.converged and rep.final_residual <= cfg.tol
        assert min(asked) >= 0.5 * cfg.tol * (1 - 1e-12)
        assert min(asked) <= 0.5 * cfg.tol * (1 + 1e-12)  # the floor was met
        assert rep.iterations <= 3
        assert [level.shape for level in rep.levels] == [(33, 33), (65, 65)]
        assert all(level.iterations <= cap for level, cap in zip(rep.levels, (6, 3)))

    def test_failed_coarse_correction_never_gives_a_wrong_answer(self, monkeypatch):
        # a coarse correction that returns NaN spoils every GMRES solve, so
        # every Newton step must come from the LU factors of its Jacobian:
        # the solve must end converged, or in a named divergence
        problem = hemisphere_box(2, 65)
        cfg = sv.SolverConfig(tol=1e-10)
        reference, _ = sv.solve_dirichlet(problem, cfg)
        real = sv._krylov_solver

        def nan_coarse(J, builder, coarse, *args):
            return real(J, builder, lambda rhs: np.full_like(rhs, np.nan), *args)

        monkeypatch.setattr(sv, "_krylov_solver", nan_coarse)
        # only a coarse level hands its solver up: the same 65^2 problem as
        # the 129^2 box's level hands up the LU factors in place of the
        # spoiled cycle
        fine = hemisphere_box(2, 129)
        level = sv._coarse_problem(fine, sv._residual_fn(fine))
        assert np.array_equal(level.data, problem.data)
        _, level_rep = sv.solve_dirichlet(level, cfg)
        assert level_rep.lu_fallbacks >= 1 and level_rep.picard_iterations == 0
        rhs = np.ones(np.count_nonzero(level.interior_mask()))
        assert np.all(np.isfinite(level_rep.linear_solver(rhs)))
        try:
            u, rep = sv.solve_dirichlet(problem, cfg)
        except sv.SolverDivergence as exc:
            assert "on the 65x65 grid" in str(exc)
            return
        assert rep.converged and rep.lu_fallbacks >= 1 and rep.picard_iterations == 0
        assert rep.krylov_iterations[0] >= 1  # GMRES ran before the fallback
        assert sv.residual_norm(u, problem) <= cfg.tol
        assert np.max(np.abs(u.values - reference.values)) <= 1e-10

    def test_gmres_miss_takes_the_lu_step_of_the_same_jacobian(self, monkeypatch):
        # two GMRES iterations miss most forcing terms; a miss on a fresh
        # Jacobian factors it, and its LU steps converge with no frozen-W sweep
        # (falling back to Picard instead takes 14 frozen-W sweeps here)
        problem = hemisphere_box(2, 65)
        cfg = sv.SolverConfig(tol=1e-10)
        reference, ref_rep = sv.solve_dirichlet(problem, cfg)
        assert ref_rep.lu_fallbacks == 0
        monkeypatch.setattr(sv, "KRYLOV_CAP", 2)
        u, rep = sv.solve_dirichlet(problem, cfg)
        assert rep.converged and rep.picard_iterations == 0
        assert 1 <= rep.lu_fallbacks <= rep.iterations
        assert np.max(np.abs(u.values - reference.values)) <= 10 * cfg.tol

    def test_gmres_miss_on_a_reused_jacobian_reassembles_before_factoring(self, monkeypatch):
        # a reused Jacobian is stale; a miss on it rebuilds the Jacobian and
        # retries GMRES, so only a Jacobian whose first GMRES solve missed is
        # factored (the coarsest level's, factored without GMRES, aside)
        problem = hemisphere_box(2, 65)
        solves = []  # [Jacobian, GMRES solves made on it] on the Krylov path
        factored = []  # GMRES solves made on each Jacobian when it was factored
        krylov_solver, factorize = sv._krylov_solver, sv._factorize

        def counted_krylov(J, *args):
            solve, cycle = krylov_solver(J, *args)
            record = [J, 0]  # holds J, so no later Jacobian shares its record
            solves.append(record)

            def counted(rhs):
                record[1] += 1
                return solve(rhs)
            return counted, cycle

        def recorded_factorize(J, builder):
            factored.append(next((n for K, n in solves if K is J), 0))
            return factorize(J, builder)

        monkeypatch.setattr(sv, "KRYLOV_CAP", 2)
        monkeypatch.setattr(sv, "_krylov_solver", counted_krylov)
        monkeypatch.setattr(sv, "_factorize", recorded_factorize)
        u, rep = sv.solve_dirichlet(problem, sv.SolverConfig(tol=1e-10))
        assert rep.converged and rep.lu_fallbacks >= 1
        assert factored.count(1) == rep.lu_fallbacks
        assert set(factored) <= {0, 1}
        assert max(n for _, n in solves) >= 2  # a Jacobian was reused, so the case was met
