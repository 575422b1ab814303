"""Config parsing, scenario runs, artifact formats, determinism, exit codes."""

import inspect
import itertools
import json
import math
import os
import stat

import numpy as np
import pytest

from plateau_hyp import cli
from plateau_hyp import operator as op
from plateau_hyp import perron as pe


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = cli.parse_config({"mode": "solve-asymptotic", "n": 2, "H": 0.0,
                                "boundary": {"kind": "constant", "c": 0.5}})
        assert cfg.domain["L"] == 2.0
        assert cfg.solver["tol"] == 1e-8
        assert cfg.grid == 65
        assert cfg.structure == "parabolic"

    def test_unit_curvature_rejected_with_named_constraint(self):
        with pytest.raises(cli.ConfigError, match=r"\|H\| < 1"):
            cli.parse_config({"mode": "solve-asymptotic", "H": 1.0,
                              "boundary": {"kind": "constant", "c": 0.5}})

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(cli.ConfigError, match=r"\$\.wavelength"):
            cli.parse_config({"mode": "barrier", "l": 1.0, "wavelength": 3})

    def test_bump_above_window_rejected(self):
        cfg = cli.parse_config({"mode": "solve-asymptotic",
                                "boundary": {"kind": "bump", "center": 0.0, "height": 1.4,
                                             "width": 1.0, "base": 0.0, "c_max": 1.0}})
        with pytest.raises(cli.ConfigError, match="escapes"):
            cli.build_datum(cfg.boundary)

    def test_small_grid_rejected_for_solve_modes(self):
        with pytest.raises(cli.ConfigError, match="17 nodes"):
            cli.parse_config({"mode": "solve-asymptotic", "grid": 9,
                              "boundary": {"kind": "constant", "c": 0.5}})
        cfg = cli.parse_config({"mode": "barrier", "l": 1.0, "grid": 9})
        assert cfg.grid == 9  # non-solve modes are free

    def test_threads_key_rejected(self):
        with pytest.raises(cli.ConfigError, match=r"\$\.threads"):
            cli.parse_config({"mode": "barrier", "l": 1.0, "threads": 2})

    @pytest.mark.parametrize("spec, constructor, args", [
        ({"kind": "sinusoid_decay", "amplitude": 0.1, "period": 2.0, "decay": 0.5, "base": 0.3},
         pe.sinusoid_decay_datum, (0.1, 2.0, 0.5, 0.3)),
        ({"kind": "sinusoid_decay", "amplitude": -0.2, "period": 2, "decay": 1, "c_max": 0.5},
         pe.sinusoid_decay_datum, (-0.2, 2.0, 1.0, None, 0.5)),
        ({"kind": "table", "xs": [-1, 0, 1], "values": [0.1, 0.5, 0.3]},
         pe.table_datum, ([-1.0, 0.0, 1.0], [0.1, 0.5, 0.3])),
        ({"kind": "table", "xs": [-1.0, 1.0], "values": [0.1, 0.3], "c_max": 1},
         pe.table_datum, ([-1.0, 1.0], [0.1, 0.3], 1.0)),
    ])
    def test_datum_built_by_its_kinds_constructor(self, spec, constructor, args):
        cfg = cli.parse_config({"mode": "solve-asymptotic", "boundary": spec})
        built, direct = cli.build_datum(cfg.boundary), constructor(*args)
        assert (built.kind, built.params, built.c_max) == (direct.kind, direct.params,
                                                           direct.c_max)
        xs = np.linspace(-3.0, 3.0, 61)
        assert np.array_equal(built(xs), direct(xs))

    @pytest.mark.parametrize("kind, keys", [
        ("constant", {"c", "c_max"}),
        ("smooth_step", {"lo", "hi", "center", "width", "c_max"}),
        ("bump", {"center", "height", "width", "base", "c_max"}),
        ("sinusoid_decay", {"amplitude", "period", "decay", "base", "c_max"}),
        ("table", {"xs", "values", "c_max"}),
    ])
    def test_datum_keys_are_the_constructor_parameters(self, kind, keys):
        assert set(inspect.signature(pe.DATUM_KINDS[kind]).parameters) == keys
        for key in keys:
            cli.parse_config({"mode": "solve-asymptotic", "boundary": {"kind": kind, key: 1.0}})
        with pytest.raises(cli.ConfigError, match=r"\$\.boundary\.colour: unknown key"):
            cli.parse_config({"mode": "solve-asymptotic",
                              "boundary": {"kind": kind, "colour": 1.0}})

    def test_compare_needs_both_sides(self):
        with pytest.raises(cli.ConfigError, match="boundary_2"):
            cli.parse_config({"mode": "compare",
                              "boundary": {"kind": "constant", "c": 0.3}})


class TestBarrierMode:
    def test_run_and_artifacts(self, tmp_path):
        cfg = cli.parse_config({"mode": "barrier", "l": 1.0})
        report = cli.run_scenario(cfg, str(tmp_path))
        assert report.all_passed()
        levels = (tmp_path / "stack_levels.csv").read_text().strip().split("\n")
        assert levels[0] == "k,t_k,R_k"
        assert len(levels) == 8  # bisection angle for l = 1 exits at level 6
        assert (tmp_path / "stack_profile.csv").exists()
        assert (tmp_path / "report.json").exists()

    def test_explicit_alpha_reproduces_seven_levels(self, tmp_path):
        cfg = cli.parse_config({"mode": "barrier", "l": 1.0, "alpha": 0.9})
        report = cli.run_scenario(cfg, str(tmp_path))
        assert report.all_passed()
        levels = (tmp_path / "stack_levels.csv").read_text().strip().split("\n")
        assert len(levels) == 9  # levels 0..7


class TestVerificationModes:
    def test_verify_exact(self, tmp_path):
        cfg = cli.parse_config({"mode": "verify-exact", "n": 2})
        report = cli.run_scenario(cfg, str(tmp_path))
        assert report.all_passed()
        names = {c.name for c in report.checks}
        assert any("hemisphere" in n for n in names)

    def test_oracle_mc_parabolic(self, tmp_path):
        cfg = cli.parse_config({"mode": "oracle-mc"})
        report = cli.run_scenario(cfg, str(tmp_path))
        assert report.all_passed()

    def test_oracle_mc_hyperbolic(self, tmp_path):
        cfg = cli.parse_config({"mode": "oracle-mc", "structure": "hyperbolic"})
        report = cli.run_scenario(cfg, str(tmp_path))
        assert report.all_passed()

    def test_solve_dirichlet_ball(self, tmp_path):
        cfg = cli.parse_config({
            "mode": "solve-dirichlet", "H": 0.0, "grid": 33,
            "domain": {"L": 0.5, "y_min": 0.2, "y_max": 1.0},
            "family": {"name": "hemisphere", "t": 0.0, "R": 1.2},
            "mask": {"kind": "ball", "center": [0.0, 0.6], "radius": 0.3}})
        report = cli.run_scenario(cfg, str(tmp_path))
        assert report.all_passed()


class TestSolveSection:
    """report.json carries the solve's own account next to the checks."""

    def test_solve_asymptotic_records_the_perron_report(self, tmp_path, monkeypatch):
        # step data: the first lift's own start, the linearization, is
        # exact on constant data and leaves Newton nothing to count
        doc = {"mode": "solve-asymptotic", "n": 2, "H": 0.0,
               "boundary": {"kind": "smooth_step", "lo": 0.2, "hi": 0.8, "width": 0.5},
               "domain": {"L": 1.0, "y_min": 0.05, "y_max": 0.65},
               "grid": 25, "solver": {"tol": 1e-7, "max_iters": 40, "max_sweeps": 100}}
        run, lift_solve = cli.perron.run_asymptotic_solve, cli.perron.solver.solve_dirichlet
        reports, newton = [], []

        def keeping_report(*args, **kwargs):
            u, rep = run(*args, **kwargs)
            reports.append(rep)
            return u, rep

        def counting_solve(*args, **kwargs):
            u, rep = lift_solve(*args, **kwargs)
            newton.append(rep.iterations)
            return u, rep

        monkeypatch.setattr(cli.perron, "run_asymptotic_solve", keeping_report)
        monkeypatch.setattr(cli.perron.solver, "solve_dirichlet", counting_solve)
        config = write_config(tmp_path, doc)
        assert cli.main(["solve-asymptotic", "--config", config, "--out-dir", str(tmp_path)]) == 0
        solve = json.loads((tmp_path / "report.json").read_text())["solve"]
        (rep,) = reports
        keys = ("sweeps", "radii", "radius_halvings", "smallest_radii", "lift_retries",
                "increments", "residuals", "newton_iterations", "lu_fallbacks")
        assert solve == {key: getattr(rep, key) for key in keys}
        assert all(len(solve[key]) == solve["sweeps"] for key in keys[1:])
        # every Newton iteration of every lift is counted against its sweep
        assert sum(solve["newton_iterations"]) == sum(newton) > 0

    def test_solve_asymptotic_counts_lu_fallbacks(self, tmp_path, monkeypatch):
        # two GMRES iterations miss the forcing terms of the 65^2 whole-box
        # lift, whose fresh Jacobians are then LU-factored: the report counts
        # those fallbacks against their sweep
        doc = {"mode": "solve-asymptotic", "n": 2, "H": 0.0,
               "boundary": {"kind": "smooth_step", "lo": 0.2, "hi": 0.8, "width": 0.5},
               "grid": 65}
        lift_solve = cli.perron.solver.solve_dirichlet
        depth, fallbacks = [0], []

        def counting_solve(*args, **kwargs):
            depth[0] += 1  # nested-iteration levels call back in
            try:
                u, rep = lift_solve(*args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                fallbacks.append(rep.lu_fallbacks + sum(lv.lu_fallbacks for lv in rep.levels))
            return u, rep

        monkeypatch.setattr(cli.perron.solver, "KRYLOV_CAP", 2)
        monkeypatch.setattr(cli.perron.solver, "solve_dirichlet", counting_solve)
        config = write_config(tmp_path, doc)
        assert cli.main(["solve-asymptotic", "--config", config, "--out-dir", str(tmp_path)]) == 0
        solve = json.loads((tmp_path / "report.json").read_text())["solve"]
        assert len(solve["lu_fallbacks"]) == solve["sweeps"]
        assert solve["lu_fallbacks"][0] >= 1
        assert sum(solve["lu_fallbacks"]) == sum(fallbacks)

    def test_solve_dirichlet_records_the_solve_report(self, tmp_path, monkeypatch):
        doc = {"mode": "solve-dirichlet", "H": 0.0, "grid": 65,
               "domain": {"L": 0.5, "y_min": 0.2, "y_max": 1.0},
               "family": {"name": "hemisphere", "t": 0.0, "R": 1.2},
               "solver": {"tol": 1e-10}}
        solve_fn = cli.solver.solve_dirichlet
        reports = []

        def keeping_report(*args, **kwargs):
            u, rep = solve_fn(*args, **kwargs)
            reports.append(rep)
            return u, rep

        monkeypatch.setattr(cli.solver, "solve_dirichlet", keeping_report)
        config = write_config(tmp_path, doc)
        assert cli.main(["solve-dirichlet", "--config", config, "--out-dir", str(tmp_path)]) == 0
        solve = json.loads((tmp_path / "report.json").read_text())["solve"]
        rep = reports[-1]  # the 65^2 solve returns after its coarse level
        (level,) = rep.levels
        assert solve == {"iterations": rep.iterations, "damping_history": rep.damping_history,
                         "krylov_iterations": rep.krylov_iterations,
                         "lu_fallbacks": rep.lu_fallbacks,
                         "levels": [{"shape": [33, 33], "iterations": level.iterations,
                                     "final_residual": level.final_residual,
                                     "krylov_iterations": list(level.krylov_iterations),
                                     "lu_fallbacks": level.lu_fallbacks}]}
        assert solve["iterations"] >= 1 and level.iterations >= 1
        # the 65^2 level takes its steps by GMRES on the 33^2 level's factors,
        # which took its own steps directly
        assert len(solve["krylov_iterations"]) == solve["iterations"]
        assert all(k >= 1 for k in solve["krylov_iterations"])
        assert solve["levels"][0]["krylov_iterations"] == [0] * level.iterations


class TestEmission:
    def make_small_grid(self):
        grid = op.make_grid(2, 1.0, 0.5, 1.5, 3)
        grid.values[:] = np.arange(9.0).reshape(3, 3) / 7.0
        return grid

    def test_csv_shape_and_roundtrip(self):
        grid = self.make_small_grid()
        text = cli.grid_to_csv(grid)
        lines = text.strip().split("\n")
        assert lines[0] == "x1,y,u"
        assert len(lines) == 10  # header + 9 nodes
        back = cli.csv_to_grid(text)
        assert np.array_equal(back.values, grid.values)
        for a, b in zip(back.axes, grid.axes):
            assert np.array_equal(a, b)

    def test_obj_counts(self):
        grid = op.make_grid(2, 1.0, 0.5, 1.5, (4, 5))
        text = cli.grid_to_obj(grid)
        lines = text.strip().split("\n")
        v_count = sum(1 for ln in lines if ln.startswith("v "))
        f_count = sum(1 for ln in lines if ln.startswith("f "))
        assert v_count == 20
        assert f_count == 2 * 3 * 4

    @staticmethod
    def per_row_csv(u):
        """The CSV as formatted row by row, every coordinate on every row."""
        n = u.ndim
        header = ",".join([f"x{i+1}" for i in range(n - 1)] + ["y", "u"])
        columns = [m.ravel().tolist() for m in u.meshgrid()] + [u.values.ravel().tolist()]
        row = ",".join(["{:.17g}"] * (n + 1)).format
        return "\n".join([header] + [row(*values) for values in zip(*columns)]) + "\n"

    @staticmethod
    def per_quad_obj(u):
        """The OBJ with its faces formatted quad by quad."""
        nx, ny = u.values.shape
        lines = [f"v {u.values[i, j]:.17g} {u.axes[0][i]:.17g} {u.axes[1][j]:.17g}"
                 for i, j in itertools.product(range(nx), range(ny))]
        for i, j in itertools.product(range(nx - 1), range(ny - 1)):
            a, b = i * ny + j + 1, (i + 1) * ny + j + 1
            lines += [f"f {a} {b} {b + 1}", f"f {a} {b + 1} {a + 1}"]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("n, nodes", [(2, 33), (3, 9)])
    def test_text_equals_the_per_row_formatting(self, n, nodes):
        grid = op.make_grid(n, 2.0, 0.05, 0.8, nodes)
        grid.values = np.random.default_rng(nodes).standard_normal(grid.values.shape) / 3.0
        assert cli.grid_to_csv(grid) == self.per_row_csv(grid)
        if n == 2:
            for _ in range(2):  # the second call reuses the face block
                assert cli.grid_to_obj(grid) == self.per_quad_obj(grid)

    @pytest.mark.parametrize("n, nodes", [(2, 33), (3, 9)])
    def test_emitted_artifacts_equal_the_per_row_formatting(self, tmp_path, n, nodes):
        grid = op.make_grid(n, 2.0, 0.05, 0.8, nodes)
        grid.values = np.random.default_rng(nodes).standard_normal(grid.values.shape) / 3.0
        report = cli.DiagnosticsReport(config={})
        cli.emit_outputs(grid, cli.RunConfig(mode="solve-asymptotic", n=n), str(tmp_path), report)
        assert (tmp_path / "solution.csv").read_text() == self.per_row_csv(grid)
        if n == 2:
            assert (tmp_path / "solution.obj").read_text() == self.per_quad_obj(grid)
        else:
            assert "obj" not in report.outputs and not (tmp_path / "solution.obj").exists()

    def test_obj_rejects_non_planar(self):
        grid = op.make_grid(1, 0.0, 0.5, 1.5, 5)
        with pytest.raises(ValueError):
            cli.grid_to_obj(grid)

    def test_atomic_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        target = tmp_path / "artifact.csv"

        class Boom(RuntimeError):
            pass

        real_replace = os.replace

        def exploding_replace(src, dst):
            raise Boom("crash injection")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(Boom):
            cli._atomic_write(str(target), "data\n")
        monkeypatch.setattr(os, "replace", real_replace)
        assert not target.exists()
        assert not any(p.name.startswith(".tmp-artifact") for p in tmp_path.iterdir())


    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
    def test_artifacts_take_the_mode_of_a_normally_opened_file(self, tmp_path, umask):
        # mkstemp creates 0600; a new artifact gets 0666 less the umask, as
        # open() gives it, and a rewritten one keeps its own mode
        old = os.umask(umask)
        try:
            report = cli.run_scenario(cli.parse_config({"mode": "barrier", "l": 1.0}),
                                      str(tmp_path))
            with open(tmp_path / "opened.txt", "w") as handle:
                handle.write("x\n")
        finally:
            os.umask(old)
        expected = stat.S_IMODE((tmp_path / "opened.txt").stat().st_mode)
        assert expected == 0o666 & ~umask
        artifacts = [tmp_path / name for name in
                     ("stack_levels.csv", "stack_profile.csv", "report.json")]
        assert report.outputs and all(a.exists() for a in artifacts)
        assert [stat.S_IMODE(a.stat().st_mode) for a in artifacts] == [expected] * 3
        os.chmod(artifacts[0], 0o640)
        cli._atomic_write(str(artifacts[0]), "data\n")
        assert stat.S_IMODE(artifacts[0].stat().st_mode) == 0o640


class TestEndToEnd:
    def asymptotic_doc(self, tol=1e-7):
        return {"mode": "solve-asymptotic", "n": 2, "H": 0.0,
                "boundary": {"kind": "constant", "c": 0.5},
                "domain": {"L": 1.0, "y_min": 0.05, "y_max": 0.65},
                "grid": 25, "solver": {"tol": tol, "max_iters": 40, "max_sweeps": 100}}

    def test_solve_asymptotic_exit_zero(self, tmp_path):
        config = write_config(tmp_path, self.asymptotic_doc())
        code = cli.main(["solve-asymptotic", "--config", config, "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert all(c["status"] == "PASS" for c in report["checks"])
        assert (tmp_path / "solution.csv").exists()
        assert (tmp_path / "solution.obj").exists()

    def test_sandwich_check_records_measured_margins(self, tmp_path):
        config = write_config(tmp_path, self.asymptotic_doc())
        assert cli.main(["solve-asymptotic", "--config", config, "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        check = next(c for c in report["checks"] if c["name"] == "perron.sandwich")
        u = cli.csv_to_grid((tmp_path / "solution.csv").read_text())
        low, high = check["value"]
        assert low == float(np.min(u.values))
        assert check["status"] == "PASS"
        assert low >= -check["tolerance"] and high <= check["tolerance"]

    def test_sandwich_breach_fails_the_check(self, tmp_path, monkeypatch):
        solve = cli.perron.run_asymptotic_solve

        def breached(*args, **kwargs):
            u, rep = solve(*args, **kwargs)
            rep.min_u = -1.0
            return u, rep

        monkeypatch.setattr(cli.perron, "run_asymptotic_solve", breached)
        config = write_config(tmp_path, self.asymptotic_doc())
        assert cli.main(["solve-asymptotic", "--config", config,
                         "--out-dir", str(tmp_path)]) == cli.EXIT_CHECK
        report = json.loads((tmp_path / "report.json").read_text())
        check = next(c for c in report["checks"] if c["name"] == "perron.sandwich")
        assert check["status"] == "FAIL" and check["value"][0] == -1.0

    def test_residual_above_tolerance_fails_the_converged_check(self, tmp_path, monkeypatch):
        solve = cli.perron.run_asymptotic_solve
        tol = self.asymptotic_doc()["solver"]["tol"]

        def unconverged(*args, **kwargs):
            u, rep = solve(*args, **kwargs)
            rep.final_residual = 10 * tol
            return u, rep

        monkeypatch.setattr(cli.perron, "run_asymptotic_solve", unconverged)
        config = write_config(tmp_path, self.asymptotic_doc())
        assert cli.main(["solve-asymptotic", "--config", config,
                         "--out-dir", str(tmp_path)]) == cli.EXIT_CHECK
        report = json.loads((tmp_path / "report.json").read_text())
        check = next(c for c in report["checks"] if c["name"] == "perron.converged")
        assert check["status"] == "FAIL" and check["value"] == 10 * tol

    def test_dirichlet_residual_above_tolerance_fails_the_converged_check(self, tmp_path,
                                                                           monkeypatch):
        doc = {"mode": "solve-dirichlet", "H": 0.0, "grid": 17,
               "domain": {"L": 0.5, "y_min": 0.2, "y_max": 1.0},
               "family": {"name": "hemisphere", "t": 0.0, "R": 1.2}}
        solve = cli.solver.solve_dirichlet
        tol = cli.parse_config(doc).solver["tol"]

        def unconverged(*args, **kwargs):
            u, rep = solve(*args, **kwargs)
            rep.final_residual = 10 * tol
            return u, rep

        monkeypatch.setattr(cli.solver, "solve_dirichlet", unconverged)
        config = write_config(tmp_path, doc)
        assert cli.main(["solve-dirichlet", "--config", config,
                         "--out-dir", str(tmp_path)]) == cli.EXIT_CHECK
        report = json.loads((tmp_path / "report.json").read_text())
        check = next(c for c in report["checks"] if c["name"] == "dirichlet.converged")
        assert check["status"] == "FAIL" and check["value"] == 10 * tol

    def test_constant_data_match_plane_through_datum(self, tmp_path):
        # for H != 0 the solution is the equidistant plane through the datum
        # on the bottom face, c + slope * (y - y_min)
        doc = {"mode": "solve-asymptotic", "H": 0.5, "grid": 17, "domain": {"L": 0.5},
               "boundary": {"kind": "constant", "c": 0.5}}
        config = write_config(tmp_path, doc)
        code = cli.main(["solve-asymptotic", "--config", config, "--out-dir", str(tmp_path)])
        report = json.loads((tmp_path / "report.json").read_text())
        check = next(c for c in report["checks"] if c["name"] == "perron.matches_equidistant_plane")
        assert check["status"] == "PASS"
        assert code == 0

    def test_compare_mode(self, tmp_path):
        doc = self.asymptotic_doc()
        doc["mode"] = "compare"
        doc["boundary"] = {"kind": "constant", "c": 0.3, "c_max": 0.5}
        doc["boundary_2"] = {"kind": "constant", "c": 0.5, "c_max": 0.5}
        config = write_config(tmp_path, doc)
        code = cli.main(["compare", "--config", config, "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "solution_1.csv").exists()
        assert (tmp_path / "solution_2.csv").exists()

    def test_compare_artifacts_equal_the_per_row_formatting(self, tmp_path):
        doc = self.asymptotic_doc()
        doc["mode"] = "compare"
        doc["boundary"] = {"kind": "smooth_step", "lo": 0.2, "hi": 0.5, "c_max": 0.6}
        doc["boundary_2"] = {"kind": "smooth_step", "lo": 0.3, "hi": 0.6, "c_max": 0.6}
        config = write_config(tmp_path, doc)
        assert cli.main(["compare", "--config", config, "--out-dir", str(tmp_path)]) == 0
        # .17g round-trips, so the parsed grid holds the solved values exactly
        for stem in ("solution_1", "solution_2"):
            text = (tmp_path / f"{stem}.csv").read_text()
            grid = cli.csv_to_grid(text)
            assert text == TestEmission.per_row_csv(grid)
        obj = (tmp_path / "solution_1.obj").read_text()
        assert obj == TestEmission.per_quad_obj(cli.csv_to_grid(
            (tmp_path / "solution_1.csv").read_text()))

    def test_config_error_exit_code(self, tmp_path):
        doc = self.asymptotic_doc()
        doc["H"] = 1.5
        config = write_config(tmp_path, doc)
        assert cli.main(["solve-asymptotic", "--config", config,
                         "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG

    MALFORMED = [
        ("solve-asymptotic", ("n",), 2.0),
        ("solve-asymptotic", ("n",), True),
        ("solve-asymptotic", ("H",), "x"),
        ("solve-asymptotic", ("domain", "L"), "abc"),
        ("solve-asymptotic", ("seed",), "a"),
        ("solve-asymptotic", ("solver", "tol"), "1e-8"),
        ("solve-asymptotic", ("solver", "max_iters"), "40"),
        ("solve-asymptotic", ("solver", "max_iters"), 0),
        ("solve-asymptotic", ("solver", "max_sweeps"), 0),
        ("solve-asymptotic", ("outputs", "csv"), 3),
        ("solve-asymptotic", ("boundary", "c"), "0.4"),
        ("solve-asymptotic", ("boundary", "kind"), [1]),
        ("solve-asymptotic", ("boundary", "kind"), {"name": "constant"}),
        ("compare", ("boundary_2", "kind"), [1]),
        ("compare", ("boundary_2", "kind"), {"name": "constant"}),
        ("solve-dirichlet", ("mask",), "ball"),
        ("barrier", ("l",), "1"),
    ]

    @pytest.mark.parametrize("mode, path, value", MALFORMED,
                             ids=[f"{'.'.join(path)}-{value}" for _, path, value in MALFORMED])
    def test_malformed_value_is_config_error_naming_its_key(self, tmp_path, capsys,
                                                            mode, path, value):
        doc = self.asymptotic_doc()
        doc["mode"] = mode
        doc["outputs"] = {}
        node = doc
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
        config = write_config(tmp_path, doc)
        assert cli.main([mode, "--config", config, "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "$." + ".".join(path) + ":" in err, err

    DIRICHLET_MALFORMED = {
        "radius-not-a-number": ({"mask": {"kind": "ball", "radius": "a"}}, "$.mask.radius"),
        "center-too-short": ({"mask": {"kind": "ball", "center": [0.0]}}, "$.mask.center"),
        "radius-negative": ({"mask": {"kind": "ball", "radius": -1}}, "$.mask.radius"),
        "mask-unknown-key": ({"mask": {"kind": "box", "colour": 1}}, "$.mask.colour"),
        "family-missing-key": ({"family": {"name": "hemisphere"}}, "$.family.R"),
        "family-unknown-key": ({"family": {"name": "constant", "c": 0.5, "colour": 1}},
                               "$.family.colour"),
    }

    @pytest.mark.parametrize("extra, path", DIRICHLET_MALFORMED.values(),
                             ids=DIRICHLET_MALFORMED.keys())
    def test_malformed_dirichlet_spec_is_config_error_naming_its_key(self, tmp_path, capsys,
                                                                     extra, path):
        doc = {"mode": "solve-dirichlet", "grid": 17, **extra}
        config = write_config(tmp_path, doc)
        assert cli.main(["solve-dirichlet", "--config", config,
                         "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert path + ":" in err, err

    def test_table_with_decreasing_xs_is_config_error(self, tmp_path, capsys):
        doc = self.asymptotic_doc()
        doc["grid"] = 17
        doc["boundary"] = {"kind": "table", "xs": [1.0, 0.0, -1.0], "values": [0.1, 0.5, 0.3]}
        config = write_config(tmp_path, doc)
        assert cli.main(["solve-asymptotic", "--config", config,
                         "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
        assert "$.boundary: xs must be strictly increasing" in capsys.readouterr().err

    def test_non_finite_datum_is_config_error(self, tmp_path, capsys):
        doc = self.asymptotic_doc()
        doc["boundary"] = {"kind": "smooth_step", "lo": 0.2, "hi": 0.8, "width": 0.0}
        config = write_config(tmp_path, doc)
        assert cli.main(["solve-asymptotic", "--config", config,
                         "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
        assert "$.boundary: boundary datum is not finite at x = 0.0" in capsys.readouterr().err

    def test_mode_mismatch_is_config_error(self, tmp_path):
        config = write_config(tmp_path, self.asymptotic_doc())
        assert cli.main(["barrier", "--config", config,
                         "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["barrier", "--config", str(tmp_path / "nope.json"),
                         "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG

    def test_divergence_exit_code(self, tmp_path, monkeypatch):
        from plateau_hyp.solver import SolverDivergence

        def explode(cfg, report, out_dir):
            raise SolverDivergence("no graph solution detected")

        monkeypatch.setitem(cli._RUNNERS, "solve-asymptotic", explode)
        config = write_config(tmp_path, self.asymptotic_doc())
        assert cli.main(["solve-asymptotic", "--config", config,
                         "--out-dir", str(tmp_path)]) == cli.EXIT_DIVERGENCE

    def test_perron_stall_exit_code(self, tmp_path, monkeypatch, capsys):
        from plateau_hyp.perron import PerronStall

        def stall(cfg, report, out_dir):
            raise PerronStall("perron iteration stalled at sweep 6")

        monkeypatch.setitem(cli._RUNNERS, "solve-asymptotic", stall)
        config = write_config(tmp_path, self.asymptotic_doc())
        assert cli.main(["solve-asymptotic", "--config", config,
                         "--out-dir", str(tmp_path)]) == cli.EXIT_DIVERGENCE
        assert "perron stall: " in capsys.readouterr().err

    def test_perron_divergence_exit_code(self, tmp_path, monkeypatch, capsys):
        # every lift solve diverges: the sub-covers reach the smallest radius,
        # and the one-line failure names the sweep and the ball's centre
        def diverging(*args, **kwargs):
            raise cli.solver.SolverDivergence("forced divergence")

        monkeypatch.setattr(cli.perron.solver, "solve_dirichlet", diverging)
        config = write_config(tmp_path, self.asymptotic_doc())
        assert cli.main(["solve-asymptotic", "--config", config,
                         "--out-dir", str(tmp_path)]) == cli.EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert err.startswith(f"perron divergence: perron iteration diverged at sweep 1: ball "
                              f"lift of radius {pe.MIN_RADIUS} centred at x = ")
        assert err.count("\n") == 1

    def test_perron_sweep_limit_exit_code(self, tmp_path, capsys):
        doc = {"mode": "solve-asymptotic", "grid": 17,
               "boundary": {"kind": "smooth_step", "lo": 0.2, "hi": 0.8, "width": 0.5},
               "solver": {"max_sweeps": 1}}
        config = write_config(tmp_path, doc)
        assert cli.main(["solve-asymptotic", "--config", config,
                         "--out-dir", str(tmp_path)]) == cli.EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("perron sweep limit: perron iteration did not converge within 1")
        assert err.count("\n") == 1

    def test_check_failure_exit_code(self, tmp_path, monkeypatch):
        def failing(cfg, report, out_dir):
            report.add("synthetic", False, 1.0, 0.5, "forced failure")

        monkeypatch.setitem(cli._RUNNERS, "solve-asymptotic", failing)
        config = write_config(tmp_path, self.asymptotic_doc())
        assert cli.main(["solve-asymptotic", "--config", config,
                         "--out-dir", str(tmp_path)]) == cli.EXIT_CHECK

    def test_determinism_modulo_runtime(self, tmp_path):
        config = write_config(tmp_path, self.asymptotic_doc())
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert cli.main(["solve-asymptotic", "--config", config, "--out-dir", str(out1)]) == 0
        assert cli.main(["solve-asymptotic", "--config", config, "--out-dir", str(out2)]) == 0
        assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        r1.pop("runtime_seconds")
        r2.pop("runtime_seconds")
        r1.pop("outputs")
        r2.pop("outputs")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
