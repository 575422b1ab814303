"""Batch front door: config-driven scenario runs with file artifacts.

Usage: ``plateau-hyp <mode> --config <path> [--out-dir <path>] [--seed s]``.
Configs are single JSON documents; unknown keys are rejected.  Artifacts
(solution CSV, OBJ mesh for planar runs, JSON diagnostics report) are
written atomically, and runs are deterministic for a fixed config and
seed up to the recorded runtime.  Exit codes: 0 all checks passed, 2 config
error, 3 solver divergence or Perron failure (stall, sweep limit, decrease,
sandwich violation or divergence), 4 check failure.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import json
import math
import os
import stat
import sys
import tempfile
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import barriers, operator, perron, solver
from .geometry import EXACT_FAMILIES, PARABOLIC, HYPERBOLIC
from .operator import GridFunction, exact_patch, make_grid, sample_on_grid
from .perron import BoundaryDatum, PerronConfig
from .solver import DirichletProblem, SolverConfig, SolverDivergence

MODES = ("solve-asymptotic", "solve-dirichlet", "barrier", "verify-exact", "oracle-mc", "compare")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_CHECK = 4


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key path."""


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

_DOMAIN_DEFAULTS = {"L": 2.0, "y_min": 0.05, "y_max": 0.8}
_SOLVER_DEFAULTS = {"tol": PerronConfig.tol, "max_iters": PerronConfig.solver_max_iters,
                    "max_sweeps": PerronConfig.max_sweeps}


@dataclass
class RunConfig:
    mode: str
    n: int = 2
    H: float = 0.0
    structure: str = PARABOLIC
    boundary: dict | None = None
    boundary_2: dict | None = None
    domain: dict = field(default_factory=lambda: dict(_DOMAIN_DEFAULTS))
    grid: int | list = 65
    solver: dict = field(default_factory=lambda: dict(_SOLVER_DEFAULTS))
    outputs: dict = field(default_factory=dict)
    seed: int = 0
    l: float | None = None
    alpha: float | None = None
    family: dict | None = None
    mask: dict | None = None

    def grid_nodes(self) -> list:
        if isinstance(self.grid, int):
            return [self.grid] * self.n
        return list(self.grid)


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _number(value, path: str, integer: bool = False):
    """``value`` if it is a JSON number (an integer when ``integer``), else a ConfigError."""
    kinds = int if integer else (int, float)
    _require(isinstance(value, kinds) and not isinstance(value, bool), path,
             "must be an integer" if integer else "must be a number")
    return value


def parse_config(document: dict) -> RunConfig:
    """Validate a config document; unknown keys are rejected with their path."""
    if not isinstance(document, dict):
        raise ConfigError("$: config must be a JSON object")
    known = {f.name for f in fields(RunConfig)}
    for key in document:
        _require(key in known, f"$.{key}", "unknown key")
    mode = document.get("mode")
    _require(mode in MODES, "$.mode", f"must be one of {MODES}")

    cfg = RunConfig(mode=mode)
    cfg.n = _number(document.get("n", cfg.n), "$.n", integer=True)
    _require(cfg.n in (1, 2, 3), "$.n", "dimension must be 1, 2, or 3")
    cfg.H = float(_number(document.get("H", cfg.H), "$.H"))
    _require(abs(cfg.H) < 1,
             "$.H", f"|H| < 1 is required (equidistant graphs exhaust |H| < 1); got {cfg.H}")
    cfg.structure = document.get("structure", cfg.structure)
    _require(cfg.structure in (PARABOLIC, HYPERBOLIC), "$.structure",
             "must be 'parabolic' or 'hyperbolic'")

    dom = cfg.domain
    extra = document.get("domain", {})
    _require(isinstance(extra, dict), "$.domain", "must be an object")
    for key in extra:
        _require(key in dom, f"$.domain.{key}", "unknown key")
    dom.update({k: float(_number(v, f"$.domain.{k}")) for k, v in extra.items()})
    _require(dom["y_min"] > 0, "$.domain.y_min", "must be positive")
    _require(dom["y_max"] > dom["y_min"], "$.domain.y_max", "must exceed y_min")
    _require(dom["L"] > 0, "$.domain.L", "must be positive")

    grid = document.get("grid", cfg.grid)
    if isinstance(grid, list):
        _require(len(grid) == cfg.n and all(isinstance(g, int) for g in grid),
                 "$.grid", "must be an int or a list of ints, one per axis")
    else:
        _require(isinstance(grid, int), "$.grid", "must be an int or a list of ints")
    cfg.grid = grid
    if mode in ("solve-asymptotic", "solve-dirichlet", "compare"):
        nodes = cfg.grid_nodes()
        _require(min(nodes) >= 17, "$.grid", "solve modes need at least 17 nodes per axis")

    sol = cfg.solver
    extra = document.get("solver", {})
    _require(isinstance(extra, dict), "$.solver", "must be an object")
    for key in extra:
        _require(key in sol, f"$.solver.{key}", "unknown key")
    sol.update(extra)
    _require(_number(sol["tol"], "$.solver.tol") > 0, "$.solver.tol", "must be positive")
    for key in ("max_iters", "max_sweeps"):
        _require(_number(sol[key], f"$.solver.{key}", integer=True) >= 1, f"$.solver.{key}",
                 "must be at least 1")

    cfg.outputs = document.get("outputs", cfg.outputs)
    _require(isinstance(cfg.outputs, dict), "$.outputs", "must be an object of name -> path")
    for key, value in cfg.outputs.items():
        _require(isinstance(value, str), f"$.outputs.{key}", "must be a path string")
    cfg.seed = _number(document.get("seed", cfg.seed), "$.seed", integer=True)

    if "boundary" in document:
        cfg.boundary = _parse_boundary(document["boundary"], "$.boundary")
    if "boundary_2" in document:
        cfg.boundary_2 = _parse_boundary(document["boundary_2"], "$.boundary_2")
    if mode in ("solve-asymptotic", "compare"):
        _require(cfg.boundary is not None, "$.boundary", "required for this mode")
        _require(cfg.structure == PARABOLIC, "$.structure",
                 "asymptotic solves are defined for the parabolic structure")
    if mode == "compare":
        _require(cfg.boundary_2 is not None, "$.boundary_2", "required for compare mode")

    if mode == "barrier":
        _require("l" in document, "$.l", "barrier mode needs the separation distance l")
        cfg.l = float(_number(document["l"], "$.l"))
        _require(cfg.l > 0, "$.l", "must be positive")
        if "alpha" in document:
            cfg.alpha = float(_number(document["alpha"], "$.alpha"))
            _require(0 < cfg.alpha < math.pi / 2, "$.alpha", "must lie in (0, pi/2)")

    if mode == "solve-dirichlet":
        cfg.family = _parse_family(document.get("family", {"name": "constant", "c": 0.5}))
        cfg.mask = _parse_mask(document.get("mask", {"kind": "box"}), cfg.n)

    return cfg


def _parse_family(fam) -> dict:
    """Check a catalog family spec: a name and its parameters from ``EXACT_FAMILIES``."""
    _require(isinstance(fam, dict) and "name" in fam, "$.family", "must be an object with a 'name'")
    name = fam["name"]
    _require(isinstance(name, str) and name in EXACT_FAMILIES, "$.family.name",
             f"must be one of {sorted(EXACT_FAMILIES)}")
    declared = EXACT_FAMILIES[name]
    for key, value in fam.items():
        if key != "name":
            _require(key in declared, f"$.family.{key}", "unknown key")
            _number(value, f"$.family.{key}")
    for key, default in declared.items():
        _require(key in fam or default is not None, f"$.family.{key}", f"required by {name!r}")
    return fam


def _parse_mask(mask, n: int) -> dict:
    """Check a solve-dirichlet mask: its kind, a center of n numbers, a positive radius."""
    _require(isinstance(mask, dict), "$.mask", "must be an object")
    for key in mask:
        _require(key in ("kind", "center", "radius"), f"$.mask.{key}", "unknown key")
    _require(mask.get("kind") in ("box", "ball"), "$.mask.kind", "must be 'box' or 'ball'")
    if "center" in mask:
        center = mask["center"]
        _require(isinstance(center, list) and len(center) == n, "$.mask.center",
                 f"must be a list of {n} numbers, one per axis")
        for value in center:
            _number(value, "$.mask.center")
    if "radius" in mask:
        _require(_number(mask["radius"], "$.mask.radius") > 0, "$.mask.radius", "must be positive")
    return mask


def _parse_boundary(spec, path: str) -> dict:
    """Check a datum spec: its kind, and keys that are its constructor's parameters."""
    _require(isinstance(spec, dict), path, "must be an object")
    kinds = perron.DATUM_KINDS
    kind = spec.get("kind")
    _require(isinstance(kind, str) and kind in kinds, f"{path}.kind",
             f"must be one of {sorted(kinds)}")
    allowed = {"kind", *inspect.signature(kinds[kind]).parameters}
    for key, value in spec.items():
        _require(key in allowed, f"{path}.{key}", "unknown key")
        if key != "kind":
            for v in value if isinstance(value, list) else [value]:
                _number(v, f"{path}.{key}")
    return dict(spec)


def build_datum(spec: dict, path: str = "$.boundary") -> BoundaryDatum:
    """The datum of a parsed spec, from its kind's constructor in ``perron.DATUM_KINDS``."""
    params = dict(spec)
    kind = params.pop("kind")
    try:
        return perron.DATUM_KINDS[kind](**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Diagnostics report
# ---------------------------------------------------------------------------

@dataclass
class CheckRecord:
    """One check; ``value`` is one measured number or a list of them."""

    name: str
    status: str
    value: float | list
    tolerance: float
    anchor: str

    def value_text(self) -> str:
        if isinstance(self.value, list):
            return "[" + ", ".join(f"{v:.6g}" for v in self.value) + "]"
        return f"{self.value:.6g}"


@dataclass
class DiagnosticsReport:
    """What report.json holds.

    ``solve`` is the solve's own account, copied from its report: for
    solve-dirichlet the Newton iterations, the damping history, the GMRES
    iterations of each Newton step (0 for a direct solve) and the
    nested-iteration levels; for solve-asymptotic the per-sweep lists of
    the Perron report.  Other modes leave it empty.
    """

    config: dict
    checks: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    solve: dict = field(default_factory=dict)
    runtime_seconds: float = 0.0

    def add(self, name: str, passed: bool, value, tolerance: float, anchor: str) -> None:
        value = [float(v) for v in value] if isinstance(value, list) else float(value)
        self.checks.append(CheckRecord(name, "PASS" if passed else "FAIL",
                                       value, float(tolerance), anchor))

    def all_passed(self) -> bool:
        return all(c.status == "PASS" for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "checks": [vars(c) for c in self.checks],
            "outputs": self.outputs,
            "solve": self.solve,
            "runtime_seconds": self.runtime_seconds,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Atomic artifact emission
# ---------------------------------------------------------------------------

def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it to ``path``.

    A reader finds the old file or the whole new one, never part of one.
    The file gets the mode that ``open(path, "w")`` would give it, not
    mkstemp's 0600: an existing file keeps its own, and a new one gets 0666
    less the umask.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)  # the only way to read it; set straight back
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-artifact-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            os.fchmod(handle.fileno(), mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _format_grid(u: GridFunction) -> tuple:
    """(axis coordinates per axis, values in C order), each formatted once with ``.17g``."""
    axes = [[f"{x:.17g}" for x in axis.tolist()] for axis in u.axes]
    values = [f"{v:.17g}" for v in u.values.ravel().tolist()]
    return axes, values


def grid_to_csv(u: GridFunction, *, strings: tuple | None = None) -> str:
    """Row-major CSV of the grid: x1..x_{n-1}, y, u at 17 significant digits.

    Each axis coordinate and value is formatted once; the rows pair those
    strings in C order, the order of ``u.values.ravel()``.  ``strings`` is
    ``_format_grid(u)`` when the caller has formatted the grid already, as
    :func:`emit_outputs` has for the OBJ too; the text is the same either way.
    """
    axes, values = _format_grid(u) if strings is None else strings
    header = ",".join([f"x{i+1}" for i in range(u.ndim - 1)] + ["y", "u"])
    prefixes = [[x + "," for x in axis] for axis in axes]
    rows = ["".join(coords) + v for coords, v in zip(itertools.product(*prefixes), values)]
    return "\n".join([header] + rows) + "\n"


def csv_to_grid(text: str) -> GridFunction:
    """Inverse of :func:`grid_to_csv` for round-trip checks."""
    lines = [ln for ln in text.strip().split("\n")]
    header = lines[0].split(",")
    n = len(header) - 1
    data = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])
    axes = []
    for d in range(n):
        axes.append(np.unique(data[:, d]))
    shape = tuple(len(a) for a in axes)
    values = data[:, -1].reshape(shape)
    return GridFunction(tuple(axes), values)


def grid_to_obj(u: GridFunction, *, strings: tuple | None = None) -> str:
    """Wavefront mesh of the embedded graph (planar chart only).

    Vertices are the ambient points (u, x, y) at 17 significant digits, in
    the CSV's row order; quads between neighboring nodes are split into two
    triangles.  ``strings`` is as for :func:`grid_to_csv`.
    """
    if u.ndim != 2:
        raise ValueError("OBJ emission is defined for planar (n = 2) grids")
    (xs, ys), values = _format_grid(u) if strings is None else strings
    lines = [f"v {v} {x} {y}" for (x, y), v in zip(itertools.product(xs, ys), values)]
    faces = _obj_faces(len(xs), len(ys))
    return "\n".join(lines + [faces] if faces else lines) + "\n"


@functools.lru_cache(maxsize=8)
def _obj_faces(nx: int, ny: int) -> str:
    """The face lines of an nx x ny OBJ grid, two triangles per quad, joined by newlines."""
    lines = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            a = i * ny + j + 1
            b = (i + 1) * ny + j + 1
            c = (i + 1) * ny + j + 2
            d = i * ny + j + 2
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d}")
    return "\n".join(lines)


def emit_outputs(u: GridFunction, cfg: RunConfig, out_dir: str, report: DiagnosticsReport,
                 stem: str = "solution") -> None:
    """Write ``u`` as ``<stem>.csv``, and as ``<stem>.obj`` on a planar grid.

    The config's ``outputs`` may name other paths; ``report.outputs``
    records the ones written.  The values and axis coordinates are
    formatted once, and :func:`grid_to_csv` and :func:`grid_to_obj` build
    both texts from those strings.
    """
    strings = _format_grid(u)
    csv_path = cfg.outputs.get("csv", os.path.join(out_dir, f"{stem}.csv"))
    _atomic_write(csv_path, grid_to_csv(u, strings=strings))
    report.outputs["csv"] = csv_path
    if u.ndim == 2:
        obj_path = cfg.outputs.get("obj", os.path.join(out_dir, f"{stem}.obj"))
        _atomic_write(obj_path, grid_to_obj(u, strings=strings))
        report.outputs["obj"] = obj_path


# ---------------------------------------------------------------------------
# Mode runners
# ---------------------------------------------------------------------------

def _grid_from_cfg(cfg: RunConfig) -> GridFunction:
    return make_grid(cfg.n, cfg.domain["L"], cfg.domain["y_min"], cfg.domain["y_max"],
                     cfg.grid_nodes())


def _perron_cfg(cfg: RunConfig) -> PerronConfig:
    return PerronConfig(tol=cfg.solver["tol"], max_sweeps=cfg.solver["max_sweeps"],
                        solver_max_iters=cfg.solver["max_iters"])


def _run_solve_asymptotic(cfg: RunConfig, report: DiagnosticsReport, out_dir: str) -> None:
    phi = build_datum(cfg.boundary)
    u, prun = perron.run_asymptotic_solve(phi, cfg.H, _grid_from_cfg(cfg), _perron_cfg(cfg))
    report.solve = {key: getattr(prun, key) for key in (
        "sweeps", "radii", "radius_halvings", "smallest_radii", "lift_retries", "increments",
        "residuals", "newton_iterations", "lu_fallbacks")}
    report.add("perron.converged", prun.final_residual <= cfg.solver["tol"],
               prun.final_residual, cfg.solver["tol"],
               "monotone lift iteration between the zero subsolution and the plane")
    low, high = prun.min_u, prun.max_above_upper
    slack = 10 * cfg.solver["tol"]
    report.add("perron.sandwich", low >= -slack and high <= slack, [low, high], slack,
               "min(u) and max(u - upper): the iterate stays between the zero graph "
               "and the equidistant plane")
    inc = prun.increments
    monotone = all(inc[i + 1] <= inc[i] + 10 * cfg.solver["tol"] for i in range(len(inc) - 1))
    report.add("perron.increments_settle", monotone, inc[-1], cfg.solver["tol"],
               "sweep increments shrink from sweep to sweep")
    if cfg.boundary.get("kind") == "constant":
        # the plane through the datum on the bottom face y = y_min
        slope = operator.orientation().solution_slope(cfg.H)
        y = u.meshgrid()[-1]
        exact = phi.params["c"] + slope * (y - cfg.domain["y_min"])
        err = float(np.max(np.abs(u.values - exact)))
        h2 = max(u.spacing) ** 2
        tol = max(10 * cfg.solver["tol"], 5 * h2)
        report.add("perron.matches_equidistant_plane", err <= tol, err, tol,
                   "constant data reproduces the exact equidistant plane")
    att = perron.boundary_attainment_report(u, phi)
    report.add("perron.attainment_finite", math.isfinite(att["max_error"]), att["max_error"],
               math.inf, "datum attainment probed on the first free row")
    emit_outputs(u, cfg, out_dir, report)


def _run_compare(cfg: RunConfig, report: DiagnosticsReport, out_dir: str) -> None:
    phi1 = build_datum(cfg.boundary)
    phi2 = build_datum(cfg.boundary_2, "$.boundary_2")
    xs = np.linspace(-3 * cfg.domain["L"], 3 * cfg.domain["L"], 801)
    if np.any(np.asarray(phi1(xs)) > np.asarray(phi2(xs)) + 1e-12):
        raise ConfigError("$.boundary_2: compare mode needs boundary <= boundary_2 pointwise")
    pcfg = _perron_cfg(cfg)
    u1, _ = perron.run_asymptotic_solve(phi1, cfg.H, _grid_from_cfg(cfg), pcfg)
    u2, _ = perron.run_asymptotic_solve(phi2, cfg.H, _grid_from_cfg(cfg), pcfg)
    result = perron.comparison_check(u1, u2, cfg.solver["tol"])
    report.add("compare.ordered_solutions", result["passed"], result["max_positive_part"],
               result["tolerance"], "ordered data produce ordered solutions")
    emit_outputs(u1, cfg, out_dir, report, stem="solution_1")
    csv_path = os.path.join(out_dir, "solution_2.csv")
    _atomic_write(csv_path, grid_to_csv(u2))
    report.outputs["csv_2"] = csv_path


def _run_barrier(cfg: RunConfig, report: DiagnosticsReport, out_dir: str) -> None:
    l = cfg.l
    alpha = cfg.alpha if cfg.alpha is not None else barriers.select_alpha(l)
    margin = barriers.alpha_margin(alpha)
    report.add("barrier.alpha_window", l < margin < l + 1, margin, 1e-10,
               "limiting stack height lies in (l, l+1)")
    if cfg.alpha is None:
        report.add("barrier.alpha_target", abs(margin - (l + 0.5)) <= 1e-10,
                   abs(margin - (l + 0.5)), 1e-10, "bisection hits the midpoint target")
    stack = barriers.build_stack(l, alpha)
    heights, radii = stack.heights(), stack.radii()
    report.add("barrier.t0_exact", heights[0] == -math.sin(stack.beta), heights[0], 0.0,
               "base height equals -sin(beta) exactly")
    pasting = max(abs(radii[k] * math.cos(stack.beta) - radii[k - 1] * math.cos(stack.alpha))
                  for k in range(1, len(radii)))
    report.add("barrier.pasting_identity", pasting <= 1e-14, pasting, 1e-14,
               "consecutive pieces meet on the common parallel sphere")
    report.add("barrier.window_exit", l < heights[-1] < l + 1, heights[-1], 0.0,
               "final height lands inside (l, l+1)")

    lines = ["k,t_k,R_k"]
    for k, (t, R) in enumerate(stack.levels):
        lines.append(f"{k},{t:.17g},{R:.17g}")
    levels_path = os.path.join(out_dir, "stack_levels.csv")
    _atomic_write(levels_path, "\n".join(lines) + "\n")
    report.outputs["levels_csv"] = levels_path

    rho = np.linspace(0.0, 1.2, 601)
    prof = barriers.eval_stack_radial(stack, rho)
    lines = ["rho,w"]
    lines += [f"{r:.17g},{v:.17g}" for r, v in zip(rho, prof)]
    profile_path = os.path.join(out_dir, "stack_profile.csv")
    _atomic_write(profile_path, "\n".join(lines) + "\n")
    report.outputs["profile_csv"] = profile_path
    report.add("barrier.axis_separates", prof[0] > l, prof[0], 0.0,
               "axis value exceeds the separation distance l")


def _run_verify_exact(cfg: RunConfig, report: DiagnosticsReport, out_dir: str) -> None:
    conv = operator.orientation()
    rng = np.random.default_rng(cfg.seed)
    families = [
        ("constant", exact_patch("constant", c=0.7), 0.0),
        ("hemisphere", exact_patch("hemisphere", t=0.1, R=1.5), 0.0),
        ("tilted_plane", exact_patch("tilted_plane", a=conv.solution_slope(0.5), b=0.3), 0.5),
    ]
    for name, patch, H in families:
        worst = 0.0
        for _ in range(100):
            z = np.empty(cfg.n)
            z[:-1] = rng.uniform(-0.5, 0.5, size=cfg.n - 1)
            z[-1] = rng.uniform(0.3, 1.0)
            worst = max(worst, abs(operator.qh_pointwise(patch, z, PARABOLIC, H, n=cfg.n)))
        report.add(f"exact.{name}.residual", worst <= 1e-9, worst, 1e-9,
                   "catalog solution satisfies the graph equation pointwise")
    if cfg.n == 2:
        orders = _grid_orders(conv)
        for name, order in orders.items():
            report.add(f"exact.{name}.grid_order", order >= 1.9, order, 1.9,
                       "discrete residual converges at second order")


def _grid_orders(conv) -> dict:
    errs = {"hemisphere": [], "tilted_plane": [], "constant": []}
    slope = conv.solution_slope(0.5)
    for nodes in (65, 129, 257):
        grid = make_grid(2, 0.45, 0.25, 0.95, nodes)
        for name in errs:
            if name == "hemisphere":
                u = sample_on_grid(grid, lambda z: 0.1 + math.sqrt(1.5**2 - float(np.dot(z, z))))
                H = 0.0
            elif name == "tilted_plane":
                u = sample_on_grid(grid, lambda z: slope * z[-1] + 0.3)
                H = 0.5
            else:
                u = sample_on_grid(grid, lambda z: 0.7)
                H = 0.0
            res = operator.qh_residual_grid(u, PARABOLIC, H, convention=conv)
            errs[name].append(float(np.max(np.abs(res.values[~res.boundary]))))
    out = {}
    floor = 1e-10  # exact discrete solutions sit at roundoff; report as resolved
    for name, seq in errs.items():
        if max(seq) <= floor:
            out[name] = float("inf")
        else:
            out[name] = min(math.log2(seq[i] / seq[i + 1]) for i in range(len(seq) - 1))
    return out


def _run_oracle_mc(cfg: RunConfig, report: DiagnosticsReport, out_dir: str) -> None:
    conv = operator.orientation()
    n = cfg.n if cfg.n >= 2 else 2
    if cfg.structure == HYPERBOLIC:
        patch = operator.ScalarPatch(lambda z: 0.35)
        val = operator.graph_mean_curvature(patch, np.array([0.2] * (n - 1) + [0.9]), HYPERBOLIC, n)
        report.add("oracle.dilated_hemisphere_minimal", abs(val) <= 1e-6, abs(val), 1e-6,
                   "constant radial graphs over the unit hemisphere are minimal")
        return
    hemi = exact_patch("hemisphere", t=0.0, R=1.0)
    val = operator.graph_mean_curvature(hemi, np.array([0.25] * (n - 1) + [0.55]), PARABOLIC, n)
    report.add("oracle.hemisphere_minimal", abs(val) <= 1e-6, abs(val), 1e-6,
               "geodesic hemispheres are minimal")
    horo = numerical_horosphere_curvature(n)
    report.add("oracle.horosphere_unit", abs(abs(horo) - 1.0) <= 1e-6, abs(horo), 1e-6,
               "level planes have unit curvature, the limiting regime")
    plane = exact_patch("tilted_plane", a=1.0, b=0.0)
    val = operator.graph_mean_curvature(plane, np.array([0.0] * (n - 1) + [1.0]), PARABOLIC, n)
    report.add("oracle.plane_abs", abs(abs(val) - 1 / math.sqrt(2)) <= 1e-6, abs(val), 1e-6,
               "tilted planes carry |a|/sqrt(1+a^2)")
    report.add("oracle.orientation_sign", conv.sign in (-1, 1), conv.sign, 0,
               "orientation fixed once per run")


def numerical_horosphere_curvature(n: int) -> float:
    """Oracle curvature of a level plane {y = const} against the downward normal."""
    height = 1.3

    def f(xi):
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        return np.concatenate([xi, [height]])

    down = np.zeros(n + 1)
    down[-1] = 1.0
    return operator.numerical_mean_curvature(f, np.zeros(n) + 0.1, n, orientation_ref=down)


def _run_solve_dirichlet(cfg: RunConfig, report: DiagnosticsReport, out_dir: str) -> None:
    fam = dict(cfg.family)
    name = fam.pop("name")
    patch = exact_patch(name, **fam)
    grid = _grid_from_cfg(cfg)
    if cfg.mask.get("kind") == "ball":
        center = cfg.mask.get("center", [0.0] * (cfg.n - 1) + [0.5 * (cfg.domain["y_min"] + cfg.domain["y_max"])])
        radius = cfg.mask.get("radius", 0.3)
        mask = solver.ball_mask(grid, center, radius)
        if not mask.any():
            raise ConfigError("$.mask: ball does not intersect the grid")
    else:
        mask = np.ones(grid.values.shape, dtype=bool)
    data = sample_on_grid(grid, patch.value).values
    problem = DirichletProblem(grid=grid, mask=mask, data=data, H=cfg.H, kind=cfg.structure)
    scfg = SolverConfig(tol=cfg.solver["tol"], max_iters=cfg.solver["max_iters"])
    u, srep = solver.solve_dirichlet(problem, scfg)
    report.solve = {"iterations": srep.iterations, "damping_history": srep.damping_history,
                    "krylov_iterations": srep.krylov_iterations,
                    "lu_fallbacks": srep.lu_fallbacks,
                    "levels": [vars(level) for level in srep.levels]}
    err = float(np.max(np.abs(u.values[problem.mask] - data[problem.mask])))
    report.add("dirichlet.converged", srep.final_residual <= cfg.solver["tol"],
               srep.final_residual, cfg.solver["tol"],
               "bounded-domain graph problem solved at tolerance")
    report.add("dirichlet.recovery_error", err < 1.0, err, 1.0,
               "recovered field stays near the sampled catalog solution")
    emit_outputs(u, cfg, out_dir, report)


_RUNNERS = {
    "solve-asymptotic": _run_solve_asymptotic,
    "compare": _run_compare,
    "barrier": _run_barrier,
    "verify-exact": _run_verify_exact,
    "oracle-mc": _run_oracle_mc,
    "solve-dirichlet": _run_solve_dirichlet,
}


def run_scenario(cfg: RunConfig, out_dir: str) -> DiagnosticsReport:
    """Execute one mode and write its artifacts; returns the diagnostics."""
    started = time.perf_counter()
    echo = {k: v for k, v in vars(cfg).items() if v is not None}
    report = DiagnosticsReport(config=json.loads(json.dumps(echo, default=list)))
    os.makedirs(out_dir, exist_ok=True)
    _RUNNERS[cfg.mode](cfg, report, out_dir)
    report.runtime_seconds = time.perf_counter() - started
    report_path = cfg.outputs.get("report", os.path.join(out_dir, "report.json"))
    _atomic_write(report_path, report.to_json() + "\n")
    report.outputs["report"] = report_path
    return report


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="plateau-hyp",
        description="Graph solutions of the constant-mean-curvature equation on the "
                    "hyperbolic half-space slice: solvers, barriers, and verification runs.")
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True, help="path to a JSON run configuration")
    parser.add_argument("--out-dir", default=".", help="artifact directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed override for the sample points of verify-exact")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if not isinstance(document, dict):
        print("config error: document must be a JSON object", file=sys.stderr)
        return EXIT_CONFIG
    document.setdefault("mode", args.mode)
    if document["mode"] != args.mode:
        print(f"config error: $.mode: config says {document['mode']!r} but the command line "
              f"says {args.mode!r}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None:
        document["seed"] = args.seed

    try:
        cfg = parse_config(document)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        report = run_scenario(cfg, args.out_dir)
    except SolverDivergence as exc:
        print(f"solver divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except perron.PerronFailure as exc:
        print(f"perron {exc.kind}: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    for check in report.checks:
        print(f"{check.status:4s} {check.name}: value={check.value_text()} "
              f"tol={check.tolerance:.6g} ({check.anchor})")
    print(f"runtime: {report.runtime_seconds:.2f} s; artifacts: "
          f"{', '.join(report.outputs.values()) or 'none'}")
    if not report.all_passed():
        return EXIT_CHECK
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
