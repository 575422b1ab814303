"""Span tracer for the benchmark's traced run.

The traced run wraps public functions of ``plateau_hyp`` (and the numpy and
scipy linear-solve entry points it calls) from outside: nothing inside the
program changes.  Every wrapped call records a span (name, start, end,
parent, run id) in memory; the spans are written out once the run ends and
reduced to the per-layer metrics named in ``BENCHMARK.json``.

A layer's ``self_s`` is the time of its spans minus the time of their direct
child spans.  Times are inclusive everywhere else.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import os
import time
from collections import defaultdict

# Every call the traced run times, in one table so that a rename in the
# program costs one line here: (module, attribute, span name, mode).  Mode
# "span" records one span per call.  Mode "leaf" only counts the calls and
# their time and charges that time to the enclosing span's children: the
# dilation drift is evaluated once per grid node, 4,225 times per 65^2
# residual evaluation, and a span per call would hold millions of spans.
WRAPPED = (
    ("numpy.linalg", "solve", "linalg.dense_solve", "span"),
    ("scipy.linalg", "solve", "linalg.dense_solve", "span"),
    ("scipy.linalg", "lu_factor", "linalg.dense_solve", "span"),
    ("scipy.sparse.linalg", "spsolve", "linalg.sparse_factorization", "span"),
    ("scipy.sparse.linalg", "splu", "linalg.sparse_factorization", "span"),
    ("scipy.sparse.linalg", "factorized", "linalg.sparse_factorization", "span"),
    ("plateau_hyp.operator", "orientation", "operator.orientation", "span"),
    ("plateau_hyp.operator", "residual_field_parabolic", "operator.residual", "span"),
    ("plateau_hyp.operator", "residual_field_chart", "operator.residual", "span"),
    ("plateau_hyp.geometry", "KillingStructure.chart_drift", "geometry.chart_drift", "leaf"),
    ("plateau_hyp.geometry", "between_spheres_check", "geometry.between_spheres", "span"),
    ("plateau_hyp.barriers", "transformed_stack", "barriers.stack_build", "span"),
    ("plateau_hyp.barriers", "TransformedStack.__call__", "barriers.stack_eval", "span"),
    ("plateau_hyp.barriers", "make_supersolution", "barriers.supersolution", "span"),
    ("plateau_hyp.solver", "solve_dirichlet", "solver.solve_dirichlet", "span"),
    ("plateau_hyp.solver", "JacobianBuilder.__init__", "solver.jacobian_builder", "span"),
    ("plateau_hyp.solver", "JacobianBuilder.assemble", "solver.jacobian_assembly", "span"),
    ("plateau_hyp.solver", "residual_norm", "solver.residual_norm", "span"),
    ("plateau_hyp.perron", "run_asymptotic_solve", "perron.run_asymptotic_solve", "span"),
    ("plateau_hyp.perron", "perron_sweep", "perron.sweep", "span"),
    ("plateau_hyp.perron", "build_ball_cover", "perron.cover", "span"),
    ("plateau_hyp.perron", "poisson_smoothed", "perron.face_data", "span"),
    ("plateau_hyp.cli", "run_scenario", "cli.scenario", "span"),
    ("plateau_hyp.cli", "emit_outputs", "cli.emit", "span"),
)

SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "run", "child_ns")


def _count(tracer, key: str, amount=1) -> None:
    tracer.now[key] += amount


def _on_solve(tracer, args, kwargs, result, exc) -> None:
    from plateau_hyp.solver import SolverDivergence

    if isinstance(exc, SolverDivergence):
        _count(tracer, "solver.divergences")
    if result is not None:
        report = result[1]
        _count(tracer, "solver.newton_iters", report.iterations)
        _count(tracer, "solver.picard_iters", report.picard_iterations)
        _count(tracer, "solver.line_search_halvings",
               sum(round(-math.log2(lam)) for lam in report.damping_history))
    if not tracer.inside("perron.sweep"):
        return
    _count(tracer, "perron.lifts")
    initial = kwargs.get("initial", args[2] if len(args) > 2 else None)
    cfg = kwargs.get("cfg", args[1] if len(args) > 1 else None)
    if result is None or cfg is None or isinstance(initial, str) or initial is None:
        return
    interior = args[0].interior_mask() if args else kwargs["problem"].interior_mask()
    raised = float((result[0].values[interior] - initial[interior]).max(initial=-math.inf))
    if raised > cfg.tol:
        _count(tracer, "perron.useful_lifts")


def _on_residual(tracer, args, kwargs, result, exc) -> None:
    _count(tracer, "operator.residual_nodes", args[0].size)


def _on_cover(tracer, args, kwargs, result, exc) -> None:
    if result is not None:
        _count(tracer, "perron.balls", len(getattr(result, "balls", result)))


def _on_face_data(tracer, args, kwargs, result, exc) -> None:
    _count(tracer, "perron.face_points", len(result) if result is not None else 0)


def _on_scenario(tracer, args, kwargs, result, exc) -> None:
    # report.json records the measured runtime, so its length varies by a
    # digit from run to run; the count keeps to the solution artifacts
    if result is not None:
        _count(tracer, "cli.bytes_written",
               sum(os.path.getsize(path) for key, path in result.outputs.items()
                   if key != "report" and os.path.exists(path)))


# Counts read from arguments and return values at the boundary.
HOOKS = {
    "solver.solve_dirichlet": _on_solve,
    "operator.residual": _on_residual,
    "perron.cover": _on_cover,
    "perron.face_data": _on_face_data,
    "cli.scenario": _on_scenario,
}


class Tracer:
    """Spans and counts of wrapped calls, kept in memory until written out.

    ``enabled`` switches recording on around set-up and the entry calls and
    off around the benchmark's own checks; ``run_id`` is 0 for set-up and
    the round number afterwards.
    """

    def __init__(self):
        self.enabled = False
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(float))  # run id -> key -> value
        self.run_id = 0
        self._stack = []
        self._next_id = 0

    @property
    def run_id(self) -> int:
        return self._run_id

    @run_id.setter
    def run_id(self, run: int) -> None:
        self._run_id = run
        self.now = self.counts[run]

    def install(self) -> None:
        """Replace every function in WRAPPED by its recording wrapper."""
        for module_name, attr, name, mode in WRAPPED:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf, None)
            if original is None:
                raise AttributeError(f"{module_name}.{attr} not found; update spans.WRAPPED")
            setattr(owner, leaf, self._wrap(name, original, mode == "leaf"))

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    def _wrap(self, name: str, fn, leaf: bool):
        tracer = self
        hook = HOOKS.get(name)
        clock = time.perf_counter_ns

        if leaf:
            calls_key, ns_key = name + ".calls", name + ".ns"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                start = clock()
                result = fn(*args, **kwargs)
                elapsed = clock() - start
                if tracer._stack:
                    tracer._stack[-1][3] += elapsed
                now = tracer.now
                now[calls_key] += 1
                now[ns_key] += elapsed
                return result
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [tracer._next_id, name, clock(), 0, parent, tracer.run_id]
            tracer._next_id += 1
            tracer._stack.append(frame)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                end = clock()
                tracer._stack.pop()
                span_id, _, start, child_ns, parent, run = frame
                tracer.spans.append((span_id, name, start, end, parent, run, child_ns))
                if tracer._stack:
                    tracer._stack[-1][3] += end - start
                if hook is not None:
                    hook(tracer, args, kwargs, result, exc)
        return spanned

    def write(self, path: str, header: dict) -> None:
        """Spans as gzipped JSON lines, after a header line with the counts."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write(json.dumps(dict(header, fields=SPAN_FIELDS, counts=self.counts)) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def layer_metrics(self, run: int) -> dict:
        """Per-layer metrics of one round, by the names in BENCHMARK.json."""
        names = {}
        count = defaultdict(int)
        total = defaultdict(int)
        self_ns = defaultdict(int)
        for span_id, name, start, end, parent, span_run, child_ns in self.spans:
            names[span_id] = name
            if span_run != run:
                continue
            count[name] += 1
            total[name] += end - start
            self_ns[name.split(".")[0]] += end - start - child_ns
        residual_check_ns = sum(
            end - start for span_id, name, start, end, parent, span_run, _ in self.spans
            if span_run == run and name == "solver.residual_norm"
            and names.get(parent, "").startswith("perron."))
        c = defaultdict(float, self.counts.get(run, {}))
        self_ns["geometry"] += c["geometry.chart_drift.ns"]

        def s(ns):
            return ns * 1e-9

        def ratio(num, den):
            return num / den if den else 0.0

        linear = count["linalg.dense_solve"] + count["linalg.sparse_factorization"]
        return {
            "operator.residual_calls": count["operator.residual"],
            "operator.residual_s": s(total["operator.residual"]),
            "operator.residual_ns_per_node": ratio(total["operator.residual"],
                                                   c["operator.residual_nodes"]),
            "operator.self_s": s(self_ns["operator"]),
            "operator.orientation_s": s(total["operator.orientation"]),
            "geometry.chart_drift_calls": c["geometry.chart_drift.calls"],
            "geometry.chart_drift_s": s(c["geometry.chart_drift.ns"]),
            "geometry.between_spheres_s": s(total["geometry.between_spheres"]),
            "geometry.self_s": s(self_ns["geometry"]),
            "barriers.stacks_built": count["barriers.stack_build"],
            "barriers.stack_build_s": s(total["barriers.stack_build"]),
            "barriers.stack_eval_s": s(total["barriers.stack_eval"]),
            "barriers.self_s": s(self_ns["barriers"]),
            "solver.solves": count["solver.solve_dirichlet"],
            "solver.newton_iters": c["solver.newton_iters"],
            "solver.picard_iters": c["solver.picard_iters"],
            "solver.line_search_halvings": c["solver.line_search_halvings"],
            "solver.divergences": c["solver.divergences"],
            "solver.self_s": s(self_ns["solver"]),
            "solver.jacobian_assemblies": count["solver.jacobian_assembly"],
            "solver.jacobian_builders_built": count["solver.jacobian_builder"],
            "solver.jacobian_s": s(total["solver.jacobian_assembly"]),
            "solver.dense_solves": count["linalg.dense_solve"],
            "solver.dense_solve_s": s(total["linalg.dense_solve"]),
            "solver.sparse_factorizations": count["linalg.sparse_factorization"],
            "solver.sparse_solve_s": s(total["linalg.sparse_factorization"]),
            "solver.factorizations_per_assembly": ratio(linear, count["solver.jacobian_assembly"]),
            "perron.sweeps": count["perron.sweep"],
            "perron.lifts": c["perron.lifts"],
            "perron.balls": c["perron.balls"],
            "perron.face_points": c["perron.face_points"],
            "perron.useful_lift_ratio": ratio(c["perron.useful_lifts"], c["perron.lifts"]),
            "perron.sweep_s": s(total["perron.sweep"]),
            "perron.cover_s": s(total["perron.cover"]),
            "perron.face_data_s": s(total["perron.face_data"]),
            "perron.residual_check_s": s(residual_check_ns),
            "perron.self_s": s(self_ns["perron"]),
            "cli.scenario_s": s(total["cli.scenario"]),
            "cli.emit_s": s(total["cli.emit"]),
            "cli.self_s": s(self_ns["cli"]),
            "cli.bytes_written": c["cli.bytes_written"],
        }
