"""Benchmark of plateau_hyp: seeded solves, timed end to end or traced per layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run repeats whole rounds of one entry call into the program, each
followed by the workload's output checks, until S seconds have passed (at
least one round).  An untraced run also times a fixed reference computation
(``reference.py``) before each round and after the last, and reports each
round's time as a multiple of the mean reference time around it.  The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.
``--quick`` shrinks every grid for the benchmark's own tests.
"""

import os
import sys

# Before numpy loads: BLAS threads at most nproc; one keeps runs steady on a
# shared machine (see README).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 7
EXIT_NO_PROGRAM = 2


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def parse_args(argv):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny grids, for the tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (one set-up sample)")
    return parser.parse_args(argv)


def load_program():
    """Import plateau_hyp from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import plateau_hyp
    if os.path.dirname(os.path.dirname(os.path.abspath(plateau_hyp.__file__))) != SRC:
        raise SystemExit(f"perfbench: plateau_hyp imported from {plateau_hyp.__file__}, not {SRC}")


def set_up(args):
    """The orientation oracle and the workload's inputs."""
    from plateau_hyp import operator
    import workloads

    operator.orientation()
    cls = workloads.WORKLOADS[args.workload]
    nodes = cls.quick_nodes if args.quick else cls.nodes
    return cls(args.seed, nodes, os.path.join(OUT, args.workload))


def setup_seconds(args) -> float:
    """Median over fresh processes of the time from start to inputs ready."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        command.append("--quick")
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up process failed (exit {child.returncode})")
        samples.append(ready - start)
    return statistics.median(samples)


def cold_start() -> None:
    """Empty the program's process-global Jacobian-builder cache.

    A CLI user's solve starts with it empty, so every round does too.  The
    garbage left by the previous round and its checks is collected first,
    so that no round pays for another's.
    """
    from plateau_hyp import solver

    gc.collect()
    cache = getattr(solver, "_BUILDER_CACHE", None)
    if isinstance(cache, dict):
        cache.clear()


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "plateau_hyp", "__init__.py")):
        print(f"perfbench: no program at {SRC}/plateau_hyp; run from a full checkout",
              file=sys.stderr)
        return EXIT_NO_PROGRAM
    load_program()
    import reference
    if args.setup_only:
        set_up(args)
        print("ready", flush=True)
        return 0

    setup_s = None if args.trace else setup_seconds(args)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
        from plateau_hyp import operator
        operator.reset_orientation()
        tracer.enabled = True
    workload = set_up(args)
    if tracer:
        tracer.enabled = False

    rounds = []
    attempted = failed = 0
    correct = True
    peak_rss_mb = None
    # the reference times before and after each round; untraced runs only
    references = []
    started = time.perf_counter()
    while attempted == 0 or time.perf_counter() - started < args.seconds:
        attempted += 1
        cold_start()
        if tracer:
            tracer.run_id = attempted
            tracer.enabled = True
        else:
            references.append(reference.time_reference())
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            result = workload.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            print(f"round {attempted}: FAILED {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        finally:
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            if tracer:
                tracer.enabled = False
            # the first solve's peak, before any check runs: later rounds
            # would make the figure depend on how many rounds fit the run
            if peak_rss_mb is None:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks = workload.check(result)
        bad = [c for c in checks if not c.passed]
        correct = correct and not bad
        rounds.append({"round": attempted, "solve_s": wall, "solve_cpu_s": cpu,
                       "checks": {c.name: [c.value, c.bound, c.passed] for c in checks}})
        print(f"round {attempted}: solve {wall:.3f} s, cpu {cpu:.3f} s, "
              f"checks {'PASS' if not bad else 'FAIL ' + ', '.join(c.name for c in bad)}",
              flush=True)

    if not rounds:
        print(f"perfbench: all {attempted} rounds failed", file=sys.stderr)
        return 1
    if not tracer:
        references.append(reference.time_reference())
        for r in rounds:
            before, after = references[r["round"] - 1], references[r["round"]]
            r["reference_s"] = (before[0] + after[0]) / 2
            r["reference_cpu_s"] = (before[1] + after[1]) / 2
            r["solve_rel"] = r["solve_s"] / r["reference_s"]
            r["solve_cpu_rel"] = r["solve_cpu_s"] / r["reference_cpu_s"]
    env = environment()
    if tracer:
        done = [r["round"] for r in rounds]
        per_round = [tracer.layer_metrics(r) for r in done]
        values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        values["operator.orientation_s"] += tracer.layer_metrics(0)["operator.orientation_s"]
        units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl.gz"),
                     {"workload": args.workload, "seed": args.seed, "env": env,
                      "rounds": rounds})
    else:
        values = {
            "setup_s": setup_s,
            "solve_rel": statistics.median(r["solve_rel"] for r in rounds),
            "solve_cpu_rel": statistics.median(r["solve_cpu_rel"] for r in rounds),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {m["name"]: m["unit"] for m in load_spec()["end_to_end"]}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units}}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as handle:
        json.dump(dict(result, env=env, rounds=rounds), handle, indent=1)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
