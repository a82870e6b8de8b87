"""Run one benchmark workload in this process and print its result.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

``run.py`` starts it with BLAS pinned to one thread and ``src`` on the path,
so that peak memory belongs to this workload alone.  The last line of
standard output is a JSON object.

The loop is closed with one caller.  Inputs are made and outputs checked
between tasks, outside the timed region; timed wall time is the sum of
task latencies.  It runs until that sum reaches ``--seconds`` and at least
``MIN_TASKS`` tasks have run (so that the tail percentile has ten samples
beyond it), giving up on the second condition after ``WALL_CAP_S``.

With ``--trace 1`` the first ``workload.traced_tasks`` tasks run with spans
around calls into each module (their input generation included), then the
remaining time runs untraced; the ratio of the two task rates is the
tracing overhead.  The traced task count is fixed, so exact counts repeat
for a given seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

MIN_TASKS = 20
WALL_CAP_S = 150.0


def _import_package():
    """Import indefbc from this checkout's ``src``; seconds taken."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    start = time.perf_counter()
    import indefbc  # noqa: F401
    import indefbc.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    where = os.path.dirname(os.path.abspath(indefbc.__file__))
    if where != os.path.join(src, "indefbc"):
        raise SystemExit(f"indefbc imported from {where}, not from {src}")
    return elapsed


def tail_latency(latencies: list) -> tuple[float, float]:
    """Highest nearest-rank percentile with at least ten samples beyond it.

    Returns (value, percentile); with fewer than 11 samples, the maximum.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - 10 if n > 10 else n
    return ordered[rank - 1], 100.0 * rank / n


def run_tasks(workload, start: int, stop, tracer=None) -> list:
    """Run tasks from index ``start`` until ``stop(records)``; one record each."""
    records = []
    index = start
    while not stop(records):
        if tracer is not None:
            tracer.task = index
            tracer.enabled = True
        begin = time.perf_counter()
        task = workload.prepare(index)
        prepared = time.perf_counter() - begin
        error = None
        begin = time.perf_counter()
        try:
            result = workload.run(task)
        except Exception as exc:  # a failed task is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - begin
        if tracer is not None:
            tracer.enabled = False
        written = 0
        if error is None:
            try:
                problems, written = workload.check(task, result)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            error = "; ".join(problems) or None
        records.append({"index": index, "latency": latency, "error": error,
                        "bytes": written, "prepare": prepared})
        index += 1
    return records


def timed_stop(seconds: float, min_tasks: int, wall_start: float):
    def stop(records):
        if time.perf_counter() - wall_start > WALL_CAP_S:
            return True
        return (sum(r["latency"] for r in records) >= seconds
                and len(records) >= min_tasks)
    return stop


def rate(records: list) -> float:
    ok = sum(r["error"] is None for r in records)
    return ok / sum(r["latency"] for r in records)


def environment(workload, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "m": workload.m, "seed": seed,
        "family": workload.family,
    }


def end_to_end(records: list) -> tuple[dict, dict]:
    latencies = [r["latency"] for r in records]
    tail, pct = tail_latency(latencies)
    ok = sum(r["error"] is None for r in records)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "tasks_per_s": (rate(records), "1/s"),
        "task_p50_s": (statistics.median(latencies), "s"),
        "task_tail_s": (tail, "s"),
        "ok_ratio": (ok / len(records), "ratio"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }
    notes = {"tail_percentile": pct, "tail_samples": len(latencies),
             "fail_ratio": (len(records) - ok) / len(records)}
    return metrics, notes


def per_layer(tracer, summary, traced: list, untraced: list, import_s: float) -> dict:
    names, errors, pairs = summary
    meas = tracer.measures

    def calls(span):
        return names[span]["calls"]

    def self_s(*spans):
        return sum(names[s]["self_s"] for s in spans)

    def ratio(num, den):
        return num / den if den else 0.0

    dtn_calls = calls("dtn.dtn_matrix")
    assemblies = pairs[("dtn.assemble", "dtn.dtn_matrix")]
    gamma_calls = calls("spectral.gamma1")
    newton_calls = calls("solve.newton")
    newton_failed = {cls: n for (span, cls), n in errors.items() if span == "solve.newton"}
    points = meas["continuation.continue_branch.points"]
    traced_rate, untraced_rate = rate(traced), rate(untraced)
    out = {
        "dtn.calls": (dtn_calls, "count"),
        "dtn.assemblies": (assemblies, "count"),
        "dtn.hit_ratio": (1.0 - ratio(assemblies, dtn_calls) if dtn_calls else 0.0, "ratio"),
        "dtn.assembled_mib": (meas["dtn.assemble.bytes"] / 2 ** 20, "MiB"),
        "dtn.self_s": (self_s("dtn.dtn_matrix", "dtn.assemble"), "s"),
        "spectral.gamma1.calls": (gamma_calls, "count"),
        "spectral.gamma1.self_s": (self_s("spectral.gamma1"), "s"),
        "spectral.gamma1.evals_per_call": (
            ratio(pairs[("dtn.dtn_matrix", "spectral.gamma1")], gamma_calls), "evals/call"),
        "spectral.principal.calls": (calls("spectral.principal"), "count"),
        "spectral.principal.self_s": (self_s("spectral.principal"), "s"),
        "spectral.mu.calls": (calls("spectral.mu"), "count"),
        "spectral.mu.self_s": (self_s("spectral.mu"), "s"),
        "problem.residual.calls": (calls("problem.residual"), "count"),
        "problem.jacobian.calls": (calls("problem.jacobian"), "count"),
        "problem.self_s": (self_s("problem.residual", "problem.jacobian",
                                  "problem.functionals"), "s"),
        "solve.newton.calls": (newton_calls, "count"),
        "solve.newton.self_s": (self_s("solve.newton"), "s"),
        "solve.newton.iters_per_call": (
            ratio(pairs[("problem.jacobian", "solve.newton")], newton_calls), "iters/call"),
        "solve.newton.failed": (sum(newton_failed.values()), "count"),
        "solve.make_point.calls": (calls("solve.make_point"), "count"),
        "solve.probe.distinct_per_init": (
            ratio(meas["solve.probe.distinct"], meas["solve.probe.inits"]), "ratio"),
        "solve.probe.inits": (int(meas["solve.probe.inits"]), "count"),
        "continuation.calls": (calls("continuation.continue_branch"), "count"),
        "continuation.self_s": (self_s("continuation.continue_branch"), "s"),
        "continuation.points": (int(points), "count"),
        "continuation.jacobians_per_point": (
            ratio(pairs[("problem.jacobian", "continuation.continue_branch")], points),
            "jac/point"),
        "experiments.oracle.calls": (calls("experiments.oracle"), "count"),
        "experiments.oracle.self_s": (self_s("experiments.oracle"), "s"),
        "experiments.oracle.pairs_per_call": (
            ratio(meas["experiments.oracle.pairs"], calls("experiments.oracle")), "pairs/call"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "cli.bytes_written": (sum(r["bytes"] for r in traced), "B"),
        "config.load_s": (names["config.load"]["total_s"], "s"),
        "setup.import_s": (import_s, "s"),
        "setup.inputs_s": (traced[0]["prepare"], "s"),
        "trace.tasks": (len(traced), "count"),
        "trace.overhead_ratio": (1.0 - traced_rate / untraced_rate if untraced_rate else 0.0,
                                 "ratio"),
    }
    for cls in ("LeftPositiveCone", "SingularJacobian", "MaxIterations"):
        out[f"solve.newton.failed.{cls}"] = (newton_failed.get(cls, 0), "count")
    return out


def self_check(name: str, tracer, summary, traced: list) -> list:
    """Invariants that fail when a traced binding was missed."""
    import workloads

    names, _, _ = summary
    calls = {span: info["calls"] for span, info in names.items()}
    problems = [f"missed binding {b}" for b in tracer.missed_bindings()]
    k = len(traced)
    if name == "disk-branch":
        if not 0 < calls["spectral.gamma1"] == calls["solve.make_point"]:
            problems.append(f"spectral.gamma1.calls {calls['spectral.gamma1']} != "
                            f"solve.make_point.calls {calls['solve.make_point']}")
        for span in ("cli.main", "config.load", "continuation.continue_branch"):
            if calls[span] != k:
                problems.append(f"{span} called {calls[span]} times in {k} tasks")
    elif name == "disk-probe":
        if (calls["solve.probe"] != k
                or calls["solve.newton"] != workloads.PROBE_INITS * k):
            problems.append(f"{calls['solve.newton']} newton calls in {k} probes")
        weights = -(-k // len(workloads.PROBE_FACTORS))
        if calls["spectral.principal"] != weights:
            problems.append(f"{calls['spectral.principal']} principal solves "
                            f"for {weights} weights")
    elif name == "interval-oracle":
        if calls["experiments.oracle"] != k:
            problems.append(f"experiments.oracle called {calls['experiments.oracle']} "
                            f"times in {k} tasks")
    return problems


def print_layers(summary) -> None:
    names, _, _ = summary
    layers: dict[str, float] = {}
    for span, info in names.items():
        layer = span.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + info["self_s"]
    total = sum(layers.values()) or 1.0
    print("# self time by span (traced tasks):")
    for span, info in sorted(names.items(), key=lambda kv: -kv[1]["self_s"]):
        if not info["calls"]:
            continue
        print(f"#   {span:32s} calls {info['calls']:8d}  self {info['self_s']:9.4f} s "
              f"({100.0 * info['self_s'] / total:5.1f}%)")
    print("# self time by layer: " + ", ".join(
        f"{layer} {100.0 * s / total:.1f}%"
        for layer, s in sorted(layers.items(), key=lambda kv: -kv[1])))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and make the first task's inputs, then exit")
    args = parser.parse_args(argv)
    wall_start = time.perf_counter()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    import_s = _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workdir = os.path.join(OUT_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only:
            workload.prepare(0)
            print(f"ready {time.time()!r}")  # the caller times from its spawn
            return 0
        return measure(args, workload, import_s, wall_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, import_s: float, wall_start: float) -> int:
    env = environment(workload, args.seed)
    print(f"# workload {workload.name}: closed loop, 1 caller; {workload.family}")
    print("# disk sizes above m=128 are left out on purpose: sigma_1/gamma_1 "
          "are wrong at m >= 192 today")
    print("# environment " + json.dumps(env, sort_keys=True))

    problems = []
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.bind()
        k = workload.traced_tasks
        try:
            traced = run_tasks(workload, 0, lambda recs: len(recs) >= k, tracer)
        finally:
            tracer.unbind()
        summary = tracer.summary()
        problems += self_check(workload.name, tracer, summary, traced)
        spent = sum(r["latency"] for r in traced)
        untraced = run_tasks(workload, k, timed_stop(max(args.seconds - spent, 0.0), k,
                                                      wall_start))
        records = traced + untraced
        metrics = per_layer(tracer, summary, traced, untraced, import_s)
        print_layers(summary)
        tracer.write_csv(os.path.join(OUT_ROOT, f"spans-{workload.name}.csv"))
        print(f"# {len(tracer.spans)} spans written to .perfbench_out/"
              f"spans-{workload.name}.csv")
    else:
        records = run_tasks(workload, 0, timed_stop(args.seconds, MIN_TASKS, wall_start))
        metrics, notes = end_to_end(records)
        print(f"# task_tail_s is the p{notes['tail_percentile']:.1f} of "
              f"{notes['tail_samples']} tasks; fail_ratio {notes['fail_ratio']:.4f}")
        if len(records) < MIN_TASKS:
            print(f"# only {len(records)} tasks before the {WALL_CAP_S:.0f} s cap: "
                  "task_tail_s is their maximum")

    failed = [r for r in records if r["error"] is not None]
    for r in failed[:10]:
        print(f"# task {r['index']} failed: {r['error']}")
    for problem in problems:
        print(f"# self-check failed: {problem}")
    print(f"# {len(records)} tasks, {len(failed)} failed")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    # Task failures are measured (failed, ok_ratio); the run itself is
    # incorrect when the benchmark cannot vouch for its numbers.
    result = {
        "correct": not problems and len(failed) < len(records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
