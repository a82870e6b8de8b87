"""Benchmark of indefbc: one workload, end-to-end or traced, from the repository root.

    python3 perfbench/run.py --workload disk-branch --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py): disk-branch, disk-probe, interval-oracle.

With ``--trace 0`` it prints the end-to-end metrics: setup_s, tasks_per_s,
task_p50_s, task_tail_s, ok_ratio and peak_rss_mib.  With ``--trace 1`` it
prints the per-layer metrics of a separate traced run.  Lines starting with
``#`` explain the run; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  A task fails when it raises, exits
non-zero or fails its output check; failures are counted in ``failed`` and
ok_ratio (verified / attempted, the complement of the fail ratio), and
tasks_per_s counts verified tasks only.  ``correct`` is false when the
benchmark cannot vouch for its numbers: a traced binding was missed, a
self-check failed, or no task passed its check.

The workload runs in a child process (worker.py) of its own, so its peak
memory is its own, with BLAS pinned to one thread: the plain single-thread
baseline.  setup_s is the median over ``SETUP_SAMPLES`` fresh processes of
the wall time from process start until the first task's inputs are ready
(interpreter start, ``import indefbc`` and input generation).

The program is imported from ``src/`` next to this directory; the run
fails, printing no result, when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("disk-branch", "disk-probe", "interval-oracle")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60.0
RUN_TIMEOUT_S = 175.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "indefbc", "__init__.py")):
        return fail(f"no indefbc sources under {os.path.join(ROOT, 'src')}")
    started = time.perf_counter()
    env = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setup = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                # the child stamps the wall clock when its first task is ready,
                # which times neither its exit nor this process's wait
                begin = time.time()
                proc = subprocess.run([sys.executable, WORKER, *common, "--setup-only"],
                                      env=env, cwd=ROOT, stdout=subprocess.PIPE,
                                      text=True, timeout=SETUP_TIMEOUT_S)
                if proc.returncode != 0:
                    return fail(f"set-up exited with code {proc.returncode}")
                setup.append(float(proc.stdout.split()[-1]) - begin)
        remaining = RUN_TIMEOUT_S - (time.perf_counter() - started)
        proc = subprocess.run([sys.executable, WORKER, *common,
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        return fail(f"{exc.cmd[2:]} did not finish within {exc.timeout:.0f} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print("\n".join(lines))
        return fail(f"workload exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))
    if setup:
        print("# setup_s samples: " + ", ".join(f"{s:.4f}" for s in setup))
        median = statistics.median(setup)
        print(f"setup_s = {median:.6g} s")
        result["metrics"] = {"setup_s": {"value": median, "unit": "s"},
                             **result["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
