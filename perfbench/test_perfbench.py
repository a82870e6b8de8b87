"""Tests of the benchmark itself: seeded inputs, output checks, tracing.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest perfbench``.
Each check is fed one real result, which must pass, and corrupted copies of
it, which must fail.
"""

import dataclasses
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import indefbc.solve  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import tail_latency  # noqa: E402


def _inputs(name, seed, workdir, indices):
    workload = workloads.WORKLOADS[name](seed, str(workdir))
    out = []
    for i in indices:
        task = workload.prepare(i)
        if name == "disk-branch":
            with open(task["ini"], encoding="utf-8") as handle:
                out.append((handle.read(), task["lam1_ref"]))
        elif name == "disk-probe":
            out.append((task["spec"].g.tolist(), task["lam"], task["probe_seed"]))
        else:
            out.append((task["form"], task["p"], task["params"].tolist(), task["lam"]))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    first = _inputs(name, 5, tmp_path / "a", range(4))
    assert first == _inputs(name, 5, tmp_path / "b", range(4))
    assert first != _inputs(name, 6, tmp_path / "c", range(4))


def test_disk_draws_meet_the_hypotheses():
    domain = indefbc.domain.build_domain("unit-disk", workloads.REF_M)
    for k in range(5):
        _, g, pair = workloads.draw_disk_weight(workloads.task_rng(3, k), domain)
        assert g.max() > 0.0 > g.min() and domain.weights @ g < 0.0
        assert domain.weights @ (g * pair.eigenfunction.values ** 3) > 0.0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail_latency(list(range(20))) == (9, 50.0)
    assert tail_latency(list(range(100, 0, -1))) == (90, 90.0)
    assert tail_latency([3.0, 1.0]) == (3.0, 100.0)


SMALL_M = 32  # the checks do not depend on m; a small disk keeps the tests fast


def _small_disk_weight(seed):
    """A family weight as (terms, m=32 spec, lambda_1 at the reference m)."""
    ref = indefbc.domain.build_domain("unit-disk", workloads.REF_M)
    terms, _, pair = workloads.draw_disk_weight(workloads.task_rng(seed, 0), ref)
    domain = indefbc.domain.build_domain("unit-disk", SMALL_M)
    g = indefbc.weights.trig_weight(domain, terms)
    return terms, indefbc.problem.ProblemSpec(domain, workloads.DISK_P, g), pair.value


@pytest.fixture(scope="module")
def branch_result(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("branch")
    workload = workloads.DiskBranch(0, str(workdir))
    terms, _, lam1_ref = _small_disk_weight(0)
    task = {"ini": str(workdir / "small.ini"), "out": str(workdir / "out"),
            "lam1_ref": lam1_ref}
    with open(task["ini"], "w", encoding="utf-8") as handle:
        handle.write(workloads.branch_ini(terms, SMALL_M, 0))
    result = workload.run(task)
    header, rows, payload, _ = workloads.read_branch_outputs(task["out"])
    return result, header, rows, payload, lam1_ref


def _check_branch(branch_result, *, code=None, rows=None, pairs=None, lam1_ref=None):
    result, header, good_rows, payload, good_ref = branch_result
    return workloads.check_branch(
        result["code"] if code is None else code, header,
        good_rows if rows is None else rows, payload,
        result["gamma1"] if pairs is None else pairs,
        good_ref if lam1_ref is None else lam1_ref)


def test_branch_check_passes_a_real_branch(branch_result):
    assert _check_branch(branch_result) == []


def test_branch_check_fails_corrupted_branches(branch_result):
    result, _, rows, _, lam1_ref = branch_result
    pairs = result["gamma1"]
    nan_residual = [(pairs[0][0], math.nan)] + pairs[1:]
    assert _check_branch(branch_result, pairs=nan_residual)
    assert _check_branch(branch_result, pairs=pairs[:-1])
    stable = [dict(rows[0], gamma1=1e-3)] + rows[1:]
    assert _check_branch(branch_result, rows=stable,
                         pairs=[(1e-3, pairs[0][1])] + pairs[1:])
    bad_solution = rows[:-1] + [dict(rows[-1], residual=math.nan)]
    assert _check_branch(branch_result, rows=bad_solution)
    no_negative = [r for r in rows if r["lambda"] >= 0.0]
    assert _check_branch(branch_result, rows=no_negative,
                         pairs=pairs[:len(no_negative)])
    assert _check_branch(branch_result, lam1_ref=lam1_ref * (1.0 + 1e-6))
    assert _check_branch(branch_result, code=3)


@pytest.fixture(scope="module")
def probe_results():
    _, spec, _ = _small_disk_weight(1)
    lam1 = indefbc.spectral.principal_eigenvalue(spec.domain, spec.g).value
    return [({"factor": factor}, indefbc.solve.multi_start_solutions(
                spec, factor * lam1, workloads.PROBE_INITS, 1))
            for factor in workloads.PROBE_FACTORS[:2]]


def test_probe_check_passes_real_probes(probe_results):
    for task, found in probe_results:
        assert workloads.check_probe(found, task["factor"]) == []


def test_probe_check_fails_a_second_or_unexpected_solution(probe_results):
    (_, found), _ = probe_results
    point = found[0]
    other = dataclasses.replace(point, w=1.5 * point.w, sup_norm=1.5 * point.sup_norm)
    assert workloads.check_probe(found + [other], 0.5)
    assert workloads.check_probe([], 0.5)
    assert workloads.check_probe(found, 1.0)
    assert workloads.check_probe([dataclasses.replace(point, residual=math.nan)], 0.5)


@pytest.fixture(scope="module")
def oracle_tasks():
    workload = workloads.IntervalOracle(2, "")
    out = []
    for i in range(4):
        task = workload.prepare(i)
        out.append((task, workload.run(task)))
    return workload, out


def test_oracle_check_passes_real_enumerations(oracle_tasks):
    workload, tasks = oracle_tasks
    for task, report in tasks:
        assert workload.check(task, report) == ([], 0)


def test_oracle_check_fails_extra_missing_or_crossing_roots(oracle_tasks):
    _, tasks = oracle_tasks
    task, report = tasks[1]  # w-form, p = 2
    form, params, lam, p = task["form"], task["params"], task["lam"], task["p"]
    pairs, classes = report.pairs, report.classifications
    resultant = indefbc.experiments.oracle_1d(form, params, lam, p,
                                              method="resultant").pairs
    positive = [tuple(pr) for pr, c in zip(pairs, classes) if c.startswith("positive")]
    assert workloads.check_oracle(form, params, lam, p, pairs, classes,
                                  positive, resultant) == []
    extra = np.vstack([pairs, [[0.3, 0.1]]])
    assert workloads.check_oracle(form, params, lam, p, extra, classes + ["positive"],
                                  positive, resultant)
    doubled = np.vstack([pairs, pairs[-1:]])
    assert workloads.check_oracle(form, params, lam, p, doubled, classes + classes[-1:],
                                  positive, resultant)
    assert workloads.check_oracle(form, params, lam, p, pairs[1:], classes[1:],
                                  positive, resultant)
    assert workloads.check_oracle(form, params, lam, p, pairs, classes,
                                  positive + [(9.0, 9.0)], resultant)
    task, report = tasks[3]  # logistic
    crossing = ["positive-crossing-one"] + report.classifications[1:]
    assert workloads.check_oracle(task["form"], task["params"], task["lam"], 2.0,
                                  report.pairs, crossing)


def test_tracer_binds_every_lookup_and_restores_it():
    originals = {(mod, attr): getattr(sys.modules[f"indefbc.{mod}"], attr)
                 for expected in tracing.EXPECTED_BINDINGS.values()
                 for mod, attr in expected}
    tracer = tracing.Tracer()
    tracer.bind()
    try:
        assert tracer.missed_bindings() == []
        for (mod, attr), original in originals.items():
            assert getattr(sys.modules[f"indefbc.{mod}"], attr).__wrapped__ is original
    finally:
        tracer.unbind()
    for (mod, attr), original in originals.items():
        assert getattr(sys.modules[f"indefbc.{mod}"], attr) is original


def test_tracer_self_time_excludes_children():
    domain = indefbc.domain.build_domain("unit-disk", 16)
    g = np.cos(domain.nodes) - 0.3
    tracer = tracing.Tracer()
    tracer.bind()
    try:
        tracer.enabled = True
        indefbc.spectral.gamma1(domain, g, 0.1, np.ones(16), 2.0)
        tracer.enabled = False
    finally:
        tracer.unbind()
    names, errors, pairs = tracer.summary()
    gamma = names["spectral.gamma1"]
    children = names["dtn.dtn_matrix"]["total_s"]
    assert gamma["calls"] == 1 and not errors
    assert pairs[("dtn.dtn_matrix", "spectral.gamma1")] == names["dtn.dtn_matrix"]["calls"]
    assert gamma["self_s"] == pytest.approx(gamma["total_s"] - children, abs=1e-9)
