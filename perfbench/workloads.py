"""Seeded inputs, tasks and output checks of the three benchmark workloads.

Every workload is a closed loop with a single caller: task i starts only
after task i - 1 has returned.  The inputs of task i depend only on
(seed, i), so the same seed gives the same inputs.  Weights are drawn from
families that satisfy the paper's hypotheses: g changes sign, its boundary
integral is negative, and the bifurcation from (lambda_1(g), 0) is
subcritical, G(phi_1) = int g |phi_1|^(p+1) > 0.  A draw is redrawn only
when it breaks one of these, never because a solver fails on it; such
failures are counted by the caller.

disk-branch
    Each task runs ``indefbc branch`` in-process through
    ``indefbc.cli.main`` on a freshly written INI (unit disk, m = 128, a new
    weight per task, so the DtN cache is written to).
disk-probe
    Each task is one ``multi_start_solutions`` call with 64 inits at
    lambda = 0.5, 1 and 1.5 times lambda_1 (cycled) on the same weight
    family; it only reads the s = 0 DtN matrix.
interval-oracle
    Each task is one ``oracle_1d`` call on a seeded interval draw, cycling
    through the w-form with p = 1.5, 2, 3 and the logistic form.

Disk sizes above m = 128 are left out on purpose: at m >= 192 the disk
sigma_1 / gamma_1 root finds return wrong values today (their Bessel
multipliers underflow to NaN), so a larger size needs its own workload once
that is fixed.

The ``check_*`` functions take plain results so that the benchmark's own
tests can feed them corrupted data; each returns a list of problems, empty
when the result is correct.
"""

from __future__ import annotations

import json
import math
import os
import shutil

import numpy as np

# Program entry points are looked up through their modules at call time, so
# that the traced run's wrappers see the benchmark's own calls.
import indefbc.cli
import indefbc.experiments
import indefbc.solve
import indefbc.spectral
from indefbc.domain import boundary_integral, build_domain
from indefbc.problem import LOGISTIC, W_FORM, ProblemSpec
from indefbc.weights import trig_weight

DISK_M = 128
REF_M = 64                # resolution of the independent lambda_1 reference
DISK_P = 2.0
PROBE_INITS = 64
PROBE_FACTORS = (0.5, 1.0, 1.5)
PROBE_EXPECTED = {0.5: 1, 1.0: 0, 1.5: 0}
ORACLE_KINDS = ((W_FORM, 1.5), (W_FORM, 2.0), (W_FORM, 3.0), (LOGISTIC, 2.0))
ORACLE_CROSS_INITS = 32

GAMMA1_MAX = -1e-10           # every branch point must be unstable
GAMMA1_RESIDUAL_TOL = 1e-8    # eigen-residual of each gamma_1 pair
SOLUTION_RESIDUAL_TOL = 1e-9  # relative to 1 + sup|w|^p
LAMBDA1_REF_TOL = 1e-8        # m = 128 against m = 64, relative to 1 + lambda_1
ORACLE_MATCH_TOL = 1e-8       # relative to 1 + |root|
# relative to 1 + d^2 + c^2 + |d|^p + |d + c|^p; the oracle rounds pairs to 1e-10
ORACLE_SYSTEM_TOL = 1e-8

CSV_HEADER = indefbc.cli.CSV_HEADER
INTERVAL = build_domain("interval", 2)


def task_rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed, *keys])


def subcritical_hypotheses(domain, g, p: float, phi1) -> bool:
    """g changes sign, int g < 0 and G(phi_1) > 0."""
    gv = np.asarray(g, dtype=float)
    return bool(gv.max() > 0.0 > gv.min()
                and boundary_integral(domain, gv) < 0.0
                and boundary_integral(domain, gv * np.abs(phi1) ** (p + 1.0)) > 0.0)


# ---------------------------------------------------------------------------
# disk weight family
# ---------------------------------------------------------------------------

# c sets lambda_1 and with it the branch length; its narrow range keeps the
# cost per task nearly uniform (about 20 points per branch), so that a run's
# median does not jump between branch lengths from one seed to the next.
DISK_FAMILY = ("unit disk m=128, p=2, w-form: g = cos(t-a1) + b2 cos 2(t-a2) "
               "+ b3 cos 3(t-a3) - c, a ~ U(0,2pi), b2 ~ U(0,0.2), "
               "b3 ~ U(0,0.1), c ~ U(0.34,0.38)")


def draw_disk_terms(rng: np.random.Generator) -> list:
    """Trigonometric terms (mode, cos, sin) of one disk weight."""
    a1, a2, a3 = rng.uniform(0.0, 2.0 * math.pi, 3)
    b2 = rng.uniform(0.0, 0.2)
    b3 = rng.uniform(0.0, 0.1)
    c = rng.uniform(0.34, 0.38)
    return [(1, math.cos(a1), math.sin(a1)),
            (2, b2 * math.cos(2 * a2), b2 * math.sin(2 * a2)),
            (3, b3 * math.cos(3 * a3), b3 * math.sin(3 * a3)),
            (0, -c, 0.0)]


def draw_disk_weight(rng: np.random.Generator, domain):
    """A disk weight meeting the hypotheses, with its principal pair on ``domain``."""
    while True:
        terms = draw_disk_terms(rng)
        g = trig_weight(domain, terms)
        pair = indefbc.spectral.principal_eigenvalue(domain, g)
        if pair.value > 0.0 and subcritical_hypotheses(
                domain, g, DISK_P, pair.eigenfunction.values):
            return terms, g, pair


def branch_ini(terms, m: int, seed: int) -> str:
    g_terms = "; ".join(f"{n}:{a!r}:{b!r}" for n, a, b in terms)
    return (f"[domain]\nkind = unit-disk\nm = {m}\n\n"
            f"[problem]\np = {DISK_P!r}\nform = w-form\ng_terms = {g_terms}\n\n"
            f"[run]\nseed = {seed}\n")


# ---------------------------------------------------------------------------
# disk-branch
# ---------------------------------------------------------------------------

def read_branch_outputs(out_dir: str):
    """(csv header, csv rows as dicts, branch.json payload, bytes written)."""
    with open(os.path.join(out_dir, "branch.csv"), encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    with open(os.path.join(out_dir, "branch.json"), encoding="utf-8") as handle:
        payload = json.load(handle)
    names = lines[0].split(",") if lines else []
    rows = []
    for line in lines[1:]:
        rows.append({k: (v if k == "membership" else float(v))
                     for k, v in zip(names, line.split(","))})
    written = sum(os.path.getsize(os.path.join(out_dir, f))
                  for f in os.listdir(out_dir))
    return lines[0] if lines else "", rows, payload, written


def check_branch(code: int, header: str, rows: list, payload: dict,
                 gamma1_pairs: list, lam1_ref: float, p: float = DISK_P) -> list:
    """Output check of one ``indefbc branch`` task."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if header != CSV_HEADER:
        problems.append("branch.csv header differs")
    if len(rows) < 2:
        return problems + [f"branch has {len(rows)} points"]
    if payload.get("incomplete") or payload.get("n_points") != len(rows):
        problems.append("branch.json disagrees with branch.csv")
    for row in rows:
        gam, res, sup = row["gamma1"], row["residual"], row["sup_norm"]
        if not gam < GAMMA1_MAX:
            problems.append(f"gamma1 {gam} not below {GAMMA1_MAX} at lambda {row['lambda']}")
        if not (math.isfinite(res) and res <= SOLUTION_RESIDUAL_TOL * (1.0 + sup ** p)):
            problems.append(f"solution residual {res} at lambda {row['lambda']}")
    if len(gamma1_pairs) != len(rows):
        problems.append(f"{len(gamma1_pairs)} gamma1 solves for {len(rows)} points")
    for (value, residual), row in zip(gamma1_pairs, rows):
        if not (math.isfinite(residual) and residual <= GAMMA1_RESIDUAL_TOL):
            problems.append(f"gamma1 eigen-residual {residual} at lambda {row['lambda']}")
        if value != row["gamma1"]:
            problems.append(f"gamma1 {value} reported as {row['gamma1']}")
    if not min(row["lambda"] for row in rows) < 0.0:
        problems.append("branch does not continue past lambda = 0")
    lam1 = payload.get("lambda1", math.nan)
    if not abs(lam1 - lam1_ref) <= LAMBDA1_REF_TOL * (1.0 + abs(lam1_ref)):
        problems.append(f"lambda1 {lam1} differs from the m={REF_M} value {lam1_ref}")
    return problems


class DiskBranch:
    name = "disk-branch"
    family = DISK_FAMILY + "; a new weight per task, run as `indefbc branch`"
    m = DISK_M
    traced_tasks = 6

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.ref_domain = build_domain("unit-disk", REF_M)

    def prepare(self, index: int) -> dict:
        terms, _, pair = draw_disk_weight(task_rng(self.seed, index), self.ref_domain)
        ini = os.path.join(self.workdir, f"task-{index}.ini")
        with open(ini, "w", encoding="utf-8") as handle:
            handle.write(branch_ini(terms, DISK_M, self.seed))
        out = os.path.join(self.workdir, f"task-{index}")
        return {"ini": ini, "out": out, "lam1_ref": pair.value}

    def run(self, task: dict) -> dict:
        # record every gamma_1 pair make_point computes, through whatever
        # binding is current (plain or traced)
        pairs = []
        inner = indefbc.solve._gamma1

        def capture(*args, **kwargs):
            pair = inner(*args, **kwargs)
            pairs.append((pair.value, pair.residual))
            return pair

        indefbc.solve._gamma1 = capture
        try:
            code = indefbc.cli.main(["branch", "--config", task["ini"],
                                     "--out", task["out"]])
        finally:
            indefbc.solve._gamma1 = inner
        return {"code": code, "gamma1": pairs}

    def check(self, task: dict, result: dict) -> tuple[list, int]:
        """Problems and bytes the task wrote; removes the task's files."""
        try:
            header, rows, payload, written = read_branch_outputs(task["out"])
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable outputs: {type(exc).__name__}: {exc}"], 0
        finally:
            shutil.rmtree(task["out"], ignore_errors=True)
            os.remove(task["ini"])
        return check_branch(result["code"], header, rows, payload,
                            result["gamma1"], task["lam1_ref"]), written


# ---------------------------------------------------------------------------
# disk-probe
# ---------------------------------------------------------------------------

def check_probe(found: list, factor: float, p: float = DISK_P) -> list:
    """Output check of one multi-start probe at lambda = factor * lambda_1."""
    problems = []
    expected = PROBE_EXPECTED[factor]
    if len(found) != expected:
        problems.append(f"{len(found)} distinct positive solutions at "
                        f"{factor} lambda_1, expected {expected}")
    for point in found:
        if not (point.positive and np.min(point.w) > 0.0):
            problems.append("a reported solution is not positive")
        if not (math.isfinite(point.residual) and
                point.residual <= SOLUTION_RESIDUAL_TOL * (1.0 + point.sup_norm ** p)):
            problems.append(f"solution residual {point.residual}")
    return problems


class DiskProbe:
    name = "disk-probe"
    family = (DISK_FAMILY + "; lambda cycles 0.5, 1, 1.5 lambda_1, "
              f"{PROBE_INITS} inits; a new weight every 3 tasks")
    m = DISK_M
    traced_tasks = 12

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.domain = build_domain("unit-disk", DISK_M)
        self.weight = (-1, None)  # (index, draw) of the weight in use

    def prepare(self, index: int) -> dict:
        k, j = divmod(index, len(PROBE_FACTORS))
        if self.weight[0] != k:
            self.weight = (k, draw_disk_weight(task_rng(self.seed, k), self.domain))
        _, g, pair = self.weight[1]
        factor = PROBE_FACTORS[j]
        return {"spec": ProblemSpec(self.domain, DISK_P, g),
                "lam": factor * pair.value, "factor": factor,
                "probe_seed": int(task_rng(self.seed, k, j).integers(2 ** 31))}

    def run(self, task: dict) -> list:
        return indefbc.solve.multi_start_solutions(
            task["spec"], task["lam"], PROBE_INITS, task["probe_seed"])

    def check(self, task: dict, result: list) -> tuple[list, int]:
        return check_probe(result, task["factor"]), 0


# ---------------------------------------------------------------------------
# interval-oracle
# ---------------------------------------------------------------------------

def draw_interval_weight(rng: np.random.Generator, p: float):
    """(g0, g1) as in the acceptance tests, with lambda_1 and phi_1 in closed form.

    On the interval the pencil is [[1, -1], [-1, 1]] phi = lambda diag(g) phi,
    so lambda_1 = (g0 + g1) / (g0 g1) and phi_1 is proportional to
    (1, 1 - lambda_1 g0).
    """
    while True:
        pos = rng.uniform(0.2, 3.0)
        neg = -rng.uniform(pos + 0.2, pos + 4.0)
        g = np.array([pos, neg]) if rng.uniform() < 0.5 else np.array([neg, pos])
        lam1 = (g[0] + g[1]) / (g[0] * g[1])
        phi1 = np.array([1.0, 1.0 - lam1 * g[0]])
        if subcritical_hypotheses(INTERVAL, g, p, phi1):
            return g, float(lam1)


def oracle_system_defect(form: str, params, lam: float, p: float,
                         d: float, c: float) -> float:
    """Scaled residual of the two-point system at w = d + c x."""
    a0, a1 = float(params[0]), float(params[1])
    s = d + c
    if form == W_FORM:
        f1 = c + lam * a0 * d + a0 * abs(d) ** (p - 1.0) * d
        f2 = c - lam * a1 * s - a1 * abs(s) ** (p - 1.0) * s
    else:
        f1 = c + lam * a0 * d * (1.0 - d)
        f2 = c - lam * a1 * s * (1.0 - s)
    scale = 1.0 + d * d + c * c + abs(d) ** p + abs(s) ** p
    return max(abs(f1), abs(f2)) / scale


def cross_check_amplitude(g, lam: float, p: float) -> float:
    """Init amplitude for the multi-start cross-check.

    Positive solutions scale like (lambda |g|)^(-1/(p-1)), so the inits
    cover that scale (the oracle's search box grows the same way).
    """
    scale = (1.0 / (lam * float(np.min(np.abs(g))))) ** (1.0 / (p - 1.0))
    return 2.0 * max(1.0, scale)


def _same_pair(a, b) -> bool:
    """Pairs agree to ORACLE_MATCH_TOL relative to 1 + |b|, the oracle's own scale."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.max(np.abs(a - b)) <= ORACLE_MATCH_TOL * (1.0 + np.max(np.abs(b))))


def check_oracle(form: str, params, lam: float, p: float, pairs, classes,
                 found=None, resultant=None) -> list:
    """Output check of one oracle_1d call.

    ``found`` is the multi-start solution set (w-form) as (d, c) pairs and
    ``resultant`` the pairs from the exact p = 2 elimination.
    """
    problems = []
    pairs = np.asarray(pairs, dtype=float).reshape(-1, 2)
    if len(classes) != len(pairs):
        problems.append("classifications do not match the pairs")
    for d, c in pairs:
        defect = oracle_system_defect(form, params, lam, p, d, c)
        if not defect <= ORACLE_SYSTEM_TOL:
            problems.append(f"pair ({d}, {c}) does not solve the system ({defect})")
    for i in range(len(pairs)):
        if any(_same_pair(pairs[i], pairs[j]) for j in range(i)):
            problems.append(f"pair {pairs[i]} listed twice")
    if found is not None:
        positive = [pr for pr, cls in zip(pairs, classes) if cls.startswith("positive")]
        if len(found) != len(positive):
            problems.append(f"{len(positive)} positive pairs, multi-start found {len(found)}")
        for pt in found:
            if not any(_same_pair(pt, pr) for pr in positive):
                problems.append(f"multi-start solution {pt} missing from the oracle")
    if resultant is not None:
        resultant = np.asarray(resultant, dtype=float).reshape(-1, 2)
        if resultant.shape != pairs.shape or not all(
                _same_pair(a, b) for a, b in zip(pairs, resultant)):
            problems.append("pairs differ from the p = 2 resultant")
    if form == LOGISTIC and "positive-crossing-one" in classes:
        problems.append("logistic state crossing one")
    return problems


class IntervalOracle:
    name = "interval-oracle"
    family = ("interval: (g0, g1) sign-changing with g0 + g1 < 0 as in the "
              "acceptance tests, lambda ~ U(0.05, 0.95) lambda_1; tasks cycle "
              "w-form p = 1.5, 2, 3 and logistic r = -g")
    m = 2
    traced_tasks = 12

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def prepare(self, index: int) -> dict:
        form, p = ORACLE_KINDS[index % len(ORACLE_KINDS)]
        rng = task_rng(self.seed, index)
        g, lam1 = draw_interval_weight(rng, p)
        lam = float(rng.uniform(0.05, 0.95)) * lam1
        params = g if form == W_FORM else -g
        return {"form": form, "p": p, "g": g, "params": params, "lam": lam,
                "cross_seed": index}

    def run(self, task: dict):
        return indefbc.experiments.oracle_1d(
            task["form"], task["params"], task["lam"], task["p"])

    def check(self, task: dict, report) -> tuple[list, int]:
        form, p, lam, g = task["form"], task["p"], task["lam"], task["g"]
        found = resultant = None
        if form == W_FORM:
            points = indefbc.solve.multi_start_solutions(
                ProblemSpec(INTERVAL, p, g), lam, ORACLE_CROSS_INITS,
                task["cross_seed"], amplitude=cross_check_amplitude(g, lam, p))
            found = [(float(pt.w[0]), float(pt.w[1] - pt.w[0])) for pt in points]
        if p == 2.0:
            resultant = indefbc.experiments.oracle_1d(
                form, task["params"], lam, p, method="resultant").pairs
        return check_oracle(form, task["params"], lam, p, report.pairs,
                            report.classifications, found, resultant), 0


WORKLOADS = {cls.name: cls for cls in (DiskBranch, DiskProbe, IntervalOracle)}
