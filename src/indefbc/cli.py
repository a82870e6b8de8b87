"""Command-line interface: eig | solve | branch | sweep | oracle1d | asympt | probe.

Each command returns its report body and whether it is incomplete; ``main``
writes it to <command>.json.  Exit codes: 0 success, 2 configuration error,
3 solver error (partial results are still written, flagged "incomplete").
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .config import RunConfig, load_config
from .continuation import continue_branch
from .domain import INTERVAL
from .errors import ConfigError, IndefbcError, PencilNotPositiveDefinite
from .experiments import asymptotics_fit, delta_sweep, oracle_1d
from .problem import F_FORM, LOGISTIC
from .solve import minimize_nehari, nonexistence_probe
from .spectral import (
    near_lambda1,
    nonnegative_integral,
    principal_eigenvalue,
    sigma1,
    weighted_steklov_spectrum,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3

CSV_HEADER = "lambda,sup_norm,l2_norm,E,G,J,gamma1,mu2plus,membership,residual"


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "+inf" if x > 0 else "-inf"
    return f"{x:.17g}"


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.floating, float)):
        x = float(x)
        if math.isinf(x):
            return "+inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.bool_,)):
        return bool(x)
    return x


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text + "\n")


def _lam_grid(config: RunConfig) -> list:
    lo, hi = config.lam_window
    if config.lam_samples == 1:
        return [lo]
    return list(np.linspace(lo, hi, config.lam_samples))


def _mu2_plus(spec, point, lam1: float, guess):
    """(mu_2^+ at a branch point, its eigenvector for the next point's guess);
    nan outside [0, lambda_1)."""
    if not 0.0 <= point.lam < lam1:
        return math.nan, guess
    try:
        mu = weighted_steklov_spectrum(spec.domain, spec.g, point.lam, point.w, spec.p,
                                       spec.superlinear_weight, guess)
    except PencilNotPositiveDefinite:
        return math.nan, None
    return mu.mu2_plus, mu.mu2_vector


def cmd_eig(config: RunConfig, out_dir: str, verbose: bool) -> tuple[dict, bool]:
    domain = config.domain
    spec = config.build_spec(domain)
    rows = []
    notes = []
    pair = principal_eigenvalue(domain, spec.g)
    lam1 = pair.value
    if nonnegative_integral(domain, spec.g):
        notes.append("weight has nonnegative boundary integral; "
                     "the principal eigenvalue is 0 with constant eigenfunction")
    grid = set(_lam_grid(config)) | {0.0}
    if not any(near_lambda1(lam, lam1) for lam in grid):
        grid.add(lam1)
    grid = sorted(grid)
    for lam in grid:
        value = sigma1(domain, spec.g, float(lam)).value
        rows.append({"lambda": float(lam), "sigma1": value})
    print(f"lambda1 = {_fmt(lam1)}")
    for note in notes:
        print(f"note: {note}")
    for row in rows:
        print(f"sigma1({_fmt(row['lambda'])}) = {_fmt(row['sigma1'])}")
    return {"lambda1": lam1, "sigma1_rows": rows, "notes": notes}, False


def cmd_solve(config: RunConfig, out_dir: str, verbose: bool) -> tuple[dict, bool]:
    domain = config.domain
    spec = config.build_spec(domain)
    records = []
    incomplete = False
    for lam in _lam_grid(config):
        try:
            point = minimize_nehari(spec, float(lam))
        except IndefbcError as exc:
            incomplete = True
            records.append({"lambda": float(lam), "error": str(exc),
                            "error_kind": type(exc).__name__})
            continue
        records.append({
            "lambda": float(lam), "trace": point.w, "sup_norm": point.sup_norm,
            "residual": point.residual, "gamma1": point.gamma1,
            "E": point.nehari.E, "G": point.nehari.G_val, "J": point.nehari.J,
            "membership": point.nehari.membership,
        })
        if verbose:
            print(f"lambda={_fmt(lam)} sup={_fmt(point.sup_norm)} "
                  f"J={_fmt(point.nehari.J)} gamma1={_fmt(point.gamma1)}")
    return {"solutions": records}, incomplete


def cmd_branch(config: RunConfig, out_dir: str, verbose: bool) -> tuple[dict, bool]:
    domain = config.domain
    spec = config.build_spec(domain)
    branch = continue_branch(spec)
    lam1 = branch.bifurcation_lambda
    lines = [CSV_HEADER]
    diagram = ["lambda,sup_norm"]
    guess = None
    for point in branch.points:
        l2 = math.sqrt(float(domain.weights @ (point.w * point.w)))
        mu2, guess = _mu2_plus(spec, point, lam1, guess)
        lines.append(",".join([
            _fmt(point.lam), _fmt(point.sup_norm), _fmt(l2),
            _fmt(point.nehari.E), _fmt(point.nehari.G_val), _fmt(point.nehari.J),
            _fmt(point.gamma1), _fmt(mu2), point.nehari.membership,
            _fmt(point.residual),
        ]))
        if spec.form == LOGISTIC:
            if point.lam > 0.0:
                diagram.append(f"{_fmt(point.lam)},"
                               f"{_fmt(1.0 + point.sup_norm / point.lam)}")
        else:
            diagram.append(f"{_fmt(point.lam)},{_fmt(point.sup_norm)}")
    for name, content in (("branch.csv", lines), ("branch_diagram.csv", diagram)):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8",
                  newline="\n") as handle:
            handle.write("\n".join(content) + "\n")
    if verbose:
        print(f"{len(branch.points)} points, lambda1={_fmt(lam1)}, "
              f"range={branch.lam_range}, stopped at {branch.termination}")
    return {"lambda1": lam1, "n_points": len(branch.points),
            "lam_range": list(branch.lam_range),
            "termination": branch.termination}, branch.termination == "step-underflow"


def cmd_sweep(config: RunConfig, out_dir: str, verbose: bool) -> tuple[dict, bool]:
    if config.form == F_FORM:
        raise ConfigError(f"sweep does not support form = {F_FORM}")
    domain = config.domain
    spec = config.build_spec(domain)
    if not config.deltas:
        raise ConfigError("[sweep] deltas is required for the sweep command")
    results = delta_sweep(domain, spec.g, config.deltas, spec.p,
                          n_lam_samples=config.lam_samples,
                          n_inits=config.n_inits, seed=config.seed)
    records = []
    incomplete = False
    for res in results:
        rec = {"delta": res.delta, "lambda1": res.lam1, "c_delta": res.c_delta,
               "m_delta": res.m_delta, "uniqueness_count": res.uniqueness_count}
        if res.error is not None:
            rec["error"] = res.error
            incomplete = True
        records.append(rec)
        if verbose:
            print(rec)
    clean = [r for r in results if r.error is None]
    verdict = {
        "lambda1_decreasing": all(a.lam1 >= b.lam1 - 1e-8 for a, b in
                                  zip(clean, clean[1:])),
        "c_delta_decreasing": all(a.c_delta >= b.c_delta for a, b in
                                  zip(clean, clean[1:])),
        "m_delta_nondecreasing": all(a.m_delta <= b.m_delta + 1e-8 for a, b in
                                     zip(clean, clean[1:])),
        "unique_everywhere": all(r.uniqueness_count == 1 for r in clean),
    }
    return {"sweep": records, "verdict": verdict}, incomplete


def cmd_oracle1d(config: RunConfig, out_dir: str, verbose: bool) -> tuple[dict, bool]:
    if config.form == F_FORM:
        raise ConfigError(f"oracle1d does not support form = {F_FORM}")
    domain = config.domain
    if domain.kind != INTERVAL:
        raise ConfigError("oracle1d requires the interval domain")
    spec = config.build_spec(domain)
    params = -spec.g if spec.form == LOGISTIC else spec.g  # logistic stores g = -r
    records = []
    incomplete = False
    for lam in _lam_grid(config):
        try:
            report = oracle_1d(spec.form, params, float(lam), spec.p)
        except IndefbcError as exc:
            incomplete = True
            records.append({"lambda": float(lam), "error": str(exc)})
            continue
        scaling = [
            {"d": float(d), "c": float(c),
             "lam_u": [float(lam) * float(d), float(lam) * (float(d) + float(c))]}
            for (d, c), cls in zip(report.pairs, report.classifications)
            if cls == "positive-above-one"
        ]
        records.append({
            "lambda": float(lam), "count": len(report.pairs),
            "pairs": report.pairs, "classifications": report.classifications,
            "lam_u_scaling": scaling,
        })
        if verbose:
            print(f"lambda={_fmt(lam)}: {len(report.pairs)} solutions, "
                  f"{report.classifications}")
    return {"enumerations": records}, incomplete


def cmd_asympt(config: RunConfig, out_dir: str, verbose: bool) -> tuple[dict, bool]:
    domain = config.domain
    spec = config.build_spec(domain)
    branch = continue_branch(spec, with_gamma1=False)  # the fit reads no gamma_1
    target = "logistic-u" if spec.form == LOGISTIC else "sppr-v"
    if branch.termination == "step-underflow":  # no fit on a trace that stopped short
        return {"target": target, "termination": branch.termination}, True
    fit = asymptotics_fit(branch, config.lam_window, target)
    expected = -1.0 / (spec.p - 1.0)
    verdict = {"slope": fit.slope, "expected": expected,
               "within_band": bool(abs(fit.slope - expected) <= 0.05)}
    if verbose:
        print(f"slope={_fmt(fit.slope)} expected={_fmt(expected)}")
    return {"target": target, "termination": branch.termination,
            "lams": fit.lams, "sup_norms": fit.sup_norms,
            "intercept": fit.intercept, "fit_residual": fit.fit_residual,
            "verdict": verdict}, False


def cmd_probe(config: RunConfig, out_dir: str, verbose: bool) -> tuple[dict, bool]:
    domain = config.domain
    spec = config.build_spec(domain)
    lam1 = principal_eigenvalue(domain, spec.g).value
    lams = [lam1, 1.1 * lam1, 2.0 * lam1] if lam1 > 0.0 else _lam_grid(config)
    records = []
    for lam in lams:
        report = nonexistence_probe(spec, float(lam), config.n_inits, config.seed)
        records.append({
            "lambda": float(lam), "n_inits": report.n_inits,
            "findings": [{"trace": pt.w, "sup_norm": pt.sup_norm,
                          "residual": pt.residual} for pt in report.findings],
            "failures": report.failures, "joined": report.joined,
        })
        if verbose:
            print(f"lambda={_fmt(lam)}: {len(report.findings)} findings, "
                  f"{report.joined} joined, failures={report.failures}")
    verdict = {"all_empty": all(not r["findings"] for r in records)}
    return {"lambda1": lam1, "probes": records, "verdict": verdict}, False


_COMMANDS = {
    "eig": cmd_eig,
    "solve": cmd_solve,
    "branch": cmd_branch,
    "sweep": cmd_sweep,
    "oracle1d": cmd_oracle1d,
    "asympt": cmd_asympt,
    "probe": cmd_probe,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="indefbc",
        description="Positive solutions of boundary-reduced superlinear "
                    "problems with indefinite weights",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override seed")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            raw = {k: dict(v) for k, v in config.raw.items()}
            raw.setdefault("run", {})["seed"] = str(args.seed)
            config = dataclasses.replace(config, seed=args.seed, raw=raw)
        out_dir = args.out if args.out is not None else config.out_dir
        os.makedirs(out_dir, exist_ok=True)
        body, incomplete = _COMMANDS[args.command](config, out_dir, args.verbose)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IndefbcError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    _write_json(os.path.join(out_dir, f"{args.command}.json"),
                {"command": args.command, "config": config.raw,
                 "incomplete": incomplete, **body})
    return EXIT_SOLVER if incomplete else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
