"""Audits: delta sweeps, exact 1D enumeration, asymptotic fits, and
logistic scenario reports."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .continuation import Branch, continue_branch, to_logistic
from .domain import INTERVAL, Domain, as_values
from .errors import (
    IndefbcError,
    InsufficientSamples,
    ShapeMismatch,
    UnsupportedExponent,
)
from .problem import LOGISTIC, W_FORM, ProblemSpec, logistic_spec
from .solve import multi_start_solutions, nonexistence_probe
from .spectral import m_delta, near_lambda1, nonnegative_integral, principal_eigenvalue
from .weights import build_family

_ORACLE_GRID = 400
_ORACLE_POLISH_TOL = 1e-13   # relative to the local residual scale 1 + d^2 + c^2
_ORACLE_DEDUP = 1e-6         # relative to 1 + |root|


# ---------------------------------------------------------------------------
# exact enumeration of 1D solutions (boundary = two points, solutions linear)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Oracle1DReport:
    """Exhaustive real solutions (d, c) of the two-point boundary system.

    A trace on the interval extends harmonically to the line w = d + c x,
    so solutions are enumerated as roots of two scalar equations in (d, c).
    """

    form: str
    lam: float
    pairs: np.ndarray  # shape (k, 2): columns d = w(0), c = slope
    classifications: list


def _sign_power(t: np.ndarray, p: float) -> np.ndarray:
    return np.abs(t) ** (p - 1.0) * t


def _oracle_system(form: str, params, lam: float, p: float):
    """Residual and Jacobian of the 2x2 system, vectorized over (d, c)."""
    a0, a1 = float(params[0]), float(params[1])

    if form == W_FORM:
        def residual(d, c):
            s = d + c
            f1 = c + lam * a0 * d + a0 * _sign_power(d, p)
            f2 = c - lam * a1 * s - a1 * _sign_power(s, p)
            return f1, f2

        def jacobian(d, c):
            s = d + c
            dpd = p * np.abs(d) ** (p - 1.0)
            dps = p * np.abs(s) ** (p - 1.0)
            return (lam * a0 + a0 * dpd, np.ones_like(d),
                    -lam * a1 - a1 * dps, 1.0 - lam * a1 - a1 * dps)
    else:  # logistic: u = d + c x, boundary flux lam * r * u * (1 - u)
        def residual(d, c):
            s = d + c
            f1 = c + lam * a0 * d * (1.0 - d)
            f2 = c - lam * a1 * s * (1.0 - s)
            return f1, f2

        def jacobian(d, c):
            s = d + c
            return (lam * a0 * (1.0 - 2.0 * d), np.ones_like(d),
                    -lam * a1 * (1.0 - 2.0 * s), 1.0 - lam * a1 * (1.0 - 2.0 * s))

    return residual, jacobian


def _polish(residual, jacobian, d: np.ndarray, c: np.ndarray, box: float):
    """Vectorized Newton from the seeds (d, c); returns the converged pairs.
    A seed is dropped once it leaves 1e6 (1 + box) or meets a zero determinant."""
    done_d: list[np.ndarray] = []
    done_c: list[np.ndarray] = []
    with np.errstate(all="ignore"):
        for _ in range(80):
            f1, f2 = residual(d, c)
            scale = 1.0 + d * d + c * c
            converged = (np.abs(f1) < _ORACLE_POLISH_TOL * scale) & \
                (np.abs(f2) < _ORACLE_POLISH_TOL * scale)
            lost = ~np.isfinite(d) | ~np.isfinite(c) | \
                (np.abs(d) > 1e6 * (1.0 + box)) | (np.abs(c) > 1e6 * (1.0 + box))
            done_d.append(d[converged])
            done_c.append(c[converged])
            active = ~converged & ~lost
            if not np.any(active):
                break
            d, c, f1, f2 = d[active], c[active], f1[active], f2[active]
            j11, j12, j21, j22 = jacobian(d, c)
            det = j11 * j22 - j12 * j21
            bad = np.abs(det) < 1e-300
            det = np.where(bad, 1.0, det)
            step_d = np.where(bad, np.nan, (f1 * j22 - f2 * j12) / det)
            step_c = np.where(bad, np.nan, (f2 * j11 - f1 * j21) / det)
            d, c = d - step_d, c - step_c
    return np.column_stack([np.concatenate(done_d), np.concatenate(done_c)])


def _dedup_pairs(pairs: np.ndarray) -> np.ndarray:
    if len(pairs) > 64:
        # coarse collapse first: converged duplicates agree far below the
        # dedup radius, so quantizing at 1e-10 leaves only distinct roots
        pairs = np.unique(np.round(pairs, 10), axis=0)
    out: list[np.ndarray] = []
    for pair in pairs:
        if not any(np.max(np.abs(pair - q)) <
                   _ORACLE_DEDUP * (1.0 + np.max(np.abs(q))) for q in out):
            out.append(pair)
    out.sort(key=lambda q: (q[0], q[1]))
    return np.array(out).reshape(-1, 2)


def _resultant_pairs(form: str, params, lam: float) -> np.ndarray:
    """Univariate (quartic) elimination of c, exact fallback for p = 2.

    The superlinear term is the odd extension |t| t, so the system is
    polynomial only per sign quadrant of (d, d + c); each quadrant yields
    a quartic whose roots are kept when they respect the assumed signs.
    """
    a0, a1 = float(params[0]), float(params[1])
    pairs = []
    for sd in (1.0, -1.0):
        for ss in (1.0, -1.0):
            # first equation determines c(d); |d| d = sd * d^2 assumed
            if form == W_FORM:
                c_of_d = np.array([-sd * a0, -lam * a0, 0.0])
            else:
                c_of_d = np.array([a0 * lam, -lam * a0, 0.0])
            s_of_d = c_of_d + np.array([0.0, 1.0, 0.0])   # s = d + c(d)
            if form == W_FORM:
                poly = np.polysub(
                    c_of_d,
                    np.polyadd(lam * a1 * s_of_d,
                               ss * a1 * np.polymul(s_of_d, s_of_d)))
            else:
                poly = np.polysub(
                    c_of_d,
                    lam * a1 * np.polysub(s_of_d, np.polymul(s_of_d, s_of_d)))
            trimmed = np.trim_zeros(poly, "f")
            if trimmed.size == 0:
                continue
            roots = np.roots(trimmed) if trimmed.size > 1 else np.array([])
            real = roots[np.abs(roots.imag) < 1e-8].real
            c = np.polyval(c_of_d, real)
            if form == W_FORM:
                keep = (sd * real >= -1e-10) & (ss * (real + c) >= -1e-10)
            else:
                keep = np.ones(real.shape, dtype=bool)
            pairs.append(np.column_stack([real[keep], c[keep]]))
            if form == LOGISTIC:
                break  # logistic system is already polynomial in s
        if form == LOGISTIC:
            break
    return np.vstack(pairs) if pairs else np.empty((0, 2))


def _classify(form: str, d: float, c: float) -> str:
    # degenerate roots (e.g. the trivial state at a bifurcation value of
    # lambda) only polish to about sqrt(tol), so classify at that scale
    lo, hi = min(d, d + c), max(d, d + c)
    tol = 1e-6
    if abs(d) < tol and abs(c) < tol:
        return "zero"
    if form == LOGISTIC and abs(d - 1.0) < tol and abs(c) < tol:
        return "constant-one"
    if lo < -tol and hi > tol:
        return "sign-changing"
    if lo < tol:
        return "not-positive"
    if hi < 1.0 - tol:
        return "positive-below-one"
    if lo > 1.0 + tol:
        return "positive-above-one"
    return "positive-crossing-one"


def oracle_1d(form: str, params, lam: float, p: float = 2.0,
              *, method: str = "grid") -> Oracle1DReport:
    """Enumerate every real solution of the two-point problem at lambda.

    ``params`` is (g0, g1) for the w-form or (r0, r1) for the logistic
    form.  ``method`` is "grid" (dense seeding + Newton polish, any p > 1)
    or "resultant" (exact quartic elimination, p = 2 only).
    """
    if form not in (W_FORM, LOGISTIC):
        raise ShapeMismatch(f"oracle supports w-form and logistic, not {form!r}")
    if p <= 1.0 or (form == LOGISTIC and p != 2.0):
        raise UnsupportedExponent(f"p={p} unsupported for form {form!r}")
    if form == LOGISTIC and lam <= 0.0:
        raise ShapeMismatch("logistic enumeration needs lambda > 0")
    residual, jacobian = _oracle_system(form, params, lam, p)
    # box covers the 1/lambda blow-up scale, stretched when a weight
    # entry is small (root magnitudes grow like 1/(lambda * |weight|))
    smallest = min(abs(float(params[0])), abs(float(params[1])), 1.0)
    box = (2.0 + 4.0 / lam if lam > 0.0 else 6.0) / max(smallest, 1e-3)
    if method == "resultant":
        if p != 2.0:
            raise UnsupportedExponent("resultant fallback requires p = 2")
        # verify and refine each root against the full system
        seeds = _resultant_pairs(form, params, lam)
        d, c = seeds[:, 0], seeds[:, 1]
    else:
        axis = np.linspace(-box, box, _ORACLE_GRID)
        d, c = [a.ravel() for a in np.meshgrid(axis, axis)]
    pairs = _polish(residual, jacobian, d, c, box)
    pairs = _dedup_pairs(pairs)
    classes = [_classify(form, d, c) for d, c in pairs]
    return Oracle1DReport(form, lam, pairs, classes)


# ---------------------------------------------------------------------------
# delta sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepResult:
    """Per-delta audit record of the g_delta family."""

    delta: float
    lam1: float
    c_delta: float          # lower estimate of the branch-sup bound C_delta
    m_delta: float          # min mu_2^+ along the branch; +inf when absent
    uniqueness_count: int   # max distinct positive solutions over lambda samples
    error: str | None = None


def delta_sweep(domain: Domain, g, delta_list, p: float, *,
                n_lam_samples: int = 5, n_inits: int = 32,
                seed: int = 0) -> list:
    """Audit the family g_delta over a decreasing list of delta values.

    Per delta: principal eigenvalue, solution branch, C_delta lower
    estimate (branch max sup-norm, corroborated by multi-start probes),
    m_delta, and a uniqueness verdict from multi-start Newton counts at
    sampled lambda.  Solver failures are recorded and the sweep continues.
    """
    results: list[SweepResult] = []
    for delta in delta_list:
        try:
            family = build_family(domain, g, delta)
            spec = ProblemSpec(domain, p, family.g_delta)
            branch = continue_branch(spec, with_gamma1=False)  # the audit reads no gamma_1
            lam1 = branch.bifurcation_lambda
            lams = np.linspace(0.1 * lam1, 0.9 * lam1, n_lam_samples)
            c_delta = max(pt.sup_norm for pt in branch.points if pt.lam >= 0.0)
            count = 0
            for lam in lams:
                found = multi_start_solutions(spec, float(lam), n_inits, seed)
                count = max(count, len(found))
                c_delta = max([c_delta] + [pt.sup_norm for pt in found])
            md = m_delta(branch)
            results.append(SweepResult(delta, lam1, c_delta, md, count))
        except IndefbcError as exc:
            results.append(SweepResult(delta, math.nan, math.nan, math.nan, -1,
                                       f"{type(exc).__name__}: {exc}"))
    return results


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticsFit:
    """Log-log fit of a blow-up norm against lambda."""

    lams: np.ndarray
    sup_norms: np.ndarray
    slope: float
    intercept: float
    fit_residual: float


_TARGETS = ("sppr-v", "logistic-u")
_FIT_SAMPLES = 12


def asymptotics_fit(branch: Branch, lam_window, target: str) -> AsymptoticsFit:
    """Least-squares slope of log sup-norm vs log lambda over a window.

    ``target`` selects the rescaled variable: "sppr-v" uses
    v = lambda^(-1/(p-1)) w, "logistic-u" uses u = 1 + w / lambda.  Branch
    points inside the window are used when at least 8 of them span a
    decade; otherwise the branch is resampled at _FIT_SAMPLES log-spaced
    lambda.
    """
    if target not in _TARGETS:
        raise ShapeMismatch(f"target must be one of {_TARGETS}")
    lo, hi = float(lam_window[0]), float(lam_window[1])
    if not 0.0 < lo < hi:
        raise InsufficientSamples("window must satisfy 0 < lo < hi")
    inside = [pt for pt in branch.points if lo <= pt.lam <= hi]
    if len(inside) >= 8 and max(pt.lam for pt in inside) >= 10.0 * min(
            pt.lam for pt in inside):
        samples = sorted(inside, key=lambda pt: pt.lam)
    else:
        if hi < 10.0 * lo:
            raise InsufficientSamples(
                "need at least 8 samples spanning a decade in lambda")
        lams = np.geomspace(lo, hi, _FIT_SAMPLES)
        samples = [branch.at_lambda(float(l), with_gamma1=False) for l in lams]
    p = branch.spec.p
    lams = np.array([pt.lam for pt in samples])
    if target == "sppr-v":
        sups = np.array([pt.lam ** (-1.0 / (p - 1.0)) * pt.sup_norm
                         for pt in samples])
    else:
        sups = np.array([1.0 + pt.sup_norm / pt.lam for pt in samples])
    slope, intercept = np.polyfit(np.log(lams), np.log(sups), 1)
    resid = float(np.linalg.norm(np.log(sups) - (slope * np.log(lams) + intercept)))
    return AsymptoticsFit(lams, sups, float(slope), float(intercept), resid)


# ---------------------------------------------------------------------------
# logistic scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogisticScenarioReport:
    """Audit of the logistic problem, dispatched on the average of r."""

    scenario: str  # "positive-average" | "nonpositive-average"
    lam1: float    # principal eigenvalue of the pencil with weight -r
    checks: dict
    branch: Branch | None = field(repr=False, default=None)


def logistic_scenarios(domain: Domain, r, lam_grid, *,
                       n_inits: int = 32, seed: int = 0) -> LogisticScenarioReport:
    """Audit the logistic problem for large (u > 1) positive solutions.

    With a positive average of r a branch of solutions u > 1 exists on
    (0, lambda_1(-r)), is unstable throughout, flattens to 1 at the right
    endpoint, and blows up like 1/lambda at the left.  With a nonpositive
    average, multi-start probes confirm nonexistence.  On the interval the
    findings are cross-checked against the exact enumeration.
    """
    rv = as_values(domain, r)
    checks: dict[str, object] = {}
    spec = logistic_spec(domain, rv)
    if not nonnegative_integral(domain, -rv):
        lam1 = principal_eigenvalue(domain, -rv).value
        branch = continue_branch(spec)
        pos = [pt for pt in branch.points if pt.lam > 0.0]
        traces = to_logistic(dataclasses.replace(branch, points=pos), rv)
        checks["all_above_one"] = all(float(np.min(t.trace)) > 1.0 for t in traces)
        checks["all_unstable"] = all(pt.gamma1 < 0.0 for pt in pos)
        near = branch.at_lambda(0.999 * lam1, with_gamma1=False)
        checks["endpoint_flattening"] = float(near.sup_norm / (0.999 * lam1))
        fit = asymptotics_fit(branch, (1e-3, 1e-1), "logistic-u")
        checks["blowup_slope"] = fit.slope
        if domain.kind == INTERVAL:
            agree = True
            for lam in lam_grid:
                report = oracle_1d(LOGISTIC, rv, float(lam))
                above = [i for i, c in enumerate(report.classifications)
                         if c == "positive-above-one"]
                point = branch.at_lambda(float(lam), with_gamma1=False)
                u = 1.0 + point.w / point.lam
                d, c = float(u[0]), float(u[1] - u[0])
                matched = any(np.max(np.abs(report.pairs[i] - [d, c])) < 1e-6
                              for i in above)
                agree = agree and matched and len(above) == 1
            checks["oracle_agreement"] = agree
        return LogisticScenarioReport("positive-average", lam1, checks, branch)

    # nonpositive average: no large positive solution at any lambda > 0
    empty = True
    for lam in lam_grid:
        report = nonexistence_probe(spec, float(lam), n_inits, seed)
        empty = empty and not report.findings
    checks["probes_empty"] = empty
    if domain.kind == INTERVAL:
        lam1_r = principal_eigenvalue(domain, rv).value
        classes = [(float(lam), oracle_1d(LOGISTIC, rv, float(lam)).classifications)
                   for lam in lam_grid]
        checks["oracle_no_above_one"] = all("positive-above-one" not in cls
                                            for _, cls in classes)
        # small solutions 0 < u < 1: unique for lambda > lambda_1(r), none below
        if lam1_r > 0.0:
            counts = [(lam, cls.count("positive-below-one")) for lam, cls in classes]
            checks["oracle_below_one_counts"] = {
                "at_or_below_lam1": [n for lam, n in counts
                                     if 0.0 < lam <= lam1_r or near_lambda1(lam, lam1_r)],
                "above_lam1": [n for lam, n in counts
                               if lam > lam1_r and not near_lambda1(lam, lam1_r)],
            }
    return LogisticScenarioReport("nonpositive-average", 0.0, checks, None)
