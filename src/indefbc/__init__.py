"""Boundary-reduced positive solutions of superlinear problems with
indefinite boundary weights: spectra, branches, and audits."""

from .continuation import Branch, continue_branch, to_logistic, to_sppr
from .domain import BoundaryFunction, Domain, build_domain
from .experiments import (
    AsymptoticsFit,
    Oracle1DReport,
    SweepResult,
    asymptotics_fit,
    delta_sweep,
    logistic_scenarios,
    oracle_1d,
)
from .problem import NehariDiagnostics, ProblemSpec, SolutionPoint, logistic_spec
from .solve import (
    minimize_nehari,
    multi_start_solutions,
    newton_solve,
    nonexistence_probe,
)
from .spectral import (
    EigenPair,
    MuSpectrum,
    gamma1,
    m_delta,
    principal_eigenvalue,
    sigma1,
    weighted_steklov_spectrum,
)
from .weights import WeightFamily, build_family, trig_weight

__version__ = "0.1.0"

__all__ = [
    "AsymptoticsFit", "BoundaryFunction", "Branch", "Domain",
    "EigenPair", "MuSpectrum", "NehariDiagnostics", "Oracle1DReport",
    "ProblemSpec", "SolutionPoint", "SweepResult", "WeightFamily",
    "asymptotics_fit", "build_domain", "build_family", "continue_branch",
    "delta_sweep", "gamma1",
    "logistic_scenarios", "logistic_spec", "m_delta", "minimize_nehari",
    "multi_start_solutions", "newton_solve", "nonexistence_probe",
    "oracle_1d", "principal_eigenvalue", "sigma1", "to_logistic", "to_sppr",
    "trig_weight", "weighted_steklov_spectrum",
]
