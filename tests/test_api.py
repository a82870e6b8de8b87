import indefbc

# The public API on purpose: a change to it edits this list.
PUBLIC_NAMES = [
    "AsymptoticsFit", "BoundaryFunction", "Branch", "Domain", "EigenPair",
    "MuSpectrum", "NehariDiagnostics", "Oracle1DReport", "ProblemSpec",
    "SolutionPoint", "SweepResult", "WeightFamily", "asymptotics_fit",
    "build_domain", "build_family", "continue_branch", "delta_sweep", "gamma1",
    "logistic_scenarios", "logistic_spec", "m_delta", "minimize_nehari",
    "multi_start_solutions", "newton_solve", "nonexistence_probe", "oracle_1d",
    "principal_eigenvalue", "sigma1", "to_logistic", "to_sppr", "trig_weight",
    "weighted_steklov_spectrum",
]


def test_public_api_is_the_intended_list():
    assert sorted(indefbc.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(indefbc, name) is not None, name
