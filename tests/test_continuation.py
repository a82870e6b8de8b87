import dataclasses

import numpy as np
import pytest

import indefbc.continuation
from indefbc.continuation import (
    continue_branch,
    to_logistic,
    to_sppr,
)
from indefbc.domain import build_domain
from indefbc.errors import (
    CorrectorDivergence,
    NonpositiveLambdaPoint,
    RootNotBracketed,
    ShapeMismatch,
    UNotAboveOne,
)
from indefbc.problem import F_FORM, LOGISTIC, W_FORM, ProblemSpec, logistic_spec
from indefbc.weights import trig_weight
from conftest import f_form_spec, sign_changing_disk_weight

G_1D = np.array([1.0, -4.0])


def test_branch_reaches_closed_form_state_at_lambda_zero(interval):
    spec = ProblemSpec(interval, 2.0, G_1D)
    branch = continue_branch(spec)
    lo, hi = branch.lam_range
    assert lo < 0.0 < hi < branch.bifurcation_lambda
    point = branch.at_lambda(0.0)
    assert np.max(np.abs(point.w - [0.5, 0.25])) < 1e-10
    assert point.gamma1 < 0.0


def test_branch_emanates_along_principal_eigenfunction(disk16):
    g = sign_changing_disk_weight(disk16)
    branch = continue_branch(ProblemSpec(disk16, 2.0, g))
    first = branch.points[0]
    assert first.lam < branch.bifurcation_lambda
    cos = float(first.w @ branch.tangent) / (
        np.linalg.norm(first.w) * np.linalg.norm(branch.tangent))
    assert cos > 1.0 - 1e-6


def test_sup_norm_grows_monotonically_toward_lambda_zero(interval, disk16):
    for dom, g in ((interval, G_1D),
                   (disk16, sign_changing_disk_weight(disk16))):
        branch = continue_branch(ProblemSpec(dom, 2.0, g))
        pos = [pt for pt in branch.points if pt.lam > 0.0]
        lams = [pt.lam for pt in pos]
        sups = [pt.sup_norm for pt in pos]
        order = np.argsort(lams)
        sorted_sups = np.array(sups)[order]
        assert np.all(np.diff(sorted_sups) < 0.0)  # sup decreases as lam grows
        assert all(pt.gamma1 < 0.0 for pt in pos)
        assert all(pt.nehari.membership == "N-minus" for pt in pos)


def test_branch_points_all_positive_and_converged(disk16):
    g = sign_changing_disk_weight(disk16)
    branch = continue_branch(ProblemSpec(disk16, 2.0, g))
    for pt in branch.points:
        assert pt.positive
        assert pt.residual < 1e-9 * (1.0 + pt.sup_norm ** 2)


def test_no_branch_without_positive_principal_eigenvalue(interval):
    spec = ProblemSpec(interval, 2.0, np.array([2.0, -1.0]))  # integral >= 0
    with pytest.raises(RootNotBracketed):
        continue_branch(spec)


def test_resolution_consistency_on_the_disk():
    coarse, fine = build_domain("unit-disk", 16), build_domain("unit-disk", 32)
    for dom_pair in [(coarse, fine)]:
        sups = []
        for dom in dom_pair:
            g = sign_changing_disk_weight(dom)
            branch = continue_branch(ProblemSpec(dom, 2.0, g))
            lam1 = branch.bifurcation_lambda
            sups.append((lam1, branch.at_lambda(0.3 * lam1).sup_norm))
    (l16, s16), (l32, s32) = sups
    # boundary spectral discretization converges fast in the resolution
    assert abs(l16 - l32) < 1e-8 * (1.0 + l32)
    assert abs(s16 - s32) < 1e-4 * (1.0 + s32)


def test_seeding_survives_near_threshold_weight():
    """Weak bifurcations (weight integral barely negative) must still seed."""
    dom = build_domain("unit-disk", 32)
    base = trig_weight(dom, [(1, 1.0, 0.0)],
                       plateaus=[(-0.4, 0.4), (np.pi - 0.4, np.pi + 0.4)])
    from indefbc.weights import build_family

    family = build_family(dom, base, 1.02 * build_family(dom, base, 10.0).delta0)
    branch = continue_branch(ProblemSpec(dom, 2.0, family.g_delta))
    pos = [pt for pt in branch.points if pt.lam > 0.0]
    assert len(pos) >= 10
    # the branch must cross lambda = 0 with the amplitude still growing,
    # instead of stalling on the trivial line just below the bifurcation
    assert branch.lam_range[0] < 0.0
    sups = [pt.sup_norm for pt in branch.points]
    assert all(a < b for a, b in zip(sups, sups[1:]))
    lams = np.array([pt.lam for pt in pos])
    assert lams.max() - lams.min() > 0.1 * branch.bifurcation_lambda


# ---------------------------------------------------------------------------
# variable transforms
# ---------------------------------------------------------------------------

def test_sppr_transform_solves_rescaled_equation(interval):
    spec = ProblemSpec(interval, 2.0, G_1D)
    branch = continue_branch(spec)
    pos_branch = dataclasses.replace(branch, points=[pt for pt in branch.points if pt.lam > 0])
    for tp in to_sppr(pos_branch):
        assert tp.residual < 1e-9 * (1.0 + tp.sup_norm ** 2)


def test_sppr_transform_weighs_v_to_the_p_by_f(disk32):
    """On the f-form, v = lambda^(-1/(p-1)) w solves Lambda v = lambda Q (g v + f v^p)."""
    spec = f_form_spec(disk32)
    branch = continue_branch(spec)
    # the trace down to its first point below lambda = 1e-2: further on, the
    # f-form corrector runs toward (0, 0), and at lambda ~ 1e-6 to_sppr's
    # residual reaches 1e-6, past this test's bound
    stop = next(i for i, pt in enumerate(branch.points) if pt.lam < 1e-2)
    positive = [pt for pt in branch.points[:stop + 1] if pt.lam > 0.0]
    assert len(positive) >= 10 and min(pt.lam for pt in positive) < 1e-2
    pos_branch = dataclasses.replace(branch, points=positive)
    for tp in to_sppr(pos_branch):
        assert tp.residual <= 1e-8


def test_problem_spec_takes_f_exactly_under_the_f_form(interval):
    f = np.array([1.0, 1.0])
    for form in (W_FORM, LOGISTIC):
        with pytest.raises(ShapeMismatch):
            ProblemSpec(interval, 2.0, G_1D, f, form)
    with pytest.raises(ShapeMismatch):
        ProblemSpec(interval, 2.0, G_1D, form=F_FORM)
    assert np.array_equal(ProblemSpec(interval, 2.0, G_1D, f, F_FORM).superlinear_weight, f)


def test_sppr_transform_rejects_nonpositive_lambda(interval):
    spec = ProblemSpec(interval, 2.0, G_1D)
    branch = continue_branch(spec)  # extends slightly past lambda = 0
    assert branch.lam_range[0] < 0.0
    with pytest.raises(NonpositiveLambdaPoint):
        to_sppr(branch)


def test_logistic_transform_gives_states_above_one(interval):
    r = np.array([-1.0, 4.0])
    spec = logistic_spec(interval, r)
    branch = continue_branch(spec)
    pos_branch = dataclasses.replace(branch, points=[pt for pt in branch.points if pt.lam > 0])
    for tp in to_logistic(pos_branch, r):
        assert float(np.min(tp.trace)) > 1.0
        assert tp.residual < 1e-8 * (1.0 + tp.sup_norm ** 2)


def test_logistic_transform_validates_spec(interval):
    spec = ProblemSpec(interval, 2.0, G_1D)
    branch = continue_branch(spec)
    with pytest.raises(UNotAboveOne):
        to_logistic(branch, np.array([5.0, -1.0]))  # r != -g
    with pytest.raises(ShapeMismatch):
        ProblemSpec(interval, 2.0, G_1D, form="sppr-form")  # to_sppr covers it


def test_step_options_control_termination(interval, monkeypatch):
    spec = ProblemSpec(interval, 2.0, G_1D)
    monkeypatch.setattr(indefbc.continuation, "MAX_POINTS", 6)
    short = continue_branch(spec)
    assert len(short.points) <= 6
    assert short.points[0].lam < short.bifurcation_lambda


def test_branch_records_why_it_stopped(interval, monkeypatch):
    spec = ProblemSpec(interval, 2.0, G_1D)
    assert continue_branch(spec).termination == "lam-floor"
    for reason, constant, value in (("step-underflow", "DS_MIN", 0.05),
                                    ("max-points", "MAX_POINTS", 6),
                                    ("blow-up", "SUP_CEILING", 0.5)):
        with monkeypatch.context() as patch:
            patch.setattr(indefbc.continuation, constant, value)
            assert continue_branch(spec).termination == reason


def test_corrector_raises_on_a_singular_bordered_matrix(disk16, monkeypatch):
    """A zero Jacobian fails the lifted Cholesky factorization, and the LU fallback's
    zero pivot reaches the corrector as CorrectorDivergence."""
    spec = ProblemSpec(disk16, 2.0, sign_changing_disk_weight(disk16))
    w = np.full(16, 0.1)
    t_w, t_lam = np.ones(16) / 4.0, 0.0
    monkeypatch.setattr(indefbc.continuation, "residual_jacobian",
                        lambda spec, lam, w: np.zeros((16, 16), order="F"))
    with pytest.raises(CorrectorDivergence, match="zero pivot"):
        indefbc.continuation._corrector(spec, w, 0.3, w, 0.3, t_w, t_lam)
