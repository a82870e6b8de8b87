import numpy as np
import pytest

from indefbc.domain import build_domain
from indefbc.problem import F_FORM, ProblemSpec


@pytest.fixture(scope="session")
def interval():
    return build_domain("interval", 2)


@pytest.fixture(scope="session")
def disk16():
    return build_domain("unit-disk", 16)


@pytest.fixture(scope="session")
def disk32():
    return build_domain("unit-disk", 32)


def random_interval_weight(rng):
    """Sign-changing (g0, g1) with negative sum, in random endpoint order."""
    pos = rng.uniform(0.2, 3.0)
    neg = -rng.uniform(pos + 0.2, pos + 4.0)
    return np.array([pos, neg]) if rng.uniform() < 0.5 else np.array([neg, pos])


def sign_changing_disk_weight(domain, shift=-0.3):
    return np.cos(domain.nodes) + shift


def f_form_spec(domain):
    """The f-form with g = cos(theta) - 0.3 and f = 1 + cos(2 theta) / 2 on the disk."""
    f = 1.0 + 0.5 * np.cos(2.0 * domain.nodes)
    return ProblemSpec(domain, 2.0, sign_changing_disk_weight(domain), f, F_FORM)
