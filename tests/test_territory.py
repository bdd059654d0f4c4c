"""Where drawn states lie in the paper's (C, S) plane, on one fixed plan.

- The purity floor: every state with C > 0 has P >= P_min(C), attained by
  the maximally entangled mixed states (Munro, James, White and Kwiat, PRA
  64, 030302 (2001)).  With the lower bound S^2 >= C^2 + P - 1 it gives
  S^2 >= C(3C - 2), so every state with C > 2/3 is steerable.
- The spectral ceiling C <= max(0, l1 - l3 - 2 sqrt(l2 l4)) of rho's
  eigenvalues l1 >= ... >= l4 (Verstraete, Audenaert and De Moor, PRA 64,
  012316 (2001)).
- t1^2 + t2^2 >= 2C^2 for T's two largest singular values (Verstraete and
  Wolf, PRL 89, 170401 (2002)): C > 1/sqrt(2) violates CHSH.

The plan, fixed before any run: the first 20000 records of seed 7 at each
rank policy.  Every check has the one tolerance SLACK.  The eigenvalues and
T's singular values are taken here, not in the measure kernel.
"""

import numpy as np
import pytest

from qsteer import batch, states
from qsteer.states import SLACK, SamplerConfig

COUNT = 20000


@pytest.fixture(scope="module", params=["uniform", 1, 2, 3, 4], ids=str)
def plan(request):
    """(factors, measure table) of the plan at one rank policy."""
    x, _ = states.draw_matrices(SamplerConfig(ranks=request.param, seed=7, count=COUNT), 0, COUNT)
    return x, batch.measure_factors(x)


def _purity_floor(c):
    """P_min(C): the purity of the maximally entangled mixed state of
    concurrence C, the least of any state with that C > 0."""
    return np.where(c < 2.0 / 3.0, 1.0 / 3.0 + c * c / 2.0, 2.0 * c * c - 2.0 * c + 1.0)


def test_entangled_states_lie_above_the_purity_floor(plan):
    _, rows = plan
    c, p = rows[:, batch.COL_C], rows[:, batch.COL_PURITY]
    entangled = c > SLACK
    assert entangled.any()
    assert (p[entangled] - _purity_floor(c[entangled]) >= -SLACK).all()


def test_concurrence_above_two_thirds_is_steerable(plan):
    _, rows = plan
    c, s = rows[:, batch.COL_C], rows[:, batch.COL_S]
    high = c > 2.0 / 3.0 + SLACK
    assert high.any()
    assert (s[high] > 0.0).all()
    assert (s[high] ** 2 - c[high] * (3.0 * c[high] - 2.0) >= -SLACK).all()


def test_concurrence_lies_below_the_spectral_ceiling(plan):
    x, rows = plan
    # rho = x x^dag and x^dag x have the same eigenvalues (x is 4 x 4);
    # eigvalsh returns them ascending, and a zero one as a few eps of either sign
    lam = np.clip(np.linalg.eigvalsh(x.conj().transpose(0, 2, 1) @ x), 0.0, None)[:, ::-1]
    ceiling = np.maximum(0.0, lam[:, 0] - lam[:, 2] - 2.0 * np.sqrt(lam[:, 1] * lam[:, 3]))
    assert (rows[:, batch.COL_C] <= ceiling + SLACK).all()


def test_two_largest_correlations_bound_concurrence(plan):
    x, rows = plan
    t = np.linalg.svd(batch.correlation_matrices(states.gram(x)), compute_uv=False)
    c = rows[:, batch.COL_C]
    assert (t[:, 0] ** 2 + t[:, 1] ** 2 >= 2.0 * c * c - SLACK).all()
