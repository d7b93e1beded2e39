"""The exact laws the Schmidt tail and the projector moment draw from, against
closed-form moments and against Haar states.

``schmidt_spectrum_batch`` draws the squared Schmidt spectrum of a Haar state
on C^d (x) C^d from the beta = 2 Laguerre bidiagonal model (Dumitriu and
Edelman, math-ph/0206043) instead of from the state.  Its purities are checked
against the exact Haar averages at five standard errors (a false-alarm rate
below 6e-7 a check, normal approximation), and its top value against SVDs of
``haar_state_batch`` rows by a two-sample Kolmogorov-Smirnov test.
"""

from math import log, sqrt

import numpy as np
import pytest

from symsub.randomness import RngStream, haar_state_batch, schmidt_spectrum_batch

ROWS = 20_000
KS_ALPHA = 1e-6  # false-alarm rate of each two-sample test


def _z(values, exact):
    return (values.mean() - exact) / (values.std() / sqrt(len(values)))


@pytest.mark.parametrize("d", [2, 3, 8])
def test_schmidt_spectrum_purities_match_haar_averages(d):
    # E tr rho^2 = 2d / (d^2 + 1) and E tr rho^3 = (5d^2 + 1) / ((d^2 + 1)(d^2 + 2))
    # for the reduced state rho of a Haar state on C^d (x) C^d
    lam = schmidt_spectrum_batch(d, RngStream(60, d).generator(), ROWS)
    assert lam.shape == (ROWS, d)
    assert np.all(np.diff(lam, axis=1) >= 0) and np.all(lam > 0)
    assert np.abs(lam.sum(axis=1) - 1).max() <= 1e-13
    assert abs(_z((lam**2).sum(axis=1), 2 * d / (d * d + 1))) <= 5
    assert abs(_z((lam**3).sum(axis=1), (5 * d * d + 1) / ((d * d + 1) * (d * d + 2)))) <= 5


def _ks_statistic(x, y):
    """sup_t |F_x(t) - F_y(t)| over the two empirical distribution functions."""
    x, y = np.sort(x), np.sort(y)
    at = np.concatenate([x, y])
    return np.abs(np.searchsorted(x, at, side="right") / len(x) - np.searchsorted(y, at, side="right") / len(y)).max()


@pytest.mark.parametrize("d", [2, 3, 8])
def test_top_schmidt_value_matches_svd_of_haar_states(d):
    # Kolmogorov's limit law bounds Pr[D > c sqrt(2 / ROWS)] by 2 exp(-2 c^2) for
    # two independent samples of ROWS from one continuous law; c sets it to KS_ALPHA
    top = schmidt_spectrum_batch(d, RngStream(61, d).generator(), ROWS)[:, -1]
    psi = haar_state_batch(d * d, RngStream(62, d).generator(), ROWS)
    svd_top = np.linalg.svd(psi.reshape(ROWS, d, d), compute_uv=False)[:, 0] ** 2
    c = sqrt(log(2 / KS_ALPHA) / 2)
    assert _ks_statistic(top, svd_top) <= c * sqrt(2 / ROWS)


def test_schmidt_spectrum_of_one_party_is_one():
    lam = schmidt_spectrum_batch(1, RngStream(63).generator(), 5)
    assert lam.shape == (5, 1) and np.all(lam == 1.0)
