"""Accuracy of the Schmidt decomposition where the Gram-matrix route loses it.

Forming C adj(C) squares the condition number of C, so eigenvalues near the
1e-10 rank floor and their modes came out with errors around 1e-7. The SVD
of C keeps them to roundoff. The discretised double-Gaussian state gives a
closed-form oracle at dimensions the package is now fast enough to reach.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval

from schmidt.cli import build_report
from schmidt.errors import ConvergenceError
from schmidt.ketparse import parse_state
from schmidt.modes import schmidt_decompose, schmidt_number
from states import labelled_state, random_unitary


def double_gaussian_state(d, ratio):
    """psi(x, y) ~ exp(-(x+y)^2/4a^2 - (x-y)^2/4b^2) on a d x (d+1) grid.

    a = sqrt(R) and b = 1/sqrt(R), both axes spanning +-5 sqrt(R). The
    Schmidt spectrum is lambda_n = (1 - mu^2) mu^(2n) with mu = (R-1)/(R+1),
    and K = (R + 1/R)/2 (Law, Walmsley & Eberly, PRL 84, 5304 (2000)).
    """
    half_width = 5.0 * math.sqrt(ratio)
    x = np.linspace(-half_width, half_width, d)[:, None]
    y = np.linspace(-half_width, half_width, d + 1)[None, :]
    psi = np.exp(-((x + y) ** 2) / (4.0 * ratio) - ((x - y) ** 2) * ratio / 4.0)
    return labelled_state(psi)


class TestNearThreshold:
    # A 6x8 state with two eigenvalues just above the 1e-10 rank floor.
    LAMBDAS = np.array([0.4, 0.3, 0.2, 0.1, 3.0e-10, 2.9e-10])

    def state(self):
        rng = np.random.default_rng(0)
        lam = self.LAMBDAS.copy()
        lam[:4] *= 1.0 - lam[4:].sum()
        u = random_unitary(rng, 6)
        v = random_unitary(rng, 8)[:, :6]
        return lam, labelled_state((u * np.sqrt(lam)) @ v.conj().T)

    def test_modes_orthonormal_and_small_eigenvalues_accurate(self):
        lam, state = self.state()
        d = schmidt_decompose(state)
        assert d.rank == 6
        for modes in (d.latin_modes, d.greek_modes):
            defect = np.max(np.abs(modes.conj().T @ modes - np.eye(6)))
            assert defect < 1e-12
        relative = np.abs(d.lambdas[4:] - lam[4:]) / lam[4:]
        assert np.max(relative) <= 1e-8

    def test_report_accepts_the_state(self):
        _, state = self.state()
        report = build_report(state)
        assert report.rank == 6
        assert report.reconstruction_residual <= 1e-9


@pytest.mark.parametrize("ratio", [3.0, 6.0])
def test_double_gaussian_matches_closed_form_at_d400(ratio):
    d = schmidt_decompose(double_gaussian_state(400, ratio))
    mu = (ratio - 1.0) / (ratio + 1.0)
    exact = (1.0 - mu * mu) * mu ** (2 * np.arange(400))
    k_exact = (ratio + 1.0 / ratio) / 2.0
    assert abs(schmidt_number(d) - k_exact) <= 1e-10 * k_exact
    np.testing.assert_allclose(d.lambdas, exact, rtol=0, atol=1e-12)


@pytest.mark.parametrize("d,ratio", [(400, 3.0), (800, 6.0)])
def test_double_gaussian_modes_are_hermite_functions(d, ratio):
    # With ab = 1 the n-th mode on either side is the Hermite function
    # H_n(x) exp(-x^2/2). The phase convention makes a mode's first significant
    # component, at the left edge where H_n has the sign (-1)^n, positive.
    decomposition = schmidt_decompose(double_gaussian_state(d, ratio))
    half_width = 5.0 * math.sqrt(ratio)
    for modes, size in ((decomposition.latin_modes, d), (decomposition.greek_modes, d + 1)):
        x = np.linspace(-half_width, half_width, size)
        for n in range(10):
            h = hermval(x, [0] * n + [1]) * np.exp(-x * x / 2.0)
            h /= np.linalg.norm(h)
            assert abs(1.0 - (-1) ** n * np.vdot(h, modes[:, n])) <= 1e-13


class TestRankFloorRefusal:
    # At d = 16, R = 1.5 the spectrum runs down past the 1e-10 floor: the
    # first dropped term has lambda ~ 6e-12, amplitude sqrt(lambda) ~ 2.5e-6,
    # so dropping it leaves a reconstruction residual far above the 1e-9 gate.
    # Two product terms of amplitude ratio 1e5 are the simplest such state:
    # the smaller lambda, 1 / (1 + 1e10), is just under the floor.
    # Each state with the rank of its exact Schmidt form.
    STATES = {"double-gaussian-16": (lambda: double_gaussian_state(16, 1.5), 16),
              "two-terms": (lambda: parse_state("|a>(x)|b> + 1e5|c>(x)|d>"), 2)}

    @pytest.mark.xfail(
        strict=True,
        raises=ConvergenceError,
        reason="the 1e-10 rank floor drops terms the 1e-9 residual gate needs",
    )
    @pytest.mark.parametrize("name", STATES)
    def test_valid_state_is_reported(self, name):
        build, _ = self.STATES[name]
        report = build_report(build())
        assert report.reconstruction_residual <= 1e-9

    @pytest.mark.parametrize("name", STATES)
    def test_refusal_comes_from_the_floor_not_the_solver(self, name):
        build, rank = self.STATES[name]
        report = build_report(build(), rank_threshold=1e-30)
        assert report.rank == rank
        assert report.reconstruction_residual <= 1e-14
