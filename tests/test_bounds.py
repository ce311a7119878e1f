import numpy as np
import pytest

from fdd_recon import crb
from oracles import mc_fisher_diagonal


class TestFisherMatrix:
    """The diagonal Fisher matrix that crb's pair implies: F_mumu = N^2 / eps_mu
    and F_nunu = M^2 / eps_nu at snr = |g|^2."""

    def test_single_antenna_angle_unidentifiable(self):
        eps_mu, eps_nu = crb(1, 8, 1.0)
        assert eps_nu == np.inf  # F_nunu = 0
        assert 8**2 / eps_mu > 0.0

    def test_closed_form_value(self):
        eps_mu, eps_nu = crb(32, 128, 1.0)
        assert 128**2 / eps_mu == pytest.approx(2 * np.pi**2 * 4096 * 16383 / 3, rel=1e-12)
        assert 128**2 / eps_mu == pytest.approx(4.4153e8, rel=1e-4)
        assert 32**2 / eps_nu == pytest.approx(2 * np.pi**2 * 4096 * 1023 / 3, rel=1e-12)

    def test_gain_scaling(self):
        # the bounds scale as 1/snr
        np.testing.assert_allclose(crb(4, 8, 2.0), np.divide(crb(4, 8, 1.0), 2.0), rtol=1e-15)

    def test_matches_monte_carlo_curvature(self):
        M, N, g = 16, 32, np.sqrt(10.0)
        eps_mu, eps_nu = crb(M, N, abs(g) ** 2)
        mc = mc_fisher_diagonal(M, N, g)
        assert mc[0] == pytest.approx(N**2 / eps_mu, rel=0.02)
        assert mc[1] == pytest.approx(M**2 / eps_nu, rel=0.02)


class TestCrb:
    def test_closed_form_values_case1(self):
        eps_mu, _ = crb(32, 128, 10.0)
        assert eps_mu == pytest.approx(3.7107190493439943e-06, rel=1e-12)
        assert 10 * np.log10(eps_mu) == pytest.approx(-54.305, abs=0.01)

    def test_symmetry_when_m_equals_n(self):
        eps_mu, eps_nu = crb(16, 16, 3.0)
        assert eps_mu == eps_nu

    def test_large_array_limit_agreement(self):
        M, N, snr = 32, 128, 10.0
        eps_mu, eps_nu = crb(M, N, snr)
        limit = 3.0 / (2.0 * snr * np.pi**2 * M * N)
        assert eps_mu == pytest.approx(limit, rel=1e-4)
        assert eps_nu == pytest.approx(limit, rel=1e-3)

    def test_degenerate_single_antenna(self):
        eps_mu, eps_nu = crb(1, 64, 5.0)
        assert eps_nu == np.inf
        assert np.isfinite(eps_mu)

    def test_degenerate_single_subcarrier(self):
        eps_mu, eps_nu = crb(64, 1, 5.0)
        assert eps_mu == np.inf
        assert np.isfinite(eps_nu)
        assert (eps_mu, eps_nu) == crb(1, 64, 5.0)[::-1]

    def test_single_antenna_unit_norm_consistency(self):
        # unit-norm per-subcarrier atoms scale the Fisher information by 1/N,
        # and the classic single-antenna bound is stated in w = 2*pi*mu:
        # (2 pi)^2 * N * crb_mu == 6 / (snr * (N^2 - 1)), crb_mu = eps_mu / N^2
        N, snr = 64, 4.0
        eps_mu, _ = crb(1, N, snr)
        assert (2 * np.pi) ** 2 * N * (eps_mu / N**2) == pytest.approx(6.0 / (snr * (N**2 - 1)), rel=1e-12)

    def test_monotone_in_snr_and_size(self):
        vals = [crb(M, N, s) for (M, N, s) in ((8, 16, 1.0), (8, 16, 2.0), (16, 16, 2.0), (16, 32, 2.0))]
        eps_mu = [v[0] for v in vals]
        eps_nu = [v[1] for v in vals]
        assert eps_mu == sorted(eps_mu, reverse=True)
        assert eps_nu == sorted(eps_nu, reverse=True)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            crb(4, 8, 0.0)
        with pytest.raises(ValueError):
            crb(4, 8, float("nan"))
        with pytest.raises(ValueError):
            crb(1, 1, 1.0)
