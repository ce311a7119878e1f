import numpy as np
import pytest

from fdd_recon import SystemConfig, atom, crb, fisher_matrix


def mc_fisher_diagonal(M, N, g, draws=20_000, step=1e-5, seed=0):
    """Monte-Carlo curvature oracle: -E[d^2 lnL] via central finite differences
    of the log-likelihood lnL = -||y - g u(mu,nu)||^2 on simulated data."""
    cfg = SystemConfig(M=M, N=N)
    rng = np.random.default_rng(seed)
    mu0, nu0 = 0.37, 0.21
    u0 = atom(cfg, mu0, nu0)
    z_mean = (
        rng.standard_normal((draws, cfg.N, cfg.M)) + 1j * rng.standard_normal((draws, cfg.N, cfg.M))
    ).mean(axis=0) / np.sqrt(2.0)

    out = []
    for axis in (0, 1):
        curis = []
        for sign in (+1, -1):
            mu = mu0 + sign * step * (axis == 0)
            nu = nu0 + sign * step * (axis == 1)
            d = g * (u0 - atom(cfg, mu, nu))
            # E[lnL(shift)] - E[lnL(0)] = -(||d||^2 + 2 Re{E[z]^H d})
            curis.append(-(np.vdot(d, d).real + 2 * np.real(np.vdot(z_mean, d))))
        out.append(-(curis[0] + curis[1]) / step**2)
    return np.array(out)


class TestFisherMatrix:
    def test_single_antenna_angle_unidentifiable(self):
        F = fisher_matrix(1, 8, 1.0)
        assert F[0, 0] == 0.0
        assert F[1, 1] > 0.0

    def test_closed_form_value(self):
        F = fisher_matrix(32, 128, 1.0)
        assert F[1, 1] == pytest.approx(2 * np.pi**2 * 4096 * 16383 / 3, rel=1e-12)
        assert F[1, 1] == pytest.approx(4.4153e8, rel=1e-4)
        assert F[0, 1] == 0.0 and F[1, 0] == 0.0

    def test_gain_scaling(self):
        np.testing.assert_allclose(fisher_matrix(4, 8, 2.0), 4.0 * fisher_matrix(4, 8, 1.0))

    def test_matches_monte_carlo_curvature(self):
        M, N, g = 16, 32, np.sqrt(10.0)
        F = fisher_matrix(M, N, g)
        mc = mc_fisher_diagonal(M, N, g)
        # closed form puts the angle block first; curvature axis 0 is mu
        assert mc[0] == pytest.approx(F[1, 1], rel=0.02)
        assert mc[1] == pytest.approx(F[0, 0], rel=0.02)


class TestCrb:
    def test_closed_form_values_case1(self):
        r = crb(32, 128, 10.0)
        assert r.eps_mu_bound == pytest.approx(3.7107190493439943e-06, rel=1e-12)
        assert 10 * np.log10(r.eps_mu_bound) == pytest.approx(-54.305, abs=0.01)

    def test_symmetry_when_m_equals_n(self):
        r = crb(16, 16, 3.0)
        assert r.eps_mu_bound == pytest.approx(r.eps_nu_bound, rel=1e-12)

    def test_large_array_limit_agreement(self):
        r = crb(32, 128, 10.0)
        assert r.eps_mu_bound == pytest.approx(r.large_array_limit, rel=1e-4)
        assert r.eps_nu_bound == pytest.approx(r.large_array_limit, rel=1e-3)

    def test_degenerate_single_antenna(self):
        r = crb(1, 64, 5.0)
        assert r.degenerate_geometry
        assert np.isinf(r.crb_nu)
        assert np.isinf(r.eps_nu_bound)
        assert np.isfinite(r.crb_mu)

    def test_single_antenna_unit_norm_consistency(self):
        # unit-norm per-subcarrier atoms scale the Fisher information by 1/N,
        # and the classic single-antenna bound is stated in w = 2*pi*mu:
        # (2 pi)^2 * N * crb_mu == 6 / (snr * (N^2 - 1))
        N, snr = 64, 4.0
        r = crb(1, N, snr)
        assert (2 * np.pi) ** 2 * N * r.crb_mu == pytest.approx(
            6.0 / (snr * (N**2 - 1)), rel=1e-12
        )

    def test_monotone_in_snr_and_size(self):
        vals = [crb(M, N, s) for (M, N, s) in ((8, 16, 1.0), (8, 16, 2.0), (16, 16, 2.0), (16, 32, 2.0))]
        eps_mu = [v.eps_mu_bound for v in vals]
        eps_nu = [v.eps_nu_bound for v in vals]
        assert eps_mu == sorted(eps_mu, reverse=True)
        assert eps_nu == sorted(eps_nu, reverse=True)

    def test_inverse_fisher_matches_crbs(self):
        r = crb(8, 32, 2.5)
        inv = np.linalg.inv(r.fisher)
        assert inv[0, 0] == pytest.approx(r.crb_nu, rel=1e-12)
        assert inv[1, 1] == pytest.approx(r.crb_mu, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            crb(4, 8, 0.0)
        with pytest.raises(ValueError):
            crb(4, 8, float("nan"))
        with pytest.raises(ValueError):
            crb(1, 1, 1.0)
