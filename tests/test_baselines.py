import numpy as np
import pytest

from fdd_recon import (
    KroneckerCovariance,
    NormalizedPath,
    SystemConfig,
    lmmse_filter,
    ls_estimate,
    synthesize_from_normalized,
)
from fdd_recon.downlink import PilotPattern
from fdd_recon.model import ramp_matrices
from fdd_recon.harness import add_noise


def flat_channel(cfg):
    return synthesize_from_normalized(cfg, [NormalizedPath(1.0, 0.0, 0.0)])


def rank_one_covariance(cfg, mu, nu):
    """outer(h, h^H) of the unit-gain atom at (mu, nu), in factored form."""
    d, a = ramp_matrices(cfg, mu, nu)
    return KroneckerCovariance(np.outer(d, d.conj()), np.outer(a, a.conj()))


def random_factor(rng, size):
    """Random Hermitian PSD matrix of rank about size / 2."""
    X = rng.standard_normal((size, size // 2 + 1)) + 1j * rng.standard_normal((size, size // 2 + 1))
    return X @ X.conj().T / size


class TestLsEstimate:
    def test_flat_channel_exact(self):
        cfg = SystemConfig(M=2, N=16, K=4)
        pat = PilotPattern.from_config(cfg)
        h = flat_channel(cfg)
        y_p = h[pat.rows]
        np.testing.assert_allclose(ls_estimate(y_p, pat, cfg), h, rtol=1e-12)

    def test_stride_one_noiseless_exact(self):
        cfg = SystemConfig(M=2, N=16, K=1)
        pat = PilotPattern.from_config(cfg)
        h = synthesize_from_normalized(cfg, [NormalizedPath(1.0, 0.23, 0.61)])
        y_p = h[pat.rows]
        np.testing.assert_allclose(ls_estimate(y_p, pat, cfg), h, rtol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan)])
    def test_non_finite_pilots_rejected(self, bad):
        # a NaN pilot used to be interpolated into NaN estimates
        cfg = SystemConfig(M=4, N=16, K=4)
        pat = PilotPattern.from_config(cfg)
        y_p = flat_channel(cfg)[pat.rows]
        y_p[1, 2] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            ls_estimate(y_p, pat, cfg)

    def test_noise_floor_matches_monte_carlo(self):
        cfg = SystemConfig(M=2, N=32, K=4)
        pat = PilotPattern.from_config(cfg)
        h = flat_channel(cfg)
        rng = np.random.default_rng(0)
        trials = 2000
        err = 0.0
        for _ in range(trials):
            y_p = add_noise(h[pat.rows], 1.0, rng)
            est = ls_estimate(y_p, pat, cfg)
            err += np.mean(np.abs(est - h) ** 2)
        err /= trials
        # linear interpolation of unit noise: variance 1 at pilots,
        # a^2 + (1-a)^2 in between; analytic average over the comb
        weights = []
        for n in cfg.subcarrier_indices:
            pilots = np.array(pat.indices)
            if n <= pilots[0]:
                weights.append(1.0)
            elif n >= pilots[-1]:
                weights.append(1.0)
            else:
                left = pilots[pilots <= n].max()
                a = (n - left) / pat.K
                weights.append(a**2 + (1 - a) ** 2)
        expected = float(np.mean(weights))
        assert err == pytest.approx(expected, rel=0.2)


class TestLmmseEstimate:
    def test_ls_limit_when_noise_vanishes(self):
        cfg = SystemConfig(M=2, N=16, K=1)
        pat = PilotPattern.from_config(cfg)
        h = synthesize_from_normalized(cfg, [NormalizedPath(1.0, 0.2, 0.4)])
        R = rank_one_covariance(cfg, 0.2, 0.4)
        np.testing.assert_allclose(np.kron(R.mu, R.nu), np.outer(h, h.conj()), atol=1e-12)
        y_p = h[pat.rows]
        est = lmmse_filter(pat, cfg, R, noise_variance=1e-12) @ y_p
        np.testing.assert_allclose(est, h, atol=1e-5)

    def test_rank_one_projection_beats_ls(self):
        cfg = SystemConfig(M=2, N=32, K=4)
        pat = PilotPattern.from_config(cfg)
        h = synthesize_from_normalized(cfg, [NormalizedPath(1.0, 4 / 32, 1 / 2)])
        R = rank_one_covariance(cfg, 4 / 32, 1 / 2)
        W = lmmse_filter(pat, cfg, R)
        rng = np.random.default_rng(3)
        ls_err = lmmse_err = 0.0
        for _ in range(500):
            y_p = add_noise(h[pat.rows], 1.0, rng)
            ls_err += np.mean(np.abs(ls_estimate(y_p, pat, cfg) - h) ** 2)
            lmmse_err += np.mean(np.abs(W @ y_p - h) ** 2)
        assert lmmse_err < ls_err

    def test_shrinks_to_zero_for_zero_channel(self):
        cfg = SystemConfig(M=2, N=16, K=4)
        pat = PilotPattern.from_config(cfg)
        R = KroneckerCovariance(np.zeros((cfg.N, cfg.N), dtype=complex), np.zeros((cfg.M, cfg.M), dtype=complex))
        rng = np.random.default_rng(4)
        y_p = add_noise(np.zeros((pat.count, cfg.M), dtype=complex), 1.0, rng)
        est = lmmse_filter(pat, cfg, R, noise_variance=100.0) @ y_p
        assert est.shape == (cfg.N, cfg.M)
        assert np.abs(est).max() <= 1e-12

    def test_dimension_checked(self):
        cfg = SystemConfig(M=2, N=16, K=4)
        pat = PilotPattern.from_config(cfg)
        W = lmmse_filter(pat, cfg, KroneckerCovariance(np.eye(cfg.N), np.eye(cfg.M)))
        # a flat pilot vector is refused as well as a wrong count
        for bad in (np.zeros(3, dtype=complex), np.zeros(pat.count * cfg.M, dtype=complex)):
            with pytest.raises(ValueError):
                ls_estimate(bad, pat, cfg)
            with pytest.raises(ValueError):
                W @ bad


class TestLmmseFilter:
    @pytest.mark.parametrize("M, N, K", [(4, 32, 4), (3, 17, 4), (5, 16, 2), (2, 15, 3), (1, 8, 1)])
    def test_factored_matches_dense_solve(self, M, N, K):
        # the oracle: R_hp (R_pp + s^2 I)^-1 with R = kron(R_mu, R_nu) formed densely
        cfg = SystemConfig(M=M, N=N, K=K)
        pat = PilotPattern.from_config(cfg)
        rng = np.random.default_rng(M * 100 + N)
        cov = KroneckerCovariance(random_factor(rng, N), random_factor(rng, M))
        # R is the covariance of the channel grid read row by row, so pilot
        # row r, antenna m is entry r * M + m of that vector
        R = np.kron(cov.mu, cov.nu)
        rows = (pat.rows[:, None] * M + np.arange(M)).ravel()
        for s2 in (1.0, 0.05):
            dense = np.linalg.solve(R[np.ix_(rows, rows)] + s2 * np.eye(rows.size), R[:, rows].conj().T).conj().T
            W = lmmse_filter(pat, cfg, cov, noise_variance=s2)
            unit_grids = np.eye(rows.size, dtype=complex).reshape(rows.size, pat.count, M)
            factored = np.column_stack([(W @ e).ravel() for e in unit_grids])
            assert np.abs(factored - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_nbytes_counts_every_factor(self):
        cfg = SystemConfig(M=3, N=16, K=4)
        pat = PilotPattern.from_config(cfg)
        cov = KroneckerCovariance(np.eye(cfg.N, dtype=complex), np.eye(cfg.M, dtype=complex))
        assert cov.nbytes == 16 * (cfg.N**2 + cfg.M**2)
        W = lmmse_filter(pat, cfg, cov)
        n_p = pat.count
        assert W.nbytes == 16 * (cfg.N * n_p + n_p**2 + 2 * cfg.M**2) + 8 * n_p * cfg.M

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan)])
    def test_non_finite_pilots_rejected(self, bad):
        # one NaN pilot used to make all 64 entries of the estimate NaN
        cfg = SystemConfig(M=4, N=16, K=4)
        pat = PilotPattern.from_config(cfg)
        W = lmmse_filter(pat, cfg, KroneckerCovariance(np.eye(cfg.N), np.eye(cfg.M)))
        y_p = flat_channel(cfg)[pat.rows]
        y_p[1, 2] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            W @ y_p

    def test_noise_variance_must_be_positive(self):
        cfg = SystemConfig(M=2, N=16, K=4)
        pat = PilotPattern.from_config(cfg)
        cov = KroneckerCovariance(np.eye(cfg.N), np.eye(cfg.M))
        for s2 in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                lmmse_filter(pat, cfg, cov, noise_variance=s2)
