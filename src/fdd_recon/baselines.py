# Benchmark channel estimators: per-pilot LS with linear interpolation, and
# genie-covariance LMMSE over the stacked subcarrier/antenna vector.
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .downlink import PilotPattern


@dataclass(frozen=True)
class KroneckerCovariance:
    """Channel covariance E[h h^H] = mu (x) nu of the subcarrier-major stacked
    vector: mu[n, n'] = E[exp(j*2*pi*(n-n')*mu)] is the N x N delay factor and
    nu[m, m'] = E[exp(j*2*pi*(m-m')*nu)] the M x M angle factor."""

    mu: np.ndarray
    nu: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.mu.nbytes + self.nu.nbytes


def pilot_row_indices(cfg: SystemConfig, pattern: PilotPattern) -> np.ndarray:
    """Flat stacked-vector rows covered by the pilot subcarriers (all antennas)."""
    return (_pilot_subcarrier_rows(cfg, pattern)[:, None] * cfg.M + np.arange(cfg.M)).ravel()


def _pilot_subcarrier_rows(cfg: SystemConfig, pattern: PilotPattern) -> np.ndarray:
    """Rows of the N x M channel grid that carry pilots."""
    return np.array(pattern.indices) + cfg.N // 2


def ls_estimate(received_pilots: np.ndarray, pattern: PilotPattern, cfg: SystemConfig) -> np.ndarray:
    """Per-pilot LS (with all-one pilots the estimate is the sample itself),
    linearly interpolated per antenna; edges held at the nearest pilot."""
    n_p = pattern.count
    if received_pilots.shape != (n_p * cfg.M,):
        raise ValueError(f"expected {n_p * cfg.M} pilot samples")
    samples = received_pilots.reshape(n_p, cfg.M)
    pilot_n = np.array(pattern.indices, dtype=float)
    all_n = cfg.subcarrier_indices.astype(float)
    est = np.empty((cfg.N, cfg.M), dtype=complex)
    for m in range(cfg.M):
        est[:, m] = np.interp(all_n, pilot_n, samples[:, m].real) + 1j * np.interp(
            all_n, pilot_n, samples[:, m].imag
        )
    return est.reshape(-1)


def lmmse_estimate(
    received_pilots: np.ndarray,
    pattern: PilotPattern,
    cfg: SystemConfig,
    genie_covariance: KroneckerCovariance,
    noise_variance: float = 1.0,
) -> np.ndarray:
    """Linear MMSE interpolation/denoising: h = R_hp (R_pp + s^2 I)^-1 y_p.

    genie_covariance holds the two factors of R = R_mu (x) R_nu;
    harness.genie_covariance gives the exact ones of a scenario's ensemble.
    """
    n_rows = pattern.count * cfg.M
    if received_pilots.shape != (n_rows,):
        raise ValueError(f"expected {n_rows} pilot samples")
    return lmmse_filter(pattern, cfg, genie_covariance, noise_variance) @ received_pilots


@dataclass(frozen=True)
class LmmseFilter:
    """W y_p = vec(left @ ((u_h @ Y_p @ v_conj) * shrink) @ right) for the Np x M
    pilot grid Y_p; see lmmse_filter."""

    left: np.ndarray  # R_mu[:, P] U, N x Np
    u_h: np.ndarray  # U^H, Np x Np
    v_conj: np.ndarray  # conj(V), M x M
    shrink: np.ndarray  # D, Np x M
    right: np.ndarray  # (R_nu V)^T, M x M

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.left, self.u_h, self.v_conj, self.shrink, self.right))

    def __matmul__(self, received_pilots: np.ndarray) -> np.ndarray:
        grid = received_pilots.reshape(self.shrink.shape)
        return (self.left @ ((self.u_h @ grid @ self.v_conj) * self.shrink) @ self.right).ravel()


def lmmse_filter(
    pattern: PilotPattern,
    cfg: SystemConfig,
    genie_covariance: KroneckerCovariance,
    noise_variance: float = 1.0,
) -> LmmseFilter:
    """LMMSE filter W = R_hp (R_pp + s^2 I)^-1 for R = R_mu (x) R_nu, so that
    repeated trials only pay a few small matrix products.

    With pilot subcarriers P, R_pp = R_mu[P, P] (x) R_nu.  Writing
    R_mu[P, P] = U diag(lambda) U^H and R_nu = V diag(sigma) V^H, the inverse is
    (U (x) V) diag(D) (U (x) V)^H with D[i, j] = 1 / (lambda_i sigma_j + s^2), and
    on the row-major pilot grid W y_p = R_mu[:, P] U ((U^H Y_p conj(V)) o D) (R_nu V)^T.
    No MN x MN matrix is formed, and s^2 > 0 makes the inverse well-posed.
    """
    if noise_variance <= 0:
        raise ValueError("noise_variance must be > 0")
    rows = _pilot_subcarrier_rows(cfg, pattern)
    lam, U = np.linalg.eigh(genie_covariance.mu[np.ix_(rows, rows)])
    sigma, V = np.linalg.eigh(genie_covariance.nu)
    return LmmseFilter(
        left=genie_covariance.mu[:, rows] @ U,
        u_h=U.conj().T,
        v_conj=V.conj(),
        # the factors are PSD: floor round-off negatives so every denominator >= s^2
        shrink=1.0 / (np.outer(np.maximum(lam, 0.0), np.maximum(sigma, 0.0)) + noise_variance),
        right=(genie_covariance.nu @ V).T,
    )
