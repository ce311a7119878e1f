# Benchmark channel estimators on the N x M channel grid: per-pilot LS with
# linear interpolation, and genie-covariance LMMSE.
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .downlink import PilotPattern


@dataclass(frozen=True)
class KroneckerCovariance:
    """Channel covariance E[h h^H] = mu (x) nu, with h the N x M channel grid
    read row by row: mu[n, n'] = E[exp(j*2*pi*(n-n')*mu)] is the N x N delay
    factor and nu[m, m'] = E[exp(j*2*pi*(m-m')*nu)] the M x M angle factor."""

    mu: np.ndarray
    nu: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.mu.nbytes + self.nu.nbytes


def ls_estimate(received_pilots: np.ndarray, pattern: PilotPattern, cfg: SystemConfig) -> np.ndarray:
    """Per-pilot LS (with all-one pilots the estimate is the sample itself) on
    the Np x M pilot grid, linearly interpolated per antenna to the N x M
    grid; edges held at the nearest pilot."""
    if received_pilots.shape != (pattern.count, cfg.M):
        raise ValueError(f"expected a {pattern.count} x {cfg.M} pilot grid, got shape {received_pilots.shape}")
    if not np.all(np.isfinite(received_pilots)):
        raise ValueError("received pilots hold NaN or infinite entries")
    pilot_n = np.array(pattern.indices, dtype=float)
    all_n = cfg.subcarrier_indices.astype(float)
    est = np.empty((cfg.N, cfg.M), dtype=complex)
    for m in range(cfg.M):
        est[:, m] = np.interp(all_n, pilot_n, received_pilots[:, m])
    return est


@dataclass(frozen=True)
class LmmseFilter:
    """W @ Y_p = left @ ((u_h @ Y_p @ v_conj) * shrink) @ right maps the Np x M
    pilot grid Y_p to the N x M channel estimate; see lmmse_filter."""

    left: np.ndarray  # R_mu[:, P] U, N x Np
    u_h: np.ndarray  # U^H, Np x Np
    v_conj: np.ndarray  # conj(V), M x M
    shrink: np.ndarray  # D, Np x M
    right: np.ndarray  # (R_nu V)^T, M x M

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.left, self.u_h, self.v_conj, self.shrink, self.right))

    def __matmul__(self, received_pilots: np.ndarray) -> np.ndarray:
        if received_pilots.shape != self.shrink.shape:
            raise ValueError(f"expected a pilot grid of shape {self.shrink.shape}, got {received_pilots.shape}")
        if not np.all(np.isfinite(received_pilots)):
            raise ValueError("received pilots hold NaN or infinite entries")
        return self.left @ ((self.u_h @ received_pilots @ self.v_conj) * self.shrink) @ self.right


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
    on the Np x M pilot grid W Y_p = R_mu[:, P] U ((U^H Y_p conj(V)) o D) (R_nu V)^T.
    No MN x MN matrix is formed, and s^2 > 0 makes the inverse well-posed.
    """
    if not noise_variance > 0:  # NaN fails too
        raise ValueError(f"noise_variance must be > 0, got {noise_variance!r}")
    rows = pattern.rows
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
