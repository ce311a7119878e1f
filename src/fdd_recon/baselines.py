# Benchmark channel estimators: per-pilot LS with linear interpolation, and
# genie-covariance LMMSE over the stacked subcarrier/antenna vector.
from __future__ import annotations

import logging

import numpy as np

from .config import SystemConfig
from .downlink import PilotPattern

log = logging.getLogger(__name__)

COV_LOADING = 1e-10


def pilot_row_indices(cfg: SystemConfig, pattern: PilotPattern) -> np.ndarray:
    """Flat stacked-vector rows covered by the pilot subcarriers (all antennas)."""
    n0 = cfg.N // 2
    rows = [
        (n + n0) * cfg.M + m
        for n in pattern.indices
        for m in range(cfg.M)
    ]
    return np.array(rows)


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
    genie_covariance: np.ndarray,
    noise_variance: float = 1.0,
) -> np.ndarray:
    """Linear MMSE interpolation/denoising: h = R_hp (R_pp + s^2 I)^-1 y_p.

    genie_covariance is an MN x MN second-order statistic of the stacked
    channel under the scenario ensemble.  harness.genie_covariance builds it
    from `draws` channel draws (`covariance_draws` in a reconstruction run), so
    it is a sample covariance of rank at most `draws`, not the exact one.
    """
    n_rows = pattern.count * cfg.M
    if received_pilots.shape != (n_rows,):
        raise ValueError(f"expected {n_rows} pilot samples")
    return lmmse_filter(pattern, cfg, genie_covariance, noise_variance) @ received_pilots


def lmmse_filter(
    pattern: PilotPattern,
    cfg: SystemConfig,
    genie_covariance: np.ndarray,
    noise_variance: float = 1.0,
) -> np.ndarray:
    """Precomputed LMMSE matrix W so repeated trials only pay a matmul."""
    rows = pilot_row_indices(cfg, pattern)
    R_hp = genie_covariance[:, rows]
    R_pp = genie_covariance[np.ix_(rows, rows)] + noise_variance * np.eye(rows.size)
    try:
        return np.linalg.solve(R_pp, R_hp.conj().T).conj().T
    except np.linalg.LinAlgError:
        log.warning("singular pilot covariance; applying %.0e diagonal loading", COV_LOADING)
        R_pp = R_pp + COV_LOADING * np.eye(rows.size)
        return np.linalg.solve(R_pp, R_hp.conj().T).conj().T
