# Fisher information and Cramer-Rao lower bounds for single-path (mu, nu)
# estimation under unit per-element noise.  SNR is |g|^2 in linear units.
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CrbReport:
    fisher: np.ndarray  # 2x2, ordered (nu, mu) on the diagonal
    crb_mu: float
    crb_nu: float  # +inf when M == 1
    eps_mu_bound: float  # N^2 * crb_mu
    eps_nu_bound: float  # M^2 * crb_nu
    large_array_limit: float  # common limit of both normalized bounds
    snr: float
    degenerate_geometry: bool  # True when M == 1 (angle unidentifiable)


def fisher_matrix(M: int, N: int, g: complex) -> np.ndarray:
    """Closed-form 2x2 Fisher matrix, diagonal (angle, delay) blocks
    2|g|^2 * pi^2 * M*N*(M^2-1)/3 and 2|g|^2 * pi^2 * M*N*(N^2-1)/3."""
    if M < 1 or N < 1:
        raise ValueError("M and N must be positive")
    scale = 2.0 * np.abs(g) ** 2 * np.pi**2 * M * N / 3.0
    return np.diag([scale * (M**2 - 1), scale * (N**2 - 1)]).astype(float)


def crb(M: int, N: int, snr: float) -> CrbReport:
    """Single-path CRBs and the normalized-MSE lower bounds."""
    if not snr > 0:  # NaN fails too
        raise ValueError(f"snr must be positive (linear units), got {snr!r}")
    if M * N <= 1:
        raise ValueError("need M*N > 1")
    crb_mu = 3.0 / (2.0 * snr * np.pi**2 * M * N * (N**2 - 1))
    degenerate = M == 1
    crb_nu = np.inf if degenerate else 3.0 / (2.0 * snr * np.pi**2 * M * N * (M**2 - 1))
    return CrbReport(
        fisher=fisher_matrix(M, N, np.sqrt(snr)),
        crb_mu=float(crb_mu),
        crb_nu=float(crb_nu),
        eps_mu_bound=float(N**2 * crb_mu),
        eps_nu_bound=float(M**2 * crb_nu) if not degenerate else np.inf,
        large_array_limit=float(3.0 / (2.0 * snr * np.pi**2 * M * N)),
        snr=float(snr),
        degenerate_geometry=degenerate,
    )
