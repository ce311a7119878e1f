# Cramer-Rao lower bounds for single-path (mu, nu) estimation under unit
# per-element noise.  SNR is |g|^2 in linear units.
from __future__ import annotations

from typing import Tuple

import numpy as np


def crb(M: int, N: int, snr: float) -> Tuple[float, float]:
    """The normalized-MSE lower bounds (N^2 CRB_mu, M^2 CRB_nu) of one path.

    A coordinate sampled K times (K = N for mu, K = M for nu) has Fisher
    information 2 snr pi^2 M N (K^2 - 1) / 3, so its bound is K^2 over that;
    sampled once it carries no information and its bound is inf."""
    if not snr > 0:  # NaN fails too
        raise ValueError(f"snr must be positive (linear units), got {snr!r}")
    if M * N <= 1:
        raise ValueError("need M*N > 1")

    def bound(K: int) -> float:
        return np.inf if K == 1 else float(K**2 * (3.0 / (2.0 * snr * np.pi**2 * M * N * (K**2 - 1))))

    return bound(N), bound(M)
