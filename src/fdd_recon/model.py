# Synthesis of multi-subcarrier multi-antenna channels.
#
# A channel is an N x M complex grid: row n + floor(N/2) is subcarrier n and
# column m + floor(M/2) is antenna m.  All phase ramps use the convention
# exp(+j*2*pi*index*frequency), applied uniformly to both the synthesizer and
# the estimator.
from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from .config import NormalizedPath, SystemConfig


@lru_cache(maxsize=16)
def _phase_slopes(cfg: SystemConfig) -> Tuple[np.ndarray, np.ndarray]:
    """j*2*pi*n over the subcarriers and j*2*pi*m over the antennas, built
    once per config and read-only; ramp_matrices scales them."""
    n = 2j * np.pi * cfg.subcarrier_indices
    m = 2j * np.pi * cfg.antenna_indices
    n.flags.writeable = m.flags.writeable = False
    return n, m


def ramp_matrices(cfg: SystemConfig, mus, nus) -> Tuple[np.ndarray, np.ndarray]:
    """Delay ramps exp(j*2*pi*n*np.mod(mu, 1)) over the subcarrier indices and
    steering ramps exp(j*2*pi*m*np.mod(nu, 1)) over the antenna indices.  A
    scalar mu (nu) gives one N-vector (M-vector); a sequence gives the N x L
    matrix D (M x L matrix A) of its ramps as columns, so outer(D[:, l],
    A[:, l]) is the l-th path's atom and D diag(g) A^T the N x M channel of
    paths with gains g."""
    n, m = _phase_slopes(cfg)
    return np.exp(np.multiply.outer(n, np.mod(mus, 1.0))), np.exp(np.multiply.outer(m, np.mod(nus, 1.0)))


def atom(cfg: SystemConfig, mu: float, nu: float) -> np.ndarray:
    """Dictionary atom: the N x M outer product of delay and steering ramps.

    Unit-modulus entries, so ||atom||^2 == M*N for every (mu, nu).
    """
    return np.outer(*ramp_matrices(cfg, mu, nu))


def synthesize_from_normalized(cfg: SystemConfig, paths: Sequence[NormalizedPath]) -> np.ndarray:
    """N x M channel (D diag(g)) A^T of the paths: D and A are their ramp
    matrices and g their gains, so it is the sum of gain-weighted atoms with
    no atom formed.  Empty input gives the zero grid."""
    D, A = ramp_matrices(cfg, [p.mu for p in paths], [p.nu for p in paths])
    return (D * np.array([p.gain for p in paths], dtype=complex)) @ A.T


# The uplink channel; a name of its own, which perfbench/tracer.py hooks.
synthesize_uplink = synthesize_from_normalized


def offset_phases(cfg: SystemConfig, mus) -> np.ndarray:
    """Carrier-offset phases exp(j*2*pi*delta_F*tau) at the delays
    tau = (mu mod 1)/delta_f, which lie in [0, 1/delta_f)."""
    return np.exp(2j * np.pi * (cfg.delta_F / cfg.delta_f) * (np.asarray(mus, dtype=float) % 1.0))


def synthesize_downlink(cfg: SystemConfig, paths: Sequence[NormalizedPath]) -> np.ndarray:
    """synthesize_uplink with each path's gain times its carrier-offset phase."""
    mus = [p.mu for p in paths]
    D, A = ramp_matrices(cfg, mus, [p.nu for p in paths])
    return (D * (np.array([p.gain for p in paths], dtype=complex) * offset_phases(cfg, mus))) @ A.T


def add_noise(values: np.ndarray, variance: float, rng: np.random.Generator | None) -> np.ndarray:
    """Add i.i.d. circular complex Gaussian noise (variance per complex element)
    drawn from rng, which may be None only when variance is 0.  The draws fill
    the array's entries in C order, whatever its shape."""
    if not variance >= 0:  # NaN fails too
        raise ValueError(f"variance must be >= 0, got {variance!r}")
    if variance == 0:
        return values
    if rng is None:
        raise ValueError("a random generator is required when variance > 0")
    scale = np.sqrt(variance / 2.0)
    return values + scale * (rng.standard_normal(values.shape) + 1j * rng.standard_normal(values.shape))

