# Synthesis of multi-subcarrier multi-antenna channels.
#
# A channel is an N x M complex grid: row n + floor(N/2) is subcarrier n and
# column m + floor(M/2) is antenna m.  All phase ramps use the convention
# exp(+j*2*pi*index*frequency), applied uniformly to both the synthesizer and
# the estimator.
from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Iterable, Sequence, Tuple

import numpy as np

from .config import NormalizedPath, PathComponent, SystemConfig, normalize_path


@lru_cache(maxsize=16)
def _phase_slopes(cfg: SystemConfig) -> Tuple[np.ndarray, np.ndarray]:
    """j*2*pi*n over the subcarriers and j*2*pi*m over the antennas, built
    once per config and read-only.  The ramps below scale them by the
    coordinate wrapped with Python's %, which equals np.mod (wrap_unit) and
    costs less on a scalar, so they equal exp(j*2*pi*index*wrap_unit(x))."""
    n = 2j * np.pi * cfg.subcarrier_indices
    m = 2j * np.pi * cfg.antenna_indices
    n.flags.writeable = m.flags.writeable = False
    return n, m


def steering_vector(cfg: SystemConfig, nu: float) -> np.ndarray:
    """ULA phase ramp exp(j*2*pi*m*nu) over the antenna indices."""
    return np.exp(_phase_slopes(cfg)[1] * (nu % 1.0))


def delay_vector(cfg: SystemConfig, mu: float) -> np.ndarray:
    """OFDM phase ramp exp(j*2*pi*n*mu) over the subcarrier indices."""
    return np.exp(_phase_slopes(cfg)[0] * (mu % 1.0))


def ramp_matrices(cfg: SystemConfig, mus, nus) -> Tuple[np.ndarray, np.ndarray]:
    """Delay ramps of the mus as the columns of an N x L matrix D and steering
    ramps of the nus as the columns of an M x L matrix A.  Column l equals
    delay_vector(cfg, mus[l]) (steering_vector(cfg, nus[l])) bit for bit, so
    outer(D[:, l], A[:, l]) is the l-th path's atom and D diag(g) A^T the
    N x M channel of paths with gains g."""
    n, m = _phase_slopes(cfg)
    mus = np.asarray(mus, dtype=float) % 1.0
    nus = np.asarray(nus, dtype=float) % 1.0
    return np.exp(n[:, None] * mus), np.exp(m[:, None] * nus)


def atom(cfg: SystemConfig, mu: float, nu: float) -> np.ndarray:
    """Dictionary atom: the N x M outer product of delay and steering ramps.

    Unit-modulus entries, so ||atom||^2 == M*N for every (mu, nu).
    """
    return np.outer(delay_vector(cfg, mu), steering_vector(cfg, nu))


def synthesize_from_normalized(cfg: SystemConfig, paths: Iterable[NormalizedPath]) -> np.ndarray:
    """Sum of gain-weighted atoms; empty input gives the zero grid."""
    h = np.zeros((cfg.N, cfg.M), dtype=complex)
    for p in paths:
        h += p.gain * atom(cfg, p.mu, p.nu)
    return h


def synthesize_uplink(cfg: SystemConfig, paths: Sequence[PathComponent]) -> np.ndarray:
    return synthesize_from_normalized(cfg, [normalize_path(cfg, p) for p in paths])


def offset_phases(cfg: SystemConfig, mus) -> np.ndarray:
    """Carrier-offset phases exp(j*2*pi*delta_F*tau) at tau = mu/delta_f, tau in [0, 1/delta_f)."""
    return np.exp(2j * np.pi * (cfg.delta_F / cfg.delta_f) * (np.asarray(mus, dtype=float) % 1.0))


def synthesize_downlink(cfg: SystemConfig, paths: Sequence[PathComponent]) -> np.ndarray:
    """Like synthesize_uplink but with each path's carrier-offset phase.  A
    delay outside [0, 1/delta_f) raises ValueError: wrapped, it would give
    the phase of another delay."""
    for p in paths:
        p.validate(cfg)
    n = [normalize_path(cfg, p) for p in paths]
    return synthesize_from_normalized(cfg, [replace(p, gain=p.gain * offset_phases(cfg, p.mu)) for p in n])


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

