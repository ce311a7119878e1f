# Synthesis of stacked multi-subcarrier multi-antenna channel vectors.
#
# The stacked vector is subcarrier-major: element (n, m) lives at flat index
# (n + floor(N/2)) * M + (m + floor(M/2)).  All phase ramps use the convention
# exp(+j*2*pi*index*frequency), applied uniformly to both the synthesizer and
# the estimator.
from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Sequence

import numpy as np

from .config import NormalizedPath, PathComponent, SystemConfig, normalize_path, wrap_unit


def steering_vector(cfg: SystemConfig, nu: float) -> np.ndarray:
    """ULA phase ramp exp(j*2*pi*m*nu) over the antenna indices."""
    nu = wrap_unit(nu)
    return np.exp(2j * np.pi * cfg.antenna_indices * nu)


def delay_vector(cfg: SystemConfig, mu: float) -> np.ndarray:
    """OFDM phase ramp exp(j*2*pi*n*mu) over the subcarrier indices."""
    mu = wrap_unit(mu)
    return np.exp(2j * np.pi * cfg.subcarrier_indices * mu)


def atom(cfg: SystemConfig, mu: float, nu: float) -> np.ndarray:
    """Dictionary atom: Kronecker product of delay and steering ramps.

    Unit-modulus entries, so ||atom||^2 == M*N for every (mu, nu).
    """
    return np.outer(delay_vector(cfg, mu), steering_vector(cfg, nu)).ravel()


def synthesize_from_normalized(cfg: SystemConfig, paths: Iterable[NormalizedPath]) -> np.ndarray:
    """Sum of gain-weighted atoms; empty input gives the zero vector."""
    h = np.zeros(cfg.size, dtype=complex)
    for p in paths:
        h += p.gain * atom(cfg, p.mu, p.nu)
    return h


def synthesize_uplink(cfg: SystemConfig, paths: Sequence[PathComponent]) -> np.ndarray:
    return synthesize_from_normalized(cfg, [normalize_path(cfg, p) for p in paths])


def synthesize_downlink(cfg: SystemConfig, paths: Sequence[PathComponent]) -> np.ndarray:
    """Like synthesize_uplink but with the per-path carrier-offset phase
    exp(j*2*pi*delta_F*tau)."""
    h = np.zeros(cfg.size, dtype=complex)
    for p in paths:
        np_ = normalize_path(cfg, p)
        phase = np.exp(2j * np.pi * cfg.delta_F * p.delay)
        h += p.gain * phase * atom(cfg, np_.mu, np_.nu)
    return h


def synthesize_siso(cfg: SystemConfig, paths: Sequence[PathComponent]) -> np.ndarray:
    """Single-antenna special case: length-N vector of delay ramps only."""
    return synthesize_uplink(replace(cfg, M=1), paths)


def add_noise(vector: np.ndarray, variance: float, rng: np.random.Generator | None) -> np.ndarray:
    """Add i.i.d. circular complex Gaussian noise (variance per complex element)
    drawn from rng, which may be None only when variance is 0."""
    if variance < 0:
        raise ValueError("variance must be >= 0")
    if variance == 0:
        return vector
    if rng is None:
        raise ValueError("a random generator is required when variance > 0")
    scale = np.sqrt(variance / 2.0)
    return vector + scale * (rng.standard_normal(vector.shape) + 1j * rng.standard_normal(vector.shape))


def as_grid(cfg: SystemConfig, vec: np.ndarray) -> np.ndarray:
    """Reshape a stacked vector to (N, M): rows are subcarriers.  An (N, M)
    grid is returned as it is."""
    if vec.shape == (cfg.N, cfg.M):
        return vec
    if vec.shape != (cfg.size,):
        raise ValueError(f"expected length {cfg.size}, got {vec.shape}")
    return vec.reshape(cfg.N, cfg.M)
