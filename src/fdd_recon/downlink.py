# Downlink gain refinement: beamformed pilot model, coefficient matrix,
# LS gain re-estimation, and final downlink reconstruction.
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Literal, Sequence, Tuple

import numpy as np

from .config import PathComponent, SystemConfig, wrap_unit
from .model import add_noise, synthesize_downlink
from .nomp import RankDeficientError

BeamformingType = Literal["type1", "type2"]


class EmptyEstimatesError(ValueError):
    pass


@dataclass(frozen=True)
class PilotPattern:
    """Comb pilots: every K-th subcarrier, starting at the lowest in-band index."""

    K: int
    indices: Tuple[int, ...]

    @classmethod
    def from_config(cls, cfg: SystemConfig, K: int | None = None) -> "PilotPattern":
        K = cfg.K if K is None else K
        n_p = cfg.N // K
        start = -(cfg.N // 2)
        return cls(K=K, indices=tuple(start + K * i for i in range(n_p)))

    @property
    def count(self) -> int:
        return len(self.indices)


def _pilot_operator(
    cfg: SystemConfig,
    pattern: PilotPattern,
    paths: Sequence[Tuple[float, float]],
    beam_angles: Sequence[float],
    btype: BeamformingType,
) -> np.ndarray:
    """Pilots received from unit-gain (delay, angle) paths under beams toward
    beam_angles: the row of pilot i and beam j holds, for path l,
    exp(j*2*pi*(delta_F + n_i*delta_f)*tau_l) * a^H(theta_l) a(theta_hat_j).

    Type 1 stacks one Np-row block per beam (Mp = Np*L); Type 2
    frequency-multiplexes the beams onto the pilot subcarriers, beam i mod L
    on pilot i (Mp = Np).
    """
    if not beam_angles:
        raise EmptyEstimatesError("need at least one estimated direction to beamform")
    delays = np.array([p[0] for p in paths], dtype=float)
    n_i = np.array(pattern.indices)
    phase = np.exp(2j * np.pi * np.outer(cfg.delta_F + n_i * cfg.delta_f, delays))

    def steering(angles):  # M x L, column l equal to model.steering_vector bit for bit
        nu = wrap_unit(cfg.d_over_lambda * np.sin(np.array(angles, dtype=float)))
        return np.exp(2j * np.pi * cfg.antenna_indices[:, None] * nu)

    bf = steering([p[1] for p in paths]).conj().T @ steering(beam_angles)  # bf[l, j]
    if btype == "type1":
        return np.vstack([phase * bf[:, j] for j in range(len(beam_angles))])
    if btype == "type2":
        beam = np.arange(pattern.count) % len(beam_angles)
        return phase * bf[:, beam].T
    raise ValueError(f"unknown beamforming type {btype!r}")


def build_coefficient_matrix(
    cfg: SystemConfig,
    pattern: PilotPattern,
    estimates: Sequence[Tuple[float, float]],
    btype: BeamformingType,
) -> np.ndarray:
    """Pilot coefficient matrix mapping per-path gains to received pilots: the
    estimated paths beamed at their own angles.  estimates are (delay, angle)
    pairs."""
    return _pilot_operator(cfg, pattern, estimates, [e[1] for e in estimates], btype)


def simulate_downlink_pilots(
    cfg: SystemConfig,
    true_paths: Sequence[PathComponent],
    estimates: Sequence[Tuple[float, float]],
    btype: BeamformingType,
    pattern: PilotPattern,
    noise_variance: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Received downlink pilots: true paths beamed toward estimated directions,
    plus circular complex Gaussian noise drawn from rng (required when
    noise_variance > 0)."""
    paths = [(p.delay, p.angle) for p in true_paths]
    gains = np.array([p.gain for p in true_paths], dtype=complex)
    y = _pilot_operator(cfg, pattern, paths, [e[1] for e in estimates], btype) @ gains
    return add_noise(y, noise_variance, rng)


def refine_gains(A: np.ndarray, y_dl: np.ndarray) -> np.ndarray:
    """LS gain re-fit g = A^+ y via an orthogonal-factorization solve."""
    if A.shape[0] < A.shape[1]:
        raise RankDeficientError(
            f"underdetermined refinement: {A.shape[0]} pilots for {A.shape[1]} paths; "
            "densify pilots (smaller K) or switch to type 1"
        )
    gains, _, rank, _ = np.linalg.lstsq(A, y_dl, rcond=None)
    if rank < A.shape[1]:
        raise RankDeficientError("coefficient matrix is rank deficient")
    return gains


def reconstruct_downlink(
    cfg: SystemConfig,
    refined_gains: Sequence[complex],
    estimates: Sequence[Tuple[float, float]],
) -> np.ndarray:
    """Downlink channel from refined gains and uplink-derived delays/angles."""
    if len(refined_gains) != len(estimates):
        raise ValueError("gain/estimate length mismatch")
    paths = [
        PathComponent(gain=complex(g), delay=tau, angle=theta)
        for g, (tau, theta) in zip(refined_gains, estimates)
    ]
    return synthesize_downlink(cfg, paths)
