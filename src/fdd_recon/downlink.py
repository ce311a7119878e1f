# Downlink gain refinement from the pursuit's (mu, nu) estimates: beamformed
# pilot model, coefficient matrix, LS gain re-estimation, and reconstruction.
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence, Tuple

import numpy as np

from .config import PathComponent, SystemConfig, normalize_path
from .model import add_noise, offset_phases, ramp_matrices
from .nomp import RankDeficientError

# Not called here: reconstruct_downlink builds the channel from ramp matrices.
# The name stays a module attribute because perfbench/tracer.py hooks it.
from .model import synthesize_downlink  # noqa: F401

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
    beam_nus: Sequence[float],
    btype: BeamformingType,
) -> np.ndarray:
    """Pilots received from unit-gain (mu, nu) paths under beams steered at
    the spatial frequencies beam_nus: the row of pilot i and beam j holds, for
    path l, exp(j*2*pi*(delta_F/delta_f + n_i)*mu_l) * a^H(nu_l) a(beam_nus[j]).

    Type 1 stacks one Np-row block per beam (Mp = Np*L); Type 2
    frequency-multiplexes the beams onto the pilot subcarriers, beam i mod L
    on pilot i (Mp = Np).
    """
    if not beam_nus:
        raise EmptyEstimatesError("need at least one estimated direction to beamform")
    mus, nus = np.array(paths, dtype=float).reshape(-1, 2).T
    D, A = ramp_matrices(cfg, mus, nus)
    phase = D[np.array(pattern.indices) + cfg.N // 2] * offset_phases(cfg, mus)
    bf = A.conj().T @ ramp_matrices(cfg, (), beam_nus)[1]  # bf[l, j]
    if btype == "type1":
        return np.vstack([phase * bf[:, j] for j in range(len(beam_nus))])
    if btype == "type2":
        beam = np.arange(pattern.count) % len(beam_nus)
        return phase * bf[:, beam].T
    raise ValueError(f"unknown beamforming type {btype!r}")


def build_coefficient_matrix(
    cfg: SystemConfig,
    pattern: PilotPattern,
    estimates: Sequence[Tuple[float, float]],
    btype: BeamformingType,
) -> np.ndarray:
    """Pilot coefficient matrix mapping per-path gains to received pilots: the
    estimated paths beamed at their own spatial frequencies.  estimates are
    the pursuit's (mu, nu) pairs."""
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
    """Received downlink pilots: true paths beamed toward the estimated
    (mu, nu) pairs' spatial frequencies, plus circular complex Gaussian noise
    drawn from rng (required when noise_variance > 0).  A true delay outside
    [0, 1/delta_f) raises ValueError, as in synthesize_downlink."""
    for p in true_paths:
        p.validate(cfg)
    truth = [normalize_path(cfg, p) for p in true_paths]
    gains = np.array([p.gain for p in truth], dtype=complex)
    y = _pilot_operator(cfg, pattern, [(p.mu, p.nu) for p in truth], [e[1] for e in estimates], btype) @ gains
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
    """Downlink channel sum_l g_l exp(j*2*pi*delta_F*mu_l/delta_f) u(mu_l, nu_l)
    from per-path gains and the uplink-derived (mu, nu) pairs."""
    if len(refined_gains) != len(estimates):
        raise ValueError("gain/estimate length mismatch")
    mus, nus = np.array(estimates, dtype=float).reshape(-1, 2).T
    D, A = ramp_matrices(cfg, mus, nus)
    return ((D * (np.asarray(refined_gains) * offset_phases(cfg, mus))) @ A.T).ravel()
