# Downlink gain refinement from the pursuit's paths: beamformed pilot model,
# coefficient matrix, LS gain re-estimation, and reconstruction.
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence, Tuple

import numpy as np

from .config import NormalizedPath, SystemConfig, check_integer
from .model import add_noise, offset_phases, path_arrays, ramp_matrices, synthesize_downlink
from .nomp import RankDeficientError

BeamformingType = Literal["type1", "type2"]


class EmptyEstimatesError(ValueError):
    pass


@dataclass(frozen=True)
class PilotPattern:
    """Comb pilots on every K-th of N subcarriers, starting at the lowest
    in-band index; 1 <= K <= N."""

    K: int
    N: int

    def __post_init__(self):
        check_integer("pilot stride K", self.K, 1, self.N)

    @classmethod
    def from_config(cls, cfg: SystemConfig, K: int | None = None) -> "PilotPattern":
        return cls(K=cfg.K if K is None else K, N=cfg.N)

    @property
    def count(self) -> int:
        return self.N // self.K

    @property
    def rows(self) -> np.ndarray:
        """Rows of the N x M channel grid that carry pilots: indices + N // 2."""
        return self.K * np.arange(self.count)

    @property
    def indices(self) -> Tuple[int, ...]:
        """Pilot subcarrier indices n, from -(N // 2) up."""
        return tuple(int(r) - self.N // 2 for r in self.rows)


def _pilot_operator(
    cfg: SystemConfig,
    pattern: PilotPattern,
    paths: Sequence[NormalizedPath],
    beams: Sequence[NormalizedPath],
    btype: BeamformingType,
) -> np.ndarray:
    """Pilots received from unit-gain copies of the paths (no gain is read)
    under beams steered at the beams' nu: the row of pilot i and beam j holds,
    for path l, exp(j*2*pi*(delta_F/delta_f + n_i)*mu_l) * a^H(nu_l) a(nu_j).

    Type 1 stacks one Np-row block per beam (Mp = Np*L); Type 2
    frequency-multiplexes the beams onto the pilot subcarriers, beam i mod L
    on pilot i (Mp = Np).
    """
    if not beams:
        raise EmptyEstimatesError("need at least one estimated direction to beamform")
    _, mus, nus = path_arrays(paths)
    D, A = ramp_matrices(cfg, mus, nus)
    phase = D[pattern.rows] * offset_phases(cfg, mus)
    bf = A.conj().T @ ramp_matrices(cfg, (), path_arrays(beams)[2])[1]  # bf[l, j]
    if btype == "type1":
        return np.vstack([phase * bf[:, j] for j in range(len(beams))])
    if btype == "type2":
        beam = np.arange(pattern.count) % len(beams)
        return phase * bf[:, beam].T
    raise ValueError(f"unknown beamforming type {btype!r}")


def build_coefficient_matrix(
    cfg: SystemConfig,
    pattern: PilotPattern,
    estimates: Sequence[NormalizedPath],
    btype: BeamformingType,
) -> np.ndarray:
    """Pilot coefficient matrix mapping per-path gains to received pilots: the
    pursuit's paths beamed at their own spatial frequencies, gains unread."""
    return _pilot_operator(cfg, pattern, estimates, estimates, btype)


def simulate_downlink_pilots(
    cfg: SystemConfig,
    pattern: PilotPattern,
    true_paths: Sequence[NormalizedPath],
    estimates: Sequence[NormalizedPath],
    btype: BeamformingType,
    noise_variance: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Received downlink pilots: the true paths, with their gains, beamed at
    the estimated paths' spatial frequencies, plus circular complex Gaussian
    noise drawn from rng (required when noise_variance > 0)."""
    gains = path_arrays(true_paths)[0]
    y = _pilot_operator(cfg, pattern, true_paths, estimates, btype) @ gains
    return add_noise(y, noise_variance, rng)


def refine_gains(A: np.ndarray, y_dl: np.ndarray) -> np.ndarray:
    """LS gain re-fit g = A^+ y via an orthogonal-factorization solve."""
    if A.shape[0] < A.shape[1]:
        raise RankDeficientError(
            f"underdetermined refinement: {A.shape[0]} pilots for {A.shape[1]} paths; "
            "densify pilots (smaller K) or switch to type 1"
        )
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(y_dl))):
        raise ValueError("coefficient matrix or pilots hold NaN or infinite entries")
    gains, _, rank, _ = np.linalg.lstsq(A, y_dl, rcond=None)
    if rank < A.shape[1]:
        raise RankDeficientError("coefficient matrix is rank deficient")
    return gains


def reconstruct_downlink(
    cfg: SystemConfig,
    refined_gains: Sequence[complex],
    estimates: Sequence[NormalizedPath],
) -> np.ndarray:
    """N x M downlink channel sum_l g_l exp(j*2*pi*delta_F*mu_l/delta_f) u(mu_l, nu_l)
    of the estimated paths with the refined gains g_l in place of theirs."""
    if len(refined_gains) != len(estimates):
        raise ValueError("gain/estimate length mismatch")
    return synthesize_downlink(cfg, [NormalizedPath(g, p.mu, p.nu) for g, p in zip(refined_gains, estimates)])
