# Core system geometry and the path parameter container.
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np


def check_integer(name: str, value, low: int, high: int | None = None) -> None:
    """Raise ValueError unless value is an integer (not a bool) in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be {bound}, got {value}")


def finite_real(value) -> bool:
    """True for a finite real number; bools, strings and None are not numbers."""
    if isinstance(value, bool) or not isinstance(value, Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


@dataclass(frozen=True)
class SystemConfig:
    """OFDM / ULA geometry shared by every module.

    Antenna indices run over m = -floor(M/2) .. ceil(M/2)-1 and subcarrier
    indices over n = -floor(N/2) .. ceil(N/2)-1, with DC at n=0 and the
    reference element at m=0.
    """

    M: int  # BS antenna elements
    N: int  # subcarriers per band
    delta_f: float = 75e3  # subcarrier spacing [Hz]
    delta_F: float = 0.0  # downlink carrier offset from uplink reference [Hz]
    d_over_lambda: float = 0.5  # element spacing / wavelength
    K: int = 4  # downlink pilot stride

    def __post_init__(self):
        for name in ("M", "N", "K"):
            check_integer(name, getattr(self, name), 1)
        if not (finite_real(self.delta_f) and self.delta_f > 0):
            raise ValueError(f"delta_f must be positive and finite, got {self.delta_f!r}")
        if not finite_real(self.delta_F):
            raise ValueError(f"delta_F must be finite, got {self.delta_F!r}")
        if not (finite_real(self.d_over_lambda) and 0 < self.d_over_lambda <= 0.5):
            raise ValueError("d_over_lambda must lie in (0, 0.5]")

    @property
    def antenna_indices(self) -> np.ndarray:
        return np.arange(self.M) - self.M // 2

    @property
    def subcarrier_indices(self) -> np.ndarray:
        return np.arange(self.N) - self.N // 2

    @property
    def size(self) -> int:
        """Number of entries M*N of the N x M channel grid."""
        return self.M * self.N


@dataclass
class NormalizedPath:
    """One path in normalized units, the only path type: delay tau and angle
    theta enter as mu = delta_f*tau and nu = (d/lambda)*sin(theta), both
    defined mod 1."""

    gain: complex
    mu: float
    nu: float


def wrapped_dists(a, b) -> np.ndarray:
    """Distances on the unit circle, in [0, 0.5], between a and b broadcast together."""
    d = np.abs(np.subtract(a, b)) % 1.0
    return np.minimum(d, 1.0 - d)

