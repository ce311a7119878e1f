# Core system geometry and path parameter containers.
from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np


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
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.M < 1 or self.N < 1:
            raise ValueError("M and N must be positive integers")
        if self.delta_f <= 0:
            raise ValueError("delta_f must be positive")
        if self.K < 1:
            raise ValueError("pilot stride K must be >= 1")
        if not 0 < self.d_over_lambda <= 0.5:
            raise ValueError("d_over_lambda must lie in (0, 0.5]")

    @property
    def antenna_indices(self) -> np.ndarray:
        return np.arange(self.M) - self.M // 2

    @property
    def subcarrier_indices(self) -> np.ndarray:
        return np.arange(self.N) - self.N // 2

    @property
    def size(self) -> int:
        """Length of the stacked channel vector."""
        return self.M * self.N


@dataclass
class PathComponent:
    """One propagation path in physical units."""

    gain: complex
    delay: float  # seconds, in [0, 1/delta_f)
    angle: float  # radians

    def validate(self, cfg: SystemConfig):
        if not 0 <= self.delay < 1.0 / cfg.delta_f:
            raise ValueError(f"delay {self.delay} outside [0, 1/delta_f)")


@dataclass
class NormalizedPath:
    """One path in normalized units: mu = delta_f*tau, nu = (d/lambda)*sin(theta) mod 1."""

    gain: complex
    mu: float
    nu: float


def wrap_unit(x):
    """Wrap a frequency-like coordinate into [0, 1)."""
    return np.mod(x, 1.0)


def wrapped_dist(a: float, b: float) -> float:
    """Distance between two coordinates on the unit circle, in [0, 0.5]."""
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def normalize_path(cfg: SystemConfig, path: PathComponent) -> NormalizedPath:
    mu = wrap_unit(cfg.delta_f * path.delay)
    nu = wrap_unit(cfg.d_over_lambda * np.sin(path.angle))
    return NormalizedPath(gain=path.gain, mu=float(mu), nu=float(nu))


def denormalize_path(cfg: SystemConfig, npath: NormalizedPath) -> PathComponent:
    """Invert normalize_path.  nu is unwrapped into [-0.5, 0.5); a nu with
    |nu| > d/lambda has no angle (it is invisible) and raises ValueError."""
    delay = wrap_unit(npath.mu) / cfg.delta_f
    nu = wrap_unit(npath.nu)
    if nu >= 0.5:
        nu -= 1.0
    if abs(nu) > cfg.d_over_lambda:
        raise ValueError(f"nu {npath.nu} is invisible at d/lambda {cfg.d_over_lambda}")
    return PathComponent(gain=npath.gain, delay=float(delay), angle=float(np.arcsin(nu / cfg.d_over_lambda)))
