"""Reference math that only the tests use: the pursuit's per-path objective,
its analytic gradient and Hessian built from the pursuit's own moment code,
and the single-path phase-error law."""
from typing import Tuple

import numpy as np

from fdd_recon import SystemConfig, atom, nomp
from fdd_recon.model import ramp_matrices


def objective_S(cfg: SystemConfig, residual: np.ndarray, g: complex, mu: float, nu: float) -> float:
    """2*Re{r^H g u} - |g|^2 ||u||^2; the per-path residual-power reduction."""
    u = atom(cfg, mu, nu)
    return float(2.0 * np.real(np.vdot(residual, g * u)) - np.abs(g) ** 2 * cfg.size)


def grad_hess(cfg: SystemConfig, residual: np.ndarray, g: complex, mu: float, nu: float):
    """Analytic gradient and Hessian of S with respect to (mu, nu), from the
    moments and derivatives that newton_refine steps with; the residual is
    S's own, with the path in it."""
    q = nomp._moments(nomp._kernel(cfg), residual, *ramp_matrices(cfg, mu, nu))
    g_mu, g_nu, h_mm, h_mn, h_nn = nomp._derivatives(q, g)
    return np.array([g_mu, g_nu]), np.array([[h_mm, h_mn], [h_mn, h_nn]])


def phase_error_law(g: complex, tau: float, delta_tau: float, delta_F: float) -> Tuple[float, float]:
    """Single-antenna single-path consequence of a delay estimation error.

    The gain is re-fit at the reference frequency (0 Hz), which zeroes the
    in-band error there; direct inference at carrier offset delta_F is then off
    by the multiplicative phase 2*pi*delta_F*delta_tau.

    Returns (in-band reconstruction error magnitude at the reference frequency,
    argument of the inferred/true channel ratio at offset delta_F).
    """
    tau_hat = tau + delta_tau
    g_hat = g  # LS fit on the reference sample, where every delay's phase is 1
    inband_err = abs(g_hat - g)
    h_true = g * np.exp(2j * np.pi * delta_F * tau)
    h_inferred = g_hat * np.exp(2j * np.pi * delta_F * tau_hat)
    ratio_arg = float(np.angle(h_inferred / h_true))
    return float(inband_err), ratio_arg
