"""Reference math that only the tests use: the pursuit's per-path objective,
its analytic gradient and Hessian built from the pursuit's own moment code,
the false-alarm stopping rule on its own N x M FFT, the single-path
phase-error law, and a Monte-Carlo estimate of the single-path Fisher
diagonal."""
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


def stopping_false_alarm(cfg: SystemConfig, residual: np.ndarray, p_fa: float) -> bool:
    """True when the per-atom matched-filter energy |u^H r|^2 / (M*N) stays
    below the extreme-value threshold on every non-over-sampled grid point."""
    spectrum = np.fft.fft2(residual)
    stat = np.abs(spectrum) ** 2 / cfg.size
    return bool(stat.max() < nomp.false_alarm_threshold(cfg, p_fa))


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


def mc_fisher_diagonal(M: int, N: int, g: complex, draws: int = 20_000, step: float = 1e-5, seed: int = 0):
    """Monte-Carlo curvature oracle (F_mumu, F_nunu): -E[d^2 lnL] via central
    finite differences of the log-likelihood lnL = -||y - g u(mu,nu)||^2 on
    simulated data."""
    cfg = SystemConfig(M=M, N=N)
    rng = np.random.default_rng(seed)
    mu0, nu0 = 0.37, 0.21
    u0 = atom(cfg, mu0, nu0)
    z_mean = (
        rng.standard_normal((draws, cfg.N, cfg.M)) + 1j * rng.standard_normal((draws, cfg.N, cfg.M))
    ).mean(axis=0) / np.sqrt(2.0)

    out = []
    for axis in (0, 1):
        curis = []
        for sign in (+1, -1):
            mu = mu0 + sign * step * (axis == 0)
            nu = nu0 + sign * step * (axis == 1)
            d = g * (u0 - atom(cfg, mu, nu))
            # E[lnL(shift)] - E[lnL(0)] = -(||d||^2 + 2 Re{E[z]^H d})
            curis.append(-(np.vdot(d, d).real + 2 * np.real(np.vdot(z_mean, d))))
        out.append(-(curis[0] + curis[1]) / step**2)
    return np.array(out)
