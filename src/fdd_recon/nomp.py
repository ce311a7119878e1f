# Trivariate greedy pursuit: per-iteration 2D grid detection, joint Newton
# refinement of (mu, nu), cyclic re-refinement, and LS gain updates.
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Literal, Sequence, Tuple

import numpy as np

from .config import NormalizedPath, SystemConfig, wrap_unit, wrapped_dist
from .model import as_grid, atom, delay_vector, steering_vector, synthesize_from_normalized

TWO_PI = 2.0 * np.pi

# Wrapped coordinate distance below which two detections count as duplicates.
DUPLICATE_TOL = 1e-9

# The pursuit gives up ("stalled") after this many iterations per allowed path;
# an iteration that only re-detects a duplicate adds no path.
MAX_ITERATIONS_PER_PATH = 4


class RankDeficientError(ValueError):
    """Atom matrix has (numerically) dependent columns, e.g. duplicate detections."""

    def __init__(self, message, duplicates=()):
        super().__init__(message)
        self.duplicates = list(duplicates)


@dataclass(frozen=True)
class StoppingRule:
    variant: Literal["power", "false_alarm"] = "power"
    p_fa: float = 0.01

    def __post_init__(self):
        if self.variant == "false_alarm" and not 0.0 < self.p_fa < 1.0:
            raise ValueError("p_fa must lie in (0, 1)")


@dataclass(frozen=True)
class NompConfig:
    gamma1: int = 2  # delay-grid over-sampling
    gamma2: int = 4  # angle-grid over-sampling
    single_refine_rounds: int = 1
    cyclic_refine_rounds: int = 3
    max_paths: int | None = None  # None -> min(M*N // 4, 64)
    stopping: StoppingRule = field(default_factory=StoppingRule)

    def __post_init__(self):
        if self.gamma1 < 1 or self.gamma2 < 1:
            raise ValueError("over-sampling rates must be >= 1")
        if self.max_paths is not None and self.max_paths < 1:
            raise ValueError("max_paths must be >= 1")

    def resolve_max_paths(self, cfg: SystemConfig) -> int:
        if self.max_paths is not None:
            return self.max_paths
        return max(1, min(cfg.size // 4, 64))


@dataclass
class NompResult:
    paths: List[NormalizedPath]
    residual_energy: float
    iterations: int
    stop_reason: Literal["criterion", "max_paths", "stalled"]


@lru_cache(maxsize=16)
def _ramp_powers(cfg: SystemConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Rows (1, 2*pi*n, (2*pi*n)^2) over the subcarriers and columns
    (1, 2*pi*m, (2*pi*m)^2) over the antennas, built once per config."""
    n = TWO_PI * cfg.subcarrier_indices
    m = TWO_PI * cfg.antenna_indices
    wn = np.vstack([np.ones_like(n), n, n**2])
    wm = np.column_stack([np.ones_like(m), m, m**2])
    wn.flags.writeable = wm.flags.writeable = False
    return wn, wm


def _moments(cfg: SystemConfig, grid: np.ndarray, mu: float, nu: float) -> np.ndarray:
    """Q[j, k] = sum_{n,m} conj(r[n, m]) (2*pi*n)^j (2*pi*m)^k u[n, m] on the
    N x M residual grid; the atom u = d(mu) (x) a(nu) is never formed."""
    wn, wm = _ramp_powers(cfg)
    d = delay_vector(cfg, mu).conj()
    a = steering_vector(cfg, nu).conj()
    return ((wn * d) @ grid @ (wm * a[:, None])).conj()


def _grad_hess_from_moments(q: np.ndarray, g: complex):
    # d^(j+k) u / d mu^j d nu^k = (i*2*pi*n)^j (i*2*pi*m)^k u, and ||u||^2 does
    # not depend on (mu, nu), so the |g|^2 terms of S drop out of every derivative.
    gq = g * q
    grad = -2.0 * np.array([gq[1, 0].imag, gq[0, 1].imag])
    hess = -2.0 * np.array([[gq[2, 0].real, gq[1, 1].real], [gq[1, 1].real, gq[0, 2].real]])
    return grad, hess


def objective_S(cfg: SystemConfig, residual: np.ndarray, g: complex, mu: float, nu: float) -> float:
    """2*Re{r^H g u} - |g|^2 ||u||^2; the per-path residual-power reduction."""
    u = atom(cfg, mu, nu)
    return float(2.0 * np.real(np.vdot(residual, g * u)) - np.abs(g) ** 2 * cfg.size)


def coarse_detect(cfg: SystemConfig, residual: np.ndarray, nomp_cfg: NompConfig) -> Tuple[float, float, float]:
    """Argmax of |u^H r|^2 / ||u||^2 over the over-sampled 2D grid.

    Evaluated with a zero-padded 2D FFT of the residual reshaped to N x M; the
    index-offset phase factors are unimodular so they drop out of the argmax.
    Ties break to the lexicographically smallest (k1, k2).
    """
    g1n = nomp_cfg.gamma1 * cfg.N
    g2m = nomp_cfg.gamma2 * cfg.M
    spectrum = np.fft.fft2(as_grid(cfg, residual), s=(g1n, g2m))
    power = np.abs(spectrum) ** 2 / cfg.size
    flat = int(np.argmax(power))  # first occurrence = smallest (k1, k2)
    k1, k2 = divmod(flat, g2m)
    return k1 / g1n, k2 / g2m, float(power.flat[flat])


def ls_gain_single(cfg: SystemConfig, residual: np.ndarray, mu: float, nu: float) -> complex:
    """Scalar LS gain u^H r / ||u||^2; the residual is stacked or an N x M grid."""
    d = delay_vector(cfg, mu).conj()
    a = steering_vector(cfg, nu).conj()
    return complex(d @ as_grid(cfg, residual) @ a / cfg.size)


def _grad_hess(cfg: SystemConfig, residual: np.ndarray, g: complex, mu: float, nu: float):
    """Analytic gradient and Hessian of S with respect to (mu, nu)."""
    return _grad_hess_from_moments(_moments(cfg, as_grid(cfg, residual), mu, nu), g)


def newton_refine(
    cfg: SystemConfig, residual: np.ndarray, g: complex, mu: float, nu: float
) -> Tuple[complex, float, float, bool]:
    """One joint Newton step on (mu, nu), guarded by local concavity.

    The step is taken only when det(Hess) > 0 and Hess[0,0] < 0, and kept only
    when it does not reduce the objective; otherwise the inputs are returned
    with applied=False.  After an accepted step the gain is re-fit by LS.  The
    residual is stacked or an N x M grid.

    One antenna (subcarrier) carries no angle (delay) information and zeroes
    that row of the Hessian, so there the step is on mu (nu) alone, guarded by
    its own second derivative being negative.
    """
    grid = as_grid(cfg, residual)
    q = _moments(cfg, grid, mu, nu)
    grad, hess = _grad_hess_from_moments(q, g)
    if cfg.M > 1 and cfg.N > 1:
        det = hess[0, 0] * hess[1, 1] - hess[0, 1] * hess[1, 0]
        if not (det > 0.0 and hess[0, 0] < 0.0):
            return g, mu, nu, False
        step_mu = (hess[1, 1] * grad[0] - hess[0, 1] * grad[1]) / det
        step_nu = (hess[0, 0] * grad[1] - hess[1, 0] * grad[0]) / det
    else:
        k = int(cfg.N == 1)  # with M = N = 1, hess[1, 1] == 0 rejects
        if not hess[k, k] < 0.0:
            return g, mu, nu, False
        step = grad[k] / hess[k, k]
        step_mu, step_nu = (0.0, step) if k else (step, 0.0)
    mu_new = float(wrap_unit(mu - step_mu))
    nu_new = float(wrap_unit(nu - step_nu))
    g_new = ls_gain_single(cfg, grid, mu_new, nu_new)
    # S = 2 Re{g r^H u} - |g|^2 M N, which is |g|^2 M N at the LS gain
    s_old = 2.0 * np.real(g * q[0, 0]) - abs(g) ** 2 * cfg.size
    if abs(g_new) ** 2 * cfg.size < s_old:
        return g, mu, nu, False
    return g_new, mu_new, nu_new, True


def cyclic_refine(
    cfg: SystemConfig, y: np.ndarray, paths: Sequence[NormalizedPath], rounds: int
) -> List[NormalizedPath]:
    """Re-run the Newton step on each path in detection order, rounds times.

    The residual stays an N x M grid and each path's atom stays factored as
    (delay, steering) vectors, so adding a path back and taking it out again
    are rank-one updates.
    """
    if not paths:
        raise ValueError("cyclic_refine needs at least one path")
    paths = [NormalizedPath(p.gain, p.mu, p.nu) for p in paths]
    residual = as_grid(cfg, y - synthesize_from_normalized(cfg, paths))
    factors = [(delay_vector(cfg, p.mu), steering_vector(cfg, p.nu)) for p in paths]
    for _ in range(rounds):
        for i, p in enumerate(paths):
            d, a = factors[i]
            residual += p.gain * np.outer(d, a)
            p.gain, p.mu, p.nu, applied = newton_refine(cfg, residual, p.gain, p.mu, p.nu)
            if applied:
                factors[i] = d, a = delay_vector(cfg, p.mu), steering_vector(cfg, p.nu)
            residual -= p.gain * np.outer(d, a)
    return paths


def update_all_gains(cfg: SystemConfig, y: np.ndarray, paths: Sequence[NormalizedPath]) -> List[NormalizedPath]:
    """Joint LS re-fit of all gains via an orthogonal-factorization solve."""
    dups = [
        (i, j)
        for i in range(len(paths))
        for j in range(i + 1, len(paths))
        if wrapped_dist(paths[i].mu, paths[j].mu) < DUPLICATE_TOL
        and wrapped_dist(paths[i].nu, paths[j].nu) < DUPLICATE_TOL
    ]
    if dups:
        raise RankDeficientError("duplicate (mu, nu) detections", duplicates=dups)

    U = np.column_stack([atom(cfg, p.mu, p.nu) for p in paths])
    gains, _, _, _ = np.linalg.lstsq(U, y, rcond=None)
    return [NormalizedPath(complex(g), p.mu, p.nu) for g, p in zip(gains, paths)]


def stopping_power(cfg: SystemConfig, residual: np.ndarray) -> bool:
    """True when residual energy drops below the expected total noise energy M*N
    (unit per-element noise variance)."""
    return float(np.vdot(residual, residual).real) < cfg.size


def false_alarm_threshold(cfg: SystemConfig, p_fa: float) -> float:
    return float(np.log(cfg.size) - np.log(-np.log1p(-p_fa)))


def stopping_false_alarm(cfg: SystemConfig, residual: np.ndarray, p_fa: float) -> bool:
    """True when the per-atom matched-filter energy |u^H r|^2 / (M*N) stays
    below the extreme-value threshold on every non-over-sampled grid point."""
    spectrum = np.fft.fft2(as_grid(cfg, residual))
    stat = np.abs(spectrum) ** 2 / cfg.size
    return bool(stat.max() < false_alarm_threshold(cfg, p_fa))


def _stopping_fires(cfg: SystemConfig, residual: np.ndarray, rule: StoppingRule) -> bool:
    if rule.variant == "power":
        return stopping_power(cfg, residual)
    return stopping_false_alarm(cfg, residual, rule.p_fa)


def nomp_extract(y: np.ndarray, cfg: SystemConfig, nomp_cfg: NompConfig) -> NompResult:
    """Full pursuit: detect / refine / cyclic-refine / gains-update until the
    stopping rule fires, the path cap is reached, or the iteration cap of
    MAX_ITERATIONS_PER_PATH * max_paths is reached ("stalled")."""
    if y.shape != (cfg.size,):
        raise ValueError(f"expected stacked vector of length {cfg.size}")
    if not np.all(np.isfinite(y)):
        raise ValueError("y holds NaN or infinite entries")
    max_paths = nomp_cfg.resolve_max_paths(cfg)
    paths: List[NormalizedPath] = []
    residual = y.astype(complex).copy()
    iterations = 0
    stop_reason: Literal["criterion", "max_paths", "stalled"] = "max_paths"

    # a finite y so large that the pursuit's sums overflow raises FloatingPointError
    with np.errstate(over="raise", invalid="raise"):
        while True:
            if _stopping_fires(cfg, residual, nomp_cfg.stopping):
                stop_reason = "criterion"
                break
            if len(paths) >= max_paths:
                stop_reason = "max_paths"
                break
            if iterations >= MAX_ITERATIONS_PER_PATH * max_paths:
                stop_reason = "stalled"
                break

            mu, nu, _ = coarse_detect(cfg, residual, nomp_cfg)
            g = ls_gain_single(cfg, residual, mu, nu)
            for _ in range(nomp_cfg.single_refine_rounds):
                g, mu, nu, _ = newton_refine(cfg, residual, g, mu, nu)
            paths.append(NormalizedPath(g, mu, nu))

            if nomp_cfg.cyclic_refine_rounds > 0:
                paths = cyclic_refine(cfg, y, paths, nomp_cfg.cyclic_refine_rounds)
            try:
                paths = update_all_gains(cfg, y, paths)
            except RankDeficientError as err:
                keep = set(range(len(paths))) - {j for _, j in err.duplicates}
                paths = [paths[i] for i in sorted(keep)]
                paths = update_all_gains(cfg, y, paths)
            residual = y - synthesize_from_normalized(cfg, paths)
            iterations += 1

        energy = float(np.vdot(residual, residual).real)
    return NompResult(paths=paths, residual_energy=energy, iterations=iterations, stop_reason=stop_reason)
