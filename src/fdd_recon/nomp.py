# Trivariate greedy pursuit: per-iteration 2D grid detection, joint Newton
# refinement of (mu, nu), cyclic re-refinement, and LS gain updates.  Its
# costs are per-call dispatch more than arithmetic, so each Newton step runs
# on Python scalars, the gain update solves its Gram by LU, and y is
# transformed once per pursuit.
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Literal, NamedTuple, Sequence, Tuple

import numpy as np

from .config import NormalizedPath, SystemConfig, check_integer, finite_real, wrapped_dists
from .model import _phase_slopes, ramp_matrices

# Not called here: the pursuit builds its residuals from ramp matrices and
# forms no atom.  The names stay module attributes because perfbench/tracer.py
# hooks them.
from .model import atom, synthesize_from_normalized  # noqa: F401

TWO_PI = 2.0 * np.pi

# Wrapped coordinate distance below which two detections count as duplicates.
DUPLICATE_TOL = 1e-9

# Smallest squared Cholesky pivot of the gain update's Gram, as a share of its
# diagonal M N, at which the Gram still counts as regular: sqrt(eps).
GRAM_PIVOT_TOL = float(np.sqrt(np.finfo(float).eps))

# The pursuit gives up ("stalled") after this many iterations per allowed path;
# an iteration that only re-detects a duplicate adds no path.
MAX_ITERATIONS_PER_PATH = 4


class RankDeficientError(ValueError):
    """Atom matrix has (numerically) dependent columns, e.g. duplicate detections."""

    def __init__(self, message, duplicates=()):
        super().__init__(message)
        self.duplicates = list(duplicates)


@dataclass(frozen=True)
class NompConfig:
    gamma1: int = 2  # delay-grid over-sampling
    gamma2: int = 4  # angle-grid over-sampling
    cyclic_refine_rounds: int = 3
    max_paths: int | None = None  # None -> min(M*N // 4, 64)
    p_fa: float | None = None  # None -> residual-power stopping, else false-alarm stopping at this rate

    def __post_init__(self):
        for name, low in (("gamma1", 1), ("gamma2", 1), ("cyclic_refine_rounds", 0)):
            check_integer(name, getattr(self, name), low)
        if self.max_paths is not None:
            check_integer("max_paths", self.max_paths, 1)
        if self.p_fa is not None and not (finite_real(self.p_fa) and 0 < self.p_fa < 1):
            raise ValueError(f"p_fa must be a number in (0, 1) or null, got {self.p_fa!r}")

    def resolve_max_paths(self, cfg: SystemConfig) -> int:
        if self.max_paths is not None:
            return self.max_paths
        return max(1, min(cfg.size // 4, 64))


@dataclass
class NompResult:
    paths: List[NormalizedPath]
    iterations: int
    stop_reason: Literal["criterion", "max_paths", "stalled"]


class _Kernel(NamedTuple):
    """Per-config weights of the Newton step's moments and the phase slopes
    of its candidate ramps.  A refinement pass looks them up once and passes
    them to each of its steps."""

    # complex-typed, so that products with the ramps need no cast
    wn: np.ndarray  # rows (1, 2*pi*n, (2*pi*n)^2) over the subcarriers
    wm: np.ndarray  # columns (1, 2*pi*m, (2*pi*m)^2) over the antennas
    p: np.ndarray  # P[j, k] = (sum_n (2*pi*n)^j) (sum_m (2*pi*m)^k)
    slopes: Tuple[np.ndarray, np.ndarray]  # model._phase_slopes(cfg): j*2*pi*n and j*2*pi*m


@lru_cache(maxsize=16)
def _kernel(cfg: SystemConfig) -> _Kernel:
    n = TWO_PI * cfg.subcarrier_indices
    m = TWO_PI * cfg.antenna_indices
    wn = np.vstack([np.ones_like(n), n, n**2]).astype(complex)
    wm = np.column_stack([np.ones_like(m), m, m**2]).astype(complex)
    p = np.outer(wn.sum(axis=1), wm.sum(axis=0))
    wn.flags.writeable = wm.flags.writeable = p.flags.writeable = False
    return _Kernel(wn, wm, p, _phase_slopes(cfg))


def _moments(k: _Kernel, grid: np.ndarray, d: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Q[j, k] = sum_{n,m} conj(r[n, m]) (2*pi*n)^j (2*pi*m)^k u[n, m] on the
    N x M residual grid; the atom u = outer(d, a) is never formed.  |u| = 1, so
    adding g u to the grid adds conj(g) P to Q."""
    # np.dot, here and in newton_refine: less dispatch than @ on small products
    return np.dot(np.dot(k.wn * d.conj(), grid) * a.conj(), k.wm).conj()


def _derivatives(q, g: complex):
    """Gradient (S_mu, S_nu) and Hessian entries (S_mumu, S_munu, S_nunu) of S
    from the moments Q of its residual, read as q[j][k] from nested lists or
    an array."""
    # d^(j+k) u / d mu^j d nu^k = (i*2*pi*n)^j (i*2*pi*m)^k u, and ||u||^2 does
    # not depend on (mu, nu), so the |g|^2 terms of S drop out of every derivative.
    h = -2.0 * g
    return (h * q[1][0]).imag, (h * q[0][1]).imag, (h * q[2][0]).real, (h * q[1][1]).real, (h * q[0][2]).real


def _check_finite(*values: float) -> None:
    """FloatingPointError unless every value is finite.  Python arithmetic
    ignores np.errstate, so the Newton step checks its scalars itself."""
    if not all(map(math.isfinite, values)):
        raise FloatingPointError("overflow or invalid value in a Newton step")


def _grid_shape(cfg: SystemConfig, nomp_cfg: NompConfig) -> Tuple[int, int]:
    """Shape (gamma1 N, gamma2 M) of the over-sampled detection grid."""
    return nomp_cfg.gamma1 * cfg.N, nomp_cfg.gamma2 * cfg.M


def _power(cfg: SystemConfig, spectrum: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|spectrum|^2 / MN, written to out when given."""
    power = np.square(spectrum.real, out=out)
    power += np.square(spectrum.imag)
    power /= cfg.size
    return power


def grid_power(cfg: SystemConfig, residual: np.ndarray, nomp_cfg: NompConfig) -> np.ndarray:
    """|u^H r|^2 / ||u||^2 on the (gamma1 N) x (gamma2 M) over-sampled grid,
    from a zero-padded 2D FFT of the N x M residual (the index-offset phase
    factors are unimodular).  Every (gamma1, gamma2)-th bin is the N x M DFT's."""
    return _power(cfg, np.fft.fft2(residual, s=_grid_shape(cfg, nomp_cfg)))


def coarse_detect(power: np.ndarray) -> Tuple[float, float, float]:
    """Argmax (mu, nu, power) of grid_power's over-sampled grid.  Ties break
    to the lexicographically smallest (k1, k2)."""
    flat = int(np.argmax(power))  # first occurrence = smallest (k1, k2)
    k1, k2 = divmod(flat, power.shape[1])
    return k1 / power.shape[0], k2 / power.shape[1], float(power.flat[flat])


def _ls_gain(cfg: SystemConfig, grid: np.ndarray, d: np.ndarray, a: np.ndarray) -> complex:
    return complex(d.conj() @ grid @ a.conj() / cfg.size)


def ls_gain_single(cfg: SystemConfig, residual: np.ndarray, mu: float, nu: float) -> complex:
    """Scalar LS gain u^H r / ||u||^2 on the N x M residual."""
    return _ls_gain(cfg, residual, *ramp_matrices(cfg, mu, nu))


def newton_refine(
    cfg: SystemConfig,
    residual: np.ndarray,
    g: complex,
    mu: float,
    nu: float,
    factors: List[np.ndarray],
    kernel: _Kernel,
) -> Tuple[complex, float, float, bool]:
    """One joint Newton step on (mu, nu), guarded by local concavity.

    residual is the N x M residual with the path (g, mu, nu) held out: the
    step fits the path to residual + g u(mu, nu).  That sum is never formed.
    Its moments are those of the residual plus conj(g) P, and the LS gain at
    a candidate (mu', nu') with ramps (d', a') is
    (d'^H R conj(a') + g (d'^H d)(a^T conj(a'))) / MN, so a step reads the
    N x M grid at most twice and writes nothing to it; a caller that keeps
    the residual updates it after an accepted step.

    The step is taken only when det(Hess) > 0 and Hess[0,0] < 0, and kept only
    when it does not reduce the objective; otherwise the inputs are returned
    with applied=False.  After an accepted step the gain is re-fit by LS.

    factors is the list [d, a] of (mu, nu)'s ramp_matrices, which an accepted
    step updates in place to the new (mu, nu)'s ramps, and kernel is
    _kernel(cfg).

    The moments are read into Python numbers once (.tolist()), and the
    gradient, Hessian, guard, step and acceptance run on Python floats and
    complex numbers, with no NumPy scalar dispatch.  Python arithmetic
    ignores np.errstate, so a non-finite intermediate raises
    FloatingPointError here (_check_finite).  The candidate ramps are
    exp(slope * mu') on the kernel's phase slopes: mu' is already wrapped,
    so they need neither np.mod nor ramp_matrices' cache lookup.
    """
    d, a = factors
    q = (_moments(kernel, residual, d, a) + complex(g).conjugate() * kernel.p).tolist()
    g_mu, g_nu, h_mm, h_mn, h_nn = _derivatives(q, g)
    # one antenna (subcarrier) zeroes every angle (delay) term: curvature -1 there gives the 1-D step
    if cfg.M == 1:
        h_nn = -1.0
    elif cfg.N == 1:
        h_mm = -1.0
    det = h_mm * h_nn - h_mn * h_mn
    # S = 2 Re{g r^H u} - |g|^2 M N, which is |g|^2 M N at the LS gain
    s_old = 2.0 * (g * q[0][0]).real - abs(g) ** 2 * cfg.size
    _check_finite(g_mu, g_nu, h_mm, h_mn, h_nn, det, s_old)
    if not (det > 0.0 and h_mm < 0.0):
        return g, mu, nu, False
    mu_new = (mu - (h_nn * g_mu - h_mn * g_nu) / det) % 1.0
    nu_new = (nu - (h_mm * g_nu - h_mn * g_mu) / det) % 1.0
    _check_finite(mu_new, nu_new)
    n_slope, m_slope = kernel.slopes
    d_new, a_new = np.exp(n_slope * mu_new), np.exp(m_slope * nu_new)
    a_conj = a_new.conj()
    g_new = complex((np.vdot(d_new, np.dot(residual, a_conj)) + g * np.vdot(d_new, d) * np.dot(a, a_conj)) / cfg.size)
    if abs(g_new) ** 2 * cfg.size < s_old:
        return g, mu, nu, False
    factors[:] = d_new, a_new
    return g_new, mu_new, nu_new, True


def cyclic_refine(
    cfg: SystemConfig,
    residual: np.ndarray,
    paths: Sequence[NormalizedPath],
    factors: Sequence[List[np.ndarray]],
    rounds: int,
) -> None:
    """rounds Newton steps on each path in detection order, updating the
    paths, their [delay ramp, steering ramp] factors and the N x M residual
    in place.  The residual holds every path out before and after each step.
    An accepted step from (g, d, a) to (g', d', a') adds [g d, -g' d'] [a; a']^T
    to it and a rejected step leaves it as it is.

    The update is one (N x 4)(4 x 2M) real product on the arrays' float
    views: left's float view holds the columns (Re, Im) of g d and of -g' d',
    and the rows [a, j a, a', j a'] of right read as floats give Re and Im of
    the product interleaved, as the update's float view stores them.  It
    has the flops of the (N x 2)(2 x M) complex product and took 4.6 us
    against 10.7 us for it at M = 32, N = 128 (OpenBLAS, one thread, x86-64)."""
    k = _kernel(cfg)
    left = np.empty((cfg.N, 2), dtype=complex)
    right = np.empty((4, cfg.M), dtype=complex)
    update = np.empty((cfg.N, cfg.M), dtype=complex)
    left_f, right_f, update_f = left.view(float), right.view(float), update.view(float)
    old_column, new_column = left[:, 0], left[:, 1]
    ramps, turned = right[0::2], right[1::2]  # rows [a, a'] and [j a, j a']
    for _ in range(rounds):
        for p, f in zip(paths, factors):
            g, (d, a) = p.gain, f
            p.gain, p.mu, p.nu, applied = newton_refine(cfg, residual, g, p.mu, p.nu, f, k)
            if applied:
                np.multiply(d, g, out=old_column)
                np.multiply(f[0], -p.gain, out=new_column)
                ramps[0], ramps[1] = a, f[1]
                np.multiply(ramps, 1j, out=turned)
                np.matmul(left_f, right_f, out=update_f)
                residual += update


def update_all_gains(
    cfg: SystemConfig, y: np.ndarray, paths: Sequence[NormalizedPath], D: np.ndarray, A: np.ndarray
) -> List[NormalizedPath]:
    """Joint LS re-fit of all gains from the L x L Gram matrix.

    D (N x L) holds the paths' delay ramps as columns and A (M x L) their
    steering ramps.  The atoms' Gram matrix is (D^H D) o (A^H A) and the
    right-hand side is b_l = d_l^H Y conj(a_l) on the N x M grid Y, so no
    atom is formed.  The L x L system is solved by _gram_solve, which falls
    back to the minimum-norm least-squares solution, finite when the Gram is
    singular (aliased atoms).  Duplicate detections raise RankDeficientError
    first.
    """
    coords = np.array([(p.mu, p.nu) for p in paths]).reshape(-1, 2)
    close = wrapped_dists(coords[:, None], coords) < DUPLICATE_TOL
    close = close[..., 0] & close[..., 1]
    if np.count_nonzero(close) > len(paths):  # each path is close to itself
        i, j = np.nonzero(np.triu(close, 1))
        raise RankDeficientError("duplicate (mu, nu) detections", duplicates=list(zip(i.tolist(), j.tolist())))

    Dh, Ah = D.conj().T, A.conj().T
    gram = (Dh @ D) * (Ah @ A)
    b = np.sum((Dh @ y) * Ah, axis=1)
    return [NormalizedPath(complex(g), p.mu, p.nu) for g, p in zip(_gram_solve(cfg, gram, b), paths)]


def _gram_solve(cfg: SystemConfig, gram: np.ndarray, b: np.ndarray) -> np.ndarray:
    """gram^-1 b by LU (np.linalg.solve), or lstsq's minimum-norm solution
    when solve raises or the Gram is singular to working precision: a
    squared Cholesky pivot below GRAM_PIVOT_TOL * M N (the Gram's diagonal).
    Pivots bound the smallest eigenvalue from above, and past that bound the
    solve's error in the fit's residual energy, about (eps cond)^2 of it,
    can exceed eps."""
    try:
        pivots = np.linalg.cholesky(gram).diagonal().real
        if np.all(pivots * pivots >= GRAM_PIVOT_TOL * cfg.size):
            return np.linalg.solve(gram, b)
    except np.linalg.LinAlgError:
        pass
    gains, _, _, _ = np.linalg.lstsq(gram, b, rcond=None)
    return gains


def stopping_power(cfg: SystemConfig, residual: np.ndarray) -> bool:
    """True when residual energy drops below the expected total noise energy M*N
    (unit per-element noise variance)."""
    return float(np.vdot(residual, residual).real) < cfg.size


def false_alarm_threshold(cfg: SystemConfig, p_fa: float) -> float:
    return float(np.log(cfg.size) - np.log(-np.log1p(-p_fa)))


def _stopping_fires(cfg: SystemConfig, residual: np.ndarray, power: np.ndarray, nomp_cfg: NompConfig) -> bool:
    """The stopping rule, given the residual and its grid_power.  Without a
    p_fa the power rule reads the residual alone; the false-alarm rule fires
    when the power stays below the extreme-value threshold on the N x M DFT's bins."""
    if nomp_cfg.p_fa is None:
        return stopping_power(cfg, residual)
    return bool(power[:: nomp_cfg.gamma1, :: nomp_cfg.gamma2].max() < false_alarm_threshold(cfg, nomp_cfg.p_fa))


def nomp_extract(y: np.ndarray, cfg: SystemConfig, nomp_cfg: NompConfig) -> NompResult:
    """Full pursuit on the N x M grid y: detect / refine / cyclic-refine /
    gains-update until the stopping rule fires, the path cap is reached, or
    the iteration cap of MAX_ITERATIONS_PER_PATH * max_paths is reached
    ("stalled").

    y is transformed once.  The residual y - D diag(g) A^T left by a gain
    update then has the over-sampled spectrum S_y - (F1 D) diag(g) (F2 A)^T,
    with F1 (F2) the zero-padded gamma1 N (gamma2 M) point DFT along the
    subcarriers (antennas): two 1-D FFTs over the L ramp columns and one
    matmul, in place of grid_power's 2D FFT of the rebuilt residual.  The
    residual is still rebuilt for the stopping rule and the next Newton
    steps."""
    if y.shape != (cfg.N, cfg.M):
        raise ValueError(f"expected an N x M = {cfg.N} x {cfg.M} grid, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("y holds NaN or infinite entries")
    max_paths = nomp_cfg.resolve_max_paths(cfg)
    paths: List[NormalizedPath] = []
    factors: List[List[np.ndarray]] = []  # each path's [delay ramp, steering ramp]
    residual = y.astype(complex)
    iterations = 0
    stop_reason: Literal["criterion", "max_paths", "stalled"] = "max_paths"
    rows, cols = _grid_shape(cfg, nomp_cfg)

    # a finite y so large that the pursuit's sums overflow raises FloatingPointError
    with np.errstate(over="raise", invalid="raise"):
        spectrum_y = np.fft.fft2(residual, s=(rows, cols))
        # the spectrum and its power are rewritten in place: a fresh grid per
        # iteration is page-faulted in whenever the allocator maps it anew
        # (18.9k against 10.9k minor faults over 30 crb_attainment.json trials)
        spectrum, power = spectrum_y.copy(), np.empty((rows, cols))
        while True:
            # one spectrum per iteration serves the stopping rule and the detection
            _power(cfg, spectrum, out=power)
            if _stopping_fires(cfg, residual, power, nomp_cfg):
                stop_reason = "criterion"
                break
            if len(paths) >= max_paths:
                stop_reason = "max_paths"
                break
            if iterations >= MAX_ITERATIONS_PER_PATH * max_paths:
                stop_reason = "stalled"
                break

            mu, nu, _ = coarse_detect(power)
            d, a = ramp_matrices(cfg, mu, nu)
            g = _ls_gain(cfg, residual, d, a)
            paths.append(NormalizedPath(g, mu, nu))
            factors.append([d, a])
            # one residual holds every path out from here to the gain update, which rebuilds it from y
            residual -= np.outer(g * d, a)
            cyclic_refine(cfg, residual, paths[-1:], factors[-1:], 1)
            cyclic_refine(cfg, residual, paths, factors, nomp_cfg.cyclic_refine_rounds)

            # the ramps as columns: views of the stacked rows, which np.array builds in one call
            D, A = np.array([f[0] for f in factors]).T, np.array([f[1] for f in factors]).T
            try:
                paths = update_all_gains(cfg, y, paths, D, A)
            except RankDeficientError as err:
                keep = sorted(set(range(len(paths))) - {j for _, j in err.duplicates})
                paths, factors = [paths[i] for i in keep], [factors[i] for i in keep]
                D, A = D[:, keep], A[:, keep]
                paths = update_all_gains(cfg, y, paths, D, A)
            gains = [p.gain for p in paths]
            residual = y - (D * gains) @ A.T
            np.matmul(np.fft.fft(D, n=rows, axis=0) * gains, np.fft.fft(A, n=cols, axis=0).T, out=spectrum)
            np.subtract(spectrum_y, spectrum, out=spectrum)
            iterations += 1
    return NompResult(paths=paths, iterations=iterations, stop_reason=stop_reason)
