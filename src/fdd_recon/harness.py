# Scenario generation, noise injection, Monte-Carlo experiments, and the
# bound-comparison runs.  All experiments inject unit-variance noise per
# element and sweep SNR by scaling path gains; trial t of sweep point s draws
# its RNG from SeedSequence((seed, s, t)) so reports are bit-identical at any
# worker count.
#
# Trials run on `threads` trial workers: this process and forked copies of
# it, each pinned to one CPU (a trial holds the GIL, so threads could not run
# two at once).  On a 2-core machine, 2 workers ran the 15-path CRB trials
# (M=32, N=128, 2 trials per SNR point) at 1.75 times the rate of one (26.2
# against 15.0 trials/s, medians of ten benchmark runs each); with the
# pursuit's held-out Newton step they run at 34.4 trials/s.
from __future__ import annotations

import os
import pickle
import signal
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, NoReturn, Sequence, Tuple

import numpy as np

from .baselines import KroneckerCovariance, lmmse_filter, ls_estimate
from .bounds import crb
from .config import NormalizedPath, SystemConfig, check_integer, finite_real, wrapped_dists
from .downlink import (
    PilotPattern,
    RankDeficientError,
    build_coefficient_matrix,
    refine_gains,
    reconstruct_downlink,
    simulate_downlink_pilots,
)
from .model import add_noise, synthesize_downlink, synthesize_from_normalized, synthesize_uplink
from .nomp import NompConfig, StoppingRule, ls_gain_single, nomp_extract

MSE_FLOOR_DB = -120.0


class InfeasibleSeparationError(ValueError):
    pass


class DimensionMismatchError(ValueError):
    pass


class TrialWorkerError(RuntimeError):
    """A forked trial worker ended without sending back its results."""


# ---------------------------------------------------------------------------
# scenarios


@dataclass(frozen=True)
class SparseTwoPath:
    """Two distinct paths with i.i.d. random angles and delays.

    mu is uniform over a cyclic-prefix-scale window [0, delay_spread_fraction)
    anchored at zero (first arrival defines the timing reference), keeping the
    ensemble frequency-correlated so covariance-based estimators have
    structure to use.
    """

    delay_spread_fraction: float = 1.0 / 16.0  # window of mu = delta_f*tau

    def __post_init__(self):
        if not (finite_real(self.delay_spread_fraction) and 0 < self.delay_spread_fraction <= 1):
            raise ValueError(f"delay_spread_fraction must lie in (0, 1], got {self.delay_spread_fraction}")


@dataclass(frozen=True)
class Cluster:
    """One cluster of close paths within a fixed angular spread."""

    paths: int = 6
    angular_spread_deg: float = 30.0
    delay_spread_cells: float = 3.0  # delay spread as a multiple of 1/(N*delta_f), at most N

    def __post_init__(self):
        check_integer("paths", self.paths, 1)
        if not (finite_real(self.angular_spread_deg) and 0 <= self.angular_spread_deg <= 180):
            raise ValueError(f"angular_spread_deg must be a number in [0, 180], got {self.angular_spread_deg!r}")
        if not (finite_real(self.delay_spread_cells) and self.delay_spread_cells >= 0):
            raise ValueError(f"delay_spread_cells must be a finite number >= 0, got {self.delay_spread_cells!r}")


@dataclass(frozen=True)
class EqualPowerGrid:
    """Equal-power paths with minimum wrapped separations in both coordinates;
    mu is uniform on [0, 1) and nu on the visible arc |nu| <= d/lambda."""

    count: int = 15
    min_sep_mu: float | None = None  # default 1/N
    min_sep_nu: float | None = None  # default 1/M

    def __post_init__(self):
        check_integer("count", self.count, 1)
        for name in ("min_sep_mu", "min_sep_nu"):
            sep = getattr(self, name)
            if sep is not None and not (finite_real(sep) and sep >= 0):
                raise ValueError(f"{name} must be null or a finite number >= 0, got {sep!r}")


@dataclass(frozen=True)
class Custom:
    paths: Tuple[NormalizedPath, ...] = ()


ScenarioSpec = SparseTwoPath | Cluster | EqualPowerGrid | Custom


def _random_phase(rng: np.random.Generator) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))


def _spaced(rng: np.random.Generator, count: int, sep: float) -> np.ndarray:
    """count points on the unit circle, uniform among the placements whose
    wrapped pairwise distances are all at least sep (count*sep < 1): sorted
    uniforms on [0, 1 - count*sep) with sep*i added, rotated by a uniform and
    put in random order."""
    x = np.sort(rng.uniform(0.0, 1.0 - count * sep, size=count)) + sep * np.arange(count)
    return rng.permutation((x + rng.uniform()) % 1.0)


def generate_scenario(
    cfg: SystemConfig,
    spec: ScenarioSpec,
    rng: np.random.Generator,
    total_power: float = 1.0,
) -> List[NormalizedPath]:
    """Draw one path realization; deterministic given the generator state.

    Gains carry random phases and are scaled so sum |g_l|^2 == total_power,
    which fixes the per-subcarrier per-antenna SNR under unit noise.  The
    random scenarios draw angles theta in [-pi/2, pi/2] as
    nu = (d/lambda)*sin(theta) mod 1.
    """
    if isinstance(spec, Custom):
        return list(spec.paths)

    d = cfg.d_over_lambda
    if isinstance(spec, SparseTwoPath):
        count = 2
        mus = rng.uniform(0.0, spec.delay_spread_fraction, size=count)
        nus = d * np.sin(rng.uniform(-np.pi / 2, np.pi / 2, size=count))
    elif isinstance(spec, Cluster):
        if spec.delay_spread_cells > cfg.N:
            raise ValueError(
                f"delay_spread_cells {spec.delay_spread_cells} exceeds the N = {cfg.N} delay cells of a symbol"
            )
        count = spec.paths
        half = np.deg2rad(spec.angular_spread_deg) / 2.0
        center = rng.uniform(-np.pi / 2 + half, np.pi / 2 - half)
        nus = d * np.sin(center + rng.uniform(-half, half, size=count))
        spread = spec.delay_spread_cells / cfg.N
        mus = rng.uniform(0.0, 1.0 - spread) + rng.uniform(0.0, spread, size=count)
    elif isinstance(spec, EqualPowerGrid):
        count = spec.count
        sep_mu = 1.0 / cfg.N if spec.min_sep_mu is None else spec.min_sep_mu
        sep_nu = 1.0 / cfg.M if spec.min_sep_nu is None else spec.min_sep_nu
        if count * sep_mu >= 1.0 or count * sep_nu >= 2 * d:
            raise InfeasibleSeparationError(
                f"{count} paths cannot keep separations ({sep_mu}, {sep_nu}) on the visible torus"
            )
        mus = _spaced(rng, count, sep_mu)
        # nu on the visible arc [-d, d] with its ends joined, scaled to the unit circle
        nus = 2 * d * _spaced(rng, count, sep_nu / (2 * d)) - d
    else:
        raise TypeError(f"unknown scenario spec {spec!r}")

    amp = np.sqrt(total_power / count)
    return [NormalizedPath(amp * _random_phase(rng), float(mu), float(nu)) for mu, nu in zip(mus % 1.0, nus % 1.0)]


# ---------------------------------------------------------------------------
# metrics


def mse_linear(estimate: np.ndarray, truth: np.ndarray) -> float:
    """Mean over the rows (subcarriers) of two N x M grids of
    ||h_hat_n - h_n||^2 / M (noise power per subcarrier across M antennas
    equals M under unit noise)."""
    if estimate.shape != truth.shape or estimate.ndim != 2:
        raise DimensionMismatchError(f"expected two N x M grids, got shapes {estimate.shape} and {truth.shape}")
    diff = estimate - truth
    return float(np.mean(np.sum(np.abs(diff) ** 2, axis=1)) / diff.shape[1])


def to_db(linear: float) -> float:
    if linear <= 10.0 ** (MSE_FLOOR_DB / 10.0):
        return MSE_FLOOR_DB
    return float(10.0 * np.log10(linear))


def cdf_points(samples: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF support and levels; levels end at exactly 1."""
    x = np.sort(np.asarray(samples, dtype=float))
    levels = np.arange(1, x.size + 1) / x.size
    return x, levels


# ---------------------------------------------------------------------------
# experiment report


@dataclass
class ExperimentReport:
    experiment: str
    seed: int
    trials: int
    snr_db: List[float]
    curves: Dict[str, List[float]]  # mean MSE (dB) per SNR point
    per_trial_db: Dict[str, List[List[float]]]  # per SNR point, per trial
    bounds: Dict[str, List[float]] = field(default_factory=dict)
    extras: Dict[str, object] = field(default_factory=dict)
    wall_clock_s: float = 0.0

    def cdf(self, curve: str, snr_index: int) -> Tuple[np.ndarray, np.ndarray]:
        return cdf_points(self.per_trial_db[curve][snr_index])


def _trial_rng(seed: int, sweep_index: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, sweep_index, trial)))


def _trial_worker(
    fn: Callable[[int], object], w: int, trials: int, workers: int, out: int, inherited: List[int], cpu
) -> NoReturn:
    """Body of forked worker w: close the inherited pipe ends, run trials
    w, w + workers, ... on CPU `cpu` (None: unpinned), and write the pickled
    (True, results) or (False, exception) to the pipe end `out`.  It always
    ends in os._exit, so it never unwinds into its caller's stack or flushes
    stdio buffers copied from the parent; what does not pickle ends it with
    status 1 and no reply."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        try:
            reply = pickle.dumps((True, [fn(t) for t in range(w, trials, workers)]))
        except BaseException as err:
            if hasattr(err, "add_note"):  # notes travel in the pickle; tracebacks do not
                err.add_note(f"in trial worker {w}:\n{traceback.format_exc()}")
            reply = pickle.dumps((False, err))
        with open(out, "wb") as pipe:
            pipe.write(reply)
        code = 0
    finally:
        os._exit(code)


def _map_trials(fn: Callable[[int], object], trials: int, threads: int) -> list:
    """[fn(t) for t in range(trials)] on workers = min(threads, trials) trial
    workers, trial t on worker t % workers.

    Worker 0 is this process.  Workers 1.. are forked here, so they inherit fn
    and the sweep point it closes over (neither pickles), and send back only
    their pickled results, or the exception they raised, through a pipe.
    This process runs on the first CPU of its affinity mask and worker w on
    CPU w mod the mask's size, because a forked child stays on its parent's
    CPU where the scheduler does not balance load; the mask is restored on
    return.  Without os.fork the trials run serially.
    """
    workers = min(threads, trials)
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(t) for t in range(trials)]
    pin = hasattr(os, "sched_setaffinity")
    mask = os.sched_getaffinity(0) if pin else set()
    cpus = sorted(mask)
    pids: Dict[int, int] = {}  # worker -> pid, until reaped
    pipes: Dict[int, int] = {}  # worker -> read end of its pipe, until closed
    try:
        if pin:
            os.sched_setaffinity(0, {cpus[0]})
        for w in range(1, workers):
            r, out = os.pipe()
            pipes[w] = r
            cpu = cpus[w % len(cpus)] if pin else None
            try:
                pid = os.fork()
                if pid == 0:  # the child ends inside _trial_worker
                    _trial_worker(fn, w, trials, workers, out, list(pipes.values()), cpu)
                pids[w] = pid
            finally:
                os.close(out)
        results: list = [None] * trials
        results[::workers] = [fn(t) for t in range(0, trials, workers)]
        for w in range(1, workers):
            with open(pipes[w], "rb", closefd=False) as pipe:
                reply = pipe.read()
            os.close(pipes.pop(w))
            _, status = os.waitpid(pids[w], 0)
            del pids[w]
            if not reply:
                raise TrialWorkerError(
                    f"trial worker {w} exited with status {os.waitstatus_to_exitcode(status)} without a result"
                )
            ok, value = pickle.loads(reply)
            if not ok:
                raise value
            results[w::workers] = value
        return results
    finally:
        # on failure: close the pipes first, so no child stays blocked on a
        # full one, then stop and reap every child not yet reaped
        for fd in pipes.values():
            os.close(fd)
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if pin:
            os.sched_setaffinity(0, mask)


def _sweep(
    points: Iterable[object],
    trials: int,
    seed: int,
    threads: int,
    trial: Callable[[object, np.random.Generator], object],
) -> List[list]:
    """results[s][t] = trial(point_s, rng) with rng from SeedSequence((seed, s, t)).

    The points are taken one at a time, so set-up that a generator of points
    does per point (an SNR's LMMSE filter) runs just before that point's trials.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if threads < 1:
        raise ValueError(f"threads (trial workers) must be >= 1, got {threads}")
    return [
        _map_trials(lambda t, s=s, point=point: trial(point, _trial_rng(seed, s, t)), trials, threads)
        for s, point in enumerate(points)
    ]


def _db_curves(
    names: Sequence[str], sweep: Sequence[Sequence[Dict[str, float]]]
) -> Tuple[Dict[str, List[float]], Dict[str, List[List[float]]]]:
    """Per name and point: dB of the mean linear value, and each trial's dB."""
    curves = {n: [to_db(float(np.mean([r[n] for r in point]))) for point in sweep] for n in names}
    per_trial = {n: [[to_db(r[n]) for r in point] for point in sweep] for n in names}
    return curves, per_trial


# ---------------------------------------------------------------------------
# CRB attainment experiment


def match_paths(
    truth: Sequence[NormalizedPath],
    detected: Sequence[NormalizedPath],
    radius_mu: float,
    radius_nu: float,
) -> List[Tuple[int, int]]:
    """Greedy wrapped nearest-neighbour assignment with per-coordinate
    rejection radii; each detected path is used at most once.  Candidate
    pairs within both radii are taken in order of (dm + dn, i, j)."""
    dm = wrapped_dists(np.array([t.mu for t in truth])[:, None], [d.mu for d in detected])
    dn = wrapped_dists(np.array([t.nu for t in truth])[:, None], [d.nu for d in detected])
    rows, cols = np.nonzero((dm <= radius_mu) & (dn <= radius_nu))
    order = np.lexsort((cols, rows, (dm + dn)[rows, cols]))
    used_t: set[int] = set()
    used_d: set[int] = set()
    matches = []
    for i, j in zip(rows[order].tolist(), cols[order].tolist()):
        if i in used_t or j in used_d:
            continue
        matches.append((i, j))
        used_t.add(i)
        used_d.add(j)
    return matches


def run_crb_experiment(
    cfg: SystemConfig,
    snr_list_db: Sequence[float],
    trials: int,
    seed: int = 0,
    nomp_cfg: NompConfig | None = None,
    scenario: EqualPowerGrid | None = None,
    threads: int = 1,
) -> ExperimentReport:
    """Measured normalized MSEs of (mu, nu) against the theoretical bounds.

    Per-path gain power is set to the swept SNR (the single-path bound is
    stated per path); missed paths are excluded from the MSE and reported as a
    separate rate.
    """
    t0 = time.perf_counter()
    nomp_cfg = nomp_cfg or NompConfig(gamma1=2, gamma2=2, stopping=StoppingRule("power"))
    scenario = scenario or EqualPowerGrid()
    radius_mu = 0.5 / (nomp_cfg.gamma1 * cfg.N)
    radius_nu = 0.5 / (nomp_cfg.gamma2 * cfg.M)

    snr_list = [10.0 ** (snr_db / 10.0) for snr_db in snr_list_db]
    bound_reports = [crb(cfg.M, cfg.N, snr) for snr in snr_list]

    def trial(snr: float, rng: np.random.Generator):
        truth = generate_scenario(cfg, scenario, rng, total_power=snr * scenario.count)
        y = add_noise(synthesize_uplink(cfg, truth), 1.0, rng)
        res = nomp_extract(y, cfg, nomp_cfg)
        matches = match_paths(truth, res.paths, radius_mu, radius_nu)
        t = np.array([(truth[i].mu, truth[i].nu) for i, _ in matches]).reshape(-1, 2)
        e = np.array([(res.paths[j].mu, res.paths[j].nu) for _, j in matches]).reshape(-1, 2)
        sq_mu, sq_nu = (wrapped_dists(t, e) ** 2).T.tolist()
        missed = len(truth) - len(matches)
        fakes = len(res.paths) - len(matches)
        return sq_mu, sq_nu, missed, fakes

    sweep = _sweep(snr_list, trials, seed, threads, trial)

    def eps_db(squares: Sequence[float], size: int) -> float:
        return to_db(float(np.mean(squares)) * size**2)

    curves: Dict[str, List[float]] = {}
    per_trial: Dict[str, List[List[float]]] = {}
    for k, (name, size) in enumerate((("eps_mu_db", cfg.N), ("eps_nu_db", cfg.M))):
        curves[name] = [eps_db([sq for r in point for sq in r[k]], size) for point in sweep]
        per_trial[name] = [[eps_db(r[k], size) for r in point if r[k]] for point in sweep]
    return ExperimentReport(
        experiment="crb",
        seed=seed,
        trials=trials,
        snr_db=list(snr_list_db),
        curves=curves,
        per_trial_db=per_trial,
        bounds={
            "bound_mu_db": [to_db(r.eps_mu_bound) for r in bound_reports],
            "bound_nu_db": [to_db(r.eps_nu_bound) for r in bound_reports],
        },
        extras={
            "missed_rate": [sum(r[2] for r in point) / (trials * scenario.count) for point in sweep],
            "false_alarms": [sum(r[3] for r in point) for point in sweep],
        },
        wall_clock_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# false-alarm calibration


def run_false_alarm_experiment(
    cfg: SystemConfig,
    p_fa: float,
    trials: int,
    seed: int = 0,
    nomp_cfg: NompConfig | None = None,
    threads: int = 1,
) -> ExperimentReport:
    """Empirical fake-detection rate of the false-alarm stopping rule on pure
    unit-variance noise."""
    t0 = time.perf_counter()
    rule = StoppingRule("false_alarm", p_fa=p_fa)
    nomp_cfg = replace(nomp_cfg or NompConfig(gamma1=2, gamma2=2), stopping=rule)

    def trial(_, rng: np.random.Generator) -> int:
        noise = add_noise(np.zeros((cfg.N, cfg.M), dtype=complex), 1.0, rng)
        return 1 if nomp_extract(noise, cfg, nomp_cfg).paths else 0

    fakes = sum(_sweep([None], trials, seed, threads, trial)[0])
    rate = fakes / trials
    return ExperimentReport(
        experiment="false-alarm",
        seed=seed,
        trials=trials,
        snr_db=[],
        curves={},
        per_trial_db={},
        extras={"p_fa": p_fa, "empirical_rate": rate, "fake_detections": fakes},
        wall_clock_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# phase-error analysis


def run_phase_error_experiment(
    cfg: SystemConfig,
    trials: int,
    seed: int = 0,
    offset_delay_product_range: Tuple[float, float] = (0.1, 0.5),
    snr_db: float = 10.0,
    threads: int = 1,
) -> ExperimentReport:
    """Randomized single-path trials: downlink MSE of gain-refined
    reconstruction versus direct out-of-band inference under an injected delay
    error with delta_F * delta_tau in the given range, which needs a nonzero
    delta_F."""
    if cfg.delta_F == 0:
        raise ValueError("the phase-error experiment needs a nonzero delta_F")
    t0 = time.perf_counter()
    pattern = PilotPattern.from_config(cfg)

    def trial(snr: float, rng: np.random.Generator) -> Dict[str, float]:
        path = generate_scenario(cfg, SparseTwoPath(), rng, total_power=snr)[0]
        lo, hi = offset_delay_product_range
        delta_tau = rng.uniform(lo, hi) / cfg.delta_F * rng.choice([-1.0, 1.0])
        # mu of the erroneous delay, which stays in [0, 1/delta_f)
        mu_hat = float(np.clip(path.mu + cfg.delta_f * delta_tau, 0.0, 1.0 - 1e-12))
        estimates = [(mu_hat, path.nu)]

        h_ul = synthesize_uplink(cfg, [path])
        h_dl = synthesize_downlink(cfg, [path])

        # direct inference: uplink LS gain at the erroneous delay, reused downlink
        h_direct = reconstruct_downlink(cfg, [ls_gain_single(cfg, h_ul, *estimates[0])], estimates)

        # refined: downlink beamformed pilots, LS gain re-fit
        y_dl = simulate_downlink_pilots(cfg, [path], estimates, "type1", pattern, 1.0, rng)
        A = build_coefficient_matrix(cfg, pattern, estimates, "type1")
        g_dl = refine_gains(A, y_dl)
        h_refined = reconstruct_downlink(cfg, g_dl, estimates)

        return {
            "direct_inference": mse_linear(h_direct, h_dl),
            "refined_reconstruction": mse_linear(h_refined, h_dl),
        }

    sweep = _sweep([10.0 ** (snr_db / 10.0)], trials, seed, threads, trial)
    curves, per_trial = _db_curves(["direct_inference", "refined_reconstruction"], sweep)
    wins = sum(1 for r in sweep[0] if r["refined_reconstruction"] < r["direct_inference"])
    return ExperimentReport(
        experiment="phase-error",
        seed=seed,
        trials=trials,
        snr_db=[snr_db],
        curves=curves,
        per_trial_db=per_trial,
        extras={"refined_win_fraction": wins / trials},
        wall_clock_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# reconstruction experiment


def _uniform_cf(k: np.ndarray, width: float) -> np.ndarray:
    """E[exp(j*2*pi*k*x)] for x uniform on [0, width]."""
    return np.exp(1j * np.pi * k * width) * np.sinc(k * width)


def _hermitian_toeplitz(c: np.ndarray) -> np.ndarray:
    """Matrix with entry (i, i') = c[i - i'], and conj(c[i' - i]) above the diagonal."""
    k = np.subtract.outer(np.arange(c.size), np.arange(c.size))
    return np.where(k >= 0, c[np.abs(k)], c[np.abs(k)].conj())


def genie_covariance(cfg: SystemConfig, scenario: ScenarioSpec) -> KroneckerCovariance:
    """Exact E[h h^H] of the unit-power channel under the scenario's ensemble.

    Every path has its own uniform random phase, so cross-path terms vanish and
    the downlink offset phase cancels in each path's own outer product.  A
    path's delay and angle are independent, so R = R_mu (x) R_nu, two Toeplitz
    factors of the characteristic functions E[exp(j*2*pi*k*mu)] and
    E[exp(j*2*pi*k*nu)] at integer lags k.
    """
    k_mu, k_nu, d = np.arange(cfg.N), np.arange(cfg.M), cfg.d_over_lambda
    if isinstance(scenario, EqualPowerGrid):
        # each path's mu is uniform on [0, 1) and its nu uniform on [-d, d]
        mu_cf = (k_mu == 0).astype(complex)
        nu_cf = np.sinc(2 * d * k_nu)
        return KroneckerCovariance(_hermitian_toeplitz(mu_cf), _hermitian_toeplitz(nu_cf))
    # Gauss-Legendre on [-1, 1]; this many nodes is exact to round-off for d <= 1/2
    t, w = np.polynomial.legendre.leggauss(4 * cfg.M + 32)
    if isinstance(scenario, SparseTwoPath):
        mu_cf = _uniform_cf(k_mu, scenario.delay_spread_fraction)
        angles, weights = t * np.pi / 2, w / 2
    elif isinstance(scenario, Cluster):
        spread = scenario.delay_spread_cells / cfg.N
        mu_cf = _uniform_cf(k_mu, 1.0 - spread) * _uniform_cf(k_mu, spread)
        # angle = center uniform on +-(pi/2 - half) plus offset uniform on +-half
        half = np.deg2rad(scenario.angular_spread_deg) / 2.0
        angles = np.add.outer(t * (np.pi / 2 - half), t * half).ravel()
        weights = np.outer(w, w).ravel() / 4
    else:
        raise TypeError(f"no closed-form covariance for scenario {scenario!r}")
    nu_cf = np.exp(2j * np.pi * d * np.outer(k_nu, np.sin(angles))) @ weights
    return KroneckerCovariance(_hermitian_toeplitz(mu_cf), _hermitian_toeplitz(nu_cf))


def run_reconstruction_experiment(
    cfg: SystemConfig,
    scenario: ScenarioSpec,
    btype: str,
    K: int,
    snr_list_db: Sequence[float],
    trials: int,
    seed: int = 0,
    nomp_cfg: NompConfig | None = None,
    threads: int = 1,
) -> ExperimentReport:
    """Per trial: uplink sounding + pursuit, downlink gain refinement and
    reconstruction, direct out-of-band inference, and the LS / genie-LMMSE
    downlink baselines (pilot stride 4), all scored against the true channels."""
    t0 = time.perf_counter()
    nomp_cfg = nomp_cfg or NompConfig()
    refine_pattern = PilotPattern.from_config(cfg, K)
    baseline_pattern = PilotPattern.from_config(cfg, 4)
    base_cov = genie_covariance(cfg, scenario)

    names = ["ls", "lmmse", "uplink_recon", "downlink_recon", "direct_inference"]

    def trial(point: Tuple[float, np.ndarray], rng: np.random.Generator) -> Dict[str, float]:
        snr, W = point
        paths = generate_scenario(cfg, scenario, rng, total_power=snr)
        h_ul = synthesize_uplink(cfg, paths)
        h_dl = synthesize_downlink(cfg, paths)
        detected = nomp_extract(add_noise(h_ul, 1.0, rng), cfg, nomp_cfg).paths
        estimates = [(p.mu, p.nu) for p in detected]
        h_direct = reconstruct_downlink(cfg, [p.gain for p in detected], estimates)

        out: Dict[str, float] = {
            "uplink_recon": mse_linear(synthesize_from_normalized(cfg, detected), h_ul),
            "direct_inference": mse_linear(h_direct, h_dl),
            # without estimates, or when flagged, the reconstruction is zero
            "downlink_recon": mse_linear(np.zeros_like(h_dl), h_dl),
            "flagged": 0,
        }
        if estimates:
            try:
                y_dl = simulate_downlink_pilots(cfg, paths, estimates, btype, refine_pattern, 1.0, rng)
                A = build_coefficient_matrix(cfg, refine_pattern, estimates, btype)
                h_rec = reconstruct_downlink(cfg, refine_gains(A, y_dl), estimates)
                out["downlink_recon"] = mse_linear(h_rec, h_dl)
            except RankDeficientError:
                out["flagged"] = 1

        y_p = add_noise(h_dl[baseline_pattern.rows], 1.0, rng)
        out["ls"] = mse_linear(ls_estimate(y_p, baseline_pattern, cfg), h_dl)
        out["lmmse"] = mse_linear(W @ y_p, h_dl)
        return out

    # a generator, so each SNR's LMMSE filter is built just before its trials;
    # the filter for covariance snr * R under unit noise is R's under noise 1/snr
    points = (
        (snr, lmmse_filter(baseline_pattern, cfg, base_cov, noise_variance=1.0 / snr))
        for snr in (10.0 ** (snr_db / 10.0) for snr_db in snr_list_db)
    )
    sweep = _sweep(points, trials, seed, threads, trial)
    curves, per_trial = _db_curves(names, sweep)
    flagged_per_snr = [sum(r["flagged"] for r in point) for point in sweep]
    return ExperimentReport(
        experiment="reconstruction",
        seed=seed,
        trials=trials,
        snr_db=list(snr_list_db),
        curves=curves,
        per_trial_db=per_trial,
        extras={"flagged_trials": flagged_per_snr, "beamforming": btype, "K": K},
        wall_clock_s=time.perf_counter() - t0,
    )
