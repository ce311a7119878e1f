# Scenario generation, noise injection, Monte-Carlo experiments, and the
# bound-comparison runs.  All experiments inject unit-variance noise per
# element and sweep SNR by scaling path gains; trial t of sweep point s draws
# its RNG from SeedSequence((seed, s, t)) so reports are bit-identical at any
# worker count.  Each trial returns a TrialRecord of named linear values and
# counts; _reduce pools a sweep's records per point into curves (dB of the
# mean of all values, None if there are none), per-trial dB lists and sums.
#
# Every run_* shares one skeleton: _snr_powers checks the SNR list and turns
# it into linear powers before any set-up uses them, _sweep checks trials,
# seed and the worker count before the first trial, and _run sweeps, reduces
# and builds the report.  A run_* keeps its checks that depend on the system,
# its set-up, its trial function and how its counts map to extras.
#
# Trials run on `threads` trial workers: this process and copies of it forked
# once per experiment run (a trial holds the GIL, so threads could not run two
# at once).  _map_trials owns the BLAS thread count: from the CLI as from the
# library, trials run numpy's bundled OpenBLAS on one thread.
from __future__ import annotations

import contextlib
import ctypes
import os
import pickle
import signal
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
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
from .nomp import NompConfig, ls_gain_single, nomp_extract

MSE_FLOOR_DB = -120.0


class InfeasibleSeparationError(ValueError):
    pass


class DimensionMismatchError(ValueError):
    pass


class TrialWorkerError(RuntimeError):
    """A forked trial worker ended without sending back its results."""


class TrialError(RuntimeError):
    """A trial raised: the message names its sweep point, trial, seed and error."""


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


ScenarioSpec = SparseTwoPath | Cluster | EqualPowerGrid


def _random_phase(rng: np.random.Generator) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))


def _spaced(rng: np.random.Generator, count: int, sep: float) -> np.ndarray:
    """count points on the unit circle, uniform among the placements whose
    wrapped pairwise distances are all at least sep (count*sep < 1): sorted
    uniforms on [0, 1 - count*sep) with sep*i added, rotated by a uniform and
    put in random order."""
    x = np.sort(rng.uniform(0.0, 1.0 - count * sep, size=count)) + sep * np.arange(count)
    return rng.permutation((x + rng.uniform()) % 1.0)


def _separations(cfg: SystemConfig, spec: EqualPowerGrid) -> Tuple[float, float]:
    mu, nu = spec.min_sep_mu, spec.min_sep_nu
    return (1.0 / cfg.N if mu is None else mu), (1.0 / cfg.M if nu is None else nu)


def check_scenario(cfg: SystemConfig, spec: ScenarioSpec) -> None:
    """Raise ValueError unless spec's paths fit the system cfg: a cluster's
    delay spread in one symbol, an equal-power grid's separations."""
    if isinstance(spec, Cluster) and spec.delay_spread_cells > cfg.N:
        raise ValueError(f"delay_spread_cells {spec.delay_spread_cells} exceeds the N = {cfg.N} delay cells")
    if isinstance(spec, EqualPowerGrid):
        sep_mu, sep_nu = _separations(cfg, spec)
        if spec.count * sep_mu >= 1.0 or spec.count * sep_nu >= 2 * cfg.d_over_lambda:
            raise InfeasibleSeparationError(
                f"{spec.count} paths cannot keep separations ({sep_mu}, {sep_nu}) on the visible torus"
            )


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
    check_scenario(cfg, spec)
    if not (finite_real(total_power) and total_power >= 0):
        raise ValueError(f"total_power must be a finite number >= 0, got {total_power!r}")

    d = cfg.d_over_lambda
    if isinstance(spec, SparseTwoPath):
        count = 2
        mus = rng.uniform(0.0, spec.delay_spread_fraction, size=count)
        nus = d * np.sin(rng.uniform(-np.pi / 2, np.pi / 2, size=count))
    elif isinstance(spec, Cluster):
        count = spec.paths
        half = np.deg2rad(spec.angular_spread_deg) / 2.0
        center = rng.uniform(-np.pi / 2 + half, np.pi / 2 - half)
        nus = d * np.sin(center + rng.uniform(-half, half, size=count))
        spread = spec.delay_spread_cells / cfg.N
        mus = rng.uniform(0.0, 1.0 - spread) + rng.uniform(0.0, spread, size=count)
    elif isinstance(spec, EqualPowerGrid):
        count = spec.count
        sep_mu, sep_nu = _separations(cfg, spec)
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
    curves: Dict[str, List[float | None]]  # mean MSE (dB) per SNR point; None: no values
    per_trial_db: Dict[str, List[List[float]]]  # per SNR point, per trial
    bounds: Dict[str, List[float | None]] = field(default_factory=dict)  # None: no bound
    extras: Dict[str, object] = field(default_factory=dict)
    wall_clock_s: float = 0.0


def _trial_worker(
    fn: Callable[[int], object], w: int, trials: int, workers: int, out: int, inherited: List[int]
) -> NoReturn:
    """Body of forked worker w: close the inherited pipe ends, run trials
    w, w + workers, ... and write the pickled (True, results) or (False,
    exception) to the pipe end `out`.  It always ends in os._exit, so it never
    unwinds into its caller's stack or flushes stdio buffers copied from the
    parent; what does not pickle ends it with status 1 and no reply."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
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


@contextlib.contextmanager
def _one_blas_thread():
    """Numpy's bundled OpenBLAS on one thread in the block, and the caller's count
    back after it, also after an exception; without the library, a warning."""
    found = sorted(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*.so"))
    try:
        if not found:
            raise OSError("numpy bundles no scipy_openblas64 library")
        blas = ctypes.CDLL(str(found[0]))
        before, set_count = blas.scipy_openblas_get_num_threads64_(), blas.scipy_openblas_set_num_threads64_
        set_count(1)
    except (OSError, AttributeError) as err:
        warnings.warn(f"BLAS thread count left as it is (set OPENBLAS_NUM_THREADS=1): {err}", RuntimeWarning)
        set_count = None
    try:
        yield
    finally:
        if set_count is not None:
            set_count(before)


def _map_trials(fn: Callable[[int], object], trials: int, threads: int) -> list:
    """[fn(t) for t in range(trials)] on workers = min(threads, trials) trial
    workers, at least one, job t on worker t % workers; _sweep calls it once per run.

    Worker 0 is this process.  Workers 1.. are forked here, so they inherit fn
    and the sweep points it closes over (neither pickles), and send back only
    their pickled results, or the exception they raised, through a pipe.
    Without os.fork worker 0 runs every trial.  All run under _one_blas_thread,
    as the workers keep the cores busy: OpenBLAS threads would oversubscribe them.
    """
    workers = max(1, min(threads, trials)) if hasattr(os, "fork") else 1
    with _one_blas_thread():
        pids: Dict[int, int] = {}  # worker -> pid, until reaped
        pipes: Dict[int, int] = {}  # worker -> read end of its pipe, until closed
        try:
            for w in range(1, workers):
                r, out = os.pipe()
                pipes[w] = r
                try:
                    pid = os.fork()
                    if pid == 0:  # the child ends inside _trial_worker
                        _trial_worker(fn, w, trials, workers, out, list(pipes.values()))
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


def _sweep(
    points: Iterable[object],
    trials: int,
    seed: int,
    threads: int,
    trial: Callable[[object, np.random.Generator], object],
) -> List[list]:
    """results[s][t] = trial(point_s, rng) with rng from SeedSequence((seed, s, t)).

    Integers trials, threads >= 1 and seed >= 0 are checked first, then every
    point is built; then one trial map runs every (point, trial) as job
    i = s * trials + t, so the workers fork once per run.  A trial's exception
    comes back as a TrialError naming it: a cause would not survive the pipe
    from a forked worker.
    """
    check_integer("trials", trials, 1)
    check_integer("seed", seed, 0)
    check_integer("threads", threads, 1)
    points = list(points)

    def job(i: int):
        s, t = divmod(i, trials)
        try:
            return trial(points[s], np.random.default_rng(np.random.SeedSequence((seed, s, t))))
        except Exception as err:
            raise TrialError(f"sweep point {s}, trial {t}, seed {seed}: {type(err).__name__}: {err}") from err

    results = _map_trials(job, len(points) * trials, threads)
    return [results[i : i + trials] for i in range(0, len(results), trials)]


@dataclass(frozen=True)
class TrialRecord:
    values: Dict[str, List[float]]  # linear values, pooled over a point's trials
    counts: Dict[str, int]  # summed over a point's trials


def _mean_db(values: Sequence[float]) -> float | None:
    return to_db(float(np.mean(values))) if values else None


def _reduce(sweep: Sequence[Sequence[TrialRecord]]) -> Tuple[dict, dict, dict]:
    """Per name, a list over points: curves, per-trial dB lists and counts."""
    first = sweep[0][0]
    curves = {n: [_mean_db([v for r in point for v in r.values[n]]) for point in sweep] for n in first.values}
    per_trial = {n: [[_mean_db(r.values[n]) for r in point if r.values[n]] for point in sweep] for n in first.values}
    counts = {n: [sum(r.counts[n] for r in point) for point in sweep] for n in first.counts}
    return curves, per_trial, counts


def _snr_powers(snr_db: Sequence[float]) -> List[float]:
    """The linear powers 10 ** (snr / 10) of a non-empty list of dB values.
    Raises ValueError for anything else, and for a power that overflows or
    underflows: one below the smallest normal float would make its noise
    variance 1 / power overflow."""
    prefix = f"snr_db must be a non-empty list of finite numbers, got {snr_db!r}"
    if not (isinstance(snr_db, (list, tuple)) and snr_db and all(finite_real(v) for v in snr_db)):
        raise ValueError(prefix)
    try:
        powers = [10.0 ** (snr / 10.0) for snr in snr_db]
    except OverflowError:
        raise ValueError(f"{prefix}: a power 10 ** (snr / 10) overflows") from None
    if min(powers) < sys.float_info.min:
        raise ValueError(f"{prefix}: a power 10 ** (snr / 10) underflows")
    return powers


def _run(
    experiment: str,
    snr_db: Sequence[float],
    points: Iterable[object],
    trials: int,
    seed: int,
    threads: int,
    trial: Callable[[object, np.random.Generator], TrialRecord],
    t0: float,
) -> Tuple[ExperimentReport, Dict[str, List[int]]]:
    """Sweep the points, reduce the records and build the run's report, its
    wall clock timed from t0.  Returns the report and the counts summed per
    point; the caller maps the counts into its extras."""
    curves, per_trial, counts = _reduce(_sweep(points, trials, seed, threads, trial))
    report = ExperimentReport(experiment, seed, trials, list(snr_db), curves, per_trial)
    report.wall_clock_s = time.perf_counter() - t0
    return report, counts


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
    nomp_cfg = nomp_cfg or NompConfig(gamma1=2, gamma2=2)
    scenario = scenario or EqualPowerGrid()
    if not isinstance(scenario, EqualPowerGrid):
        raise ValueError("crb experiment requires an equal_power_grid scenario")
    check_scenario(cfg, scenario)
    radius_mu = 0.5 / (nomp_cfg.gamma1 * cfg.N)
    radius_nu = 0.5 / (nomp_cfg.gamma2 * cfg.M)

    snr_list = _snr_powers(snr_list_db)
    bounds = [crb(cfg.M, cfg.N, snr) for snr in snr_list]

    def trial(snr: float, rng: np.random.Generator) -> TrialRecord:
        truth = generate_scenario(cfg, scenario, rng, total_power=snr * scenario.count)
        y = add_noise(synthesize_uplink(cfg, truth), 1.0, rng)
        res = nomp_extract(y, cfg, nomp_cfg)
        matches = match_paths(truth, res.paths, radius_mu, radius_nu)
        t = np.array([(truth[i].mu, truth[i].nu) for i, _ in matches]).reshape(-1, 2)
        e = np.array([(res.paths[j].mu, res.paths[j].nu) for _, j in matches]).reshape(-1, 2)
        sq_mu, sq_nu = (wrapped_dists(t, e) ** 2 * (cfg.N**2, cfg.M**2)).T.tolist()  # N^2 dmu^2, M^2 dnu^2
        missed, fakes = len(truth) - len(matches), len(res.paths) - len(matches)
        return TrialRecord({"eps_mu_db": sq_mu, "eps_nu_db": sq_nu}, {"missed": missed, "fakes": fakes})

    report, counts = _run("crb", snr_list_db, snr_list, trials, seed, threads, trial, t0)
    # a coordinate sampled once has no bound: None, like a curve point without values
    report.bounds = {
        name: [to_db(b) if np.isfinite(b) else None for b in column]
        for name, column in zip(("bound_mu_db", "bound_nu_db"), zip(*bounds))
    }
    report.extras = {
        "missed_rate": [m / (trials * scenario.count) for m in counts["missed"]], "false_alarms": counts["fakes"]
    }
    return report


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
    """Empirical fake-detection rate of the false-alarm stopping rule at p_fa
    on pure unit-variance noise.  The rate comes from p_fa alone: a nomp_cfg
    with a p_fa of its own is rejected."""
    t0 = time.perf_counter()
    if p_fa is None:
        raise ValueError("p_fa must be a number in (0, 1), got None")
    if nomp_cfg is not None and nomp_cfg.p_fa is not None:
        raise ValueError(f"the false-alarm experiment takes its rate from p_fa, not nomp p_fa = {nomp_cfg.p_fa!r}")
    nomp_cfg = replace(nomp_cfg or NompConfig(gamma1=2, gamma2=2), p_fa=p_fa)

    def trial(_, rng: np.random.Generator) -> TrialRecord:
        noise = add_noise(np.zeros((cfg.N, cfg.M), dtype=complex), 1.0, rng)
        return TrialRecord({}, {"fakes": 1 if nomp_extract(noise, cfg, nomp_cfg).paths else 0})

    report, counts = _run("false-alarm", [], [None], trials, seed, threads, trial, t0)
    fakes = counts["fakes"][0]
    report.extras = {"p_fa": p_fa, "empirical_rate": fakes / trials, "fake_detections": fakes}
    return report


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
    error delta_tau with |delta_F * delta_tau| in the given range, which needs
    a nonzero delta_F.  The error's sign is drawn, and flipped where the drawn
    one would take the delay out of [0, 1/delta_f); so the range's largest
    |delta_f * delta_tau| must stay below 1/2."""
    if cfg.delta_F == 0:
        raise ValueError("the phase-error experiment needs a nonzero delta_F")
    lo, hi = offset_delay_product_range
    if not cfg.delta_f * np.max(np.abs(offset_delay_product_range)) < abs(cfg.delta_F) / 2:  # NaN fails too
        raise ValueError(f"offset_delay_product_range {offset_delay_product_range} reaches |delta_f*delta_tau| >= 1/2")
    t0 = time.perf_counter()
    power = _snr_powers([snr_db])
    pattern = PilotPattern.from_config(cfg)

    def trial(snr: float, rng: np.random.Generator) -> TrialRecord:
        # the scenario splits total_power over its two paths: the kept one carries snr
        path = generate_scenario(cfg, SparseTwoPath(), rng, total_power=2 * snr)[0]
        delta_mu = cfg.delta_f * (rng.uniform(lo, hi) / cfg.delta_F * rng.choice([-1.0, 1.0]))
        # mu of the erroneous delay, kept in [0, 1) by the sign of its error
        mu_hat = path.mu + delta_mu
        if not 0.0 <= mu_hat < 1.0:
            mu_hat = path.mu - delta_mu

        h_ul = synthesize_uplink(cfg, [path])
        h_dl = synthesize_downlink(cfg, [path])

        # direct inference: uplink LS gain at the erroneous delay, reused downlink
        estimate = NormalizedPath(ls_gain_single(cfg, h_ul, mu_hat, path.nu), mu_hat, path.nu)
        h_direct = synthesize_downlink(cfg, [estimate])

        # refined: downlink beamformed pilots, LS gain re-fit
        y_dl = simulate_downlink_pilots(cfg, pattern, [path], [estimate], "type1", 1.0, rng)
        A = build_coefficient_matrix(cfg, pattern, [estimate], "type1")
        h_refined = reconstruct_downlink(cfg, refine_gains(A, y_dl), [estimate])

        direct, refined = mse_linear(h_direct, h_dl), mse_linear(h_refined, h_dl)
        values = {"direct_inference": [direct], "refined_reconstruction": [refined]}
        return TrialRecord(values, {"wins": int(refined < direct)})

    report, counts = _run("phase-error", [snr_db], power, trials, seed, threads, trial, t0)
    report.extras = {"refined_win_fraction": counts["wins"][0] / trials}
    return report


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
    snr_list_db: Sequence[float],
    trials: int,
    seed: int = 0,
    nomp_cfg: NompConfig | None = None,
    threads: int = 1,
) -> ExperimentReport:
    """Per trial: uplink sounding + pursuit, downlink gain refinement (pilot
    stride cfg.K) and reconstruction, direct out-of-band inference, and the LS /
    genie-LMMSE downlink baselines (pilot stride 4), scored on the true channels."""
    t0 = time.perf_counter()
    nomp_cfg = nomp_cfg or NompConfig()
    if btype not in ("type1", "type2"):
        raise ValueError(f"beamforming must be 'type1' or 'type2', got {btype!r}")
    if cfg.N < 4:
        raise ValueError(f"the LS and LMMSE baselines take every fourth subcarrier and need N >= 4, got N = {cfg.N}")
    refine_pattern = PilotPattern.from_config(cfg)
    baseline_pattern = PilotPattern.from_config(cfg, 4)
    check_scenario(cfg, scenario)
    snrs = _snr_powers(snr_list_db)
    base_cov = genie_covariance(cfg, scenario)

    def trial(point: Tuple[float, np.ndarray], rng: np.random.Generator) -> TrialRecord:
        snr, W = point
        paths = generate_scenario(cfg, scenario, rng, total_power=snr)
        h_ul = synthesize_uplink(cfg, paths)
        h_dl = synthesize_downlink(cfg, paths)
        detected = nomp_extract(add_noise(h_ul, 1.0, rng), cfg, nomp_cfg).paths

        # without detections, or when flagged, the reconstruction is zero
        h_rec, flagged = np.zeros_like(h_dl), 0
        if detected:
            try:
                y_dl = simulate_downlink_pilots(cfg, refine_pattern, paths, detected, btype, 1.0, rng)
                A = build_coefficient_matrix(cfg, refine_pattern, detected, btype)
                h_rec = reconstruct_downlink(cfg, refine_gains(A, y_dl), detected)
            except RankDeficientError:
                flagged = 1

        y_p = add_noise(h_dl[baseline_pattern.rows], 1.0, rng)
        mse = {
            "ls": mse_linear(ls_estimate(y_p, baseline_pattern, cfg), h_dl),
            "lmmse": mse_linear(W @ y_p, h_dl),
            "uplink_recon": mse_linear(synthesize_from_normalized(cfg, detected), h_ul),
            "downlink_recon": mse_linear(h_rec, h_dl),
            "direct_inference": mse_linear(synthesize_downlink(cfg, detected), h_dl),  # uplink gains
        }
        return TrialRecord({name: [v] for name, v in mse.items()}, {"flagged": flagged})

    # the filter for covariance snr * R under unit noise is R's under noise 1/snr
    points = [(snr, lmmse_filter(baseline_pattern, cfg, base_cov, noise_variance=1.0 / snr)) for snr in snrs]
    report, counts = _run("reconstruction", snr_list_db, points, trials, seed, threads, trial, t0)
    report.extras = {"flagged_trials": counts["flagged"], "beamforming": btype, "K": cfg.K}
    return report
