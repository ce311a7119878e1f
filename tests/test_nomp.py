import contextlib
import re
import signal
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdd_recon import (
    NormalizedPath,
    SystemConfig,
    atom,
    synthesize_from_normalized,
)
from fdd_recon import model, nomp
from fdd_recon.config import wrapped_dists
from fdd_recon.model import ramp_matrices
from fdd_recon.nomp import (
    MAX_ITERATIONS_PER_PATH,
    NompConfig,
    RankDeficientError,
    coarse_detect,
    cyclic_refine,
    false_alarm_threshold,
    grid_power,
    ls_gain_single,
    newton_refine,
    nomp_extract,
    stopping_power,
    update_all_gains,
)
from oracles import grad_hess, objective_S, stopping_false_alarm


def fit_energy(cfg, y, paths):
    """Energy of y less the paths' channel: what the paths leave unexplained."""
    r = y - synthesize_from_normalized(cfg, paths)
    return float(np.vdot(r, r).real)


def record_residuals(monkeypatch):
    """Copies of the residuals nomp_extract hands its stopping rule.  It asks
    the rule first in every iteration, so the last is its final residual."""
    seen = []
    rule = nomp._stopping_fires

    def spy(cfg, residual, power, nomp_cfg):
        seen.append(residual.copy())
        return rule(cfg, residual, power, nomp_cfg)

    monkeypatch.setattr(nomp, "_stopping_fires", spy)
    return seen


def make_noise(cfg, rng, variance=1.0):
    s = np.sqrt(variance / 2)
    return s * (rng.standard_normal((cfg.N, cfg.M)) + 1j * rng.standard_normal((cfg.N, cfg.M)))


@contextlib.contextmanager
def time_limit(seconds):
    """Fail with TimeoutError instead of hanging (SIGALRM, main thread only)."""

    def fail(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, fail)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def ramps_of(cfg, paths):
    """The paths' ramp matrices (D, A), as update_all_gains takes them."""
    return ramp_matrices(cfg, [p.mu for p in paths], [p.nu for p in paths])


def factors_of(cfg, paths):
    """Each path's [delay ramp, steering ramp], as cyclic_refine takes them."""
    D, A = ramps_of(cfg, paths)
    return [[d, a] for d, a in zip(D.T, A.T)]


def refine(cfg, y, start, rounds):
    """cyclic_refine on copies of start against y less their channel: the
    refined paths and the residual it leaves."""
    paths = [NormalizedPath(p.gain, p.mu, p.nu) for p in start]
    residual = y - synthesize_from_normalized(cfg, start)
    cyclic_refine(cfg, residual, paths, factors_of(cfg, start), rounds)
    return paths, residual


def newton_args(cfg, mu, nu):
    """newton_refine's factors and kernel at (mu, nu)."""
    return list(ramp_matrices(cfg, mu, nu)), nomp._kernel(cfg)


# Dense reference for the Newton kernel: the formulas with Kronecker atoms and
# index ramps over all MN entries that the moment form replaced.  Entry
# n * M + m of a Kronecker product is entry (n, m) of the N x M grid.


def dense_atom(cfg, mu, nu):
    return np.kron(*ramp_matrices(cfg, mu, nu)).reshape(cfg.N, cfg.M)


def dense_index_ramps(cfg):
    n = np.kron(cfg.subcarrier_indices, np.ones(cfg.M)).reshape(cfg.N, cfg.M)
    m = np.kron(np.ones(cfg.N), cfg.antenna_indices).reshape(cfg.N, cfg.M)
    return 2 * np.pi * n, 2 * np.pi * m


def atom_columns(cfg, paths):
    """Each path's atom, read row by row, as a column of an MN x L matrix."""
    return np.column_stack([atom(cfg, p.mu, p.nu).ravel() for p in paths])


def dense_objective(cfg, r, g, mu, nu):
    return float(2.0 * np.real(np.vdot(r, g * dense_atom(cfg, mu, nu))) - abs(g) ** 2 * cfg.size)


def dense_grad_hess(cfg, r, g, mu, nu):
    wn, wm = dense_index_ramps(cfg)
    u = dense_atom(cfg, mu, nu)
    du_mu, du_nu = 1j * wn * u, 1j * wm * u
    e = r - g * u
    grad = np.array([2.0 * np.real(g * np.vdot(e, du_mu)), 2.0 * np.real(g * np.vdot(e, du_nu))])
    g2 = abs(g) ** 2
    h_mm = 2.0 * np.real(g * np.vdot(e, -(wn**2) * u) - g2 * np.vdot(du_mu, du_mu))
    h_mn = 2.0 * np.real(g * np.vdot(e, -(wn * wm) * u) - g2 * np.vdot(du_nu, du_mu))
    h_nn = 2.0 * np.real(g * np.vdot(e, -(wm**2) * u) - g2 * np.vdot(du_nu, du_nu))
    return grad, np.array([[h_mm, h_mn], [h_mn, h_nn]])


def dense_newton(cfg, r, g, mu, nu):
    grad, hess = dense_grad_hess(cfg, r, g, mu, nu)
    # a single subcarrier (antenna) carries no delay (angle) information, so
    # the step is taken on the remaining coordinates only, where S is concave
    axes = [k for k, size in enumerate((cfg.N, cfg.M)) if size > 1]
    sub = hess[np.ix_(axes, axes)]
    if not axes or np.linalg.eigvalsh(sub).max() >= 0.0:
        return g, mu, nu, False
    step = np.zeros(2)
    step[axes] = np.linalg.solve(sub, grad[axes])
    mu_new, nu_new = float(np.mod(mu - step[0], 1.0)), float(np.mod(nu - step[1], 1.0))
    g_new = complex(np.vdot(dense_atom(cfg, mu_new, nu_new), r) / cfg.size)
    if dense_objective(cfg, r, g_new, mu_new, nu_new) < dense_objective(cfg, r, g, mu, nu):
        return g, mu, nu, False
    return g_new, mu_new, nu_new, True


def held_out(cfg, r, g, mu, nu):
    """The residual r with the path (g, mu, nu) taken out: newton_refine's input."""
    return r - g * dense_atom(cfg, mu, nu)


def dense_cyclic(cfg, y, paths, rounds):
    paths = [NormalizedPath(p.gain, p.mu, p.nu) for p in paths]
    residual = y - sum(p.gain * dense_atom(cfg, p.mu, p.nu) for p in paths)
    for _ in range(rounds):
        for p in paths:
            r_plus = residual + p.gain * dense_atom(cfg, p.mu, p.nu)
            p.gain, p.mu, p.nu, _ = dense_newton(cfg, r_plus, p.gain, p.mu, p.nu)
            residual = r_plus - p.gain * dense_atom(cfg, p.mu, p.nu)
    return paths


def separated_paths(cfg, L, rng, gain=0.0):
    """L random paths, each pair at least 1.5 cells apart in mu or in nu; an
    axis with a single index separates nothing."""
    paths = []
    while len(paths) < L:
        mu, nu = rng.uniform(), rng.uniform()
        if all(
            (cfg.N > 1 and wrapped_dists(mu, p.mu) >= 1.5 / cfg.N)
            or (cfg.M > 1 and wrapped_dists(nu, p.nu) >= 1.5 / cfg.M)
            for p in paths
        ):
            paths.append(NormalizedPath(gain, mu, nu))
    return paths


def assert_close_rel(x, ref, rel=1e-9):
    assert np.linalg.norm(np.subtract(x, ref)) <= rel * np.linalg.norm(ref)


def assert_same_path(got, ref, rel=1e-9):
    g, mu, nu = got
    g_ref, mu_ref, nu_ref = ref
    assert abs(g - g_ref) <= rel * abs(g_ref)
    assert wrapped_dists(mu, mu_ref) <= rel
    assert wrapped_dists(nu, nu_ref) <= rel


# odd and even sizes, and the single-antenna case
ORACLE_SIZES = [(1, 8), (1, 7), (3, 5), (4, 8), (5, 6), (8, 3), (6, 16)]


def near_path_residual(cfg, rng, noise=0.3):
    """A residual holding one path plus noise, and a Newton start near it."""
    g0 = complex(2.0 * np.exp(2j * np.pi * rng.uniform()))
    mu0, nu0 = rng.uniform(), rng.uniform()
    r = g0 * dense_atom(cfg, mu0, nu0) + make_noise(cfg, rng, noise)
    mu = float(np.mod(mu0 + rng.uniform(-0.2, 0.2) / cfg.N, 1.0))
    nu = float(np.mod(nu0 + rng.uniform(-0.2, 0.2) / cfg.M, 1.0))
    g = complex(np.vdot(dense_atom(cfg, mu, nu), r) / cfg.size)
    return r, g, mu, nu


class TestDenseOracle:
    @pytest.mark.parametrize("M,N", ORACLE_SIZES)
    @pytest.mark.parametrize("seed", range(3))
    def test_grad_hess_on_random_residuals(self, M, N, seed):
        cfg = SystemConfig(M=M, N=N)
        rng = np.random.default_rng(seed)
        r = make_noise(cfg, rng)
        g = complex(rng.standard_normal() + 1j * rng.standard_normal())
        mu, nu = rng.uniform(), rng.uniform()
        grad, hess = grad_hess(cfg, r, g, mu, nu)
        grad_ref, hess_ref = dense_grad_hess(cfg, r, g, mu, nu)
        assert_close_rel(grad, grad_ref)
        assert_close_rel(hess, hess_ref)

    @pytest.mark.parametrize("M,N", ORACLE_SIZES + [(4, 1), (5, 1), (1, 1)])
    @pytest.mark.parametrize("seed", range(3))
    def test_newton_refine_values_and_flag(self, M, N, seed):
        cfg = SystemConfig(M=M, N=N)
        r, g, mu, nu = near_path_residual(cfg, np.random.default_rng(seed))
        *got, applied = newton_refine(cfg, held_out(cfg, r, g, mu, nu), g, mu, nu, *newton_args(cfg, mu, nu))
        *ref, applied_ref = dense_newton(cfg, r, g, mu, nu)
        assert applied == applied_ref
        # near a path the step is taken, on one coordinate alone when the other
        # axis has a single index, and not at all when both have
        assert applied == (M * N > 1)
        assert_same_path(got, ref)

    @pytest.mark.parametrize("M,N", ORACLE_SIZES)
    def test_concavity_guard_rejects_like_the_reference(self, M, N):
        # at the true parameters with the gain's sign flipped, S has a local
        # minimum: the Hessian is positive (semi-)definite and the guard rejects
        cfg = SystemConfig(M=M, N=N)
        g0, mu0, nu0 = 1.5 - 0.5j, 0.23, 0.71
        r = g0 * dense_atom(cfg, mu0, nu0)
        _, hess = dense_grad_hess(cfg, r, -g0, mu0, nu0)
        assert hess[0, 0] > 0.0
        got = newton_refine(cfg, held_out(cfg, r, -g0, mu0, nu0), -g0, mu0, nu0, *newton_args(cfg, mu0, nu0))
        assert got == dense_newton(cfg, r, -g0, mu0, nu0)
        assert got == (-g0, mu0, nu0, False)

    @pytest.mark.parametrize("M,N", ORACLE_SIZES)
    @pytest.mark.parametrize("seed", range(2))
    def test_cyclic_refine_on_random_residuals(self, M, N, seed):
        cfg = SystemConfig(M=M, N=N)
        rng = np.random.default_rng(seed)
        truth = [
            NormalizedPath(complex(2.0 * np.exp(2j * np.pi * rng.uniform())), rng.uniform(), rng.uniform())
            for _ in range(3)
        ]
        y = sum(p.gain * dense_atom(cfg, p.mu, p.nu) for p in truth) + make_noise(cfg, rng, 0.3)
        start = [
            NormalizedPath(
                p.gain * 0.9,
                float(np.mod(p.mu + rng.uniform(-0.2, 0.2) / cfg.N, 1.0)),
                float(np.mod(p.nu + rng.uniform(-0.2, 0.2) / cfg.M, 1.0)),
            )
            for p in truth
        ]
        out, residual = refine(cfg, y, start, 3)
        ref = dense_cyclic(cfg, y, start, rounds=3)
        for a, b in zip(out, ref):
            assert_same_path((a.gain, a.mu, a.nu), (b.gain, b.mu, b.nu))
        # the residual updated in place is y less the refined paths' channel
        assert_close_rel(residual, y - synthesize_from_normalized(cfg, out))


class TestHeldOutKernel:
    @pytest.mark.parametrize("M,N", [(1, 1), (1, 8), (7, 1), (3, 5), (4, 8), (32, 128)])
    @pytest.mark.parametrize("seed", range(3))
    def test_moments_of_the_target_in_closed_form(self, M, N, seed):
        # |u| = 1, so putting the path g d a^T back adds conj(g) P to the moments
        cfg = SystemConfig(M=M, N=N)
        rng = np.random.default_rng(seed)
        r = make_noise(cfg, rng)
        g = complex(rng.standard_normal() + 1j * rng.standard_normal())
        d, a = ramp_matrices(cfg, rng.uniform(), rng.uniform())
        k = nomp._kernel(cfg)
        n, m = 2 * np.pi * cfg.subcarrier_indices, 2 * np.pi * cfg.antenna_indices
        p = np.array([[np.sum(n**j) * np.sum(m**i) for i in range(3)] for j in range(3)])
        np.testing.assert_allclose(k.p, p, rtol=1e-14)
        target = nomp._moments(k, r + g * np.outer(d, a), d, a)
        assert_close_rel(nomp._moments(k, r, d, a) + np.conj(g) * k.p, target, rel=1e-12)

    def test_fifteen_paths_at_full_size_follow_the_dense_reference(self, monkeypatch):
        # many accepted steps, each one rank-two update of the held-out residual
        cfg = SystemConfig(M=32, N=128)
        rng = np.random.default_rng(3)
        truth = [
            NormalizedPath(complex(3.0 * np.exp(2j * np.pi * rng.uniform())), p.mu, p.nu)
            for p in separated_paths(cfg, 15, rng)
        ]
        y = sum(p.gain * dense_atom(cfg, p.mu, p.nu) for p in truth) + make_noise(cfg, rng)
        start = [
            NormalizedPath(
                p.gain * 0.9,
                float(np.mod(p.mu + rng.uniform(-0.3, 0.3) / cfg.N, 1.0)),
                float(np.mod(p.nu + rng.uniform(-0.3, 0.3) / cfg.M, 1.0)),
            )
            for p in truth
        ]
        accepted = Counter()

        def counted(*args, **kwargs):
            result = newton_refine(*args, **kwargs)
            accepted[result[3]] += 1
            return result

        monkeypatch.setattr(nomp, "newton_refine", counted)
        out, residual = refine(cfg, y, start, 3)
        assert accepted[True] >= 40 and sum(accepted.values()) == 45
        for a, b in zip(out, dense_cyclic(cfg, y, start, rounds=3)):
            assert_same_path((a.gain, a.mu, a.nu), (b.gain, b.mu, b.nu))
        assert_close_rel(residual, y - synthesize_from_normalized(cfg, out))

    @pytest.mark.parametrize("M,N", [(1, 8), (4, 1), (4, 8), (8, 16)])
    def test_guard_rejected_steps_leave_the_paths_and_residual_alone(self, M, N, monkeypatch):
        # each path's gain is the negative of its true gain, so every step
        # sees a local minimum of S and the guard rejects it
        cfg = SystemConfig(M=M, N=N)
        truth = [NormalizedPath(1.5 - 0.5j, 1 / 8, 1 / 4), NormalizedPath(-0.8j, 5 / 8, 3 / 4)]
        y = synthesize_from_normalized(cfg, truth)
        start = [NormalizedPath(-p.gain, p.mu, p.nu) for p in truth]
        seen = []

        def spy(cfg, residual, *args, **kwargs):
            seen.append(np.array(residual))
            result = newton_refine(cfg, residual, *args, **kwargs)
            assert not result[3]
            return result

        monkeypatch.setattr(nomp, "newton_refine", spy)
        out, residual = refine(cfg, y, start, 2)
        assert [(p.gain, p.mu, p.nu) for p in out] == [(p.gain, p.mu, p.nu) for p in start]
        assert len(seen) == 4
        for r in seen[1:] + [residual]:
            np.testing.assert_array_equal(r, seen[0])


class TestConfigValidation:
    @pytest.mark.parametrize("rule", ["false_alarm", "power"])
    @pytest.mark.parametrize("p_fa", ["abc", True, float("inf"), float("nan"), 0.0, 1.0, [0.01], "0.1", 0, 1])
    def test_p_fa_must_be_a_number_in_unit_interval(self, rule, p_fa):
        # a bad rate is rejected whether it replaces a false-alarm rate or the power rule's None
        start = NompConfig(p_fa=0.01 if rule == "false_alarm" else None)
        with pytest.raises(ValueError, match=re.escape("p_fa must be a number in (0, 1) or null")):
            replace(start, p_fa=p_fa)

    @pytest.mark.parametrize("field", ["gamma1", "gamma2", "cyclic_refine_rounds", "max_paths"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, "2", np.float64(3.0)])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            NompConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("gamma1", 0), ("gamma2", -1), ("cyclic_refine_rounds", -1), ("max_paths", 0)],
    )
    def test_counts_below_their_minimum_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= "):
            NompConfig(**{field: value})

    def test_integer_counts_accepted(self):
        nc = NompConfig(gamma1=np.int64(1), gamma2=3, cyclic_refine_rounds=0, max_paths=None)
        assert nc.resolve_max_paths(SystemConfig(M=4, N=8)) == 8
        assert NompConfig(max_paths=np.int32(2)).resolve_max_paths(SystemConfig(M=4, N=8)) == 2


class TestObjective:
    def test_zero_gain(self):
        cfg = SystemConfig(M=2, N=4)
        r = np.arange(8).reshape(4, 2) + 1j
        assert objective_S(cfg, r, 0.0, 0.1, 0.2) == 0.0

    def test_matched_residual(self):
        cfg = SystemConfig(M=2, N=4)
        g = 1.5 - 0.5j
        r = g * atom(cfg, 0.3, 0.6)
        assert objective_S(cfg, r, g, 0.3, 0.6) == pytest.approx(abs(g) ** 2 * cfg.size)

    def test_matches_power_reduction_identity(self):
        cfg = SystemConfig(M=3, N=5)
        rng = np.random.default_rng(7)
        r = make_noise(cfg, rng)
        g = 0.4 + 0.9j
        u = atom(cfg, 0.17, 0.83)
        expected = np.vdot(r, r).real - np.vdot(r - g * u, r - g * u).real
        assert objective_S(cfg, r, g, 0.17, 0.83) == pytest.approx(expected, rel=1e-10)


class TestCoarseDetect:
    def test_on_grid_peak(self):
        cfg = SystemConfig(M=4, N=8)
        nc = NompConfig(gamma1=2, gamma2=2)
        mu0, nu0 = 3 / 16, 5 / 8
        mu, nu, score = coarse_detect(grid_power(cfg, atom(cfg, mu0, nu0), nc))
        assert (mu, nu) == (mu0, nu0)
        assert score == pytest.approx(cfg.size, rel=1e-9)

    def test_zero_residual_tie_breaks_to_origin(self):
        cfg = SystemConfig(M=4, N=8)
        nc = NompConfig(gamma1=2, gamma2=2)
        mu, nu, score = coarse_detect(grid_power(cfg, np.zeros((cfg.N, cfg.M), dtype=complex), nc))
        assert (mu, nu, score) == (0.0, 0.0, 0.0)

    def test_off_grid_path_hits_nearest_cell(self):
        cfg = SystemConfig(M=4, N=8)
        nc = NompConfig(gamma1=2, gamma2=2)
        mu0, nu0 = 0.1306, 0.37
        mu, nu, _ = coarse_detect(grid_power(cfg, atom(cfg, mu0, nu0), nc))
        assert abs(mu - mu0) <= 1 / (2 * 2 * cfg.N)
        assert abs(nu - nu0) <= 1 / (2 * 2 * cfg.M)

    def test_fft_matches_direct_evaluation(self):
        cfg = SystemConfig(M=3, N=5)
        nc = NompConfig(gamma1=2, gamma2=4)
        rng = np.random.default_rng(3)
        r = make_noise(cfg, rng)
        best = None
        for k1 in range(nc.gamma1 * cfg.N):
            for k2 in range(nc.gamma2 * cfg.M):
                mu, nu = k1 / (nc.gamma1 * cfg.N), k2 / (nc.gamma2 * cfg.M)
                s = abs(np.vdot(atom(cfg, mu, nu), r)) ** 2 / cfg.size
                if best is None or s > best[2]:
                    best = (mu, nu, s)
        mu, nu, score = coarse_detect(grid_power(cfg, r, nc))
        assert (mu, nu) == (best[0], best[1])
        assert score == pytest.approx(best[2], rel=1e-9)

    @pytest.mark.parametrize("gammas", [(1, 1), (2, 2), (2, 4), (3, 1)])
    @pytest.mark.parametrize("M,N", [(3, 5), (4, 8), (5, 6), (2, 7)])
    def test_base_grid_bins_are_the_unpadded_dft(self, gammas, M, N):
        # every (gamma1, gamma2)-th bin of the over-sampled power is the N x M
        # DFT's power, which the false-alarm rule reads
        cfg = SystemConfig(M=M, N=N)
        nc = NompConfig(gamma1=gammas[0], gamma2=gammas[1])
        r = make_noise(cfg, np.random.default_rng(M * 10 + N))
        power = grid_power(cfg, r, nc)
        assert power.shape == (gammas[0] * N, gammas[1] * M)
        base = np.abs(np.fft.fft2(r)) ** 2 / cfg.size
        np.testing.assert_allclose(power[:: gammas[0], :: gammas[1]], base, rtol=1e-12, atol=1e-12 * base.max())


class TestLsGainSingle:
    def test_scaled_atom(self):
        cfg = SystemConfig(M=2, N=4)
        r = 3.5 * atom(cfg, 0.2, 0.7)
        assert ls_gain_single(cfg, r, 0.2, 0.7) == pytest.approx(3.5)

    def test_orthogonal_residual(self):
        cfg = SystemConfig(M=4, N=8)
        r = atom(cfg, 1 / 8, 1 / 4)
        assert abs(ls_gain_single(cfg, r, 3 / 8, 1 / 4)) <= 1e-9

    def test_minimizes_residual_power(self):
        cfg = SystemConfig(M=3, N=4)
        rng = np.random.default_rng(11)
        r = make_noise(cfg, rng)
        u = atom(cfg, 0.31, 0.64)
        g = ls_gain_single(cfg, r, 0.31, 0.64)
        base = np.linalg.norm(r - g * u) ** 2
        for dg in (0.01, -0.01, 0.01j, -0.01j, 0.005 + 0.005j):
            assert np.linalg.norm(r - (g + dg) * u) ** 2 >= base


class TestNewtonRefine:
    def test_stationary_point_unchanged(self):
        cfg = SystemConfig(M=4, N=8)
        g0, mu0, nu0 = 1.2 - 0.4j, 0.27, 0.61
        # the residual with the path held out is zero
        zero = np.zeros((cfg.N, cfg.M), dtype=complex)
        g, mu, nu, _ = newton_refine(cfg, zero, g0, mu0, nu0, *newton_args(cfg, mu0, nu0))
        assert abs(mu - mu0) <= 1e-12
        assert abs(nu - nu0) <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_derivatives_match_finite_differences(self, seed):
        cfg = SystemConfig(M=4, N=8)
        rng = np.random.default_rng(seed)
        r = make_noise(cfg, rng)
        g = complex(rng.standard_normal() + 1j * rng.standard_normal())
        mu, nu = rng.uniform(), rng.uniform()
        grad, hess = grad_hess(cfg, r, g, mu, nu)

        h = 1e-6

        def S(m, n):
            return objective_S(cfg, r, g, m, n)

        fd_grad = np.array(
            [(S(mu + h, nu) - S(mu - h, nu)) / (2 * h), (S(mu, nu + h) - S(mu, nu - h)) / (2 * h)]
        )
        fd_hess = np.array(
            [
                [
                    (S(mu + h, nu) - 2 * S(mu, nu) + S(mu - h, nu)) / h**2,
                    (S(mu + h, nu + h) - S(mu + h, nu - h) - S(mu - h, nu + h) + S(mu - h, nu - h))
                    / (4 * h**2),
                ],
                [0.0, (S(mu, nu + h) - 2 * S(mu, nu) + S(mu, nu - h)) / h**2],
            ]
        )
        fd_hess[1, 0] = fd_hess[0, 1]
        np.testing.assert_allclose(grad, fd_grad, rtol=1e-4, atol=1e-4 * np.abs(grad).max())
        np.testing.assert_allclose(hess, fd_hess, rtol=1e-4, atol=1e-4 * np.abs(hess).max())

    def test_noiseless_convergence_from_grid(self):
        cfg = SystemConfig(M=32, N=128)
        truth = NormalizedPath(2.0 + 1j, 0.1306, 0.37)
        y = synthesize_from_normalized(cfg, [truth])
        g1n, g2m = 2 * cfg.N, 2 * cfg.M
        mu = round(truth.mu * g1n) / g1n
        nu = round(truth.nu * g2m) / g2m
        g = ls_gain_single(cfg, y, mu, nu)
        # the gain used in each step lags one LS re-fit behind, so convergence
        # is geometric rather than quadratic; five accepted steps suffice
        accepted = 0
        while accepted < 5:
            g, mu, nu, ok = newton_refine(cfg, held_out(cfg, y, g, mu, nu), g, mu, nu, *newton_args(cfg, mu, nu))
            assert ok
            accepted += 1
        assert abs(mu - truth.mu) <= 1e-8 / cfg.N
        assert abs(nu - truth.nu) <= 1e-8 / cfg.M

    def test_single_antenna_recovers_mu(self):
        # one antenna: the Hessian's nu row is zero, the step is on mu alone
        cfg = SystemConfig(M=1, N=64)
        truth = NormalizedPath(1.5 - 0.5j, 0.1234, 0.0)
        y = synthesize_from_normalized(cfg, [truth])
        g0 = ls_gain_single(cfg, y, 0.125, 0.0)
        r = held_out(cfg, y, g0, 0.125, 0.0)
        g, mu, nu, ok = newton_refine(cfg, r, g0, 0.125, 0.0, *newton_args(cfg, 0.125, 0.0))
        assert ok and nu == 0.0
        assert abs(mu - truth.mu) < abs(0.125 - truth.mu)
        res = nomp_extract(y, cfg, NompConfig())
        assert len(res.paths) == 1
        assert abs(res.paths[0].mu - truth.mu) <= 1e-6

    def test_single_subcarrier_recovers_nu(self):
        # one subcarrier: the Hessian's mu row is zero, the step is on nu alone
        cfg = SystemConfig(M=16, N=1)
        truth = NormalizedPath(1.5 - 0.5j, 0.0, 0.377)
        y = synthesize_from_normalized(cfg, [truth])
        g0 = ls_gain_single(cfg, y, 0.0, 0.375)
        r = held_out(cfg, y, g0, 0.0, 0.375)
        g, mu, nu, ok = newton_refine(cfg, r, g0, 0.0, 0.375, *newton_args(cfg, 0.0, 0.375))
        assert ok and mu == 0.0
        assert abs(nu - truth.nu) < abs(0.375 - truth.nu)
        res = nomp_extract(y, cfg, NompConfig())
        assert len(res.paths) == 1
        assert abs(res.paths[0].nu - truth.nu) <= 1e-6

    def test_single_antenna_and_subcarrier_rejects(self):
        # M = N = 1: neither coordinate carries information, so no step is taken
        cfg = SystemConfig(M=1, N=1)
        y = np.array([[1.0 + 2.0j]])
        g0 = ls_gain_single(cfg, y, 0.0, 0.0)
        r = held_out(cfg, y, g0, 0.0, 0.0)
        assert newton_refine(cfg, r, g0, 0.0, 0.0, *newton_args(cfg, 0.0, 0.0)) == (g0, 0.0, 0.0, False)

    def test_guard_rejects_indefinite_hessian(self):
        cfg = SystemConfig(M=4, N=8)
        # zero residual and zero gain: Hessian is zero, guard must reject
        zero = np.zeros((cfg.N, cfg.M), dtype=complex)
        g, mu, nu, ok = newton_refine(cfg, zero, 0.0, 0.3, 0.3, *newton_args(cfg, 0.3, 0.3))
        assert not ok
        assert (mu, nu) == (0.3, 0.3)


class TestCyclicRefine:
    def test_exact_single_path_unchanged(self):
        cfg = SystemConfig(M=4, N=8)
        p = NormalizedPath(1.0 + 2j, 0.3, 0.8)
        y = synthesize_from_normalized(cfg, [p])
        out, _ = refine(cfg, y, [p], 2)
        assert abs(out[0].mu - p.mu) <= 1e-9
        assert abs(out[0].nu - p.nu) <= 1e-9

    def test_on_grid_paths_unchanged(self):
        cfg = SystemConfig(M=4, N=8)
        paths = [NormalizedPath(1.0, 1 / 8, 1 / 4), NormalizedPath(2.0, 3 / 8, 3 / 4)]
        y = synthesize_from_normalized(cfg, paths)
        out, _ = refine(cfg, y, paths, 3)
        for a, b in zip(out, paths):
            assert abs(a.mu - b.mu) <= 1e-9
            assert abs(a.nu - b.nu) <= 1e-9

    def test_close_paths_residual_non_increasing(self):
        cfg = SystemConfig(M=8, N=16)
        paths = [
            NormalizedPath(1.0, 0.31, 0.42),
            NormalizedPath(0.8j, 0.31 + 1.5 / cfg.N, 0.42),
        ]
        y = synthesize_from_normalized(cfg, paths)
        # perturbed starting estimates
        start = [
            NormalizedPath(1.1, 0.31 + 0.2 / cfg.N, 0.42 - 0.1 / cfg.M),
            NormalizedPath(0.7j, 0.31 + 1.3 / cfg.N, 0.42 + 0.1 / cfg.M),
        ]
        before = np.linalg.norm(y - synthesize_from_normalized(cfg, start)) ** 2
        out, _ = refine(cfg, y, start, 3)
        after = np.linalg.norm(y - synthesize_from_normalized(cfg, out)) ** 2
        assert after <= before + 1e-12

    def test_empty_paths_leave_the_residual_unchanged(self):
        cfg = SystemConfig(M=2, N=2)
        residual = make_noise(cfg, np.random.default_rng(0))
        before = residual.copy()
        cyclic_refine(cfg, residual, [], [], 1)
        np.testing.assert_array_equal(residual, before)


class TestUpdateAllGains:
    def test_recovers_consistent_gains(self):
        cfg = SystemConfig(M=4, N=16)
        paths = [
            NormalizedPath(0.0, 0.1, 0.2),
            NormalizedPath(0.0, 0.4, 0.6),
            NormalizedPath(0.0, 0.75, 0.9),
        ]
        g_true = np.array([1.0 + 1j, -0.5, 2.0j])
        y = sum(g * atom(cfg, p.mu, p.nu) for g, p in zip(g_true, paths))
        out = update_all_gains(cfg, y, paths, *ramps_of(cfg, paths))
        np.testing.assert_allclose([p.gain for p in out], g_true, rtol=1e-9)

    def test_single_path_reduces_to_scalar_ls(self):
        cfg = SystemConfig(M=4, N=8)
        rng = np.random.default_rng(5)
        y = make_noise(cfg, rng)
        paths = [NormalizedPath(0.0, 0.3, 0.7)]
        out = update_all_gains(cfg, y, paths, *ramps_of(cfg, paths))
        assert out[0].gain == pytest.approx(ls_gain_single(cfg, y, 0.3, 0.7))

    def test_matches_normal_equations_oracle(self):
        cfg = SystemConfig(M=4, N=16)
        rng = np.random.default_rng(13)
        paths = [
            NormalizedPath(0.0, 2 / 16, 1 / 4),
            NormalizedPath(0.0, 5 / 16, 2 / 4),
            NormalizedPath(0.0, 11 / 16, 3 / 4),
        ]
        U = atom_columns(cfg, paths)
        y = (U @ np.array([1.0, 2.0, -1j])).reshape(cfg.N, cfg.M) + make_noise(cfg, rng)
        out = update_all_gains(cfg, y, paths, *ramps_of(cfg, paths))
        oracle = np.linalg.solve(U.conj().T @ U, U.conj().T @ y.ravel())
        np.testing.assert_allclose([p.gain for p in out], oracle, rtol=1e-7)

    def test_duplicates_raise_rank_deficient(self):
        cfg = SystemConfig(M=4, N=8)
        paths = [NormalizedPath(1.0, 0.3, 0.7), NormalizedPath(1.0, 0.3 + 1e-12, 0.7)]
        with pytest.raises(RankDeficientError):
            update_all_gains(cfg, np.zeros((cfg.N, cfg.M), dtype=complex), paths, *ramps_of(cfg, paths))

    def test_duplicate_pairs_match_the_pairwise_loop(self):
        # exact, near (1e-12) and wrapped (1 - 1e-12 against 0) duplicates,
        # and a pair close in mu alone, which is no duplicate
        cfg = SystemConfig(M=4, N=8)
        coords = [(0.3, 0.7), (0.0, 0.5), (0.3 + 1e-12, 0.7), (0.9, 0.1), (1 - 1e-12, 0.5), (0.3, 0.7), (0.3, 0.2)]
        paths = [NormalizedPath(1.0, mu, nu) for mu, nu in coords]
        loop = [
            (i, j)
            for i in range(len(paths))
            for j in range(i + 1, len(paths))
            if wrapped_dists(paths[i].mu, paths[j].mu) < nomp.DUPLICATE_TOL
            and wrapped_dists(paths[i].nu, paths[j].nu) < nomp.DUPLICATE_TOL
        ]
        assert loop == [(0, 2), (0, 5), (1, 4), (2, 5)]
        with pytest.raises(RankDeficientError) as err:
            update_all_gains(cfg, np.zeros((cfg.N, cfg.M), dtype=complex), paths, *ramps_of(cfg, paths))
        assert err.value.duplicates == loop
        assert update_all_gains(cfg, np.zeros((cfg.N, cfg.M), dtype=complex), [], *ramps_of(cfg, [])) == []

    def test_duplicates_raise_before_any_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve reached before the duplicate check")

        monkeypatch.setattr(np.linalg, "lstsq", no_solve)
        monkeypatch.setattr(np.linalg, "solve", no_solve)
        cfg = SystemConfig(M=4, N=8)
        paths = [NormalizedPath(1.0, 0.3, 0.7), NormalizedPath(1.0, 0.3 + 1e-12, 0.7)]
        with pytest.raises(RankDeficientError):
            update_all_gains(cfg, np.zeros((cfg.N, cfg.M), dtype=complex), paths, *ramps_of(cfg, paths))

    # odd and even sizes, one antenna and one subcarrier
    @pytest.mark.parametrize("M,N", [(8, 16), (5, 33), (7, 12), (1, 64), (40, 1)])
    @pytest.mark.parametrize("L", [1, 2, 15])
    def test_gram_solve_matches_dense_lstsq(self, M, N, L):
        cfg = SystemConfig(M=M, N=N)
        rng = np.random.default_rng(100 * M + N + L)
        paths = separated_paths(cfg, L, rng)
        U = atom_columns(cfg, paths)
        g = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        y = (U @ g).reshape(cfg.N, cfg.M) + make_noise(cfg, rng, 0.1)
        out = update_all_gains(cfg, y, paths, *ramps_of(cfg, paths))
        dense, _, _, _ = np.linalg.lstsq(U, y.ravel(), rcond=None)
        np.testing.assert_allclose([p.gain for p in out], dense, rtol=1e-9)

    def test_aliased_atoms_give_finite_least_squares_gains(self):
        # one antenna: paths with equal mu and different nu have equal atoms,
        # so the Gram matrix is singular
        cfg = SystemConfig(M=1, N=8)
        paths = [NormalizedPath(0.0, 0.3, 0.1), NormalizedPath(0.0, 0.3, 0.6)]
        U = atom_columns(cfg, paths)
        y = (2.0 * U[:, 0]).reshape(cfg.N, cfg.M) + make_noise(cfg, np.random.default_rng(8), 0.1)
        gains = np.array([p.gain for p in update_all_gains(cfg, y, paths, *ramps_of(cfg, paths))])
        dense, _, _, _ = np.linalg.lstsq(U, y.ravel(), rcond=None)
        assert np.all(np.isfinite(gains))
        assert np.linalg.norm(y.ravel() - U @ gains) == pytest.approx(np.linalg.norm(y.ravel() - U @ dense), rel=1e-9)


class TestStopping:
    def test_power_threshold_value(self):
        cfg = SystemConfig(M=32, N=128)
        r = np.sqrt(4096.0 / cfg.size) * np.ones((cfg.N, cfg.M), dtype=complex)
        assert not stopping_power(cfg, r)  # energy == 4096, threshold is strict
        assert stopping_power(cfg, 0.999 * r)

    def test_zero_residual_stops_both(self):
        cfg = SystemConfig(M=4, N=8)
        z = np.zeros((cfg.N, cfg.M), dtype=complex)
        nc = NompConfig(gamma1=2, gamma2=2, p_fa=0.01)
        assert stopping_power(cfg, z)
        assert stopping_false_alarm(cfg, z, 0.01)
        assert nomp._stopping_fires(cfg, z, grid_power(cfg, z, nc), nc)

    @pytest.mark.parametrize("gammas", [(1, 1), (2, 2), (2, 4), (3, 1)])
    def test_false_alarm_rule_matches_unpadded_fft_rule(self, gammas):
        # the pursuit's rule reads the over-sampled spectrum's base-grid bins;
        # it decides as the rule on the N x M FFT does, on residuals whose
        # peak statistic straddles the threshold
        cfg = SystemConfig(M=4, N=8)
        nc = NompConfig(gamma1=gammas[0], gamma2=gammas[1], p_fa=0.01)
        rng = np.random.default_rng(31)
        decisions = []
        for scale in np.linspace(0.5, 3.0, 60):
            r = scale * make_noise(cfg, rng)
            want = stopping_false_alarm(cfg, r, nc.p_fa)
            assert nomp._stopping_fires(cfg, r, grid_power(cfg, r, nc), nc) == want
            decisions.append(want)
        assert True in decisions and False in decisions

    def test_power_rule_reads_no_spectrum(self):
        cfg = SystemConfig(M=4, N=8)
        z = np.zeros((cfg.N, cfg.M), dtype=complex)
        assert nomp._stopping_fires(cfg, z, None, NompConfig(p_fa=None))

    def test_false_alarm_threshold_value(self):
        cfg = SystemConfig(M=32, N=128)
        assert false_alarm_threshold(cfg, 0.01) == pytest.approx(12.917915393495921, rel=1e-12)

    def test_power_stop_rate_on_noise_is_half(self):
        cfg = SystemConfig(M=8, N=16)
        rng = np.random.default_rng(21)
        hits = sum(stopping_power(cfg, make_noise(cfg, rng)) for _ in range(10_000))
        assert hits / 10_000 == pytest.approx(0.5, abs=0.05)


class TestNompExtract:
    def test_noiseless_single_on_grid_path(self):
        cfg = SystemConfig(M=4, N=16)
        truth = NormalizedPath(3.0 - 1j, 5 / 16, 3 / 4)
        y = synthesize_from_normalized(cfg, [truth])
        res = nomp_extract(y, cfg, NompConfig(gamma1=2, gamma2=2))
        assert len(res.paths) == 1
        assert res.stop_reason == "criterion"
        assert abs(res.paths[0].mu - truth.mu) <= 1e-9
        assert abs(res.paths[0].nu - truth.nu) <= 1e-9
        assert abs(res.paths[0].gain - truth.gain) <= 1e-9
        assert fit_energy(cfg, y, res.paths) <= 1e-12 * cfg.size

    def test_pure_noise_mostly_empty_with_false_alarm_stop(self):
        cfg = SystemConfig(M=4, N=16)
        nc = NompConfig(gamma1=2, gamma2=2, p_fa=0.05)
        rng = np.random.default_rng(2)
        empty = 0
        for _ in range(200):
            res = nomp_extract(make_noise(cfg, rng), cfg, nc)
            empty += not res.paths
        assert empty / 200 == pytest.approx(0.95, abs=0.06)

    @pytest.mark.parametrize(
        "max_paths, p_fa",
        [
            pytest.param(2, 0.01, id="2"),
            pytest.param(None, 0.01, id="None"),
            pytest.param(2, None, id="power-2"),
            pytest.param(None, None, id="power-None"),
        ],
    )
    def test_false_alarm_pursuit_transforms_each_residual_once(self, monkeypatch, max_paths, p_fa):
        # under either stopping rule, the rule and the detection share one
        # spectrum per iteration, and the final stopping check takes one more
        cfg = SystemConfig(M=8, N=32)
        paths = [NormalizedPath(2.0, 0.2, 0.3), NormalizedPath(1.5j, 0.6, 0.8), NormalizedPath(1.0, 0.4, 0.1)]
        y = synthesize_from_normalized(cfg, paths) + make_noise(cfg, np.random.default_rng(4))
        calls = Counter()
        fft2 = np.fft.fft2

        def counting_fft2(*args, **kwargs):
            calls["fft2"] += 1
            return fft2(*args, **kwargs)

        monkeypatch.setattr(np.fft, "fft2", counting_fft2)
        nc = NompConfig(gamma1=2, gamma2=2, max_paths=max_paths, p_fa=p_fa)
        res = nomp_extract(y, cfg, nc)
        assert res.iterations >= 2
        assert res.stop_reason == ("max_paths" if max_paths else "criterion")
        assert calls["fft2"] == res.iterations + 1

    def test_residual_consistency(self, monkeypatch):
        cfg = SystemConfig(M=8, N=32)
        rng = np.random.default_rng(4)
        paths = [NormalizedPath(2.0, 0.2, 0.3), NormalizedPath(1.5j, 0.6, 0.8)]
        y = synthesize_from_normalized(cfg, paths) + make_noise(cfg, rng)
        residuals = record_residuals(monkeypatch)
        res = nomp_extract(y, cfg, NompConfig(gamma1=2, gamma2=2))
        recomputed = np.linalg.norm(y - synthesize_from_normalized(cfg, res.paths)) ** 2
        assert np.linalg.norm(residuals[-1]) ** 2 == pytest.approx(recomputed, rel=1e-9)

    def test_max_paths_cap(self):
        cfg = SystemConfig(M=4, N=16)
        rng = np.random.default_rng(6)
        # strong noise, power threshold unreachable quickly -> cap fires
        y = 20.0 * make_noise(cfg, rng)
        res = nomp_extract(y, cfg, NompConfig(gamma1=2, gamma2=2, max_paths=2))
        assert res.stop_reason == "max_paths"
        assert len(res.paths) == 2

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_noiseless_exactness_property(self, seed):
        cfg = SystemConfig(M=16, N=32)
        rng = np.random.default_rng(seed)
        L = int(rng.integers(1, min(cfg.M, cfg.N) // 4 + 1))
        mus, nus = [], []
        while len(mus) < L:
            mu, nu = rng.uniform(), rng.uniform()
            if all(min(abs(mu - m), 1 - abs(mu - m)) >= 2 / cfg.N for m in mus) and all(
                min(abs(nu - v), 1 - abs(nu - v)) >= 2 / cfg.M for v in nus
            ):
                mus.append(mu)
                nus.append(nu)
        # amplitudes well above 1 so the last undetected path cannot sit at the
        # power-stop threshold M*N
        truth = [
            NormalizedPath(3.0 * np.exp(2j * np.pi * rng.uniform()), mu, nu)
            for mu, nu in zip(mus, nus)
        ]
        y = synthesize_from_normalized(cfg, truth)
        res = nomp_extract(y, cfg, NompConfig(gamma1=2, gamma2=2, cyclic_refine_rounds=12))
        assert len(res.paths) == L
        for t in truth:
            best = min(
                res.paths,
                key=lambda p: min(abs(p.mu - t.mu), 1 - abs(p.mu - t.mu))
                + min(abs(p.nu - t.nu), 1 - abs(p.nu - t.nu)),
            )
            assert min(abs(best.mu - t.mu), 1 - abs(best.mu - t.mu)) <= 1e-6 / cfg.N
            assert min(abs(best.nu - t.nu), 1 - abs(best.nu - t.nu)) <= 1e-6 / cfg.M
        assert fit_energy(cfg, y, res.paths) <= 1e-12 * cfg.size


class TestFactoredPursuit:
    def test_no_atoms_and_at_most_two_delay_ramps_per_cyclic_step(self, monkeypatch):
        cfg = SystemConfig(M=32, N=128)
        rng = np.random.default_rng(15)
        truth = [
            NormalizedPath(3.0 * np.exp(2j * np.pi * rng.uniform()), p.mu, p.nu)
            for p in separated_paths(cfg, 15, rng)
        ]
        y = synthesize_from_normalized(cfg, truth) + make_noise(cfg, rng)
        counts = Counter()
        in_cyclic = [False]

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name, in_cyclic[0]] += 1
                return fn(*args, **kwargs)

            return wrapper

        def cyclic(*args, **kwargs):
            in_cyclic[0] = True
            try:
                return cyclic_refine(*args, **kwargs)
            finally:
                in_cyclic[0] = False

        for module in (nomp, model):
            monkeypatch.setattr(module, "atom", counted("atom", module.atom))
        monkeypatch.setattr(nomp, "ramp_matrices", counted("ramps", nomp.ramp_matrices))
        monkeypatch.setattr(nomp, "newton_refine", counted("newton", nomp.newton_refine))
        monkeypatch.setattr(nomp, "cyclic_refine", cyclic)
        res = nomp_extract(y, cfg, NompConfig(max_paths=15))
        assert len(res.paths) == 15
        assert counts["atom", False] + counts["atom", True] == 0
        assert counts["newton", True] > 0
        assert counts["ramps", True] <= 2 * counts["newton", True]


class TestBoundedPursuit:
    @pytest.mark.parametrize("shape", [(128,), (8, 16), (16, 8, 1), (1, 128)])
    def test_anything_but_the_n_by_m_grid_rejected(self, shape):
        cfg = SystemConfig(M=8, N=16)
        with pytest.raises(ValueError, match="16 x 8 grid"):
            nomp_extract(np.ones(shape, dtype=complex), cfg, NompConfig())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_input_rejected(self, bad):
        cfg = SystemConfig(M=8, N=16)
        y = np.full((cfg.N, cfg.M), bad, dtype=complex)
        with time_limit(5.0), pytest.raises(ValueError, match="NaN or infinite"):
            nomp_extract(y, cfg, NompConfig())

    def test_single_non_finite_entry_rejected(self):
        cfg = SystemConfig(M=8, N=16)
        y = make_noise(cfg, np.random.default_rng(0))
        y[4, 5] = np.nan
        with time_limit(5.0), pytest.raises(ValueError):
            nomp_extract(y, cfg, NompConfig())

    def test_repeated_duplicate_detection_stalls(self, monkeypatch):
        # every iteration re-detects the same cell, no Newton step moves it,
        # and duplicate removal drops it again, so the path count never grows
        # and the stopping rule never fires on the strong residual: only the
        # iteration cap ends the loop
        cfg = SystemConfig(M=4, N=8)
        monkeypatch.setattr(nomp, "coarse_detect", lambda power: (0.25, 0.5, 0.0))
        monkeypatch.setattr(nomp, "newton_refine", lambda cfg, residual, g, mu, nu, *rest: (g, mu, nu, False))
        y = 20.0 * make_noise(cfg, np.random.default_rng(1))
        nc = NompConfig(max_paths=3)
        residuals = record_residuals(monkeypatch)
        with time_limit(10.0):
            res = nomp_extract(y, cfg, nc)
        assert res.stop_reason == "stalled"
        assert res.iterations == MAX_ITERATIONS_PER_PATH * 3
        assert len(res.paths) == 1
        # the duplicate's ramps leave with it: the residual is that of the kept path
        energy = np.linalg.norm(y - synthesize_from_normalized(cfg, res.paths)) ** 2
        assert np.linalg.norm(residuals[-1]) ** 2 == pytest.approx(energy, rel=1e-9)

    @pytest.mark.parametrize("magnitude", [1e150, 1e300])
    def test_overflow_raises_typed_error(self, magnitude):
        # finite but so large that the pursuit's sums overflow
        cfg = SystemConfig(M=3, N=4)
        with time_limit(5.0), pytest.raises(FloatingPointError):
            nomp_extract(np.full((cfg.N, cfg.M), magnitude, dtype=complex), cfg, NompConfig())

    @given(
        M=st.integers(1, 4),
        N=st.integers(1, 6),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_returns_or_rejects_in_bounded_time(self, M, N, data):
        cfg = SystemConfig(M=M, N=N)
        finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
        re = data.draw(st.lists(finite, min_size=cfg.size, max_size=cfg.size))
        im = data.draw(st.lists(finite, min_size=cfg.size, max_size=cfg.size))
        y = (np.array(re) + 1j * np.array(im)).reshape(N, M)
        bad = data.draw(st.sets(st.integers(0, cfg.size - 1), max_size=2))
        for i in bad:
            y.flat[i] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf, complex(1.0, np.nan)]))
        nc = NompConfig(gamma1=2, gamma2=2, p_fa=data.draw(st.sampled_from([None, 0.05])))
        with time_limit(20.0):
            if bad:
                with pytest.raises(ValueError):
                    nomp_extract(y, cfg, nc)
                return
            try:
                res = nomp_extract(y, cfg, nc)
            except FloatingPointError:
                return  # overflow on a huge input is a typed error, not output
        max_paths = nc.resolve_max_paths(cfg)
        assert res.stop_reason in ("criterion", "max_paths", "stalled")
        assert res.iterations <= MAX_ITERATIONS_PER_PATH * max_paths
        assert len(res.paths) <= max_paths
        energy = float(np.vdot(y, y).real)
        left = fit_energy(cfg, y, res.paths)
        assert np.isfinite(left)
        assert left <= energy * (1 + 1e-9) + 1e-9
