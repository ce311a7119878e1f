import contextlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import j0

from fdd_recon import (
    Cluster,
    EqualPowerGrid,
    ExperimentReport,
    InfeasibleSeparationError,
    NompConfig,
    RankDeficientError,
    SparseTwoPath,
    SystemConfig,
    add_noise,
    cdf_points,
    generate_scenario,
    genie_covariance,
    match_paths,
    run_crb_experiment,
    run_false_alarm_experiment,
    run_phase_error_experiment,
    run_reconstruction_experiment,
    synthesize_downlink,
)
from fdd_recon.config import NormalizedPath, wrapped_dists
from fdd_recon import harness
from fdd_recon.harness import (
    DimensionMismatchError,
    TrialError,
    TrialRecord,
    TrialWorkerError,
    _map_trials,
    _reduce,
    _sweep,
    mse_linear,
    to_db,
)
from oracles import phase_error_law


def cfg_mn(M, N, **kw):
    return SystemConfig(M=M, N=N, **kw)


def circle_dist(a, b):
    """Distance between two coordinates on the unit circle, in [0, 0.5]."""
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


class TestScenarios:
    def test_deterministic_given_seed(self):
        cfg = cfg_mn(4, 32)
        for spec in (SparseTwoPath(), Cluster(), EqualPowerGrid(count=3)):
            a = generate_scenario(cfg, spec, np.random.default_rng(7))
            b = generate_scenario(cfg, spec, np.random.default_rng(7))
            assert a == b

    def test_total_power_normalization(self):
        cfg = cfg_mn(4, 32)
        for spec in (SparseTwoPath(), Cluster(paths=5), EqualPowerGrid(count=3)):
            paths = generate_scenario(cfg, spec, np.random.default_rng(0), total_power=3.0)
            power = sum(abs(p.gain) ** 2 for p in paths)
            assert power == pytest.approx(3.0, rel=1e-9)

    @pytest.mark.parametrize("total_power", [float("nan"), -1.0, float("inf"), "1.0", None])
    def test_total_power_that_is_not_a_finite_number_at_least_zero_raises(self, total_power):
        with pytest.raises(ValueError, match="total_power"):
            generate_scenario(cfg_mn(4, 32), SparseTwoPath(), np.random.default_rng(0), total_power=total_power)

    def test_cluster_respects_spread(self):
        cfg = cfg_mn(8, 64)
        for seed in range(20):
            paths = generate_scenario(cfg, Cluster(), np.random.default_rng(seed))
            # nu = (d/lambda) sin(theta) mod 1, unwrapped into [-1/2, 1/2]
            nus = np.array([p.nu if p.nu <= 0.5 else p.nu - 1.0 for p in paths])
            angles = np.arcsin(nus / cfg.d_over_lambda)
            assert angles.max() - angles.min() <= np.deg2rad(30.0) + 1e-12
            mus = np.array([p.mu for p in paths])
            assert mus.max() - mus.min() <= 3.0 / cfg.N + 1e-15

    def test_cluster_zero_spread_collapses(self):
        cfg = cfg_mn(8, 64)
        paths = generate_scenario(
            cfg, Cluster(paths=4, angular_spread_deg=0.0, delay_spread_cells=0.0),
            np.random.default_rng(1),
        )
        assert len({p.nu for p in paths}) == 1
        assert len({p.mu for p in paths}) == 1

    @pytest.mark.parametrize("d_over_lambda", [0.5, 0.25])
    def test_equal_power_grid_separations(self, d_over_lambda):
        cfg = cfg_mn(16, 64, d_over_lambda=d_over_lambda)
        spec = EqualPowerGrid(count=6)
        for seed in range(5):
            paths = generate_scenario(cfg, spec, np.random.default_rng(seed))
            for i in range(len(paths)):
                for j in range(i + 1, len(paths)):
                    assert circle_dist(paths[i].mu, paths[j].mu) >= 1.0 / cfg.N - 1e-12
                    assert circle_dist(paths[i].nu, paths[j].nu) >= 1.0 / cfg.M - 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_equal_power_grid_places_every_feasible_count(self, seed):
        # 7 paths 1/8 apart on nu: the exclusion intervals of a few early
        # draws could tile the arc and stall a rejection sampler
        cfg = cfg_mn(8, 64)
        paths = generate_scenario(cfg, EqualPowerGrid(count=7), np.random.default_rng(seed))
        assert len(paths) == 7
        for i in range(7):
            assert 0 <= paths[i].mu < 1 and 0 <= paths[i].nu < 1
            assert circle_dist(paths[i].nu, 0.0) <= cfg.d_over_lambda
            for j in range(i + 1, 7):
                assert circle_dist(paths[i].mu, paths[j].mu) >= 1.0 / cfg.N - 1e-12
                assert circle_dist(paths[i].nu, paths[j].nu) >= 1.0 / cfg.M - 1e-12

    def test_infeasible_separation_raises(self):
        cfg = cfg_mn(4, 8)
        with pytest.raises(InfeasibleSeparationError):
            generate_scenario(cfg, EqualPowerGrid(count=9), np.random.default_rng(0))

    def test_separation_feasible_on_visible_arc_only(self):
        # 5 paths 1/8 apart fit on the unit circle but not on the arc |nu| <= 0.25
        generate_scenario(cfg_mn(8, 32), EqualPowerGrid(count=5), np.random.default_rng(0))
        with pytest.raises(InfeasibleSeparationError):
            generate_scenario(cfg_mn(8, 32, d_over_lambda=0.25), EqualPowerGrid(count=5), np.random.default_rng(0))

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5, 2.0, float("nan"), True])
    def test_sparse_two_path_window_checked(self, fraction):
        with pytest.raises(ValueError, match="delay_spread_fraction"):
            SparseTwoPath(delay_spread_fraction=fraction)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("paths", 0, "paths must be >= 1"),
            ("paths", 2.5, "paths must be an integer"),
            ("angular_spread_deg", 200.0, "angular_spread_deg must be a number in [0, 180]"),
            ("angular_spread_deg", -10.0, "angular_spread_deg must be a number in [0, 180]"),
            ("angular_spread_deg", float("nan"), "angular_spread_deg must be a number in [0, 180]"),
            ("delay_spread_cells", -1.0, "delay_spread_cells must be a finite number >= 0"),
            ("delay_spread_cells", float("inf"), "delay_spread_cells must be a finite number >= 0"),
        ],
    )
    def test_cluster_fields_checked(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Cluster(**{field: value})

    def test_cluster_delay_spread_beyond_symbol_raises(self):
        cfg = cfg_mn(4, 8)
        for p in generate_scenario(cfg, Cluster(delay_spread_cells=8.0), np.random.default_rng(0)):
            assert 0 <= p.mu < 1
        with pytest.raises(ValueError, match="delay_spread_cells 8.5 exceeds the N = 8"):
            generate_scenario(cfg, Cluster(delay_spread_cells=8.5), np.random.default_rng(0))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("count", 0, "count must be >= 1"),
            ("count", 2.5, "count must be an integer"),
            ("min_sep_mu", -1.0, "min_sep_mu must be null or a finite number >= 0"),
            ("min_sep_nu", float("nan"), "min_sep_nu must be null or a finite number >= 0"),
            ("min_sep_mu", "0.1", "min_sep_mu must be null or a finite number >= 0"),
        ],
    )
    def test_equal_power_grid_fields_checked(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            EqualPowerGrid(**{field: value})

    def test_sparse_two_path_full_window_delays_in_range(self):
        cfg = cfg_mn(4, 16)
        for seed in range(20):
            for p in generate_scenario(cfg, SparseTwoPath(delay_spread_fraction=1.0), np.random.default_rng(seed)):
                assert 0 <= p.mu < 1


def sample_draws(cfg, spec, seed, draws):
    """Unit-power downlink channels of the scenario, one row per draw: the
    N x M grid read row by row, the vector whose covariance is R_mu (x) R_nu."""
    H = np.empty((draws, cfg.size), dtype=complex)
    for d in range(draws):
        rng = np.random.default_rng(np.random.SeedSequence((seed, d)))
        H[d] = synthesize_downlink(cfg, generate_scenario(cfg, spec, rng, total_power=1.0)).ravel()
    return H


class TestGenieCovariance:
    def test_sparse_two_path_factors_closed_form(self):
        # uniform angle at d/lambda = 1/2: E[exp(j*pi*k*sin(theta))] = J0(pi*k);
        # delay uniform on [0, f): (exp(j*2*pi*k*f) - 1) / (j*2*pi*k*f)
        cfg = SystemConfig(M=9, N=24, delta_F=300e6)
        f = 1.0 / 16.0
        R = genie_covariance(cfg, SparseTwoPath(delay_spread_fraction=f))
        k_nu = np.subtract.outer(np.arange(cfg.M), np.arange(cfg.M))
        assert np.abs(R.nu - j0(np.pi * k_nu)).max() <= 1e-12
        k_mu = np.subtract.outer(np.arange(cfg.N), np.arange(cfg.N))
        with np.errstate(invalid="ignore", divide="ignore"):
            law = (np.exp(2j * np.pi * k_mu * f) - 1.0) / (2j * np.pi * k_mu * f)
        law[k_mu == 0] = 1.0
        assert np.abs(R.mu - law).max() <= 1e-12

    def test_equal_power_grid_uniform_torus_is_white(self):
        R = genie_covariance(cfg_mn(6, 20), EqualPowerGrid(count=3))
        np.testing.assert_allclose(R.mu, np.eye(20), atol=1e-15)
        np.testing.assert_allclose(R.nu, np.eye(6), atol=1e-15)

    @pytest.mark.parametrize(
        "d_over_lambda, spec",
        [
            (0.5, SparseTwoPath()),
            (0.5, Cluster()),
            (0.3, Cluster(paths=3, angular_spread_deg=60.0, delay_spread_cells=5.0)),
            (0.3, EqualPowerGrid(count=2)),
        ],
    )
    def test_sample_covariance_converges_at_root_draws_rate(self, d_over_lambda, spec):
        # The sample covariance of n draws misses the exact one by about
        # sqrt((E||h||^4 - ||R||^2) / n) in Frobenius norm; pooling four
        # independent samples must halve the error.  A wrong factor leaves a
        # bias that pooling cannot remove.
        cfg = SystemConfig(M=4, N=16, delta_F=300e6, d_over_lambda=d_over_lambda)
        R = genie_covariance(cfg, spec)
        exact = np.kron(R.mu, R.nu)
        scale = np.linalg.norm(exact)
        n = 2000
        samples = []
        for seed in range(4):
            H = sample_draws(cfg, spec, seed, n)
            S = H.T @ H.conj() / n
            predicted = np.sqrt((np.mean(np.sum(np.abs(H) ** 2, axis=1) ** 2) - np.linalg.norm(S) ** 2) / n)
            assert 0.6 <= np.linalg.norm(S - exact) / predicted <= 1.4
            samples.append(S)
        single = np.mean([np.linalg.norm(S - exact) for S in samples]) / scale
        pooled = np.linalg.norm(np.mean(samples, axis=0) - exact) / scale
        assert 0.35 <= pooled / single <= 0.65

    def test_factors_are_unit_diagonal_hermitian(self):
        cfg = SystemConfig(M=7, N=30, d_over_lambda=0.4)
        for spec in (SparseTwoPath(), Cluster(), EqualPowerGrid(count=3)):
            R = genie_covariance(cfg, spec)
            for F in (R.mu, R.nu):
                np.testing.assert_allclose(F, F.conj().T, atol=1e-15)
                np.testing.assert_allclose(np.diag(F), 1.0, atol=1e-14)
                assert np.linalg.eigvalsh(F).min() >= -1e-12


class TestNoise:
    def test_statistics(self):
        rng = np.random.default_rng(0)
        z = add_noise(np.zeros(100_000, dtype=complex), 2.0, rng)
        assert abs(z.mean()) <= 0.02
        assert np.mean(np.abs(z) ** 2) == pytest.approx(2.0, rel=0.02)

    def test_zero_variance_identity(self):
        x = np.arange(4, dtype=complex)
        assert add_noise(x, 0.0, np.random.default_rng(0)) is x

    def test_negative_variance_rejected(self):
        for variance in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                add_noise(np.zeros(2, dtype=complex), variance, np.random.default_rng(0))


class TestMetrics:
    def test_exact_match_is_floor(self):
        h = np.ones((4, 2), dtype=complex)
        assert to_db(mse_linear(h, h)) == -120.0

    def test_unit_error_zero_db(self):
        est = np.ones((4, 2), dtype=complex)
        truth = np.zeros((4, 2), dtype=complex)
        assert to_db(mse_linear(est, truth)) == pytest.approx(10 * np.log10(2.0 / 2.0), abs=1e-12)

    def test_double_power_is_3db(self):
        truth = np.zeros((2, 2), dtype=complex)
        est = np.sqrt(2.0) * np.ones((2, 2), dtype=complex)
        base = np.ones((2, 2), dtype=complex)
        assert to_db(mse_linear(est, truth)) - to_db(mse_linear(base, truth)) == pytest.approx(
            3.0103, abs=1e-3
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mse_linear(np.zeros((2, 2), dtype=complex), np.zeros((3, 2), dtype=complex))
        # the grid carries M: a flat or 3-D array has none
        for shape in ((5,), (2, 2, 2)):
            with pytest.raises(DimensionMismatchError):
                mse_linear(np.zeros(shape, dtype=complex), np.zeros(shape, dtype=complex))

    def test_cdf_valid(self):
        x, levels = cdf_points([3.0, -1.0, 2.0, 2.0])
        assert list(x) == [-1.0, 2.0, 2.0, 3.0]
        assert np.all(np.diff(levels) > 0) or len(levels) == 1
        assert levels[-1] == 1.0


def loop_match_paths(truth, detected, radius_mu, radius_nu):
    """Reference: every pair by circle_dist, sorted by (dm + dn, i, j), then greedy."""
    pairs = []
    for i, t in enumerate(truth):
        for j, d in enumerate(detected):
            dm, dn = circle_dist(t.mu, d.mu), circle_dist(t.nu, d.nu)
            if dm <= radius_mu and dn <= radius_nu:
                pairs.append((dm + dn, i, j))
    used_t, used_d, matches = set(), set(), []
    for _, i, j in sorted(pairs):
        if i not in used_t and j not in used_d:
            matches.append((i, j))
            used_t.add(i)
            used_d.add(j)
    return matches


class TestMatchPaths:
    def test_one_to_one_within_radius(self):
        truth = [NormalizedPath(1.0, 0.1, 0.2), NormalizedPath(1.0, 0.5, 0.7)]
        det = [NormalizedPath(1.0, 0.501, 0.699), NormalizedPath(1.0, 0.101, 0.201)]
        matches = match_paths(truth, det, 0.01, 0.01)
        assert sorted(matches) == [(0, 1), (1, 0)]

    def test_outside_radius_unmatched(self):
        truth = [NormalizedPath(1.0, 0.1, 0.2)]
        det = [NormalizedPath(1.0, 0.2, 0.2)]
        assert match_paths(truth, det, 0.01, 0.01) == []

    def test_wraparound_distance(self):
        truth = [NormalizedPath(1.0, 0.999, 0.0)]
        det = [NormalizedPath(1.0, 0.001, 0.0)]
        assert match_paths(truth, det, 0.01, 0.01) == [(0, 0)]

    def test_detected_used_once(self):
        truth = [NormalizedPath(1.0, 0.1, 0.2), NormalizedPath(1.0, 0.105, 0.2)]
        det = [NormalizedPath(1.0, 0.1, 0.2)]
        assert len(match_paths(truth, det, 0.02, 0.02)) == 1

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_pairwise_loop(self, seed):
        # on a coarse dyadic grid many candidate costs tie exactly, so the
        # (cost, i, j) order decides; elsewhere the coordinates are arbitrary
        rng = np.random.default_rng(seed)
        grid = seed % 2 == 0

        def draw(count):
            if grid:
                return [NormalizedPath(1.0, rng.integers(16) / 16, rng.integers(16) / 16) for _ in range(count)]
            return [NormalizedPath(1.0, rng.uniform(), rng.uniform()) for _ in range(count)]

        truth, det = draw(rng.integers(0, 12)), draw(rng.integers(0, 12))
        radius_mu, radius_nu = (2 / 16, 3 / 16) if grid else (0.2, 0.3)
        assert match_paths(truth, det, radius_mu, radius_nu) == loop_match_paths(truth, det, radius_mu, radius_nu)

    @given(
        a=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        b=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        shift=st.integers(-3, 3),
    )
    def test_wrapped_dist_on_the_unit_interval(self, a, b, shift):
        # identical to the plain distance formula on [0, 1); whole turns drop out
        d = abs(a - b)
        assert wrapped_dists(a, b) == min(d, 1.0 - d)
        assert wrapped_dists(a + shift, b) == pytest.approx(min(d, 1.0 - d), abs=1e-12)
        assert wrapped_dists([a, a + shift], b).tolist() == [circle_dist(a, b), circle_dist(a + shift, b)]


class TestPhaseErrorLaw:
    def test_inband_error_vanishes(self):
        err, _ = phase_error_law(1.0 + 1j, 2e-6, 1e-9, 3e8)
        assert err <= 1e-12

    def test_ratio_argument_is_offset_product(self):
        for prod in (0.01, 0.1, 0.3):
            delta_F = 3e8
            delta_tau = prod / delta_F
            _, arg = phase_error_law(0.5 - 0.2j, 1e-6, delta_tau, delta_F)
            assert arg == pytest.approx(2 * np.pi * prod, abs=1e-9)


class TestExperiments:
    def test_sweep_takes_points_in_turn_and_seeds_each_trial(self):
        events = []

        def points():
            for s in range(2):
                events.append(("set-up", s))
                yield s

        def trial(point, rng):
            events.append(("trial", point))
            return int(rng.integers(1 << 62))

        out = _sweep(points(), 3, 7, 1, trial)
        expected = [
            [int(np.random.default_rng(np.random.SeedSequence((7, s, t))).integers(1 << 62)) for t in range(3)]
            for s in range(2)
        ]
        assert out == expected
        assert _sweep(range(2), 3, 7, 3, trial) == expected
        # every point is built before the first trial runs
        assert events[:8] == [("set-up", 0), ("set-up", 1)] + [("trial", 0)] * 3 + [("trial", 1)] * 3

    def test_crb_experiment_shape_and_determinism(self):
        cfg = cfg_mn(4, 16)
        kw = dict(
            snr_list_db=[20.0, 10.0],
            trials=8,
            seed=5,
            scenario=EqualPowerGrid(count=2),
        )
        a = run_crb_experiment(cfg, **kw)
        b = run_crb_experiment(cfg, **kw, threads=4)
        c = run_crb_experiment(cfg, **kw, threads=2)
        assert (c.curves, c.per_trial_db, c.extras, c.bounds) == (a.curves, a.per_trial_db, a.extras, a.bounds)
        assert isinstance(a, ExperimentReport)
        assert a.curves == b.curves
        assert a.per_trial_db == b.per_trial_db
        assert a.extras == b.extras
        assert a.bounds == b.bounds
        assert len(a.curves["eps_mu_db"]) == 2
        assert len(a.bounds["bound_mu_db"]) == 2
        # each sweep point draws its own trials
        assert a.per_trial_db["eps_mu_db"][0] != a.per_trial_db["eps_mu_db"][1]

    def test_false_alarm_experiment_deterministic(self):
        cfg = cfg_mn(4, 16)
        a = run_false_alarm_experiment(cfg, p_fa=0.1, trials=40, seed=2)
        b = run_false_alarm_experiment(cfg, p_fa=0.1, trials=40, seed=2, threads=3)
        assert a.extras["empirical_rate"] == b.extras["empirical_rate"]
        assert 0.0 <= a.extras["empirical_rate"] <= 1.0

    @pytest.mark.parametrize("nomp_p_fa", [0.01, 0.1])
    def test_false_alarm_experiment_rejects_a_nomp_rate(self, monkeypatch, nomp_p_fa):
        # the rate comes from p_fa alone: a second one is rejected, even an equal one
        monkeypatch.setattr(harness, "_map_trials", lambda *args: pytest.fail("a trial ran"))
        with pytest.raises(ValueError, match="takes its rate from p_fa"):
            run_false_alarm_experiment(cfg_mn(4, 16), 0.1, 2, nomp_cfg=NompConfig(p_fa=nomp_p_fa))

    def test_phase_error_experiment_deterministic(self):
        cfg = SystemConfig(M=2, N=32, delta_F=300e6, K=4)
        a = run_phase_error_experiment(cfg, trials=12, seed=4)
        b = run_phase_error_experiment(cfg, trials=12, seed=4, threads=3)
        assert a.curves == b.curves
        assert a.per_trial_db == b.per_trial_db
        assert a.extras == b.extras
        assert len(a.per_trial_db["refined_reconstruction"][0]) == 12

    def test_phase_error_experiment_refined_wins(self):
        cfg = SystemConfig(M=2, N=32, delta_F=300e6, K=4)
        rep = run_phase_error_experiment(cfg, trials=40, seed=1, snr_db=20.0)
        assert rep.extras["refined_win_fraction"] >= 0.9
        assert rep.curves["refined_reconstruction"][0] < rep.curves["direct_inference"][0]

    def test_phase_error_experiment_needs_a_carrier_offset(self, monkeypatch):
        # checked before any trial: the injected delay error is a fraction of 1/delta_F
        monkeypatch.setattr(harness, "_sweep", lambda *args: pytest.fail("a trial ran"))
        with pytest.raises(ValueError, match="nonzero delta_F"):
            run_phase_error_experiment(SystemConfig(M=2, N=8), trials=2)

    def test_phase_error_injects_the_whole_delay_error(self):
        # |delta_f * delta_tau| = 0.3 / 0.999, a third of a delay cell, so
        # trials whose path lies near either end of [0, 1) err like the rest
        cfg = SystemConfig(M=2, N=32, delta_F=0.999 * 75e3)
        rep = run_phase_error_experiment(cfg, trials=20, seed=0, offset_delay_product_range=(0.3, 0.3))
        direct = rep.per_trial_db["direct_inference"][0]
        assert len(direct) == 20
        np.testing.assert_allclose(direct, direct[0], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 23.0])
    def test_phase_error_path_carries_the_stated_snr(self, monkeypatch, snr_db):
        # under unit noise the one path's |g|^2 is the per-subcarrier per-antenna SNR
        seen = []
        synthesize = harness.synthesize_uplink

        def capture(cfg, paths):
            seen.extend(paths)
            return synthesize(cfg, paths)

        monkeypatch.setattr(harness, "synthesize_uplink", capture)
        run_phase_error_experiment(SystemConfig(M=2, N=16, delta_F=300e6), trials=3, seed=0, snr_db=snr_db)
        assert len(seen) == 3
        for path in seen:
            assert abs(path.gain) ** 2 == pytest.approx(10.0 ** (snr_db / 10.0), rel=1e-12)

    @pytest.mark.parametrize("product_range", [(0.1, 0.5), (-0.6, 0.1), (0.5, 0.5), (0.1, float("nan"))])
    def test_phase_error_range_of_half_a_delay_cell_rejected(self, monkeypatch, product_range):
        # |delta_f * delta_tau| >= 1/2 could leave [0, 1) at either sign
        monkeypatch.setattr(harness, "_sweep", lambda *args: pytest.fail("a trial ran"))
        cfg = SystemConfig(M=2, N=8, delta_f=75e3, delta_F=75e3)
        with pytest.raises(ValueError, match="offset_delay_product_range"):
            run_phase_error_experiment(cfg, trials=2, offset_delay_product_range=product_range)

    def test_reconstruction_experiment_shape_and_determinism(self):
        cfg = SystemConfig(M=4, N=32, delta_F=300e6, K=4)
        kw = dict(
            scenario=SparseTwoPath(),
            btype="type1",
            snr_list_db=[10.0, 20.0],
            trials=6,
            seed=3,
        )
        a = run_reconstruction_experiment(cfg, **kw)
        b = run_reconstruction_experiment(cfg, **kw, threads=4)
        assert a.curves == b.curves
        assert a.per_trial_db == b.per_trial_db
        assert a.extras == b.extras
        for name in ("ls", "lmmse", "uplink_recon", "downlink_recon", "direct_inference"):
            assert len(a.curves[name]) == 2
            assert [len(p) for p in a.per_trial_db[name]] == [6, 6]

    @staticmethod
    def four_runs(trials=2, seed=0, snr_db=10.0):
        """One call of each experiment; snr_db is the phase-error SNR and the others' one-point list."""
        cfg = cfg_mn(4, 16, delta_F=300e6)
        return [
            lambda: run_crb_experiment(cfg, [snr_db], trials, seed, scenario=EqualPowerGrid(count=2)),
            lambda: run_false_alarm_experiment(cfg, 0.1, trials, seed),
            lambda: run_phase_error_experiment(cfg, trials, seed, snr_db=snr_db),
            lambda: run_reconstruction_experiment(cfg, SparseTwoPath(), "type1", [snr_db], trials, seed),
        ]

    @pytest.mark.parametrize("trials", [-3, 0])
    def test_trials_must_be_positive(self, monkeypatch, trials):
        monkeypatch.setattr(harness, "_map_trials", lambda *args: pytest.fail("a trial ran"))
        for run in self.four_runs(trials=trials):
            with pytest.raises(ValueError, match="trials must be >= 1"):
                run()

    @pytest.mark.parametrize("seed, message", [(-1, "seed must be >= 0"), (1.5, "seed must be an integer")])
    def test_seed_must_be_a_non_negative_integer(self, monkeypatch, seed, message):
        monkeypatch.setattr(harness, "_map_trials", lambda *args: pytest.fail("a trial ran"))
        for run in self.four_runs(seed=seed):
            with pytest.raises(ValueError, match=message):
                run()

    @pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), 4000.0, -4000.0, -3200.0])
    def test_snr_must_be_finite_with_a_normal_float_power(self, monkeypatch, snr_db):
        # 4000 dB overflows 10 ** (snr / 10), -4000 dB underflows it to 0, and
        # -3200 dB to a subnormal power whose noise variance 1 / power is inf
        monkeypatch.setattr(harness, "_map_trials", lambda *args: pytest.fail("a trial ran"))
        runs = self.four_runs(snr_db=snr_db)
        del runs[1]  # false-alarm takes no SNR
        for run in runs:
            with pytest.raises(ValueError, match="snr_db must be a non-empty list of finite numbers"):
                run()

    def test_empty_snr_list_rejected(self):
        cfg = cfg_mn(4, 16, delta_F=300e6)
        with pytest.raises(ValueError, match=r"snr_db must be a non-empty list of finite numbers, got \[\]"):
            run_crb_experiment(cfg, [], 2, scenario=EqualPowerGrid(count=2))
        with pytest.raises(ValueError, match=r"snr_db must be a non-empty list of finite numbers, got \[\]"):
            run_reconstruction_experiment(cfg, SparseTwoPath(), "type1", [], 2)

    @pytest.mark.parametrize("threads", [-1, 0])
    def test_threads_must_be_positive(self, threads):
        with pytest.raises(ValueError, match="threads"):
            run_false_alarm_experiment(cfg_mn(4, 16), 0.1, 4, threads=threads)

    def test_cdf_accessor(self):
        cfg = cfg_mn(4, 16)
        rep = run_crb_experiment(
            cfg, snr_list_db=[25.0], trials=6, seed=1, scenario=EqualPowerGrid(count=2)
        )
        x, levels = cdf_points(rep.per_trial_db["eps_mu_db"][0])
        assert len(x) == len(levels) > 0
        assert levels[-1] == 1.0


class TestReduce:
    def test_curve_is_the_db_of_numpys_mean_of_the_pooled_values(self):
        # 12 trials: numpy's pairwise sum rounds apart from a running sum here
        values = np.random.default_rng(1).uniform(size=12).tolist()
        curves, per_trial, _ = _reduce([[TrialRecord({"mse": [v]}, {}) for v in values]])
        assert curves["mse"] == [to_db(float(np.mean(values)))]
        assert curves["mse"] != [to_db(sum(values) / len(values))]
        assert per_trial["mse"] == [[to_db(v) for v in values]]

    def test_lists_of_several_values_pool_in_trial_order(self):
        trials = [[0.5, 0.25], [0.125], [1.0, 2.0, 4.0], [0.75, 0.5, 0.25, 1.5]]
        curves, per_trial, _ = _reduce([[TrialRecord({"eps": v}, {}) for v in trials]])
        assert curves["eps"] == [to_db(float(np.mean([v for t in trials for v in t])))]
        assert per_trial["eps"] == [[to_db(float(np.mean(t))) for t in trials]]

    def test_trials_without_values_are_left_out_and_an_empty_point_is_none(self):
        sweep = [
            [TrialRecord({"eps": []}, {}), TrialRecord({"eps": [0.1]}, {}), TrialRecord({"eps": []}, {})],
            [TrialRecord({"eps": []}, {}), TrialRecord({"eps": []}, {})],
        ]
        curves, per_trial, _ = _reduce(sweep)
        assert curves["eps"] == [to_db(0.1), None]
        assert per_trial["eps"] == [[to_db(0.1)], []]

    def test_counts_are_summed_per_point(self):
        sweep = [
            [TrialRecord({}, {"missed": 1, "fakes": 0}), TrialRecord({}, {"missed": 2, "fakes": 3})],
            [TrialRecord({}, {"missed": 0, "fakes": 1}), TrialRecord({}, {"missed": 0, "fakes": 0})],
        ]
        curves, per_trial, counts = _reduce(sweep)
        assert (curves, per_trial) == ({}, {})
        assert counts == {"missed": [3, 0], "fakes": [3, 1]}


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


# the mask before any test maps trials, so that a test can see one leaked by an earlier one
AFFINITY_AT_IMPORT = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(AFFINITY_AT_IMPORT is None or not hasattr(os, "fork"), reason="forked workers: Linux")
class TestTrialWorkers:
    def test_trial_t_runs_on_worker_t_mod_workers(self):
        with time_limit(30):
            out = _map_trials(lambda t: (t, os.getpid()), 7, 3)
        assert [r[0] for r in out] == list(range(7))
        assert [r[1] == os.getpid() for r in out] == [t % 3 == 0 for t in range(7)]
        assert len({r[1] for r in out}) == 3
        assert os.sched_getaffinity(0) == AFFINITY_AT_IMPORT  # the pool leaves the mask alone
        assert_no_child_left()

    def test_more_workers_than_trials_and_payloads_over_a_pipe_buffer(self):
        with time_limit(30):
            out = _map_trials(lambda t: np.full(1 << 17, t + 0.5), 3, 8)  # 1 MiB per trial
        assert len(out) == 3
        for t, r in enumerate(out):
            np.testing.assert_array_equal(r, np.full(1 << 17, t + 0.5))
        assert_no_child_left()

    def test_trial_exception_comes_back_with_its_type(self):
        def trial(t):
            if t == 3:
                raise RankDeficientError("duplicate detections", duplicates=[(0, 2)])
            return t

        with time_limit(30), pytest.raises(RankDeficientError, match="duplicate detections") as info:
            _map_trials(trial, 6, 2)
        assert info.value.duplicates == [(0, 2)]
        assert os.sched_getaffinity(0) == AFFINITY_AT_IMPORT
        assert_no_child_left()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failing_trial_raises_a_trial_error_that_names_it(self, threads):
        # 3000 dB overflows the pursuit on point 1's one trial, job 1, which
        # the forked worker runs when there are two
        cfg = cfg_mn(4, 16)
        with time_limit(30), pytest.raises(TrialError) as info:
            run_crb_experiment(cfg, [20.0, 3000.0], 1, seed=7, scenario=EqualPowerGrid(count=2), threads=threads)
        assert str(info.value).startswith("sweep point 1, trial 0, seed 7: FloatingPointError: overflow")
        assert os.sched_getaffinity(0) == AFFINITY_AT_IMPORT
        assert_no_child_left()

    def test_worker_that_dies_without_a_result_raises_a_typed_error(self):
        with time_limit(30), pytest.raises(TrialWorkerError, match="trial worker 1 exited with status 3"):
            _map_trials(lambda t: os._exit(3) if t == 1 else t, 4, 2)
        assert_no_child_left()

    def test_sweep_forks_its_workers_once_per_run(self, monkeypatch):
        forks = []
        fork = os.fork

        def counting_fork():
            forks.append(1)
            return fork()

        def trial(point, rng):
            return point, int(rng.integers(1 << 62))

        serial = _sweep(range(3), 4, 7, 1, trial)
        monkeypatch.setattr(os, "fork", counting_fork)
        with time_limit(30):
            assert _sweep(range(3), 4, 7, 2, trial) == serial
        assert len(forks) == 1
        assert_no_child_left()

    def test_parent_failure_while_a_worker_sends_a_large_payload(self):
        def trial(t):
            if t == 0:
                time.sleep(0.5)  # by now worker 1 is blocked on its full pipe
                raise ValueError("parent-side trial failed")
            return bytes(1 << 20)

        with time_limit(30), pytest.raises(ValueError, match="parent-side trial failed"):
            _map_trials(trial, 2, 2)
        assert os.sched_getaffinity(0) == AFFINITY_AT_IMPORT
        assert_no_child_left()


OPENBLAS = sorted(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*.so"))

# Run in a child process with neither OPENBLAS_NUM_THREADS nor OMP_NUM_THREADS
# set: the caller sets OpenBLAS to 2 threads, maps two trials on two workers
# and prints the count each worker read, or null when argv[2] is "raise" and
# trial 0 raises, and its own count after the map.
BLAS_PROBE = """
import ctypes, json, sys
from fdd_recon import harness

blas = ctypes.CDLL(sys.argv[1])
count = blas.scipy_openblas_get_num_threads64_
blas.scipy_openblas_set_num_threads64_(2)

def trial(t):
    if t == 0 and sys.argv[2] == "raise":
        raise ValueError("trial 0 failed")
    return count()

try:
    workers = harness._map_trials(trial, 2, 2)
except ValueError:
    workers = None
print(json.dumps({"workers": workers, "caller": count()}))
"""


@pytest.mark.skipif(not OPENBLAS or not hasattr(os, "fork"), reason="numpy's bundled OpenBLAS and os.fork")
class TestBlasThreads:
    def probe(self, mode):
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        command = [sys.executable, "-c", BLAS_PROBE, str(OPENBLAS[0]), mode]
        out = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60, check=True)
        return json.loads(out.stdout)

    def test_a_library_trial_map_runs_one_thread_in_every_worker_and_restores_the_callers(self):
        assert self.probe("ok") == {"workers": [1, 1], "caller": 2}

    def test_the_callers_count_comes_back_when_a_trial_raises(self):
        assert self.probe("raise") == {"workers": None, "caller": 2}


def no_library(path):
    raise OSError(f"{path}: cannot open shared object file")


@pytest.mark.parametrize("loader", [no_library, lambda path: object()], ids=["no library", "no symbol"])
def test_blas_without_the_setter_warns_and_goes_on(monkeypatch, loader):
    monkeypatch.setattr(harness.ctypes, "CDLL", loader)
    with pytest.warns(RuntimeWarning, match="BLAS thread count left as it is"):
        assert _map_trials(lambda t: t, 4, 2) == [0, 1, 2, 3]
    assert_no_child_left()
