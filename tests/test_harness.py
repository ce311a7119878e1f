import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import j0

from fdd_recon import (
    Cluster,
    Custom,
    EqualPowerGrid,
    ExperimentReport,
    InfeasibleSeparationError,
    NompConfig,
    PathComponent,
    SparseTwoPath,
    StoppingRule,
    SystemConfig,
    add_noise,
    cdf_points,
    generate_scenario,
    genie_covariance,
    match_paths,
    mse_metric,
    phase_error_law,
    run_crb_experiment,
    run_false_alarm_experiment,
    run_phase_error_experiment,
    run_reconstruction_experiment,
    synthesize_downlink,
)
from fdd_recon.config import NormalizedPath, normalize_path, wrapped_dist
from fdd_recon.harness import DimensionMismatchError, _sweep, mse_linear


def cfg_mn(M, N, **kw):
    return SystemConfig(M=M, N=N, **kw)


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

    def test_cluster_respects_spread(self):
        cfg = cfg_mn(8, 64)
        for seed in range(20):
            paths = generate_scenario(cfg, Cluster(), np.random.default_rng(seed))
            angles = np.array([p.angle for p in paths])
            assert angles.max() - angles.min() <= np.deg2rad(30.0) + 1e-12
            delays = np.array([p.delay for p in paths])
            assert delays.max() - delays.min() <= 3.0 / (cfg.N * cfg.delta_f) + 1e-18

    def test_cluster_zero_spread_collapses(self):
        cfg = cfg_mn(8, 64)
        paths = generate_scenario(
            cfg, Cluster(paths=4, angular_spread_deg=0.0, delay_spread_cells=0.0),
            np.random.default_rng(1),
        )
        assert len({p.angle for p in paths}) == 1
        assert len({p.delay for p in paths}) == 1

    def test_equal_power_grid_separations(self):
        cfg = cfg_mn(16, 64)
        spec = EqualPowerGrid(count=6)
        for seed in range(5):
            paths = generate_scenario(cfg, spec, np.random.default_rng(seed))
            norm = [normalize_path(cfg, p) for p in paths]
            for i in range(len(norm)):
                for j in range(i + 1, len(norm)):
                    assert wrapped_dist(norm[i].mu, norm[j].mu) >= 1.0 / cfg.N - 1e-12
                    assert wrapped_dist(norm[i].nu, norm[j].nu) >= 1.0 / cfg.M - 1e-12

    def test_infeasible_separation_raises(self):
        cfg = cfg_mn(4, 8)
        with pytest.raises(InfeasibleSeparationError):
            generate_scenario(cfg, EqualPowerGrid(count=9), np.random.default_rng(0))

    def test_custom_passthrough(self):
        cfg = cfg_mn(4, 8)
        paths = (PathComponent(1.0, 1e-6, 0.2),)
        assert generate_scenario(cfg, Custom(paths), np.random.default_rng(0)) == list(paths)


def sample_draws(cfg, spec, seed, draws):
    """Unit-power downlink channels of the scenario, one row per draw."""
    H = np.empty((draws, cfg.size), dtype=complex)
    for d in range(draws):
        rng = np.random.default_rng(np.random.SeedSequence((seed, d)))
        H[d] = synthesize_downlink(cfg, generate_scenario(cfg, spec, rng, total_power=1.0))
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

    def test_custom_has_no_ensemble(self):
        with pytest.raises(TypeError):
            genie_covariance(cfg_mn(4, 8), Custom((PathComponent(1.0, 1e-6, 0.2),)))

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
        with pytest.raises(ValueError):
            add_noise(np.zeros(2, dtype=complex), -1.0, np.random.default_rng(0))


class TestMetrics:
    def test_exact_match_is_floor(self):
        h = np.ones(8, dtype=complex)
        assert mse_metric(h, h, 2) == -120.0

    def test_unit_error_zero_db(self):
        est = np.ones(8, dtype=complex)
        truth = np.zeros(8, dtype=complex)
        assert mse_metric(est, truth, 2) == pytest.approx(10 * np.log10(2.0 / 2.0), abs=1e-12)

    def test_double_power_is_3db(self):
        truth = np.zeros(4, dtype=complex)
        est = np.sqrt(2.0) * np.ones(4, dtype=complex)
        base = np.ones(4, dtype=complex)
        assert mse_metric(est, truth, 2) - mse_metric(base, truth, 2) == pytest.approx(
            3.0103, abs=1e-3
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mse_linear(np.zeros(4, dtype=complex), np.zeros(6, dtype=complex), 2)
        with pytest.raises(DimensionMismatchError):
            mse_linear(np.zeros(5, dtype=complex), np.zeros(5, dtype=complex), 2)

    def test_cdf_valid(self):
        x, levels = cdf_points([3.0, -1.0, 2.0, 2.0])
        assert list(x) == [-1.0, 2.0, 2.0, 3.0]
        assert np.all(np.diff(levels) > 0) or len(levels) == 1
        assert levels[-1] == 1.0


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

    @given(
        a=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        b=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        shift=st.integers(-3, 3),
    )
    def test_wrapped_dist_on_the_unit_interval(self, a, b, shift):
        # identical to the plain distance formula on [0, 1); whole turns drop out
        d = abs(a - b)
        assert wrapped_dist(a, b) == min(d, 1.0 - d)
        assert wrapped_dist(a + shift, b) == pytest.approx(min(d, 1.0 - d), abs=1e-12)


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
        assert events[:8] == [("set-up", 0)] + [("trial", 0)] * 3 + [("set-up", 1)] + [("trial", 1)] * 3

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

    def test_reconstruction_experiment_shape_and_determinism(self):
        cfg = SystemConfig(M=4, N=32, delta_F=300e6, K=4)
        kw = dict(
            scenario=SparseTwoPath(),
            btype="type1",
            K=4,
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

    @pytest.mark.parametrize("trials", [-3, 0])
    def test_trials_must_be_positive(self, trials):
        cfg = cfg_mn(4, 16, delta_F=300e6)
        runs = [
            lambda: run_crb_experiment(cfg, [20.0], trials, scenario=EqualPowerGrid(count=2)),
            lambda: run_false_alarm_experiment(cfg, 0.1, trials),
            lambda: run_phase_error_experiment(cfg, trials),
            lambda: run_reconstruction_experiment(cfg, SparseTwoPath(), "type1", 4, [10.0], trials),
        ]
        for run in runs:
            with pytest.raises(ValueError, match="trials"):
                run()

    def test_cdf_accessor(self):
        cfg = cfg_mn(4, 16)
        rep = run_crb_experiment(
            cfg, snr_list_db=[25.0], trials=6, seed=1, scenario=EqualPowerGrid(count=2)
        )
        x, levels = rep.cdf("eps_mu_db", 0)
        assert len(x) == len(levels) > 0
        assert levels[-1] == 1.0
