from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdd_recon import (
    NormalizedPath,
    SystemConfig,
    atom,
    build_coefficient_matrix,
    reconstruct_downlink,
    refine_gains,
    simulate_downlink_pilots,
    synthesize_downlink,
)
from fdd_recon.downlink import EmptyEstimatesError, PilotPattern
from fdd_recon.nomp import RankDeficientError


def make_cfg(**kw):
    defaults = dict(M=4, N=16, delta_f=75e3, delta_F=300e6)
    defaults.update(kw)
    return SystemConfig(**defaults)


def mu_nu(cfg, estimates):
    """The unit-gain normalized paths of physical (delay, angle) estimates."""
    return [
        NormalizedPath(1.0, (cfg.delta_f * tau) % 1.0, (cfg.d_over_lambda * np.sin(theta)) % 1.0)
        for tau, theta in estimates
    ]


def physical(cfg, gain, delay, angle):
    """The normalized path of a physical (gain, delay, angle) path."""
    return replace(mu_nu(cfg, [(delay, angle)])[0], gain=gain)


class TestPilotPattern:
    def test_uniform_stride(self):
        cfg = make_cfg(N=16, K=4)
        pat = PilotPattern.from_config(cfg)
        assert pat.indices == (-8, -4, 0, 4)
        assert pat.count == 4

    def test_stride_one_covers_all(self):
        cfg = make_cfg(N=8, K=1)
        pat = PilotPattern.from_config(cfg)
        assert pat.indices == tuple(range(-4, 4))

    @pytest.mark.parametrize("N,K", [(16, 4), (15, 4), (7, 3), (8, 8), (5, 1)])
    def test_rows_are_the_grid_rows_of_the_indices(self, N, K):
        cfg = make_cfg(N=N, K=K)
        pat = PilotPattern.from_config(cfg)
        np.testing.assert_array_equal(pat.rows, np.array(pat.indices) + N // 2)
        np.testing.assert_array_equal(pat.indices, cfg.subcarrier_indices[::K][: N // K])
        assert pat.count == len(pat.indices) == N // K >= 1

    @pytest.mark.parametrize("K", [0, -4, 33, 64, 2.5, 4.0, True])
    def test_stride_outside_one_to_n_rejected(self, K):
        # K = 0 divided by zero and K > N gave a pattern without pilots
        cfg = make_cfg(N=32)
        with pytest.raises(ValueError, match="pilot stride K"):
            PilotPattern.from_config(cfg, K)


class TestCoefficientMatrix:
    def test_empty_estimates_rejected(self):
        cfg = make_cfg()
        pat = PilotPattern.from_config(cfg)
        with pytest.raises(EmptyEstimatesError):
            build_coefficient_matrix(cfg, pat, [], "type1")

    def test_single_estimate_self_beam(self):
        cfg = make_cfg()
        pat = PilotPattern.from_config(cfg)
        tau, theta = 2e-6, 0.4
        for btype in ("type1", "type2"):
            A = build_coefficient_matrix(cfg, pat, mu_nu(cfg, [(tau, theta)]), btype)
            expected = cfg.M * np.exp(
                2j * np.pi * (cfg.delta_F + np.array(pat.indices) * cfg.delta_f) * tau
            )
            np.testing.assert_allclose(A[:, 0], expected, rtol=1e-12)

    def test_dimension_contract(self):
        cfg = make_cfg(N=8, K=4)  # Np = 2
        pat = PilotPattern.from_config(cfg)
        ests = mu_nu(cfg, [(1e-6, 0.1), (3e-6, -0.5)])
        assert build_coefficient_matrix(cfg, pat, ests, "type1").shape == (4, 2)
        assert build_coefficient_matrix(cfg, pat, ests, "type2").shape == (2, 2)

    def test_orthogonal_directions_block_diagonal(self):
        cfg = make_cfg(M=4)
        pat = PilotPattern.from_config(cfg)
        # nu values 0 and 1/4 are on the DFT angle grid -> a^H a' = 0
        theta0 = 0.0
        theta1 = float(np.arcsin((1 / 4) / cfg.d_over_lambda))
        A = build_coefficient_matrix(cfg, pat, mu_nu(cfg, [(1e-6, theta0), (2e-6, theta1)]), "type1")
        n_p = pat.count
        # block j=0: column 1 (other path) must vanish; block j=1: column 0
        assert np.abs(A[:n_p, 1]).max() <= 1e-9 * cfg.M
        assert np.abs(A[n_p:, 0]).max() <= 1e-9 * cfg.M


class TestNonFiniteInput:
    # each of these used to return NaN output, or pass an unread NaN, without an error

    @pytest.mark.parametrize("btype", ["type1", "type2"])
    @pytest.mark.parametrize("field", ["mu", "nu"])
    def test_coefficient_matrix_rejects_a_nan_estimate(self, btype, field):
        cfg = make_cfg()
        ests = [NormalizedPath(1.0, 0.1, 0.2), replace(NormalizedPath(1.0, 0.4, 0.6), **{field: np.nan})]
        with pytest.raises(ValueError, match="NaN or infinite"):
            build_coefficient_matrix(cfg, PilotPattern.from_config(cfg), ests, btype)

    @pytest.mark.parametrize("btype", ["type1", "type2"])
    @pytest.mark.parametrize("which", ["truth", "estimate"])
    @pytest.mark.parametrize("field", ["gain", "mu", "nu"])
    def test_simulator_rejects_a_nan_path(self, btype, which, field):
        cfg = make_cfg()
        paths = {k: [NormalizedPath(1.0, 0.1, 0.2), NormalizedPath(0.5j, 0.4, 0.6)] for k in ("truth", "estimate")}
        paths[which][1] = replace(paths[which][1], **{field: np.nan})
        with pytest.raises(ValueError, match="NaN or infinite"):
            simulate_downlink_pilots(cfg, PilotPattern.from_config(cfg), paths["truth"], paths["estimate"], btype, 0.0)

    def test_refine_gains_rejects_a_nan_pilot(self):
        cfg = make_cfg()
        A = build_coefficient_matrix(cfg, PilotPattern.from_config(cfg), mu_nu(cfg, [(1e-6, 0.1)]), "type1")
        y = A @ np.array([1.0 + 0.5j])
        y[2] = np.nan
        with pytest.raises(ValueError, match="NaN or infinite"):
            refine_gains(A, y)

    def test_reconstruction_rejects_a_nan_refined_gain(self):
        cfg = make_cfg()
        with pytest.raises(ValueError, match="NaN or infinite"):
            reconstruct_downlink(cfg, [1.0, np.nan], mu_nu(cfg, [(1e-6, 0.1), (4e-6, -0.7)]))


class TestSimulatePilots:
    def test_truth_fed_noiseless_matches_model(self):
        cfg = make_cfg()
        pat = PilotPattern.from_config(cfg)
        paths = [physical(cfg, 1.0 + 0.5j, 2e-6, 0.3), physical(cfg, -0.7j, 5e-6, -0.4)]
        ests = paths
        for btype in ("type1", "type2"):
            y = simulate_downlink_pilots(cfg, pat, paths, ests, btype, 0.0)
            A = build_coefficient_matrix(cfg, pat, ests, btype)
            np.testing.assert_allclose(y, A @ np.array([p.gain for p in paths]), rtol=1e-10)

    def test_zero_paths_gives_pure_noise(self):
        cfg = make_cfg()
        pat = PilotPattern.from_config(cfg)
        rng = np.random.default_rng(0)
        y = simulate_downlink_pilots(cfg, pat, [], mu_nu(cfg, [(1e-6, 0.2)]), "type2", 1.0, rng)
        assert y.shape == (pat.count,)
        assert np.linalg.norm(y) > 0

    def test_types_agree_for_single_beam(self):
        cfg = make_cfg()
        pat = PilotPattern.from_config(cfg)
        paths = [physical(cfg, 1.0, 2e-6, 0.3)]
        ests = mu_nu(cfg, [(2.1e-6, 0.28)])
        y1 = simulate_downlink_pilots(cfg, pat, paths, ests, "type1", 0.0)
        y2 = simulate_downlink_pilots(cfg, pat, paths, ests, "type2", 0.0)
        np.testing.assert_allclose(y1, y2, rtol=1e-12)

    def test_noise_bit_identical_for_fixed_generator(self):
        # the circular Gaussian draw the simulator has always made: real parts
        # first, then imaginary parts, scaled by sqrt(variance / 2)
        cfg = make_cfg()
        pat = PilotPattern.from_config(cfg)
        paths = [physical(cfg, 1.0 + 0.5j, 2e-6, 0.3), physical(cfg, -0.7j, 5e-6, -0.4)]
        ests = mu_nu(cfg, [(2.1e-6, 0.28), (4.9e-6, -0.41)])
        for btype in ("type1", "type2"):
            clean = simulate_downlink_pilots(cfg, pat, paths, ests, btype, 0.0)
            ref = np.random.default_rng(11)
            expected = clean + np.sqrt(0.7 / 2.0) * (
                ref.standard_normal(clean.shape) + 1j * ref.standard_normal(clean.shape)
            )
            y = simulate_downlink_pilots(cfg, pat, paths, ests, btype, 0.7, np.random.default_rng(11))
            np.testing.assert_array_equal(y, expected)

    def test_noise_requires_generator(self):
        cfg = make_cfg()
        pat = PilotPattern.from_config(cfg)
        with pytest.raises(ValueError, match="generator"):
            simulate_downlink_pilots(cfg, pat, [], mu_nu(cfg, [(1e-6, 0.2)]), "type1", 1.0)


def triple_loop_pilots(cfg, pattern, true_paths, estimates, btype):
    """y[(j, i)] = sum_l g_l exp(j*2*pi*(delta_F + n_i*delta_f)*tau_l) a^H(theta_l) a(theta_hat_j)
    over the physical (g_l, tau_l, theta_l) true paths, with beam j on every
    pilot i (type 1, j-major) or on pilot i = j mod L (type 2)."""
    m = np.arange(cfg.M) - cfg.M // 2

    def steer(theta):
        return np.exp(2j * np.pi * m * cfg.d_over_lambda * np.sin(theta))

    L = len(estimates)
    rows = (
        [(j, n) for j in range(L) for n in pattern.indices]
        if btype == "type1"
        else [(i % L, n) for i, n in enumerate(pattern.indices)]
    )
    y = np.zeros(len(rows), dtype=complex)
    for r, (j, n) in enumerate(rows):
        for gain, tau, theta in true_paths:
            phase = np.exp(2j * np.pi * (cfg.delta_F + n * cfg.delta_f) * tau)
            y[r] += gain * phase * np.vdot(steer(theta), steer(estimates[j][1]))
    return y


class TestPilotOperatorReference:
    @pytest.mark.parametrize("btype", ["type1", "type2"])
    @pytest.mark.parametrize("n_true", [0, 1, 3])
    def test_simulator_matches_triple_loop(self, btype, n_true):
        cfg = make_cfg(M=5, N=32, K=2)
        pat = PilotPattern.from_config(cfg)
        rng = np.random.default_rng(n_true)
        true_paths = [
            (complex(rng.standard_normal(), rng.standard_normal()),
             float(rng.uniform(0, 1 / cfg.delta_f)), float(rng.uniform(-1.4, 1.4)))
            for _ in range(n_true)
        ]
        # estimates that differ from the truth in number, delay and angle
        estimates = [(float(rng.uniform(0, 1 / cfg.delta_f)), float(rng.uniform(-1.4, 1.4))) for _ in range(2)]
        truth = [physical(cfg, *p) for p in true_paths]
        y = simulate_downlink_pilots(cfg, pat, truth, mu_nu(cfg, estimates), btype, 0.0)
        ref = triple_loop_pilots(cfg, pat, true_paths, estimates, btype)
        assert y.shape == ref.shape == ((2 if btype == "type1" else 1) * pat.count,)
        np.testing.assert_allclose(y, ref, rtol=1e-10, atol=1e-10 * cfg.M)


    @given(
        d=st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        btype=st.sampled_from(["type1", "type2"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_simulator_matches_triple_loop_at_any_spacing(self, d, seed, btype):
        cfg = make_cfg(M=5, N=32, K=2, d_over_lambda=d)
        pat = PilotPattern.from_config(cfg)
        rng = np.random.default_rng(seed)
        true_paths = [
            (complex(rng.standard_normal(), rng.standard_normal()),
             float(rng.uniform(0, 1 / cfg.delta_f)), float(rng.uniform(-np.pi / 2, np.pi / 2)))
            for _ in range(3)
        ]
        estimates = [
            (float(rng.uniform(0, 1 / cfg.delta_f)), float(rng.uniform(-np.pi / 2, np.pi / 2))) for _ in range(2)
        ]
        truth = [physical(cfg, *p) for p in true_paths]
        y = simulate_downlink_pilots(cfg, pat, truth, mu_nu(cfg, estimates), btype, 0.0)
        ref = triple_loop_pilots(cfg, pat, true_paths, estimates, btype)
        np.testing.assert_allclose(y, ref, rtol=1e-10, atol=1e-10 * cfg.M)


class TestRefineGains:
    def test_noiseless_consistent_system(self):
        cfg = make_cfg()
        pat = PilotPattern.from_config(cfg)
        ests = mu_nu(cfg, [(1e-6, 0.1), (4e-6, -0.7)])
        A = build_coefficient_matrix(cfg, pat, ests, "type1")
        g0 = np.array([1.5 - 1j, 0.3 + 0.2j])
        np.testing.assert_allclose(refine_gains(A, A @ g0), g0, rtol=1e-9)

    def test_single_beam_scalar_ls(self):
        rng = np.random.default_rng(1)
        c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        g = refine_gains(c.reshape(-1, 1), y)
        expected = np.vdot(c, y) / np.vdot(c, c)
        assert g[0] == pytest.approx(expected)

    def test_matches_normal_equations_oracle(self):
        cfg = make_cfg()
        pat = PilotPattern.from_config(cfg)
        rng = np.random.default_rng(2)
        ests = mu_nu(cfg, [(1e-6, 0.1), (4e-6, -0.7), (7e-6, 0.9)])
        A = build_coefficient_matrix(cfg, pat, ests, "type1")
        y = A @ np.array([1.0, -1j, 0.5]) + 0.1 * (
            rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
        )
        oracle = np.linalg.solve(A.conj().T @ A, A.conj().T @ y)
        np.testing.assert_allclose(refine_gains(A, y), oracle, rtol=1e-7)

    def test_underdetermined_type2_raises(self):
        cfg = make_cfg(N=8, K=4)  # Np = 2 pilots
        pat = PilotPattern.from_config(cfg)
        ests = mu_nu(cfg, [(1e-6, 0.1), (2e-6, 0.2), (3e-6, 0.3)])  # 3 paths > 2 pilots
        A = build_coefficient_matrix(cfg, pat, ests, "type2")
        with pytest.raises(RankDeficientError):
            refine_gains(A, np.zeros(A.shape[0], dtype=complex))


class TestReconstruction:
    def test_end_to_end_identity(self):
        cfg = make_cfg()
        pat = PilotPattern.from_config(cfg)
        paths = [physical(cfg, 1.0 + 0.5j, 2e-6, 0.3), physical(cfg, -0.7j, 5e-6, -0.4)]
        ests = mu_nu(cfg, [(2e-6, 0.3), (5e-6, -0.4)])
        y = simulate_downlink_pilots(cfg, pat, paths, ests, "type1", 0.0)
        A = build_coefficient_matrix(cfg, pat, ests, "type1")
        gains = refine_gains(A, y)
        h = reconstruct_downlink(cfg, gains, ests)
        h_true = synthesize_downlink(cfg, paths)
        np.testing.assert_allclose(h, h_true, rtol=1e-9)

    def test_equals_synthesize_downlink_bit_for_bit(self):
        cfg = make_cfg()
        rng = np.random.default_rng(3)
        ests = [NormalizedPath(1.0, float(rng.uniform()), float(rng.uniform())) for _ in range(4)]
        gains = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        paths = [replace(p, gain=g) for g, p in zip(gains, ests)]
        np.testing.assert_array_equal(reconstruct_downlink(cfg, gains, ests), synthesize_downlink(cfg, paths))

    def test_estimate_gains_are_not_read_and_refined_gains_replace_them(self):
        # the pursuit's paths arrive with their uplink gains
        cfg = make_cfg()
        pat = PilotPattern.from_config(cfg)
        unit = mu_nu(cfg, [(1e-6, 0.1), (4e-6, -0.7)])
        ests = [replace(p, gain=g) for p, g in zip(unit, (3.0 - 2.0j, 0.25j))]
        for btype in ("type1", "type2"):
            np.testing.assert_array_equal(
                build_coefficient_matrix(cfg, pat, ests, btype), build_coefficient_matrix(cfg, pat, unit, btype)
            )
        refined = np.array([1.5 - 1.0j, 0.3 + 0.2j])
        np.testing.assert_array_equal(
            reconstruct_downlink(cfg, refined, ests),
            synthesize_downlink(cfg, [replace(p, gain=g) for p, g in zip(unit, refined)]),
        )

    def test_spatial_frequency_beyond_spacing_kept(self):
        # at d/lambda = 0.25, nu = 0.4 has no angle; the estimate is used as it is
        cfg = make_cfg(d_over_lambda=0.25)
        ests = [NormalizedPath(1.0, 0.15, 0.4), NormalizedPath(1.0, 0.7, 0.1)]
        gains = [1.0 - 0.5j, 0.3j]
        expected = sum(
            g * np.exp(2j * np.pi * cfg.delta_F * p.mu / cfg.delta_f) * atom(cfg, p.mu, p.nu)
            for g, p in zip(gains, ests)
        )
        np.testing.assert_allclose(reconstruct_downlink(cfg, gains, ests), expected, rtol=1e-10, atol=1e-10)

    def test_empty_estimates_zero_vector(self):
        cfg = make_cfg()
        np.testing.assert_array_equal(reconstruct_downlink(cfg, [], []), np.zeros((cfg.N, cfg.M)))

    def test_feedback_payload_is_l_hat(self):
        cfg = make_cfg(M=8, N=32)
        pat = PilotPattern.from_config(cfg)
        ests = mu_nu(cfg, [(1e-6, 0.1), (4e-6, -0.7), (7e-6, 0.9)])
        A = build_coefficient_matrix(cfg, pat, ests, "type1")
        gains = refine_gains(A, A @ np.ones(3))
        assert gains.shape == (3,)

    def test_refined_beats_direct_for_large_phase_error(self):
        cfg = make_cfg()
        pat = PilotPattern.from_config(cfg)
        gain, delay, angle = 2.0, 2e-6, 0.3
        path = physical(cfg, gain, delay, angle)
        h_true = synthesize_downlink(cfg, [path])
        for prod in (0.1, 0.25, 0.5):
            delta_tau = prod / cfg.delta_F
            ests = mu_nu(cfg, [(delay + delta_tau, angle)])
            # direct inference keeps the uplink gain
            direct = reconstruct_downlink(cfg, [path.gain], ests)
            y = simulate_downlink_pilots(cfg, pat, [path], ests, "type1", 0.0)
            A = build_coefficient_matrix(cfg, pat, ests, "type1")
            refined = reconstruct_downlink(cfg, refine_gains(A, y), ests)
            assert np.linalg.norm(refined - h_true) < np.linalg.norm(direct - h_true)
