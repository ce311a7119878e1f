from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdd_recon import (
    NormalizedPath,
    SystemConfig,
    atom,
    synthesize_downlink,
    synthesize_from_normalized,
    synthesize_uplink,
)
from fdd_recon.model import _phase_slopes, add_noise, ramp_matrices

unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)


def cfg_mn(M, N, **kw):
    return SystemConfig(M=M, N=N, **kw)


def delay_ramp(cfg, mu):
    return ramp_matrices(cfg, mu, 0.0)[0]


def steering_ramp(cfg, nu):
    return ramp_matrices(cfg, 0.0, nu)[1]


class TestSystemConfig:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            SystemConfig(M=0, N=8)
        with pytest.raises(ValueError):
            SystemConfig(M=4, N=8, delta_f=-1.0)
        with pytest.raises(ValueError):
            SystemConfig(M=4, N=8, d_over_lambda=0.7)
        with pytest.raises(ValueError):
            SystemConfig(M=4, N=8, K=0)

    @pytest.mark.parametrize("field", ["delta_f", "delta_F"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_spacings_must_be_finite(self, field, value):
        # a NaN delta_F used to construct and end in "SVD did not converge"
        with pytest.raises(ValueError, match=f"{field} must be"):
            SystemConfig(M=4, N=8, **{field: value})

    @pytest.mark.parametrize("field", ["M", "N", "K"])
    @pytest.mark.parametrize("value", [2.5, 4.0, True, "4", None])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SystemConfig(**dict(dict(M=4, N=8), **{field: value}))

    def test_numpy_integers_accepted(self):
        cfg = SystemConfig(M=np.int64(4), N=np.int32(8), K=np.int16(2))
        assert cfg.size == 32

    def test_index_ranges(self):
        cfg = cfg_mn(4, 7)
        assert list(cfg.antenna_indices) == [-2, -1, 0, 1]
        assert list(cfg.subcarrier_indices) == [-3, -2, -1, 0, 1, 2, 3]


class TestRampMatrices:
    # the ramps as they were built before the phase slopes were cached
    @staticmethod
    def reference(indices, x):
        return np.exp(2j * np.pi * indices * np.mod(x, 1.0))

    @pytest.mark.parametrize("M,N", [(4, 7), (5, 8), (1, 16), (16, 1)])
    def test_columns_equal_the_vector_ramps_bit_for_bit(self, M, N):
        cfg = cfg_mn(M, N)
        xs = [0.0, 0.3, 0.999, -0.3, -1e-20, 1.7, 123.456, np.float64(-5.25)]
        D, A = ramp_matrices(cfg, xs, xs[::-1])
        assert D.shape == (N, len(xs)) and A.shape == (M, len(xs))
        for col, (mu, nu) in enumerate(zip(xs, xs[::-1])):
            d, a = ramp_matrices(cfg, mu, nu)
            np.testing.assert_array_equal(d, self.reference(cfg.subcarrier_indices, mu))
            np.testing.assert_array_equal(a, self.reference(cfg.antenna_indices, nu))
            np.testing.assert_array_equal(D[:, col], d)
            np.testing.assert_array_equal(A[:, col], a)

    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 3.75, -0.25, -1e-17])
    def test_float_coordinates_match_the_ufunc_ramps_bit_for_bit(self, x):
        # a float takes Python's %, a list np.mod; -1e-17 wraps to 1.0 both ways
        cfg = cfg_mn(5, 8)
        n, m = _phase_slopes(cfg)
        assert x % 1.0 == np.mod(x, 1.0)
        d, a = ramp_matrices(cfg, x, x)
        np.testing.assert_array_equal(d, np.exp(np.multiply.outer(n, np.mod(x, 1.0))))
        np.testing.assert_array_equal(a, np.exp(np.multiply.outer(m, np.mod(x, 1.0))))
        D, A = ramp_matrices(cfg, [x], [x])
        np.testing.assert_array_equal(D, np.exp(np.multiply.outer(n, np.mod([x], 1.0))))
        np.testing.assert_array_equal(A, np.exp(np.multiply.outer(m, np.mod([x], 1.0))))
        np.testing.assert_array_equal(D[:, 0], d)
        np.testing.assert_array_equal(A[:, 0], a)

    def test_slopes_cached_read_only_and_ramps_fresh(self):
        cfg = cfg_mn(2, 4)
        n, m = _phase_slopes(cfg)
        assert _phase_slopes(cfg_mn(2, 4))[0] is n
        assert not n.flags.writeable and not m.flags.writeable
        d = delay_ramp(cfg, 0.25)
        d[0] = 0.0
        assert delay_ramp(cfg, 0.25)[0] != 0.0


class TestSteeringVector:
    def test_zero_frequency(self):
        np.testing.assert_allclose(steering_ramp(cfg_mn(4, 1), 0.0), np.ones(4))

    def test_half_frequency_m2(self):
        # m = -1, 0 -> exp(j*2*pi*m*0.5) = [-1, 1]
        np.testing.assert_allclose(steering_ramp(cfg_mn(2, 1), 0.5), [-1, 1], atol=1e-15)

    def test_quarter_frequency_m4(self):
        # m = -2..1 -> exp(j*pi*m/2)
        expected = [np.exp(-1j * np.pi), np.exp(-1j * np.pi / 2), 1, np.exp(1j * np.pi / 2)]
        np.testing.assert_allclose(steering_ramp(cfg_mn(4, 1), 0.25), expected, atol=1e-15)

    def test_wraps_mod_one(self):
        cfg = cfg_mn(8, 1)
        np.testing.assert_allclose(steering_ramp(cfg, 1.3), steering_ramp(cfg, 0.3), atol=1e-12)


class TestDelayVector:
    def test_zero_delay(self):
        np.testing.assert_allclose(delay_ramp(cfg_mn(1, 8), 0.0), np.ones(8))

    def test_quarter_n2(self):
        # n = -1, 0
        np.testing.assert_allclose(
            delay_ramp(cfg_mn(1, 2), 0.25), [np.exp(-1j * np.pi / 2), 1], atol=1e-15
        )

    def test_half_n4(self):
        np.testing.assert_allclose(delay_ramp(cfg_mn(1, 4), 0.5), [1, -1, 1, -1], atol=1e-12)


class TestAtom:
    def test_all_ones(self):
        u = atom(cfg_mn(2, 2), 0.0, 0.0)
        np.testing.assert_allclose(u, np.ones((2, 2)))
        assert np.vdot(u, u).real == pytest.approx(4.0)

    def test_half_half(self):
        u = atom(cfg_mn(2, 2), 0.5, 0.5)
        # rows are subcarriers n, columns antennas m
        expected = [[np.exp(2j * np.pi * (0.5 * n + 0.5 * m)) for m in (-1, 0)] for n in (-1, 0)]
        np.testing.assert_allclose(u, expected, atol=1e-12)

    @given(mu=unit, nu=unit)
    def test_norm_is_mn(self, mu, nu):
        cfg = cfg_mn(3, 5)
        u = atom(cfg, mu, nu)
        assert np.vdot(u, u).real == pytest.approx(15.0, abs=1e-9)

    def test_dft_grid_orthogonality(self):
        cfg = cfg_mn(4, 8)
        u1 = atom(cfg, 1 / 8, 2 / 4)
        u2 = atom(cfg, 3 / 8, 2 / 4)
        u3 = atom(cfg, 1 / 8, 1 / 4)
        assert abs(np.vdot(u1, u2)) <= 1e-9 * cfg.size
        assert abs(np.vdot(u1, u3)) <= 1e-9 * cfg.size


class TestSynthesis:
    def test_empty_paths_zero_vector(self):
        cfg = cfg_mn(2, 4)
        np.testing.assert_array_equal(synthesize_uplink(cfg, []), np.zeros((4, 2)))
        np.testing.assert_array_equal(synthesize_downlink(cfg, []), np.zeros((4, 2)))

    @pytest.mark.parametrize("synthesize", [synthesize_from_normalized, synthesize_downlink])
    @pytest.mark.parametrize("field", ["gain", "mu", "nu"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_path_raises(self, synthesize, field, bad):
        # a NaN gain or coordinate used to come out as a NaN channel
        cfg = cfg_mn(4, 16)
        paths = [NormalizedPath(1.0, 0.2, 0.3), replace(NormalizedPath(0.5j, 0.6, 0.7), **{field: bad})]
        with pytest.raises(ValueError, match="NaN or infinite"):
            synthesize(cfg, paths)

    def test_single_zero_path_all_ones(self):
        cfg = cfg_mn(2, 4)
        h = synthesize_uplink(cfg, [NormalizedPath(gain=1.0, mu=0.0, nu=0.0)])
        np.testing.assert_allclose(h, np.ones((4, 2)))

    @pytest.mark.parametrize("M,N", [(4, 7), (5, 8), (1, 16), (16, 1)])
    def test_matches_the_sum_of_atoms(self, M, N):
        cfg = cfg_mn(M, N)
        rng = np.random.default_rng(M * N)
        paths = [
            NormalizedPath(complex(rng.standard_normal(), rng.standard_normal()), rng.uniform(-2, 2), rng.uniform(-2, 2))
            for _ in range(5)
        ]
        expected = sum(p.gain * atom(cfg, p.mu, p.nu) for p in paths)
        np.testing.assert_allclose(synthesize_from_normalized(cfg, paths), expected, rtol=0, atol=1e-12)

    def test_two_equal_paths_linearity(self):
        cfg = cfg_mn(2, 4)
        p = NormalizedPath(1.0, 0.25, 0.5)
        h2 = synthesize_from_normalized(cfg, [p, p])
        np.testing.assert_allclose(h2, 2 * atom(cfg, 0.25, 0.5), rtol=1e-12)

    @given(
        g1=st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
        mu1=unit,
        nu1=unit,
        mu2=unit,
        nu2=unit,
    )
    @settings(max_examples=30)
    def test_linearity_property(self, g1, mu1, nu1, mu2, nu2):
        cfg = cfg_mn(3, 4)
        a = [NormalizedPath(g1, mu1, nu1)]
        b = [NormalizedPath(0.7 - 0.2j, mu2, nu2)]
        lhs = synthesize_from_normalized(cfg, a + b)
        rhs = synthesize_from_normalized(cfg, a) + synthesize_from_normalized(cfg, b)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_downlink_equals_uplink_when_no_offset(self):
        cfg = cfg_mn(4, 8, delta_F=0.0)
        paths = [NormalizedPath(0.5 + 1j, 0.15, 0.1), NormalizedPath(-0.2j, 0.375, 0.6)]
        np.testing.assert_allclose(
            synthesize_downlink(cfg, paths), synthesize_uplink(cfg, paths), rtol=1e-12
        )

    def test_downlink_half_cycle_offset_negates(self):
        tau = 1e-6
        cfg = cfg_mn(2, 2, delta_F=0.5 / tau)
        path = NormalizedPath(1.0, cfg.delta_f * tau, 0.2)
        h = synthesize_downlink(cfg, [path])
        np.testing.assert_allclose(h, -atom(cfg, path.mu, path.nu), atol=1e-9)

    def test_downlink_reads_mu_mod_one(self):
        # the offset phase is that of the delay (mu mod 1)/delta_f in [0, 1/delta_f)
        cfg = cfg_mn(2, 4, delta_f=75e3, delta_F=300e6)
        paths = [NormalizedPath(1.0, 0.25, 0.125), NormalizedPath(0.5j, 0.875, 0.75)]
        shifted = [NormalizedPath(1.0, -0.75, 1.125), NormalizedPath(0.5j, 2.875, -0.25)]
        np.testing.assert_array_equal(synthesize_downlink(cfg, shifted), synthesize_downlink(cfg, paths))

    def test_siso_matches_uplink_with_one_antenna(self):
        cfg = cfg_mn(4, 8)
        paths = [NormalizedPath(1.0, 0.225, 0.1), NormalizedPath(0.3j, 0.525, 0.76)]
        siso = synthesize_uplink(cfg_mn(1, 8), paths)
        # the reference antenna m = 0 (column M // 2) has steering phase 1
        ref = synthesize_uplink(cfg, paths)[:, cfg.M // 2]
        np.testing.assert_allclose(siso[:, 0], ref, rtol=1e-12)
        assert siso.shape == (8, 1)

    def test_siso_two_paths_brute_force(self):
        cfg = cfg_mn(1, 4)
        paths = [NormalizedPath(1.0, 0.15, 0.0), NormalizedPath(0.5, 0.45, 0.0)]
        expected = np.zeros((4, 1), dtype=complex)
        for p in paths:
            expected[:, 0] += p.gain * np.exp(2j * np.pi * cfg.subcarrier_indices * p.mu)
        np.testing.assert_allclose(synthesize_uplink(cfg, paths), expected, rtol=1e-12)


class TestAddNoise:
    @pytest.mark.parametrize("variance", [0.0, 1.0])
    def test_non_finite_grid_rejected(self, variance):
        # a NaN entry used to come out as it went in
        values = np.ones((16, 4), dtype=complex)
        values[3, 1] = np.nan
        with pytest.raises(ValueError, match="NaN or infinite"):
            add_noise(values, variance, np.random.default_rng(0))
