# End-to-end acceptance gate.  Each test prints one PASS/FAIL line (bypassing
# pytest capture so the verdicts always appear) and then asserts its criteria
# at the stated tolerances.  Criteria 2 and 7 are known not to hold for this
# implementation at the stated magnitudes; they are asserted as written and
# left red rather than weakened.
import os
import time
from dataclasses import replace

import numpy as np

from fdd_recon import (
    Cluster,
    NompConfig,
    NormalizedPath,
    SparseTwoPath,
    SystemConfig,
    crb,
    nomp_extract,
    run_crb_experiment,
    run_false_alarm_experiment,
    run_phase_error_experiment,
    run_reconstruction_experiment,
    synthesize_from_normalized,
)
from fdd_recon.downlink import refine_gains
from fdd_recon.config import wrapped_dists
from fdd_recon.harness import EqualPowerGrid
from oracles import grad_hess, mc_fisher_diagonal, objective_S, phase_error_law

THREADS = int(os.environ.get("FDD_RECON_THREADS", "1"))


def report_line(capsys, criterion: int, ok: bool, detail: str):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {criterion}: {verdict} - {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def _crb_run(M, N):
    cfg = SystemConfig(M=M, N=N)
    return run_crb_experiment(
        cfg,
        [10.0, 20.0, 30.0],
        trials=200,
        seed=0,
        nomp_cfg=NompConfig(gamma1=2, gamma2=2),
        scenario=EqualPowerGrid(count=15),
        threads=THREADS,
    )


def test_criterion_1_bound_attainment(capsys):
    # 15 well-separated equal-power paths, M=32 N=128: measured normalized
    # parameter MSEs track the theoretical bounds within 1.5 dB at
    # SNR 10/20/30 dB, miss rate <= 2%, under a 10-minute budget.
    t0 = time.perf_counter()
    rep = _crb_run(32, 128)
    elapsed = time.perf_counter() - t0
    devs = []
    for i in range(3):
        devs.append(abs(rep.curves["eps_mu_db"][i] - rep.bounds["bound_mu_db"][i]))
        devs.append(abs(rep.curves["eps_nu_db"][i] - rep.bounds["bound_nu_db"][i]))
    max_dev = max(devs)
    max_missed = max(rep.extras["missed_rate"])
    ok = max_dev <= 1.5 and max_missed <= 0.02 and elapsed <= 600.0
    report_line(
        capsys,
        1,
        ok,
        f"max |MSE - bound| {max_dev:.3f} dB (tol 1.5), missed {max_missed:.4f} "
        f"(tol 0.02), {elapsed:.0f}s (budget 600s)",
    )


def test_criterion_2_close_spacing_degradation(capsys):
    # Same setup at N=64: the measured MSE should stay below -30 dB for
    # SNR >= 20 dB and exceed the single-path bound by >= 0.5 dB at 30 dB.
    rep = _crb_run(32, 64)
    below_30 = all(
        rep.curves[c][i] <= -30.0 for c in ("eps_mu_db", "eps_nu_db") for i in (1, 2)
    )
    excess_30 = max(
        rep.curves["eps_mu_db"][2] - rep.bounds["bound_mu_db"][2],
        rep.curves["eps_nu_db"][2] - rep.bounds["bound_nu_db"][2],
    )
    ok = below_30 and excess_30 >= 0.5
    report_line(
        capsys,
        2,
        ok,
        f"MSE <= -30 dB at SNR>=20: {below_30}; excess over bound at 30 dB "
        f"{excess_30:+.3f} dB (need >= 0.5)",
    )


def test_criterion_3_false_alarm_calibration(capsys):
    # Empirical fake-detection rate on pure noise matches the target p_fa
    # within 0.6*p_fa, 2000 trials each, under a 2-minute budget.
    cfg = SystemConfig(M=16, N=64)
    t0 = time.perf_counter()
    rates = {}
    for p_fa in (0.01, 0.05):
        rep = run_false_alarm_experiment(cfg, p_fa, trials=2000, seed=0, threads=THREADS)
        rates[p_fa] = rep.extras["empirical_rate"]
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 120.0 and all(abs(rates[p] - p) <= 0.6 * p for p in rates)
    report_line(
        capsys,
        3,
        ok,
        f"rates {{0.01: {rates[0.01]:.4f}, 0.05: {rates[0.05]:.4f}}} "
        f"(tol 0.6*p_fa), {elapsed:.1f}s (budget 120s)",
    )


def _random_separated_paths(rng, N, M, count):
    # amplitudes in [0.5, 2] with random phase, >= 2 grid cells of wrapped
    # separation per coordinate
    cells_mu, cells_nu = 2.0 / N, 2.0 / M
    mus, nus = [], []
    while len(mus) < count:
        mu, nu = rng.uniform(), rng.uniform()
        if all(wrapped_dists(mu, m) >= cells_mu for m in mus) and all(
            wrapped_dists(nu, v) >= cells_nu for v in nus
        ):
            mus.append(mu)
            nus.append(nu)
    gains = rng.uniform(0.5, 2.0, count) * np.exp(2j * np.pi * rng.uniform(size=count))
    return [NormalizedPath(complex(g), mu, nu) for g, mu, nu in zip(gains, mus, nus)]


def test_criterion_4_noiseless_exact_recovery(capsys):
    # Noiseless mixtures of up to 4 paths separated by >= 2 grid cells are
    # recovered to <= 1e-6 grid cells per parameter with residual power
    # <= 1e-12 * M * N.
    cfg = SystemConfig(M=16, N=64)
    nomp_cfg = NompConfig(
        gamma1=2,
        gamma2=2,
        cyclic_refine_rounds=12,
        p_fa=0.01,
    )
    rng = np.random.default_rng(0)
    worst_cells = 0.0
    worst_resid = 0.0
    count_ok = True
    for _ in range(60):
        truth = _random_separated_paths(rng, cfg.N, cfg.M, int(rng.integers(1, 5)))
        y = synthesize_from_normalized(cfg, truth)
        res = nomp_extract(y, cfg, nomp_cfg)
        count_ok &= len(res.paths) == len(truth)
        for t in truth:
            best = min(
                max(wrapped_dists(t.mu, d.mu) * cfg.N, wrapped_dists(t.nu, d.nu) * cfg.M)
                for d in res.paths
            )
            worst_cells = max(worst_cells, best)
        residual = y - synthesize_from_normalized(cfg, res.paths)
        worst_resid = max(worst_resid, float(np.vdot(residual, residual).real) / cfg.size)
    ok = count_ok and worst_cells <= 1e-6 and worst_resid <= 1e-12
    report_line(
        capsys,
        4,
        ok,
        f"worst param error {worst_cells:.3e} cells (tol 1e-6), worst residual/MN "
        f"{worst_resid:.3e} (tol 1e-12), counts exact: {count_ok}",
    )


def test_criterion_5_out_of_band_phase_error(capsys):
    # Closed-form law: re-fitting the gain zeroes the in-band error while the
    # inferred/true ratio at carrier offset dF picks up phase 2*pi*dF*dtau.
    # Gain refinement on downlink pilots then beats direct inference in >= 95%
    # of randomized trials with dF*dtau in [0.1, 0.5].
    law_ok = True
    worst_arg = 0.0
    rng = np.random.default_rng(5)
    for _ in range(200):
        g = complex(rng.standard_normal() + 1j * rng.standard_normal())
        tau = rng.uniform(0.0, 1e-6)
        dtau = rng.uniform(-1.0, 1.0) * 1e-9
        dF = rng.uniform(1e8, 4e8)
        inband, arg = phase_error_law(g, tau, dtau, dF)
        expected = np.angle(np.exp(2j * np.pi * dF * dtau))
        law_ok &= inband <= 1e-12
        worst_arg = max(worst_arg, abs(np.angle(np.exp(1j * (arg - expected)))))
    cfg = SystemConfig(M=4, N=256, delta_F=300e6)
    rep = run_phase_error_experiment(cfg, trials=200, seed=0, threads=THREADS)
    win = rep.extras["refined_win_fraction"]
    ok = law_ok and worst_arg <= 1e-6 and win >= 0.95
    report_line(
        capsys,
        5,
        ok,
        f"in-band error <= 1e-12: {law_ok}, ratio-arg error {worst_arg:.2e} "
        f"(tol 1e-6), refined wins {win:.3f} (need >= 0.95)",
    )


def _recon(cfg, scenario, btype, K, snr_list, trials, gammas=(2, 2)):
    nomp_cfg = NompConfig(
        gamma1=gammas[0], gamma2=gammas[1], p_fa=0.01
    )
    return run_reconstruction_experiment(
        replace(cfg, K=K),
        scenario,
        btype,
        snr_list,
        trials,
        seed=0,
        nomp_cfg=nomp_cfg,
        threads=THREADS,
    )


def test_criterion_6_estimator_ordering(capsys):
    # Two-path scenario, N=256 M=4, SNR 10 dB: LS worst, then genie LMMSE,
    # then downlink reconstruction, then uplink reconstruction, with >= 1 dB
    # between consecutive curves.
    cfg = SystemConfig(M=4, N=256, delta_F=300e6)
    rep = _recon(cfg, SparseTwoPath(), "type1", 4, [10.0], trials=500)
    ls = rep.curves["ls"][0]
    lmmse = rep.curves["lmmse"][0]
    dl = rep.curves["downlink_recon"][0]
    ul = rep.curves["uplink_recon"][0]
    gaps = (ls - lmmse, lmmse - dl, dl - ul)
    ok = all(g >= 1.0 for g in gaps)
    report_line(
        capsys,
        6,
        ok,
        f"ls {ls:.2f} > lmmse {lmmse:.2f} > downlink {dl:.2f} > uplink {ul:.2f} dB; "
        f"gaps {gaps[0]:.2f}/{gaps[1]:.2f}/{gaps[2]:.2f} (need >= 1 each)",
    )


def test_criterion_7_beamforming_penalty(capsys):
    # Clustered scenario, M=4, SNR 10 dB: per-path (type2) beamforming with
    # stride K=4 should cost >= 5 dB versus stacked (type1) beams, and halving
    # the stride to K=2 should recover >= 3 dB of it.
    cfg = SystemConfig(M=4, N=256, delta_F=300e6)
    t1_k4 = _recon(cfg, Cluster(), "type1", 4, [10.0], trials=200).curves["downlink_recon"][0]
    t2_k4 = _recon(cfg, Cluster(), "type2", 4, [10.0], trials=200).curves["downlink_recon"][0]
    t2_k2 = _recon(cfg, Cluster(), "type2", 2, [10.0], trials=200).curves["downlink_recon"][0]
    penalty = t2_k4 - t1_k4
    recovery = t2_k4 - t2_k2
    ok = penalty >= 5.0 and recovery >= 3.0
    report_line(
        capsys,
        7,
        ok,
        f"type2-K4 penalty {penalty:+.2f} dB (need >= 5), K=2 recovery "
        f"{recovery:+.2f} dB (need >= 3)",
    )


def test_criterion_8_array_size_gain(capsys):
    # Clustered scenario: a 32-antenna array (oversampling 1x1) strictly beats
    # the 4-antenna array on both reconstruction curves at every swept SNR.
    snrs = [0.0, 10.0, 20.0]
    cfg4 = SystemConfig(M=4, N=256, delta_F=300e6)
    cfg32 = SystemConfig(M=32, N=256, delta_F=300e6)
    rep4 = _recon(cfg4, Cluster(), "type1", 4, snrs, trials=60)
    rep32 = _recon(cfg32, Cluster(), "type1", 4, snrs, trials=60, gammas=(1, 1))
    strict = all(
        rep32.curves[c][i] < rep4.curves[c][i]
        for c in ("uplink_recon", "downlink_recon")
        for i in range(len(snrs))
    )
    gaps = [
        min(rep4.curves[c][i] - rep32.curves[c][i] for c in ("uplink_recon", "downlink_recon"))
        for i in range(len(snrs))
    ]
    report_line(
        capsys,
        8,
        strict,
        f"M=32 strictly better at every SNR: {strict}; min per-SNR gap "
        f"{['%.2f' % g for g in gaps]} dB",
    )


def test_criterion_9_numerical_oracles(capsys):
    # (a) analytic gradient/Hessian of the refinement objective match central
    # finite differences to 1e-4 relative on 100 random instances; (b) the LS
    # gain solve matches the normal equations to 1e-7; (c) the closed-form
    # Fisher diagonal behind crb's bounds, F_mumu = N^2 / eps_mu and
    # F_nunu = M^2 / eps_nu at snr = |g|^2, matches a Monte-Carlo curvature
    # estimate to 2%.
    cfg = SystemConfig(M=4, N=8)
    h = 1e-6
    worst_fd = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        r = (rng.standard_normal((cfg.N, cfg.M)) + 1j * rng.standard_normal((cfg.N, cfg.M))) / np.sqrt(2)
        g = complex(rng.standard_normal() + 1j * rng.standard_normal())
        mu, nu = rng.uniform(), rng.uniform()
        grad, hess = grad_hess(cfg, r, g, mu, nu)

        def S(m, n):
            return objective_S(cfg, r, g, m, n)

        fd_grad = np.array(
            [(S(mu + h, nu) - S(mu - h, nu)) / (2 * h), (S(mu, nu + h) - S(mu, nu - h)) / (2 * h)]
        )
        cross = (
            S(mu + h, nu + h) - S(mu + h, nu - h) - S(mu - h, nu + h) + S(mu - h, nu - h)
        ) / (4 * h**2)
        fd_hess = np.array(
            [
                [(S(mu + h, nu) - 2 * S(mu, nu) + S(mu - h, nu)) / h**2, cross],
                [cross, (S(mu, nu + h) - 2 * S(mu, nu) + S(mu, nu - h)) / h**2],
            ]
        )
        worst_fd = max(
            worst_fd,
            float(np.max(np.abs(grad - fd_grad)) / np.max(np.abs(grad))),
            float(np.max(np.abs(hess - fd_hess)) / np.max(np.abs(hess))),
        )

    rng = np.random.default_rng(99)
    worst_ls = 0.0
    for _ in range(20):
        A = rng.standard_normal((40, 6)) + 1j * rng.standard_normal((40, 6))
        y = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        x = refine_gains(A, y)
        x_ne = np.linalg.solve(A.conj().T @ A, A.conj().T @ y)
        worst_ls = max(worst_ls, float(np.linalg.norm(x - x_ne) / np.linalg.norm(x_ne)))

    M, N, g = 16, 32, np.sqrt(10.0)
    eps_mu, eps_nu = crb(M, N, abs(g) ** 2)
    mc = mc_fisher_diagonal(M, N, g)
    fisher_rel = max(abs(mc[0] / (N**2 / eps_mu) - 1.0), abs(mc[1] / (M**2 / eps_nu) - 1.0))

    ok = worst_fd <= 1e-4 and worst_ls <= 1e-7 and fisher_rel <= 0.02
    report_line(
        capsys,
        9,
        ok,
        f"grad/hess FD rel {worst_fd:.2e} (tol 1e-4), LS vs normal eq "
        f"{worst_ls:.2e} (tol 1e-7), Fisher MC rel {fisher_rel:.2e} (tol 0.02)",
    )
