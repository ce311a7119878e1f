"""The benchmark's workloads: which committed config runs, at how many trials,
with how many harness workers.  BLAS runs on one thread everywhere, so that
harness workers x BLAS threads never exceeds the core count."""
from __future__ import annotations

import os
from dataclasses import dataclass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # file name under scripts/configs/
    trials: int  # trials per SNR point in one workload process
    round_size: int  # processes per round, each on its own program seed
    harness_workers: int

    def env(self) -> dict:
        """Environment of the workload process.  The worker count goes through
        FDD_RECON_THREADS rather than --threads, so it survives a change that
        drops the option."""
        return {
            "FDD_RECON_THREADS": str(self.harness_workers),
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        }


def workloads() -> dict:
    cores = nproc()
    table = [
        # 15 equal-power paths: Newton/cyclic refinement does nearly all the
        # work; the only workload that uses the trial-parallel layer.
        Workload("crb-dense15", "crb_attainment.json", 2, 12, cores),
        # Plain serial baseline: short atoms, few paths, FFT stopping test on
        # every pursuit iteration, small genie covariance and LMMSE filter.
        Workload("recon-m4-type2", "reconstruction_cluster_type2.json", 30, 8, 1),
    ]
    return {w.name: w for w in table}
