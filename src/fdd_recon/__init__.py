"""Reconstruction of FDD downlink multipath channels from uplink-estimated
frequency-independent parameters, with a trivariate Newtonized pursuit
estimator, error bounds, benchmark estimators, and a Monte-Carlo harness."""

from .config import NormalizedPath, SystemConfig
from .model import (
    add_noise,
    atom,
    synthesize_downlink,
    synthesize_from_normalized,
    synthesize_uplink,
)
from .nomp import NompConfig, NompResult, RankDeficientError, nomp_extract
from .bounds import crb
from .downlink import (
    BeamformingType,
    EmptyEstimatesError,
    PilotPattern,
    build_coefficient_matrix,
    reconstruct_downlink,
    refine_gains,
    simulate_downlink_pilots,
)
from .baselines import KroneckerCovariance, lmmse_filter, ls_estimate
from .harness import (
    Cluster,
    EqualPowerGrid,
    ExperimentReport,
    InfeasibleSeparationError,
    SparseTwoPath,
    TrialError,
    TrialWorkerError,
    cdf_points,
    generate_scenario,
    genie_covariance,
    match_paths,
    run_crb_experiment,
    run_false_alarm_experiment,
    run_phase_error_experiment,
    run_reconstruction_experiment,
)

__all__ = [
    "SystemConfig",
    "NormalizedPath",
    "atom",
    "synthesize_uplink",
    "synthesize_downlink",
    "synthesize_from_normalized",
    "NompConfig",
    "NompResult",
    "RankDeficientError",
    "nomp_extract",
    "crb",
    "BeamformingType",
    "PilotPattern",
    "EmptyEstimatesError",
    "build_coefficient_matrix",
    "simulate_downlink_pilots",
    "refine_gains",
    "reconstruct_downlink",
    "ls_estimate",
    "lmmse_filter",
    "KroneckerCovariance",
    "SparseTwoPath",
    "Cluster",
    "EqualPowerGrid",
    "InfeasibleSeparationError",
    "TrialError",
    "TrialWorkerError",
    "ExperimentReport",
    "generate_scenario",
    "genie_covariance",
    "add_noise",
    "cdf_points",
    "match_paths",
    "run_crb_experiment",
    "run_false_alarm_experiment",
    "run_phase_error_experiment",
    "run_reconstruction_experiment",
]
