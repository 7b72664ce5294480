"""Analytic singular values of Laurent polynomial matrices under random
perturbation: polynomial-matrix arithmetic, bin-wise SVD trajectory
tracking, ground-truth system generation, perturbation experiments, and
Wiener-solution system identification."""

__version__ = "0.1.0"

from .polymat import PolyMatrix, TRIM_TOL
from .anasvd import (
    AssociationAmbiguous,
    BinwiseSvd,
    DiagnosticsReport,
    SvTrajectories,
    binwise_svd,
    diagnostics,
    majorized_trajectories,
    smooth_trajectories,
    track_deviation,
)
from .sysgen import (
    GroundTruthSystem,
    SeededRng,
    assemble,
    bigsys,
    elementary_pu,
    example1,
    random_paraunitary,
    random_parahermitian_scalar,
    reference_tracks,
)
from .perturb import (
    PerturbConfig,
    RicianFit,
    StewartCheck,
    TrialResult,
    bin_histogram_trials,
    normalized_variance,
    perturb_and_analyze,
    random_error,
    rician_fit,
    scale_to_normalized,
    stewart_bounds,
)
from .sysid import (
    MseReport,
    SignalFrame,
    WienerEstimate,
    causal_version,
    error_system,
    mse_decomposition,
    simulate,
    wiener_estimate,
)
