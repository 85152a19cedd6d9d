"""Tight-binding chains under a strong watching coupling.

Build chain Hamiltonians, evolve them exactly, derive order-resolved
effective Hamiltonians for the watched zero-level subspace, classify the
order of the constrained dynamics, and quantify the population leakage.
"""

from .analytic import (
    DELTA_FIT_COEFF,
    big_g,
    delta_estimate,
    delta_exact_n4,
    f_of_n,
    g_n,
    hqzd0_odd,
    hqzd1_even,
    hqzd1_odd_modified,
    lambda_bound,
    phi_mid,
    qtilde_fluctuating_corner,
    toeplitz_eigenpair,
)
from .chain import (
    ChainHamiltonians,
    ChainSpec,
    CouplingFluctuation,
    build_chain,
    interior_block,
)
from .dynamics import (
    EvolutionTrace,
    LeakageReport,
    TimeGrid,
    default_time_grid,
    dominant_angular_frequency,
    leakage_frequency_estimate,
    leakage_series,
    measure_leakage,
    simulate,
    u1_correction_trace,
)
from .errors import (
    AssumptionViolationError,
    ClusteringError,
    NumericalFailureError,
    SingularMatrixError,
    UnsupportedConfigurationError,
    ValidationError,
    ZenoChainError,
)
from .harness import (
    FluctuationTrial,
    ScenarioResult,
    SweepCell,
    SweepResult,
    fit_slope_through_origin,
    run_fluctuation_trials,
    run_scenario,
    run_sweep,
)
from .linalg import (
    SpectralDecomposition,
    SymTridiagMatrix,
    det_tridiag,
    eig_sym_dense,
    eig_sym_tridiag,
    eigvals_sym_tridiag,
    eigvecs_sym_tridiag,
    evolve,
    evolve_grid,
    inverse_corner_tridiag,
    invert_tridiag,
    solve_bordered_tridiag,
)
from .perturbation import (
    DegenerateLevel,
    EffectiveHamiltonianReport,
    FirstOrderCorrections,
    LevelGrouping,
    ProjectorSet,
    ZeroLevelCoupling,
    couple_zero_level,
    first_order_corrections,
    group_eigenvalues,
    group_levels,
    hqzd_order0,
    hqzd_order1,
    reduced_resolvent,
)
from .qzd import (
    PrerequisiteIIResult,
    QzdClassification,
    QzdOrder,
    WatchAnalysis,
    analyze_watch,
    check_prerequisite_ii,
    classify,
)

__version__ = "0.1.0"
