"""Random-walk mixing and conductance analysis on percolation clusters in lattice boxes."""

from .chain import (
    Chain,
    MixingResult,
    build_chain,
    mixing_time,
)
from .conductance import (
    ConductanceProfile,
    CutValue,
    lk_bound,
    profile_exact,
    profile_upper_box,
    set_conductance,
    small_set_floor,
    sweep_cut,
)
from .errors import (
    CapacityError,
    DomainError,
    EmptyClusterError,
    InequalityViolationError,
    NonConvergenceError,
    PercmixError,
    UnsupportedDimensionError,
)
from .experiments import (
    ExperimentConfig,
    Row,
    ScalingReport,
    default_preset,
    emit_report,
    run_instance,
    run_scaling,
)
from .fitting import FitResult, fit_linear, fit_loglog
from .geometry import (
    DualFppField,
    GoodSiteField,
    classify_good_vertices,
    fpp_regression,
    good_density_curve,
)
from .lattice import BoxGraph, BoxSpec, DualGraph, build_box, dual_lattice
from .percolation import (
    BondConfig,
    ClusterCensus,
    ClusterGraph,
    cluster_census,
    largest_cluster,
    sample_bond_config,
)
from .spectral import (
    DistanceVarianceBound,
    SandwichReport,
    SpectralResult,
    distance_variance_lower_bound,
    sandwich_check,
    spectral_gap,
)

__version__ = "0.1.0"
