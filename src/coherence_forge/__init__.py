"""Numerical toolkit for coherence and asymmetry as a resource.

Modules:
  linalg        validated matrix types, eigensolvers, fidelity, JSON I/O
  measures      QFI, purity of coherence, skew information, Renyi family
  purification  variance-optimal purifications and convex-roof ensembles
  clockdist     integer clock distributions and translated-Poisson limits
  convert       iid pure-state conversion planning and coherence cost
  channels      Kraus channels, twirling, covariance, monotonicity trials
  distill       distillation diagnostics and the min-entropy SDP
  acceptance    the numbered acceptance suite
"""

from .config import DEFAULT
from .errors import (
    CertificateError,
    CoherenceForgeError,
    GcdNotOneError,
    IncommensurateSpectrumError,
    PeriodMismatchError,
    SchemaError,
    SearchExhaustedError,
    SolverStallError,
    ValidationError,
)
from .linalg import (
    DensityMatrix,
    HermitianObservable,
    PureState,
    array_from_json,
    array_to_json,
    density_matrix,
    eig_hermitian,
    fidelity,
    level_labels,
    observable,
    pure_state,
)
from .measures import (
    energy_variance,
    purity_of_coherence,
    qfi,
    qfi_via_fidelity,
    renyi_purity_monotone,
    skew_information,
    support_commutes,
)
from .purification import (
    Purification,
    PureEnsemble,
    build_optimal_purification,
    coherence_sectors,
    kkt_residual,
    optimal_ensemble,
    period_respecting_ensemble,
)
from .clockdist import (
    IntegerDistribution,
    PeriodicClockState,
    barbour_bound,
    convolve_n,
    extract_distribution,
    integer_distribution,
    occupied_levels,
    overlap_copy_count,
    shift,
    snap_levels,
    tp_distance,
    translated_poisson,
    tv_distance,
)
from .convert import (
    ConversionPlan,
    best_shift,
    coherence_cost,
    iid_sweep,
    intrinsic_clock,
    max_rate,
)
from .channels import (
    KrausChannel,
    MonotonicityReport,
    apply,
    kraus_channel,
    monotonicity_suite,
    random_channel,
    twirl,
)
from .distill import (
    BlockSum,
    OmegaState,
    SdpResult,
    SectorMatrix,
    cirac_comparison,
    conditional_min_entropy,
    distillation_copy_floor,
    iid_fidelity,
    iid_omega_state,
    is_bound_resource,
    qubit_infidelity_bound,
    verify_certificate,
)

__version__ = "0.1.0"
