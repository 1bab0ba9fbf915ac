"""epifront: two-front free-boundary epidemic invasion simulator.

Simulates the coupled bacteria/infective system on an expanding habitat
whose fronts obey Stefan conditions, classifies runs as spreading or
vanishing via the habitat-dependent reproduction number, and brackets
the sharp threshold in initial size and in front response by bisection.
"""

from .analysis import (
    BoundCertificate,
    Classification,
    Evidence,
    Monitors,
    Verdict,
    bound_certificate,
    classify,
    equilibrium_convergence,
    mass_balance_residual,
)
from .errors import (
    BlowUpError,
    CertificateError,
    ConfigError,
    DomainError,
    EpifrontError,
    InvalidResponseError,
    MonitorViolation,
    ThresholdUndefinedError,
)
from .model import (
    InfectionResponse,
    InitialData,
    ModelParams,
    ResponseReport,
    SmallDataBound,
    SpreadingBound,
    basic_reproduction_number,
    critical_width,
    endemic_equilibrium,
    free_boundary_reproduction_number,
    principal_eigenvalue,
    small_data_vanishing_bound,
    spreading_subsolution_delta,
    validate_response,
)
from .oracle import OdeSeries, RefinementResult, dominance_check, eigen_check, ode_solve, refinement_study
from .solver import (
    Frame,
    SolverConfig,
    Trajectory,
    front_speeds,
    initial_state,
    sample_physical,
    simulate,
    simulate_batch,
    step,
)
from .threshold import (
    BisectConfig,
    ProbeRecord,
    SweepCell,
    ThresholdResult,
    find_threshold,
    sweep,
)

__version__ = "0.1.0"
