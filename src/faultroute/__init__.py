"""Stability and throughput analysis for dynamic routing over two parallel
links whose density sensors fail and recover at random."""

from .bounds import (
    FailureModel,
    GPolynomial,
    capacity_gap_curves,
    correlation_bound,
    correlation_curve,
    failure_rate_bound,
    failure_rate_curve,
    g_eval,
    g_monotonicity_check,
    hetero_lower_bound,
    hetero_lower_bound_piecewise,
    hetero_upper_reference,
    hetero_witness,
    homogeneous_lower_bound,
    product_chain,
    rates_from_probs,
)
from .errors import (
    CertificateError,
    ErgodicityError,
    NumericsError,
    ParameterError,
    WitnessError,
)
from .model import (
    NetworkParams,
    fault_map,
    flow,
    routing_fraction,
    stationary_distribution,
    validate_mode_probs,
    validate_rate_matrix,
    vector_field,
)
from .sim import (
    ProbeResult,
    ScanResult,
    SimConfig,
    Trajectory,
    integrate_mode,
    occupancy_batches,
    simulate,
    stability_probe,
    throughput_scan,
)
from .stability import (
    InvariantSetReport,
    LyapunovCertificate,
    NecessaryReport,
    StabilityVerdict,
    ThetaWitness,
    ThroughputBounds,
    congestion_floors,
    generator_value,
    invariant_set_check,
    lyapunov_certificate,
    mode_drift_maxima,
    necessary_condition,
    necessary_upper_bound,
    solve_congestion_floor,
    stability_verdict,
    sufficient_search,
    sufficient_value,
    throughput_bounds,
)

__version__ = "0.12.0"
