"""Desk-scale simulator and verification harness for Byzantine-robust
distributed SGD with local momentum, robust aggregation, and exact
lower-bound constructions."""

from .aggregators import (
    ORACLE_VARIANTS,
    RULES,
    AggregatorSpec,
    OracleContext,
    RobustnessEstimate,
    aggregate,
    estimate_kappa,
)
from .attacks import (
    DEFAULT_ALIE_CANDIDATES,
    AdversaryView,
    AttackSpec,
    alie,
    label_flip,
    sign_flip,
)
from .configfile import (
    LoadedConfig,
    load_run_config,
    parse_config_text,
    render_config,
)
from .core import (
    ConfigurationError,
    ContractViolation,
    DataError,
    DenseVector,
    NumericFailure,
    RngStream,
    RunConfig,
    WorkerPopulation,
)
from .problems import (
    Analytic,
    CertifyResult,
    NoiseModel,
    ProblemInstance,
    QuadraticLocal,
    build_classification_task,
    build_hetero_lower_bound,
    build_noise_lower_bound,
    build_random_quadratic_family,
    build_synthetic_family,
    certify_dissimilarity,
    with_noise,
)
from .sweep import SweepResult, SweepSpec, load_sweep, run_sweep
from .trainer import (
    LyapunovTrace,
    RunRecord,
    ScheduleSpec,
    lyapunov_trace,
    pl_schedule_for_momentum,
    pl_schedule_for_plain,
    run,
    run_noise_floor_replicates,
    schedules,
    track_lyapunov,
)
from .verify import (
    ReportRow,
    VerificationReport,
    noise_floor_exact_moments,
    run_verification,
)

__version__ = "0.1.0"

__all__ = [
    "AggregatorSpec", "OracleContext", "RobustnessEstimate", "RULES",
    "ORACLE_VARIANTS", "aggregate", "estimate_kappa",
    "AttackSpec", "AdversaryView", "DEFAULT_ALIE_CANDIDATES",
    "alie", "label_flip", "sign_flip",
    "LoadedConfig", "load_run_config", "parse_config_text",
    "render_config",
    "ConfigurationError", "ContractViolation", "DataError", "DenseVector",
    "NumericFailure", "RngStream", "RunConfig", "WorkerPopulation",
    "Analytic", "CertifyResult", "NoiseModel", "ProblemInstance",
    "QuadraticLocal", "build_classification_task", "build_hetero_lower_bound",
    "build_noise_lower_bound", "build_random_quadratic_family",
    "build_synthetic_family", "certify_dissimilarity",
    "with_noise",
    "SweepResult", "SweepSpec", "load_sweep", "run_sweep",
    "LyapunovTrace", "RunRecord", "ScheduleSpec", "lyapunov_trace",
    "pl_schedule_for_momentum", "pl_schedule_for_plain", "run",
    "run_noise_floor_replicates", "schedules",
    "track_lyapunov",
    "ReportRow", "VerificationReport", "noise_floor_exact_moments",
    "run_verification",
    "__version__",
]
