"""Conservative fusion of unbiased partial state estimates.

Fuses two estimates of projections of a common state into one full-state
estimate whose reported covariance stays conservative for every admissible
error cross covariance, with provably optimal weight selection for the
determinant and trace costs, plus numerical certification machinery and a
distributed-fusion simulator.
"""

from .errors import CiFusionError
from .known_cross import (
    JointCovariance,
    KnownCrossResult,
    optimal_fusion_known_cross,
)
from .linalg import (
    LoewnerRelation,
    PsdMatrix,
    adjugate,
    loewner_compare,
    psd_certify,
)
from .optimizer import (
    FusionResult,
    delta_value,
    ku_rule,
    solve_ci,
    solve_ci_det,
    solve_ci_trace,
)
from .problem import Cost, FusionProblem, PartialEstimate
from .simulator import NoiseSpec, Schedule, init_network, make_schedule, run_schedule
from .verifier import (
    ConservativenessCertificate,
    adversarial_x_search,
    certify,
    lmi_certificate,
    monte_carlo_joint,
    petersen_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "CiFusionError",
    "ConservativenessCertificate",
    "Cost",
    "FusionProblem",
    "FusionResult",
    "JointCovariance",
    "KnownCrossResult",
    "LoewnerRelation",
    "NoiseSpec",
    "PartialEstimate",
    "PsdMatrix",
    "Schedule",
    "adjugate",
    "adversarial_x_search",
    "certify",
    "delta_value",
    "init_network",
    "ku_rule",
    "lmi_certificate",
    "loewner_compare",
    "make_schedule",
    "monte_carlo_joint",
    "optimal_fusion_known_cross",
    "petersen_certificate",
    "psd_certify",
    "run_schedule",
    "solve_ci",
    "solve_ci_det",
    "solve_ci_trace",
]
