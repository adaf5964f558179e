"""Block-sparse support recovery by greedy pursuit, with exact analysis tools.

The package covers the full arc of the recovery question: run the pursuit
(:mod:`bomp.solver`), measure how close a dictionary is to a block isometry
(:mod:`bomp.rip`), evaluate the sufficient and necessary magnitude
thresholds (:mod:`bomp.bounds`), construct instances that defeat the
pursuit right at the necessary threshold (:mod:`bomp.adversarial`),
numerically certify the identities behind the guarantee
(:mod:`bomp.proofs`), and run seeded recovery experiments
(:mod:`bomp.experiment`).
"""

from .adversarial import (
    AdversarialParams,
    FailureReport,
    build_adversarial_instance,
    build_matrix,
    closed_form_spectrum,
    demonstrate_failure,
)
from .bounds import (
    BoundInputs,
    SufficiencyVerdict,
    check_sufficient,
    figure1_curves,
    necessary_bound,
    verify_inequality_20,
    z1_sufficient_bound,
    z2_prior_bound,
)
from .core import (
    BlockedMatrix,
    BlockLayout,
    BlockSignal,
    SensingProblem,
    block_norms,
    block_support,
    extract_blocks,
    mixed_norm,
)
from .errors import (
    BompError,
    BudgetExceededError,
    DegenerateProbeError,
    InfeasibleError,
    RankDeficientError,
)
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    TrialRecord,
    generate_instance,
    run_experiment,
)
from .io import load_layout, load_matrix, load_vector, save_layout, save_matrix, save_vector
from .proofs import (
    Lemma1Report,
    ProofInstance,
    eta_direct,
    eta_via_identity,
    lemma1_check,
    random_proof_instance,
    run_proof_verification,
)
from .rip import RipReport, enumeration_cost, exact_block_rip, rip_lower_bound_sampled
from .solver import (
    RecoveryTrace,
    StoppingRule,
    block_correlation_scores,
    project_least_squares,
    run_bomp,
    select_block,
)

__version__ = "0.1.0"

__all__ = [
    "AdversarialParams",
    "BlockLayout",
    "BlockSignal",
    "BlockedMatrix",
    "BompError",
    "BoundInputs",
    "BudgetExceededError",
    "DegenerateProbeError",
    "ExperimentConfig",
    "ExperimentResult",
    "FailureReport",
    "InfeasibleError",
    "Lemma1Report",
    "ProofInstance",
    "RankDeficientError",
    "RecoveryTrace",
    "RipReport",
    "SensingProblem",
    "StoppingRule",
    "SufficiencyVerdict",
    "TrialRecord",
    "block_correlation_scores",
    "block_norms",
    "block_support",
    "build_adversarial_instance",
    "build_matrix",
    "check_sufficient",
    "closed_form_spectrum",
    "demonstrate_failure",
    "enumeration_cost",
    "eta_direct",
    "eta_via_identity",
    "exact_block_rip",
    "extract_blocks",
    "figure1_curves",
    "generate_instance",
    "lemma1_check",
    "load_layout",
    "load_matrix",
    "load_vector",
    "mixed_norm",
    "necessary_bound",
    "project_least_squares",
    "random_proof_instance",
    "rip_lower_bound_sampled",
    "run_bomp",
    "run_experiment",
    "run_proof_verification",
    "save_layout",
    "save_matrix",
    "save_vector",
    "select_block",
    "verify_inequality_20",
    "z1_sufficient_bound",
    "z2_prior_bound",
]
