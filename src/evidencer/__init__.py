"""Mass-univariate Bayesian model assessment for general linear models.

Cross-validated log model evidence with accuracy/complexity split, family
evidence aggregation, group-level random-effects model selection with
exceedance probabilities, and cross-validated model averaging — as a
library plus a batch command line (``evidencer``).
"""

__version__ = "0.1.0"

from .bma import BetaStack, PosteriorProbs, cv_bma, oos_bma, posterior_probabilities
from .dataio import (
    LabeledMatrix,
    ModelSpaceConfig,
    ResultTable,
    load_config,
    load_matrix,
    save_matrix,
)
from .pipeline import RunOptions, run_pipeline, supported_stages
from .crossval import (
    CvResult,
    SessionLayout,
    cv_lme_models,
    split_glm_spec,
    split_single_session,
)
from .distributions import NgParams, gamma_moments, kl_gamma, kl_mvn
from .errors import (
    ConfigError,
    DecompositionError,
    DomainError,
    EstimationError,
    EvidencerError,
    LayoutError,
    NumericalError,
    ParseError,
)
from .family import FamilyPartition, log_family_evidence
from .glm import (
    GlmSpec,
    SessionStats,
    accuracy,
    complexity,
    log_model_evidence,
    posterior_update,
    response_stats,
)
from .rfx import (
    DirichletPosterior,
    GroupLmeStack,
    ep_beta_closed_form,
    ep_integration_stack,
    ep_sampling,
    ep_sampling_stack,
    estimate_rfx,
)
from .special import (
    digamma,
    log_gamma,
    log_sum_exp,
    reg_incomplete_beta,
    reg_lower_incomplete_gamma,
)

__all__ = [
    "__version__",
    # special functions
    "log_gamma",
    "digamma",
    "reg_lower_incomplete_gamma",
    "reg_incomplete_beta",
    "log_sum_exp",
    # distributions
    "NgParams",
    "kl_mvn",
    "kl_gamma",
    "gamma_moments",
    # glm
    "GlmSpec",
    "SessionStats",
    "response_stats",
    "posterior_update",
    "log_model_evidence",
    "accuracy",
    "complexity",
    # cross-validation
    "SessionLayout",
    "CvResult",
    "split_single_session",
    "split_glm_spec",
    "cv_lme_models",
    # families
    "FamilyPartition",
    "log_family_evidence",
    # group selection
    "GroupLmeStack",
    "DirichletPosterior",
    "estimate_rfx",
    "ep_beta_closed_form",
    "ep_sampling",
    "ep_sampling_stack",
    "ep_integration_stack",
    # averaging
    "BetaStack",
    "PosteriorProbs",
    "posterior_probabilities",
    "cv_bma",
    "oos_bma",
    # io and pipeline
    "LabeledMatrix",
    "ResultTable",
    "ModelSpaceConfig",
    "load_matrix",
    "save_matrix",
    "load_config",
    "RunOptions",
    "run_pipeline",
    "supported_stages",
    # errors
    "EvidencerError",
    "DomainError",
    "DecompositionError",
    "EstimationError",
    "LayoutError",
    "ParseError",
    "NumericalError",
    "ConfigError",
]
