"""Classicality analysis of prepare-measure GPT fragments.

Decides whether finite prepare-measure experiments admit a classical
(noncontextual) explanation: discovers operational identities, tests
simplex-embeddability by linear programming, extracts explicit
ontological models or violated noncontextuality inequalities as
certificates, quantifies robustness, repairs noisy data with secondary
procedures, and fits fragments from raw counts by theory-agnostic
tomography.
"""

from .embedding import (
    AccessibleFragment,
    EmbeddingCertificate,
    EmbedResult,
    RobustnessResult,
    accessibilize,
    accessible_identities,
    robustness,
    test_embeddability,
    to_model,
    violated_inequality,
)
from .errors import ClassicalityError, FormatError, NumericalError, ResourceLimitError
from .fragments import (
    Fragment,
    GptVector,
    Measurement,
    StatisticsTable,
    partial_trace,
    predict,
    tensor,
    validate,
)
from .identities import (
    OperationalIdentity,
    find_identities,
    induced_marginal_identities,
)
from .models import OntologicalModel, verify_model
from .noncontextuality import (
    MembershipResult,
    NoncontextualityInequality,
    evaluate,
    membership,
    response_vertices,
)
from .scenarios import build
from .secondary import SecondarySolution, secondary_effects, secondary_states
from .tomography import CountTable, FitResult, fit, synth, verdict_pipeline

__all__ = [
    "AccessibleFragment",
    "ClassicalityError",
    "CountTable",
    "EmbedResult",
    "EmbeddingCertificate",
    "FitResult",
    "FormatError",
    "Fragment",
    "GptVector",
    "Measurement",
    "MembershipResult",
    "NoncontextualityInequality",
    "NumericalError",
    "OntologicalModel",
    "OperationalIdentity",
    "ResourceLimitError",
    "RobustnessResult",
    "SecondarySolution",
    "StatisticsTable",
    "accessibilize",
    "accessible_identities",
    "build",
    "evaluate",
    "find_identities",
    "fit",
    "induced_marginal_identities",
    "membership",
    "partial_trace",
    "predict",
    "response_vertices",
    "robustness",
    "secondary_effects",
    "secondary_states",
    "synth",
    "tensor",
    "test_embeddability",
    "to_model",
    "validate",
    "verdict_pipeline",
    "verify_model",
    "violated_inequality",
]

__version__ = "0.1.0"
