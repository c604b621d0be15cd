"""Exact classical-representability checks for correlation data.

The package decides whether a correlation vector admits a finite classical
probability representation (equivalently, membership in the classical
correlation polytope), evaluates the four-event Clauser-Horne system,
computes conditional and effective probabilities for switch-driven quantum
measurement setups, and builds the explicit probability space that carries
the effective statistics.
"""

from .censorship import (
    CensoredSpace,
    EffectiveVector,
    MeasurementSuite,
    SetupDistribution,
    VerificationReport,
    assemble_effective_vector,
    build_censored_space,
    compute_compatibility,
    context_space,
    effective_decomposition,
    effective_probability,
    switch_probability,
    validate_distribution,
    verify_censorship,
)
from .ch import ChInequality, ChReport, ch_evaluate, ch_scheme
from .errors import (
    DimMismatch,
    IncompatibleContext,
    IncompatibleSupport,
    InvalidDirection,
    InvalidDistribution,
    KolmorepError,
    NumericalFailure,
    SchemaError,
    SchemeMismatch,
    TooLarge,
    UnknownEvent,
)
from .polytope import (
    ConjunctionScheme,
    CorrelationVector,
    Inside,
    KolmogorovSpace,
    Outside,
    certificate_is_valid,
    evaluate,
    membership,
    representation_from_weights,
    vertex,
)
from .quantum import (
    Operator,
    born,
    commutes,
    complement,
    direction,
    identity,
    singlet_density,
    spin_projector_up,
    tensor,
)
from .rational import DEFAULT_POLICY, RationalizationPolicy, format_rational, parse_rational, rationalize
from .simulation import FrequencyEstimate, TrialRecord, Trials, estimate, run

__version__ = "0.1.0"
