"""Uniform IDS approximation on Cayley graphs with computable error certificates.

The package computes normalised eigenvalue counting functions of finite-range,
colouring-invariant operators restricted to Folner volumes of Z^d or the
discrete Heisenberg group, together with a fully computable four-term bound
on their supremum distance to the limiting spectral distribution function.
"""

from .cayley import (
    FiniteSet,
    FreeAbelian,
    GroupModel,
    Heisenberg3,
    TilingSpec,
    boundary,
    boundary_ext,
    boundary_int,
    boundary_int_size,
    boundary_size,
    folner_set,
    grid_cover,
    grow,
    interval_folner,
    shrink,
)
from .colouring import (
    Alphabet,
    Colouring,
    EmpiricalFrequencies,
    ExplicitColouring,
    FrequencyProvider,
    HalfLineMod3,
    HalfLineMod3Window,
    Pattern,
    PatternClass,
    PercolationColouring,
    PercolationFrequencies,
    PeriodicFoldColouring,
    TrivialColouring,
    TrivialFrequencies,
    canonicalize,
    empirical_frequency,
    frequency_deviation,
    occurring_pattern_spectrum,
)
from .ergodic import (
    AlmostAdditive,
    StepFunction,
    check_almost_additive,
    delta_estimate,
    ergodic_average,
    frequency_approximant,
    measured_delta,
    sup_distance,
)
from .ids import (
    ErrorCertificate,
    IdsApproximant,
    TestFunction,
    continuity_gap,
    counting_functions,
    eigenvalue_count_function,
    frequency_side_ids,
    ids_approximant,
    ids_approximants,
    ids_certificate,
)
from .operators import (
    LocalRule,
    RestrictedMatrix,
    adjacency_rule,
    laplacian_rule,
    offset_table_rule,
    percolation_rule,
    principal_restriction,
    restrict_operator,
)
from .spectra import (
    ComponentSpectrum,
    component_spectrum,
    eigenvalues,
    projection_truncation_gap,
    quasi_mode_count,
    rank_perturbation_gap,
)

__version__ = "0.1.0"
