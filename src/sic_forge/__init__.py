"""Numerical toolkit for Weyl-Heisenberg SIC sets and prime-dimension MUBs.

Subpackages, bottom up: :mod:`~sic_forge.wh` builds clock/shift/displacement
operators; :mod:`~sic_forge.operator_space` measures how orthonormal a family
of PSD operators can be; :mod:`~sic_forge.verify` certifies fiducial vectors
and constructs SIC sets; :mod:`~sic_forge.search` hunts for fiducials by
minimizing the overlap residual over the unit sphere; :mod:`~sic_forge.geometry`
moves states between density matrices and SIC-probability coordinates;
:mod:`~sic_forge.mubs` builds complete mutually unbiased bases and uncertainty
profiles; :mod:`~sic_forge.cli` and :mod:`~sic_forge.files` expose everything
as reproducible command-line runs over JSON artifacts.
"""

from .wh import (
    PhaseConstants,
    as_state_vector,
    build_clock,
    build_shift,
    canonical_index,
    check_dim,
    displace_state,
    displacement,
    phase_constants,
)
from .operator_space import (
    KtReport,
    OperatorSet,
    QuasiOnbReport,
    frame_potential,
    hs_inner,
    kt_lower_bound,
    kt_measure,
    operator_set,
    projectors_from_vectors,
    quasi_onb_certify,
)
from .verify import (
    FourierIdentityCheck,
    GramOverlaps,
    SicSet,
    build_sic_set,
    fourier_identity_check,
    gram_overlaps,
    gram_residual,
    quartic_defects,
    quartic_residual,
    quartic_target,
)
from .search import (
    RestartOutcome,
    SearchConfig,
    SicCandidate,
    objective,
    objective_gradient,
    polish,
    search,
    search_detailed,
)
from .geometry import (
    STRUCTURE_TENSOR_MAX_DIM,
    ReconstructedDensity,
    StructureTensor,
    check_density_matrix,
    check_probability_vector,
    is_pure_probability_vector,
    purity_cubic_residual,
    purity_cubic_target,
    purity_quadratic_residual,
    purity_quadratic_target,
    reconstruct_density,
    sic_probabilities,
    structure_coefficients,
)
from .mubs import (
    MubSet,
    UncertaintyProfile,
    build_mubs,
    is_minimum_uncertainty,
    is_prime,
    minimum_uncertainty_target,
    unbiasedness_residual,
    uncertainty_profile,
)

__version__ = "0.1.0"
