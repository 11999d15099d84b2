"""Matrix-coefficient oscillator problems reduced to holomorphic ODEs on
the unit disk: pencil partial fractions, disk-automorphism covariance,
Heun-type scalar data, and spectra by truncation and by a connection
matrix."""

from .covariance import (
    INFINITY,
    Su11Element,
    apply_transcript,
    chordal_distance,
    gauge_problem,
    inverse_transcript,
    is_infinity,
    mobius_apply,
    normalize_problem,
    standardize_p2,
    transform_ab,
    transform_problem,
)
from .errors import (
    ContinuationError,
    ContractViolation,
    ConvergenceError,
    DegeneratePencil,
    NotGenericError,
    PositivityError,
    RefinementError,
    SchemaError,
    SimplePoleViolation,
    SolverError,
)
from .fuchsian import (
    FuchsianSystem,
    build_fuchsian,
    exponents_at,
    residue_at_infinity_formula,
    transform_fuchsian,
)
from .heun import (
    HeunParameters,
    RabiParameters,
    apparent_singularity_residual,
    beta_gamma_closed_forms,
    confluence_residuals,
    confluent_limit_params,
    heun_equation_4pt,
    heun_like_parameters,
    quantization_check,
    rabi_jc_map,
    standard_ncho_problem,
)
from .linalg import (
    eigen_banded_lowest,
    eigenvector_banded,
    is_hermitian,
    is_positive_definite,
    is_unitary,
)
from .pencil import (
    NchoProblem,
    IdentityReport,
    PencilDecomposition,
    PositivityCertificate,
    a123_from_ab,
    ab_from_a123,
    mu_from_harmonic,
    pencil_kernel,
    positivity_margin,
    verify_pencil_identities,
)
from .spectral import (
    SpectrumResult,
    build_truncated,
    confluence_sweep,
    connection_matrix,
    eigenfunction_profile,
    laguerre_mode,
    rabi_truncated_spectrum,
    spectrum_connection,
    spectrum_truncated,
)

__version__ = "0.1.0"
