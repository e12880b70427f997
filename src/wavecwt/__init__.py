"""Continuous wavelet analysis and synthesis for the 3-D wave equation.

Decompose square-integrable solutions into similitude-group families of
localized exact solutions ("physical wavelets"), reconstruct solutions and
solve initial-value problems from the coefficients, and verify everything
against a Fourier spectral reference.
"""

from .admissibility import (
    AdmissibilityReport,
    admissibility_constant,
    admissibility_constant_from_proxy,
    bessel_k,
    cross_admissibility_constant,
)
from .cwt import (
    ParameterGrid,
    WaveletCoefficients,
    analyze,
    analyze_initial_data,
    build_parameter_grid,
    combine_initial_coefficients,
    isometry_defect,
    make_parameter_grid,
    refine,
    suggest_dilation_range,
    transform_pairing,
    weighted_pairing,
)
from .errors import (
    AdmissibilityError,
    EvaluatorMissingError,
    GridMismatchError,
    NonFiniteFieldError,
    ValidationError,
    WavecwtError,
)
from .fields import (
    ComplexField3,
    Grid3,
    SolutionSpectrum,
    SpectralField3,
    fft3,
    ifft3,
    inner_product,
    norm,
    propagate,
    solution_from_minus,
    solution_from_plus,
    spectral_inner_product,
    split_ivp,
)
from .fileio import (
    create_coefficients,
    open_coefficients,
    read_coefficients,
    read_field,
    write_coefficients,
    write_field,
)
from .oracle import ErrorReport, compare, dalembert_residual, fourier_ivp, spectrum_selfcheck
from .synthesis import project, reconstruct, reconstruct_cross, reconstruct_spectrum, solve_ivp
from .wavelets import (
    CATALOG_NAMES,
    PhysicalWavelet,
    ProxyWavelet,
    WaveletParams,
    bateman_from_proxy,
    exp_spherical_wavelet,
    exponential_proxy,
    family_position,
    family_spectral,
    gaussian_packet,
    gaussian_packet_proxy,
    kaiser_proxy,
    kaiser_wavelet,
    make_wavelet,
    morlet_asymptote,
    rotation_matrix,
    spherical_from_proxy,
    time_antiderivative_wavelet,
    time_derivative_wavelet,
    time_reverse,
)

__version__ = "0.1.0"
