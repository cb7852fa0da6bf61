"""State transfer in circulant waveguide networks.

Models rings of coupled single-mode waveguides whose coupling matrix is
circulant and therefore diagonal in the discrete Fourier basis.
Provides exact Fourier-mode spectra and degeneracy histograms, exact
propagators with perfect-transfer checks, single-photon and cat-state
transport, Gaussian covariance transport of two-mode squeezing, and
synthesis of the transfer-enabling coupling profile from far-detuned
auxiliary modes.
"""

from .fock import (
    CatState,
    DegenerateCatError,
    cat_fidelity,
    cat_fidelity_scan,
    cat_normalization,
    photon_numbers,
    pst_cat_fidelity,
)
from .gaussian import (
    CovarianceState,
    SymplecticEvolution,
    TmsvParams,
    evolve_covariance,
    pair_squeezing,
    squeezing_factor,
    symplectic_eigenvalues,
    symplectic_form,
    symplectic_from_propagator,
    tmsv_covariance,
    vacuum_covariance,
)
from .lattice import (
    CouplingProfile,
    NetworkSpec,
    coupling_matrix,
    custom_profile,
    evanescent_profile,
    mu_from_separation,
    uniform_profile,
)
from .propagation import (
    Propagator,
    PstReport,
    ScanResult,
    check_pst,
    closed_form_amplitude,
    ode_oracle,
    offset_amplitudes,
    propagator,
    pst_distance,
    transfer_scan,
)
from .spectral import (
    DegeneracyBin,
    DegeneracyHistogram,
    Spectrum,
    collapsed_spectrum,
    degeneracy_histogram,
    default_bin_tolerance,
    dispersion,
    fourier_matrix,
    opposite_site_spectrum,
)
from .synthesis import (
    AuxiliaryMode,
    SynthesisProblem,
    SynthesisSolution,
    constraint_matrix,
    effective_couplings,
    physical_parameters,
    solve_weights,
    verify_synthesis,
)

__version__ = "0.1.0"

__all__ = [
    "CatState",
    "CouplingProfile",
    "CovarianceState",
    "DegeneracyBin",
    "DegeneracyHistogram",
    "DegenerateCatError",
    "NetworkSpec",
    "Propagator",
    "PstReport",
    "ScanResult",
    "Spectrum",
    "SymplecticEvolution",
    "SynthesisProblem",
    "SynthesisSolution",
    "AuxiliaryMode",
    "TmsvParams",
    "cat_fidelity",
    "cat_fidelity_scan",
    "cat_normalization",
    "check_pst",
    "closed_form_amplitude",
    "collapsed_spectrum",
    "constraint_matrix",
    "coupling_matrix",
    "custom_profile",
    "default_bin_tolerance",
    "degeneracy_histogram",
    "dispersion",
    "effective_couplings",
    "evanescent_profile",
    "evolve_covariance",
    "fourier_matrix",
    "mu_from_separation",
    "ode_oracle",
    "offset_amplitudes",
    "opposite_site_spectrum",
    "pair_squeezing",
    "photon_numbers",
    "physical_parameters",
    "propagator",
    "pst_cat_fidelity",
    "pst_distance",
    "solve_weights",
    "squeezing_factor",
    "symplectic_eigenvalues",
    "symplectic_form",
    "symplectic_from_propagator",
    "tmsv_covariance",
    "transfer_scan",
    "uniform_profile",
    "vacuum_covariance",
    "verify_synthesis",
]
