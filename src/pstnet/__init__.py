"""State transfer in circulant waveguide networks.

Models rings of coupled single-mode waveguides whose coupling matrix is
circulant and therefore diagonal in the discrete Fourier basis.
Provides exact Fourier-mode spectra and degeneracy histograms, exact
propagators with perfect-transfer checks, single-photon and cat-state
transport, Gaussian covariance transport of two-mode squeezing, and
synthesis of the transfer-enabling coupling profile from far-detuned
auxiliary modes.  The names imported below are the public API.
"""

from .fock import (
    CatState,
    DegenerateCatError,
    cat_fidelity,
    cat_fidelity_scan,
    cat_normalization,
    photon_numbers,
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
)
from .lattice import (
    CouplingProfile,
    NetworkSpec,
    coupling_matrix,
    custom_profile,
    evanescent_profile,
    uniform_profile,
)
from .propagation import (
    Propagator,
    PstReport,
    ScanResult,
    check_pst,
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
    opposite_site_spectrum,
)
from .synthesis import (
    AuxiliaryPairs,
    SynthesisProblem,
    SynthesisSolution,
    constraint_matrix,
    effective_couplings,
    physical_parameters,
    solve_weights,
    verify_synthesis,
)

__version__ = "0.1.0"
