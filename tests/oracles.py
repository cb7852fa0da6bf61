"""References the tests compare the package against.

``expm_propagator`` takes the matrix exponential of the dense coupling
matrix in 30-digit arithmetic: no FFT and no eigensolver.
``closed_form_amplitude`` is the paper's closed form for the uniform
profile with range N/2 - 1.
"""

import mpmath
import numpy as np

from pstnet import coupling_matrix


def expm_propagator(spec, z):
    """``exp(-i z M)`` with M the dense coupling matrix of ``spec``."""
    with mpmath.workdps(30):
        u = mpmath.expm(-1j * mpmath.mpf(z) * mpmath.matrix(coupling_matrix(spec).tolist()))
        return np.array(u.tolist(), dtype=complex)


def closed_form_amplitude(n_modes, strength, offset, z):
    """Amplitude at offset d of the uniform ring with range N/2 - 1, even N.

    Only the return site (d = 0) and the opposite site (d = N/2) carry
    delta terms:

        U = (1/N) [ exp(-iC(N-2)z) + (N/2)(d0 - dh)
                    + exp(i2Cz) ((N/2)(d0 + dh) - 1) ]
    """
    d = offset % n_modes
    d0 = float(d == 0)
    dh = float(d == n_modes // 2)
    half = n_modes / 2
    value = (
        np.exp(-1j * strength * (n_modes - 2) * z)
        + half * (d0 - dh)
        + np.exp(2j * strength * z) * (half * (d0 + dh) - 1.0)
    )
    return complex(value / n_modes)
