"""References the tests compare the package against.

``expm_propagator`` takes the matrix exponential of the dense coupling
matrix in 30-digit arithmetic: no FFT and no eigensolver.
``closed_form_amplitude`` is the paper's closed form for the uniform
profile with range N/2 - 1.  ``spectral_sum`` is the amplitude's sum
over all N Fourier modes, term by term in 30-digit arithmetic.
"""

import mpmath
import numpy as np

from pstnet import coupling_matrix, dispersion


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


def spectral_sum(spec, zs, offsets):
    """``(1/N) sum_p exp(-i lambda_p z) exp(i 2 pi p d / N)`` for each z and offset d.

    Every one of the N terms is taken in 30-digit arithmetic from the
    float eigenvalues of ``spec``, with no grouping; returns an array of
    shape (len(zs), len(offsets)).
    """
    lam = dispersion(spec).eigenvalues
    n = spec.n_modes
    with mpmath.workdps(30):
        fourier = [[mpmath.expjpi(mpmath.mpf(2 * (p * d % n)) / n) for p in range(n)]
                   for d in offsets]
        rows = []
        for z in zs:
            phases = [mpmath.expj(-mpmath.mpf(float(v)) * mpmath.mpf(float(z))) for v in lam]
            rows.append([complex(mpmath.fsum(e * f for e, f in zip(phases, col)) / n)
                         for col in fourier])
        return np.array(rows)
