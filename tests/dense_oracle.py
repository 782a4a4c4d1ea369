"""The dense spectrum, the oracle of ``pencil_eigenvalues``.

``dense_eigenvalues`` solves the 2n x 2n modal generator of
``spectral._modal_generator`` with LAPACK's ``eigvals``.  Each value has an
absolute error near eps max|lambda|; at low frequency the undamped modes
it is built from add an error near eps max|lambda|^2 / |lambda|.
"""

import numpy as np
import scipy.linalg as sla

from platedecay import spectral


def dense_eigenvalues(system):
    """Every eigenvalue of the generator, sorted by imaginary part, then by
    real part, as ``pencil_eigenvalues`` sorts them."""
    omega, Phi = spectral._undamped_modes(system)
    lam = sla.eigvals(spectral._modal_generator(omega, Phi, system.D))
    return lam[np.lexsort((lam.real, lam.imag))]
