"""Independent brute-force oracles for the test suite.

These deliberately avoid the closed forms used by the package: the matrix
exponential is a truncated power series over plain matrix products, so
agreement between the two is a real cross-check rather than a tautology.
"""

import numpy as np


def matexp_taylor(a, terms: int = 20) -> np.ndarray:
    """Matrix exponential from the 20-term power series.

    The argument is halved until its norm is below 0.25 and the result squared
    back up, which keeps the truncation error of the series at machine
    precision for every input this suite uses. (A plain 20-term sum at norm
    pi would leave a tail near 5e-10, swamping the tolerances under test.)
    """
    a = np.asarray(a, dtype=float)
    norm = float(np.linalg.norm(a))
    squarings = 0
    while norm > 0.25:
        norm /= 2.0
        squarings += 1
    x = a / (2.0 ** squarings)
    result = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms + 1):
        term = term @ x / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def hat_oracle(v) -> np.ndarray:
    """Skew matrix defined through its action: rows of cross products."""
    v = np.asarray(v, dtype=float)
    basis = np.eye(3)
    return np.column_stack([np.cross(v, basis[i]) for i in range(3)])


def twist_matrix(omega, vel) -> np.ndarray:
    """4x4 embedding of a twist, built independently of the package."""
    m = np.zeros((4, 4))
    m[:3, :3] = hat_oracle(omega)
    m[:3, 3] = np.asarray(vel, dtype=float)
    return m


def landmark_moments(r_hat, y, alpha, e) -> np.ndarray:
    """The alpha-weighted moments of the landmark rows as one (..., 4, 7)
    product, the form the observer computed them in before it split them.

    With the rows z_i = (y_i, 1, R_hat^T e_i) this is
    sum_i z_i[:4] z_i^T / alpha_i: columns 0-3 are the Gram matrix of the
    implicit solve and columns 4-6 the innovation moments G.
    """
    z = np.empty((*e.shape[:-1], 7))
    z[..., :3] = y
    z[..., 3] = 1.0
    z[..., 4:] = e @ r_hat
    return (z[..., :4].swapaxes(-1, -2) / alpha[..., None, :]) @ z
