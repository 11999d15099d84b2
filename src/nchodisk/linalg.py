"""Dense complex linear algebra on small matrices (phase normalization,
Hermitian checks and inverse square roots) and the banded Hermitian
eigensolvers of the truncated operators.

Matrices are plain ``numpy.ndarray`` objects with complex128 entries.  A
banded Hermitian matrix H is stored as its lower band, ``band[d, j] =
H[j + d, j]`` (the layout of ``scipy.linalg.eig_banded`` with lower=True).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eig_banded, solve_banded

from .errors import ContractViolation

__all__ = [
    "as_matrix",
    "is_hermitian",
    "is_positive_definite",
    "is_unitary",
    "fix_phase",
    "block_band",
    "band_to_dense",
    "eigen_banded_lowest",
    "eigenvector_banded",
    "hermitian_inv_sqrt",
]


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ContractViolation(f"expected a matrix, got array of ndim {a.ndim}")
    # products of two entries, as in norms and the pencil linearization, must
    # not overflow; NaN fails the comparison too
    if not np.abs(a).max(initial=0.0) <= 1e150:
        raise ContractViolation("matrix entries must be finite and at most 1e150 in modulus")
    return a


def _square(m) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ContractViolation(f"expected a square matrix, got shape {a.shape}")
    return a


def is_hermitian(m) -> bool:
    a = _square(m)
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    return float(np.max(np.abs(a - a.conj().T))) <= 1e-10 * scale


def is_positive_definite(m) -> bool:
    a = _square(m)
    if not is_hermitian(a):
        return False
    w = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
    return float(w[0]) > 1e-10 * max(1.0, float(np.max(np.abs(a))))


def is_unitary(m) -> bool:
    a = _square(m)
    return float(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0])))) <= 1e-10


def fix_phase(v: np.ndarray) -> np.ndarray:
    """v divided by the phase of its first entry whose modulus is within a
    relative 1e-9 of the largest, so round-off cannot move the choice
    between entries that tie.  A stack of vectors along the last axis is
    fixed vector by vector."""
    mod = np.abs(v)
    i = np.argmax(mod >= (1.0 - 1e-9) * mod.max(axis=-1, keepdims=True), axis=-1)[..., None]
    return v / (np.take_along_axis(v, i, -1) / np.take_along_axis(mod, i, -1))


def block_band(diag, coup) -> np.ndarray:
    """Lower band of the Hermitian block-tridiagonal matrix with diagonal
    blocks diag[m] (symmetrized here, so the matrix is Hermitian by
    construction) and blocks coup[m] coupling block m+1 to block m below the
    diagonal.  For p x p blocks the band has 2p rows (bandwidth 2p - 1);
    when every coup[m] is upper triangular its last p - 1 rows are zero."""
    order, p = diag.shape[0], diag.shape[1]
    diag = 0.5 * (diag + diag.conj().transpose(0, 2, 1))
    band = np.zeros((2 * p, p * order), dtype=complex)
    for a in range(p):
        for b in range(p):
            if a >= b:
                band[a - b, b::p] = diag[:, a, b]
            band[p + a - b, b::p][: order - 1] = coup[:, a, b]
    return band


def band_to_dense(band) -> np.ndarray:
    """Dense Hermitian matrix of a lower band; exactly equal to its own
    conjugate transpose."""
    n = band.shape[1]
    lower = sum(np.diag(band[d, : n - d], -d) for d in range(band.shape[0]))
    return lower + np.tril(lower, -1).conj().T


def eigen_banded_lowest(band, count: int) -> np.ndarray:
    """The count lowest eigenvalues, ascending, of a banded Hermitian matrix
    (LAPACK zhbevx with index selection, dsbevx when the band's imaginary
    part is exactly zero, which takes about half the time; no eigenvectors).

    Outer diagonals that are exactly zero are dropped first: the reduction
    to tridiagonal form costs about n^2 kd, so a block band whose coupling
    blocks are upper triangular (the Schur gauge of the truncation) goes to
    LAPACK with p + 1 rows instead of 2p."""
    rows = np.flatnonzero(np.any(band != 0, axis=1))
    kd = int(rows[-1]) if rows.size else 0
    band = band[: kd + 1] if np.any(band.imag) else band[: kd + 1].real
    return eig_banded(band, lower=True, eigvals_only=True, select="i", select_range=(0, count - 1))


def eigenvector_banded(band, lam: float) -> np.ndarray:
    """Unit eigenvector of a banded Hermitian matrix for its eigenvalue lam.

    Three steps of inverse iteration with the banded LU of the full band,
    from the all-ones vector, so the vector picked inside a degenerate
    eigenspace is the same on every run.  The shift sits just off lam so the
    LU never meets an exactly singular pivot.  Unlike eig_banded with
    vectors, nothing of size n x n is formed."""
    kd, n = band.shape[0] - 1, band.shape[1]
    full = np.zeros((2 * kd + 1, n), dtype=complex)
    full[kd] = band[0] - (lam + 1e-13 * max(1.0, abs(lam)))
    for d in range(1, kd + 1):
        full[kd + d, : n - d] = band[d, : n - d]
        full[kd - d, d:] = band[d, : n - d].conj()
    x = np.ones(n, dtype=complex)
    for _ in range(3):
        x = solve_banded((kd, kd), full, x)
        x /= np.linalg.norm(x)
    return x


def hermitian_inv_sqrt(m) -> np.ndarray:
    a = _square(m)
    if not is_positive_definite(a):
        raise ContractViolation("matrix is not positive definite")
    w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    return (v / np.sqrt(w)) @ v.conj().T
