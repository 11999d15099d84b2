"""Problem data, quadratic matrix-pencil partial fractions, and the
machine checks for the residue identities and the circle positivity
condition.

The pencil is Q(z) = B z^2 + A z + B' (B' the conjugate transpose).  Its
inverse has only simple poles for admissible problems, and the residue
matrices drive the whole reduction.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg import eigvals

from .errors import ContractViolation, DegeneratePencil, PositivityError, SimplePoleViolation
from .linalg import as_matrix, is_hermitian

__all__ = [
    "NchoProblem",
    "PencilAnalysis",
    "PencilDecomposition",
    "IdentityCheck",
    "IdentityReport",
    "PositivityCertificate",
    "mu_from_harmonic",
    "ab_from_a123",
    "a123_from_ab",
    "pencil_kernel",
    "pole_angle",
    "pole_order_key",
    "verify_pencil_identities",
    "positivity_margin",
]


def mu_from_harmonic(n: int, k: int) -> float:
    """Radial weight for the degree-k harmonic sector in n variables."""
    if n < 1 or k < 0:
        raise ContractViolation("need n >= 1 and k >= 0")
    return k + n / 2.0


def ab_from_a123(A1, A2, A3) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) from the Hermitian coefficient triple: A = A1 + A3,
    B = (-i A1 + A2 + i A3) / 2."""
    a1, a2, a3 = as_matrix(A1), as_matrix(A2), as_matrix(A3)
    for name, m in (("A1", a1), ("A2", a2), ("A3", a3)):
        if not is_hermitian(m):
            raise ContractViolation(f"{name} must be Hermitian")
    if not (a1.shape == a2.shape == a3.shape):
        raise ContractViolation("A1, A2, A3 must share one shape")
    return a1 + a3, 0.5 * (-1j * a1 + a2 + 1j * a3)


def a123_from_ab(A, B) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of ab_from_a123; round-trips to 1e-12."""
    a, b = as_matrix(A), as_matrix(B)
    if not is_hermitian(a):
        raise ContractViolation("A must be Hermitian")
    skew = b - b.conj().T
    a1 = 0.5 * (a + 1j * skew)
    a2 = b + b.conj().T
    a3 = 0.5 * (a - 1j * skew)
    return a1, a2, a3


@dataclass(eq=False)
class NchoProblem:
    """Matrix data of one oscillator problem.

    The spectral family is C(lam) = C0 + lam * lam_coeff, with lam_coeff
    defaulting to I/2 so the truncated problem is a standard Hermitian
    eigenproblem.  Standardization steps that renormalize A carry the
    lambda dependence along in lam_coeff.
    """

    p: int
    mu: float
    A: np.ndarray
    B: np.ndarray
    C0: np.ndarray
    lam_coeff: np.ndarray | None = None

    def __post_init__(self):
        if self.p < 1:
            raise ContractViolation("p must be a positive integer")
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise ContractViolation("mu must be positive and finite")
        self.A = as_matrix(self.A)
        self.B = as_matrix(self.B)
        self.C0 = as_matrix(self.C0)
        shape = (self.p, self.p)
        for name, m in (("A", self.A), ("B", self.B), ("C0", self.C0)):
            if m.shape != shape:
                raise ContractViolation(f"{name} must be {self.p}x{self.p}")
        for name, m in (("A", self.A), ("C0", self.C0)):
            if not is_hermitian(m):
                raise ContractViolation(f"{name} must be Hermitian")
        if self.lam_coeff is None:
            self.lam_coeff = 0.5 * np.eye(self.p, dtype=complex)
        else:
            self.lam_coeff = as_matrix(self.lam_coeff)
            if self.lam_coeff.shape != shape:
                raise ContractViolation("lam_coeff must be p x p")
            if not is_hermitian(self.lam_coeff):
                raise ContractViolation("lam_coeff must be Hermitian")

    def c_matrix(self, lam: complex) -> np.ndarray:
        return self.C0 + lam * self.lam_coeff

    def has_standard_lam(self) -> bool:
        return float(np.max(np.abs(self.lam_coeff - 0.5 * np.eye(self.p)))) <= 1e-12

    @cached_property
    def analysis(self) -> "PencilAnalysis":
        """The PencilAnalysis of B z^2 + A z + B', built on first use and
        kept: A and B are never reassigned, and with_matrices and
        dataclasses.replace build new problems without it."""
        return PencilAnalysis(self.A, self.B)

    def with_matrices(self, A=None, B=None, C0=None, lam_coeff=None) -> "NchoProblem":
        return replace(
            self,
            A=self.A if A is None else A,
            B=self.B if B is None else B,
            C0=self.C0 if C0 is None else C0,
            lam_coeff=self.lam_coeff if lam_coeff is None else lam_coeff,
        )


@dataclass(eq=False)
class PencilDecomposition:
    """Partial fraction data of Q(z)^-1 = sum_j P_j / (z - alpha_j); ranks[j]
    is the multiplicity of alpha_j, checked equal to dim ker Q(alpha_j)."""

    poles: list[complex]
    residues: list[np.ndarray]
    ranks: list[int]
    zero_is_pole: bool


def _check_tol(tol: float) -> None:
    # tol = 0 is the strictest value, not an error: a truncation doubling
    # then runs to its order cap
    if not (tol >= 0 and math.isfinite(tol)):
        raise ContractViolation("tol must be non-negative and finite")


def _pencil_value(A, B, Bh, z):
    return B * z * z + A * z + Bh


def _seed_from(*arrays) -> int:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.round(np.asarray(a, dtype=complex), 12)).tobytes())
    return int.from_bytes(h.digest()[:8], "little")


def pencil_kernel(A, B, alpha) -> tuple[np.ndarray, np.ndarray]:
    """Left and right kernels of Q(alpha) = B alpha^2 + A alpha + B', as the
    columns of (Y, X) with Y' Q(alpha) = 0 and Q(alpha) X = 0.

    A singular value of Q(alpha) counts as zero when it is at most
    1e-8 * max(1, |B| |alpha|^2 + |A| |alpha| + |B|), |.| the largest entry
    modulus.  This is the one kernel rule of the package (_kernel)."""
    return _kernel(as_matrix(A), as_matrix(B), alpha)


def _kernel(a, b, alpha) -> tuple[np.ndarray, np.ndarray]:
    """pencil_kernel on matrices as_matrix has already checked."""
    u, s, vh = np.linalg.svd(_pencil_value(a, b, b.conj().T, alpha))
    anorm = float(np.max(np.abs(a)))
    bnorm = float(np.max(np.abs(b)))
    scale = max(1.0, bnorm * abs(alpha) ** 2 + anorm * abs(alpha) + bnorm)
    rank = int(np.sum(s > 1e-8 * scale))
    return u[:, rank:], vh[rank:].conj().T


def pole_angle(z: complex) -> float:
    """Principal argument of z, with an imaginary part of at most 1e-12 |z|
    read as 0, so a real negative pole has argument pi whatever the sign of
    its round-off."""
    z = complex(z)
    if abs(z.imag) <= 1e-12 * abs(z):
        z = complex(z.real, 0.0)
    return float(np.angle(z))


def pole_order_key(z: complex) -> tuple[float, float]:
    """Canonical order of pencil poles: modulus to 12 digits, then
    pole_angle, so +r sorts before -r."""
    return (round(abs(z), 12), pole_angle(z))


def _annulus_point(rng) -> complex:
    return rng.uniform(0.2, 2.5) * np.exp(2j * np.pi * rng.uniform())


def _linearization_eigvals(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Homogeneous eigenvalues (alpha, beta) of the linearization
    [[0, I], [-B', -A]] - z [[I, 0], [0, B]] of the pencil (QZ): its 2p
    roots are alpha / beta, infinite where beta = 0."""
    p = a.shape[0]
    lhs = np.zeros((2 * p, 2 * p), dtype=complex)
    rhs = np.zeros((2 * p, 2 * p), dtype=complex)
    lhs[:p, p:] = rhs[:p, :p] = np.eye(p)
    lhs[p:, :p] = -b.conj().T
    lhs[p:, p:] = -a
    rhs[p:, p:] = b
    return eigvals(lhs, rhs, homogeneous_eigvals=True)


@dataclass(eq=False)
class PencilAnalysis:
    """The pencil B z^2 + A z + B' with its 2p homogeneous roots (alpha, beta)
    from one QZ of its linearization, read by _inner_pole_radius and decomposition.
    Each problem holds one, NchoProblem.analysis."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        self.A, self.B = as_matrix(self.A), as_matrix(self.B)
        if self.A.shape != self.B.shape or self.A.shape[0] != self.A.shape[1]:
            raise ContractViolation("A and B must be square matrices of one size")
        self.alpha, self.beta = _linearization_eigvals(self.A, self.B)

    @cached_property
    def decomposition(self) -> PencilDecomposition:
        """Partial fraction decomposition of (B z^2 + A z + B')^{-1}, built on
        first use and kept: the one place a PencilDecomposition is made.

        The poles are the finite roots alpha / beta.  With k = dim ker B' =
        dim ker B, the k roots nearest infinity are dropped and the k of
        smallest modulus are exactly 0.  Roots within a relative 1e-6 form
        one pole; a pole of m roots has order 1 exactly when ker Q(alpha)
        has dimension m (SimplePoleViolation otherwise).  Every residue is
        X (Y' Q'(alpha) X)^{-1} Y' with (Y, X) the left and right kernels.
        DegeneratePencil when Q is singular at point 0 of A and B's annulus stream.
        """
        a, b, alpha, beta = self.A, self.B, self.alpha, self.beta
        rng = np.random.default_rng(_seed_from(a, b))
        if _kernel(a, b, _annulus_point(rng))[1].shape[1] > 0:
            raise DegeneratePencil("pencil determinant vanishes identically")

        k = _kernel(a, b, 0.0)[1].shape[1]
        finite = np.argsort(np.arctan2(np.abs(beta), np.abs(alpha)))[k:]
        if np.any(beta[finite] == 0):
            # 0 and infinity are roots of det Q of one multiplicity, here above k
            raise SimplePoleViolation(
                f"more than dim ker B' = {k} pencil eigenvalues at infinity; "
                "the reduction assumes order-1 poles"
            )
        eigs = alpha[finite] / beta[finite]
        eigs[np.argsort(np.abs(eigs))[:k]] = 0.0
        eigs = eigs[np.lexsort((eigs.imag, eigs.real))]

        clusters: list[list[complex]] = []
        for r in eigs:
            for cl in clusters:
                center = sum(cl) / len(cl)
                if abs(r - center) <= 1e-6 * max(1.0, abs(center)):
                    cl.append(r)
                    break
            else:
                clusters.append([r])
        centers = sorted(
            ((complex(sum(cl) / len(cl)), len(cl)) for cl in clusters),
            key=lambda cm: (cm[0].real, cm[0].imag),
        )
        poles, residues = [], []
        for al, mult in centers:
            y, x = _kernel(a, b, al)
            if x.shape[1] != mult:
                raise SimplePoleViolation(
                    f"{mult} pencil eigenvalues at {al} but ker Q(alpha) has dimension "
                    f"{x.shape[1]}; the reduction assumes order-1 poles"
                )
            dq = 2.0 * al * b + a
            poles.append(al)
            residues.append(x @ np.linalg.solve(y.conj().T @ dq @ x, y.conj().T))

        return PencilDecomposition(
            poles=poles,
            residues=residues,
            ranks=[mult for _, mult in centers],
            zero_is_pole=k > 0,
        )


def _inner_pole_radius(analysis: PencilAnalysis) -> float:
    """Largest modulus of the pencil roots inside the unit disk, 0.0 when every
    one is 0 (B = 0); the one positivity rule, which every solver that needs
    it applies to problem.analysis before it reads its decomposition.

    PositivityError unless M(phi) = B e^{i phi} + A + B' e^{-i phi} > 0 on the
    circle.  As M(phi) = e^{-i phi} Q(e^{i phi}), M > 0 iff no root is within
    1e-6 of |z| = 1 (a root there is double; QZ splits it by ~sqrt(eps)) and
    M(0) = A + B + B' > 0."""
    alpha, beta, b = analysis.alpha, analysis.beta, analysis.B
    near = np.abs(alpha) < 2.0 * np.abs(beta)
    roots = alpha[near] / beta[near]
    for z in roots:
        if abs(abs(z) - 1.0) <= 1e-6:
            raise PositivityError(f"pencil pole {complex(z)} sits on the unit circle")
    least = float(np.linalg.eigvalsh(analysis.A + b + b.conj().T)[0])
    if not least > 0.0:
        raise PositivityError(f"A + B + B' is not positive definite (least eigenvalue {least:.3e})")
    return float(np.max(np.abs(roots[np.abs(roots) < 1.0]), initial=0.0))


def _reconstruction_residual(a, b, poles, residues, rng) -> float:
    """Largest entry of sum_j P_j / (z - alpha_j) Q(z) - I over 16 annulus
    points drawn from rng, each at least 0.1 from every pole.

    The points are evaluated as one (16, p, p) stack with the same
    elementwise operations, in the same order, as one point at a time."""
    zs = []
    while len(zs) < 16:
        z = _annulus_point(rng)
        if not any(abs(z - al) < 0.1 for al in poles):
            zs.append(z)
    z = np.array(zs)[:, None, None]
    recon = sum(pj / (z - al) for al, pj in zip(poles, residues))
    return float(np.max(np.abs(recon @ _pencil_value(a, b, b.conj().T, z) - np.eye(a.shape[0]))))


@dataclass
class IdentityCheck:
    name: str
    applicable: bool
    passed: bool
    residual: float


@dataclass
class IdentityReport:
    checks: list[IdentityCheck]
    all_passed: bool
    reconstruction_residual: float

    def residual(self, name: str) -> float:
        for c in self.checks:
            if c.name == name:
                return c.residual
        raise KeyError(name)


def _rank(m: np.ndarray) -> int:
    # singular values below 1e-8 of the largest entry modulus count as zero
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > 1e-8 * max(float(np.max(np.abs(m))), 1e-300)))


def verify_pencil_identities(problem: NchoProblem, tol: float = 1e-9, seed=None) -> IdentityReport:
    """Evaluate the six structural identities of problem.analysis.decomposition.

    Items: pole pairing across the unit circle, residue conjugation plus the
    absence of a polynomial part, the two residue-sum branches (det B != 0
    and det B = 0), the rank bound against dec.ranks, and the projector
    identity P (2 alpha B + A) P = P.  The reconstruction residual samples
    the annulus stream of seed (of A and B when None) from point 1 on.
    """
    _check_tol(tol)
    a, b = problem.A, problem.B
    eye = np.eye(problem.p)
    dec = problem.analysis.decomposition
    poles, residues = dec.poles, dec.residues
    rng = np.random.default_rng(_seed_from(a, b) if seed is None else seed)
    _annulus_point(rng)  # skip point 0, the decomposition's probe in the default stream
    recon = _reconstruction_residual(a, b, poles, residues, rng)

    checks: list[IdentityCheck] = []

    # 1: alpha <-> 1/conj(alpha) pairing
    res1 = 0.0
    pair_index: dict[int, int] = {}
    for i, al in enumerate(poles):
        if al == 0:
            continue
        target = 1.0 / np.conj(al)
        dists = [abs(target - other) / max(1.0, abs(target)) for other in poles]
        j = int(np.argmin(dists))
        pair_index[i] = j
        res1 = max(res1, float(dists[j]))
    checks.append(IdentityCheck("pole_pairing", True, res1 <= max(tol, 1e-8), res1))

    # 2: P at 1/conj(alpha) equals -P(alpha)^dagger, and no polynomial part
    res2 = recon
    for i, j in pair_index.items():
        diff = residues[j] + residues[i].conj().T
        res2 = max(res2, float(np.max(np.abs(diff))) / max(1.0, float(np.max(np.abs(residues[i])))))
    checks.append(IdentityCheck("residue_conjugation", True, res2 <= max(tol, 1e-8), res2))

    # every decomposition has a pole: 2p - dim ker B' >= p roots stay finite
    sum_p = sum(residues)
    sum_pb = sum(pj @ b for pj in residues)
    sum_apb = sum(al * pj @ b for al, pj in zip(poles, residues))

    if not dec.zero_is_pole:
        res3 = max(float(np.max(np.abs(sum_p))), float(np.max(np.abs(sum_apb - eye))))
        checks.append(IdentityCheck("sums_invertible_b", True, res3 <= tol, res3))
        checks.append(IdentityCheck("sums_singular_b", False, True, 0.0))
    else:
        zero_idx = poles.index(0.0)
        p0h = residues[zero_idx].conj().T
        res4 = max(
            float(np.max(np.abs(sum_p - p0h))),
            float(np.max(np.abs(sum_pb))),
            float(np.max(np.abs(sum_apb - (eye - p0h @ a)))),
        )
        checks.append(IdentityCheck("sums_invertible_b", False, True, 0.0))
        checks.append(IdentityCheck("sums_singular_b", True, res4 <= tol, res4))

    # 5: rank P(alpha) <= dim ker Q(alpha), the rank the decomposition recorded
    excess = max(_rank(pj) - rank for pj, rank in zip(residues, dec.ranks))
    checks.append(IdentityCheck("rank_bound", True, excess <= 0, float(max(0, excess))))

    # 6: P (2 alpha B + A) P = P
    res6 = 0.0
    for al, pj in zip(poles, residues):
        lhs = pj @ (2.0 * al * b + a) @ pj
        res6 = max(res6, float(np.max(np.abs(lhs - pj))) / max(1.0, float(np.max(np.abs(pj)))))
    checks.append(IdentityCheck("projector_identity", True, res6 <= tol, res6))

    return IdentityReport(checks, all(c.passed for c in checks), recon)


_MAX_GRID = 65536  # largest grid_size: its Lipschitz correction is already below 1e-4 |B|


@dataclass
class PositivityCertificate:
    margin: float
    argmin_phi: float
    lipschitz_bound: float
    certified_margin: float
    grid_size: int

    @property
    def certified(self) -> bool:
        return self.certified_margin > 0.0


def positivity_margin(problem: NchoProblem, grid_size: int = 256) -> PositivityCertificate:
    """Minimum over the unit circle grid of the least eigenvalue of
    B z + A + B' conj(z).

    The Lipschitz correction 2 pi |B| / grid_size turns the grid minimum
    into a conservative certificate valid on all of the circle.

    The grid is solved in two passes.  The coarse pass solves every s-th
    point, s = max(1, grid_size // 64); the least of those values, m_c,
    bounds the grid minimum from above.  By Weyl's inequality the least
    eigenvalue at z_i is at least l_c - 2 |B| |z_i - z_c| for a coarse
    point z_c with least eigenvalue l_c; each point takes the larger of
    this bound over its two coarse neighbours (after the last coarse point
    comes point 0, at angle 2 pi).  The fine pass solves exactly the points
    whose bound is at most m_c + slack, slack = 1024 eps (|A|_F + 2 |B|),
    which covers the round-off of forming and solving each matrix and of
    the bound itself.  Every point that attains the grid minimum is solved,
    and each matrix of a stacked eigvalsh is solved on its own, so margin,
    argmin_phi (the first point attaining the minimum) and certified_margin
    are those of solving every point.  With B = 0 every point holds A, and
    the one matrix is solved once.
    """
    if not 64 <= grid_size <= _MAX_GRID:
        raise ContractViolation(f"grid_size must be from 64 to {_MAX_GRID}")
    a, b = problem.A, problem.B
    bh = b.conj().T

    def phi(i):
        return 2.0 * np.pi * i / grid_size

    def least_at(idx):
        z = np.exp(1j * phi(idx))[:, None, None]
        return np.linalg.eigvalsh(b * z + a + bh * np.conj(z))[:, 0]

    bnorm = float(np.linalg.norm(b, 2))
    if not np.any(b):
        # every M(phi) is A: one solve fills the grid
        least = np.full(grid_size, least_at(np.arange(1))[0])
    else:
        step = max(1, grid_size // 64)
        coarse_idx = np.arange(0, grid_size, step)
        coarse = least_at(coarse_idx)
        # Weyl reach 2 |B| |z_i - z_j| of points d = 0..step grid steps apart
        reach = 4.0 * bnorm * np.sin(np.pi * np.arange(step + 1) / grid_size)
        # row k holds points k * step + d; the next coarse point of the last
        # row is point 0 at angle 2 pi.  Entries of the last row past the grid
        # (negative gaps) are cut off by the slice.
        d = np.arange(step)
        gap_next = np.full((len(coarse), 1), step)
        gap_next[-1] = grid_size - coarse_idx[-1]
        bound = np.maximum(
            coarse[:, None] - reach[:step],
            np.roll(coarse, -1)[:, None] - reach[gap_next - d],
        )
        bound[:, 0] = np.inf  # the coarse points, solved already
        slack = 1024.0 * np.finfo(float).eps * (float(np.linalg.norm(a)) + 2.0 * bnorm)
        fine = np.flatnonzero(bound.ravel()[:grid_size] <= np.min(coarse) + slack)
        least = np.full(grid_size, np.inf)
        least[coarse_idx] = coarse
        least[fine] = least_at(fine)
    i = int(np.argmin(least))
    lip = 2.0 * np.pi * bnorm / grid_size
    return PositivityCertificate(
        margin=float(least[i]),
        argmin_phi=float(phi(i)),
        lipschitz_bound=lip,
        certified_margin=float(least[i]) - lip,
        grid_size=grid_size,
    )
