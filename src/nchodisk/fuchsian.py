"""First-order Fuchsian system attached to a problem at a fixed spectral
value: residue matrices, characteristic exponents, and the behaviour of
the system under disk automorphisms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import Su11Element, transform_problem
from .pencil import NchoProblem, _rank

__all__ = [
    "FuchsianSystem",
    "PoleExponents",
    "build_fuchsian",
    "residue_at_infinity_formula",
    "exponents_at",
    "transform_fuchsian",
]


@dataclass(eq=False)
class FuchsianSystem:
    """df/dz = sum_j R_j / (z - alpha_j) f, with R_infinity = -sum_j R_j."""

    mu: float
    lam: complex
    singular_points: list[complex]
    residues: list[np.ndarray]
    residue_at_infinity: np.ndarray
    problem: NchoProblem

    def pole_index(self, point: complex) -> int:
        for j, al in enumerate(self.singular_points):
            if abs(al - point) <= 1e-8 * max(1.0, abs(point)):
                return j
        raise KeyError(f"no singular point near {point}")


def build_fuchsian(problem: NchoProblem, lam: complex) -> FuchsianSystem:
    """Residues R_j = P_j (-mu (alpha_j B + A/2) + C(lam)).

    The poles and projectors depend on the pencil alone, not on lam: they
    are problem.decomposition, built once per problem."""
    dec = problem.decomposition
    c = problem.c_matrix(lam)
    mu = problem.mu
    residues = [
        pj @ (-mu * (al * problem.B + 0.5 * problem.A) + c)
        for al, pj in zip(dec.poles, dec.residues)
    ]
    r_inf = -sum(residues)
    return FuchsianSystem(
        mu=mu,
        lam=lam,
        singular_points=list(dec.poles),
        residues=residues,
        residue_at_infinity=r_inf,
        problem=problem,
    )


def residue_at_infinity_formula(system: FuchsianSystem) -> np.ndarray:
    """Closed form for the residue at infinity: mu I when det B != 0, and
    mu I - P0' (mu A / 2 + C) when det B = 0."""
    prob, dec = system.problem, system.problem.decomposition
    eye = np.eye(prob.p)
    if not dec.zero_is_pole:
        return prob.mu * eye
    zero_idx = dec.poles.index(0.0)
    p0h = dec.residues[zero_idx].conj().T
    c = prob.c_matrix(system.lam)
    return prob.mu * eye - p0h @ (0.5 * prob.mu * prob.A + c)


@dataclass
class PoleExponents:
    values: np.ndarray
    residue_rank: int
    kernel_dim: int
    rank_bound_ok: bool
    shift_residual: float


def exponents_at(system: FuchsianSystem, j: int) -> PoleExponents:
    """Characteristic exponents at pole j (eigenvalues of R_j), together
    with the rank bound against dim ker Q(alpha_j) = dec.ranks[j] and the
    residual of the -mu/2 shift of R_j restricted to the image of P_j."""
    r = system.residues[j]
    vals = np.linalg.eigvals(r)
    vals = vals[np.lexsort((vals.imag, vals.real))]
    prob, dec = system.problem, system.problem.decomposition
    pj, rank_p = dec.residues[j], dec.ranks[j]

    # restriction of R to im(P) equals P C restricted minus mu/2
    v = np.linalg.svd(pj)[0][:, :rank_p]
    c = prob.c_matrix(system.lam)
    lhs = v.conj().T @ r @ v
    rhs = v.conj().T @ (pj @ c) @ v - 0.5 * prob.mu * np.eye(rank_p)
    shift_residual = float(np.max(np.abs(lhs - rhs))) / max(1.0, float(np.max(np.abs(lhs))))

    rank_r = _rank(r)
    return PoleExponents(
        values=vals,
        residue_rank=rank_r,
        kernel_dim=rank_p,
        rank_bound_ok=rank_r <= rank_p,
        shift_residual=shift_residual,
    )


def transform_fuchsian(g: Su11Element, system: FuchsianSystem) -> FuchsianSystem:
    """Push the system forward along a disk automorphism: the system of the
    transformed problem at the same lam."""
    return build_fuchsian(transform_problem(g, system.problem), system.lam)
