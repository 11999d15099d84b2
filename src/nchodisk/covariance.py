"""Disk automorphism group action: Möbius maps on singularities, the
induced (A, B) transform, unitary gauge, A-normalization, and the p=2
standardization pipeline with a replayable transcript."""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NotGenericError, SimplePoleViolation
from .linalg import as_matrix, fix_phase, hermitian_inv_sqrt, is_hermitian, is_unitary
from .pencil import NchoProblem, _inner_pole_radius, pole_angle, pole_order_key

__all__ = [
    "INFINITY",
    "is_infinity",
    "chordal_distance",
    "Su11Element",
    "mobius_apply",
    "transform_ab",
    "transform_problem",
    "gauge_problem",
    "normalize_problem",
    "standardize_p2",
    "apply_transcript",
    "inverse_transcript",
]

INFINITY = complex(float("inf"), 0.0)


def is_infinity(z) -> bool:
    z = complex(z)
    return not (np.isfinite(z.real) and np.isfinite(z.imag))


def chordal_distance(z, w) -> float:
    """Distance on the Riemann sphere; finite and symmetric with infinity."""
    zi, wi = is_infinity(z), is_infinity(w)
    if zi and wi:
        return 0.0
    if zi or wi:
        finite = complex(w if zi else z)
        return 1.0 / np.sqrt(1.0 + abs(finite) ** 2)
    z, w = complex(z), complex(w)
    return abs(z - w) / np.sqrt((1.0 + abs(z) ** 2) * (1.0 + abs(w) ** 2))


@dataclass(frozen=True)
class Su11Element:
    """Group element [[a, b], [conj(b), conj(a)]] with |a|^2 - |b|^2 = 1."""

    a: complex
    b: complex

    def __post_init__(self):
        a, b = complex(self.a), complex(self.b)
        # not <=, so that nan and inf entries are refused too
        if not abs(abs(a) ** 2 - abs(b) ** 2 - 1.0) <= 1e-9:
            raise ContractViolation("|a|^2 - |b|^2 must equal 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [np.conj(self.b), np.conj(self.a)]])

    def compose(self, other: "Su11Element") -> "Su11Element":
        m = self.matrix() @ other.matrix()
        return Su11Element(m[0, 0], m[0, 1])

    def inverse(self) -> "Su11Element":
        return Su11Element(np.conj(self.a), -self.b)

    @classmethod
    def identity(cls) -> "Su11Element":
        return cls(1.0, 0.0)

    @classmethod
    def rotation(cls, theta: float) -> "Su11Element":
        """Acts on the disk as z -> exp(2 i theta) z."""
        return cls(cmath.exp(1j * theta), 0.0)

    @classmethod
    def boost(cls, t: float) -> "Su11Element":
        return cls(cmath.cosh(t), cmath.sinh(t))

    @classmethod
    def sending_to_zero(cls, beta: complex, rotation: float = 0.0) -> "Su11Element":
        """Automorphism with beta -> 0 (and 1/conj(beta) -> infinity); with
        beta = 0 a rotation whose b is +0, which a transcript prints as 0.0."""
        beta = complex(beta)
        if abs(beta) >= 1.0:
            raise ContractViolation("beta must lie in the open unit disk")
        a = cmath.exp(1j * rotation) / np.sqrt(1.0 - abs(beta) ** 2)
        return cls(a, -beta * a if beta else 0.0)


def mobius_apply(g: Su11Element, z) -> complex:
    """(a z + b) / (conj(b) z + conj(a)); infinity is a first-class value."""
    a, b = g.a, g.b
    if is_infinity(z):
        return a / np.conj(b) if b != 0 else INFINITY
    z = complex(z)
    denom = np.conj(b) * z + np.conj(a)
    # relative cutoff: round-off cannot be distinguished from the exact pole
    if abs(denom) <= 1e-14 * (abs(b) * abs(z) + abs(a)):
        return INFINITY
    return (a * z + b) / denom


def transform_ab(g: Su11Element, A, B) -> tuple[np.ndarray, np.ndarray]:
    """Induced action on the coefficient pair: the transformed equation has
    the same shape with (gA, gB) in place of (A, B)."""
    a_mat, b_mat = as_matrix(A), as_matrix(B)
    if not is_hermitian(a_mat):
        raise ContractViolation("A must be Hermitian")
    a, b = g.a, g.b
    bh = b_mat.conj().T
    ga = (abs(a) ** 2 + abs(b) ** 2) * a_mat - 2.0 * (
        np.conj(a) * b * b_mat + a * np.conj(b) * bh
    )
    gb = -(np.conj(a) * np.conj(b)) * a_mat + np.conj(a) ** 2 * b_mat + np.conj(b) ** 2 * bh
    ga = 0.5 * (ga + ga.conj().T)  # exact in exact arithmetic; clears round-off
    return ga, gb


def transform_problem(g: Su11Element, problem: NchoProblem) -> NchoProblem:
    ga, gb = transform_ab(g, problem.A, problem.B)
    return problem.with_matrices(A=ga, B=gb)


def _congruence_problem(w: np.ndarray, problem: NchoProblem) -> NchoProblem:
    wh = w.conj().T

    def sym(m):
        return 0.5 * (m + m.conj().T)

    return problem.with_matrices(
        A=sym(w @ problem.A @ wh),
        B=w @ problem.B @ wh,
        C0=sym(w @ problem.C0 @ wh),
        lam_coeff=sym(w @ problem.lam_coeff @ wh),
    )


def gauge_problem(U, problem: NchoProblem) -> NchoProblem:
    u = as_matrix(U)
    if not is_unitary(u):
        raise ContractViolation("gauge matrix must be unitary")
    return _congruence_problem(u, problem)


def normalize_problem(problem: NchoProblem) -> tuple[NchoProblem, np.ndarray]:
    s = hermitian_inv_sqrt(problem.A)
    return _congruence_problem(s, problem), s


def _c_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _matrix_pairs(m: np.ndarray) -> list:
    return [[_c_pair(v) for v in row] for row in np.asarray(m, dtype=complex)]


def _pairs_matrix(node) -> np.ndarray:
    return np.array([[complex(v[0], v[1]) for v in row] for row in node])


def apply_transcript(problem: NchoProblem, transcript: list[dict]) -> NchoProblem:
    """Replay a standardization transcript on a problem."""
    cur = problem
    for step in transcript:
        kind = step["kind"]
        if kind == "mobius":
            g = Su11Element(complex(*step["a"]), complex(*step["b"]))
            cur = transform_problem(g, cur)
        elif kind == "normalize":
            cur = _congruence_problem(_pairs_matrix(step["s"]), cur)
        elif kind == "gauge":
            cur = gauge_problem(_pairs_matrix(step["u"]), cur)
        else:
            raise ContractViolation(f"unknown transcript step kind {kind!r}")
    return cur


def inverse_transcript(transcript: list[dict]) -> list[dict]:
    out = []
    for step in reversed(transcript):
        kind = step["kind"]
        if kind == "mobius":
            g = Su11Element(complex(*step["a"]), complex(*step["b"])).inverse()
            out.append({"kind": "mobius", "a": _c_pair(g.a), "b": _c_pair(g.b)})
        elif kind == "normalize":
            s = _pairs_matrix(step["s"])
            out.append({"kind": "normalize", "s": _matrix_pairs(np.linalg.inv(s))})
        elif kind == "gauge":
            u = _pairs_matrix(step["u"])
            out.append({"kind": "gauge", "u": _matrix_pairs(u.conj().T)})
        else:
            raise ContractViolation(f"unknown transcript step kind {kind!r}")
    return out


def _four_point(b1: complex, b2: complex) -> bool:
    """The b2 = 0 branch of the standard form (plain Heun, 4 singular points)."""
    return abs(b2) <= 1e-10 * max(1.0, abs(b1))


def _standard_form_violation(problem: NchoProblem) -> str | None:
    """Why problem is not in the p = 2 standard form heun_like_parameters
    reads, or None: A = I and a zero bottom row of B (to 1e-8), b1 != 0,
    2|b1| + |b2|^2 < 1 (M > 0 on the circle) and, when b2 = 0, a real b1."""
    if problem.p != 2:
        return "scalar reduction is defined for p = 2"
    if float(np.max(np.abs(problem.A - np.eye(2)))) > 1e-8:
        return "standard form requires A = I"
    if float(np.max(np.abs(problem.B[1, :]))) > 1e-8 * max(1.0, float(np.max(np.abs(problem.B)))):
        return "standard form requires a zero bottom row in B"
    b1, b2 = problem.B[0, 0], problem.B[0, 1]
    if abs(b1) <= 1e-8:
        return "standard form requires b1 != 0"
    if 2.0 * abs(b1) + abs(b2) ** 2 >= 1.0:
        return "standard form requires 2|b1| + |b2|^2 < 1"
    if _four_point(b1, b2) and abs(b1.imag) > 1e-8 * max(1.0, abs(b1)):
        return "4-point branch requires real b1 (rotate the problem first)"
    return None


def standardize_p2(problem: NchoProblem):
    """Standard form for p = 2: A = I, B with zero bottom row, pencil poles
    {0, alpha, 1/conj(alpha)} with alpha on the positive real axis.

    One Mobius step, unrecorded when it is the identity, sends the lesser
    inner pole (0 when det B = 0) to 0 and the other onto the positive axis.
    Returns (standard problem, transcript).  The transcript replays exactly
    (apply_transcript) and inverts to the input (inverse_transcript).
    """
    if problem.p != 2:
        raise ContractViolation("standardization is defined for p = 2")
    _inner_pole_radius(problem)
    try:
        poles = problem.decomposition.poles
    except SimplePoleViolation as exc:
        raise NotGenericError(f"repeated pencil root: {exc}") from exc
    if len(poles) < 3:
        raise NotGenericError(
            f"determinant has {len(poles)} distinct roots; standardization needs at least 3"
        )
    # positive on the circle, the poles pair off across it: 3 or 4 of them
    # leave exactly two inside
    beta, gamma = sorted((al for al in poles if abs(al) < 1.0), key=pole_order_key)
    alpha_pre = mobius_apply(Su11Element.sending_to_zero(beta), gamma)
    g = Su11Element.sending_to_zero(beta, rotation=-0.5 * pole_angle(alpha_pre))

    transcript: list[dict] = []
    cur = problem
    if g != Su11Element.identity():
        transcript.append({"kind": "mobius", "a": _c_pair(g.a), "b": _c_pair(g.b)})
        cur = transform_problem(g, cur)

    cur, s = normalize_problem(cur)
    transcript.append({"kind": "normalize", "s": _matrix_pairs(s)})

    # rotate the rank-one B into top-row form; the second row of the gauge
    # spans the left null space of B
    u_svd = np.linalg.svd(cur.B)[0]
    w, nvec = fix_phase(u_svd[:, 0]), fix_phase(u_svd[:, 1])
    u = np.vstack([w.conj(), nvec.conj()])
    m = u @ cur.B @ u.conj().T
    if abs(m[0, 1]) > 1e-9:
        psi = float(np.angle(m[0, 1]))
        u = np.diag([1.0, np.exp(1j * psi)]) @ u
    transcript.append({"kind": "gauge", "u": _matrix_pairs(u)})
    cur = gauge_problem(u, cur)

    if (reason := _standard_form_violation(cur)) is not None:
        raise NotGenericError(f"standardization missed the standard form: {reason}")
    return cur, transcript
