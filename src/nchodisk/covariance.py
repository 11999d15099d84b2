"""Disk automorphism group action: Möbius maps on singularities, the
induced (A, B) transform, unitary gauge, A-normalization, and the p=2
standardization pipeline with a replayable transcript."""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolation,
    NotGenericError,
    PositivityError,
    SimplePoleViolation,
)
from .linalg import as_matrix, fix_phase, hermitian_inv_sqrt, is_hermitian, is_unitary
from .pencil import (
    NchoProblem,
    decompose_pencil,
    pole_angle,
    pole_order_key,
    positivity_margin,
)

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
        if abs(abs(a) ** 2 - abs(b) ** 2 - 1.0) > 1e-9:
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
        """Automorphism with beta -> 0 (and 1/conj(beta) -> infinity)."""
        beta = complex(beta)
        if abs(beta) >= 1.0:
            raise ContractViolation("beta must lie in the open unit disk")
        a = cmath.exp(1j * rotation) / np.sqrt(1.0 - abs(beta) ** 2)
        return cls(a, -beta * a)


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


def standardize_p2(problem: NchoProblem):
    """Standard form for p = 2: A = I, B with zero bottom row, pencil poles
    {0, alpha, 1/conj(alpha)} with alpha on the positive real axis.

    Returns (standard problem, transcript).  The transcript replays exactly
    (apply_transcript) and inverts to the input (inverse_transcript).
    """
    if problem.p != 2:
        raise ContractViolation("standardization is defined for p = 2")
    cert = positivity_margin(problem)
    if cert.margin <= 0.0:
        raise PositivityError(f"positivity margin {cert.margin:.3e} is not positive")
    try:
        dec = decompose_pencil(problem)
    except SimplePoleViolation as exc:
        raise NotGenericError(f"repeated pencil root: {exc}") from exc
    poles = dec.poles
    if len(poles) < 3:
        raise NotGenericError(
            f"determinant has {len(poles)} distinct roots; standardization needs at least 3"
        )
    if any(abs(abs(al) - 1.0) <= 1e-8 for al in poles):
        raise PositivityError("pencil pole on the unit circle")

    transcript: list[dict] = []
    cur = problem

    inner = [al for al in poles if al != 0 and abs(al) < 1.0]
    if len(poles) == 4:
        if len(inner) != 2:
            raise NotGenericError("expected two pencil poles inside the unit disk")
        beta, gamma = sorted(inner, key=pole_order_key)
        g0 = Su11Element.sending_to_zero(beta)
        alpha_pre = mobius_apply(g0, gamma)
        g = Su11Element.sending_to_zero(beta, rotation=-0.5 * pole_angle(alpha_pre))
        transcript.append({"kind": "mobius", "a": _c_pair(g.a), "b": _c_pair(g.b)})
        cur = transform_problem(g, cur)
    else:
        if not dec.zero_is_pole or len(inner) != 1:
            raise NotGenericError("three-root case must have poles {0, alpha, 1/conj(alpha)}")
        theta = -0.5 * pole_angle(inner[0])
        if theta != 0.0:
            g = Su11Element.rotation(theta)
            transcript.append({"kind": "mobius", "a": _c_pair(g.a), "b": _c_pair(g.b)})
            cur = transform_problem(g, cur)

    cur, s = normalize_problem(cur)
    transcript.append({"kind": "normalize", "s": _matrix_pairs(s)})

    # rotate the rank-one B into top-row form; the second row of the gauge
    # spans the left null space of B
    u_svd, sing, _ = np.linalg.svd(cur.B)
    if sing[0] <= 1e-9:
        raise NotGenericError("B vanished during standardization")
    w = u_svd[:, 0]
    nvec = u_svd[:, 1]
    w, nvec = fix_phase(w), fix_phase(nvec)
    u = np.vstack([w.conj(), nvec.conj()])
    m = u @ cur.B @ u.conj().T
    if abs(m[0, 1]) > 1e-9:
        psi = float(np.angle(m[0, 1]))
        u = np.diag([1.0, np.exp(1j * psi)]) @ u
    transcript.append({"kind": "gauge", "u": _matrix_pairs(u)})
    cur = gauge_problem(u, cur)

    b1 = cur.B[0, 0]
    b2 = cur.B[0, 1]
    if abs(b1) <= 1e-9:
        raise NotGenericError("standard form requires b1 != 0")
    if 2.0 * abs(b1) + abs(b2) ** 2 >= 1.0:
        raise PositivityError("standard-form inequality 2|b1| + |b2|^2 < 1 failed")
    return cur, transcript
