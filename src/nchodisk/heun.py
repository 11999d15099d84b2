"""Scalar second-order reduction for p = 2 problems in standard form:
Heun-type parameters and their Riemann scheme, closed forms for the classical
two-level oscillator family, and the large-mu confluence to (asymmetric)
Rabi / Jaynes-Cummings data."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .covariance import INFINITY, _four_point, _standard_form_violation
from .errors import ContractViolation, PositivityError
from .linalg import as_matrix
from .pencil import NchoProblem

__all__ = [
    "HeunParameters",
    "RabiParameters",
    "RabiClassification",
    "ConfluentHeunData",
    "ClosedFormHeunData",
    "QuantizationReport",
    "heun_like_parameters",
    "heun_equation_4pt",
    "standard_ncho_problem",
    "beta_gamma_closed_forms",
    "confluent_limit_params",
    "confluence_residuals",
    "rabi_jc_map",
    "quantization_check",
    "apparent_singularity_residual",
]


@dataclass
class HeunParameters:
    """Scalar-equation data for a standard-form p = 2 problem at fixed lambda.

    n_singularities is the number of points in scheme: 5 (generic, with an
    apparent point at epsilon) or 4 (the B = B' branch, plain Heun, and the
    coalescent case, whose apparent point has merged with infinity).  scheme
    maps each singularity label to its pair of characteristic exponents; the
    coefficients p and q and the apparent-point check are read off scheme and
    singular_locations.
    """

    alpha: complex
    kappa0: complex
    kappa1: complex
    mu: float
    lam: complex
    q1: complex
    epsilon: complex | None
    q2: complex | None
    n_singularities: int
    scheme: dict[str, tuple[complex, complex]]
    singular_locations: dict[str, complex]
    coalescent: bool = False

    def fuchs_sum(self) -> complex:
        return sum(e for pair in self.scheme.values() for e in pair)

    def _p_residues(self) -> list[tuple[str, complex, complex]]:
        """(label, location, residue of p) at each finite singular point;
        by the Fuchs relation the residue is 1 - e1 - e2."""
        return [
            (k, self.singular_locations[k], 1.0 - e1 - e2)
            for k, (e1, e2) in self.scheme.items()
            if k != "infinity"
        ]

    def _q_numerator(self, z: complex) -> complex:
        """q(z) (z - inner)(z - outer) without its pole at the apparent
        point; the constant is the product of the exponents at infinity."""
        e_inf = self.scheme["infinity"]
        return e_inf[0] * e_inf[1] + self.q1 / z

    def coefficient_p(self, z: complex) -> complex:
        """First-order coefficient of f'' + p f' + q f = 0."""
        return sum(a / (z - s) for _, s, a in self._p_residues())

    def coefficient_q(self, z: complex) -> complex:
        """Zero-order coefficient of f'' + p f' + q f = 0."""
        num = self._q_numerator(z)
        if self.epsilon is not None:
            num += self.q2 / (z - self.epsilon)
        loc = self.singular_locations
        return num / ((z - loc["inner"]) * (z - loc["outer"]))


def _adj(m: np.ndarray) -> np.ndarray:
    """Adjugate of a 2 x 2 matrix: m @ _adj(m) == det(m) I."""
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


def _kappa0(problem: NchoProblem, c: np.ndarray) -> complex:
    bh = problem.B.conj().T
    return complex(np.trace(_adj(bh) @ c) / np.trace(_adj(problem.A) @ bh))


def _kappa1(problem: NchoProblem, c: np.ndarray, alpha: complex, outer: complex) -> complex:
    g = problem.B * alpha + problem.A + problem.B.conj().T / alpha
    denom = (alpha - outer) * np.trace(_adj(problem.A) @ problem.B)
    return complex(np.trace(_adj(g) @ c) / denom)


def _q1(problem: NchoProblem, c: np.ndarray) -> complex:
    m = c - 0.5 * problem.mu * problem.A
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return complex(det / np.trace(_adj(problem.A) @ problem.B))


def heun_like_parameters(problem: NchoProblem, lam: complex) -> HeunParameters:
    """Parameters of the single second-order equation equivalent to the
    standard-form system at the given lambda.

    Gives the 4-point Heun data when b2 = 0 (b1 must then be real), and
    otherwise the 5-point data with an apparent point at epsilon; in the
    coalescent case (c3 = -mu/2 with b2 != 0) that point has merged with
    infinity, which leaves 4 points and omits epsilon and q2.  Raises
    ContractViolation off the standard form, with its reason, and where a
    parameter leaves the floating-point range, not inf/nan.
    """
    if (reason := _standard_form_violation(problem)) is not None:
        raise ContractViolation(reason)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _heun_parameters(problem, lam)
    except FloatingPointError:
        raise ContractViolation(
            f"the Heun parameters overflow at lambda = {lam:g}; take a smaller lambda"
        ) from None


def _heun_parameters(problem: NchoProblem, lam: complex) -> HeunParameters:
    b1, b2 = problem.B[0, 0], problem.B[0, 1]
    four_point = _four_point(b1, b2)
    if four_point:
        # b1 is real to 1e-8: real arithmetic keeps alpha and the outer pole exactly real
        b1 = float(b1.real)
        s, disc = 1.0, 1.0 - 4.0 * b1 * b1
    else:
        s = 1.0 - abs(b2) ** 2
        disc = s**2 - 4.0 * abs(b1) ** 2
    mu = problem.mu
    c = problem.c_matrix(lam)

    root = math.sqrt(disc)
    # the inner root: the standard form gives s > 2|b1| > 0, so disc > 0
    # and |-s + root| < |-s - root|
    alpha = (-s + root) / (2.0 * b1)
    outer = 1.0 / np.conj(alpha)

    kappa0 = _kappa0(problem, c)
    kappa1 = _kappa1(problem, c, alpha, outer)
    q1 = _q1(problem, c)

    c3 = c[1, 1]
    coalescent = not four_point and bool(abs(c3 + mu / 2) <= 1e-10 * max(1.0, abs(c3)))
    epsilon = q2 = None
    if not (four_point or coalescent):
        c1, c2, c21 = c[0, 0], c[0, 1], c[1, 0]
        epsilon = complex(c2 / (b2 * (c3 + mu / 2)))
        q2 = complex(
            (
                mu * (b2 * (c1 - mu / 2) - b1 * c2)
                + b2 * ((c1 - mu / 2) * (c3 - mu / 2) - c2 * c21)
            )
            / (b1 * b2 * (c3 + mu / 2))
        )

    if four_point:
        outer_exp, at_infinity = -kappa1 - mu / 2, (complex(mu), 1.0 - kappa0 + mu / 2)
    else:
        outer_exp = -np.conj(kappa1) - mu / 2
        at_infinity = (complex(mu), -np.conj(kappa0) + mu / 2)
    if coalescent:
        # the apparent point has merged with infinity: there the exponent sum
        # rises by 1 and the product by mu + b2 c21 / b1
        total = sum(at_infinity) + 1.0
        product = at_infinity[0] * at_infinity[1] + mu + b2 * c[1, 0] / b1
        split = cmath.sqrt(total * total - 4.0 * product)
        at_infinity = ((total + split) / 2.0, (total - split) / 2.0)
    scheme = {
        "zero": (0.0 + 0.0j, 1.0 + kappa0 - mu / 2),
        "inner": (0.0 + 0.0j, kappa1 - mu / 2),
        "outer": (0.0 + 0.0j, outer_exp),
        "infinity": at_infinity,
    }
    locations = {
        "zero": 0.0 + 0.0j,
        "inner": complex(alpha),
        "outer": complex(outer),
        "infinity": INFINITY,
    }
    if epsilon is not None:
        scheme["apparent"] = (0.0 + 0.0j, 2.0 + 0.0j)
        locations["apparent"] = epsilon
    return HeunParameters(
        alpha=complex(alpha),
        kappa0=kappa0,
        kappa1=kappa1,
        mu=mu,
        lam=complex(lam),
        q1=q1,
        epsilon=epsilon,
        q2=q2,
        n_singularities=len(scheme),
        scheme=scheme,
        singular_locations=locations,
        coalescent=coalescent,
    )


def heun_equation_4pt(problem: NchoProblem, lam: complex) -> HeunParameters:
    """Plain Heun data for the B = B' branch (b2 = 0, b1 real)."""
    params = heun_like_parameters(problem, lam)
    if not _four_point(problem.B[0, 0], problem.B[0, 1]):
        raise ContractViolation("b2 != 0: use heun_like_parameters")
    return params


def apparent_singularity_residual(params: HeunParameters) -> float:
    """No-log solvability residual of the exponent-0 local power series at
    the apparent point; zero means trivial local monodromy."""
    if params.epsilon is None:
        raise ContractViolation("apparent point exists only in the 5-point case")
    eps = params.epsilon
    p1 = sum(a / (eps - s) for k, s, a in params._p_residues() if k != "apparent")
    d_in = eps - params.singular_locations["inner"]
    d_out = eps - params.singular_locations["outer"]
    q_apparent = params.q2 / (d_in * d_out)
    q_analytic_at_eps = params._q_numerator(eps) / (d_in * d_out)
    dg = -params.q2 * (d_in + d_out) / (d_in * d_in * d_out * d_out)
    q2_taylor = q_analytic_at_eps + dg
    # series f = 1 + c1 w + ...; the order-2 equation is resonant and its
    # right-hand side must vanish for a log-free (hence single-valued) local basis
    c1 = q_apparent
    resid = (p1 + q_apparent) * c1 + q2_taylor
    scale = max(1.0, abs(p1), abs(q_apparent), abs(q2_taylor))
    return float(abs(resid)) / scale


def standard_ncho_problem(beta: float, gamma: float, eta: float, mu: float) -> NchoProblem:
    """The classical two-level oscillator family: A = diag(beta, gamma),
    skew coupling B, and an eta-shift in C0."""
    if beta <= 0 or gamma <= 0:
        raise PositivityError("beta and gamma must be positive")
    if eta != 0.0 and beta * gamma <= 1.0:
        raise PositivityError("eta-shifted family needs beta * gamma > 1")
    s = math.sqrt(max(beta * gamma - 1.0, 0.0))
    a = np.diag([beta, gamma]).astype(complex)
    b = 0.5 * np.array([[0.0, 1j], [-1j, 0.0]])
    c0 = eta * s * np.array([[0.0, 1j], [-1j, 0.0]])
    return NchoProblem(p=2, mu=mu, A=a, B=b, C0=c0)


@dataclass
class ClosedFormHeunData:
    alpha: float
    kappa_plus: float
    kappa_minus: float
    q_plus: float
    q_minus: float


def beta_gamma_closed_forms(
    beta: float, gamma: float, eta: float, lam: float, mu: float
) -> ClosedFormHeunData:
    """Closed-form Heun data for the beta-gamma family (positivity requires
    beta * gamma > 1)."""
    if beta <= 0 or gamma <= 0 or beta * gamma <= 1.0:
        raise PositivityError("closed forms require beta, gamma > 0 and beta * gamma > 1")
    bg = beta * gamma
    alpha = 1.0 / math.sqrt(bg)
    kap = 0.25 * lam * (beta + gamma) / math.sqrt(bg * (bg - 1.0))
    kappa_plus = kap + eta
    kappa_minus = kap - eta
    common = (
        0.25 * lam * lam
        - lam * mu * math.sqrt(bg) * (beta + gamma) / (4.0 * math.sqrt(bg - 1.0))
        + 0.25 * mu * mu * (bg + 1.0)
        - eta * eta * (bg - 1.0)
    )
    q_plus = -(common - eta * mu) / math.sqrt(bg)
    q_minus = -(common + eta * mu) / math.sqrt(bg)
    return ClosedFormHeunData(alpha, kappa_plus, kappa_minus, q_plus, q_minus)


@dataclass
class ConfluentHeunData:
    kappa_t_plus: float
    kappa_t_minus: float
    q_t_plus: float
    q_t_minus: float


def confluent_limit_params(
    g_tilde: float, lambda_tilde: float, Delta: float, eps_bias: float
) -> ConfluentHeunData:
    """Confluent limit of the Heun data as mu -> infinity with the scaled
    coupling held fixed."""
    base = lambda_tilde + g_tilde**2
    kp = base - eps_bias
    km = base + eps_bias
    qcore = base * (lambda_tilde - 3.0 * g_tilde**2) - eps_bias**2 - Delta**2
    qp = qcore + 4.0 * g_tilde**2 * eps_bias
    qm = qcore - 4.0 * g_tilde**2 * eps_bias
    return ConfluentHeunData(kp, km, qp, qm)


def _finite_mu_kappa_q(g_tilde, lambda_tilde, Delta, eps_bias, mu):
    g = g_tilde / math.sqrt(mu)
    lam_p = lambda_tilde + mu / 2.0
    root = math.sqrt(1.0 - 4.0 * g * g)
    kappa = {
        +1: (lam_p - eps_bias) / root,
        -1: (lam_p + eps_bias) / root,
    }
    q = {}
    for sign in (+1, -1):
        inner = (
            lam_p * lam_p
            - lam_p * mu / root
            + 0.25 * mu * mu * (1.0 + 4.0 * g * g)
            + sign * 4.0 * g * g * mu * eps_bias / root
            - eps_bias**2
            - Delta**2
        )
        q[sign] = -inner / (2.0 * g)
    return kappa, q


def confluence_residuals(
    g_tilde: float, lambda_tilde: float, Delta: float, eps_bias: float, mu: float
) -> dict[str, float]:
    """Finite-mu deviation from the confluent limit; both entries are
    O(1/mu) and halve as mu doubles."""
    if g_tilde == 0.0:
        raise ContractViolation("residual scaling needs a nonzero coupling")
    lim = confluent_limit_params(g_tilde, lambda_tilde, Delta, eps_bias)
    kappa, q = _finite_mu_kappa_q(g_tilde, lambda_tilde, Delta, eps_bias, mu)
    factor = 2.0 * g_tilde / math.sqrt(mu)
    return {
        "kappa_plus": abs(kappa[+1] - lim.kappa_t_plus - mu / 2.0),
        "kappa_minus": abs(kappa[-1] - lim.kappa_t_minus - mu / 2.0),
        "q_plus": abs(q[+1] * factor + lim.q_t_plus),
        "q_minus": abs(q[-1] * factor + lim.q_t_minus),
    }


@dataclass
class RabiParameters:
    omega: float
    g_coupling: float
    Delta: float
    eps_bias: float
    lam: float = 0.0


@dataclass
class RabiClassification:
    kind: str  # "asymmetric-rabi" | "jaynes-cummings" | "generic"
    params: RabiParameters | None


_RABI_TOL = 1e-10  # the zero test of every entry rabi_jc_map classifies by


def rabi_jc_map(A_t, B_t, C_t) -> RabiClassification:
    """Recognize confluent-limit data as asymmetric Rabi or Jaynes-Cummings."""
    a, b, c = as_matrix(A_t), as_matrix(B_t), as_matrix(C_t)
    if a.shape != (2, 2) or b.shape != (2, 2) or c.shape != (2, 2):
        raise ContractViolation("classification expects 2x2 matrices")
    scale_a = max(1.0, float(np.max(np.abs(a))))
    off_identity = max(abs(a[0, 1]), abs(a[1, 0]), abs(a[0, 0] - a[1, 1]))
    if off_identity > _RABI_TOL * scale_a or abs(a[0, 0].imag) > _RABI_TOL:
        raise ContractViolation("A must be a real multiple of the identity")
    omega = float(a[0, 0].real)

    def real_or_none(z):
        z = complex(z)
        return z.real if abs(z.imag) <= _RABI_TOL * max(1.0, abs(z)) else None

    lam = real_or_none(0.5 * (c[0, 0] + c[1, 1]))
    delta = real_or_none(0.5 * (c[1, 1] - c[0, 0]))
    scale_b = max(1.0, float(np.max(np.abs(b))))

    # lowering-operator coupling with diagonal C: Jaynes-Cummings
    if (
        max(abs(b[0, 0]), abs(b[0, 1]), abs(b[1, 1])) <= _RABI_TOL * scale_b
        and abs(b[1, 0]) > _RABI_TOL
        and abs(c[0, 1]) <= _RABI_TOL
        and abs(c[1, 0]) <= _RABI_TOL
        and lam is not None
        and delta is not None
    ):
        g = real_or_none(b[1, 0])
        if g is not None:
            return RabiClassification(
                "jaynes-cummings", RabiParameters(omega, g, delta, 0.0, lam)
            )

    # symmetric coupling with a symmetric bias: asymmetric Rabi
    if (
        max(abs(b[0, 0]), abs(b[1, 1])) <= _RABI_TOL * scale_b
        and abs(b[0, 1] - b[1, 0]) <= _RABI_TOL * scale_b
        and abs(b[0, 1]) > _RABI_TOL
        and lam is not None
        and delta is not None
        and abs(c[0, 1] - c[1, 0]) <= _RABI_TOL * max(1.0, abs(c[0, 1]))
    ):
        g = real_or_none(b[0, 1])
        eps = real_or_none(-c[0, 1])
        if g is not None and eps is not None:
            return RabiClassification(
                "asymmetric-rabi", RabiParameters(omega, g, delta, eps, lam)
            )

    return RabiClassification("generic", None)


@dataclass
class QuantizationReport:
    values: tuple[complex, complex]
    nearest: tuple[int, int]
    distances: tuple[float, float]
    passed: bool
    note: str


def quantization_check(params: HeunParameters) -> QuantizationReport:
    """Necessary integrality condition for a two-dimensional solution space:
    1 + kappa0 - mu/2 and kappa1 - mu/2 must be positive integers.  The
    condition is not sufficient (logarithmic solutions may obstruct)."""
    v0 = 1.0 + params.kappa0 - params.mu / 2.0
    v1 = params.kappa1 - params.mu / 2.0
    nearest = tuple(max(1, int(round(float(np.real(v))))) for v in (v0, v1))
    distances = tuple(float(abs(v - n)) for v, n in zip((v0, v1), nearest))
    return QuantizationReport(
        values=(complex(v0), complex(v1)),
        nearest=nearest,
        distances=distances,
        passed=all(d <= 1e-8 for d in distances),
        note="necessary, not sufficient: logarithmic solutions may still obstruct",
    )
