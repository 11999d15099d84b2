"""Spectra by two independent routes: Hermitian block-tridiagonal
truncation in the weighted-disk basis, and a connection determinant built
by series transport of the holomorphic solution frame between the
singular points.  Also: radial mode functions, eigenfunction profiles,
and the large-mu confluence sweep against the Rabi truncation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np
from scipy.optimize import brentq

from .covariance import Su11Element, transform_problem
from .errors import (
    ContinuationError,
    ContractViolation,
    ConvergenceError,
    NotAnEigenvalueError,
    PositivityError,
    RefinementError,
    ResonanceError,
)
from .fuchsian import build_fuchsian
from .heun import RabiParameters
from .linalg import band_to_dense, block_band, eigen_banded_lowest, eigenvector_banded, fix_phase
from .pencil import NchoProblem, PencilDecomposition, decompose_pencil, pole_order_key

__all__ = [
    "TruncatedOperator",
    "SpectrumResult",
    "RefineResult",
    "ProfileResult",
    "SweepResult",
    "build_truncated",
    "spectrum_truncated",
    "connection_determinant",
    "connection_polarizations",
    "refine_eigenvalue",
    "spectrum_connection",
    "laguerre_mode",
    "eigenfunction_profile",
    "rabi_truncated_spectrum",
    "confluence_sweep",
]

_MAX_ORDER = 8192  # truncation order cap of every doubling loop
_SEED_TOL = 1e-9  # truncation tolerance of the seeds spectrum_connection computes itself
_STEP_FRACTION = 0.4  # a Taylor step is at most this times the distance to the nearest pole
# arcs of the loop around the inner pole: the fewest whose chord, 2 sin(pi / n)
# times the radius, fits in one Taylor step from a point on the circle
_LOOP_ARCS = math.ceil(math.pi / math.asin(_STEP_FRACTION / 2))


def _norm_sq(mu: float, count: int) -> np.ndarray:
    """Squared basis norms m! / (mu)_m for m < count."""
    out = np.empty(count)
    out[0] = 1.0
    for m in range(1, count):
        out[m] = out[m - 1] * m / (mu + m - 1.0)
    return out


# ---------------------------------------------------------------------------
# banded truncation


def _settle(band_of, select, order: int, tol: float, max_order: int):
    """Double the truncation order until the eigenvalues chosen by
    select(band) move by less than tol.  Returns (values, change, band) at
    the final order; raises ConvergenceError past max_order."""
    prev = None
    last_change = float("nan")
    while True:
        if order > max_order:
            raise ConvergenceError(
                f"eigenvalues did not settle to {tol:g} by order {order // 2} "
                f"(last change {last_change:g})"
            )
        band = band_of(order)
        vals = select(band)
        if prev is not None:
            change = np.abs(vals - prev)
            last_change = float(np.max(change))
            if last_change < tol:
                return vals, change, band
        prev = vals
        order *= 2


@dataclass(eq=False)
class TruncatedOperator:
    """Symmetrized truncation of the ladder operator, shifted by -2 C0 so the
    eigenproblem is standard Hermitian, stored as its lower band (see
    linalg.block_band; 2p rows, bandwidth 2p - 1).

    Diagonal blocks are A (2m + mu); the blocks coupling modes m and m+1
    carry 2 B sqrt((m+1)(m+mu)), with B on the sub-diagonal side as dictated
    by the ladder action on monomials."""

    order: int
    mu: float
    problem: NchoProblem
    band: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """Dense expansion of the band; Hermitian by construction."""
        return band_to_dense(self.band)


def build_truncated(problem: NchoProblem, order: int) -> TruncatedOperator:
    if order < 8:
        raise ContractViolation("truncation order must be at least 8")
    if not problem.has_standard_lam():
        raise ContractViolation("truncation requires the standard spectral family C0 + (lam/2) I")
    mu = problem.mu
    m = np.arange(order)
    diag = problem.A * (2 * m + mu)[:, None, None] - 2.0 * problem.C0
    coup = 2.0 * problem.B * np.sqrt(m[1:] * (m[:-1] + mu))[:, None, None]
    return TruncatedOperator(order=order, mu=mu, problem=problem, band=block_band(diag, coup))


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    method: str
    convergence: np.ndarray
    orders: tuple[int, int]


def spectrum_truncated(
    problem: NchoProblem,
    count: int,
    tol: float = 1e-10,
    start_order: int = 64,
    max_order: int = _MAX_ORDER,
) -> SpectrumResult:
    """Lowest eigenvalues by doubling the truncation order until they settle."""
    if count < 1:
        raise ContractViolation("count must be at least 1")
    vals, change, band = _settle(
        lambda order: build_truncated(problem, order).band,
        lambda band: eigen_banded_lowest(band, count),
        max(start_order, 8, -(-count // problem.p)),
        tol,
        max_order,
    )
    order = band.shape[1] // problem.p
    return SpectrumResult(
        eigenvalues=vals, method="truncation", convergence=change, orders=(order // 2, order)
    )


# ---------------------------------------------------------------------------
# connection determinant


def _taylor_step(poles, residues, f, z0, target, order=30):
    """One Taylor step of df/dz = sum_j R_j/(z - a_j) f from z0 toward target.

    poles is an array of the a_j and residues a stacked (J, p, p) array.
    Returns (new_z, new_f).  Step length obeys _STEP_FRACTION times the
    distance to the nearest singularity; the tail of the order-30 series
    is checked and the step halved if it is not negligible."""
    dist = float(np.min(np.abs(z0 - poles)))
    if dist <= 0:
        raise ContinuationError("transport hit a singular point")
    remaining = target - z0
    h_len = min(abs(remaining), _STEP_FRACTION * dist)
    direction = remaining / abs(remaining)
    p = f.shape[0]
    # Taylor coefficients of the coefficient matrix at z0, as one row block
    # [M_0 | M_1 | ...]:  M_k = sum_j R_j (-1)^k / (z0 - a_j)^{k+1}
    invs = 1.0 / (z0 - poles)
    powers = (-1.0) ** np.arange(order) * invs[:, None] ** (np.arange(order) + 1)
    mrow = np.einsum("jk,jab->akb", powers, residues).reshape(p, order * p)
    # Solution coefficients newest first: c_n sits in block order - n, so
    # (n + 1) c_{n+1} = sum_k M_k c_{n-k} is one dot with a contiguous tail.
    # They do not depend on the step length; only the sum below does.
    coeffs = np.empty((order + 1) * p, dtype=complex)
    coeffs[order * p :] = f
    for n in range(order):
        start = (order - n) * p
        coeffs[start - p : start] = mrow[:, : (n + 1) * p].dot(coeffs[start:]) / (n + 1)
    stack = coeffs.reshape(order + 1, p)
    top = float(np.linalg.norm(stack[0]))
    degrees = np.arange(order, -1, -1)
    while True:
        h = h_len * direction
        val = (h**degrees).dot(stack)
        tail = top * abs(h) ** order
        if tail <= 1e-12 * max(1.0, float(np.linalg.norm(val))):
            # a full step lands on target exactly, not a rounding away from it
            return (target if h_len == abs(remaining) else z0 + h), val
        h_len *= 0.5
        if h_len < 1e-14 * max(1.0, abs(z0)):
            raise ContinuationError("step size underflow during transport")


def _transport(poles, residues, f, z0, z1, order=30, max_steps=5000):
    poles = np.asarray(poles, dtype=complex)
    residues = np.asarray(residues, dtype=complex)
    z, val = z0, f
    for _ in range(max_steps):
        if z == z1:
            return val
        z, val = _taylor_step(poles, residues, val, z, z1, order=order)
    raise ContinuationError("too many transport steps")


def connection_polarizations(problem: NchoProblem) -> list[NchoProblem]:
    """Möbius configurations the connection determinant can run in, one per
    inner pencil pole.  Polarization 0 is the canonical one."""
    return [config for config, _ in _polarizations(problem)]


def _polarizations(problem: NchoProblem) -> list[tuple[NchoProblem, PencilDecomposition | None]]:
    """connection_polarizations(problem), each paired with its pencil
    decomposition when it is already known (the configuration is problem
    itself, decomposed here) and None otherwise."""
    if problem.p > 2:
        raise ContractViolation("connection method supports p <= 2")
    dec = decompose_pencil(problem)
    for al in dec.poles:
        if abs(abs(al) - 1.0) < 1e-6:
            raise PositivityError(f"pencil pole {al} sits on the unit circle")
    inner = [al for al in dec.poles if al != 0 and abs(al) < 1.0]
    if not inner:
        raise ContinuationError(
            "no inner connection pole; the problem is ladder-diagonal, use truncation"
        )
    inner.sort(key=pole_order_key)
    if problem.p == 1:
        return [(problem, dec)]
    if dec.zero_is_pole and len(inner) == 1:
        swap = Su11Element.sending_to_zero(inner[0])
        return [(problem, dec), (transform_problem(swap, problem), None)]
    if len(inner) == 2:
        return [
            (transform_problem(Su11Element.sending_to_zero(beta), problem), None)
            for beta in inner
        ]
    raise ContinuationError("unsupported pole configuration for the connection method")


def _connection_t(
    problem: NchoProblem, lam: complex, dec: PencilDecomposition | None = None
) -> complex:
    system = build_fuchsian(problem, lam, dec)
    poles = system.singular_points
    residues = system.residues
    p = problem.p
    inner = [(al, j) for j, al in enumerate(poles) if al != 0 and abs(al) < 1.0]
    if len(inner) != 1:
        raise ContinuationError("connection evaluation expects exactly one inner pole")
    alpha, j_alpha = inner[0]
    r_alpha = residues[j_alpha]

    if 0.0 in poles:
        r0 = residues[poles.index(0.0)]
    else:
        r0 = np.zeros((p, p), dtype=complex)
    w0, v0 = np.linalg.eig(r0)
    order0 = np.argsort(np.abs(w0))
    if p > 1 and abs(w0[order0[1]]) <= 1e-10 * max(1.0, float(np.max(np.abs(w0)))):
        raise ContinuationError("exponent-zero frame is not one-dimensional at this lambda")
    c0 = v0[:, order0[0]]
    c0 = fix_phase(c0 / np.linalg.norm(c0))

    nonzero = [(al, r) for al, r in zip(poles, residues) if al != 0]
    # alpha is the nonzero pole nearest the origin, so the series at the
    # origin converges at z_start like 0.35^n
    z_start = 0.35 * alpha

    # Frobenius series at the origin for the exponent-zero solution, with
    # H_k = -sum_j R_j / a_j^{k+1} laid out as one row block [H_0 | H_1 | ...]
    hmax = 420
    invs = np.array([1.0 / al for al, _ in nonzero])
    powers = np.cumprod(np.broadcast_to(invs[:, None], (len(nonzero), hmax)), axis=1)
    hrow = np.einsum("jk,jab->akb", powers, -np.array([r for _, r in nonzero]))
    hrow = hrow.reshape(p, hmax * p)
    # coefficients newest first: c_l sits in block hmax - 1 - l, so
    # sum_l H_{n-1-l} c_l is one dot with a contiguous tail of the buffer
    coeffs = np.empty(hmax * p, dtype=complex)
    coeffs[-p:] = c0
    val = c0.astype(complex).copy()
    w_scale = max(1.0, float(np.max(np.abs(w0))))
    zpow = 1.0 + 0.0j
    quiet = 0
    # far up the spectrum the coefficients overflow before they decay; stop
    # at the first non-finite term instead of running the rest on inf/nan
    try:
        with np.errstate(over="raise", invalid="raise"):
            for n in range(1, hmax):
                start = (hmax - n) * p
                rhs = hrow[:, : n * p].dot(coeffs[start:])
                gap = min(abs(n - wv) for wv in w0)
                if gap <= 1e-9 * w_scale:
                    raise ResonanceError(
                        f"exponent at the origin within {gap:.2e} of a positive integer"
                    )
                cn = np.linalg.solve(n * np.eye(p) - r0, rhs)
                coeffs[start - p : start] = cn
                zpow *= z_start
                term = cn * zpow
                val += term
                if float(np.linalg.norm(term)) <= 1e-16 * max(1.0, float(np.linalg.norm(val))):
                    quiet += 1
                    if quiet >= 3:
                        break
                else:
                    quiet = 0
            else:
                raise ContinuationError(f"series at the origin did not settle in {hmax} terms")
    except FloatingPointError:
        raise ContinuationError(
            f"series at the origin did not settle: term {n} overflowed"
        ) from None

    d_alpha = min(abs(alpha - al) for al in poles if al != alpha)
    r_match = 0.35 * d_alpha
    z_match = alpha * (1.0 - r_match / abs(alpha))
    f_match = _transport(poles, residues, val, z_start, z_match)

    theta0 = np.angle(z_match - alpha)
    f_loop = f_match
    z_cur = z_match
    for k in range(1, _LOOP_ARCS + 1):
        z_next = z_match if k == _LOOP_ARCS else alpha + r_match * np.exp(
            1j * (theta0 + 2.0 * np.pi * k / _LOOP_ARCS)
        )
        f_loop = _transport(poles, residues, f_loop, z_cur, z_next)
        z_cur = z_next

    wa, va = np.linalg.eig(r_alpha)
    ia = int(np.argmax(np.abs(wa)))
    rho = wa[ia]
    d0 = va[:, ia]
    d0 = fix_phase(d0 / np.linalg.norm(d0))
    deficit = complex(d0.conj() @ (f_loop - f_match))
    denom = np.exp(rho * np.log(r_match))
    scale = max(float(np.linalg.norm(f_match)), 1e-100)
    t = np.exp(-1j * np.pi * rho) * deficit / (2j * denom * scale)
    return complex(t)


def connection_determinant(problem: NchoProblem, lam: complex, polarization: int = 0) -> complex:
    """Scalar whose zeros along the real axis are eigenvalues.

    The exponent-zero solution frame at the origin is transported to the
    inner pencil pole and once around it; T is the single-valuedness
    deficit, normalized so that for one-dimensional frames it equals
    sin(pi * rho(lam)) times a smooth nonvanishing factor (real on the real
    axis for real-matrix problems).  Eigenfunctions whose exponent at the
    origin is a positive integer are visible in the other polarization; see
    connection_polarizations."""
    configs = _polarizations(problem)
    if not 0 <= polarization < len(configs):
        raise ContractViolation(f"polarization must be in range 0..{len(configs) - 1}")
    config, dec = configs[polarization]
    return _connection_t(config, lam, dec)


@dataclass
class RefineResult:
    value: float
    residual: float
    polarization: int


def _refine_in_config(
    config: NchoProblem, dec: PencilDecomposition, seed: float, tol: float
) -> tuple[float, float]:
    # brentq evaluates the bracket ends again and returns a point it has
    # evaluated, so each T value is computed once and looked up after
    seen: dict[float, complex] = {}

    def t_of(lam):
        if lam not in seen:
            seen[lam] = _connection_t(config, lam, dec)
        return seen[lam]

    t_seed = t_of(seed)
    if abs(t_seed) < tol:
        return float(seed), abs(t_seed)
    delta = max(1e-7, 1e-7 * abs(seed))
    width_cap = max(0.5, 0.05 * abs(seed))
    while delta <= width_cap:
        t_lo, t_hi = t_of(seed - delta), t_of(seed + delta)
        slope = (t_hi - t_lo) / (2.0 * delta)
        if abs(slope) < 1e-14:
            delta *= 4.0
            continue
        u = np.conj(slope) / abs(slope)
        f_lo, f_hi = float((u * t_lo).real), float((u * t_hi).real)
        if f_lo == 0.0:
            return float(seed - delta), abs(t_lo)
        if f_hi == 0.0:
            return float(seed + delta), abs(t_hi)
        if np.sign(f_lo) != np.sign(f_hi):
            root = brentq(
                lambda lam: float((u * t_of(lam)).real),
                seed - delta,
                seed + delta,
                xtol=1e-13,
                rtol=8.9e-16,
            )
            return float(root), abs(t_of(root))
        delta *= 4.0
    raise RefinementError(f"no sign change of T in a bracket around seed {seed}")


def refine_eigenvalue(
    problem: NchoProblem,
    seed: float,
    tol: float = 1e-10,
    polarizations: list[tuple[NchoProblem, PencilDecomposition | None]] | None = None,
) -> RefineResult:
    """Bracketed root refinement of the connection determinant near a seed
    (seeds come from truncation).  Tries each polarization in turn.

    polarizations, when given, lists the configurations of
    connection_polarizations(problem), each with its pencil decomposition or
    None.  A configuration is decomposed when it is first tried and the
    decomposition is stored back into the list, so the seeds of one spectrum
    call share it."""
    if polarizations is None:
        polarizations = _polarizations(problem)
    failures = []
    for idx, (config, dec) in enumerate(polarizations):
        try:
            if dec is None:
                dec = decompose_pencil(config)
                polarizations[idx] = (config, dec)
            value, residual = _refine_in_config(config, dec, seed, tol)
            return RefineResult(value=value, residual=residual, polarization=idx)
        except (RefinementError, ResonanceError, ContinuationError) as exc:
            failures.append(f"polarization {idx}: {exc}")
    raise RefinementError("; ".join(failures))


def spectrum_connection(
    problem: NchoProblem, count: int, tol: float = 1e-10, seeds: SpectrumResult | None = None
) -> SpectrumResult:
    """Truncation seeds refined on the connection determinant.  seeds, when
    given, is the caller's spectrum_truncated(problem, count) result;
    without it the seeds are computed here at tolerance _SEED_TOL.
    The polarizations and their pencil decompositions do not depend on lam
    and are built once for all seeds."""
    if seeds is None:
        seeds = spectrum_truncated(problem, count, tol=_SEED_TOL)
    polarizations = _polarizations(problem)
    values = []
    residuals = []
    for s in seeds.eigenvalues:
        r = refine_eigenvalue(problem, float(s), tol=tol, polarizations=polarizations)
        values.append(r.value)
        residuals.append(r.residual)
    return SpectrumResult(
        eigenvalues=np.array(values),
        method="connection",
        convergence=np.array(residuals),
        orders=seeds.orders,
    )


# ---------------------------------------------------------------------------
# radial modes and profiles


def _laguerre_modes(mu: float, t: np.ndarray, count: int):
    """Yield the radial modes i^m (m!/(mu)_m) L_m^{(mu-1)}(2t), without the
    e^{-t} factor, for m = 0..count-1: one ascending pass of the three-term
    Laguerre recurrence over all of t at once."""
    x = 2.0 * t
    a = mu - 1.0
    norms = _norm_sq(mu, count)
    lk_prev = np.ones_like(x)
    lk = 1.0 + a - x
    for m in range(count):
        if m >= 2:
            lk, lk_prev = ((2 * m - 1 + a - x) * lk - (m - 1 + a) * lk_prev) / m, lk
        yield (1j**m) * norms[m] * (lk_prev if m == 0 else lk)


def laguerre_mode(m: int, mu: float, t, weighted: bool = True):
    """Radial mode l_m(t) = i^m (m!/(mu)_m) L_m^{(mu-1)}(2t) e^{-t}, via the
    ascending three-term recurrence of the Laguerre factor.  With
    weighted=False the e^{-t} factor is dropped (useful under quadrature
    weights)."""
    if m < 0 or mu <= 0:
        raise ContractViolation("need m >= 0 and mu > 0")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0):
        raise ContractViolation("t must be positive")
    out = next(islice(_laguerre_modes(mu, t_arr, m + 1), m, None))
    if weighted:
        out = out * np.exp(-t_arr)
    return out if out.shape else complex(out)


@dataclass
class ProfileResult:
    t: np.ndarray
    values: np.ndarray  # shape (len(t), p)
    coefficients: np.ndarray  # shape (order, p), monomial coefficients u_m
    tail: np.ndarray  # |u_m| per mode
    eigenvalue: float
    order: int


def eigenfunction_profile(
    problem: NchoProblem,
    lam: float,
    t_grid,
    tol: float = 1e-10,
    match_tol: float = 1e-6,
) -> ProfileResult:
    """Radial profile of the eigenfunction at (or near) lam: the truncated
    eigenvalue nearest lam is followed through the order doublings until it
    settles, its eigenvector is found by banded inverse iteration, and the
    coefficients u_m recovered through the basis norms are summed against
    the radial modes on t_grid."""
    t_arr = np.asarray(t_grid, dtype=float)
    if np.any(t_arr <= 0):
        raise ContractViolation("t grid must be positive")
    p, mu = problem.p, problem.mu

    def nearest(band):
        # lowest k eigenvalues, k grown until they reach past lam
        n = band.shape[1]
        k = min(8, n)
        while True:
            vals = eigen_banded_lowest(band, k)
            if vals[-1] >= lam or k == n:
                return vals[[int(np.argmin(np.abs(vals - lam)))]]
            k = min(2 * k, n)

    vals, _, band = _settle(
        lambda order: build_truncated(problem, order).band, nearest, 64, tol, _MAX_ORDER
    )
    value = float(vals[0])
    if abs(value - lam) > match_tol * max(1.0, abs(lam)):
        raise NotAnEigenvalueError(
            f"{lam} is not within {match_tol:g} of a truncated eigenvalue (nearest {value})"
        )
    order = band.shape[1] // p
    vec = eigenvector_banded(band, value)
    vec = fix_phase(vec / np.linalg.norm(vec))
    u = vec.reshape(order, p) / np.sqrt(_norm_sq(mu, order))[:, None]

    weight = np.exp(-t_arr)
    values = np.zeros((t_arr.size, p), dtype=complex)
    for m, mode in enumerate(_laguerre_modes(mu, t_arr, order)):
        values += (mode * weight)[:, None] * u[m][None, :]
    return ProfileResult(
        t=t_arr,
        values=values,
        coefficients=u,
        tail=np.linalg.norm(u, axis=1),
        eigenvalue=value,
        order=order,
    )


# ---------------------------------------------------------------------------
# confluence sweep

_SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _rabi_band(rabi: RabiParameters, order: int) -> np.ndarray:
    m = np.arange(order)
    diag = rabi.omega * m[:, None, None] * np.eye(2) + (
        rabi.Delta * _SIGMA3 + rabi.eps_bias * _SIGMA1
    )
    coup = rabi.g_coupling * np.sqrt(m[1:])[:, None, None] * _SIGMA1
    return block_band(diag, coup)


def rabi_truncated_spectrum(rabi: RabiParameters, count: int, tol: float = 1e-10) -> np.ndarray:
    vals, _, _ = _settle(
        lambda order: _rabi_band(rabi, order),
        lambda band: eigen_banded_lowest(band, count),
        max(64, count),
        tol,
        _MAX_ORDER,
    )
    return vals


@dataclass
class SweepResult:
    mu_values: list[float]
    deviations: list[float]
    rabi_eigenvalues: np.ndarray


def confluence_sweep(
    rabi: RabiParameters, mu_list, count: int = 5, tol: float = 1e-9
) -> SweepResult:
    """For each mu, compare the scaled oscillator spectrum (coupling
    g/sqrt(mu), energy shift mu/2) with the Rabi truncation; the maximum
    absolute deviation per mu decays like 1/mu."""
    mu_values = [float(m) for m in mu_list]
    if any(b >= a for a, b in zip(mu_values[1:], mu_values[:-1])):
        raise ContractViolation("mu values must be strictly increasing")
    if count < 1:
        raise ContractViolation("count must be at least 1")
    rabi_vals = rabi_truncated_spectrum(rabi, count, tol=tol)
    eye = np.eye(2, dtype=complex)
    deviations = []
    for mu in mu_values:
        b = (rabi.g_coupling / math.sqrt(mu)) * _SIGMA1
        c0 = -rabi.Delta * _SIGMA3 - rabi.eps_bias * _SIGMA1 + 0.5 * mu * rabi.omega * eye
        prob = NchoProblem(p=2, mu=mu, A=rabi.omega * eye, B=b, C0=c0)
        vals = spectrum_truncated(prob, count, tol=tol).eigenvalues / 2.0
        deviations.append(float(np.max(np.abs(vals - rabi_vals))))
    return SweepResult(mu_values=mu_values, deviations=deviations, rabi_eigenvalues=rabi_vals)
