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
from scipy.linalg import schur

from .covariance import Su11Element, gauge_problem, transform_decomposition, transform_problem
from .errors import (
    ContinuationError,
    ContractViolation,
    ConvergenceError,
    PositivityError,
    RefinementError,
    ResonanceError,
)
from .fuchsian import build_fuchsian
from .heun import RabiParameters
from .linalg import block_band, eigen_banded_lowest, eigenvector_banded, fix_phase
from .pencil import NchoProblem, PencilDecomposition, decompose_pencil, pole_order_key

__all__ = [
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
_MAX_STEPS = 5000  # transport steps on one leg, or in one batch of propagators


def _norm_sq(mu: float, count: int) -> np.ndarray:
    """Squared basis norms m! / (mu)_m for m < count."""
    m = np.arange(1, count)
    return np.cumprod(np.concatenate(([1.0], m / (mu + m - 1.0))))


# ---------------------------------------------------------------------------
# banded truncation


def _check_tol(tol: float) -> None:
    # tol = 0 is kept: no change is below it, so the doubling runs to the cap
    if not (tol >= 0 and math.isfinite(tol)):
        raise ContractViolation("tol must be non-negative and finite")


def _settle(band_of, count: int, order: int, tol: float):
    """Double the truncation order until the lowest count eigenvalues of
    band_of(order) move by less than tol.  Returns (values, change, band) at
    the final order; raises ConvergenceError past _MAX_ORDER, and
    ContractViolation before any band is built when the start order leaves
    no second order below the cap to compare with."""
    _check_tol(tol)
    if 2 * order > _MAX_ORDER:
        raise ContractViolation(
            f"count {count} needs start order {order}, above {_MAX_ORDER // 2}: "
            f"the order cap {_MAX_ORDER} leaves no second order to compare"
        )
    prev = None
    last_change = float("nan")
    while True:
        if order > _MAX_ORDER:
            raise ConvergenceError(
                f"eigenvalues did not settle to {tol:g} by order {order // 2} "
                f"(last change {last_change:g})"
            )
        band = band_of(order)
        vals = eigen_banded_lowest(band, count)
        if prev is not None:
            change = np.abs(vals - prev)
            last_change = float(np.max(change))
            if last_change < tol:
                return vals, change, band
        prev = vals
        order *= 2


def build_truncated(problem: NchoProblem, order: int) -> np.ndarray:
    """Symmetrized truncation of the ladder operator, shifted by -2 C0 so the
    eigenproblem is standard Hermitian, as its lower band (see
    linalg.block_band; 2p rows, bandwidth 2p - 1; linalg.band_to_dense
    expands it).  Solves that need only eigenvalues build it in the Schur
    gauge of B (_schur_gauged), where the last p - 1 rows are zero and
    LAPACK gets p + 1 rows.

    Diagonal blocks are A (2m + mu); the blocks coupling modes m and m+1
    carry 2 B sqrt((m+1)(m+mu)), with B on the sub-diagonal side as dictated
    by the ladder action on monomials."""
    if order < 8:
        raise ContractViolation("truncation order must be at least 8")
    if not problem.has_standard_lam():
        raise ContractViolation("truncation requires the standard spectral family C0 + (lam/2) I")
    mu = problem.mu
    m = np.arange(order)
    diag = problem.A * (2 * m + mu)[:, None, None] - 2.0 * problem.C0
    coup = 2.0 * problem.B * np.sqrt(m[1:] * (m[:-1] + mu))[:, None, None]
    return block_band(diag, coup)


def _schur_gauged(problem: NchoProblem) -> NchoProblem:
    """problem in the unitary gauge U = Z* of the complex Schur form
    B = Z T Z*: the same spectrum, with B set to the exact factor T.  T is
    upper triangular, so every coupling entry of the band lies at most p
    diagonals below the main one; recomputing Z* B Z instead would leave
    round-off below the diagonal and the outer diagonals nonzero."""
    t, z = schur(problem.B, output="complex")
    return gauge_problem(z.conj().T, problem).with_matrices(B=t)


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    convergence: np.ndarray
    orders: tuple[int, int]


def spectrum_truncated(problem: NchoProblem, count: int, tol: float = 1e-10) -> SpectrumResult:
    """Lowest eigenvalues by doubling the truncation order from 64 (or the
    least order holding count of them) until they settle, solved in the
    Schur gauge of B (_schur_gauged)."""
    if count < 1:
        raise ContractViolation("count must be at least 1")
    gauged = _schur_gauged(problem)
    vals, change, band = _settle(
        lambda order: build_truncated(gauged, order), count, max(64, -(-count // problem.p)), tol
    )
    order = band.shape[1] // problem.p
    return SpectrumResult(eigenvalues=vals, convergence=change, orders=(order // 2, order))


# ---------------------------------------------------------------------------
# connection determinant


def _path_steps(poles, z0, z1):
    """(start, end) of every Taylor step on the straight leg from z0 to z1:
    each is at most _STEP_FRACTION times the distance from its start to the
    nearest of poles (an array), so the plan does not depend on lam."""
    steps = []
    z = z0
    for _ in range(_MAX_STEPS):
        if z == z1:
            return steps
        dist = float(np.min(np.abs(z - poles)))
        if dist <= 0:
            raise ContinuationError("transport hit a singular point")
        remaining = z1 - z
        h_len = _STEP_FRACTION * dist
        # a full step lands on z1 exactly, not a rounding away from it
        z_next = z1 if abs(remaining) <= h_len else z + h_len * remaining / abs(remaining)
        steps.append((z, z_next))
        z = z_next
    raise ContinuationError("too many transport steps")


def _step_propagators(poles, residues, steps):
    """Propagators Phi_s of df/dz = sum_j R_j/(z - a_j) f over every step
    (z0, z1) of steps, stacked (len(steps), p, p): the order-30 Taylor series
    at z0 summed at z1, one recurrence for all steps.  With h = z1 - z0,
    w_j = h/(z0 - a_j) and D_n = h^n C_n the terms (D_0 = I),
    (n + 1) D_{n+1} = sum_j w_j R_j S_{j,n} with S_{j,n} = D_n - w_j S_{j,n-1}.
    A step whose last term exceeds 1e-12 times its propagator is split in
    two, and the halves of all such steps run as one more batch."""
    if len(steps) > _MAX_STEPS:
        raise ContinuationError("too many transport steps")
    z0, z1 = np.array(steps, dtype=complex).T
    h = z1 - z0
    n_poles, p = residues.shape[:2]
    w = (h[:, None] / (z0[:, None] - poles))[:, :, None, None]
    # [w_1 R_1 | w_2 R_2 | ...] per step: the sum over j is one product with
    # the S_{j,n} stacked in a column
    wr = (w * residues).transpose(0, 2, 1, 3).reshape(len(h), p, n_poles * p)
    d = np.broadcast_to(np.eye(p, dtype=complex), (len(h), p, p))
    s = np.zeros((len(h), n_poles, p, p), dtype=complex)
    phi = d.copy()
    for n in range(30):
        s = d[:, None] - w * s
        d = wr @ s.reshape(len(h), n_poles * p, p) / (n + 1)
        phi += d
    split = np.linalg.norm(d, axis=(1, 2)) > 1e-12 * np.linalg.norm(phi, axis=(1, 2))
    if split.any():
        a, b = z0[split], z1[split]
        if np.any(np.abs(b - a) < 2e-14 * np.maximum(1.0, np.abs(a))):
            raise ContinuationError("step size underflow during transport")
        mid = a + 0.5 * (b - a)
        halves = _step_propagators(poles, residues, np.stack([a, mid, mid, b], 1).reshape(-1, 2))
        phi[split] = halves[1::2] @ halves[::2]
    return phi


def connection_polarizations(
    problem: NchoProblem,
) -> list[tuple[NchoProblem, PencilDecomposition]]:
    """Möbius configurations the connection determinant can run in, one per
    inner pencil pole, each paired with its pencil decomposition: problem's
    own, decomposed here, pushed forward along the Möbius map of the
    configuration (transform_decomposition).  Polarization 0 is the
    canonical one."""
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
        swaps = [Su11Element.sending_to_zero(inner[0])]
        configs = [(problem, dec)]
    elif len(inner) == 2:
        swaps = [Su11Element.sending_to_zero(beta) for beta in inner]
        configs = []
    else:
        raise ContinuationError("unsupported pole configuration for the connection method")
    return configs + [
        (transform_problem(g, problem), transform_decomposition(g, dec, problem)) for g in swaps
    ]


def _connection_t(problem: NchoProblem, lam: complex, dec: PencilDecomposition) -> complex:
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

    # Frobenius series at the origin for the exponent-zero solution, summed
    # as its terms e_n = c_n z_start^n.  With q_j = z_start/a_j (|q_j| <= 0.35)
    # and t_{j,m} = e_m + q_j t_{j,m-1}, (n - R_0) e_n = -sum_j q_j R_j t_{j,n-1}:
    # each term costs O(J) and no power of 1/a_j is formed
    hmax = 420
    q = np.array([z_start / al for al, _ in nonzero])
    qrow = -np.hstack([qj * r for qj, (_, r) in zip(q, nonzero)])
    t_j = np.tile(c0, (len(nonzero), 1))
    val = c0.astype(complex).copy()
    gaps = np.min(np.abs(np.arange(1, hmax)[:, None] - w0), axis=1)
    resonant = np.flatnonzero(gaps <= 1e-9 * max(1.0, float(np.max(np.abs(w0))))).tolist()
    n_res = resonant[0] + 1 if resonant else hmax
    solvers = np.linalg.inv(np.arange(1, n_res)[:, None, None] * np.eye(p) - r0)
    quiet = 0
    term_max = 0.0
    # far up the spectrum the terms overflow before they decay; stop at the
    # first non-finite term instead of running the rest on inf/nan
    try:
        with np.errstate(over="raise", invalid="raise"):
            for n in range(1, hmax):
                if n == n_res:
                    raise ResonanceError(
                        f"exponent at the origin within {gaps[n - 1]:.2e} of a positive integer"
                    )
                term = solvers[n - 1] @ (qrow @ t_j.ravel())
                t_j = term + q[:, None] * t_j
                val += term
                # hypot: the 2-norm of a p-vector at a fraction of np.linalg.norm's cost
                term_norm = math.hypot(*term.view(float))
                term_max = max(term_max, term_norm)
                if term_norm <= 1e-16 * max(1.0, math.hypot(*val.view(float))):
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
    # far up the spectrum the terms grow far above their sum before they
    # decay, and the sum keeps only about 16 - log10(term_max / |sum|) digits:
    # past a ratio of 1e8 fewer than half are left, and near 1e16 the sum, and
    # with it the sign of T, is round-off
    val_norm = math.hypot(*val.view(float))
    if term_max > 1e8 * val_norm:
        raise ContinuationError(
            f"series at the origin cancels: terms up to {term_max:.1e} sum to {val_norm:.1e}"
        )

    # the leg to z_match and the loop of _LOOP_ARCS arcs around alpha back
    # to it, each arc one step, transported as one batch of propagators
    d_alpha = min(abs(alpha - al) for al in poles if al != alpha)
    r_match = 0.35 * d_alpha
    z_match = alpha * (1.0 - r_match / abs(alpha))
    angles = np.angle(z_match - alpha) + 2.0 * np.pi * np.arange(1, _LOOP_ARCS) / _LOOP_ARCS
    path = [z_start, z_match, *(alpha + r_match * np.exp(1j * angles)), z_match]
    pole_arr = np.array(poles)
    legs = [_path_steps(pole_arr, a, b) for a, b in zip(path[:-1], path[1:])]
    steps = [step for leg in legs for step in leg]

    wa, va = np.linalg.eig(r_alpha)
    ia = int(np.argmax(np.abs(wa)))
    rho = wa[ia]
    d0 = va[:, ia]
    d0 = fix_phase(d0 / np.linalg.norm(d0))
    # far up the spectrum the frame or r_match^rho leaves the floating-point
    # range: stop there instead of returning inf/nan
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            props = _step_propagators(pole_arr, np.array(residues), steps)
            f_match = val
            for phi in props[: len(legs[0])]:
                f_match = phi @ f_match
            f_loop = f_match
            for phi in props[len(legs[0]) :]:
                f_loop = phi @ f_loop
            deficit = complex(d0.conj() @ (f_loop - f_match))
            scale = max(float(np.linalg.norm(f_match)), 1e-100)
            t = np.exp(-1j * np.pi * rho) * deficit / (2j * np.exp(rho * np.log(r_match)) * scale)
    except FloatingPointError:
        raise ContinuationError("transport left the floating-point range") from None
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
    configs = connection_polarizations(problem)
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
    # imported here: scipy.optimize (with the modules it pulls in) would
    # otherwise load at every start of the CLI, most of whose commands never refine
    from scipy.optimize import brentq

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
    polarizations: list[tuple[NchoProblem, PencilDecomposition]] | None = None,
) -> RefineResult:
    """Bracketed root refinement of the connection determinant near a seed
    (seeds come from truncation).  Tries each polarization in turn.

    polarizations, when given, is connection_polarizations(problem), so the
    seeds of one spectrum call share the configurations and their pencil
    decompositions."""
    if polarizations is None:
        polarizations = connection_polarizations(problem)
    failures = []
    for idx, (config, dec) in enumerate(polarizations):
        try:
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
    and are built once for all seeds, from one decomposition of problem."""
    _check_tol(tol)
    if seeds is None:
        seeds = spectrum_truncated(problem, count, tol=_SEED_TOL)
    polarizations = connection_polarizations(problem)
    values = []
    residuals = []
    for s in seeds.eigenvalues:
        r = refine_eigenvalue(problem, float(s), tol=tol, polarizations=polarizations)
        values.append(r.value)
        residuals.append(r.residual)
    return SpectrumResult(
        eigenvalues=np.array(values), convergence=np.array(residuals), orders=seeds.orders
    )


# ---------------------------------------------------------------------------
# radial modes and profiles


_I_POWERS = np.array([1.0, 1j, -1.0, -1j])  # i^m by m mod 4, exactly


def _mode_factors(mu: float, count: int) -> np.ndarray:
    """The factors i^m m!/(mu)_m that turn L_m^{(mu-1)}(2t) into the radial
    mode l_m, for m < count."""
    return _I_POWERS[np.arange(count) % 4] * _norm_sq(mu, count)


def _laguerre_modes(mu: float, t: np.ndarray, count: int):
    """Yield the real Laguerre factors L_m^{(mu-1)}(2t) of the radial modes
    for m = 0..count-1: one ascending pass of the three-term recurrence over
    all of t at once.  The complex factor i^m m!/(mu)_m (_mode_factors) and
    e^{-t} are left to the caller, which applies them to its coefficients
    and to the sum, not to every mode."""
    x = 2.0 * t
    a = mu - 1.0
    lk_prev = np.ones_like(x)
    lk = 1.0 + a - x
    for m in range(count):
        if m >= 2:
            lk, lk_prev = ((2 * m - 1 + a - x) * lk - (m - 1 + a) * lk_prev) / m, lk
        yield lk_prev if m == 0 else lk


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
    out = _mode_factors(mu, m + 1)[m] * next(islice(_laguerre_modes(mu, t_arr, m + 1), m, None))
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
    problem: NchoProblem, seeds: SpectrumResult, index: int, t_grid
) -> ProfileResult:
    """Radial profile of the eigenfunction of eigenvalue seeds.eigenvalues[index],
    seeds being the caller's spectrum_truncated(problem, count) result.

    The operator is built once more at the final order of seeds, the
    eigenvector is found there by banded inverse iteration, and the
    coefficients u_m recovered through the basis norms are summed against
    the radial modes on t_grid: the real Laguerre factors times the complex
    p-vectors i^m (m!/(mu)_m) u_m, with e^{-t} applied once to the sum."""
    if not 0 <= index < len(seeds.eigenvalues):
        raise ContractViolation(f"index must be in range 0..{len(seeds.eigenvalues) - 1}")
    t_arr = np.asarray(t_grid, dtype=float)
    if np.any(t_arr <= 0):
        raise ContractViolation("t grid must be positive")
    p, mu = problem.p, problem.mu
    value = float(seeds.eigenvalues[index])
    order = seeds.orders[1]
    vec = eigenvector_banded(build_truncated(problem, order), value)
    vec = fix_phase(vec / np.linalg.norm(vec))
    u = vec.reshape(order, p) / np.sqrt(_norm_sq(mu, order))[:, None]

    # real arithmetic: the complex p-vector of mode m as a column of 2p reals,
    # summed into rows that run along t
    coef = (_mode_factors(mu, order)[:, None] * u).view(float)[:, :, None]
    acc = np.zeros((2 * p, t_arr.size))
    for c, lag in zip(coef, _laguerre_modes(mu, t_arr, order)):
        acc += c * lag
    values = np.ascontiguousarray((acc * np.exp(-t_arr)).T).view(complex)
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
    # the Rabi ladder conjugated by the Hadamard matrix, which swaps sigma1
    # and sigma3: the coupling g sqrt(m) sigma3 is diagonal, so the band
    # handed to LAPACK has 3 rows instead of 4
    m = np.arange(order)
    diag = rabi.omega * m[:, None, None] * np.eye(2) + (
        rabi.Delta * _SIGMA1 + rabi.eps_bias * _SIGMA3
    )
    coup = rabi.g_coupling * np.sqrt(m[1:])[:, None, None] * _SIGMA3
    return block_band(diag, coup)


def rabi_truncated_spectrum(rabi: RabiParameters, count: int, tol: float = 1e-10) -> np.ndarray:
    # for omega <= 0 the lowest eigenvalues never settle: the doubling would run to the cap
    if not (rabi.omega > 0 and math.isfinite(rabi.omega)):
        raise ContractViolation("omega must be positive and finite")
    vals, _, _ = _settle(lambda order: _rabi_band(rabi, order), count, max(64, count), tol)
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
    if not all(m > 0 and math.isfinite(m) for m in mu_values):
        raise ContractViolation("mu must be positive and finite")
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
