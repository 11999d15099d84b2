"""Spectra by two independent routes: Hermitian block-tridiagonal
truncation in the weighted-disk basis, and a connection matrix built by
series transport of the solution frame from a regular base point once
around each inner singular point, refined by Newton.  Also: radial mode functions, eigenfunction profiles,
and the large-mu confluence sweep against the Rabi truncation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np
from scipy.linalg import schur

from .covariance import gauge_problem
from .errors import (
    ContinuationError,
    ContractViolation,
    ConvergenceError,
    PositivityError,
    RefinementError,
)
from .fuchsian import build_fuchsian
from .heun import RabiParameters
from .linalg import block_band, eigen_banded_lowest, eigenvector_banded, fix_phase
from .pencil import NchoProblem, PencilDecomposition, _inner_pole_radius, _rank, decompose_pencil

__all__ = [
    "SpectrumResult",
    "ProfileResult",
    "SweepResult",
    "build_truncated",
    "spectrum_truncated",
    "connection_matrix",
    "spectrum_connection",
    "laguerre_mode",
    "eigenfunction_profile",
    "rabi_truncated_spectrum",
    "confluence_sweep",
]

_MAX_ORDER = 8192  # truncation order cap of every doubling loop
_STEP_FRACTION = 0.4  # a Taylor step is at most this times the distance to the nearest pole
_MATCH_FRACTION = 0.35  # a matching radius is at most this times the distance to another pole
# arcs of the loop around the inner pole: the fewest whose chord, 2 sin(pi / n)
# times the radius, fits in one Taylor step from a point on the circle
_LOOP_ARCS = math.ceil(math.pi / math.asin(_STEP_FRACTION / 2))
_MAX_STEPS = 5000  # transport steps on one leg
_BATCH_STEPS = 4096  # propagators of one batch, which bounds the memory of a Newton round
_NEWTON_ROUNDS = 8  # Newton rounds of spectrum_connection before it gives up
_SWEEP_TOL = 1e-9  # truncation tolerance of both spectra of confluence_sweep


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
    round-off below the diagonal and the outer diagonals nonzero.

    Then the diagonal phase gauge D with phase 0 = 1, each later phase set
    by the largest entry linking it to one already set, is tried on A, T
    and C0: if no imaginary part of D* M D exceeds 8 eps max(1, max |M|),
    they are zeroed, the band is real and LAPACK runs dsbevx.  When B has
    distinct real eigenvalues, Z is unique up to such a D, so any real form
    is found; other problems keep the complex band."""
    t, z = schur(problem.B, output="complex")
    gauged = gauge_problem(z.conj().T, problem).with_matrices(B=t)
    mats = np.stack([gauged.A, t, gauged.C0])
    # every entry oriented from row to column index: M_ij and conj(M_ji)
    links = np.concatenate([mats, mats.conj().transpose(0, 2, 1)])
    size = np.abs(links)
    phase, done = np.ones(problem.p, dtype=complex), np.arange(problem.p) == 0
    for _ in range(1, problem.p):
        pick = np.argmax(np.where(done[:, None] & ~done, size, -1.0))
        k, i, j = np.unravel_index(pick, size.shape)
        # angle(0) = 0: an index linked by no entry takes the phase of i
        phase[j] = phase[i] * np.exp(-1j * np.angle(links[k, i, j]))
        done[j] = True
    real = phase.conj()[:, None] * mats * phase
    bound = 8 * np.finfo(float).eps * np.maximum(1.0, size[:3].max(axis=(1, 2)))
    if np.all(np.abs(real.imag).max(axis=(1, 2)) <= bound):
        return gauged.with_matrices(A=real[0].real, B=real[1].real, C0=real[2].real)
    return gauged


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    convergence: np.ndarray
    orders: tuple[int, int]


def spectrum_truncated(problem: NchoProblem, count: int, tol: float = 1e-10) -> SpectrumResult:
    """Lowest eigenvalues by doubling the truncation order until they
    settle, solved in the Schur gauge of B (_schur_gauged).  LAPACK runs
    dsbevx when a diagonal phase gauge makes that real, as on the classical
    family under any unitary gauge, and zhbevx otherwise.

    The eigenfunction is holomorphic on the unit disk and singular only at
    the outer pencil poles 1/conj(alpha), so its coefficients decay like
    r^m, r the largest inner pole modulus.  The doubling starts at the
    largest of 64, the least order holding count eigenvalues and
    ceil(log tol / log r) capped at _MAX_ORDER // 2; the last is left out
    when r = 0 (B = 0), tol = 0 or tol >= 1."""
    if count < 1:
        raise ContractViolation("count must be at least 1")
    start = max(64, -(-count // problem.p))
    r = _inner_pole_radius(problem)
    if r > 0 and 0 < tol < 1:
        start = max(start, min(math.ceil(math.log(tol) / math.log(r)), _MAX_ORDER // 2))
    gauged = _schur_gauged(problem)
    vals, change, band = _settle(lambda order: build_truncated(gauged, order), count, start, tol)
    order = band.shape[1] // problem.p
    return SpectrumResult(eigenvalues=vals, convergence=change, orders=(order // 2, order))


# ---------------------------------------------------------------------------
# connection matrix


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
    at z0 summed at z1, one recurrence for all steps.  residues is
    (len(steps), n_poles, p, p), one set per step.  With h = z1 - z0,
    w_j = h/(z0 - a_j) and D_n = h^n C_n
    the terms (D_0 = I),
    (n + 1) D_{n+1} = sum_j w_j R_j S_{j,n} with S_{j,n} = D_n - w_j S_{j,n-1}.
    A step whose last term exceeds 1e-12 times its propagator is split in
    two; the halves run as further batches of at most _BATCH_STEPS."""
    z0, z1 = np.array(steps, dtype=complex).T
    h = z1 - z0
    n_poles, p = residues.shape[1:3]
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
        halves = np.stack([a, mid, mid, b], 1).reshape(-1, 2)
        res = np.repeat(residues[split], 2, axis=0)
        per = 2 * max(1, _BATCH_STEPS // 2)  # whole pairs of halves per batch
        cuts = [slice(i, i + per) for i in range(0, len(halves), per)]
        props = np.concatenate([_step_propagators(poles, res[c], halves[c]) for c in cuts])
        phi[split] = props[1::2] @ props[::2]
    return phi


@dataclass(eq=False)
class _ConnectionPlan:
    """The part of the row matrix L(lam) that does not depend on lam: the
    singular points, the residues R_j(lam) = res0[j] + lam res1[j], one
    (pole index, row count, radius, leg steps, loop steps) per inner pole,
    and the transport steps of every inner pole in that order, the leg
    from the base point to its matching point and then the loop around it."""

    poles: np.ndarray
    res0: np.ndarray
    res1: np.ndarray
    rows: list[tuple[int, int, float, int, int]]
    steps: list[tuple[complex, complex]]


def _connection_plan(problem: NchoProblem, dec: PencilDecomposition) -> _ConnectionPlan:
    """Base point, matching points and transport steps of the row matrix,
    from the pencil decomposition alone.  The candidate base points are 0
    when 0 is regular, then 16 points on the circle of half the least
    nonzero inner pole modulus (radius 0.5 when 0 is the only inner pole,
    as with B = 0), farthest from the poles first.  The first whose
    straight legs all stay out of the disks the other inner poles' matching
    radii can fill is taken, failing that the one whose legs come least
    close: a leg through a pole would never reach its matching point."""
    for al in dec.poles:
        if abs(abs(al) - 1.0) < 1e-6:
            raise PositivityError(f"pencil pole {al} sits on the unit circle")
    poles = np.array(dec.poles, dtype=complex)
    inner = np.flatnonzero(np.abs(poles) < 1.0)
    nonzero = np.abs(poles[inner][poles[inner] != 0])
    ring = 0.5 * nonzero.min(initial=1.0) * np.exp(2j * np.pi * np.arange(16) / 16)
    ring = ring[np.argsort(-np.min(np.abs(ring[:, None] - poles), axis=1), kind="stable")]
    candidates = ring if dec.zero_is_pole else np.concatenate(([0.0], ring))
    apart = np.abs(poles[inner, None] - poles)
    apart[np.arange(len(inner)), inner] = np.inf
    nearest = apart.min(axis=1)
    # distance of inner pole j from the leg to inner pole k, over nearest[j]
    off = poles[inner] - candidates[:, None, None]
    leg = off.transpose(0, 2, 1)
    t = np.clip((off * leg.conj()).real / np.abs(leg) ** 2, 0.0, 1.0)
    clear = np.abs(off - t * leg) / nearest
    clear[:, np.arange(len(inner)), np.arange(len(inner))] = np.inf
    base = candidates[np.argmax(np.minimum(clear.min(axis=(1, 2)), _MATCH_FRACTION))]
    rows, steps = [], []
    for j, near in zip(inner, nearest):
        al = poles[j]
        radius = _MATCH_FRACTION * min(near, abs(base - al))
        z_match = al + radius * (base - al) / abs(base - al)
        leg = _path_steps(poles, base, z_match)
        # the loop of _LOOP_ARCS arcs around al, back to the matching point
        angles = np.angle(z_match - al) + 2.0 * np.pi * np.arange(1, _LOOP_ARCS) / _LOOP_ARCS
        loop = [z_match, *(al + radius * np.exp(1j * angles)), z_match]
        arcs = [step for a, b in zip(loop[:-1], loop[1:]) for step in _path_steps(poles, a, b)]
        # as many rows as the pole's rank: the count must not follow which
        # exponents look nonzero at some lam
        rows.append((int(j), _rank(dec.residues[j]), float(radius), len(leg), len(arcs)))
        steps += leg + arcs
    # R_j(lam) = res0[j] + lam res1[j], with the lam part exact
    res0 = np.array(build_fuchsian(problem, 0.0, dec).residues)
    res1 = np.array([pj @ problem.lam_coeff for pj in dec.residues])
    return _ConnectionPlan(poles=poles, res0=res0, res1=res1, rows=rows, steps=steps)


def _row_matrices(plan: _ConnectionPlan, lams) -> np.ndarray:
    """L(lam) for every lam of lams, stacked (len(lams), p, p), from one
    batch of propagators over every step of every row at every lam.

    The frame with F(b) = I is transported to the matching point z_k of
    each inner pole alpha_k (F_match) and once around alpha_k (F_loop).
    The pole's rows are, for each of its rank(P_k) largest-modulus
    exponents rho with right eigenvector d of R_k (phase fixed),
    e^{-i pi rho} d*(F_loop - F_match) / (2i r_k^rho |r_k^{-R_k} F_match|_2)."""
    lams = np.asarray(lams, dtype=complex)
    res = plan.res0 + lams[:, None, None, None] * plan.res1
    n, n_steps, p = len(lams), len(plan.steps), res.shape[-1]
    out = []
    # far up the spectrum the frame or r_k^rho leaves the floating-point
    # range: stop there instead of returning inf/nan
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            props = _step_propagators(
                plan.poles, np.repeat(res, n_steps, axis=0), plan.steps * n
            ).reshape(n, n_steps, p, p)
            start = 0
            for j, rank, radius, n_leg, n_loop in plan.rows:
                f_match = np.eye(p, dtype=complex)
                for k in range(start, start + n_leg):
                    f_match = props[:, k] @ f_match
                f_loop = f_match
                for k in range(start + n_leg, start + n_leg + n_loop):
                    f_loop = props[:, k] @ f_loop
                start += n_leg + n_loop
                w, v = np.linalg.eig(res[:, j])
                top = np.argsort(-np.abs(w), axis=1, kind="stable")[:, :rank]
                rho = np.take_along_axis(w, top, 1)
                d = fix_phase(np.take_along_axis(v, top[:, None, :], 2).transpose(0, 2, 1))
                # the frame's size in the local basis (z - alpha_k)^{R_k}: |F_match|
                # alone holds r_k^rho wherever a nonzero exponent carries the
                # frame (always at p = 1), and would count it twice
                log_r = math.log(radius)
                local = v @ (np.exp(-w * log_r)[:, :, None] * np.linalg.solve(v, f_match))
                scale = np.linalg.norm(local, 2, axis=(1, 2))[:, None]
                factor = np.exp(-1j * np.pi * rho) / (2j * np.exp(rho * log_r) * scale)
                out.append(factor[:, :, None] * (d.conj() @ (f_loop - f_match)))
    except FloatingPointError:
        raise ContinuationError("transport left the floating-point range") from None
    return np.concatenate(out, axis=1)


def connection_matrix(problem: NchoProblem, lam: complex) -> np.ndarray:
    """The p x p row matrix L(lam): lam is an eigenvalue exactly when the
    Fuchsian system has a solution holomorphic on the whole disk, that is
    when L(lam) v = 0 for its value v at the base point, and the nullity
    of L(lam) is the multiplicity.  Each inner pencil pole alpha_k gives
    rank(P_k) rows, the single-valuedness deficit of the transported frame
    once around alpha_k (see _row_matrices); for p = 1 the one entry is
    sin(pi rho) times a unit phase."""
    return _row_matrices(_connection_plan(problem, decompose_pencil(problem)), [lam])[0]


def spectrum_connection(
    problem: NchoProblem, seeds: SpectrumResult, tol: float = 1e-10
) -> SpectrumResult:
    """The eigenvalues of seeds, the caller's spectrum_truncated(problem,
    count) result, each refined by Newton on the connection matrix.

    The plan is built once, from one decomposition of problem.  Each round
    evaluates L at every open seed s and at s + delta, delta =
    1e-7 max(1, |s|), in one batch of propagators (one per _BATCH_STEPS
    steps, when the round has more), solves L(s) x = -h L'(s) x with the
    forward difference L', and moves s by the real part of the h of least
    modulus.  A seed stays open until its |h| is at most tol max(1, |s|);
    every seed takes at least one step.  The convergence reported is the
    last |h|, in units of lam.  A value that ends more than half the gap
    to the nearest other seed from its own seed (seeds closer than its
    delta count as one) is refused: it may have left for another root."""
    _check_tol(tol)
    plan = _connection_plan(problem, decompose_pencil(problem))
    start = np.array(seeds.eigenvalues, dtype=float)
    values = start.copy()
    last_step = np.zeros(len(values))
    open_ = np.arange(len(values))
    per_batch = max(1, _BATCH_STEPS // len(plan.steps))
    for _ in range(_NEWTON_ROUNDS):
        s = values[open_]
        delta = 1e-7 * np.maximum(1.0, np.abs(s))
        lams = np.concatenate([s, s + delta])
        mats = np.concatenate(
            [_row_matrices(plan, lams[i : i + per_batch]) for i in range(0, len(lams), per_batch)]
        )
        at, ahead = mats[: len(s)], mats[len(s) :]
        try:
            h = np.linalg.eigvals(np.linalg.solve((at - ahead) / delta[:, None, None], at))
        except np.linalg.LinAlgError:
            raise RefinementError("the Newton pencil of the connection matrix is singular") from None
        h = h[np.arange(len(s)), np.argmin(np.abs(h), axis=1)]
        values[open_] = s + h.real
        last_step[open_] = np.abs(h)
        open_ = open_[np.abs(h) > tol * np.maximum(1.0, np.abs(values[open_]))]
        if not open_.size:
            break
    else:
        raise RefinementError(
            f"Newton on the connection matrix did not settle to {tol:g} in {_NEWTON_ROUNDS} "
            f"rounds at seeds {values[open_].tolist()} (last steps {last_step[open_].tolist()})"
        )
    ordered = np.concatenate(([-np.inf], np.sort(start), [np.inf]))
    near = 1e-7 * np.maximum(1.0, np.abs(start))
    below = start - ordered[np.searchsorted(ordered, start - near, "right") - 1]
    above = ordered[np.searchsorted(ordered, start + near, "left")] - start
    strayed = np.abs(values - start) > 0.5 * np.minimum(below, above)
    if strayed.any():
        raise RefinementError(
            f"Newton on the connection matrix left seeds {start[strayed].tolist()} for "
            f"{values[strayed].tolist()}, more than half the gap to the next seed"
        )
    return SpectrumResult(eigenvalues=values, convergence=last_step, orders=seeds.orders)


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


def laguerre_mode(m: int, mu: float, t):
    """Radial mode l_m(t) = i^m (m!/(mu)_m) L_m^{(mu-1)}(2t) e^{-t}, via the
    ascending three-term recurrence of the Laguerre factor."""
    if m < 0 or mu <= 0:
        raise ContractViolation("need m >= 0 and mu > 0")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0):
        raise ContractViolation("t must be positive")
    lag = next(islice(_laguerre_modes(mu, t_arr, m + 1), m, None))
    out = _mode_factors(mu, m + 1)[m] * lag * np.exp(-t_arr)
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


def confluence_sweep(rabi: RabiParameters, mu_list, count: int = 5) -> SweepResult:
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
    rabi_vals = rabi_truncated_spectrum(rabi, count, tol=_SWEEP_TOL)
    eye = np.eye(2, dtype=complex)
    deviations = []
    for mu in mu_values:
        b = (rabi.g_coupling / math.sqrt(mu)) * _SIGMA1
        c0 = -rabi.Delta * _SIGMA3 - rabi.eps_bias * _SIGMA1 + 0.5 * mu * rabi.omega * eye
        prob = NchoProblem(p=2, mu=mu, A=rabi.omega * eye, B=b, C0=c0)
        vals = spectrum_truncated(prob, count, tol=_SWEEP_TOL).eigenvalues / 2.0
        deviations.append(float(np.max(np.abs(vals - rabi_vals))))
    return SweepResult(mu_values=mu_values, deviations=deviations, rabi_eigenvalues=rabi_vals)
