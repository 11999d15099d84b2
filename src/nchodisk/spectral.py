"""Spectra by two independent routes: Hermitian block-tridiagonal
truncation in the weighted-disk basis, and a connection matrix built by
series transport of the solution frame from a regular base point once
around each inner singular point, refined by Newton.  Also: radial mode functions, eigenfunction profiles,
and the large-mu confluence sweep against the Rabi truncation."""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np
from scipy.linalg import cholesky_banded, schur

from .covariance import gauge_problem
from .errors import (
    ContinuationError,
    ContractViolation,
    ConvergenceError,
    RefinementError,
)
from .fuchsian import build_fuchsian
from .heun import RabiParameters
from .linalg import (
    _band_matvec,
    _inverse_iteration,
    _lapack_band,
    block_band,
    eigen_banded_lowest,
    eigenvector_banded,
    fix_phase,
)
from .pencil import NchoProblem, _check_tol, _inner_pole_radius

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
# _step_propagators runs _BATCH_STEPS // p steps at a time, whose products hold
# as many entries as S of _BATCH_STEPS steps: the transport's one memory bound
_BATCH_STEPS = 4096
_NEWTON_ROUNDS = 8  # Newton rounds of spectrum_connection before it gives up
_SWEEP_TOL = 1e-9  # truncation tolerance of both spectra of confluence_sweep
_PROFILE_ROWS = 16  # Laguerre rows of one block of the profile sum, whatever the order


def _norm_sq(mu: float, count: int) -> np.ndarray:
    """Squared basis norms m! / (mu)_m for m < count."""
    m = np.arange(1, count)
    return np.cumprod(np.concatenate(([1.0], m / (mu + m - 1.0))))


# ---------------------------------------------------------------------------
# banded truncation


def _check_start(count: int, order: int, tol: float) -> None:
    """Refuse, before any band is built, a count below 1, a bad tol, or a
    start order that leaves no second order below the cap to compare."""
    if count < 1:
        raise ContractViolation("count must be at least 1")
    _check_tol(tol)
    if 2 * order > _MAX_ORDER:
        raise ContractViolation(
            f"count {count} needs start order {order}, above {_MAX_ORDER // 2}: "
            f"the order cap {_MAX_ORDER} leaves no second order to compare"
        )


def _settle(band_of, count: int, order: int, tol: float, first=None):
    """Double the truncation order until the lowest count eigenvalues of
    band_of(order) move by less than tol.  Returns (values, change, orders)
    with orders the last two; raises ConvergenceError past _MAX_ORDER, and
    _check_start's ContractViolation before any band is built.  first, when
    given, holds the values at the start order, already solved."""
    _check_start(count, order, tol)
    prev = eigen_banded_lowest(band_of(order), count) if first is None else first
    while True:
        if 2 * order > _MAX_ORDER:
            raise ConvergenceError(
                f"eigenvalues did not settle to {tol:g} by order {order} "
                f"(last change {last_change:g})"
            )
        order *= 2
        vals = eigen_banded_lowest(band_of(order), count)
        change = np.abs(vals - prev)
        last_change = float(np.max(change))
        if last_change < tol:
            return vals, change, (order // 2, order)
        prev = vals


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


def _ritz_bounds(band, c_out, count: int, shifts=None):
    """The count lowest eigenvalues of a truncation H_N, given by its band
    as linalg._lapack_band returns it, a bound on the error of each against
    the full operator (inf where none can be formed), and the values of the
    whole window, the shifts of a later order.  c_out is C_N, the first
    coupling block left out (p x p, p the block size): row block N of the
    full operator holds C_N in column block N - 1.  The NCHO truncation
    (2 T sqrt(N (N - 1 + mu)), T the Schur factor of B) and the Rabi ladder
    (g sqrt(N) sigma3) are certified by the same code.

    Without shifts the window comes from one eigensolve.  With shifts (the
    window of an earlier order, which a later order moves by little) there
    is no eigensolve: each shift gives one vector by inverse iteration, and
    its value is the vector's Rayleigh quotient.

    A Ritz vector v of the truncation, extended by zeros, has the residual
    [(H_N - theta) v; C_N v_{N-1}] in the full operator.  Ritz values
    whose intervals theta +- r overlap form one cluster, with
    r = |(H_N - theta) Q|_F + |C_N Q_{N-1}|_F: its c values get c
    orthonormal vectors Q from one subspace inverse iteration, rotated to
    the Ritz vectors of Q* H_N Q so that column k goes with the k-th
    value; so two shifts that collapse onto one vector are bounded as a
    block.  Merging repeats until no intervals overlap.  An eigenvalue of
    the full operator has multiplicity at most p (its eigenfunctions are
    fixed by their p-vector value at a point), so a cluster of more than p
    values is left unbounded.  The window holds count + 1 values, and
    count + p when the cluster of the count-th one reaches its top, so
    that cluster has another above it; with shifts it holds one value per
    shift.  Each value of a cluster gets
    |(H_N - theta) Q|_F + r^2 / gap + rounding, the gap from the cluster's
    values to the nearest interval of another cluster: the first term
    covers the computed values against the Rayleigh-Ritz values of Q, the
    second those against the full operator (Kato-Temple, Parlett ch. 10;
    for a cluster the block bound of Mathias, SIAM J. Matrix Anal. Appl.
    19 (1998) 541-550).  The third covers the rounding of the first: each
    entry of the computed (H_N - theta) v sums 2 kd + 2 products, kd the
    band's bandwidth, so v* (H_N - theta) v moves by at most
    gamma (|v|^T |H_N| |v| + |theta|), with gamma = gamma_{2kd+4} the
    constant of a complex dot product of that length (Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 3), about 4 eps at kd = 2;
    a cluster sums it over its vectors.

    The bound takes the window to hold the lowest eigenvalues.  Without
    shifts the eigensolve gives them.  With shifts one banded Cholesky
    (LAPACK ?pbtrf) of H_N - sigma checks that no eigenvalue lies below
    the window: sigma = lo - m, lo the lower end of the first cluster's
    interval and m = 2 (2 kd + 1) gamma (max_i |H_ii| + |lo|).  The
    computed factor R is exact for H_N - sigma + E with
    |E| <= gamma_{kd+2} |R*| |R| (Higham ch. 10), whose entries lie within
    the band and are at most about max_i |H_ii - sigma|, so |E|_2 < m: a
    failed Cholesky means an eigenvalue below lo, and the bounds are inf;
    a successful one that none lies below lo - 2 m.  A value missed
    inside the window would need an inertia count, which is not made."""
    p, n = c_out.shape[0], band.shape[1]
    nu = (2 * band.shape[0] + 2) * np.finfo(float).eps / 2  # (2 kd + 4) u
    gamma, abs_band = nu / (1.0 - nu), np.abs(band)

    def residuals(q, theta):
        """Column norms of (H_N - theta) q and of C_N q_{N-1}, and the
        rounding term of each column."""
        inner = np.linalg.norm(_band_matvec(band, q) - q * theta, axis=0)
        outer = np.linalg.norm(c_out @ q[-p:], axis=0)
        spread = np.einsum("ij,ij->j", np.abs(q), _band_matvec(abs_band, np.abs(q)))
        return inner, outer, gamma * (spread + np.abs(theta))

    def cluster(lo, hi):
        q = _inverse_iteration(band, vals[lo], hi - lo)[0]
        ritz = np.linalg.eigh(q.conj().T @ _band_matvec(band, q))[1]
        inner, outer, rounding = residuals(q @ ritz, vals[lo:hi])
        inner, outer = np.linalg.norm(inner), np.linalg.norm(outer)
        return [lo, hi, inner, inner + outer, rounding.sum()]

    windows = sorted({min(count + 1, n), min(count + p, n)}) if shifts is None else [len(shifts)]
    for window in windows:
        if shifts is None:
            vals = eigen_banded_lowest(band, window)
            q = _inverse_iteration(band, vals)[:, :, 0].T
        else:
            # the Rayleigh quotients of the vectors, ascending
            q = _inverse_iteration(band, shifts)[:, :, 0].T
            vals = np.einsum("ij,ij->j", q.conj(), _band_matvec(band, q)).real
            q, vals = q[:, np.argsort(vals)], np.sort(vals)
        inner, outer, rounding = residuals(q, vals)
        # clusters as [lo, hi, inner residual, r, rounding], ascending
        clusters = [
            [k, k + 1, a, a + b, c] for k, (a, b, c) in enumerate(zip(inner, outer, rounding))
        ]
        k = 0
        while k + 1 < len(clusters):
            (lo, top, _, r_lo, _), (bottom, hi, _, r_hi, _) = clusters[k : k + 2]
            if vals[top - 1] + r_lo < vals[bottom] - r_hi:
                k += 1
            elif hi - lo > p:
                return vals[:count], np.full(count, np.inf), vals
            else:
                clusters[k : k + 2] = [cluster(lo, hi)]
                k = max(k - 1, 0)
        last = max(i for i, c in enumerate(clusters) if c[0] < count)
        if clusters[last][1] < window:
            break
    else:
        return vals[:count], np.full(count, np.inf), vals
    if shifts is not None:
        lo = vals[0] - clusters[0][3]
        margin = 2 * (2 * band.shape[0] - 1) * gamma * (np.max(abs_band[0]) + abs(lo))
        shifted = band.copy()
        shifted[0] -= lo - margin
        try:
            cholesky_banded(shifted, overwrite_ab=True, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            return vals[:count], np.full(count, np.inf), vals
    bounds = np.empty(count)
    for i in range(last + 1):
        lo, hi, inner, r, rounding = clusters[i]
        gap = vals[clusters[i + 1][0]] - clusters[i + 1][3] - vals[hi - 1]
        if i:
            gap = min(gap, vals[lo] - vals[clusters[i - 1][1] - 1] - clusters[i - 1][3])
        bounds[lo : min(hi, count)] = inner + r * r / gap + rounding
    return vals[:count], bounds, vals


def _left_out(gauged: NchoProblem, order: int) -> np.ndarray:
    """C_N = 2 T sqrt(N (N - 1 + mu)), the first coupling block that the
    order-N truncation of gauged (a _schur_gauged problem, T its B) leaves
    out."""
    return 2.0 * gauged.B * math.sqrt(order * (order - 1 + gauged.mu))


def _certified(band_of, left_out, count: int, start: int, tol: float, radius: float = 0.0):
    """(values, convergence, orders) of the count lowest eigenvalues of the
    ladder whose order-N truncation is band_of(N) and whose first left-out
    coupling block is left_out(N), from the start order.

    _check_start refuses a bad count, tol or start before any band.  Order
    start is solved once and certified (_ritz_bounds): if every bound is
    below tol, orders is (start, start).  Else, when the coefficients decay
    like radius^m (0 < radius < 1), the bounds decay like radius^{2N}, and
    the order N' = min(2N, N + ceil(log(64 max bound / tol) /
    (2 log(1/radius)))) is certified, then 2N, the order the doubling would
    solve next; orders is (N, N') or (N, 2N) for the first that passes.
    Neither runs an eigensolve: the window values of order N are the shifts
    of one banded LU and three solves of inverse iteration, and each value
    is the Rayleigh quotient of its vector.  convergence holds the bounds.
    A certificate that fails at every order, or forms no bound at the
    start, falls back to _settle from the start values: orders is then the
    last two orders and convergence the last change."""
    _check_start(count, start, tol)

    def bounded(order, shifts=None):
        return _ritz_bounds(_lapack_band(band_of(order)), left_out(order), count, shifts)

    first, bounds, shifts = bounded(start)
    vals, order, worst = first, start, float(np.max(bounds))
    if math.isfinite(worst) and worst >= tol and 0 < radius < 1:
        step = math.ceil(math.log(64.0 * worst / tol) / (2.0 * math.log(1.0 / radius)))
        for order in sorted({start + min(start, step), 2 * start}):
            vals, bounds, _ = bounded(order, shifts)
            if np.max(bounds) < tol:
                break
    if np.max(bounds) < tol:
        return vals, bounds, (start, order)
    return _settle(band_of, count, start, tol, first)


def _spectrum_truncated(
    problem: NchoProblem, count: int, tol: float, certify_floor: bool
) -> SpectrumResult:
    """spectrum_truncated, and with certify_floor a floor start certified
    like a predicted one (_certified) instead of doubled."""
    floor = max(64, -(-count // problem.p))
    r = _inner_pole_radius(problem)
    predicted = math.ceil(math.log(tol) / math.log(r)) if r > 0 and 0 < tol < 1 else 0
    start = max(floor, min(predicted, _MAX_ORDER // 2))
    gauged = _schur_gauged(problem)
    band_of = partial(build_truncated, gauged)
    if certify_floor or start == predicted > floor:
        left_out = partial(_left_out, gauged)
        return SpectrumResult(*_certified(band_of, left_out, count, start, tol, r))
    return SpectrumResult(*_settle(band_of, count, start, tol))


def spectrum_truncated(problem: NchoProblem, count: int, tol: float = 1e-10) -> SpectrumResult:
    """Lowest eigenvalues of the truncation, solved in the Schur gauge of B
    (_schur_gauged).  LAPACK runs dsbevx when a diagonal phase gauge makes
    that real, as on the classical family under any unitary gauge, and
    zhbevx otherwise.

    The eigenfunction is holomorphic on the unit disk and singular only at
    the outer pencil poles 1/conj(alpha), so its coefficients decay like
    r^m, r the largest inner pole modulus.  The start order N is the
    largest of the floor max(64, least order holding count eigenvalues)
    and the prediction ceil(log tol / log r) capped at _MAX_ORDER // 2; the
    prediction is left out when r = 0 (B = 0), tol = 0 or tol >= 1.  The
    positivity rule reads r off problem.roots, and refuses a problem not
    positive on the circle (PositivityError) first.

    When the uncapped prediction raises N above the floor, order N is
    certified (_certified): orders is (N, N), (N, N') or (N, 2N), and
    convergence holds the bounds.  Any other start doubles the order from
    N until the values move by less than tol; orders is then the last two
    orders and convergence the last change.  A floor start is already past
    the prediction, so its second solve is small (64 and 128 on every
    fixture).  It keeps the doubling although its start order would
    certify, because its printed orders are those of the doubling and no
    printed field says which path ran; confluence_sweep, which prints no
    orders, certifies its floor starts."""
    return _spectrum_truncated(problem, count, tol, certify_floor=False)


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
    (z0, z1) of steps, a (len(steps), 2) array, stacked (len(steps), p, p):
    the order-30 Taylor series at z0 summed at z1.  residues is
    (m, n_poles, p, p) with len(steps) = m k: set i serves steps i k to
    i k + k - 1.  With h = z1 - z0, w_j = h/(z0 - a_j) and D_n = h^n C_n
    the terms (D_0 = I),
    (n + 1) D_{n+1} = sum_j w_j R_j S_{j,n} with S_{j,n} = D_n - w_j S_{j,n-1}.
    The steps go in runs of _BATCH_STEPS // p, each with only its own
    residues gathered and one recurrence, step axis last: each order forms
    every product (w_j R_j)[a, b] S_{j,n}[b, c] in one multiply and adds
    them over (j, b) in one reduction, in that order.  So a run's products
    hold no more entries than S of _BATCH_STEPS steps, the one bound on the
    transport's memory.  No step's arithmetic reads another's.  A step
    whose last term exceeds 1e-12 times its propagator is split in two;
    its halves, two to a residue set, go through this kernel again."""
    steps = np.asarray(steps, dtype=complex)
    n_poles, p = residues.shape[1:3]
    k = len(steps) // len(residues)
    width = max(1, _BATCH_STEPS // p)
    phi = np.empty((len(steps), p, p), dtype=complex)
    for first in range(0, len(steps), width):
        run = np.arange(first, min(first + width, len(steps)))
        z0, z1 = steps[run].T
        w = ((z1 - z0) / (z0[:, None] - poles).T)[:, None, None, :]
        # w_j R_j per step, with the (pole, column) pairs of the sum leading
        wr = (w * residues[run // k].transpose(1, 2, 3, 0)).transpose(0, 2, 1, 3)
        wr = np.ascontiguousarray(wr)[:, :, :, None]
        products = np.empty((n_poles, p, p, p, len(run)), dtype=complex)
        d = np.broadcast_to(np.eye(p, dtype=complex)[:, :, None], (p, p, len(run)))
        s = np.zeros((n_poles, p, p, len(run)), dtype=complex)
        total = d.copy()
        for n in range(30):
            s = d - w * s
            # products[j, b, a, c] = wr[j, b, a] S[j, b, c]; D[a, c] sums them over (j, b)
            np.multiply(wr, s[:, :, None], out=products)
            d = products.sum(axis=(0, 1)) / (n + 1)
            total += d
        phi[run] = total.transpose(2, 0, 1)
        split = np.linalg.norm(d, axis=(0, 1)) > 1e-12 * np.linalg.norm(total, axis=(0, 1))
        del wr, products, s  # the next run's buffers take their place
        if split.any():
            a, b = z0[split], z1[split]
            if np.any(np.abs(b - a) < 2e-14 * np.maximum(1.0, np.abs(a))):
                raise ContinuationError("step size underflow during transport")
            mid = a + 0.5 * (b - a)
            halves = _step_propagators(
                poles, residues[run[split] // k], np.stack([a, mid, mid, b], 1).reshape(-1, 2)
            )
            phi[run[split]] = halves[1::2] @ halves[::2]
    return phi


@dataclass(eq=False)
class _ConnectionPlan:
    """The part of the row matrix L(lam) that does not depend on lam: the
    singular points, the residues R_j(lam) = res0[j] + lam res1[j], one
    (pole index, row count, radius, leg steps, loop steps) per inner pole,
    and the (start, end) of every transport step, one (len(steps), 2) array,
    of every inner pole in that order, the leg from the base point to its
    matching point and then the loop around it."""

    poles: np.ndarray
    res0: np.ndarray
    res1: np.ndarray
    rows: list[tuple[int, int, float, int, int]]
    steps: np.ndarray


def _connection_plan(problem: NchoProblem) -> _ConnectionPlan:
    """Base point, matching points and transport steps of the row matrix,
    from problem.decomposition once the problem has passed the positivity
    rule (_inner_pole_radius).  The candidate base points are 0 when 0 is
    regular, then 16 points on the circle of half the least nonzero inner
    pole modulus (radius 0.5 when 0 is the only inner pole, as with B = 0),
    farthest from the poles first.  The first whose straight legs all stay
    out of the disks the other inner poles' matching radii can fill is
    taken, failing that the one whose legs come least close: a leg through
    a pole would never reach its matching point."""
    _inner_pole_radius(problem)
    dec = problem.decomposition
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
        rows.append((int(j), dec.ranks[j], float(radius), len(leg), len(arcs)))
        steps += leg + arcs
    # R_j(lam) = res0[j] + lam res1[j], with the lam part exact
    res0 = np.array(build_fuchsian(problem, 0.0).residues)
    res1 = np.array([pj @ problem.lam_coeff for pj in dec.residues])
    steps = np.array(steps, dtype=complex).reshape(-1, 2)
    return _ConnectionPlan(poles=poles, res0=res0, res1=res1, rows=rows, steps=steps)


def _row_matrices(plan: _ConnectionPlan, lams) -> np.ndarray:
    """L(lam) for every lam of lams, stacked (len(lams), p, p), from one
    _step_propagators call over every step of every row at every lam, with
    each lam's residues passed once for all of its steps.

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
            props = _step_propagators(plan.poles, res, np.tile(plan.steps, (n, 1)))
            props = props.reshape(n, n_steps, p, p)
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
    return _row_matrices(_connection_plan(problem), [lam])[0]


def spectrum_connection(
    problem: NchoProblem, seeds: SpectrumResult, tol: float = 1e-10
) -> SpectrumResult:
    """The eigenvalues of seeds, the caller's spectrum_truncated(problem,
    count) result, each refined by Newton on the connection matrix.

    The plan is built once, from problem.decomposition, whichever problem the
    seeds came from.  Each round evaluates L at every open seed s and at
    s + delta, delta = 1e-7 max(1, |s|), in one _row_matrices call, solves
    L(s) x = -h L'(s) x with the forward difference L', and moves s by the
    real part of the h of least modulus.  A seed stays open until its |h|
    is at most tol max(1, |s|); every seed takes at least one step.  The
    convergence reported is the last |h|, in units of lam.  A value that
    ends more than half the gap to the nearest other seed from its own seed
    (seeds closer than its delta count as one) is refused: it may have
    left for another root."""
    _check_tol(tol)
    plan = _connection_plan(problem)
    start = np.array(seeds.eigenvalues, dtype=float)
    if not start.size:
        return SpectrumResult(start, start.copy(), seeds.orders)
    values = start.copy()
    last_step = np.zeros(len(values))
    open_ = np.arange(len(values))
    for _ in range(_NEWTON_ROUNDS):
        s = values[open_]
        delta = 1e-7 * np.maximum(1.0, np.abs(s))
        mats = _row_matrices(plan, np.concatenate([s, s + delta]))
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
    return SpectrumResult(values, last_step, seeds.orders)


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
    and to the sum, not to every mode.  Each factor is a new array, which
    the caller may keep: eigenfunction_profile copies it into the row of
    its block, laguerre_mode returns the last one."""
    x = 2.0 * t
    a = mu - 1.0
    lk_prev = np.ones_like(x)
    lk = 1.0 + a - x
    for m in range(count):
        if m >= 2:
            lk, lk_prev = ((2 * m - 1 + a - x) * lk - (m - 1 + a) * lk_prev) / m, lk
        yield lk_prev if m == 0 else lk


def _positive_t(t, name: str) -> np.ndarray:
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr) & (t_arr > 0)):
        raise ContractViolation(f"{name} must be finite and positive")
    return t_arr


@contextmanager
def _refuse_overflow(t_arr: np.ndarray):
    """Raise ContractViolation where the Laguerre factors leave the
    floating-point range at large t, instead of returning inf/nan."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise ContractViolation(
            f"the radial modes overflow at t up to {float(np.max(t_arr)):g}; take a smaller t"
        ) from None


def laguerre_mode(m: int, mu: float, t):
    """Radial mode l_m(t) = i^m (m!/(mu)_m) L_m^{(mu-1)}(2t) e^{-t}, via the
    ascending three-term recurrence of the Laguerre factor."""
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 0 or not mu > 0:
        raise ContractViolation("need an integer m >= 0 and mu > 0")
    t_arr = _positive_t(t, "t")
    with _refuse_overflow(t_arr):
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

    The operator is built once more at twice the first order of seeds (the
    final order of a doubling; the vector needs about twice the modes that
    its eigenvalue needs, so a certified single order is doubled too), the
    eigenvector is found there by banded inverse iteration, and the
    coefficients u_m recovered through the basis norms are summed against
    the radial modes on t_grid: the real Laguerre factors times the complex
    p-vectors i^m (m!/(mu)_m) u_m, with e^{-t} applied once to the sum.

    The sum runs in real arithmetic, each p-vector as 2p reals, over blocks
    of _PROFILE_ROWS modes: their Laguerre factors are written into the
    rows of one (_PROFILE_ROWS, len(t_grid)) buffer, and each full block
    adds one product of its 2p x _PROFILE_ROWS coefficients with those
    rows.  So the sum is a few BLAS calls, and its memory stays that of the
    buffer at any order, never order x len(t_grid).  The order of summation
    differs from a mode-by-mode sum only by round-off."""
    if not 0 <= index < len(seeds.eigenvalues):
        raise ContractViolation(f"index must be in range 0..{len(seeds.eigenvalues) - 1}")
    t_arr = _positive_t(t_grid, "t grid")
    p, mu = problem.p, problem.mu
    value = float(seeds.eigenvalues[index])
    order = 2 * seeds.orders[0]
    vec = eigenvector_banded(build_truncated(problem, order), value)
    vec = fix_phase(vec / np.linalg.norm(vec))
    u = vec.reshape(order, p) / np.sqrt(_norm_sq(mu, order))[:, None]

    # real arithmetic: the complex p-vector of mode m as a row of 2p reals;
    # the Laguerre rows of a block of modes meet their rows in one product
    coef = (_mode_factors(mu, order)[:, None] * u).view(float)
    rows = np.empty((min(_PROFILE_ROWS, order), t_arr.size))
    acc = np.zeros((2 * p, t_arr.size))
    with _refuse_overflow(t_arr):
        for m, lag in enumerate(_laguerre_modes(mu, t_arr, order)):
            k = m % len(rows)
            rows[k] = lag
            if k == len(rows) - 1 or m == order - 1:
                acc += coef[m - k : m + 1].T @ rows[: k + 1]
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
    """The count lowest eigenvalues of the Rabi ladder (_rabi_band),
    certified at order max(64, count) with the left-out coupling
    g sqrt(N) sigma3 (_certified); a bound of tol or more doubles the order
    from there until the values move by less than tol."""
    # for omega <= 0 the lowest eigenvalues never settle: the doubling would run to the cap
    if not (rabi.omega > 0 and math.isfinite(rabi.omega)):
        raise ContractViolation("omega must be positive and finite")

    def left_out(order):
        return rabi.g_coupling * math.sqrt(order) * _SIGMA3

    return _certified(partial(_rabi_band, rabi), left_out, count, max(64, count), tol)[0]


@dataclass
class SweepResult:
    mu_values: list[float]
    deviations: list[float]
    rabi_eigenvalues: np.ndarray


def _confluent_problem(rabi: RabiParameters, mu: float) -> NchoProblem:
    """The oscillator problem of confluence_sweep at mu: coupling
    g/sqrt(mu), energy shift mu/2, with twice the Rabi ladder's
    eigenvalues at large mu."""
    eye = np.eye(2, dtype=complex)
    b = (rabi.g_coupling / math.sqrt(mu)) * _SIGMA1
    c0 = -rabi.Delta * _SIGMA3 - rabi.eps_bias * _SIGMA1 + 0.5 * mu * rabi.omega * eye
    return NchoProblem(p=2, mu=mu, A=rabi.omega * eye, B=b, C0=c0)


def confluence_sweep(rabi: RabiParameters, mu_list, count: int = 5) -> SweepResult:
    """For each mu, compare the scaled oscillator spectrum
    (_confluent_problem) with the Rabi truncation; the maximum absolute
    deviation per mu decays like 1/mu.  Both spectra are certified at
    their start order, a floor start included (_certified), since no
    order is printed; only a bound of _SWEEP_TOL or more doubles."""
    mu_values = [float(m) for m in mu_list]
    if not all(m > 0 and math.isfinite(m) for m in mu_values):
        raise ContractViolation("mu must be positive and finite")
    if any(b >= a for a, b in zip(mu_values[1:], mu_values[:-1])):
        raise ContractViolation("mu values must be strictly increasing")
    if count < 1:
        raise ContractViolation("count must be at least 1")
    rabi_vals = rabi_truncated_spectrum(rabi, count, tol=_SWEEP_TOL)
    deviations = []
    for mu in mu_values:
        prob = _confluent_problem(rabi, mu)
        vals = _spectrum_truncated(prob, count, _SWEEP_TOL, certify_floor=True).eigenvalues / 2.0
        deviations.append(float(np.max(np.abs(vals - rabi_vals))))
    return SweepResult(mu_values=mu_values, deviations=deviations, rabi_eigenvalues=rabi_vals)
