import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import eig_banded
from scipy.special import eval_genlaguerre, gamma as gamma_fn, roots_genlaguerre

from conftest import (
    FIXTURES,
    NOT_POSITIVE_FIXTURES,
    random_hermitian,
    random_problem,
    scalar_closed_eigenvalue,
)

from nchodisk import (
    ContinuationError,
    ContractViolation,
    ConvergenceError,
    NchoProblem,
    PositivityError,
    RabiParameters,
    RefinementError,
    SimplePoleViolation,
    Su11Element,
    SpectrumResult,
    build_truncated,
    confluence_sweep,
    connection_matrix,
    eigen_banded_lowest,
    eigenfunction_profile,
    eigenvector_banded,
    gauge_problem,
    laguerre_mode,
    positivity_margin,
    rabi_truncated_spectrum,
    spectrum_connection,
    spectrum_truncated,
    standard_ncho_problem,
    standardize_p2,
    transform_problem,
)
from nchodisk import linalg, pencil, spectral
from nchodisk.cli import parse_problem
from nchodisk.linalg import band_to_dense, block_band
from nchodisk.spectral import _norm_sq

SQ3 = np.sqrt(3.0)

P1 = NchoProblem(p=1, mu=0.5, A=[[1.0]], B=[[0.25]], C0=[[0.0]])


def test_truncation_blocks_reproduce_ladder_action():
    prob = random_problem(np.random.default_rng(0), p=2, mu=0.8)
    band = build_truncated(prob, 16)
    # un-symmetrized action on monomial coefficients, symmetrized by norms
    norms = np.sqrt(_norm_sq(prob.mu, 16))
    rng = np.random.default_rng(1)
    u = rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))
    u[-1] = 0  # stay inside the truncation window
    raw = np.zeros_like(u)
    for m in range(15):
        raw[m] = prob.A @ u[m] * (2 * m + prob.mu) - 2 * prob.C0 @ u[m]
        if m >= 1:
            raw[m] += 2.0 * (m - 1 + prob.mu) * (prob.B @ u[m - 1])
        raw[m] += 2.0 * (m + 1) * (prob.B.conj().T @ u[m + 1])
    v = (u * norms[:, None]).ravel()
    sym = (band_to_dense(band) @ v).reshape(16, 2) / norms[:, None]
    assert np.max(np.abs(sym[:15] - raw[:15])) < 1e-10


def test_truncation_hermitian():
    prob = random_problem(np.random.default_rng(2), p=3)
    h = band_to_dense(build_truncated(prob, 32))
    assert np.max(np.abs(h - h.conj().T)) == 0.0


@pytest.mark.parametrize("p", [1, 2, 3])
def test_truncation_band_layout(p):
    # the band expands to the dense block-tridiagonal matrix assembled block
    # by block
    prob = random_problem(np.random.default_rng(3 + p), p=p)
    order = 12
    band = build_truncated(prob, order)
    assert band.shape == (2 * p, p * order)
    ref = np.zeros((p * order, p * order), dtype=complex)
    for m in range(order):
        sl = slice(m * p, (m + 1) * p)
        ref[sl, sl] = prob.A * (2 * m + prob.mu) - 2.0 * prob.C0
        if m + 1 < order:
            sl1 = slice((m + 1) * p, (m + 2) * p)
            ref[sl1, sl] = 2.0 * prob.B * np.sqrt((m + 1) * (m + prob.mu))
            ref[sl, sl1] = ref[sl1, sl].conj().T
    assert np.max(np.abs(band_to_dense(band) - ref)) < 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_banded_eigenvalues_match_dense(p):
    rng = np.random.default_rng(50 + p)
    for order in (16, 32, 64, 128):
        band = build_truncated(random_problem(rng, p=p), order)
        dense = np.linalg.eigvalsh(band_to_dense(band))[:6]
        banded = eigen_banded_lowest(band, 6)
        assert np.max(np.abs(banded - dense) / np.maximum(1.0, np.abs(dense))) < 1e-12


@pytest.mark.parametrize("p", [1, 2, 3])
def test_banded_inverse_iteration_matches_dense_eigh(p):
    rng = np.random.default_rng(60 + p)
    for order in (16, 64):
        band = build_truncated(random_problem(rng, p=p), order)
        h = band_to_dense(band)
        v = np.linalg.eigh(h)[1]
        lams = eigen_banded_lowest(band, 4)
        for i in (0, 3):
            x = eigenvector_banded(band, lams[i])
            assert abs(np.linalg.norm(x) - 1.0) < 1e-14
            assert abs(np.vdot(v[:, i], x)) > 1.0 - 1e-12  # equal up to phase
            assert np.linalg.norm(h @ x - lams[i] * x) < 1e-12 * max(1.0, abs(lams[i]))


def test_truncation_diagonal_cases():
    prob = NchoProblem(p=1, mu=0.5, A=[[1.0]], B=[[0.0]], C0=[[0.0]])
    vals = np.linalg.eigvalsh(band_to_dense(build_truncated(prob, 16)))[:4]
    assert np.allclose(vals, [0.5, 2.5, 4.5, 6.5], atol=1e-12)

    prob2 = NchoProblem(p=2, mu=0.5, A=np.diag([1.0, 2.0]), B=np.zeros((2, 2)), C0=np.zeros((2, 2)))
    vals = np.linalg.eigvalsh(band_to_dense(build_truncated(prob2, 16)))[:4]
    expect = sorted([2 * m + 0.5 for m in range(3)] + [2 * (2 * m + 0.5) for m in range(3)])[:4]
    assert np.allclose(vals, expect, atol=1e-12)


def test_truncation_requires_standard_family():
    prob = NchoProblem(
        p=1, mu=0.5, A=[[1.0]], B=[[0.0]], C0=[[0.0]], lam_coeff=[[0.3]]
    )
    with pytest.raises(ContractViolation):
        build_truncated(prob, 16)


def _fixture_problems():
    return [
        parse_problem(str(path))[0]
        for path in sorted(FIXTURES.glob("*.json"))
        if not path.name.startswith("bad_") and path.stem not in NOT_POSITIVE_FIXTURES
    ]


def _lowest_ungauged(band, count):
    """The count lowest eigenvalues of a band as built, every row handed to
    LAPACK: the reference for the Schur-gauged solves."""
    return eig_banded(band, lower=True, eigvals_only=True, select="i", select_range=(0, count - 1))


def _norm_bound(band):
    """Upper bound on the spectral norm of the Hermitian matrix of a lower
    band: the largest modulus of the main diagonal plus twice that of each
    other diagonal."""
    peaks = np.abs(band).max(axis=1)
    return peaks[0] + 2.0 * peaks[1:].sum()


# The Schur-gauged matrix is a unitary similarity of the ungauged one plus
# the round-off of the Schur factorization and of the gauge products, a few
# eps ||H|| in norm; each banded solve is backward stable to a few eps ||H||
# more.  By Weyl's inequality no eigenvalue moves by more than their sum.
# Measured: at most 0.27 eps ||H|| on the cases below.
_GAUGE_ROUND_OFF = 8.0 * np.finfo(float).eps


def _gauged_cases():
    rng = np.random.default_rng(70)
    cases = [(random_problem(rng, p=p), 5) for p in (1, 2, 3, 4) for _ in range(2)]
    cases += [(prob, 8) for prob in _fixture_problems()]
    return cases + [
        (standard_ncho_problem(2.0, bg / 2.0, 0.1, 1.5), 5) for bg in (1.5, 1.05, 1.02, 1.005)
    ]


def test_gauged_truncation_matches_ungauged_band(monkeypatch):
    rows = _counting(monkeypatch, linalg, "eig_banded")
    for prob, count in _gauged_cases():
        rows.clear()
        res = spectrum_truncated(prob, count)
        band = build_truncated(prob, res.orders[1])
        ref = _lowest_ungauged(band, count)
        assert np.max(np.abs(res.eigenvalues - ref)) <= _GAUGE_ROUND_OFF * _norm_bound(band)
        # the alpha = beta doubles of the decoupled fixtures come out twice
        assert np.sum(np.diff(res.eigenvalues) < 1e-8) == np.sum(np.diff(ref) < 1e-8)
        # degenerate_b0, the one case with B = 0, also has diagonal A and C0:
        # only the main diagonal is left
        want = prob.p + 1 if np.any(prob.B) else 1
        assert {args[0].shape[0] for args in rows} == {want}


def test_truncation_without_coupling_hands_p_rows(monkeypatch):
    # B = 0 leaves the diagonal blocks A (2m + mu) - 2 C0, here dense
    a = np.array([[1.0, 0.3j], [-0.3j, 1.5]])
    c0 = np.array([[0.2, 0.1], [0.1, -0.1]])
    prob = NchoProblem(p=2, mu=1.0, A=a, B=np.zeros((2, 2)), C0=c0)
    rows = _counting(monkeypatch, linalg, "eig_banded")
    res = spectrum_truncated(prob, 6)
    assert {args[0].shape[0] for args in rows} == {2}
    blocks = np.concatenate([np.linalg.eigvalsh(a * (2 * m + 1.0) - 2.0 * c0) for m in range(4)])
    assert np.max(np.abs(res.eigenvalues - np.sort(blocks)[:6])) < 1e-12


def _gauged_ladders(bgs, gauges=3):
    """The ladder at each bg under seeded random unitary gauges: problems
    with a real form that the gauge hides."""
    rng = np.random.default_rng(90)
    return [
        gauge_problem(_unitary(rng.uniform(-1.0, 1.0, 8), 2), _ladder(bg))
        for bg in bgs
        for _ in range(gauges)
    ]


def _is_real(problem):
    return not any(np.any(m.imag) for m in (problem.A, problem.B, problem.C0))


def test_schur_gauge_finds_the_real_form():
    names = [
        "classical_eta0", "classical_eta01_mu15", "classical_mu_nk", "degenerate_b0", "p1_quarter"
    ]
    real = [parse_problem(str(FIXTURES / f"{name}.json"))[0] for name in names]
    real += _gauged_ladders([1.5, 1.05, 1.001])
    for prob in real:
        gauged = spectral._schur_gauged(prob)
        assert _is_real(gauged)
        # still a unitary gauge of prob: the same spectra of A, C0 and B
        for got, want in ((gauged.A, prob.A), (gauged.C0, prob.C0)):
            assert np.max(np.abs(np.linalg.eigvalsh(got) - np.linalg.eigvalsh(want))) < 1e-14
        b_eigs = np.sort_complex(np.linalg.eigvals(prob.B))
        assert np.max(np.abs(np.sort_complex(np.diag(gauged.B)) - b_eigs)) < 1e-14
    rng = np.random.default_rng(91)
    for p in (1, 2, 3, 4):
        for _ in range(5):
            assert not _is_real(spectral._schur_gauged(random_problem(rng, p=p)))


def test_real_band_matches_the_complex_band():
    for prob in _gauged_ladders([1.005]):
        res = spectrum_truncated(prob, 5)
        band = build_truncated(prob, res.orders[1])
        assert np.any(band.imag)
        ref = _lowest_ungauged(band, 5)
        assert np.max(np.abs(res.eigenvalues - ref)) <= _GAUGE_ROUND_OFF * _norm_bound(band)


def test_truncation_hands_lapack_a_real_band_when_it_can(monkeypatch):
    bands = _counting(monkeypatch, linalg, "eig_banded")
    spectrum_truncated(_gauged_ladders([1.05], gauges=1)[0], 5)
    assert {args[0].dtype for args in bands} == {np.dtype(float)}
    bands.clear()
    spectrum_truncated(random_problem(np.random.default_rng(92), p=2), 5)
    assert {args[0].dtype for args in bands} == {np.dtype(complex)}


def _rabi_band_sigma1_coupling(rabi, order):
    """The Rabi ladder in the basis of its sigma1 coupling (4 band rows)."""
    sigma1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    sigma3 = np.diag([1.0, -1.0])
    m = np.arange(order)
    diag = rabi.omega * m[:, None, None] * np.eye(2) + rabi.Delta * sigma3 + rabi.eps_bias * sigma1
    coup = rabi.g_coupling * np.sqrt(m[1:])[:, None, None] * sigma1
    return block_band(diag, coup)


@pytest.mark.parametrize("g", [0.0, 0.3, 1.0])
def test_rabi_truncation_matches_sigma1_coupling_band(monkeypatch, g):
    rabi = RabiParameters(omega=1.0, g_coupling=g, Delta=0.5, eps_bias=0.2)
    rows = _counting(monkeypatch, linalg, "eig_banded")
    vals = rabi_truncated_spectrum(rabi, 6)
    assert {args[0].shape[0] for args in rows} == {3 if g else 2}
    band = _rabi_band_sigma1_coupling(rabi, rows[-1][0].shape[1] // 2)
    ref = _lowest_ungauged(band, 6)
    assert np.max(np.abs(vals - ref)) <= _GAUGE_ROUND_OFF * _norm_bound(band)


def test_scalar_closed_form_spectrum():
    res = spectrum_truncated(P1, 10, tol=1e-12)
    expect = [scalar_closed_eigenvalue(1.0, 0.25, 0.0, 0.5, m) for m in range(10)]
    assert np.max(np.abs(res.eigenvalues - expect)) < 1e-8
    assert res.orders[1] <= 512


def test_truncation_monotone_in_order():
    rng = np.random.default_rng(10)
    for _ in range(20):
        prob = random_problem(rng, p=1 + int(rng.integers(0, 2)))
        v1 = np.linalg.eigvalsh(band_to_dense(build_truncated(prob, 64)))[:4]
        v2 = np.linalg.eigvalsh(band_to_dense(build_truncated(prob, 128)))[:4]
        assert np.all(v2 <= v1 + 1e-12)


def test_boundedness_gives_lower_bound_on_a():
    # the constant function is in every truncation window, so the lowest
    # eigenvalue of the ladder operator (no C0 shift) never exceeds
    # mu * min eig(A); equivalently A >= (c/mu) I for its lower bound c
    rng = np.random.default_rng(20)
    for _ in range(6):
        prob = random_problem(rng, p=2)
        bare = prob.with_matrices(C0=np.zeros((2, 2)))
        c_low = float(np.linalg.eigvalsh(band_to_dense(build_truncated(bare, 64)))[0])
        a_min = float(np.linalg.eigvalsh(prob.A)[0])
        assert a_min >= c_low / prob.mu - 1e-9


def _t(problem, lam):
    # at p = 1 the connection matrix is the scalar connection determinant
    (t,) = connection_matrix(problem, lam).ravel()
    return t


def test_connection_determinant_zeros_and_signs():
    roots = [SQ3 * (m + 0.25) for m in range(3)]
    for lam in roots:
        t = _t(P1, lam)
        assert abs(t) < 1e-6
        assert abs(t.imag) < 1e-9
    # sign changes between consecutive roots, bounded away from zero off-spectrum
    t_neg = _t(P1, -1.0)
    t_mid1 = _t(P1, 1.2)
    t_mid2 = _t(P1, 3.0)
    assert abs(t_neg) > 1e-3 and abs(t_mid1) > 1e-3 and abs(t_mid2) > 1e-3
    assert np.sign(t_neg.real) != np.sign(t_mid1.real)
    assert np.sign(t_mid1.real) != np.sign(t_mid2.real)


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_connection_determinant_decomposes_once(monkeypatch):
    # on fresh problems: P1 is analysed and decomposed once for the module
    calls = _counting(monkeypatch, pencil, "PencilDecomposition")
    connection_matrix(dataclasses.replace(P1), 1.2)
    assert len(calls) == 1
    calls.clear()
    connection_matrix(standard_ncho_problem(2.0, 0.51, 0.1, 1.5), 3.0)
    assert len(calls) == 1


def _connection(problem, count):
    """spectrum_connection from truncation seeds at tolerance 1e-9, the
    seeds of spectrum --method connect."""
    return spectrum_connection(problem, spectrum_truncated(problem, count, tol=1e-9))


def test_refinement_evaluates_each_lambda_once(monkeypatch):
    prob = standard_ncho_problem(2.0, 0.51, 0.1, 1.5)  # beta gamma = 1.02
    calls = _counting(monkeypatch, spectral, "_row_matrices")
    _connection(prob, 5)
    lams = [lam for args in calls for lam in args[1]]
    assert len(set(lams)) == len(lams)
    assert len(lams) <= 20


def _top_level_batches(monkeypatch):
    """Record the steps of each _step_propagators call that is not a split
    of an enclosing call."""
    batches, depth = [], []
    real = spectral._step_propagators

    def recorded(poles, residues, steps):
        if not depth:
            batches.append(len(steps))
        depth.append(1)
        try:
            return real(poles, residues, steps)
        finally:
            depth.pop()

    monkeypatch.setattr(spectral, "_step_propagators", recorded)
    return batches


def test_each_newton_round_is_one_propagator_batch(monkeypatch):
    prob = standard_ncho_problem(2.0, 0.51, 0.1, 1.5)
    seeds = spectrum_truncated(prob, 5, tol=1e-9)
    shifted = dataclasses.replace(seeds, eigenvalues=seeds.eigenvalues + 1e-6)
    rounds = _counting(monkeypatch, spectral, "_row_matrices")
    batches = _top_level_batches(monkeypatch)
    spectrum_connection(prob, shifted)
    assert len(rounds) >= 2  # a seed 1e-6 off needs a second step
    assert len(batches) == len(rounds)
    # every step of every row at s and s + delta of every open seed
    plan = spectral._connection_plan(prob)
    assert batches == [len(plan.steps) * len(args[1]) for args in rounds]
    assert len(rounds[0][1]) == 10


@pytest.mark.parametrize("name", ["p1_quarter.json", "classical_eta01_mu15.json"])
def test_transport_is_planned_once_per_spectrum(monkeypatch, name):
    prob = parse_problem(str(FIXTURES / name))[0]
    plans = _counting(monkeypatch, spectral, "_connection_plan")
    legs = _counting(monkeypatch, spectral, "_path_steps")
    counts = []
    for count in (1, 5):
        plans.clear()
        legs.clear()
        _connection(prob, count)
        assert len(plans) == 1
        counts.append(len(legs))
    # one leg and _LOOP_ARCS arcs per inner pole, however many seeds
    assert counts[0] == counts[1] == prob.p * (1 + spectral._LOOP_ARCS)


def test_loop_arcs_are_single_taylor_steps(monkeypatch):
    # the chord of each arc around the inner pole fits in one Taylor step
    assert 2.0 * np.sin(np.pi / spectral._LOOP_ARCS) <= spectral._STEP_FRACTION
    legs = []
    plan = spectral._path_steps
    monkeypatch.setattr(spectral, "_path_steps", lambda *args: legs.append(plan(*args)) or legs[-1])
    batches = _counting(monkeypatch, spectral, "_step_propagators")
    for lam in (-1.0, 1.2, 3.0):
        legs.clear()
        batches.clear()
        connection_matrix(P1, lam)
        # the leg to the matching point, then one step per arc
        assert len(legs) == 1 + spectral._LOOP_ARCS
        assert all(len(leg) == 1 for leg in legs[1:])
        assert sum(map(len, legs)) <= 22
        # no step is split here, so every step runs in one batch
        assert len(batches) == 1
        assert len(batches[0][2]) == sum(map(len, legs))


@pytest.mark.parametrize("bg", [1.5, 1.02])
@pytest.mark.parametrize("pole", [0, 1])
@pytest.mark.parametrize("lam", [0.37, 2.9])
def test_loop_propagator_has_the_local_monodromy(monkeypatch, bg, pole, lam):
    # once around the inner pole alpha the frame is multiplied by a matrix
    # similar to exp(2 pi i R_alpha)
    batches = []
    real = spectral._step_propagators

    def recorded(poles, residues, steps):
        batches.append((poles, residues, real(poles, residues, steps)))
        return batches[-1][2]

    monkeypatch.setattr(spectral, "_step_propagators", recorded)
    prob = standard_ncho_problem(2.0, bg / 2, 0.1, 1.5)
    connection_matrix(prob, lam)
    # split halves return before the batch that asked for them
    poles, residues, props = batches[-1]
    plan = spectral._connection_plan(prob)
    assert len(plan.rows) == 2
    start = sum(n_leg + n_loop for _, _, _, n_leg, n_loop in plan.rows[:pole])
    j, _, _, n_leg, n_loop = plan.rows[pole]
    assert 0 < abs(poles[j]) < 1.0 and n_loop == spectral._LOOP_ARCS
    loop = np.eye(2)
    for phi in props[start + n_leg : start + n_leg + n_loop]:
        loop = phi @ loop
    got = np.linalg.eigvals(loop)
    want = np.exp(2j * np.pi * np.linalg.eigvals(residues[start, j]))
    assert max(np.min(np.abs(got - w)) for w in want) < 1e-11
    assert max(np.min(np.abs(want - g)) for g in got) < 1e-11


def test_connection_near_positivity_boundary_matches_tight_truncation():
    prob = standard_ncho_problem(2.0, 1.005 / 2, 0.1, 1.5)
    ref = spectrum_truncated(prob, 5, tol=1e-13).eigenvalues
    conn = _connection(prob, 5).eigenvalues
    assert np.max(np.abs(conn - ref)) < 1e-12


def test_connection_residuals_small_at_bg_1001():
    prob = standard_ncho_problem(2.0, 1.001 / 2, 0.1, 1.5)
    assert _connection(prob, 5).convergence.max() < 1e-3


def _b_zero_problem(rng, p):
    """Random problem with B = 0, A and C0 drawn as conftest.random_problem
    draws them: the only pencil pole is 0."""
    while True:
        a = np.eye(p) + 0.25 * random_hermitian(rng, p)
        if np.linalg.eigvalsh(a)[0] > 0.2:
            break
    mu = float(rng.uniform(0.4, 2.5))
    return NchoProblem(p=p, mu=mu, A=a, B=np.zeros((p, p)), C0=0.4 * random_hermitian(rng, p))


def test_connection_matrix_with_b_zero_vanishes_at_the_eigenvalues():
    # A = I, B = C0 = 0, mu = 1: every lam = 2m + 1 is a double eigenvalue
    prob = parse_problem(str(FIXTURES / "degenerate_b0.json"))[0]
    plan = spectral._connection_plan(prob)
    # the pole 0 gives both rows, from a base point on the ring of radius 0.5
    assert [(plan.poles[j], rank) for j, rank, *_ in plan.rows] == [(0, 2)]
    assert abs(plan.steps[0][0]) == pytest.approx(0.5, rel=1e-15)
    for lam, want in ((1.0, 0.0), (2.0, 1.0), (3.0, 0.0)):
        got = np.linalg.svd(connection_matrix(prob, lam), compute_uv=False)
        assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_connection_with_b_zero_agrees_with_truncation(p):
    rng = np.random.default_rng(70 + p)
    for _ in range(3):
        prob = _b_zero_problem(rng, p)
        ref = spectrum_truncated(prob, 5, tol=1e-12).eigenvalues
        seeds = spectrum_truncated(prob, 5, tol=1e-9)
        shifted = dataclasses.replace(seeds, eigenvalues=seeds.eigenvalues + 1e-6)
        for start in (seeds, shifted):
            conn = spectrum_connection(prob, start).eigenvalues
            assert np.max(np.abs(conn - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(p=st.sampled_from([1, 2, 3]), b_zero=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_truncation_and_connection_agree(p, b_zero, seed):
    rng = np.random.default_rng(seed)
    prob = _b_zero_problem(rng, p) if b_zero else random_problem(rng, p)
    conn = spectrum_connection(prob, spectrum_truncated(prob, 5))
    ref = spectrum_truncated(prob, 5, tol=1e-13).eigenvalues
    # each value within twice the Newton step it reports, past round-off
    bound = 2.0 * conn.convergence + 1e-13 * np.maximum(1.0, np.abs(ref))
    assert np.all(np.abs(conn.eigenvalues - ref) <= bound)


def _refine(problem, seeds):
    """spectrum_connection from the given seed values."""
    seeds = np.array(seeds, dtype=float)
    seeds = SpectrumResult(seeds, np.zeros(len(seeds)), (64, 128))
    return spectrum_connection(problem, seeds)


def test_refine_from_seed():
    r = _refine(P1, [0.43])
    assert abs(r.eigenvalues[0] - SQ3 / 4.0) < 1e-9
    assert r.convergence[0] < 1e-10


def test_refine_returns_immediately_at_root(monkeypatch):
    # the one step every seed takes is already below tol: one round
    rounds = _counting(monkeypatch, spectral, "_row_matrices")
    r = _refine(P1, [SQ3 / 4.0])
    assert len(rounds) == 1
    assert r.eigenvalues[0] == pytest.approx(SQ3 / 4.0, abs=1e-12)


def test_refine_converges_from_between_roots():
    # seed well toward the next root still lands on the nearer one
    r = _refine(P1, [0.55])
    assert abs(r.eigenvalues[0] - SQ3 / 4.0) < 1e-9


def test_newton_that_does_not_settle_raises(monkeypatch):
    # a seed 3e-3 off needs more than one step
    monkeypatch.setattr(spectral, "_NEWTON_ROUNDS", 1)
    with pytest.raises(RefinementError, match="did not settle"):
        _refine(P1, [0.43])
    assert _refine(P1, [SQ3 / 4.0]).convergence[0] < 1e-15


def test_shifted_seeds_move_by_the_shift():
    # every value is a real step from its seed: seeds 1e-6 off come back
    # to the tight truncation, and the last step reports what is left
    for prob in (P1, standard_ncho_problem(2.0, 1.02 / 2, 0.1, 1.5), _classical_eta01()):
        ref = spectrum_truncated(prob, 5, tol=1e-13).eigenvalues
        res = _refine(prob, ref + 1e-6)
        assert np.max(np.abs(res.eigenvalues - ref)) <= 1e-12
        assert np.all(np.abs(np.abs(res.eigenvalues - (ref + 1e-6)) - 1e-6) <= 1e-11)
        assert np.all(res.convergence <= 1e-10 * np.maximum(1.0, np.abs(ref)))


def test_truncation_convergence_error_with_tight_budget(monkeypatch):
    monkeypatch.setattr(spectral, "_MAX_ORDER", 256)
    with pytest.raises(ConvergenceError, match="by order 256"):
        spectrum_truncated(P1, 3, tol=0.0)


def test_truncation_that_cannot_settle_is_refused_before_any_band(monkeypatch):
    # settling compares two orders at most the cap: a start order above half
    # the cap never could, and is refused before it is solved
    prob = standard_ncho_problem(2.0, 0.6, 0.1, 1.5)
    builds = _counting(monkeypatch, spectral, "build_truncated")
    builds_rabi = _counting(monkeypatch, spectral, "_rabi_band")
    with pytest.raises(ContractViolation, match="no second order"):
        spectrum_truncated(prob, 16384)  # start order 8192
    monkeypatch.setattr(spectral, "_MAX_ORDER", 256)
    with pytest.raises(ContractViolation, match="no second order"):
        spectrum_truncated(prob, 257)  # start order 129
    rabi = RabiParameters(omega=1.0, g_coupling=0.3, Delta=0.5, eps_bias=0.2)
    with pytest.raises(ContractViolation, match="no second order"):
        rabi_truncated_spectrum(rabi, 129)
    assert builds == builds_rabi == []
    assert spectrum_truncated(prob, 256, tol=1e300).orders == (128, 256)


def _ladder(bg):
    # the classical family with beta * gamma = bg: the positivity boundary is bg -> 1
    return standard_ncho_problem(2.0, bg / 2.0, 0.1, 1.5)


@pytest.mark.parametrize(
    "bg,orders",
    [(1.05, (104, 104)), (1.02, (164, 164)), (1.01, (231, 255)), (1.005, (326, 360))],
)
def test_truncation_starts_at_the_order_the_inner_poles_predict(bg, orders):
    # ceil(log 1e-10 / log r) modes, r the largest inner pole modulus; the
    # residual bounds certify that order, or one order N' not far above it
    prob = _ladder(bg)
    res = spectrum_truncated(prob, 5, tol=1e-10)
    assert res.orders == orders
    ref = spectrum_truncated(prob, 5, tol=1e-13).eigenvalues
    assert np.max(np.abs(res.eigenvalues - ref)) <= 1e-12


def _predicted_order(prob, tol=1e-10):
    radius = pencil._inner_pole_radius(prob.analysis)
    return math.ceil(math.log(tol) / math.log(radius))


def _assert_certified(prob, res, tol=1e-10):
    """res came from the residual certificate: it starts at the prediction,
    and each value lies within its bound of a tol-1e-14 truncation."""
    assert res.orders[0] == _predicted_order(prob, tol)
    # a doubling would end at exactly twice its first order
    assert res.orders[0] <= res.orders[1] < 2 * res.orders[0]
    ref = spectrum_truncated(prob, len(res.eigenvalues), tol=1e-14).eigenvalues
    assert np.all(np.abs(res.eigenvalues - ref) <= res.convergence)
    assert np.all(res.convergence <= tol)


@pytest.mark.parametrize("bg", [1.05, 1.02, 1.01, 1.005, 1.001])
@pytest.mark.parametrize("count", [1, 5, 8])
def test_certified_values_lie_within_their_bounds_on_the_ladder(bg, count):
    prob = _ladder(bg)
    _assert_certified(prob, spectrum_truncated(prob, count))


def _toward_boundary(prob, target):
    """prob with B scaled so that the largest inner pole modulus is target
    (bisection; a scale past the positivity boundary counts as modulus 1)."""

    def radius(scale):
        try:
            return pencil._inner_pole_radius(prob.with_matrices(B=scale * prob.B).analysis)
        except PositivityError:
            return 1.0

    lo, hi = 0.0, 1.0
    while radius(hi) < target:
        hi *= 2.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if radius(mid) < target else (lo, mid)
    return prob.with_matrices(B=lo * prob.B)


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(
    p=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
    target=st.floats(0.75, 0.93),
    count=st.integers(1, 5),
)
def test_certified_values_lie_within_their_bounds_on_random_problems(p, seed, target, count):
    prob = _toward_boundary(random_problem(np.random.default_rng(seed), p=p), target)
    assert _predicted_order(prob) > 64  # the certified path, not a floor start
    _assert_certified(prob, spectrum_truncated(prob, count))


@pytest.mark.parametrize("bg", [1.05, 1.02, 1.01, 1.005, 1.001])
def test_half_the_predicted_order_is_not_certified(bg):
    # the bound must not pass where the truncation is too short, and must
    # still cover the error it has there
    prob = _ladder(bg)
    ref = spectrum_truncated(prob, 5, tol=1e-14).eigenvalues
    for count in (1, 5):
        vals, bounds, _ = spectral._ritz_bounds(
            spectral._schur_gauged(prob), _predicted_order(prob) // 2, count
        )
        assert np.max(bounds) > 1e-10
        assert np.all(np.abs(vals - ref[:count]) <= bounds)


def _direct_sum():
    """Two copies of the scalar problem A = 1, B = 0.49, C0 = 0.2, mu = 1
    under a random unitary gauge: every eigenvalue is double."""
    rng = np.random.default_rng(95)
    return gauge_problem(
        _unitary(rng.uniform(-1.0, 1.0, 8), 2),
        NchoProblem(p=2, mu=1.0, A=np.eye(2), B=0.49 * np.eye(2), C0=0.2 * np.eye(2)),
    )


def test_degenerate_clusters_are_bounded_as_blocks():
    # a direct sum of two copies of one scalar problem: every eigenvalue is
    # double, and the residual intervals of each pair overlap.  The closed
    # form is the reference: toward the boundary a tol-1e-14 truncation errs
    # by up to 9e-14, more than some of the bounds
    cases = [(None, 4, 115, 115), (0.82, 4, 117, 117), (0.82, 8, 117, 137)]
    cases += [(0.85, 4, 142, 142), (0.85, 8, 142, 167)]
    for target, count, *orders in cases:
        prob = _direct_sum() if target is None else _toward_boundary(_direct_sum(), target)
        res = spectrum_truncated(prob, count)
        assert res.orders == tuple(orders)
        assert np.all(np.abs(np.diff(res.eigenvalues)[::2]) < 1e-12)
        doubled, _, settled = spectral._settle(
            lambda order: build_truncated(spectral._schur_gauged(prob), order), count, orders[0], 1e-10
        )
        assert settled == (orders[0], 2 * orders[0])
        assert np.max(np.abs(res.eigenvalues - doubled)) < 1e-10
        scale = np.linalg.norm(prob.B, 2)
        exact = [scalar_closed_eigenvalue(1.0, scale, 0.2, 1.0, k // 2) for k in range(count)]
        assert np.all(np.abs(res.eigenvalues - exact) <= res.convergence)
        assert np.all(res.convergence < 1e-10)


def test_certificate_that_fails_ends_at_the_order_cap(monkeypatch):
    # 16 values at bg = 1.05 cannot be bounded at the predicted order 104,
    # and the doubling from there does not settle below the cap
    monkeypatch.setattr(spectral, "_MAX_ORDER", 256)
    builds = _counting(monkeypatch, spectral, "build_truncated")
    with pytest.raises(ConvergenceError, match="by order 208"):
        spectrum_truncated(_ladder(1.05), 16)
    assert [args[1] for args in builds] == [104, 208]


def test_a_failing_certificate_merges_no_cluster_past_p(monkeypatch):
    # the intervals of 32 values at order 104 overlap widely; no eigenvalue
    # of the full operator is more than p-fold, so merging stops at p
    # vectors and the doubling takes over
    calls = _counting(monkeypatch, spectral, "_inverse_iteration")
    res = spectrum_truncated(_ladder(1.05), 32)
    assert res.orders == (416, 832)
    ref = spectral._settle(
        lambda order: build_truncated(spectral._schur_gauged(_ladder(1.05)), order), 32, 104, 1e-10
    )
    assert np.array_equal(res.eigenvalues, ref[0]) and res.orders == ref[2]
    dims = [args[2] if len(args) > 2 else 1 for args in calls]
    assert max(dims) <= 2 and len(calls) <= 2 * (32 + 2 + 1)


@pytest.mark.parametrize("bg,orders", [(1.01, (231, 255)), (1.005, (326, 360)), (1.001, (729, 815))])
def test_later_orders_run_no_eigensolve(monkeypatch, bg, orders):
    # the start order is solved; the later one is certified by inverse
    # iteration from the start order's values
    solves = _counting(monkeypatch, spectral, "eigen_banded_lowest")
    res = spectrum_truncated(_ladder(bg), 5)
    assert res.orders == orders
    assert [band.shape[1] for band, _ in solves] == [2 * orders[0]]


def test_a_twice_failing_certificate_certifies_twice_the_start(monkeypatch):
    # seven values at r = 0.8 are bounded neither at the prediction 104 nor
    # at N': 208, the order the doubling would solve next, is certified from
    # the same shifts, and only 104 is solved
    prob = _toward_boundary(random_problem(np.random.default_rng(0), p=1), 0.8)
    ref = spectrum_truncated(prob, 7, tol=1e-14).eigenvalues
    builds = _counting(monkeypatch, spectral, "build_truncated")
    solves = _counting(monkeypatch, spectral, "eigen_banded_lowest")
    res = spectrum_truncated(prob, 7)
    orders = [args[1] for args in builds]
    assert len(orders) == 3 and orders[0] == 104 < orders[1] < orders[2] == 208
    assert res.orders == (104, 208)
    assert [band.shape[1] for band, _ in solves] == [104]
    assert np.all(np.abs(res.eigenvalues - ref) <= res.convergence)
    assert np.all(res.convergence < 1e-10)


def test_degenerate_clusters_are_bounded_as_blocks_at_a_later_order(monkeypatch):
    # eight values of the direct sum are not bounded at the start order;
    # at the later order the two equal shifts of each pair return one
    # vector twice, and each pair is merged into a block of two
    prob = _toward_boundary(_direct_sum(), 0.9)
    ref = spectrum_truncated(prob, 8, tol=1e-14).eigenvalues
    scale = np.linalg.norm(prob.B, 2)
    exact = [scalar_closed_eigenvalue(1.0, scale, 0.2, 1.0, k // 2) for k in range(8)]
    calls = _counting(monkeypatch, spectral, "_inverse_iteration")
    res = spectrum_truncated(prob, 8)
    start, later = res.orders
    assert start < later < 2 * start
    at_later = [args for args in calls if args[0].shape[1] == 2 * later]
    assert [np.size(args[1]) for args in at_later] == [9, 1, 1, 1, 1]
    assert [args[2] if len(args) > 2 else 1 for args in at_later] == [1, 2, 2, 2, 2]
    assert np.all(np.abs(np.diff(res.eigenvalues)[::2]) < 1e-12)
    assert np.array_equal(res.convergence[::2], res.convergence[1::2])
    for want in (ref, exact):
        assert np.all(np.abs(res.eigenvalues - want) <= res.convergence)
    assert np.all(res.convergence < 1e-10)


def test_later_certificate_is_robust_to_its_shifts():
    # the shifts are the start order's values, which a failed certificate
    # leaves off by up to its bounds; shifts 1e-6 off give the same values,
    # and bounds still below tol
    gauged = spectral._schur_gauged(_ladder(1.005))
    shifts = spectral._ritz_bounds(gauged, 326, 5)[2]
    vals, bounds, _ = spectral._ritz_bounds(gauged, 360, 5, shifts)
    assert np.max(bounds) < 1e-10
    for moved in (shifts + 1e-6, shifts - 1e-6):
        moved_vals, moved_bounds, _ = spectral._ritz_bounds(gauged, 360, 5, moved)
        assert np.max(np.abs(moved_vals - vals)) <= 1e-13
        assert np.max(moved_bounds) < 1e-10


@pytest.mark.parametrize("bg", [1.02, 1.01])
@pytest.mark.parametrize("index", [0, 7])
def test_profile_at_the_predicted_order_matches_a_tight_one(bg, index):
    prob = _ladder(bg)
    t = np.linspace(8.0 / 401, 8.0, 401)
    got, want = (
        eigenfunction_profile(prob, spectrum_truncated(prob, index + 1, tol=tol), index, t).values
        for tol in (1e-10, 1e-14)
    )
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_truncation_without_a_prediction_starts_at_64(monkeypatch):
    b_zero = parse_problem(str(FIXTURES / "degenerate_b0.json"))[0]
    assert spectrum_truncated(b_zero, 5).orders == (64, 128)
    # tol = 0 never settles: the doubling runs from 64 to the cap
    monkeypatch.setattr(spectral, "_MAX_ORDER", 256)
    builds = _counting(monkeypatch, spectral, "build_truncated")
    with pytest.raises(ConvergenceError, match="by order 256"):
        spectrum_truncated(_ladder(1.005), 5, tol=0.0)
    assert [args[1] for args in builds] == [64, 128, 256]


def test_predicted_start_is_clamped_below_the_cap(monkeypatch):
    # 326 modes predicted at bg = 1.005; the cap 256 leaves one doubling from 128
    prob = _ladder(1.005)
    monkeypatch.setattr(spectral, "_MAX_ORDER", 256)
    builds = _counting(monkeypatch, spectral, "build_truncated")
    with pytest.raises(ConvergenceError, match="by order 256"):
        spectrum_truncated(prob, 5, tol=1e-10)
    assert [args[1] for args in builds] == [128, 256]
    builds.clear()
    # a count past the cap is still refused before any band
    with pytest.raises(ContractViolation, match="no second order"):
        spectrum_truncated(prob, 257, tol=1e-10)
    assert builds == []


@pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
def test_spectra_reject_bad_tol(tol):
    seeds = spectrum_truncated(P1, 3)
    for solve, arg in ((spectrum_truncated, 3), (spectrum_connection, seeds)):
        with pytest.raises(ContractViolation, match="tol must be non-negative and finite"):
            solve(P1, arg, tol=tol)


def test_empty_counts_are_refused_by_the_shared_doubling_loop(monkeypatch):
    builds = _counting(monkeypatch, spectral, "build_truncated")
    builds_rabi = _counting(monkeypatch, spectral, "_rabi_band")
    rabi = RabiParameters(omega=1.0, g_coupling=0.3, Delta=0.5, eps_bias=0.2)
    for solve, problem in ((rabi_truncated_spectrum, rabi), (spectrum_truncated, P1)):
        for count in (0, -1):
            with pytest.raises(ContractViolation, match="count must be at least 1"):
                solve(problem, count)
    assert builds == builds_rabi == []


def test_connection_of_no_seeds_is_empty():
    none = SpectrumResult(np.array([]), np.array([]), (64, 128))
    res = spectrum_connection(P1, none)
    assert res.eigenvalues.shape == res.convergence.shape == (0,)
    assert res.orders == (64, 128)


def test_seeds_from_another_pencil_are_refused():
    # the plan reads the problem's own analysis, never the seeds' pencil: the
    # nilpotent problem's repeated root is refused whatever the seeds
    eye, c0 = np.eye(2), np.diag([0.1, -0.1])
    nilpotent = NchoProblem(p=2, mu=1.0, A=eye, B=[[0.0, 0.3], [0.0, 0.0]], C0=c0)
    seeds = spectrum_truncated(NchoProblem(p=2, mu=1.0, A=eye, B=0.3 * eye, C0=c0), 3)
    with pytest.raises(SimplePoleViolation):
        spectrum_connection(nilpotent, seeds)
    # the analysis depends on the pencil alone: seeds of another C0 or mu are
    # refined on the problem handed in
    prob = standard_ncho_problem(2.0, 0.75, 0.1, 1.5)
    ref = _connection(prob, 3).eigenvalues
    shifted_c0 = prob.with_matrices(C0=prob.C0 + 1e-8 * eye)
    for other in (shifted_c0, dataclasses.replace(prob, mu=1.5001)):
        got = spectrum_connection(prob, spectrum_truncated(other, 3, tol=1e-9)).eigenvalues
        assert np.max(np.abs(got - ref)) <= 1e-11


def test_hand_made_seeds_do_not_skip_the_positivity_rule():
    # the plan applies the rule to the problem itself, whatever the seeds
    prob = parse_problem(str(FIXTURES / "unit_circle_p1.json"))[0]
    with pytest.raises(PositivityError, match="sits on the unit circle"):
        _refine(prob, [1.0, 3.0])


def test_each_problem_runs_its_own_qz_once(monkeypatch):
    # the analysis is built on first use and kept; with_matrices and replace
    # build problems that run their own, and the problems a solver builds on
    # the way (the Schur gauge, the standardization steps) run none
    qz = []
    real = pencil._linearization_eigvals
    monkeypatch.setattr(pencil, "_linearization_eigvals", lambda a, b: qz.append(1) or real(a, b))
    prob = _classical_eta01()
    analysis = prob.analysis
    assert prob.analysis is analysis
    assert analysis.decomposition is analysis.decomposition
    assert len(qz) == 1
    for other in (prob.with_matrices(B=2 * prob.B), dataclasses.replace(prob)):
        qz.clear()
        assert other.analysis is not analysis
        assert np.array_equal(other.analysis.B, other.B)
        assert len(qz) == 1
    qz.clear()
    spectral._schur_gauged(prob)
    standardize_p2(prob)
    assert qz == []
    for solve in (standardize_p2, lambda x: spectrum_truncated(x, 3)):
        qz.clear()
        solve(_classical_eta01())
        assert len(qz) == 1


def test_rabi_convergence_error_at_order_cap(monkeypatch):
    # a lowered cap: reaching the real one costs seconds on the p = 2 ladder
    monkeypatch.setattr(spectral, "_MAX_ORDER", 256)
    rabi = RabiParameters(omega=1.0, g_coupling=0.3, Delta=0.5, eps_bias=0.2)
    with pytest.raises(ConvergenceError, match="by order 256"):
        rabi_truncated_spectrum(rabi, 5, tol=0.0)


def test_cross_method_agreement_p2():
    prob = standard_ncho_problem(2.0, 2.0, 0.1, 1.5)
    tr = spectrum_truncated(prob, 5, tol=1e-10)
    conn = _connection(prob, 5)
    assert np.max(np.abs(conn.eigenvalues - tr.eigenvalues)) < 1e-6
    closed = sorted(
        SQ3 * (2 * m + 1.5) + s * 0.2 * SQ3 for m in range(4) for s in (-1, 1)
    )[:5]
    assert np.max(np.abs(tr.eigenvalues - closed)) < 1e-8


def _closed_form_transport(poles, residues, f0, z0, z):
    """Exact p = 1 solution of f' = sum_j r_j / (z - a_j) f along a straight
    path that passes no pole."""
    out = complex(f0)
    for a, r in zip(poles, residues):
        out *= np.exp(r * np.log((z - a) / (z0 - a)))
    return out


@pytest.mark.parametrize(
    "poles,residues",
    [
        ([0.5, -0.3 + 0.4j], [0.7, -1.2 + 0.3j]),
        ([0.0, 0.6j, 1.5], [0.25, 1.5 - 0.5j, -0.4]),
        ([0.2 - 0.6j], [3.3]),
        ([0.5, -0.3 + 0.4j], [6.0, -5.2 + 0.3j]),
    ],
)
@pytest.mark.parametrize(
    "z0,z1,many_steps",
    [(0.1 + 0.05j, 0.12 + 0.06j, False), (-0.6 - 0.5j, 0.9 - 0.2j, True)],
    ids=["short", "multi-step"],
)
def test_transport_matches_closed_form_p1(monkeypatch, poles, residues, z0, z1, many_steps):
    # a Taylor step is at most 0.4x the distance to the nearest pole
    nearest = min(abs(z0 - a) for a in poles)
    assert (abs(z1 - z0) > 0.8 * nearest) == many_steps
    batches = _counting(monkeypatch, spectral, "_step_propagators")
    f0 = np.array([0.8 - 0.3j])
    steps = spectral._path_steps(np.array(poles), z0, z1)
    got = f0
    per_step = np.repeat(np.reshape(residues, (1, -1, 1, 1)), len(steps), axis=0)
    for phi in spectral._step_propagators(np.array(poles), per_step, steps):
        got = phi @ got
    want = _closed_form_transport(poles, residues, f0[0], z0, z1)
    assert abs(got[0] - want) <= 1e-12 * abs(want)
    if many_steps and max(map(abs, residues)) > 5:
        # residues this large need more than the planned steps
        assert len(batches) > 1


def test_split_rounds_run_in_slices_of_the_batch_budget(monkeypatch):
    # the multi-step-poles3-residues3 transport above: 3 of its 8 steps split
    poles = np.array([0.5, -0.3 + 0.4j])
    steps = spectral._path_steps(poles, -0.6 - 0.5j, 0.9 - 0.2j)
    per_step = np.repeat(np.reshape([6.0, -5.2 + 0.3j], (1, -1, 1, 1)), len(steps), axis=0)
    batches = _counting(monkeypatch, spectral, "_step_propagators")
    whole = spectral._step_propagators(poles, per_step, steps)
    assert [len(args[2]) for args in batches] == [8, 6]
    batches.clear()
    monkeypatch.setattr(spectral, "_BATCH_STEPS", 2)
    sliced = spectral._step_propagators(poles, per_step, steps)
    assert [len(args[2]) for args in batches] == [8, 2, 2, 2]
    assert np.array_equal(sliced, whole)


@pytest.mark.parametrize("p", [2, 3])
def test_transport_matches_an_ode_solver_at_p_2_and_3(monkeypatch, p):
    # residues that do not commute: a sum taken as S_j R_j instead of
    # R_j S_j passes every p = 1 check and fails this one
    rng = np.random.default_rng(70 + p)
    poles = np.array([0.5, -0.3 + 0.4j])
    residues = 3.0 * (rng.standard_normal((2, p, p)) + 1j * rng.standard_normal((2, p, p)))
    commutator = residues[0] @ residues[1] - residues[1] @ residues[0]
    assert np.linalg.norm(commutator) > 0.1 * np.linalg.norm(residues[0] @ residues[1])
    z0, z1 = -0.6 - 0.5j, 0.9 - 0.2j
    steps = spectral._path_steps(poles, z0, z1)
    assert len(steps) > 1
    batches = _counting(monkeypatch, spectral, "_step_propagators")
    got = np.eye(p)
    per_step = np.repeat(residues[None], len(steps), axis=0)
    for phi in spectral._step_propagators(poles, per_step, steps):
        got = phi @ got
    assert len(batches) > 1  # at least one step was split

    def rhs(t, f):
        # dF/dt on the straight leg z = z0 + t (z1 - z0)
        z = z0 + t * (z1 - z0)
        a = (z1 - z0) * sum(r / (z - al) for r, al in zip(residues, poles))
        return (a @ f.reshape(p, p)).ravel()

    sol = solve_ivp(
        rhs, (0.0, 1.0), np.eye(p, dtype=complex).ravel(), method="DOP853", rtol=1e-13, atol=1e-15
    )
    want = sol.y[:, -1].reshape(p, p)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_row_matrices_do_not_depend_on_the_batch():
    # Newton's values must not depend on which seeds share a batch
    problems = [_classical_eta01(), random_problem(np.random.default_rng(73), 3)]
    for prob in problems:
        plan = spectral._connection_plan(prob)
        seeds = spectrum_truncated(prob, 5, tol=1e-9).eigenvalues
        lams = np.concatenate([seeds, seeds + 1e-7 * np.maximum(1.0, np.abs(seeds)), [-2.5, 40.0]])
        whole = spectral._row_matrices(plan, lams)
        for k, lam in enumerate(lams):
            assert np.array_equal(whole[k], spectral._row_matrices(plan, [lam])[0])


@pytest.mark.parametrize("lam", [1e3, 1e8])
def test_transport_out_of_the_floating_point_range_is_refused(lam):
    prob = standard_ncho_problem(2.0, 0.75, 0.1, 1.5)
    with pytest.raises(ContinuationError, match="transport left the floating-point range"):
        connection_matrix(prob, lam)


def _classical_eta01():
    return parse_problem(str(FIXTURES / "classical_eta01_mu15.json"))[0]


@pytest.mark.parametrize("count", [1, 4])
def test_spectrum_connection_decomposes_once(monkeypatch, count):
    prob = _classical_eta01()
    seeds = spectrum_truncated(prob, count, tol=1e-9)
    separate = [_refine(prob, [s]) for s in seeds.eigenvalues]
    calls = _counting(monkeypatch, pencil, "PencilDecomposition")
    # a freshly parsed problem: prob's decomposition is kept from the refines
    result = spectrum_connection(_classical_eta01(), seeds)
    assert len(calls) == 1
    assert result.eigenvalues.tolist() == [r.eigenvalues[0] for r in separate]
    assert result.convergence.tolist() == [r.convergence[0] for r in separate]


def _rank_one_problem(rng, p):
    """Random admissible problem whose B has rank one, so 0 is a pole of
    rank p - 1, with conftest.random_problem's margin and pole-gap rules."""
    for _ in range(200):
        prob = random_problem(rng, p)
        u, s, vh = np.linalg.svd(prob.B)
        rank_one = prob.with_matrices(B=s[0] * np.outer(u[:, 0], vh[0]))
        if positivity_margin(rank_one, 64).margin <= 0.05:
            continue
        poles = np.array(rank_one.analysis.decomposition.poles)
        gaps = np.abs(poles[:, None] - poles)[np.triu_indices(len(poles), 1)]
        if gaps.min() >= 0.05:
            return rank_one
    raise RuntimeError("no rank-one problem found")


@pytest.mark.parametrize("p", [2, 3])
def test_rank_one_b_moves_the_base_point(p):
    rng = np.random.default_rng(50 + p)
    for _ in range(3):
        prob = _rank_one_problem(rng, p)
        plan = spectral._connection_plan(prob)
        # 0 is a pole carrying p - 1 rows, and the other inner pole one
        assert sorted((rank, plan.poles[j] == 0) for j, rank, *_ in plan.rows) == [
            (1, False),
            (p - 1, True),
        ]
        assert plan.steps[0][0] != 0
        ref = spectrum_truncated(prob, 5, tol=1e-13).eigenvalues
        conn = _connection(prob, 5).eigenvalues
        assert np.max(np.abs(conn - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_error_estimate_holds_at_the_newton_noise_floor():
    # rank-one B at p = 3 with an inner pole 0.032 from the pole at 0
    # (poles 0, 0.0290 + 0.0134i, 28.4 + 13.2i): Newton stalls near 1e-10,
    # and the reported convergence must cover the error it leaves
    rng = np.random.default_rng(13)
    kept = []
    while len(kept) < 3:
        a = np.eye(3) + 0.1 * random_hermitian(rng, 3)
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = np.outer(u, v.conj())
        c0 = 0.3 * random_hermitian(rng, 3)
        prob = NchoProblem(
            p=3, mu=rng.uniform(0.5, 2.0), A=a, B=0.3 * b / np.linalg.norm(b), C0=c0
        )
        if positivity_margin(prob, 64).margin > 0.05:
            kept.append(prob)
    poles = np.array(kept[-1].analysis.decomposition.poles)
    assert np.allclose(poles, [0.0, 0.0290 + 0.0134j, 28.45 + 13.15j], atol=1e-4, rtol=1e-3)
    ref = spectrum_truncated(kept[-1], 5, tol=1e-13).eigenvalues
    conn = _connection(kept[-1], 5)
    assert np.all(np.abs(conn.eigenvalues - ref) <= 2.0 * conn.convergence)


@pytest.mark.parametrize("theta", [0.0, 0.7])
def test_legs_pass_no_other_inner_pole(theta):
    # B with eigenvalues 0.3 and 0.2 puts two inner poles on one ray from 0
    # (about -0.333 and -0.209): the straight leg from 0 to the far one
    # would run into the near one
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    prob = NchoProblem(
        p=2, mu=0.8, A=np.eye(2), B=rot @ np.diag([0.3, 0.2]) @ rot.T,
        C0=[[0.1, 0.15 - 0.05j], [0.15 + 0.05j, -0.2]],
    )
    plan = spectral._connection_plan(prob)
    inner = [plan.poles[j] for j, *_ in plan.rows]
    assert len(inner) == 2 and abs(np.angle(inner[0] / inner[1])) < 1e-12
    base = plan.steps[0][0]
    assert base != 0
    # each leg keeps well off the other pole: the ring of candidates is too
    # small to keep it out of that pole's matching disk here, and the base
    # point is the candidate that comes least close
    for (j, _, _, n_leg, _), start in zip(plan.rows, (0, sum(plan.rows[0][3:]))):
        z = plan.steps[start + n_leg - 1][1]
        other = next(k for k, *_ in plan.rows if k != j)
        t = np.clip(((plan.poles[other] - base) * np.conj(z - base)).real / abs(z - base) ** 2, 0, 1)
        radius = next(r for k, _, r, *_ in plan.rows if k == other)
        assert abs(base + t * (z - base) - plan.poles[other]) >= 0.5 * radius
    ref = spectrum_truncated(prob, 6, tol=1e-13).eigenvalues
    conn = _connection(prob, 6).eigenvalues
    assert np.max(np.abs(conn - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_newton_rounds_split_at_the_batch_budget(monkeypatch):
    prob = _classical_eta01()
    whole = _connection(prob, 5)
    steps = len(spectral._connection_plan(prob).steps)
    monkeypatch.setattr(spectral, "_BATCH_STEPS", 3 * steps + 1)
    batches = _top_level_batches(monkeypatch)
    split = _connection(prob, 5)
    # 10 lam in the first round: batches of 3, 3, 3 and 1
    assert batches[:4] == [3 * steps, 3 * steps, 3 * steps, steps]
    assert max(batches) <= spectral._BATCH_STEPS
    assert np.max(np.abs(split.eigenvalues - whole.eigenvalues)) <= 1e-14
    # a budget below one lam's steps still takes one lam per batch
    monkeypatch.setattr(spectral, "_BATCH_STEPS", 1)
    batches.clear()
    _connection(prob, 2)
    assert set(batches) == {steps}


@pytest.mark.parametrize("frac", [0.3, 0.45, 0.6])
def test_seed_that_leaves_for_another_root_is_refused(frac):
    # a second seed frac of the way from lambda_0 to lambda_1 lands on a
    # root further from it than half the gap to the first seed
    l0, l1 = SQ3 / 4.0, SQ3 * 1.25
    with pytest.raises(RefinementError, match="more than half the gap"):
        _refine(P1, [l0, l0 + frac * (l1 - l0)])
    # the same seed alone has no neighbour to keep it
    assert _refine(P1, [l0 + 0.3 * (l1 - l0)]).eigenvalues[0] == pytest.approx(l0, abs=1e-12)


@pytest.mark.parametrize("p", [3, 4])
def test_connection_agrees_with_truncation_at_p_3_and_4(p):
    rng = np.random.default_rng(60 + p)
    for _ in range(3):
        prob = random_problem(rng, p)
        assert connection_matrix(prob, 0.5).shape == (p, p)
        ref = spectrum_truncated(prob, 5, tol=1e-13).eigenvalues
        conn = _connection(prob, 5).eigenvalues
        assert np.max(np.abs(conn - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("name", ["classical_eta0.json", "classical_mu_nk.json"])
def test_double_eigenvalues_are_a_two_dimensional_null_space(name):
    # alpha = beta: every eigenvalue is double, and L has nullity 2 there
    prob = parse_problem(str(FIXTURES / name))[0]
    ref = spectrum_truncated(prob, 6, tol=1e-13).eigenvalues
    assert np.max(np.abs(ref[::2] - ref[1::2])) < 1e-10
    for lam in ref[::2]:
        near = np.linalg.svd(connection_matrix(prob, lam), compute_uv=False)
        off = np.linalg.svd(connection_matrix(prob, lam + 0.3), compute_uv=False)
        # p = 2: both singular values vanish, on the scale of L just off the root
        assert np.max(near) <= 1e-12 * off[0]
        assert off[-1] >= 0.1


def test_spectrum_invariance_under_group_and_gauge():
    rng = np.random.default_rng(30)
    for _ in range(5):
        prob = random_problem(rng, p=2)
        base = spectrum_truncated(prob, 5, tol=1e-9).eigenvalues
        b = 0.5 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        a = np.sqrt(1 + abs(b) ** 2) * np.exp(2j * np.pi * rng.uniform())
        moved = spectrum_truncated(transform_problem(Su11Element(a, b), prob), 5, tol=1e-9)
        assert np.max(np.abs(moved.eigenvalues - base)) < 1e-7
        u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        gauged = spectrum_truncated(gauge_problem(u, prob), 5, tol=1e-9)
        assert np.max(np.abs(gauged.eigenvalues - base)) < 1e-9


def _unitary(entries, p):
    """Unitary Q factor of the p x p complex matrix read off entries."""
    z = np.array(entries[: 2 * p * p]).view(complex).reshape(p, p)
    return np.linalg.qr(z)[0]


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(
    p=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
    entries=st.lists(st.floats(-1.0, 1.0), min_size=18, max_size=18),
)
def test_truncated_spectrum_is_gauge_invariant(p, seed, entries):
    prob = random_problem(np.random.default_rng(seed), p=p)
    base = spectrum_truncated(prob, 5)
    moved = spectrum_truncated(gauge_problem(_unitary(entries, p), prob), 5)
    assert moved.orders == base.orders
    band = build_truncated(prob, base.orders[1])
    # both are Schur-gauged solves of unitarily similar matrices
    bound = 2.0 * _GAUGE_ROUND_OFF * _norm_bound(band)
    assert np.max(np.abs(moved.eigenvalues - base.eigenvalues)) <= bound


def test_standardized_connection_sees_original_spectrum():
    # standardization reparameterizes lambda through lam_coeff; the connection
    # determinant on the standardized problem must vanish at the original values
    from nchodisk import standardize_p2

    prob = standard_ncho_problem(2.0, 2.0, 0.1, 0.5)
    std, _ = standardize_p2(prob)
    vals = spectrum_truncated(prob, 2, tol=1e-10).eigenvalues
    refined = _refine(std, vals).eigenvalues
    assert np.max(np.abs(refined - vals)) < 1e-7


def test_laguerre_mode_closed_forms():
    t = np.array([0.3, 1.0, 2.5])
    assert np.max(np.abs(laguerre_mode(0, 0.7, t) - np.exp(-t))) < 1e-15
    expect = 1j * (1.0 - 2.0 * t / 0.7) * np.exp(-t)
    assert np.max(np.abs(laguerre_mode(1, 0.7, t) - expect)) < 1e-14


def test_laguerre_matches_scipy():
    rng = np.random.default_rng(40)
    for mu in (0.5, 1.5, 3.0):
        norm = 1.0
        for m in range(8):
            if m:
                norm *= m / (mu + m - 1)
            t = rng.uniform(0.05, 6.0, size=5)
            ref = (1j**m) * norm * eval_genlaguerre(m, mu - 1, 2 * t) * np.exp(-t)
            assert np.max(np.abs(laguerre_mode(m, mu, t) - ref)) < 1e-12


def test_laguerre_gram_orthogonality():
    for mu in (0.5, 1.5, 3.0):
        nodes, weights = roots_genlaguerre(64, mu - 1)
        # the quadrature weight holds e^{-2t}: undo the mode's own e^{-t}
        unweighted = np.exp(nodes / 2.0)
        worst = 0.0
        for m in range(13):
            for n in range(13):
                fm = laguerre_mode(m, mu, nodes / 2.0) * unweighted
                fn = laguerre_mode(n, mu, nodes / 2.0) * unweighted
                val = np.sum(weights * fm * np.conj(fn)) / gamma_fn(mu)
                expect = _norm_sq(mu, m + 1)[m] if m == n else 0.0
                worst = max(worst, abs(val - expect))
        assert worst < 1e-10


def test_profile_pure_mode():
    prob = NchoProblem(p=1, mu=0.5, A=[[1.0]], B=[[0.0]], C0=[[0.0]])
    t = np.linspace(0.1, 6.0, 25)
    prof = eigenfunction_profile(prob, spectrum_truncated(prob, 1), 0, t)
    assert abs(prof.eigenvalue - 0.5) < 1e-12
    ratio = prof.values[:, 0] / np.exp(-t)
    assert np.max(np.abs(ratio - ratio[0])) < 1e-10
    assert np.max(prof.tail[1:]) < 1e-12


def test_profile_geometric_coefficient_decay():
    t = np.linspace(0.1, 6.0, 9)
    prof = eigenfunction_profile(P1, spectrum_truncated(P1, 1), 0, t)
    c = prof.tail
    est = (c[24] / c[10]) ** (1.0 / 14.0)
    assert 0.2 < est < 0.34  # inner-pole modulus is 2 - sqrt(3) ~ 0.268


def test_profile_stable_under_refinement():
    t = np.linspace(0.1, 5.0, 17)
    coarse = eigenfunction_profile(P1, spectrum_truncated(P1, 1, tol=1e-6), 0, t)
    fine = eigenfunction_profile(P1, spectrum_truncated(P1, 1, tol=1e-13), 0, t)
    phase = coarse.values[0, 0] / fine.values[0, 0]
    assert abs(abs(phase) - 1.0) < 1e-7
    assert np.max(np.abs(coarse.values - phase * fine.values)) < 1e-7


def _profile_problems():
    return _fixture_problems() + [standard_ncho_problem(2.0, 1.02 / 2.0, 0.1, 1.5)]


def test_profile_takes_the_seed_eigenvalue_and_order():
    t = np.linspace(0.05, 8.0, 33)
    for prob in _profile_problems():
        seeds = spectrum_truncated(prob, 8)
        for index in (0, 3, 7):
            prof = eigenfunction_profile(prob, seeds, index, t)
            assert prof.eigenvalue == seeds.eigenvalues[index]
            # the vector takes twice the first order, certified or doubled
            assert prof.order == 2 * seeds.orders[0]
            h = band_to_dense(build_truncated(prob, prof.order))
            vec = (prof.coefficients * np.sqrt(_norm_sq(prob.mu, prof.order))[:, None]).ravel()
            residual = np.linalg.norm(h @ vec - prof.eigenvalue * vec)
            assert residual <= 1e-10 * max(1.0, abs(prof.eigenvalue))


def test_profile_rejects_index_outside_seeds():
    seeds = spectrum_truncated(P1, 3)
    for index in (-1, 3):
        with pytest.raises(ContractViolation, match=r"index must be in range 0\.\.2"):
            eigenfunction_profile(P1, seeds, index, np.linspace(0.1, 2.0, 5))


@pytest.mark.parametrize("t", [0.0, -1.0, np.nan, np.inf])
def test_radial_modes_refuse_t_that_is_not_finite_and_positive(t):
    with pytest.raises(ContractViolation, match="t must be finite and positive"):
        laguerre_mode(2, 1.5, t)
    with pytest.raises(ContractViolation, match="t grid must be finite and positive"):
        eigenfunction_profile(P1, spectrum_truncated(P1, 1), 0, np.array([1.0, t]))


def test_radial_modes_refuse_t_where_the_laguerre_sum_overflows():
    # the ascending recurrence leaves the floating-point range: a refusal, not nan
    with pytest.raises(ContractViolation, match="overflow"):
        laguerre_mode(2, 1.5, 1e300)
    seeds = spectrum_truncated(P1, 1)
    with pytest.raises(ContractViolation, match="overflow"):
        eigenfunction_profile(P1, seeds, 0, np.array([1.0, 1e5]))
    assert np.all(np.isfinite(eigenfunction_profile(P1, seeds, 0, np.array([1.0, 200.0])).values))


def test_profile_sum_matches_modes():
    # the real-arithmetic sum equals the coefficients against laguerre_mode
    t = np.linspace(0.1, 6.0, 13)
    prof = eigenfunction_profile(P1, spectrum_truncated(P1, 1), 0, t)
    expect = sum(
        laguerre_mode(m, P1.mu, t)[:, None] * prof.coefficients[m]
        for m in range(prof.order)
    )
    assert np.max(np.abs(prof.values - expect)) < 1e-14 * np.max(np.abs(expect))


def test_rabi_truncation_decoupled_pattern():
    rabi = RabiParameters(omega=1.0, g_coupling=0.0, Delta=0.5, eps_bias=0.0)
    vals = rabi_truncated_spectrum(rabi, 5)
    assert np.allclose(vals, [-0.5, 0.5, 0.5, 1.5, 1.5], atol=1e-12)


def test_confluence_sweep_zero_coupling():
    rabi = RabiParameters(omega=1.0, g_coupling=0.0, Delta=0.5, eps_bias=0.0)
    sweep = confluence_sweep(rabi, [20.0, 40.0], count=4)
    assert max(sweep.deviations) < 1e-9


def test_confluence_sweep_rate():
    rabi = RabiParameters(omega=1.0, g_coupling=0.3, Delta=0.5, eps_bias=0.0)
    sweep = confluence_sweep(rabi, [40.0, 160.0, 640.0], count=5)
    d = sweep.deviations
    assert d[0] > d[1] > d[2] > 0
    for hi, lo in zip(d[:-1], d[1:]):
        assert 0.15 < lo / hi < 0.45


def test_connection_with_small_inner_pole_agrees_without_warning():
    # inner pole |alpha| ~ 0.025: the base point 0 lies close to it, and the
    # matching circle shrinks with that distance
    prob = NchoProblem(p=1, mu=1.0, A=[[1.0]], B=[[0.05]], C0=[[0.0]])
    inner = [al for al in prob.analysis.decomposition.poles if 0 < abs(al) < 1]
    assert abs(inner[0]) < 0.185
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trunc = spectrum_truncated(prob, 3)
        conn = spectrum_connection(prob, trunc)
    assert np.max(np.abs(conn.eigenvalues - trunc.eigenvalues)) < 1e-8
