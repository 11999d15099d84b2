import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gamma as gamma_fn, roots_genlaguerre

from conftest import FIXTURES, random_problem, scalar_closed_eigenvalue

from nchodisk import (
    ContinuationError,
    ContractViolation,
    ConvergenceError,
    NchoProblem,
    NotAnEigenvalueError,
    RabiParameters,
    ResonanceError,
    Su11Element,
    build_fuchsian,
    build_truncated,
    confluence_sweep,
    connection_determinant,
    connection_polarizations,
    eigen_banded_lowest,
    eigenfunction_profile,
    eigenvector_banded,
    gauge_problem,
    laguerre_mode,
    rabi_truncated_spectrum,
    refine_eigenvalue,
    spectrum_connection,
    spectrum_truncated,
    standard_ncho_problem,
    transform_problem,
)
from nchodisk import pencil, spectral
from nchodisk.cli import parse_problem
from nchodisk.spectral import _norm_sq

SQ3 = np.sqrt(3.0)

P1 = NchoProblem(p=1, mu=0.5, A=[[1.0]], B=[[0.25]], C0=[[0.0]])


def test_truncation_blocks_reproduce_ladder_action():
    prob = random_problem(np.random.default_rng(0), p=2, mu=0.8)
    op = build_truncated(prob, 16)
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
    sym = (op.matrix @ v).reshape(16, 2) / norms[:, None]
    assert np.max(np.abs(sym[:15] - raw[:15])) < 1e-10


def test_truncation_hermitian():
    prob = random_problem(np.random.default_rng(2), p=3)
    h = build_truncated(prob, 32).matrix
    assert np.max(np.abs(h - h.conj().T)) == 0.0


@pytest.mark.parametrize("p", [1, 2, 3])
def test_truncation_band_layout(p):
    # the band expands to the dense block-tridiagonal matrix assembled block
    # by block
    prob = random_problem(np.random.default_rng(3 + p), p=p)
    order = 12
    op = build_truncated(prob, order)
    assert op.band.shape == (2 * p, p * order)
    ref = np.zeros((p * order, p * order), dtype=complex)
    for m in range(order):
        sl = slice(m * p, (m + 1) * p)
        ref[sl, sl] = prob.A * (2 * m + prob.mu) - 2.0 * prob.C0
        if m + 1 < order:
            sl1 = slice((m + 1) * p, (m + 2) * p)
            ref[sl1, sl] = 2.0 * prob.B * np.sqrt((m + 1) * (m + prob.mu))
            ref[sl, sl1] = ref[sl1, sl].conj().T
    assert np.max(np.abs(op.matrix - ref)) < 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_banded_eigenvalues_match_dense(p):
    rng = np.random.default_rng(50 + p)
    for order in (16, 32, 64, 128):
        op = build_truncated(random_problem(rng, p=p), order)
        dense = np.linalg.eigvalsh(op.matrix)[:6]
        band = eigen_banded_lowest(op.band, 6)
        assert np.max(np.abs(band - dense) / np.maximum(1.0, np.abs(dense))) < 1e-12


@pytest.mark.parametrize("p", [1, 2, 3])
def test_banded_inverse_iteration_matches_dense_eigh(p):
    rng = np.random.default_rng(60 + p)
    for order in (16, 64):
        op = build_truncated(random_problem(rng, p=p), order)
        h = op.matrix
        v = np.linalg.eigh(h)[1]
        lams = eigen_banded_lowest(op.band, 4)
        for i in (0, 3):
            x = eigenvector_banded(op.band, lams[i])
            assert abs(np.linalg.norm(x) - 1.0) < 1e-14
            assert abs(np.vdot(v[:, i], x)) > 1.0 - 1e-12  # equal up to phase
            assert np.linalg.norm(h @ x - lams[i] * x) < 1e-12 * max(1.0, abs(lams[i]))


def test_truncation_diagonal_cases():
    prob = NchoProblem(p=1, mu=0.5, A=[[1.0]], B=[[0.0]], C0=[[0.0]])
    vals = np.linalg.eigvalsh(build_truncated(prob, 16).matrix)[:4]
    assert np.allclose(vals, [0.5, 2.5, 4.5, 6.5], atol=1e-12)

    prob2 = NchoProblem(p=2, mu=0.5, A=np.diag([1.0, 2.0]), B=np.zeros((2, 2)), C0=np.zeros((2, 2)))
    vals = np.linalg.eigvalsh(build_truncated(prob2, 16).matrix)[:4]
    expect = sorted([2 * m + 0.5 for m in range(3)] + [2 * (2 * m + 0.5) for m in range(3)])[:4]
    assert np.allclose(vals, expect, atol=1e-12)


def test_truncation_requires_standard_family():
    prob = NchoProblem(
        p=1, mu=0.5, A=[[1.0]], B=[[0.0]], C0=[[0.0]], lam_coeff=[[0.3]]
    )
    with pytest.raises(ContractViolation):
        build_truncated(prob, 16)


def test_scalar_closed_form_spectrum():
    res = spectrum_truncated(P1, 10, tol=1e-12)
    expect = [scalar_closed_eigenvalue(1.0, 0.25, 0.0, 0.5, m) for m in range(10)]
    assert np.max(np.abs(res.eigenvalues - expect)) < 1e-8
    assert res.orders[1] <= 512


def test_truncation_monotone_in_order():
    rng = np.random.default_rng(10)
    for _ in range(20):
        prob = random_problem(rng, p=1 + int(rng.integers(0, 2)))
        v1 = np.linalg.eigvalsh(build_truncated(prob, 64).matrix)[:4]
        v2 = np.linalg.eigvalsh(build_truncated(prob, 128).matrix)[:4]
        assert np.all(v2 <= v1 + 1e-12)


def test_boundedness_gives_lower_bound_on_a():
    # the constant function is in every truncation window, so the lowest
    # eigenvalue of the ladder operator (no C0 shift) never exceeds
    # mu * min eig(A); equivalently A >= (c/mu) I for its lower bound c
    rng = np.random.default_rng(20)
    for _ in range(6):
        prob = random_problem(rng, p=2)
        bare = prob.with_matrices(C0=np.zeros((2, 2)))
        c_low = float(np.linalg.eigvalsh(build_truncated(bare, 64).matrix)[0])
        a_min = float(np.linalg.eigvalsh(prob.A)[0])
        assert a_min >= c_low / prob.mu - 1e-9


def test_connection_determinant_zeros_and_signs():
    roots = [SQ3 * (m + 0.25) for m in range(3)]
    for lam in roots:
        t = connection_determinant(P1, lam)
        assert abs(t) < 1e-6
        assert abs(t.imag) < 1e-9
    # sign changes between consecutive roots, bounded away from zero off-spectrum
    t_neg = connection_determinant(P1, -1.0)
    t_mid1 = connection_determinant(P1, 1.2)
    t_mid2 = connection_determinant(P1, 3.0)
    assert abs(t_neg) > 1e-3 and abs(t_mid1) > 1e-3 and abs(t_mid2) > 1e-3
    assert np.sign(t_neg.real) != np.sign(t_mid1.real)
    assert np.sign(t_mid1.real) != np.sign(t_mid2.real)


def test_connection_series_that_does_not_settle_raises():
    # far up the spectrum the Frobenius coefficients at the origin overflow
    # before they decay; the series stops there, with no overflow warning
    with pytest.raises(ContinuationError, match="did not settle"):
        connection_determinant(P1, 3000.0)


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
    calls = _counting(monkeypatch, pencil, "decompose_quadratic_pencil")
    connection_determinant(P1, 1.2)
    assert len(calls) == 1


def test_refinement_evaluates_each_lambda_once(monkeypatch):
    prob = standard_ncho_problem(2.0, 0.51, 0.1, 1.5)  # beta gamma = 1.02
    calls = _counting(monkeypatch, spectral, "_connection_t")
    spectrum_connection(prob, 5)
    lams = [args[1] for args in calls]
    assert len(set(lams)) == len(lams)
    assert len(lams) <= 20


def test_loop_arcs_are_single_taylor_steps(monkeypatch):
    # the chord of each arc around the inner pole fits in one Taylor step
    assert 2.0 * np.sin(np.pi / spectral._LOOP_ARCS) <= spectral._STEP_FRACTION
    steps = _counting(monkeypatch, spectral, "_taylor_step")
    for lam in (-1.0, 1.2, 3.0):
        steps.clear()
        connection_determinant(P1, lam)
        assert len(steps) <= 22


def test_connection_rejects_ladder_diagonal():
    prob = NchoProblem(p=1, mu=0.5, A=[[1.0]], B=[[0.0]], C0=[[0.0]])
    with pytest.raises(ContinuationError):
        connection_determinant(prob, 0.5)


def test_refine_from_seed():
    r = refine_eigenvalue(P1, 0.43)
    assert abs(r.value - SQ3 / 4.0) < 1e-9
    assert r.residual < 1e-10


def test_refine_returns_immediately_at_root():
    r = refine_eigenvalue(P1, float(SQ3 / 4.0))
    assert r.value == pytest.approx(SQ3 / 4.0, abs=1e-12)


def test_refine_converges_from_between_roots():
    # seed halfway toward the next root still lands on the bracketed one
    r = refine_eigenvalue(P1, 0.55)
    assert abs(r.value - SQ3 / 4.0) < 1e-9


def test_refine_fails_without_sign_change():
    from nchodisk import RefinementError

    with pytest.raises(RefinementError):
        refine_eigenvalue(P1, 1.2)


def test_truncation_convergence_error_with_tight_budget():
    with pytest.raises(ConvergenceError, match="by order 256"):
        spectrum_truncated(P1, 3, tol=0.0, max_order=256)


def test_profile_convergence_error_at_order_cap():
    with pytest.raises(ConvergenceError, match="by order 8192"):
        eigenfunction_profile(P1, SQ3 / 4.0, np.linspace(0.1, 2.0, 5), tol=0.0)


def test_rabi_convergence_error_at_order_cap(monkeypatch):
    # a lowered cap: reaching the real one costs seconds on the p = 2 ladder
    monkeypatch.setattr(spectral, "_MAX_ORDER", 256)
    rabi = RabiParameters(omega=1.0, g_coupling=0.3, Delta=0.5, eps_bias=0.2)
    with pytest.raises(ConvergenceError, match="by order 256"):
        rabi_truncated_spectrum(rabi, 5, tol=0.0)


def test_cross_method_agreement_p2():
    prob = standard_ncho_problem(2.0, 2.0, 0.1, 1.5)
    tr = spectrum_truncated(prob, 5, tol=1e-10)
    conn = spectrum_connection(prob, 5, tol=1e-10)
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
    ],
)
@pytest.mark.parametrize(
    "z0,z1,many_steps",
    [(0.1 + 0.05j, 0.12 + 0.06j, False), (-0.6 - 0.5j, 0.9 - 0.2j, True)],
    ids=["short", "multi-step"],
)
def test_transport_matches_closed_form_p1(poles, residues, z0, z1, many_steps):
    # a Taylor step is at most 0.4x the distance to the nearest pole
    nearest = min(abs(z0 - a) for a in poles)
    assert (abs(z1 - z0) > 0.8 * nearest) == many_steps
    f0 = np.array([0.8 - 0.3j])
    got = spectral._transport(poles, [np.array([[r]]) for r in residues], f0, z0, z1)
    want = _closed_form_transport(poles, residues, f0[0], z0, z1)
    assert abs(got[0] - want) <= 1e-12 * abs(want)


def _classical_eta01():
    return parse_problem(str(FIXTURES / "classical_eta01_mu15.json"))[0]


@pytest.mark.parametrize("count", [1, 4])
def test_spectrum_connection_decomposes_each_polarization_once(monkeypatch, count):
    prob = _classical_eta01()
    seeds = spectrum_truncated(prob, count, tol=1e-9).eigenvalues
    separate = [refine_eigenvalue(prob, float(s)) for s in seeds]
    calls = _counting(monkeypatch, pencil, "decompose_quadratic_pencil")
    result = spectrum_connection(prob, count)
    assert len(calls) <= 3
    assert result.eigenvalues.tolist() == [r.value for r in separate]
    assert result.convergence.tolist() == [r.residual for r in separate]


@pytest.mark.parametrize("n", [1, 2])
def test_connection_determinant_raises_at_resonance(n):
    # in polarization 0 the origin is a pole whose residue has rank one, so
    # its exponents are 0 and the trace, which is affine in lambda
    prob = _classical_eta01()
    config = connection_polarizations(prob)[0]

    def trace_at_origin(lam):
        system = build_fuchsian(config, lam)
        return np.trace(system.residues[system.pole_index(0.0)])

    t0, t1 = trace_at_origin(0.0), trace_at_origin(1.0)
    lam = (n - t0) / (t1 - t0)
    assert abs(trace_at_origin(lam) - n) < 1e-12
    with pytest.raises(ResonanceError):
        connection_determinant(prob, lam)


def test_polarization_count():
    assert len(connection_polarizations(P1)) == 1
    prob = standard_ncho_problem(2.0, 2.0, 0.0, 0.5)
    assert len(connection_polarizations(prob)) == 2


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


def test_standardized_connection_sees_original_spectrum():
    # standardization reparameterizes lambda through lam_coeff; the connection
    # determinant on the standardized problem must vanish at the original values
    from nchodisk import standardize_p2

    prob = standard_ncho_problem(2.0, 2.0, 0.1, 0.5)
    std, _ = standardize_p2(prob)
    vals = spectrum_truncated(prob, 2, tol=1e-10).eigenvalues
    for lam in vals:
        r = refine_eigenvalue(std, float(lam))
        assert abs(r.value - lam) < 1e-7


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
        worst = 0.0
        for m in range(13):
            for n in range(13):
                fm = laguerre_mode(m, mu, nodes / 2.0, weighted=False)
                fn = laguerre_mode(n, mu, nodes / 2.0, weighted=False)
                val = np.sum(weights * fm * np.conj(fn)) / gamma_fn(mu)
                expect = _norm_sq(mu, m + 1)[m] if m == n else 0.0
                worst = max(worst, abs(val - expect))
        assert worst < 1e-10


def test_profile_pure_mode():
    prob = NchoProblem(p=1, mu=0.5, A=[[1.0]], B=[[0.0]], C0=[[0.0]])
    t = np.linspace(0.1, 6.0, 25)
    prof = eigenfunction_profile(prob, 0.5, t)
    ratio = prof.values[:, 0] / np.exp(-t)
    assert np.max(np.abs(ratio - ratio[0])) < 1e-10
    assert np.max(prof.tail[1:]) < 1e-12


def test_profile_geometric_coefficient_decay():
    t = np.linspace(0.1, 6.0, 9)
    prof = eigenfunction_profile(P1, SQ3 / 4.0, t)
    c = prof.tail
    est = (c[24] / c[10]) ** (1.0 / 14.0)
    assert 0.2 < est < 0.34  # inner-pole modulus is 2 - sqrt(3) ~ 0.268


def test_profile_stable_under_refinement():
    t = np.linspace(0.1, 5.0, 17)
    coarse = eigenfunction_profile(P1, SQ3 / 4.0, t, tol=1e-6)
    fine = eigenfunction_profile(P1, SQ3 / 4.0, t, tol=1e-13)
    phase = coarse.values[0, 0] / fine.values[0, 0]
    assert abs(abs(phase) - 1.0) < 1e-7
    assert np.max(np.abs(coarse.values - phase * fine.values)) < 1e-7


def test_profile_rejects_non_eigenvalue():
    with pytest.raises(NotAnEigenvalueError):
        eigenfunction_profile(P1, 1.0, np.linspace(0.1, 2.0, 5))


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
