import numpy as np
import pytest

from conftest import eliminated_scalar_coefficients, scheme_vs_frobenius

from nchodisk import (
    ContractViolation,
    NchoProblem,
    PositivityError,
    apparent_singularity_residual,
    beta_gamma_closed_forms,
    confluence_residuals,
    confluent_limit_params,
    heun_equation_4pt,
    heun_like_parameters,
    quantization_check,
    rabi_jc_map,
    standard_ncho_problem,
    standardize_p2,
)

SQ3 = np.sqrt(3.0)


def random_standard_problem(rng, mu=None, force_b2=True):
    mu = float(mu) if mu is not None else float(rng.uniform(0.4, 2.0))
    while True:
        b1 = rng.uniform(0.05, 0.3) * np.exp(2j * np.pi * rng.uniform())
        b2 = (rng.uniform(0.1, 0.5) if force_b2 else 0.0) * np.exp(2j * np.pi * rng.uniform())
        if 2 * abs(b1) + abs(b2) ** 2 >= 0.95:
            continue
        c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        c0 = 0.4 * (c + c.conj().T)
        b = np.array([[b1, b2], [0.0, 0.0]])
        return NchoProblem(p=2, mu=mu, A=np.eye(2), B=b, C0=c0)


def test_closed_forms_at_reference_point():
    cf = beta_gamma_closed_forms(2.0, 2.0, 0.0, 2.0 * SQ3, 0.5)
    assert abs(cf.alpha - 0.5) < 1e-15
    assert abs(cf.kappa_plus - 1.0) < 1e-12
    assert abs(cf.kappa_minus - 1.0) < 1e-12
    assert abs(cf.q_plus + 21.0 / 32.0) < 1e-12
    assert abs(cf.q_minus + 21.0 / 32.0) < 1e-12


def test_closed_forms_eta_symmetry():
    cf = beta_gamma_closed_forms(2.0, 3.0, 0.0, 1.3, 1.5)
    assert cf.kappa_plus == cf.kappa_minus
    assert cf.q_plus == cf.q_minus


def test_closed_forms_positivity_guard():
    with pytest.raises(PositivityError):
        beta_gamma_closed_forms(1.0, 0.9, 0.0, 1.0, 0.5)


def test_route_independence_reference_point():
    # the plain 4-point builder gives the same data on the B = B' branch
    std, _ = standardize_p2(standard_ncho_problem(2.0, 2.0, 0.0, 0.5))
    for build in (heun_like_parameters, heun_equation_4pt):
        params = build(std, 2.0 * SQ3)
        assert params.n_singularities == 4
        assert abs(params.alpha - 0.5) < 1e-12
        assert abs(params.kappa0 - 1.0) < 1e-10
        assert abs(params.kappa1 - 1.0) < 1e-10
        assert abs(params.q1 + 21.0 / 32.0) < 1e-10
        # nontrivial exponent at the origin: 1 + kappa0 - mu/2 = 7/4
        assert abs(params.scheme["zero"][1] - 1.75) < 1e-10


def test_four_point_branch_alpha_only_depends_on_product():
    for beta, gamma in ((2.0, 2.0), (2.0, 3.0), (1.5, 4.0)):
        std, _ = standardize_p2(standard_ncho_problem(beta, gamma, 0.0, 0.5))
        params = heun_like_parameters(std, 1.0)
        assert abs(params.alpha - 1.0 / np.sqrt(beta * gamma)) < 1e-12


def test_four_point_fuchs_relation():
    rng = np.random.default_rng(6)
    for _ in range(10):
        beta, gamma = rng.uniform(1.2, 3.0, size=2)
        if beta * gamma <= 1.05:
            continue
        eta = rng.uniform(-0.3, 0.3)
        mu = float(rng.choice([0.5, 1.5]))
        lam = float(rng.uniform(-2.0, 4.0))
        std, _ = standardize_p2(standard_ncho_problem(beta, gamma, eta, mu))
        params = heun_like_parameters(std, lam)
        assert params.n_singularities == 4
        assert abs(params.fuchs_sum() - 2.0) < 1e-10


def test_four_point_wrong_branch_error():
    rng = np.random.default_rng(14)
    prob = random_standard_problem(rng, force_b2=True)
    with pytest.raises(ContractViolation):
        heun_equation_4pt(prob, 0.5)


def test_four_point_branch_requires_real_b1():
    b = np.array([[0.2j, 0.0], [0.0, 0.0]])
    prob = NchoProblem(p=2, mu=1.0, A=np.eye(2), B=b, C0=np.eye(2))
    for build in (heun_like_parameters, heun_equation_4pt):
        with pytest.raises(ContractViolation, match="requires real b1"):
            build(prob, 0.3)


def test_five_point_route_independence_random():
    rng = np.random.default_rng(77)
    for _ in range(8):
        prob = random_standard_problem(rng)
        lam = float(rng.uniform(-1.0, 2.0))
        params = heun_like_parameters(prob, lam)
        assert params.n_singularities == 5
        assert abs(params.alpha) < 1.0
        for _ in range(12):
            z = rng.uniform(0.3, 1.8) * np.exp(2j * np.pi * rng.uniform())
            if min(abs(z - s) for s in (0, params.alpha, 1 / np.conj(params.alpha), params.epsilon)) < 0.1:
                continue
            p_ref, q_ref = eliminated_scalar_coefficients(prob, lam, z)
            assert abs(params.coefficient_p(z) - p_ref) < 1e-8 * max(1.0, abs(p_ref))
            assert abs(params.coefficient_q(z) - q_ref) < 1e-8 * max(1.0, abs(q_ref))


def test_four_point_route_independence_random():
    rng = np.random.default_rng(78)
    for _ in range(6):
        beta, gamma = rng.uniform(1.3, 2.5, size=2)
        std, _ = standardize_p2(standard_ncho_problem(beta, gamma, float(rng.uniform(-0.2, 0.2)), 1.5))
        lam = float(rng.uniform(-1.0, 2.0))
        params = heun_like_parameters(std, lam)
        for _ in range(12):
            z = rng.uniform(0.3, 1.8) * np.exp(2j * np.pi * rng.uniform())
            if min(abs(z - s) for s in (0, params.alpha, 1 / params.alpha)) < 0.1:
                continue
            p_ref, q_ref = eliminated_scalar_coefficients(std, lam, z)
            assert abs(params.coefficient_p(z) - p_ref) < 1e-8 * max(1.0, abs(p_ref))
            assert abs(params.coefficient_q(z) - q_ref) < 1e-8 * max(1.0, abs(q_ref))


def test_apparent_singularity_log_free():
    rng = np.random.default_rng(55)
    for _ in range(10):
        prob = random_standard_problem(rng)
        params = heun_like_parameters(prob, float(rng.uniform(-1.0, 2.0)))
        assert params.scheme["apparent"] == (0.0, 2.0)
        assert apparent_singularity_residual(params) < 1e-8


def test_kappa_sum_imaginary_part_logged():
    # open identity: Im(kappa0 + kappa1) observed to vanish for Hermitian data
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(20):
        prob = random_standard_problem(rng)
        params = heun_like_parameters(prob, float(rng.uniform(-1.0, 2.0)))
        worst = max(worst, abs((params.kappa0 + params.kappa1).imag))
    print(f"max |Im(kappa0 + kappa1)| over 20 random instances: {worst:.3e}")
    assert worst < 1e-6  # diagnostic guard, see notes in the test output


def test_five_point_fuchs_relation():
    rng = np.random.default_rng(67)
    for _ in range(10):
        prob = random_standard_problem(rng)
        params = heun_like_parameters(prob, float(rng.uniform(-1.0, 2.0)))
        assert abs(params.fuchs_sum() - 3.0) < 1e-9


def test_coalescent_case_reported():
    # c3 = -mu/2: the apparent point merges with infinity, which leaves the
    # 4 points of the scheme, and the exponents there must match the scalar
    # equation's Frobenius roots
    rng = np.random.default_rng(68)
    for _ in range(4):
        prob = random_standard_problem(rng)
        lam = float(rng.uniform(-1.0, 2.0))
        c0 = prob.C0.copy()
        c0[1, 1] = -0.5 * (prob.mu + lam)
        prob = prob.with_matrices(C0=c0)
        params = heun_like_parameters(prob, lam)
        assert params.coalescent
        assert params.epsilon is None and params.q2 is None
        assert params.n_singularities == len(params.scheme) == 4
        assert abs(params.fuchs_sum() - 2.0) < 1e-9
        assert scheme_vs_frobenius(prob, lam, params) < 1e-8
        with pytest.raises(ContractViolation, match="b2 != 0"):
            heun_equation_4pt(prob, lam)
        for _ in range(12):
            z = rng.uniform(0.3, 1.8) * np.exp(2j * np.pi * rng.uniform())
            if min(abs(z - s) for s in (0, params.alpha, 1 / np.conj(params.alpha))) < 0.1:
                continue
            p_ref, q_ref = eliminated_scalar_coefficients(prob, lam, z)
            assert abs(params.coefficient_p(z) - p_ref) < 1e-8 * max(1.0, abs(p_ref))
            assert abs(params.coefficient_q(z) - q_ref) < 1e-8 * max(1.0, abs(q_ref))


def test_confluent_limit_decoupled():
    data = confluent_limit_params(0.0, 1.3, 0.4, 0.0)
    assert data.kappa_t_plus == data.kappa_t_minus == 1.3
    assert abs(data.q_t_plus - (1.3**2 - 0.4**2)) < 1e-15


def test_confluence_residual_dyadic_decay():
    mus = [100.0, 200.0, 400.0, 800.0]
    res = [confluence_residuals(0.3, 0.8, 0.5, 0.2, mu) for mu in mus]
    for key in ("kappa_plus", "kappa_minus", "q_plus", "q_minus"):
        vals = [r[key] for r in res]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert 0.4 < lo / hi < 0.6


def test_rabi_classification():
    sigma1 = np.array([[0, 1], [1, 0]], dtype=complex)
    sigma3 = np.diag([1.0, -1.0]).astype(complex)
    eye = np.eye(2)
    lam = 0.7
    out = rabi_jc_map(eye, 0.3 * sigma1, -0.5 * sigma3 + lam * eye)
    assert out.kind == "asymmetric-rabi"
    assert (out.params.omega, out.params.g_coupling, out.params.Delta) == (1.0, 0.3, 0.5)
    assert out.params.eps_bias == 0.0 and out.params.lam == lam

    lower = np.array([[0.0, 0.0], [1.0, 0.0]])
    out = rabi_jc_map(eye, 0.3 * lower, -0.5 * sigma3 + lam * eye)
    assert out.kind == "jaynes-cummings"
    assert out.params.g_coupling == 0.3

    out = rabi_jc_map(eye, np.zeros((2, 2)), lam * eye)
    assert out.kind == "generic"

    with pytest.raises(ContractViolation):
        rabi_jc_map(np.diag([1.0, 2.0]), 0.3 * sigma1, lam * eye)


def test_quantization_check():
    std, _ = standardize_p2(standard_ncho_problem(2.0, 2.0, 0.0, 0.5))
    params = heun_like_parameters(std, 2.0 * SQ3)
    rep = quantization_check(params)
    # values {7/4, 3/4} are not positive integers
    assert not rep.passed
    assert abs(rep.values[0] - 1.75) < 1e-9
    assert abs(rep.values[1] - 0.75) < 1e-9
    assert min(rep.distances) > 0.2

    params.kappa0 = params.mu / 2.0
    params.kappa1 = 1.0 + params.mu / 2.0
    rep = quantization_check(params)
    assert rep.passed and rep.nearest == (1, 1)


def test_quantization_smoke_random():
    rng = np.random.default_rng(81)
    for _ in range(10):
        prob = random_standard_problem(rng)
        params = heun_like_parameters(prob, float(rng.uniform(-1.0, 2.0)))
        rep = quantization_check(params)
        assert all(np.isfinite(d) for d in rep.distances)
