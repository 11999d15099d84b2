import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, NOT_POSITIVE_FIXTURES, random_hermitian, random_problem

from nchodisk import (
    ContractViolation,
    DegeneratePencil,
    NchoProblem,
    PositivityError,
    SchemaError,
    SimplePoleViolation,
    a123_from_ab,
    ab_from_a123,
    connection_matrix,
    mu_from_harmonic,
    pencil_kernel,
    positivity_margin,
    standard_ncho_problem,
    standardize_p2,
    verify_pencil_identities,
)
from nchodisk.cli import parse_problem
from nchodisk import pencil
from nchodisk.pencil import PencilAnalysis, _inner_pole_radius, _reconstruction_residual
from nchodisk.pencil import pole_angle, pole_order_key

SQ3 = np.sqrt(3.0)


def test_mu_from_harmonic():
    assert mu_from_harmonic(1, 0) == 0.5
    assert mu_from_harmonic(1, 1) == 1.5
    assert mu_from_harmonic(3, 2) == 3.5


def test_ab_from_a123_identity_case():
    a, b = ab_from_a123(0.5 * np.eye(2), np.zeros((2, 2)), 0.5 * np.eye(2))
    assert np.allclose(a, np.eye(2))
    assert np.max(np.abs(b)) < 1e-15


def test_ab_round_trip_on_classical_family():
    prob = standard_ncho_problem(2.0, 3.0, 0.1, 0.5)
    a1, a2, a3 = a123_from_ab(prob.A, prob.B)
    a, b = ab_from_a123(a1, a2, a3)
    assert np.max(np.abs(a - prob.A)) < 1e-12
    assert np.max(np.abs(b - prob.B)) < 1e-12


def test_ab_round_trip_random():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a1, a2, a3 = (random_hermitian(rng, 3) for _ in range(3))
        a, b = ab_from_a123(a1, a2, a3)
        r1, r2, r3 = a123_from_ab(a, b)
        for x, y in ((a1, r1), (a2, r2), (a3, r3)):
            assert np.max(np.abs(x - y)) < 1e-12


def test_ab_rejects_non_hermitian():
    with pytest.raises(ContractViolation):
        ab_from_a123([[0, 1], [0, 0]], np.zeros((2, 2)), np.eye(2))


def test_decompose_p1_quarter_pencil():
    prob = NchoProblem(p=1, mu=0.5, A=[[1.0]], B=[[0.25]], C0=[[0.0]])
    dec = prob.analysis.decomposition
    assert not dec.zero_is_pole
    assert abs(dec.poles[0] - (-2.0 - SQ3)) < 1e-10
    assert abs(dec.poles[1] - (-2.0 + SQ3)) < 1e-10
    assert abs(dec.residues[1][0, 0] - 2.0 / SQ3) < 1e-10
    assert abs(dec.residues[0][0, 0] + 2.0 / SQ3) < 1e-10
    assert verify_pencil_identities(prob).reconstruction_residual < 1e-8


def test_decompose_linear_pencil():
    prob = NchoProblem(p=1, mu=0.5, A=[[1.0]], B=[[0.0]], C0=[[0.0]])
    dec = prob.analysis.decomposition
    assert dec.zero_is_pole
    assert dec.poles == [0.0]
    assert abs(dec.residues[0][0, 0] - 1.0) < 1e-12


def test_decompose_standard_form_pole_layout():
    b1, b2 = 0.2 * np.exp(0.3j), 0.3
    b = np.array([[b1, b2], [0.0, 0.0]])
    dec = PencilAnalysis(np.eye(2), b).decomposition
    assert dec.zero_is_pole
    inner = [al for al in dec.poles if al != 0 and abs(al) < 1]
    outer = [al for al in dec.poles if abs(al) > 1]
    assert len(inner) == 1 and len(outer) == 1
    assert abs(outer[0] - 1.0 / np.conj(inner[0])) < 1e-10


def test_decompose_rejects_repeated_root():
    # B = [[0, b2], [0, 0]] gives det = (1 - |b2|^2) z^2, a double root
    b = np.array([[0.0, 0.3], [0.0, 0.0]])
    with pytest.raises(SimplePoleViolation):
        PencilAnalysis(np.eye(2), b).decomposition


def test_decompose_rejects_singular_pencil():
    # Q(z) = diag(z^2/2 + z, 0) is singular at every z
    with pytest.raises(DegeneratePencil):
        PencilAnalysis(np.diag([1.0, 0.0]), np.diag([0.5, 0.0])).decomposition


def test_decompose_repeated_root_with_full_kernel():
    # det Q = (z^2/4 + z + 1/4)^2: each double root is an order-1 pole of the
    # inverse whose kernel is all of C^2
    prob = NchoProblem(p=2, mu=0.5, A=np.eye(2), B=0.25 * np.eye(2), C0=np.zeros((2, 2)))
    dec = prob.analysis.decomposition
    assert len(dec.poles) == 2
    assert abs(dec.poles[0] - (-2.0 - SQ3)) < 1e-12
    assert abs(dec.poles[1] - (-2.0 + SQ3)) < 1e-12
    assert dec.ranks == [2, 2]
    report = verify_pencil_identities(prob)
    assert report.reconstruction_residual < 1e-12
    assert report.all_passed, [(c.name, c.residual) for c in report.checks]


def test_b_zero_has_one_pole_of_rank_p():
    # Q(z) = A z: the one finite root 0 has multiplicity p, infinity the other p
    prob = parse_problem(str(FIXTURES / "degenerate_b0.json"))[0]
    dec = prob.analysis.decomposition
    assert dec.poles == [0.0] and dec.ranks == [prob.p] == [2]


def test_decompose_rejects_nonzero_jordan_double_root():
    # det Q = (z^2/4 + z + 1/4)^2 again, but ker Q(alpha) is one-dimensional:
    # each double root is an order-2 pole of the inverse
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(SimplePoleViolation):
        PencilAnalysis(a, 0.25 * np.eye(2)).decomposition


def _laurent_limit_matches(a, b, dec, eps=1e-6):
    # independent residue: eps * Q(alpha + eps)^-1 -> P_j as eps -> 0, taken
    # symmetrically in eps so the O(eps / pole gap) term cancels
    def inv_q(z):
        return np.linalg.inv(b * z * z + a * z + b.conj().T)

    for al, pj in zip(dec.poles, dec.residues):
        limit = 0.5 * eps * (inv_q(al + eps) - inv_q(al - eps))
        assert np.max(np.abs(limit - pj)) < 1e-5 * np.max(np.abs(pj)), al


def test_residues_match_laurent_limit_random():
    rng = np.random.default_rng(77)
    for k in range(9):
        prob = random_problem(rng, p=1 + k % 3)
        _laurent_limit_matches(prob.A, prob.B, prob.analysis.decomposition)


def test_full_kernel_residue_matches_laurent_limit():
    a, b = np.eye(2), 0.25 * np.eye(2)
    _laurent_limit_matches(a, b, PencilAnalysis(a, b).decomposition)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decompose_p9_reconstructs(seed):
    rng = np.random.default_rng(seed)
    a = np.eye(9) + 0.25 * random_hermitian(rng, 9)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    prob = NchoProblem(p=9, mu=1.0, A=a, B=0.3 * np.linalg.qr(g)[0], C0=np.zeros((9, 9)))
    dec = prob.analysis.decomposition
    assert len(dec.poles) == 18 and type(dec.zero_is_pole) is bool
    assert verify_pencil_identities(prob).reconstruction_residual < 1e-10


@pytest.mark.parametrize("p", [5, 6, 8, 12])
def test_identities_random_large_p(p):
    # pole moduli span about 5e-3 to 200, so the coefficients of det Q span
    # many orders of magnitude
    for seed in range(8):
        rng = np.random.default_rng(seed)
        a = np.eye(p) + 0.25 * random_hermitian(rng, p)
        b = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        b *= 0.15 * np.linalg.eigvalsh(a)[0] / np.linalg.norm(b, 2)
        prob = NchoProblem(p=p, mu=1.0, A=a, B=b, C0=np.zeros((p, p)))
        dec = prob.analysis.decomposition
        assert dec.zero_is_pole is False and len(dec.poles) == 2 * p
        assert dec.ranks == [pencil_kernel(a, b, al)[1].shape[1] for al in dec.poles]
        assert sum(dec.ranks) == 2 * p - (p - np.linalg.matrix_rank(b))
        report = verify_pencil_identities(prob)
        assert report.all_passed, [(c.name, c.residual) for c in report.checks]


@pytest.mark.parametrize("p", [5, 6, 7, 8])
def test_sampler_draws_large_p_with_an_explicit_pole_gap(p):
    # the p inner poles crowd into a disk of radius about 0.2, so the default
    # gap of 0.05 rejects every draw at p >= 5; 5e-3 keeps them apart
    for seed in range(6):
        prob = random_problem(np.random.default_rng(seed), p, min_pole_gap=5e-3)
        dec = prob.analysis.decomposition
        assert sum(dec.ranks) == 2 * p - (p - np.linalg.matrix_rank(prob.B))
        report = verify_pencil_identities(prob)
        assert report.all_passed, [(c.name, c.residual) for c in report.checks]


def test_pole_order_ignores_imaginary_round_off():
    r = 2.0 - SQ3
    assert pole_order_key(-r + 1e-16j) == pole_order_key(-r - 1e-16j)
    assert sorted([-r - 1e-16j, r + 1e-16j], key=pole_order_key)[0] == r + 1e-16j
    assert pole_angle(-0.5 + 1e-16j) == pole_angle(-0.5 - 1e-16j) == np.pi


def test_pencil_kernel_dimensions():
    # Q(alpha) = 0 at the full-kernel double root, rank one at a simple root
    al = -2.0 + SQ3
    y, x = pencil_kernel(np.eye(2), 0.25 * np.eye(2), al)
    assert y.shape == x.shape == (2, 2)
    b = np.array([[0.25, 0.0], [0.0, 0.5]])
    y, x = pencil_kernel(np.eye(2), b, al)
    q = b * al * al + np.eye(2) * al + b.conj().T
    assert x.shape == (2, 1) and np.max(np.abs(q @ x)) < 1e-12
    assert np.max(np.abs(y.conj().T @ q)) < 1e-12
    assert pencil_kernel(np.eye(2), b, 0.5)[1].shape == (2, 0)


def test_identities_p1_quarter():
    prob = NchoProblem(p=1, mu=0.5, A=[[1.0]], B=[[0.25]], C0=[[0.0]])
    report = verify_pencil_identities(prob)
    assert report.all_passed
    assert report.residual("sums_invertible_b") < 1e-12


def test_identities_linear_branch():
    prob = NchoProblem(p=1, mu=0.5, A=[[1.0]], B=[[0.0]], C0=[[0.0]])
    report = verify_pencil_identities(prob)
    assert report.all_passed
    assert report.residual("sums_singular_b") < 1e-12


def test_identities_random_instances():
    rng = np.random.default_rng(2024)
    for k in range(30):
        prob = random_problem(rng, p=1 + k % 3)
        report = verify_pencil_identities(prob)
        assert report.all_passed, [
            (c.name, c.residual) for c in report.checks if not c.passed
        ]
        assert max(c.residual for c in report.checks) < 1e-9


def test_positivity_closed_form_example():
    prob = NchoProblem(
        p=2,
        mu=0.5,
        A=np.diag([2.0, 2.0]),
        B=0.5 * np.array([[0, 1j], [-1j, 0]]),
        C0=np.zeros((2, 2)),
    )
    cert = positivity_margin(prob)
    assert abs(cert.margin - 1.0) < 1e-12
    assert cert.argmin_phi in (0.0, np.pi) or abs(np.cos(cert.argmin_phi)) > 1 - 1e-12
    assert cert.certified


def test_positivity_constant_pencil():
    prob = NchoProblem(p=2, mu=1.0, A=np.eye(2), B=np.zeros((2, 2)), C0=np.zeros((2, 2)))
    cert = positivity_margin(prob)
    assert abs(cert.margin - 1.0) < 1e-14
    assert cert.lipschitz_bound == 0.0


def test_positivity_gauge_invariance():
    rng = np.random.default_rng(9)
    prob = random_problem(rng, p=2)
    u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    from nchodisk import gauge_problem

    cert0 = positivity_margin(prob)
    cert1 = positivity_margin(gauge_problem(u, prob))
    assert abs(cert0.margin - cert1.margin) < 1e-10


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("grid", [256, 4096])
def test_positivity_matches_pointwise_eigvalsh(p, grid):
    rng = np.random.default_rng(10 * p + grid)
    prob = random_problem(rng, p=p)
    best, best_phi = np.inf, 0.0
    for phi in 2.0 * np.pi * np.arange(grid) / grid:
        z = np.exp(1j * phi)
        w = np.linalg.eigvalsh(prob.B * z + prob.A + prob.B.conj().T * np.conj(z))
        if w[0] < best:
            best, best_phi = float(w[0]), float(phi)
    cert = positivity_margin(prob, grid)
    assert (cert.margin, cert.argmin_phi) == (best, best_phi)


@pytest.mark.parametrize("grid", [63, 65537, 10**20])
def test_positivity_refuses_a_grid_outside_its_range(monkeypatch, grid):
    # refused before any circle point is solved or any grid array is made
    prob = random_problem(np.random.default_rng(3), p=2)
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    monkeypatch.setattr(np, "full", None)
    with pytest.raises(ContractViolation, match="grid_size must be from 64 to 65536"):
        positivity_margin(prob, grid)


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_verify_refuses_a_negative_or_non_finite_tol(tol):
    prob = random_problem(np.random.default_rng(4), p=2)
    with pytest.raises(ContractViolation, match="tol must be non-negative and finite"):
        verify_pencil_identities(prob, tol=tol)


def _full_grid_certificate(prob, grid):
    """(margin, argmin_phi, certified_margin) of solving every grid point in
    one eigvalsh stack, and the least eigenvalue at every point."""
    phis = 2.0 * np.pi * np.arange(grid) / grid
    z = np.exp(1j * phis)[:, None, None]
    least = np.linalg.eigvalsh(prob.B * z + prob.A + prob.B.conj().T * np.conj(z))[:, 0]
    i = int(np.argmin(least))
    lip = 2.0 * np.pi * float(np.linalg.norm(prob.B, 2)) / grid
    return (float(least[i]), float(phis[i]), float(least[i]) - lip), least


def _closed_form_tie_problem():
    # least eigenvalue 2 - |cos phi|: the minimum 1 is attained at phi = 0 and pi
    return NchoProblem(
        p=2,
        mu=0.5,
        A=np.diag([2.0, 2.0]),
        B=0.5 * np.array([[0, 1j], [-1j, 0]]),
        C0=np.zeros((2, 2)),
    )


def _exactness_problem(kind, p, grid, rng):
    a = random_hermitian(rng, p)
    b = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    if kind == "b_zero":
        b = np.zeros((p, p))
    elif kind == "tie":
        return _closed_form_tie_problem()
    prob = NchoProblem(p=p, mu=1.0, A=a, B=b, C0=np.zeros((p, p)))
    target = {"admissible": rng.uniform(0.05, 1.0), "boundary": 1e-6, "negative": -rng.uniform(0.01, 0.5)}
    if kind in target:
        # shifting A by a multiple of I shifts every grid value alike
        shift = _full_grid_certificate(prob, grid)[0][0] - target[kind]
        prob = prob.with_matrices(A=a - shift * np.eye(p))
    return prob


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    p=st.integers(1, 6),
    grid=st.sampled_from([64, 65, 100, 257, 1000, 4096]),
    kind=st.sampled_from(["admissible", "boundary", "negative", "b_zero", "tie"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_positivity_equals_full_grid_bit_for_bit(p, grid, kind, seed):
    prob = _exactness_problem(kind, p, grid, np.random.default_rng(seed))
    cert = positivity_margin(prob, grid)
    expected = _full_grid_certificate(prob, grid)[0]
    assert (cert.margin, cert.argmin_phi, cert.certified_margin) == expected
    if kind == "boundary":
        assert abs(cert.margin - 1e-6) < 1e-9
    if kind == "negative":
        assert not cert.certified


def _weyl_rule_count(prob, grid):
    """Points the two-pass rule of positivity_margin solves, decided one
    point at a time from the full-grid values."""
    least = _full_grid_certificate(prob, grid)[1]
    step = max(1, grid // 64)
    bnorm = float(np.linalg.norm(prob.B, 2))
    reach = 4.0 * bnorm * np.sin(np.pi * np.arange(step + 1) / grid)
    slack = 1024.0 * np.finfo(float).eps * (float(np.linalg.norm(prob.A)) + 2.0 * bnorm)
    coarse_min = min(least[::step])
    count = math.ceil(grid / step)
    for i in range(grid):
        lo = i - i % step
        if i == lo:
            continue
        hi = min(lo + step, grid)  # point grid is point 0
        bound = max(least[lo] - reach[i - lo], least[hi % grid] - reach[hi - i])
        count += bound <= coarse_min + slack
    return count


def _fixture_problems():
    """Every fixture that parses, by name."""
    probs = {}
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            probs[path.stem] = parse_problem(str(path))[0]
        except (ContractViolation, SchemaError):
            continue
    return probs


def _work_count_problems():
    probs = _fixture_problems()
    eye, zero = np.eye(2), np.zeros((2, 2))
    probs["b_zero"] = NchoProblem(p=2, mu=1.0, A=eye, B=zero, C0=zero)
    # circle values that differ only by round-off: the slack keeps them all
    probs["round_off_b"] = NchoProblem(p=2, mu=1.0, A=eye, B=1e-16 * np.ones((2, 2)), C0=zero)
    # minimum at the last coarse point of grid 4096: the points after it are
    # pruned only by their bound from point 0
    theta = np.pi - 2.0 * np.pi * 63 / 64
    probs["min_before_wrap"] = NchoProblem(
        p=1, mu=1.0, A=[[1.0]], B=[[0.25 * np.exp(1j * theta)]], C0=[[0.0]]
    )
    return probs


@pytest.mark.parametrize("name", sorted(_work_count_problems()))
def test_positivity_solves_only_points_the_weyl_bound_keeps(monkeypatch, name):
    prob = _work_count_problems()[name]
    solved = []
    real = np.linalg.eigvalsh

    def counted(m):
        solved.append(m.shape[0])
        return real(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    positivity_margin(prob, 64)
    coarse = sum(solved)
    solved.clear()
    positivity_margin(prob, 4096)
    monkeypatch.undo()
    if not np.any(prob.B):
        # every circle value is the one matrix A
        assert coarse == sum(solved) == 1
        return
    assert coarse == 64
    assert sum(solved) == _weyl_rule_count(prob, 4096)
    if np.linalg.norm(prob.B, 2) < 1e-12:
        # every circle value ties with the minimum up to round-off
        assert sum(solved) == 4096
    else:
        assert sum(solved) <= 1024


@pytest.mark.parametrize("grid", [256, 4096])
def test_positivity_with_b_zero_solves_one_matrix_bit_for_bit(monkeypatch, grid):
    prob = parse_problem(str(FIXTURES / "degenerate_b0.json"))[0]
    expected = _full_grid_certificate(prob, grid)[0]
    solved = []
    real = np.linalg.eigvalsh

    def counted(m):
        solved.append(m.shape[0])
        return real(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    cert = positivity_margin(prob, grid)
    monkeypatch.undo()
    assert solved == [1]
    assert (cert.margin, cert.argmin_phi, cert.certified_margin) == expected
    assert (cert.argmin_phi, cert.lipschitz_bound) == (0.0, 0.0)


def _radius(prob):
    """The positivity rule applied to prob's analysis."""
    return _inner_pole_radius(prob.analysis)


def test_inner_pole_radius_is_the_largest_inner_pole(monkeypatch):
    rng = np.random.default_rng(21)
    randoms = [random_problem(rng, p) for p in (1, 2, 3, 4) for _ in range(3)]
    # one QZ of the linearization, the problem's analysis, serves both the
    # radius and the decomposition
    qz = []
    real = pencil._linearization_eigvals
    monkeypatch.setattr(pencil, "_linearization_eigvals", lambda a, b: qz.append(1) or real(a, b))
    fixtures = _fixture_problems()
    for name in NOT_POSITIVE_FIXTURES:
        with pytest.raises(PositivityError, match="sits on the unit circle"):
            _radius(fixtures.pop(name))
    for prob in [*fixtures.values(), *randoms]:
        prob = dataclasses.replace(prob)  # the sampler has analysed the randoms
        qz.clear()
        radius = _radius(prob)
        inner = [abs(al) for al in prob.analysis.decomposition.poles if abs(al) < 1.0]
        assert len(qz) == 1
        assert abs(radius - max(inner)) <= 1e-12
    b_zero = parse_problem(str(FIXTURES / "degenerate_b0.json"))[0]
    assert _radius(b_zero) == 0.0


def test_positivity_rule_refuses_exactly_the_problems_not_positive_on_the_circle():
    # M(phi) = e^{-i phi} Q(e^{i phi}): M > 0 on the circle iff no pencil root
    # is unimodular and M(0) = A + B + B' > 0, decided by one rule for the
    # truncation, the connection plan and standardize_p2
    def p1(b):
        return NchoProblem(p=1, mu=1.0, A=[[1.0]], B=[[b]], C0=[[0.0]])

    # b = -2 fails M(0) too
    for b in (0.6, 0.7, 0.7j, -2.0):
        for solve in (_radius, lambda prob: connection_matrix(prob, 1.0)):
            with pytest.raises(PositivityError, match="sits on the unit circle"):
                solve(p1(b))
    # b = 0.5: the Jordan double root -1, which QZ splits by about 1e-8; the
    # rule runs before any decomposition, which would call it a repeated root
    jordan = parse_problem(str(FIXTURES / "jordan_circle_p2.json"))[0]
    for prob, solve in (
        (p1(0.5), _radius),
        (p1(0.5), lambda prob: connection_matrix(prob, 1.0)),
        (jordan, standardize_p2),
    ):
        with pytest.raises(PositivityError, match=r"pencil pole \(-1\+0j\) sits on the unit circle"):
            solve(prob)
    eye = np.eye(2)
    unimodular = NchoProblem(p=2, mu=1.0, A=eye, B=np.diag([0.7, 0.1]), C0=0 * eye)
    with pytest.raises(PositivityError, match="sits on the unit circle"):
        standardize_p2(unimodular)
    for prob in (
        NchoProblem(p=2, mu=1.0, A=-eye, B=0.1 * eye, C0=0 * eye),
        NchoProblem(p=2, mu=1.0, A=np.diag([1.0, -1.0]), B=0 * eye, C0=0 * eye),
    ):
        for solve in (_radius, standardize_p2, lambda x: connection_matrix(x, 1.0)):
            with pytest.raises(PositivityError, match=r"A \+ B \+ B' is not positive definite"):
                solve(prob)
    # positive, with a root 2.8e-5 from the circle, and the ladder at
    # beta gamma = 1.0001, whose inner poles lie 0.0099 from it
    assert 1.0 - 3e-5 < _radius(p1(0.5 - 1e-10)) < 1.0
    assert 0.98 < _radius(standard_ncho_problem(2.0, 1.0001 / 2.0, 0.1, 1.5)) < 0.995


def _pointwise_reconstruction_residual(a, b, poles, residues, rng):
    bh, eye = b.conj().T, np.eye(a.shape[0])
    samples, residual = 0, 0.0
    while samples < 16:
        z = rng.uniform(0.2, 2.5) * np.exp(2j * np.pi * rng.uniform())
        if any(abs(z - al) < 0.1 for al in poles):
            continue
        samples += 1
        recon = sum(pj / (z - al) for al, pj in zip(poles, residues))
        residual = max(residual, float(np.max(np.abs(recon @ (b * z * z + a * z + bh) - eye))))
    return residual


def _reconstruction_problems(name):
    if name.startswith("random_p"):
        rng = np.random.default_rng(12)
        return [random_problem(rng, int(name[-1])) for _ in range(4)]
    return [parse_problem(str(FIXTURES / f"{name}.json"))[0]]


@pytest.mark.parametrize(
    "name",
    ["random_p1", "random_p2", "random_p3", "random_p4"]
    + ["classical_eta0", "classical_eta01_mu15", "classical_mu_nk", "degenerate_b0"]
    + ["p1_a123", "p1_quarter"],
)
def test_reconstruction_residual_matches_pointwise_loop(name):
    for prob in _reconstruction_problems(name):
        dec = prob.analysis.decomposition
        for seed in (0, 1, 2):
            rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _reconstruction_residual(prob.A, prob.B, dec.poles, dec.residues, rng)
            ref = _pointwise_reconstruction_residual(prob.A, prob.B, dec.poles, dec.residues, rng_ref)
            assert got == ref
            assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_degree_bound_and_detb():
    rng = np.random.default_rng(11)
    for k in range(10):
        prob = random_problem(rng, p=2)
        dec = prob.analysis.decomposition
        # finite poles with multiplicity: a pole counts rank P_j times
        degree = sum(np.linalg.matrix_rank(pj, rtol=1e-8) for pj in dec.residues)
        assert degree <= 2 * prob.p
        assert (degree < 2 * prob.p) == dec.zero_is_pole


def test_problem_validation():
    with pytest.raises(ContractViolation):
        NchoProblem(p=1, mu=-1.0, A=[[1]], B=[[0]], C0=[[0]])
    with pytest.raises(ContractViolation):
        NchoProblem(p=2, mu=1.0, A=[[0, 1], [0, 0]], B=np.zeros((2, 2)), C0=np.zeros((2, 2)))
    with pytest.raises(ContractViolation):
        NchoProblem(p=2, mu=1.0, A=np.eye(3), B=np.zeros((2, 2)), C0=np.zeros((2, 2)))
