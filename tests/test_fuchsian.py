import numpy as np

from conftest import FIXTURES, random_problem

from nchodisk import (
    NchoProblem,
    Su11Element,
    build_fuchsian,
    exponents_at,
    mobius_apply,
    residue_at_infinity_formula,
    standard_ncho_problem,
    transform_fuchsian,
)

SQ3 = np.sqrt(3.0)


def test_p1_quarter_residues_at_zero_lambda():
    prob = NchoProblem(p=1, mu=0.5, A=[[1.0]], B=[[0.25]], C0=[[0.0]])
    system = build_fuchsian(prob, 0.0)
    inner = system.pole_index(-2.0 + SQ3)
    outer = system.pole_index(-2.0 - SQ3)
    assert abs(system.residues[inner][0, 0] + 0.25) < 1e-12
    assert abs(system.residues[outer][0, 0] + 0.25) < 1e-12
    assert abs(system.residue_at_infinity[0, 0] - 0.5) < 1e-12


def test_p1_inner_exponent_linear_in_lambda():
    prob = NchoProblem(p=1, mu=0.5, A=[[1.0]], B=[[0.25]], C0=[[0.0]])
    for lam in (0.0, 0.7, 2.3):
        system = build_fuchsian(prob, lam)
        j = system.pole_index(-2.0 + SQ3)
        rho = system.residues[j][0, 0]
        assert abs(rho - (lam / SQ3 - 0.25)) < 1e-12


def test_ladder_diagonal_case():
    prob = NchoProblem(p=2, mu=1.0, A=np.eye(2), B=np.zeros((2, 2)), C0=np.zeros((2, 2)))
    system = build_fuchsian(prob, 0.4)
    assert system.singular_points == [0.0]
    assert np.max(np.abs(sum(system.residues) + system.residue_at_infinity)) < 1e-14


def test_sum_rule_and_infinity_formula_random():
    rng = np.random.default_rng(99)
    for k in range(20):
        prob = random_problem(rng, p=1 + k % 3)
        for lam in rng.uniform(-2.0, 3.0, size=3):
            system = build_fuchsian(prob, float(lam))
            total = sum(system.residues) + system.residue_at_infinity
            assert np.max(np.abs(total)) < 1e-10
            formula = residue_at_infinity_formula(system)
            assert np.max(np.abs(system.residue_at_infinity - formula)) < 1e-10


def test_pole_pairing_inherited():
    rng = np.random.default_rng(4)
    prob = random_problem(rng, p=2)
    system = build_fuchsian(prob, 0.9)
    for al in system.singular_points:
        if al == 0:
            continue
        target = 1.0 / np.conj(al)
        assert min(abs(target - x) for x in system.singular_points) < 1e-8


def test_exponent_structure_random():
    rng = np.random.default_rng(13)
    for k in range(12):
        prob = random_problem(rng, p=1 + k % 3)
        lam = float(rng.uniform(-1.0, 2.0)) + float(rng.uniform(-0.3, 0.3)) * 1j
        system = build_fuchsian(prob, lam)
        for j in range(len(system.singular_points)):
            rep = exponents_at(system, j)
            assert rep.rank_bound_ok
            assert rep.shift_residual < 1e-8


def test_exponents_at_rank_one_pole_are_zero_and_trace():
    from nchodisk.cli import parse_problem

    prob, _ = parse_problem(str(FIXTURES / "classical_eta01_mu15.json"))
    system = build_fuchsian(prob, 1.7)
    ranks = [np.linalg.matrix_rank(pj, rtol=1e-8) for pj in prob.decomposition.residues]
    assert ranks.count(1) == len(ranks) == 4
    for j, r in enumerate(system.residues):
        vals = exponents_at(system, j).values
        expect = sorted([0.0, complex(np.trace(r))], key=lambda z: (z.real, z.imag))
        assert np.max(np.abs(vals - expect)) < 1e-12 * max(1.0, abs(np.trace(r)))


def test_zero_residue_matrix_gives_zero_exponents():
    prob = NchoProblem(p=1, mu=0.5, A=[[1.0]], B=[[0.25]], C0=[[0.0]])
    system = build_fuchsian(prob, 0.0)
    system.residues[0] = np.zeros((1, 1), dtype=complex)
    rep = exponents_at(system, 0)
    assert np.allclose(rep.values, 0.0)
    assert rep.residue_rank == 0


def test_transform_identity():
    prob = standard_ncho_problem(2.0, 2.0, 0.1, 0.5)
    system = build_fuchsian(prob, 1.1)
    moved = transform_fuchsian(Su11Element.identity(), system)
    assert len(moved.singular_points) == len(system.singular_points)
    for al, r in zip(system.singular_points, system.residues):
        j = moved.pole_index(al)
        assert np.max(np.abs(moved.residues[j] - r)) < 1e-12


def test_transform_moves_singular_points_by_mobius():
    # the moved system has its singular points at the Möbius images of the
    # source poles, with the source residue at each image (det B != 0 here,
    # so infinity is not a pole)
    rng = np.random.default_rng(44)
    for _ in range(6):
        prob = random_problem(rng, p=2)
        lam = float(rng.uniform(-1.0, 2.0))
        system = build_fuchsian(prob, lam)
        assert not prob.decomposition.zero_is_pole
        b = 0.4 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        a = np.sqrt(1 + abs(b) ** 2) * np.exp(2j * np.pi * rng.uniform())
        g = Su11Element(a, b)
        moved = transform_fuchsian(g, system)
        assert len(moved.singular_points) == len(system.singular_points)
        for al, r in zip(system.singular_points, system.residues):
            w = mobius_apply(g, al)
            j = moved.pole_index(w)
            assert abs(moved.singular_points[j] - w) <= 1e-10 * max(1.0, abs(w))
            assert np.max(np.abs(moved.residues[j] - r)) < 1e-9
        total = sum(moved.residues) + moved.residue_at_infinity
        assert np.max(np.abs(total)) < 1e-9


def test_boost_moves_p1_poles():
    prob = NchoProblem(p=1, mu=0.5, A=[[1.0]], B=[[0.25]], C0=[[0.0]])
    system = build_fuchsian(prob, 0.3)
    g = Su11Element.boost(0.3)
    moved = transform_fuchsian(g, system)
    for al, r in zip(system.singular_points, system.residues):
        img = mobius_apply(g, al)
        j = moved.pole_index(img)
        assert np.max(np.abs(moved.residues[j] - r)) < 1e-10


def test_system_exponents_match_scalar_table_on_standard_form():
    from nchodisk import heun_like_parameters, standardize_p2

    std, _ = standardize_p2(standard_ncho_problem(2.0, 3.0, 0.2, 1.5))
    lam = 1.9
    params = heun_like_parameters(std, lam)
    system = build_fuchsian(std, lam)
    j0 = system.pole_index(0.0)
    j_in = system.pole_index(params.alpha)
    exps0 = exponents_at(system, j0).values
    rho0 = exps0[int(np.argmax(np.abs(exps0)))]
    # scalar table at the origin carries the extra +1 on the nontrivial root
    assert abs((1.0 + rho0) - params.scheme["zero"][1]) < 1e-8
    exps_in = exponents_at(system, j_in).values
    rho_in = exps_in[int(np.argmax(np.abs(exps_in)))]
    assert abs(rho_in - params.scheme["inner"][1]) < 1e-8
