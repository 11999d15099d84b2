import numpy as np
import pytest

from conftest import FIXTURES, random_problem

from nchodisk import (
    INFINITY,
    ContractViolation,
    NchoProblem,
    NotGenericError,
    Su11Element,
    apply_transcript,
    chordal_distance,
    gauge_problem,
    inverse_transcript,
    is_infinity,
    mobius_apply,
    normalize_problem,
    positivity_margin,
    standard_ncho_problem,
    standardize_p2,
    transform_ab,
    transform_problem,
)
from nchodisk.cli import parse_problem


def random_group_element(rng, bmax=0.5):
    b = bmax * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
    a = np.sqrt(1.0 + abs(b) ** 2) * np.exp(2j * np.pi * rng.uniform())
    return Su11Element(a, b)


def test_group_invariants():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = random_group_element(rng)
        assert abs(abs(g.a) ** 2 - abs(g.b) ** 2 - 1.0) < 1e-12
        h = random_group_element(rng)
        gh = g.compose(h)
        assert abs(abs(gh.a) ** 2 - abs(gh.b) ** 2 - 1.0) < 1e-12
        gi = g.compose(g.inverse())
        assert abs(gi.a - 1.0) < 1e-12 and abs(gi.b) < 1e-12


def test_group_rejects_bad_normalization():
    with pytest.raises(ContractViolation):
        Su11Element(1.0, 1.0)


@pytest.mark.parametrize(
    "a,b", [(np.nan, 0.0), (1.0, np.nan), (complex(np.nan, 1.0), 0.0), (np.inf, np.inf)]
)
def test_group_rejects_entries_that_are_not_finite(a, b):
    # a comparison with nan is false, so a check written as > would pass them
    with pytest.raises(ContractViolation, match="must equal 1"):
        Su11Element(a, b)
    step = {"kind": "mobius", "a": [np.real(a), np.imag(a)], "b": [np.real(b), np.imag(b)]}
    with pytest.raises(ContractViolation, match="must equal 1"):
        apply_transcript(standard_ncho_problem(2.0, 0.75, 0.1, 1.5), [step])


def test_mobius_identity():
    g = Su11Element.identity()
    for z in (0.3, -0.2 + 0.4j, 2.0):
        assert mobius_apply(g, z) == z


def test_mobius_boost_at_zero():
    g = Su11Element.boost(0.7)
    assert abs(mobius_apply(g, 0.0) - np.tanh(0.7)) < 1e-14


def test_mobius_infinity_handling():
    g = Su11Element.boost(0.4)
    pole = -np.conj(g.a) / np.conj(g.b)
    assert is_infinity(mobius_apply(g, pole))
    img = mobius_apply(g, INFINITY)
    assert abs(img - g.a / np.conj(g.b)) < 1e-14
    rot = Su11Element.rotation(0.3)
    assert is_infinity(mobius_apply(rot, INFINITY))


def test_mobius_preserves_circle_and_disk():
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = random_group_element(rng)
        z = np.exp(2j * np.pi * rng.uniform())
        assert abs(abs(mobius_apply(g, z)) - 1.0) < 1e-12
        w = 0.95 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        assert abs(mobius_apply(g, w)) < 1.0


def test_chordal_distance():
    assert chordal_distance(INFINITY, INFINITY) == 0.0
    assert chordal_distance(0.0, INFINITY) == 1.0
    assert chordal_distance(1.0, 1.0) == 0.0


def test_transform_ab_identity():
    a = np.diag([2.0, 1.0]).astype(complex)
    b = np.array([[0.1, 0.2j], [0.0, 0.1]])
    ga, gb = transform_ab(Su11Element.identity(), a, b)
    assert np.max(np.abs(ga - a)) < 1e-15
    assert np.max(np.abs(gb - b)) < 1e-15


def test_transform_ab_hyperbolic_closed_form():
    # symmetric coupling pair: closed form for both boost directions
    g_coup = 0.25
    a = np.eye(2, dtype=complex)
    b = g_coup * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    theta = np.arctanh(2.0 * g_coup)
    f = 1.0 / np.sqrt(1.0 - 4.0 * g_coup**2)
    for sign, gel in (
        (+1, Su11Element(np.cosh(theta / 2), np.sinh(theta / 2))),
        (-1, Su11Element(1j * np.cosh(theta / 2), -1j * np.sinh(theta / 2))),
    ):
        ga, gb = transform_ab(gel, a, b)
        expect_a = f * np.array([[1.0, -sign * 4 * g_coup**2], [-sign * 4 * g_coup**2, 1.0]])
        expect_b = g_coup * f * np.array([[-1.0, sign * 1.0], [sign * 1.0, -1.0]])
        assert np.max(np.abs(ga - expect_a)) < 1e-12
        assert np.max(np.abs(gb - expect_b)) < 1e-12


def test_transform_ab_functorial():
    rng = np.random.default_rng(8)
    for _ in range(10):
        g1, g2 = random_group_element(rng), random_group_element(rng)
        prob = random_problem(rng, p=2)
        a2, b2 = transform_ab(g2, *transform_ab(g1, prob.A, prob.B))
        a12, b12 = transform_ab(g2.compose(g1), prob.A, prob.B)
        assert np.max(np.abs(a2 - a12)) < 1e-10
        assert np.max(np.abs(b2 - b12)) < 1e-10


def test_transform_ab_circle_covariance():
    rng = np.random.default_rng(12)
    prob = random_problem(rng, p=2)
    g = random_group_element(rng)
    ga, gb = transform_ab(g, prob.A, prob.B)
    for _ in range(8):
        z = np.exp(2j * np.pi * rng.uniform())
        lhs = gb * z + ga + gb.conj().T * np.conj(z)
        w = mobius_apply(g.inverse(), z)
        rhs = abs(-np.conj(g.b) * z + g.a) ** 2 * (
            prob.B * w + prob.A + prob.B.conj().T * np.conj(w)
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_poles_move_by_mobius():
    rng = np.random.default_rng(21)
    for _ in range(8):
        prob = random_problem(rng, p=2)
        g = random_group_element(rng)
        dec = prob.decomposition
        ga, gb = transform_ab(g, prob.A, prob.B)
        dec_g = NchoProblem(p=2, mu=1.0, A=ga, B=gb, C0=np.zeros((2, 2))).decomposition
        # sphere multiset: finite roots plus infinity with deficiency
        # multiplicity; a pole counts rank P_j times
        def sphere_roots(dec_, p):
            finite = sum(np.linalg.matrix_rank(pj, rtol=1e-8) for pj in dec_.residues)
            pts = list(dec_.poles) + [INFINITY] * (2 * p - finite)
            return pts

        images = [mobius_apply(g, al) for al in sphere_roots(dec, prob.p)]
        targets = sphere_roots(dec_g, prob.p)
        for img in images:
            d = min(chordal_distance(img, t) for t in targets)
            assert d < 1e-8


def test_gauge_unitary_examples():
    a = np.diag([2.0, 1.0]).astype(complex)
    b = 0.5 * np.array([[0, 1j], [-1j, 0]])
    c = np.zeros((2, 2))
    prob = NchoProblem(p=2, mu=1.0, A=a, B=b, C0=c)
    gauged = gauge_problem(np.eye(2), prob)
    assert np.allclose(gauged.A, a) and np.allclose(gauged.B, b)
    # rows are the conjugated eigenvectors of the skew coupling: the gauge
    # diagonalizes it to (1/2) diag(1, -1)
    u = np.array([[1.0, 1j], [1.0, -1j]]) / np.sqrt(2.0)
    gauged = gauge_problem(u, prob.with_matrices(A=np.eye(2)))
    assert np.max(np.abs(gauged.B - np.diag([0.5, -0.5]))) < 1e-12
    with pytest.raises(ContractViolation):
        gauge_problem(2.0 * np.eye(2), prob)


def test_gauge_preserves_poles():
    rng = np.random.default_rng(31)
    prob = random_problem(rng, p=2)
    u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    dec0 = prob.decomposition
    gauged = gauge_problem(u, prob)
    dec1 = gauged.decomposition
    for al in dec0.poles:
        assert min(abs(al - x) for x in dec1.poles) < 1e-10


def test_normalize_a_diagonal():
    a = np.diag([4.0, 1.0]).astype(complex)
    b = np.array([[0.1, 0.2], [0.3, 0.4]], dtype=complex)
    prob = NchoProblem(p=2, mu=1.0, A=a, B=b, C0=np.zeros((2, 2)))
    normed, _ = normalize_problem(prob)
    assert np.max(np.abs(normed.A - np.eye(2))) < 1e-12
    d = np.diag([0.5, 1.0])
    assert np.max(np.abs(normed.B - d @ b @ d)) < 1e-12
    with pytest.raises(ContractViolation):
        normalize_problem(prob.with_matrices(A=np.diag([1.0, -1.0])))


def _pushforward_problems(name):
    if name.startswith("random_p"):
        rng = np.random.default_rng(8)
        return [random_problem(rng, int(name[-1])) for _ in range(3)]
    if name == "standardized_p2":
        return [standardize_p2(standard_ncho_problem(2.0, 3.0, 0.2, 1.5))[0]]
    return [parse_problem(str(FIXTURES / f"{name}.json"))[0]]


@pytest.mark.parametrize(
    "name",
    ["random_p1", "random_p2", "random_p3", "random_p4", "standardized_p2"]
    + ["classical_eta0", "classical_eta01_mu15", "classical_mu_nk", "degenerate_b0"]
    + ["p1_a123", "p1_quarter"],
)
def test_transform_decomposition_matches_qz(name):
    # su(1,1) covariance on the QZ path: the decomposition of the moved
    # problem has a pole at g(alpha_j) with residue P_j and rank r_j for each
    # source pole, one at g(infinity) with residue -sum_j P_j and the rank at
    # 0 when infinity is a source pole, and no pole where g sends one to
    # infinity
    generic = Su11Element(np.sqrt(1.09) * np.exp(0.7j), 0.3 * np.exp(-1.1j))
    for prob in _pushforward_problems(name):
        dec = prob.decomposition
        images = list(zip(dec.poles, dec.residues, dec.ranks))
        if dec.zero_is_pole:
            images.append((INFINITY, -sum(dec.residues), dec.ranks[dec.poles.index(0.0)]))
        inner = [al for al in dec.poles if al != 0 and abs(al) < 1.0]
        moves = [generic, Su11Element.rotation(0.4)]
        for g in moves + [Su11Element.sending_to_zero(al) for al in inner]:
            law = [(mobius_apply(g, al), pj, r) for al, pj, r in images]
            law = [(w, pj, r) for w, pj, r in law if not is_infinity(w)]
            got = transform_problem(g, prob).decomposition
            assert len(got.poles) == len(law)
            assert got.zero_is_pole == any(abs(w) <= 1e-10 for w, _, _ in law)
            matched = set()
            for al, pj, r in zip(got.poles, got.residues, got.ranks):
                i = min(range(len(law)), key=lambda i: abs(law[i][0] - al))
                w, pj_law, r_law = law[i]
                matched.add(i)
                assert abs(al - w) <= 1e-10 * max(1.0, abs(w))
                assert np.max(np.abs(pj - pj_law)) <= 1e-10 * max(1.0, np.max(np.abs(pj_law)))
                assert r == r_law
            assert len(matched) == len(law)


def test_standardize_classical_family():
    prob = standard_ncho_problem(2.0, 2.0, 0.0, 0.5)
    std, transcript = standardize_p2(prob)
    dec = std.decomposition
    assert dec.zero_is_pole
    inner = [al for al in dec.poles if al != 0 and abs(al) < 1]
    assert len(inner) == 1
    assert abs(inner[0] - 0.5) < 1e-10  # alpha = 1/sqrt(beta*gamma)
    assert np.max(np.abs(std.A - np.eye(2))) < 1e-12
    assert np.max(np.abs(std.B[1, :])) < 1e-12
    assert abs(std.B[0, 0]) > 0
    assert 2 * abs(std.B[0, 0]) + abs(std.B[0, 1]) ** 2 < 1.0


def test_standardize_transcript_replay_and_inverse():
    rng = np.random.default_rng(17)
    for _ in range(6):
        prob = random_problem(rng, p=2)
        std, transcript = standardize_p2(prob)
        replay = apply_transcript(prob, transcript)
        for f in ("A", "B", "C0", "lam_coeff"):
            assert np.array_equal(getattr(replay, f), getattr(std, f))
        back = apply_transcript(std, inverse_transcript(transcript))
        for f in ("A", "B", "C0", "lam_coeff"):
            assert np.max(np.abs(getattr(back, f) - getattr(prob, f))) < 1e-10


def test_standardize_rotates_a_three_root_inner_pole_onto_the_positive_axis():
    # singular B whose inner pole lies off the positive real axis: the
    # three-root case opens the transcript with a rotation.  A real inner
    # pole already on the positive axis needs none, and none is recorded.
    c0 = np.array([[0.1, 0.05j], [-0.05j, -0.2]])
    cases = [
        (0.3 * np.exp(0.7j) * np.outer([1.0, 0.4j], [1.0, -0.3]),
         ["mobius", "normalize", "gauge"], [0.0, 0.254238, 3.933321]),
        (-0.3 * np.outer([1.0, 0.4], [1.0, -0.3]),
         ["normalize", "gauge"], [0.0, 0.206712, 4.837643]),
    ]
    for b, kinds, moduli in cases:
        prob = NchoProblem(p=2, mu=1.2, A=np.diag([1.3, 0.9]), B=b, C0=c0)
        dec = prob.decomposition
        assert dec.zero_is_pole and len(dec.poles) == 3
        inner = [al for al in dec.poles if al != 0 and abs(al) < 1]
        assert (abs(inner[0].imag) > 1e-3) == (kinds[0] == "mobius")

        std, transcript = standardize_p2(prob)
        assert [step["kind"] for step in transcript] == kinds
        std_poles = std.decomposition.poles
        assert np.allclose(sorted(abs(al) for al in std_poles), moduli, atol=1e-6)
        inner = [al for al in std_poles if al != 0 and abs(al) < 1]
        assert len(inner) == 1 and abs(inner[0].imag) < 1e-9 and inner[0].real > 0
        replay = apply_transcript(prob, transcript)
        for f in ("A", "B", "C0", "lam_coeff"):
            assert np.array_equal(getattr(replay, f), getattr(std, f))
        back = apply_transcript(std, inverse_transcript(transcript))
        for f in ("A", "B", "C0", "lam_coeff"):
            assert np.max(np.abs(getattr(back, f) - getattr(prob, f))) < 1e-10


def test_standardize_random_properties():
    rng = np.random.default_rng(23)
    for _ in range(10):
        prob = random_problem(rng, p=2)
        std, _ = standardize_p2(prob)
        assert np.max(np.abs(std.A - np.eye(2))) < 1e-9
        assert np.max(np.abs(std.B[1, :])) < 1e-9
        b1, b2 = std.B[0, 0], std.B[0, 1]
        assert abs(b1) > 1e-9
        assert 2 * abs(b1) + abs(b2) ** 2 < 1.0
        assert positivity_margin(std).margin > 0.0
        dec = std.decomposition
        inner = [al for al in dec.poles if al != 0 and abs(al) < 1]
        assert len(inner) == 1
        # chosen phase puts the inner pole on the positive real axis
        assert abs(inner[0].imag) < 1e-9 and inner[0].real > 0


def test_standardize_idempotent_on_standard_input():
    prob = standard_ncho_problem(2.0, 2.0, 0.0, 0.5)
    std, _ = standardize_p2(prob)
    std2, transcript2 = standardize_p2(std)
    for f in ("A", "B", "C0", "lam_coeff"):
        assert np.max(np.abs(getattr(std2, f) - getattr(std, f))) < 1e-10


def test_standardize_rejects_degenerate():
    prob = NchoProblem(p=2, mu=1.0, A=np.eye(2), B=np.zeros((2, 2)), C0=np.zeros((2, 2)))
    with pytest.raises(NotGenericError):
        standardize_p2(prob)
