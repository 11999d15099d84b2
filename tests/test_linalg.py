import numpy as np
import pytest

from nchodisk import (
    ContractViolation,
    adjugate_and_det,
    is_hermitian,
    is_positive_definite,
)
from nchodisk.linalg import fix_phase


def test_adjugate_1x1():
    adj, det = adjugate_and_det([[3.0 + 1.0j]])
    assert adj[0, 0] == 1.0
    assert det == 3.0 + 1.0j


def test_adjugate_identity():
    adj, det = adjugate_and_det(np.eye(2))
    assert np.allclose(adj, np.eye(2))
    assert abs(det - 1.0) < 1e-15


def test_adjugate_2x2_hand():
    adj, det = adjugate_and_det([[1, 2], [3, 4]])
    assert np.allclose(adj, [[4, -2], [-3, 1]])
    assert abs(det + 2.0) < 1e-14


def test_adjugate_rejects_nonsquare():
    with pytest.raises(ContractViolation):
        adjugate_and_det(np.ones((2, 3)))


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 12])
def test_adjugate_matches_inverse(n):
    rng = np.random.default_rng(100 + n)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    adj, det = adjugate_and_det(m)
    assert np.max(np.abs(adj / det - np.linalg.inv(m))) < 1e-10
    assert np.max(np.abs(m @ adj - det * np.eye(n))) < 1e-10 * abs(det)


def test_adjugate_singular_large():
    rng = np.random.default_rng(5)
    u = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    m = u @ u.conj().T  # rank 2, singular
    adj, det = adjugate_and_det(m)
    assert abs(det) < 1e-8
    # adjugate of a matrix of rank <= n-2 vanishes
    assert np.max(np.abs(adj)) < 1e-8


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_fix_phase_ignores_round_off_ties(sign):
    # the two largest moduli tie at 1/sqrt(2) up to a relative 1e-15
    v = np.array([np.exp(0.3j), 1j * (1.0 + sign * 1e-15), 0.2]) / np.sqrt(2.0)
    ref = fix_phase(np.array([np.exp(0.3j), 1j, 0.2]) / np.sqrt(2.0))
    out = fix_phase(v)
    assert np.max(np.abs(out - ref)) < 1e-12
    assert abs(out[0].imag) < 1e-15 and out[0].real > 0


def test_predicates():
    assert is_hermitian([[1, 1j], [-1j, 2]])
    assert not is_hermitian([[0, 1], [0, 0]])
    assert is_positive_definite([[2, 0], [0, 1]])
    assert not is_positive_definite([[1, 0], [0, -1]])
