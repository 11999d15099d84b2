import numpy as np
import pytest

from nchodisk import (
    ContractViolation,
    is_hermitian,
    is_positive_definite,
)
from nchodisk.heun import _adj
from nchodisk.linalg import as_matrix, fix_phase


def _det2(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


@pytest.mark.parametrize(
    "entry", [np.nan, np.inf, complex(0, np.nan), 1e308, -2e150, 1e150 + 1e150j]
)
def test_as_matrix_refuses_entries_that_overflow(entry):
    with pytest.raises(ContractViolation, match="finite and at most 1e150 in modulus"):
        as_matrix([[1.0, entry], [0.0, 1.0]])


def test_as_matrix_takes_entries_up_to_1e150():
    assert as_matrix([[1e150, -1e150j]]).shape == (1, 2)


def test_adjugate_2x2_hand():
    m = np.array([[1, 2], [3, 4]])
    assert np.array_equal(_adj(m), [[4, -2], [-3, 1]])
    assert _det2(m) == -2


@pytest.mark.parametrize("n", [2])
def test_adjugate_matches_inverse(n):
    rng = np.random.default_rng(100 + n)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    adj, det = _adj(m), _det2(m)
    assert np.max(np.abs(adj / det - np.linalg.inv(m))) < 1e-10
    assert np.max(np.abs(m @ adj - det * np.eye(n))) < 1e-10 * abs(det)


def test_square_check_rejects_nonsquare():
    with pytest.raises(ContractViolation):
        is_hermitian(np.ones((2, 3)))


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_fix_phase_ignores_round_off_ties(sign):
    # the two largest moduli tie at 1/sqrt(2) up to a relative 1e-15
    v = np.array([np.exp(0.3j), 1j * (1.0 + sign * 1e-15), 0.2]) / np.sqrt(2.0)
    ref = fix_phase(np.array([np.exp(0.3j), 1j, 0.2]) / np.sqrt(2.0))
    out = fix_phase(v)
    assert np.max(np.abs(out - ref)) < 1e-12
    assert abs(out[0].imag) < 1e-15 and out[0].real > 0
    # a stack is fixed row by row, bit for bit as one vector at a time
    stack = np.array([[v, 2j * v[::-1]], [-v, v * np.exp(1j)]])
    rows = [fix_phase(row) for row in stack.reshape(-1, 3)]
    assert np.array_equal(fix_phase(stack).reshape(-1, 3), rows)


def test_predicates():
    assert is_hermitian([[1, 1j], [-1j, 2]])
    assert not is_hermitian([[0, 1], [0, 0]])
    assert is_positive_definite([[2, 0], [0, 1]])
    assert not is_positive_definite([[1, 0], [0, -1]])
