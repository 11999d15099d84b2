import numpy as np
import pytest

from nchodisk import (
    ContractViolation,
    is_hermitian,
    is_positive_definite,
)
from nchodisk.heun import _adj
from nchodisk import eigen_banded_lowest
from nchodisk.linalg import (
    _inverse_iteration,
    _lapack_band,
    as_matrix,
    band_to_dense,
    block_band,
    fix_phase,
)


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


def test_inverse_iteration_spans_a_degenerate_eigenspace():
    # two uncoupled copies of one real tridiagonal matrix, interleaved as a
    # p = 2 block band: every eigenvalue is double
    rng = np.random.default_rng(7)
    d, e = rng.uniform(1.0, 3.0, 40), rng.uniform(-0.5, 0.5, 39)
    band = _lapack_band(
        block_band(d[:, None, None] * np.eye(2), e[:, None, None] * np.eye(2))
    )
    assert band.dtype == np.dtype(float)  # the real LAPACK path
    h = band_to_dense(band)
    lam = eigen_banded_lowest(band, 2)
    assert abs(lam[1] - lam[0]) < 1e-12
    q = _inverse_iteration(band, lam[0], 2)[0]
    assert q.shape == (80, 2) and q.dtype == np.dtype(float)
    assert np.max(np.abs(q.T @ q - np.eye(2))) < 1e-14
    assert np.linalg.norm(h @ q - lam[0] * q) < 1e-12
    # one start vector per shift finds only one direction of the pair
    singles = _inverse_iteration(band, lam)
    assert singles.shape == (2, 80, 1)
    assert np.linalg.matrix_rank(singles[:, :, 0].T) == 1


def test_stacked_shifts_match_one_shift_at_a_time():
    # the shifted matrices share one LU of a stacked band, and no entry
    # couples one to the next
    rng = np.random.default_rng(8)
    d, e = rng.uniform(1.0, 3.0, 30), rng.uniform(-0.5, 0.5, 29) * (1.0 + 1j)
    band = _lapack_band(block_band(d[:, None, None], e[:, None, None]))
    lams = eigen_banded_lowest(band, 4)
    stacked = _inverse_iteration(band, lams)
    for i, lam in enumerate(lams):
        alone = _inverse_iteration(band, lam)[0]
        assert np.max(np.abs(stacked[i] - alone)) < 1e-14
        assert np.linalg.norm(band_to_dense(band) @ alone[:, 0] - lam * alone[:, 0]) < 1e-12
