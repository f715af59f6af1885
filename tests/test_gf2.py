import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lposd.gf2 import (
    BinaryMatrix,
    in_rowspace,
    kernel_basis,
    matrix_from_text,
    matrix_to_text,
    rank,
    row_reduce,
)


def dense_rank(a: np.ndarray) -> int:
    """Row elimination over a dense uint8 array; oracle for the packed path."""
    a = (a.copy() % 2).astype(np.uint8)
    r = 0
    for c in range(a.shape[1]):
        pivot = next((i for i in range(r, a.shape[0]) if a[i, c]), None)
        if pivot is None:
            continue
        a[[r, pivot]] = a[[pivot, r]]
        for i in range(a.shape[0]):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        r += 1
    return r


@st.composite
def dense_matrices(draw, max_rows=7, max_cols=7):
    n_rows = draw(st.integers(1, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    bits = draw(st.lists(st.integers(0, 1), min_size=n_rows * n_cols,
                         max_size=n_rows * n_cols))
    return np.array(bits, dtype=np.uint8).reshape(n_rows, n_cols)


@given(dense_matrices())
def test_dense_round_trip(dense):
    m = BinaryMatrix.from_dense(dense)
    assert (m.to_dense() == dense).all()


@given(dense_matrices())
def test_transpose_involution(dense):
    m = BinaryMatrix.from_dense(dense)
    assert (m.transpose().transpose().to_dense() == dense).all()


@given(dense_matrices())
def test_rank_matches_dense_elimination(dense):
    assert rank(BinaryMatrix.from_dense(dense)) == dense_rank(dense)


@given(dense_matrices())
def test_rank_invariant_under_transpose(dense):
    m = BinaryMatrix.from_dense(dense)
    assert rank(m) == rank(m.transpose())


@given(dense_matrices(), st.integers(0, 2**16))
def test_mat_vec_matches_dense(dense, pick):
    m = BinaryMatrix.from_dense(dense)
    v = np.array([(pick >> i) & 1 for i in range(dense.shape[1])], dtype=np.uint8)
    assert (m.mat_vec(v) == dense @ v % 2).all()


@given(dense_matrices())
def test_row_reduce_is_row_equivalent_rref(dense):
    m = BinaryMatrix.from_dense(dense)
    red = row_reduce(m)
    reduced = red.reduced.to_dense()
    # each row of m is the XOR of the reduced rows its pivot-column bits pick,
    # and the reduced rows span no more than m does
    for row in dense:
        combo = np.zeros(dense.shape[1], dtype=np.uint8)
        for r, c in enumerate(red.pivot_cols):
            if row[c]:
                combo ^= reduced[r]
        assert (combo == row).all()
    assert len(red.pivot_cols) == dense_rank(dense)
    assert not reduced[red.rank:].any()
    # pivot columns are singleton in the reduced matrix
    for r, c in enumerate(red.pivot_cols):
        col = reduced[:, c]
        assert col[r] == 1 and col.sum() == 1


@given(dense_matrices(), st.integers(0, 2**16))
def test_rowspace_membership_of_row_combinations(dense, pick):
    m = BinaryMatrix.from_dense(dense)
    combo = np.zeros(dense.shape[1], dtype=np.uint8)
    for i in range(dense.shape[0]):
        if (pick >> i) & 1:
            combo ^= dense[i]
    assert in_rowspace(m, combo)


@given(dense_matrices())
def test_kernel_vectors_annihilate(dense):
    m = BinaryMatrix.from_dense(dense)
    basis = kernel_basis(m)
    assert len(basis) == dense.shape[1] - rank(m)
    for v in basis:
        assert not m.mat_vec(v).any()


@given(dense_matrices())
def test_text_round_trip(dense):
    m = BinaryMatrix.from_dense(dense)
    again = matrix_from_text(matrix_to_text(m))
    assert (again.to_dense() == dense).all()


def test_from_entries_and_supports():
    m = BinaryMatrix.from_entries(2, 5, [(0, 1), (0, 3), (1, 0), (0, 3)])
    # (0, 3) listed twice: entries toggle, so it cancels
    assert m.row_support(0) == (1,)
    assert m.row_support(1) == (0,)
    assert m.row_weight(0) == 1
    assert m.get(0, 1) == 1 and m.get(0, 3) == 0


def test_in_rowspace_rejects_outside_vector():
    m = BinaryMatrix.from_dense(np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8))
    assert in_rowspace(m, np.array([1, 0, 1], dtype=np.uint8))
    assert not in_rowspace(m, np.array([1, 0, 0], dtype=np.uint8))


def test_commutes_with():
    a = BinaryMatrix.from_dense(np.array([[1, 1, 0, 0]], dtype=np.uint8))
    b = BinaryMatrix.from_dense(np.array([[1, 1, 1, 1]], dtype=np.uint8))
    c = BinaryMatrix.from_dense(np.array([[1, 0, 1, 0]], dtype=np.uint8))
    assert a.commutes_with(b)
    assert not a.commutes_with(c)


def test_bicycle_check_matrix_rank(bb72):
    # the 72-qubit bicycle code encodes 12 logicals, so each side has
    # rank (n - k) / 2 = 30
    assert rank(bb72.hx) == 30
    assert rank(bb72.hz) == 30
    assert dense_rank(bb72.hx.to_dense()) == 30
