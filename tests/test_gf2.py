import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lposd import (
    BpConfig,
    OsdConfig,
    build_cycle_pattern,
    build_error_lp,
    build_overlap_pattern,
    build_syndrome_lp,
    check_poison,
    decode_syndrome,
    is_reduced,
    is_success,
    min_sum_bp,
    order_qubits,
    reflect_to_error_solution,
    reflect_to_syndrome_solution,
    solve_lp,
    stabilizers_within,
)
from lposd.codes import bfs_distance_to_flipped
from lposd.gf2 import (
    BinaryMatrix,
    as_bit_vector,
    in_rowspace,
    kernel_basis,
    matrix_from_text,
    matrix_to_text,
    rank,
    row_reduce,
    vector_to_bits,
)
from lposd.osd import osd0, osd_cs


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


def test_commutes_with_matches_the_pairwise_definition():
    rng = np.random.default_rng(71)
    shapes = [(0, 0, 0), (0, 4, 3), (3, 4, 0), (2, 0, 3)]
    shapes += [tuple(rng.integers(0, 7, 3)) for _ in range(300)]
    outcomes = set()
    for m1, n, m2 in shapes:
        a = BinaryMatrix.from_dense(rng.integers(0, 2, (m1, n), dtype=np.uint8))
        if rng.random() < 0.5:
            b = BinaryMatrix.from_dense(rng.integers(0, 2, (m2, n), dtype=np.uint8))
        else:  # rows from the kernel of a, which commute with it
            kernel = kernel_basis(a) or [np.zeros(n, dtype=np.uint8)]
            picks = rng.integers(0, 2, (m2, len(kernel)), dtype=np.uint8)
            b = BinaryMatrix.from_dense(picks @ np.array(kernel) % 2)
        pairwise = all((r & q).bit_count() % 2 == 0 for r in a.rows for q in b.rows)
        assert a.commutes_with(b) == pairwise, (m1, n, m2)
        outcomes.add(pairwise)
    assert outcomes == {True, False}


def test_bicycle_check_matrix_rank(bb72):
    # the 72-qubit bicycle code encodes 12 logicals, so each side has
    # rank (n - k) / 2 = 30
    assert rank(bb72.hx) == 30
    assert rank(bb72.hz) == 30
    assert dense_rank(bb72.hx.to_dense()) == 30


# ---------------------------------------------------------------------------
# the bit-vector rule
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(-2, 3), max_size=10),
       st.sampled_from(["bool", "uint8", "int8", "int64", "float64"]))
def test_bit_vector_rule_accepts_exactly_zero_one_entries(entries, dtype):
    v = np.array(entries, dtype=np.int64).astype(dtype)
    if set(v.tolist()) <= {0, 1}:
        out = as_bit_vector(v, len(entries), "v")
        assert out.dtype == np.uint8 and out.tolist() == v.astype(int).tolist()
        assert not np.shares_memory(out, v)
    else:
        with pytest.raises(ValueError, match="^v entries must be 0 or 1$"):
            as_bit_vector(v, len(entries), "v")


def rule_outcome(v, length):
    try:
        out = as_bit_vector(v, length, "v")
    except ValueError as exc:
        return "rejected", str(exc)
    assert out.dtype == np.uint8 and not np.shares_memory(out, v)
    return "accepted", out.tolist()


@given(st.lists(st.sampled_from([0, 1, 2, 255]), max_size=12),
       st.sampled_from(["uint8", "bool", "int8", "uint16", "int64", "float64"]),
       st.integers(-1, 1))
def test_bit_vector_rule_does_not_depend_on_dtype(entries, dtype, length_shift):
    v = np.array(entries, dtype=np.int64).astype(dtype)
    length = max(len(entries) + length_shift, 0)
    assert rule_outcome(v, length) == rule_outcome(v.astype(np.int64), length)


def test_from_dense_rejects_entries_other_than_zero_or_one():
    with pytest.raises(ValueError, match="^matrix entries must be 0 or 1$"):
        BinaryMatrix.from_dense([[2, 1, 3]])
    for bad in ([[0, -1]], [[0.5, 1.0]], np.full((2, 2), 255, dtype=np.uint8)):
        with pytest.raises(ValueError, match="^matrix entries must be 0 or 1$"):
            BinaryMatrix.from_dense(bad)
    m = BinaryMatrix.from_dense(np.array([[True, False, True]]))
    assert m.to_dense().tolist() == [[1, 0, 1]]
    assert BinaryMatrix.from_dense([[1.0, 0.0], [0.0, 1.0]]).rows == (0b01, 0b10)
    assert BinaryMatrix.from_dense(np.zeros((2, 0), dtype=np.uint8)).shape == (2, 0)


@pytest.fixture(scope="module")
def rule_context(surface3):
    code = surface3
    e = np.zeros(code.n, dtype=np.uint8)
    e[4] = 1
    s = code.syndrome(e)
    return {
        "e": e,
        "syndrome_sol": solve_lp(build_syndrome_lp(code, s)),
        "error_sol": solve_lp(build_error_lp(code, e)),
        "ordering": order_qubits(np.zeros(code.n), code, s, OsdConfig()),
    }


# (entry point, length: "m" checks or "n" qubits, the argument's name, call)
VECTOR_ENTRY_POINTS = [
    ("vector_to_bits", "n", "vector", lambda code, ctx, v: vector_to_bits(v, code.n)),
    ("CssCode.syndrome", "n", "error", lambda code, ctx, v: code.syndrome(v)),
    ("bfs_distance_to_flipped", "m", "syndrome",
     lambda code, ctx, v: bfs_distance_to_flipped(code, v)),
    ("build_syndrome_lp", "m", "syndrome", lambda code, ctx, v: build_syndrome_lp(code, v)),
    ("build_error_lp", "n", "reference error", lambda code, ctx, v: build_error_lp(code, v)),
    ("reflect_to_syndrome_solution", "n", "reference error",
     lambda code, ctx, v: reflect_to_syndrome_solution(ctx["error_sol"], v)),
    ("reflect_to_error_solution", "n", "reference error",
     lambda code, ctx, v: reflect_to_error_solution(ctx["syndrome_sol"], v)),
    ("min_sum_bp", "m", "syndrome", lambda code, ctx, v: min_sum_bp(code, v, BpConfig())),
    ("order_qubits", "m", "syndrome",
     lambda code, ctx, v: order_qubits(np.zeros(code.n), code, v,
                                       OsdConfig(tie_break="random"))),
    ("osd0", "m", "syndrome", lambda code, ctx, v: osd0(code, v, ctx["ordering"])),
    ("osd_cs", "m", "syndrome", lambda code, ctx, v: osd_cs(code, v, ctx["ordering"])),
    ("decode_syndrome", "m", "syndrome",
     lambda code, ctx, v: decode_syndrome(code, "lp-osdcs", v)),
    ("is_success error", "n", "error", lambda code, ctx, v: is_success(code, v, ctx["e"])),
    ("is_success correction", "n", "correction",
     lambda code, ctx, v: is_success(code, ctx["e"], v)),
    ("is_reduced", "n", "error", lambda code, ctx, v: is_reduced(code, v)),
    ("check_poison", "n", "error", lambda code, ctx, v: check_poison(code, v, {})),
    ("build_overlap_pattern first", "n", "first stabilizer",
     lambda code, ctx, v: build_overlap_pattern(code, v, ctx["e"])),
    ("build_overlap_pattern second", "n", "second stabilizer",
     lambda code, ctx, v: build_overlap_pattern(code, ctx["e"], v)),
    ("build_cycle_pattern", "n", "generator 0",
     lambda code, ctx, v: build_cycle_pattern(code, [v, ctx["e"], ctx["e"]])),
    ("stabilizers_within", "n", "support", lambda code, ctx, v: stabilizers_within(code, v)),
]

MALFORMED = {
    "entry-2": lambda length: np.eye(1, length, dtype=np.uint8)[0] * 2,
    "entry-minus-1": lambda length: [-1] + [0] * (length - 1),
    "wrong-length": lambda length: np.zeros(length + 1, dtype=np.uint8),
    "2-D": lambda length: np.zeros((1, length), dtype=np.uint8),
}


@pytest.mark.parametrize("malformed", MALFORMED)
@pytest.mark.parametrize("entry", VECTOR_ENTRY_POINTS, ids=[e[0] for e in VECTOR_ENTRY_POINTS])
def test_every_vector_argument_follows_one_rule(surface3, rule_context, entry, malformed):
    _, size, name, call = entry
    length = surface3.hx.n_rows if size == "m" else surface3.n
    message = f"^{name} (must have length {length}|entries must be 0 or 1)$"
    with pytest.raises(ValueError, match=message):
        call(surface3, rule_context, MALFORMED[malformed](length))


@pytest.mark.parametrize("call, fragment", [
    (lambda: matrix_from_text(""), "empty matrix text"),
    (lambda: matrix_from_text("3\n0\n"), "bad header line"),
    (lambda: matrix_from_text("2 3\n0 1\n"), "expected 2 row lines, found 1"),
    (lambda: matrix_from_text("2 4\n0 1 1\n2 3\n"), "^row 0 lists a column twice: '0 1 1'$"),
    (lambda: BinaryMatrix([], -1), "n_cols must be nonnegative"),
    (lambda: BinaryMatrix([0b1000], 3), "row bits exceed n_cols"),
    (lambda: BinaryMatrix.from_dense([1, 0, 1]), "expected a 2-D array"),
    (lambda: BinaryMatrix([1], 2).commutes_with(BinaryMatrix([1], 3)),
     "different column spaces"),
], ids=["empty-text", "bad-header", "row-count", "repeated-column", "negative-width",
        "bits-beyond-width", "1-d-array", "commutes-across-widths"])
def test_gf2_rejects_bad_input(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()
