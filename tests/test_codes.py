import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import with_zero_x_row
from reference_bfs import reference_bfs_distance_to_flipped

from lposd.codes import (
    CssCode,
    bfs_distance_to_flipped,
    biregular_distance_floor,
    bivariate_bicycle_code,
    classical_distance,
    find_short_z_cycle,
    hgp_layout,
    hypergraph_product,
    load_code,
    named_bb_code,
    repetition_parity_check,
    rotated_surface_code,
    sample_random_hgp,
    save_code,
)
from lposd.errors import CycleNotFound, EnumerationTooLarge, InvalidParameter
from lposd.gf2 import BinaryMatrix, in_rowspace, kernel_basis, rank


def min_logical_weight(code) -> int:
    """Exhaustive coset search; oracle for small codes only."""
    n = code.n
    best = n + 1
    for bits in range(1, 2 ** n):
        v = np.array([(bits >> i) & 1 for i in range(n)], dtype=np.uint8)
        if code.hx.mat_vec(v).any():
            continue
        if in_rowspace(code.hz, v):
            continue
        best = min(best, int(v.sum()))
    return best


def test_surface3_shape(surface3):
    params = surface3.parameters()
    assert params.n == 9 and params.k == 1
    assert surface3.hx.n_rows == 4 and surface3.hz.n_rows == 4
    assert surface3.max_check_weight() <= 4
    assert surface3.hx.commutes_with(surface3.hz)


def test_surface3_min_logical_weight_is_three(surface3):
    assert min_logical_weight(surface3) == 3


def test_surface5_shape(surface5):
    params = surface5.parameters()
    assert params.n == 25 and params.k == 1
    assert surface5.hx.n_rows == 12 and surface5.hz.n_rows == 12


def test_surface_rejects_even_distance():
    with pytest.raises(InvalidParameter):
        rotated_surface_code(4)


def test_repetition_parity_check():
    h = repetition_parity_check(5)
    assert (h.n_rows, h.n_cols) == (4, 5)
    assert classical_distance(h) == 5
    assert rank(h) == 4


def test_classical_distance_values():
    single_parity = BinaryMatrix.from_dense(np.array([[1, 1, 1]], dtype=np.uint8))
    assert classical_distance(single_parity) == 2
    identity = BinaryMatrix.from_dense(np.eye(3, dtype=np.uint8))
    assert classical_distance(identity) == math.inf


def test_classical_distance_cap_and_guard():
    h = repetition_parity_check(6)
    assert classical_distance(h, cap=3) == math.inf
    wide = BinaryMatrix.from_entries(1, 30, [(0, 0)])
    with pytest.raises(EnumerationTooLarge):
        classical_distance(wide)


@st.composite
def small_parity_checks(draw):
    n_rows = draw(st.integers(1, 3))
    n_cols = draw(st.integers(2, 4))
    bits = draw(st.lists(st.integers(0, 1), min_size=n_rows * n_cols,
                         max_size=n_rows * n_cols))
    return BinaryMatrix.from_dense(
        np.array(bits, dtype=np.uint8).reshape(n_rows, n_cols))


@given(small_parity_checks(), small_parity_checks())
@settings(max_examples=40, deadline=None)
def test_product_code_commutes_and_counts(h1, h2):
    code = hypergraph_product(h1, h2)
    n1, r1 = h1.n_cols, h1.n_rows
    n2, r2 = h2.n_cols, h2.n_rows
    assert code.n == n1 * n2 + r1 * r2
    assert code.hx.n_rows == n1 * r2
    assert code.hz.n_rows == r1 * n2
    assert code.hx.commutes_with(code.hz)
    k1, k1t = n1 - rank(h1), r1 - rank(h1)
    k2, k2t = n2 - rank(h2), r2 - rank(h2)
    assert code.parameters().k == k1 * k2 + k1t * k2t


def test_hgp_layout_indices_partition_qubits():
    h1 = repetition_parity_check(3)
    h2 = repetition_parity_check(4)
    lay = hgp_layout(h1, h2)
    aa = {lay.qubit_aa(a, a2) for a in range(3) for a2 in range(4)}
    bb = {lay.qubit_bb(b, b2) for b in range(2) for b2 in range(3)}
    assert aa | bb == set(range(3 * 4 + 2 * 3))
    assert not aa & bb
    x_checks = {lay.x_check(a, b2) for a in range(3) for b2 in range(3)}
    z_checks = {lay.z_check(b, a2) for b in range(2) for a2 in range(4)}
    assert x_checks == set(range(9))
    assert z_checks == set(range(8))


def test_product_check_supports_match_layout(toy22):
    code, h1, h2 = toy22
    lay = hgp_layout(h1, h2)
    j = lay.x_check(0, 1)
    expected = {lay.qubit_aa(0, a2) for a2 in h2.row_support(1)}
    expected |= {lay.qubit_bb(b, 1) for b in h1.transpose().row_support(0)}
    assert set(code.hx.row_support(j)) == expected


def test_bb72_parameters(bb72):
    params = bb72.parameters()
    assert params.n == 72 and params.k == 12
    for j in range(bb72.hx.n_rows):
        assert bb72.hx.row_weight(j) == 6
    for j in range(bb72.hz.n_rows):
        assert bb72.hz.row_weight(j) == 6
    assert bb72.hx.commutes_with(bb72.hz)


def test_named_bb_rejects_unknown():
    with pytest.raises(InvalidParameter):
        named_bb_code("bb999")


def test_random_product_code_is_reproducible_and_biregular():
    code = sample_random_hgp(2, seed=7)
    again = sample_random_hgp(2, seed=7)
    assert (code.hx.to_dense() == again.hx.to_dense()).all()
    assert code.n == 100
    assert code.parameters().k >= 4
    # qubit degrees under hx: 3 or 4 depending on the sector
    col_weights = code.hx.to_dense().sum(axis=0)
    assert set(col_weights) <= {3, 4}


def test_declared_weight_bounds_are_checked():
    from lposd.codes import _check_declared_ldpc

    code = rotated_surface_code(3)
    with pytest.raises(InvalidParameter, match="check weight 4 exceeds declared bound 3"):
        _check_declared_ldpc(code, max_row=3, max_col=4)
    with pytest.raises(InvalidParameter, match="qubit degree 2 exceeds declared bound 1"):
        _check_declared_ldpc(code, max_row=4, max_col=1)
    _check_declared_ldpc(code, max_row=4, max_col=2)


def test_parameters_read_the_distance_floor_the_metadata_declares(tmp_path):
    import json

    bb72 = named_bb_code("bb72")
    assert bb72.parameters().distance_floor == bb72.metadata["distance"] == 6
    hgp = sample_random_hgp(2, 0)
    assert hgp.parameters().distance_floor == hgp.metadata["distance_floor"] == 4
    hgp.metadata["distance"] = 5  # a declared distance comes before a floor
    assert hgp.parameters().distance_floor == 5
    save_code(hgp, tmp_path / "code")
    assert json.loads((tmp_path / "code" / "meta.json").read_text())["distance"] == 5


_SYNDROME_CODES = {
    "surface5": lambda: rotated_surface_code(5),
    "bb72": lambda: named_bb_code("bb72"),
    "bb144": lambda: named_bb_code("bb144"),
    "random-hgp": lambda: sample_random_hgp(2, 0),
    "zero-row-middle": lambda: with_zero_x_row(rotated_surface_code(3), 1),
    "zero-row-end": lambda: with_zero_x_row(rotated_surface_code(3), 4),
}


@pytest.mark.parametrize("name", list(_SYNDROME_CODES))
def test_syndrome_matches_packed_product(name):
    code = _SYNDROME_CODES[name]()
    tan = code.tanner
    assert list(zip(tan.x_edge_qubit.tolist(), tan.x_edge_check.tolist())) == list(tan.x_edges)
    z_edges = [(q, j) for j, sup in enumerate(tan.z_supports) for q in sup]
    assert list(zip(tan.z_edge_qubit.tolist(), tan.z_edge_check.tolist())) == z_edges
    assert tan.z_edge_qubit.dtype == tan.z_edge_check.dtype == np.int64
    hash(tan)  # the edge arrays stay out of eq/hash
    rng = np.random.default_rng(61)
    for _ in range(200):
        e = rng.integers(0, 2, code.n, dtype=np.uint8)
        s = code.syndrome(e)
        assert s.dtype == np.uint8
        assert np.array_equal(s, code.hx.mat_vec(e))
    bad = np.zeros(code.n, dtype=np.uint8)
    bad[0] = 2
    for vector in (np.zeros(code.n - 1, dtype=np.uint8), bad):
        for product in (code.syndrome, code.hx.mat_vec):
            with pytest.raises(ValueError):
                product(vector)


def test_bfs_distance_to_flipped(surface3):
    e = np.zeros(surface3.n, dtype=np.uint8)
    e[4] = 1  # center qubit
    s = surface3.syndrome(e)
    dist = bfs_distance_to_flipped(surface3, s)
    assert dist[4] == 1
    assert dist.min() == 1
    zero = bfs_distance_to_flipped(surface3, np.zeros_like(s))
    assert np.isinf(zero).all()


_BFS_CODES = {
    "surface-3": lambda: rotated_surface_code(3),
    "surface-7": lambda: rotated_surface_code(7),
    "bb72": lambda: named_bb_code("bb72"),
    "bb144": lambda: named_bb_code("bb144"),
    "random-hgp": lambda: sample_random_hgp(2, 0),
    "zero-row-middle": lambda: with_zero_x_row(rotated_surface_code(3), 1),
    "zero-row-end": lambda: with_zero_x_row(rotated_surface_code(3), 4),
}


@pytest.mark.parametrize("name", sorted(_BFS_CODES))
def test_bfs_distance_matches_frozen_deque_search(name):
    code = _BFS_CODES[name]()
    m = code.hx.n_rows
    rng = np.random.default_rng(7)
    syndromes = [np.zeros(m, dtype=np.uint8), np.ones(m, dtype=np.uint8)]
    syndromes += [(rng.random(m) < rate).astype(np.uint8)
                  for rate in (0.02, 0.1, 0.3) for _ in range(10)]
    syndromes += [code.syndrome((rng.random(code.n) < 0.05).astype(np.uint8))
                  for _ in range(10)]
    for s in syndromes:
        got = bfs_distance_to_flipped(code, s)
        want = reference_bfs_distance_to_flipped(code, s)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    zero_at = {"zero-row-middle": 1, "zero-row-end": 4}.get(name)
    if zero_at is not None:
        # a flipped all-zero check reaches nothing: every qubit stays inf
        alone = np.zeros(m, dtype=np.uint8)
        alone[zero_at] = 1
        assert np.isinf(bfs_distance_to_flipped(code, alone)).all()
        assert np.isinf(reference_bfs_distance_to_flipped(code, alone)).all()


def test_find_short_z_cycle(ring108):
    code, _, _ = ring108
    cycle = find_short_z_cycle(code, 8)
    k = len(cycle.checks)
    assert k == len(cycle.qubits) and 2 <= k <= 4
    for t, q in enumerate(cycle.qubits):
        a = cycle.checks[t]
        b = cycle.checks[(t + 1) % k]
        assert q in code.hz.row_support(a)
        assert q in code.hz.row_support(b)


def test_find_short_z_cycle_accepts_a_cycle_of_exactly_max_len():
    h = BinaryMatrix.from_dense([[1, 1, 1, 0], [0, 1, 1, 1]])
    cycle = find_short_z_cycle(hypergraph_product(h, h), 4)
    assert len(cycle) == 4 == 2 * len(cycle.qubits)
    cycle = find_short_z_cycle(named_bb_code("bb72"), 6)
    assert len(cycle) == 6 == 2 * len(cycle.qubits)


def test_find_short_z_cycle_absent(surface3):
    with pytest.raises(CycleNotFound):
        find_short_z_cycle(surface3, 2)


def test_save_load_round_trip(tmp_path, surface3):
    save_code(surface3, tmp_path / "code")
    loaded = load_code(tmp_path / "code")
    assert (loaded.hx.to_dense() == surface3.hx.to_dense()).all()
    assert (loaded.hz.to_dense() == surface3.hz.to_dense()).all()
    assert loaded.name == surface3.name
    assert loaded.parameters().k == 1


@pytest.mark.parametrize("call, fragment", [
    (lambda: CssCode(BinaryMatrix([1], 2), BinaryMatrix([1], 3)),
     "hx has 2 columns but hz has 3"),
    (lambda: CssCode(BinaryMatrix([1], 2), BinaryMatrix([1], 2)), "checks do not commute"),
    (lambda: bivariate_bicycle_code(0, 3, [(0, 0)], [(0, 0)]),
     "cyclic group sizes must be positive"),
    (lambda: bivariate_bicycle_code(3, 3, [], [(0, 0)]),
     "each polynomial needs at least one monomial"),
    (lambda: bivariate_bicycle_code(3, 3, [(0, 0), (3, 0)], [(0, 0)]),
     "duplicate monomials collapse"),
    (lambda: bivariate_bicycle_code(6, 6, [(3, 0), (0, 1), (0, 2)],
                                    [(0, 3), (1, 0), (2, 0)], expected_k=10),
     r"bb\(6,6\) encodes k=12, expected 10"),
    (lambda: repetition_parity_check(1), "at least 2 bits"),
    (lambda: biregular_distance_floor(7), r"s=7 outside supported range 1\.\.6"),
], ids=["widths", "not-commuting", "empty-group", "no-monomial", "duplicate-monomial",
        "expected-k", "repetition-1", "distance-floor-7"])
def test_codes_reject_bad_input(call, fragment):
    with pytest.raises(InvalidParameter, match=fragment):
        call()
