"""Pins of the code constructions.

The built matrices are pinned by hash, the hypergraph product is checked
entry by entry against ``HgpLayout``'s index map, the bivariate bicycle
blocks against the definition of x^i y^j, and the Tanner adjacency
against a brute-force inversion of the check supports.
"""

import hashlib

import numpy as np
import pytest
from conftest import make_ring108, make_toy22, with_zero_x_row

from lposd.codes import (
    BB_REGISTRY,
    CssCode,
    bivariate_bicycle_code,
    hgp_layout,
    hypergraph_product,
    named_bb_code,
    repetition_parity_check,
    rotated_surface_code,
    sample_random_hgp,
)
from lposd.gf2 import BinaryMatrix

# sha256 of repr((hx.rows, hz.rows, n)) for each construction
PINS = {
    "surface-3": "33cab60bc76cb18d9ca85ad1cf0fd8f03f3eb7a77d7b2f9ee885f80ac10132d5",
    "surface-5": "a9d0a478b39f6fb576b4cf255503dd4bcb1a2d53f1bd64852eb18b9ea6eb85a2",
    "surface-7": "5e2f34d3bcd53ad1fa8da7bd870abfe3f823650bb25d6749f0ee685306c8fec0",
    "surface-9": "3bbf345f71307d173d539fbbd54743ad8b536cd6c5e4c11a5bbc4b8549aaa037",
    "bb72": "19f748b9c60ec0b0b5675896ed3d88cd0b553be6316ae865de2be0effc332202",
    "bb90": "3b49a4dbf86e1a8dfa1b15773beb63ca269023f89fc7b1debc7109b0785aa7d6",
    "bb108": "4dde9a7c671280c917e51af4753610d03687fc3aab6069c69fd311482f6033a1",
    "bb144": "b21ce8c4ee672916160154327fd0088deb5b57698b9177b0f7303467ad3a19d3",
    "bb288": "af6df7dde7f367109ab2cb25b62d141a4cee458588453fe04930dd565b80c687",
    # s = 1 admits a single (3,4)-biregular graph, so both seeds draw it
    "random-hgp-s1-seed0": "97a3a71d3df673f7fddd1f96442e5af419cedc68ddc6b3ffb2a0c9c112cd00a8",
    "random-hgp-s1-seed1": "97a3a71d3df673f7fddd1f96442e5af419cedc68ddc6b3ffb2a0c9c112cd00a8",
    "random-hgp-s2-seed0": "a6cf2e10a5f508844f0a7fe515374557deb5eaee6e428c965361d01ca89cf696",
    "random-hgp-s2-seed1": "60195219624cbd3923ef5c2b31169e642c808bf0bb92e7ca439d99b704287ee9",
    "random-hgp-s3-seed0": "ac033be4ccd2c5a2f05c36791c5b91169ea161688590c3ac507eb4eece0806ad",
    "random-hgp-s3-seed1": "046d733e02cb7143ee96dadd793b1a6c70abb9e08ef2701df1a11fbc4faaf67b",
    "toy22": "e97d39667c9b1f265ffa83067757c342813e16feeba1e0ec8b8ae1eeca2c9ebd",
    "ring108": "e1cf02c6fa12f082e1dc4c252b4f265c418540231ba6a39d220b3de67cc458ff",
}


def build_pinned(name):
    if name.startswith("surface-"):
        return rotated_surface_code(int(name.split("-")[1]))
    if name in BB_REGISTRY:
        return named_bb_code(name)
    if name.startswith("random-hgp-"):
        s, seed = name.removeprefix("random-hgp-s").split("-seed")
        return sample_random_hgp(int(s), int(seed))
    return {"toy22": make_toy22, "ring108": make_ring108}[name]()[0]


def test_every_registry_code_is_pinned():
    assert set(BB_REGISTRY) <= set(PINS)


@pytest.mark.parametrize("name", sorted(PINS))
def test_construction_matches_its_pin(name):
    code = build_pinned(name)
    digest = hashlib.sha256(repr((code.hx.rows, code.hz.rows, code.n)).encode()).hexdigest()
    assert digest == PINS[name]


def layout_product(d1, d2):
    """Dense hx and hz of the product of two dense factors, filled entry by
    entry from ``HgpLayout``'s index map."""
    lay = hgp_layout(BinaryMatrix.from_dense(d1), BinaryMatrix.from_dense(d2))
    hx = np.zeros((lay.n1 * lay.r2, lay.n_qubits), dtype=np.uint8)
    hz = np.zeros((lay.r1 * lay.n2, lay.n_qubits), dtype=np.uint8)
    for a in range(lay.n1):
        for b2 in range(lay.r2):
            for a2 in range(lay.n2):
                hx[lay.x_check(a, b2), lay.qubit_aa(a, a2)] = d2[b2, a2]
            for b in range(lay.r1):
                hx[lay.x_check(a, b2), lay.qubit_bb(b, b2)] = d1[b, a]
    for b in range(lay.r1):
        for a2 in range(lay.n2):
            for a in range(lay.n1):
                hz[lay.z_check(b, a2), lay.qubit_aa(a, a2)] = d1[b, a]
            for b2 in range(lay.r2):
                hz[lay.z_check(b, a2), lay.qubit_bb(b, b2)] = d2[b2, a2]
    return hx, hz


def test_product_matches_the_layout_entry_by_entry():
    rng = np.random.default_rng(24)
    edge_shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5)]
    pairs = [(s1, s2) for s1 in edge_shapes for s2 in edge_shapes]
    pairs += [tuple(tuple(rng.integers(0, 7, 2)) for _ in range(2)) for _ in range(60)]
    for shape1, shape2 in pairs:
        d1, d2 = ((rng.random(shape) < rng.random()).astype(np.uint8)
                  for shape in (shape1, shape2))
        code = hypergraph_product(BinaryMatrix.from_dense(d1), BinaryMatrix.from_dense(d2))
        hx, hz = layout_product(d1, d2)
        assert code.hx.to_dense().shape == hx.shape and code.hz.to_dense().shape == hz.shape
        assert np.array_equal(code.hx.to_dense(), hx)
        assert np.array_equal(code.hz.to_dense(), hz)
        assert code.name == f"hgp-{hx.shape[1]}"
        assert code.metadata == {"family": "hgp", "h1_shape": list(shape1),
                                 "h2_shape": list(shape2)}


def monomial_sum(l, m, terms):
    """Sum of the monomials x^i y^j on Z_l x Z_m, entry by entry: row
    (i1, j1) meets column (i2, j2) when i2 - i1 = i mod l and j2 - j1 = j mod m."""
    out = np.zeros((l * m, l * m), dtype=np.uint8)
    for r in range(l * m):
        for c in range(l * m):
            (i1, j1), (i2, j2) = divmod(r, m), divmod(c, m)
            out[r, c] = sum((i2 - i1 - i) % l == 0 and (j2 - j1 - j) % m == 0
                            for i, j in terms) % 2
    return out


def test_bicycle_blocks_are_their_monomial_sums():
    rng = np.random.default_rng(72)
    for _ in range(25):
        l, m = (int(v) for v in rng.integers(1, 6, 2))
        a_terms, b_terms = (
            [(int(i) - l, int(j) + m) for i, j in
             (divmod(int(v), m) for v in rng.choice(l * m, size, replace=False))]
            for size in rng.integers(1, min(l * m, 3) + 1, 2))
        code = bivariate_bicycle_code(l, m, a_terms, b_terms)
        a, b = monomial_sum(l, m, a_terms), monomial_sum(l, m, b_terms)
        assert np.array_equal(code.hx.to_dense(), np.hstack([a, b]))
        assert np.array_equal(code.hz.to_dense(), np.hstack([b.T, a.T]))


def test_repetition_check_is_the_path_graph():
    for n in (2, 3, 7):
        assert repetition_parity_check(n).rows == tuple(3 << i for i in range(n - 1))
        assert repetition_parity_check(n).n_cols == n


_TANNER_CODES = {
    "bb72": lambda: named_bb_code("bb72"),
    "bb144": lambda: named_bb_code("bb144"),
    "surface-7": lambda: rotated_surface_code(7),
    "random-hgp": lambda: sample_random_hgp(2, 0),
    "empty": lambda: CssCode(BinaryMatrix([], 3), BinaryMatrix([], 3)),
    "no-qubits": lambda: CssCode(BinaryMatrix([], 0), BinaryMatrix([0], 0)),
    "zero-x-row": lambda: with_zero_x_row(rotated_surface_code(3), 1),
}


@pytest.mark.parametrize("name", sorted(_TANNER_CODES))
def test_tanner_adjacency_inverts_the_check_supports(name):
    code = _TANNER_CODES[name]()
    tan = code.tanner
    for mat, supports, checks_of_qubit in (
        (code.hx, tan.x_supports, tan.x_checks_of_qubit),
        (code.hz, tan.z_supports, tan.z_checks_of_qubit),
    ):
        dense = mat.to_dense()
        assert supports == tuple(tuple(map(int, np.flatnonzero(row))) for row in dense)
        assert checks_of_qubit == tuple(
            tuple(j for j in range(mat.n_rows) if dense[j, q]) for q in range(code.n))
        for lists in (supports, checks_of_qubit):
            assert type(lists) is tuple
            assert all(type(v) is tuple and all(type(i) is int for i in v) for v in lists)
    hash(tan)


@pytest.mark.parametrize("name", sorted(_TANNER_CODES))
def test_tanner_segments_split_the_x_edges_by_check(name):
    tan = _TANNER_CODES[name]().tanner
    starts, checks, segment = [], [], []
    for j, support in enumerate(tan.x_supports):
        if support:  # a check without edges has no segment
            starts.append(len(segment))
            checks.append(j)
            segment += [len(checks) - 1] * len(support)
    assert tan.x_segment_start.tolist() == starts
    assert tan.x_segment_check.tolist() == checks
    assert tan.x_edge_segment.tolist() == segment
