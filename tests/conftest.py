import numpy as np
import pytest

from lposd.codes import (
    CssCode,
    hypergraph_product,
    repetition_parity_check,
    rotated_surface_code,
)
from lposd.gf2 import BinaryMatrix


@pytest.fixture(scope="session")
def surface3():
    return rotated_surface_code(3)


@pytest.fixture(scope="session")
def surface5():
    return rotated_surface_code(5)


def with_zero_x_row(code, at):
    """``code`` with an all-zero X check inserted as row ``at`` of H_X.

    No error flips that check, so every decoder must treat the padded code
    as the original, with a 0 at position ``at`` of each syndrome.
    """
    rows = list(code.hx.rows)
    rows.insert(at, 0)
    return CssCode(BinaryMatrix(rows, code.n), code.hz, name=f"{code.name}-zero{at}")


def weight_one_check_code():
    """A weight-1 check next to a weight-3 one that shares its qubit."""
    hx = BinaryMatrix.from_entries(2, 3, [(0, 0), (1, 0), (1, 1), (1, 2)])
    return CssCode(hx, BinaryMatrix([], 3), name="weight-one-check")


def make_toy22():
    """22-qubit product code with two adjacent weight-6 Z plaquettes.

    The product of a 2x6 two-block parity check with the 3-bit repetition
    check.  Z checks (b, a') with a' = 1 give interior weight-6 stabilizers
    whose pairwise overlap has size 2, the geometry the overlap builder
    needs.
    """
    h1 = BinaryMatrix.from_entries(
        2, 6, [(0, 0), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (1, 5)])
    h2 = repetition_parity_check(3)
    return hypergraph_product(h1, h2, name="toy22"), h1, h2


def make_ring108():
    """108-qubit product code carrying a four-generator Z ring in one column.

    The first factor's rows form a 4-cycle: consecutive rows share exactly
    one bit, opposite rows are disjoint, and each row has a private bit.
    Producting with a weight-3 circulant on 9 bits (k=2 since 3 | 9) gives
    k = 8, and the Z checks (b, 0) for b = 0..3 form a ring of weight-6
    generators whose links all live in column 0.
    """
    h_ring = BinaryMatrix.from_entries(
        4, 8,
        [(0, 0), (0, 1), (0, 4), (1, 1), (1, 2), (1, 5),
         (2, 2), (2, 3), (2, 6), (3, 3), (3, 0), (3, 7)],
    )
    h_c9 = BinaryMatrix.from_entries(
        9, 9, [(i, (i + d) % 9) for i in range(9) for d in range(3)])
    return hypergraph_product(h_ring, h_c9, name="ring108"), h_ring, h_c9


@pytest.fixture(scope="session")
def toy22():
    return make_toy22()


@pytest.fixture(scope="session")
def ring108():
    return make_ring108()


@pytest.fixture(scope="session")
def bb72():
    from lposd.codes import named_bb_code

    return named_bb_code("bb72")


def weight_limited_errors(n, max_weight):
    """Every binary vector of weight <= max_weight, as (support, vector)."""
    import itertools

    for w in range(max_weight + 1):
        for support in itertools.combinations(range(n), w):
            e = np.zeros(n, dtype=np.uint8)
            e[list(support)] = 1
            yield support, e
