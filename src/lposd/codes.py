"""CSS code constructions, Tanner-graph utilities, and code serialization.

A CSS code is a pair of binary parity-check matrices (hx, hz) over the same
qubit set with hx @ hz.T == 0 over GF(2).  X checks (rows of hx) detect Z
errors; everything downstream of this module decodes Z errors against hx and
tests logical success against the rowspace of hz.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    CycleNotFound,
    EnumerationTooLarge,
    InvalidParameter,
    SamplingExhausted,
)
from .gf2 import (BinaryMatrix, _span_walk, as_bit_vector, kernel_basis, rank, read_matrix,
                  vector_to_bits, write_matrix)

__all__ = [
    "CssCode",
    "TannerGraph",
    "CodeParameters",
    "ZCycle",
    "rotated_surface_code",
    "hypergraph_product",
    "bivariate_bicycle_code",
    "named_bb_code",
    "BB_REGISTRY",
    "repetition_parity_check",
    "sample_random_hgp",
    "biregular_distance_floor",
    "classical_distance",
    "bfs_distance_to_flipped",
    "find_short_z_cycle",
    "save_code",
    "load_code",
]


@dataclass(frozen=True)
class TannerGraph:
    """Adjacency of the X and Z check graphs.

    ``x_supports[j]`` lists the qubits of X check j (sorted); the
    ``*_checks_of_qubit`` lists give the reverse adjacency.  ``x_edges``
    enumerates Tanner edges of the X graph as (qubit, check) pairs in
    deterministic order (by check, then by qubit within the check).
    ``x_edge_qubit`` and ``x_edge_check`` hold the same edges, in the same
    order, as two int64 arrays; they are the numpy decoders' one view of
    H_X, and ``z_edge_qubit``/``z_edge_check`` are the same view of H_Z.  A
    check may have no edges (an all-zero row).  BP and the
    'cuts' separation reduce over one segment per check that has edges:
    segment i starts at edge ``x_segment_start[i]`` and belongs to check
    ``x_segment_check[i]``, and edge k lies in segment ``x_edge_segment[k]``.
    """

    x_supports: tuple[tuple[int, ...], ...]
    z_supports: tuple[tuple[int, ...], ...]
    x_checks_of_qubit: tuple[tuple[int, ...], ...]
    z_checks_of_qubit: tuple[tuple[int, ...], ...]
    x_edges: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    x_edge_qubit: np.ndarray = field(init=False, repr=False, compare=False)
    x_edge_check: np.ndarray = field(init=False, repr=False, compare=False)
    x_segment_start: np.ndarray = field(init=False, repr=False, compare=False)
    x_segment_check: np.ndarray = field(init=False, repr=False, compare=False)
    x_edge_segment: np.ndarray = field(init=False, repr=False, compare=False)
    z_edge_qubit: np.ndarray = field(init=False, repr=False, compare=False)
    z_edge_check: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        qubits, checks = _edge_arrays(self.x_supports)
        live, starts, segment = np.unique(checks, return_index=True, return_inverse=True)
        z_qubits, z_checks = _edge_arrays(self.z_supports)
        for name, value in (("x_edges", tuple(zip(qubits.tolist(), checks.tolist()))),
                            ("x_edge_qubit", qubits), ("x_edge_check", checks),
                            ("x_segment_start", starts), ("x_segment_check", live),
                            ("x_edge_segment", segment),
                            ("z_edge_qubit", z_qubits), ("z_edge_check", z_checks)):
            object.__setattr__(self, name, value)


def _edge_arrays(supports: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The (qubit, check) edges of a check graph as two int64 arrays, by check
    and then by qubit within the check."""
    sizes = [len(sup) for sup in supports]
    qubits = np.fromiter(itertools.chain.from_iterable(supports),
                         dtype=np.int64, count=sum(sizes))
    return qubits, np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)


@dataclass(frozen=True)
class CodeParameters:
    n: int
    k: int
    distance_floor: int | None = None


class CssCode:
    """A CSS code given by its two parity-check matrices.

    Construction validates matching qubit counts and GF(2) orthogonality of
    the two matrices; violations raise InvalidParameter.
    """

    def __init__(self, hx: BinaryMatrix, hz: BinaryMatrix, name: str = "",
                 metadata: dict | None = None):
        if hx.n_cols != hz.n_cols:
            raise InvalidParameter(
                f"hx has {hx.n_cols} columns but hz has {hz.n_cols}"
            )
        if not hx.commutes_with(hz):
            raise InvalidParameter("hx @ hz.T != 0: checks do not commute")
        self.hx = hx
        self.hz = hz
        self.name = name
        self.metadata = dict(metadata or {})
        self._derived: dict = {}

    def __getstate__(self) -> dict:
        """A pickle or copy leaves the derived values out, solver handles included."""
        return {**self.__dict__, "_derived": {}}

    def _cached(self, build):
        """``build(self)``, kept under ``build``; a builder keeps no reference to the code."""
        if build not in self._derived:
            self._derived[build] = build(self)
        return self._derived[build]

    @property
    def n(self) -> int:
        return self.hx.n_cols

    @property
    def tanner(self) -> TannerGraph:
        return self._cached(_tanner_graph)

    def parameters(self) -> CodeParameters:
        """n, k and the floor the metadata declares now: distance, else distance_floor."""
        meta = self.metadata
        return CodeParameters(n=self.n, k=self.n - rank(self.hx) - rank(self.hz),
                              distance_floor=meta.get("distance", meta.get("distance_floor")))

    def syndrome(self, error) -> np.ndarray:
        """X-check syndrome of a Z-error vector: H_X·e over GF(2)."""
        return self._syndrome(as_bit_vector(error, self.n, "error"))

    def _syndrome(self, e: np.ndarray) -> np.ndarray:
        """``syndrome`` of an error the caller built as a uint8 0/1 vector of
        length n; nothing is checked."""
        tan = self.tanner
        counts = np.bincount(tan.x_edge_check[e[tan.x_edge_qubit].view(bool)],
                             minlength=self.hx.n_rows)
        return (counts & 1).astype(np.uint8)

    def max_check_weight(self) -> int:
        weights = [self.hx.row_weight(j) for j in range(self.hx.n_rows)]
        weights += [self.hz.row_weight(k) for k in range(self.hz.n_rows)]
        return max(weights, default=0)

    def __repr__(self) -> str:
        label = self.name or "css"
        return f"CssCode({label}, n={self.n})"


def _tanner_graph(code: CssCode) -> TannerGraph:
    """Supports of the rows of hx and hz, then of their cached transposes."""
    return TannerGraph(*(tuple(map(mat.row_support, range(mat.n_rows)))
                         for mat in (code.hx, code.hz, code.hx.transpose(), code.hz.transpose())))


def _check_declared_ldpc(code: CssCode, max_row: int, max_col: int) -> None:
    """Constructed families declare weight bounds; verify them at build."""
    for mat in (code.hx, code.hz):
        for what, bound, rows in (("check weight", max_row, mat.rows),
                                  ("qubit degree", max_col, mat.transpose().rows)):
            heaviest = max((row.bit_count() for row in rows), default=0)
            if heaviest > bound:
                raise InvalidParameter(f"{what} {heaviest} exceeds declared bound {bound}")
    code.metadata.setdefault("max_check_weight", max_row)
    code.metadata.setdefault("max_qubit_degree", max_col)


# ---------------------------------------------------------------------------
# rotated surface code
# ---------------------------------------------------------------------------


def rotated_surface_code(d: int) -> CssCode:
    """Distance-d rotated surface code on a d x d data-qubit grid.

    Data qubit (r, c) has index r*d + c.  Stabilizer cells sit on the
    (d+1) x (d+1) lattice of plaquette corners; cell parity decides the
    check type, and weight-2 half-cells survive only on two opposite
    boundaries per type, which yields (d^2 - 1)/2 checks of each type and
    a single logical qubit.
    """
    if d < 3 or d % 2 == 0:
        raise InvalidParameter("distance must be an odd integer >= 3")
    n = d * d

    def cell_qubits(i: int, j: int) -> list[int]:
        out = []
        for r, c in ((i - 1, j - 1), (i - 1, j), (i, j - 1), (i, j)):
            if 0 <= r < d and 0 <= c < d:
                out.append(r * d + c)
        return out

    x_rows: list[list[int]] = []
    z_rows: list[list[int]] = []
    for i in range(d + 1):
        for j in range(d + 1):
            qs = cell_qubits(i, j)
            if len(qs) < 2:
                continue
            is_x = (i + j) % 2 == 0
            bulk = 1 <= i <= d - 1 and 1 <= j <= d - 1
            if bulk:
                (x_rows if is_x else z_rows).append(qs)
            elif i in (0, d) and is_x:
                x_rows.append(qs)  # X half-cells live on top/bottom rows
            elif j in (0, d) and not is_x:
                z_rows.append(qs)  # Z half-cells live on left/right columns
    hx = BinaryMatrix.from_entries(
        len(x_rows), n, [(i, q) for i, qs in enumerate(x_rows) for q in qs]
    )
    hz = BinaryMatrix.from_entries(
        len(z_rows), n, [(i, q) for i, qs in enumerate(z_rows) for q in qs]
    )
    code = CssCode(hx, hz, name=f"surface-{d}",
                   metadata={"family": "surface", "distance": d})
    expected = (d * d - 1) // 2
    if hx.n_rows != expected or hz.n_rows != expected:
        raise InvalidParameter("internal: unexpected check count for surface layout")
    if code.parameters().k != 1:
        raise InvalidParameter("internal: surface layout does not encode one qubit")
    _check_declared_ldpc(code, max_row=4, max_col=4)
    return code


# ---------------------------------------------------------------------------
# hypergraph product
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HgpLayout:
    """Index bookkeeping for the product of an r1 x n1 and an r2 x n2 matrix.

    Qubits: (a, a') -> a*n2 + a' for a < n1, then (b, b') -> n1*n2 + b*r2 + b'.
    X checks: (a, b') -> a*r2 + b'.  Z checks: (b, a') -> b*n2 + a'.
    """

    n1: int
    r1: int
    n2: int
    r2: int

    @property
    def n_qubits(self) -> int:
        return self.n1 * self.n2 + self.r1 * self.r2

    def qubit_aa(self, a: int, a2: int) -> int:
        return a * self.n2 + a2

    def qubit_bb(self, b: int, b2: int) -> int:
        return self.n1 * self.n2 + b * self.r2 + b2

    def x_check(self, a: int, b2: int) -> int:
        return a * self.r2 + b2

    def z_check(self, b: int, a2: int) -> int:
        return b * self.n2 + a2


def hgp_layout(h1: BinaryMatrix, h2: BinaryMatrix) -> HgpLayout:
    return HgpLayout(n1=h1.n_cols, r1=h1.n_rows, n2=h2.n_cols, r2=h2.n_rows)


def _spread(bits: int, stride: int) -> int:
    """``bits`` with bit i moved to bit i * stride (stride >= 1)."""
    return int(("0" * (stride - 1)).join(f"{bits:b}"), 2)


def hypergraph_product(h1: BinaryMatrix, h2: BinaryMatrix,
                       name: str = "") -> CssCode:
    """Hypergraph product of two classical parity-check matrices.

    H_X = [I (x) H2 | H1^T (x) I] and H_Z = [H1 (x) I | I (x) H2^T] in
    ``HgpLayout``'s order, built on packed rows: X check (a, b') is row b'
    of h2 at qubit (a, 0), ORed with column a of h1 spread to stride r2 at
    qubit (0, b') of the second sector; Z check (b, a') likewise.
    """
    lay = hgp_layout(h1, h2)
    h1_cols = [_spread(col, lay.r2) for col in h1.transpose().rows]
    x_rows = [(row << lay.qubit_aa(a, 0)) | (col << lay.qubit_bb(0, b2))
              for a, col in enumerate(h1_cols) for b2, row in enumerate(h2.rows)]
    h1_rows = [_spread(row, lay.n2) for row in h1.rows]
    z_rows = [(row << lay.qubit_aa(0, a2)) | (col << lay.qubit_bb(b, 0))
              for b, row in enumerate(h1_rows) for a2, col in enumerate(h2.transpose().rows)]
    meta = {
        "family": "hgp",
        "h1_shape": [lay.r1, lay.n1],
        "h2_shape": [lay.r2, lay.n2],
    }
    return CssCode(BinaryMatrix(x_rows, lay.n_qubits), BinaryMatrix(z_rows, lay.n_qubits),
                   name=name or f"hgp-{lay.n_qubits}", metadata=meta)


def repetition_parity_check(n_bits: int) -> BinaryMatrix:
    """Path-graph parity check of the length-n repetition code ((n-1) x n)."""
    if n_bits < 2:
        raise InvalidParameter("repetition code needs at least 2 bits")
    return BinaryMatrix.from_dense(np.eye(n_bits - 1, n_bits, dtype=np.uint8)
                                   + np.eye(n_bits - 1, n_bits, k=1, dtype=np.uint8))


# ---------------------------------------------------------------------------
# bivariate bicycle codes
# ---------------------------------------------------------------------------


def _bivariate_poly(l: int, m: int, terms: Sequence[tuple[int, int]]) -> np.ndarray:
    """Sum over GF(2) of x^i y^j, x and y the cyclic shifts of Z_l and Z_m."""
    out = np.zeros((l * m, l * m), dtype=np.uint8)
    for (i, j) in terms:
        out ^= np.kron(np.roll(np.eye(l, dtype=np.uint8), i, axis=1),
                       np.roll(np.eye(m, dtype=np.uint8), j, axis=1))
    return out


def bivariate_bicycle_code(l: int, m: int,
                           a_terms: Sequence[tuple[int, int]],
                           b_terms: Sequence[tuple[int, int]],
                           expected_k: int | None = None,
                           name: str = "") -> CssCode:
    """Bivariate bicycle code over the group algebra of Z_l x Z_m.

    ``a_terms`` and ``b_terms`` list monomial exponents (i, j) standing for
    the product of the i-th power of the first cyclic shift and the j-th
    power of the second.  hx = [A | B], hz = [B.T | A.T].  When
    ``expected_k`` is given the build refuses a dimension mismatch.
    """
    if l < 1 or m < 1:
        raise InvalidParameter("cyclic group sizes must be positive")
    if not a_terms or not b_terms:
        raise InvalidParameter("each polynomial needs at least one monomial")
    for terms in (a_terms, b_terms):
        reduced = {(i % l, j % m) for i, j in terms}
        if len(reduced) != len(terms):
            raise InvalidParameter("duplicate monomials collapse over GF(2)")
    a = _bivariate_poly(l, m, a_terms)
    b = _bivariate_poly(l, m, b_terms)
    hx = BinaryMatrix.from_dense(np.hstack([a, b]))
    hz = BinaryMatrix.from_dense(np.hstack([b.T, a.T]))
    meta = {
        "family": "bb",
        "l": l,
        "m": m,
        "a_terms": [list(t) for t in a_terms],
        "b_terms": [list(t) for t in b_terms],
    }
    code = CssCode(hx, hz, name=name or f"bb-{2 * l * m}", metadata=meta)
    if expected_k is not None and code.parameters().k != expected_k:
        raise InvalidParameter(
            f"bb({l},{m}) encodes k={code.parameters().k}, expected {expected_k}"
        )
    _check_declared_ldpc(code, max_row=len(a_terms) + len(b_terms),
                         max_col=max(len(a_terms), len(b_terms)))
    return code


# Named parameter sets whose (n, k) have been verified by the rank formula.
# Monomial exponents follow the construction's published tables; the
# metadata distance is the published value and is not re-verified here.
BB_REGISTRY: dict[str, dict] = {
    "bb72": dict(l=6, m=6, a_terms=[(3, 0), (0, 1), (0, 2)],
                 b_terms=[(0, 3), (1, 0), (2, 0)], k=12, distance=6),
    "bb90": dict(l=15, m=3, a_terms=[(9, 0), (0, 1), (0, 2)],
                 b_terms=[(0, 0), (2, 0), (7, 0)], k=8, distance=10),
    "bb108": dict(l=9, m=6, a_terms=[(3, 0), (0, 1), (0, 2)],
                  b_terms=[(0, 3), (1, 0), (2, 0)], k=8, distance=10),
    "bb144": dict(l=12, m=6, a_terms=[(3, 0), (0, 1), (0, 2)],
                  b_terms=[(0, 3), (1, 0), (2, 0)], k=12, distance=12),
    "bb288": dict(l=12, m=12, a_terms=[(3, 0), (0, 2), (0, 7)],
                  b_terms=[(0, 3), (1, 0), (2, 0)], k=12, distance=18),
}


def named_bb_code(key: str) -> CssCode:
    try:
        spec = BB_REGISTRY[key]
    except KeyError:
        raise InvalidParameter(
            f"unknown bb code {key!r}; known: {sorted(BB_REGISTRY)}"
        ) from None
    code = bivariate_bicycle_code(
        spec["l"], spec["m"], spec["a_terms"], spec["b_terms"],
        expected_k=spec["k"], name=key,
    )
    code.metadata["distance"] = spec["distance"]
    return code


# ---------------------------------------------------------------------------
# classical distance and random hypergraph products
# ---------------------------------------------------------------------------


# Largest kernel dimension ``classical_distance`` enumerates, rejected draws
# after which ``sample_random_hgp`` gives up, and the distance floor required
# of a sampled (3,4)-biregular code at scale s.
_MAX_KERNEL_DIM = 24
_MAX_DRAWS = 20000
_BIREGULAR_DISTANCE_FLOOR = {1: 2, 2: 4, 3: 6, 4: 8, 5: 8, 6: 10}


def classical_distance(h: BinaryMatrix, cap: int | None = None) -> float:
    """Minimum weight of a nonzero kernel vector of h.

    Returns math.inf when the kernel is trivial (the zero code) or when the
    minimum exceeds ``cap``.  Kernels of dimension above ``_MAX_KERNEL_DIM``
    (24) raise EnumerationTooLarge rather than enumerate.
    """
    basis = kernel_basis(h)
    dim = len(basis)
    if dim == 0:
        return math.inf
    if dim > _MAX_KERNEL_DIM:
        raise EnumerationTooLarge(
            f"kernel dimension {dim} exceeds enumeration bound {_MAX_KERNEL_DIM}"
        )
    best = h.n_cols + 1
    for vector in _span_walk(0, [vector_to_bits(v, h.n_cols) for v in basis]):
        w = vector.bit_count()
        if w < best:
            best = w
            if best == 1:
                break
    if cap is not None and best > cap:
        return math.inf
    return best


def biregular_distance_floor(s: int) -> int:
    try:
        return _BIREGULAR_DISTANCE_FLOOR[s]
    except KeyError:
        raise InvalidParameter(f"scale s={s} outside supported range 1..6") from None


def _random_biregular(s: int, rng: np.random.Generator) -> BinaryMatrix | None:
    """One configuration-model draw of a simple connected (3,4)-biregular graph.

    Bits (4s of them) have degree 3; checks (3s) have degree 4.  Returns None
    when the draw has a repeated edge or is disconnected.
    """
    n_bits, n_checks = 4 * s, 3 * s
    stubs = rng.permutation(12 * s)
    edges = set()
    adjacency: list[list[int]] = [[] for _ in range(n_bits + n_checks)]
    for bit_stub, check_stub in enumerate(stubs):
        bit = bit_stub // 3
        check = int(check_stub) // 4
        if (check, bit) in edges:
            return None
        edges.add((check, bit))
        adjacency[bit].append(n_bits + check)
        adjacency[n_bits + check].append(bit)
    seen = {0}
    frontier = deque([0])
    while frontier:
        v = frontier.popleft()
        for u in adjacency[v]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    if len(seen) != n_bits + n_checks:
        return None
    return BinaryMatrix.from_entries(n_checks, n_bits, sorted(edges))


def sample_random_hgp(s: int, seed: int) -> CssCode:
    """Sample a random (3,4)-biregular classical code and take its product with itself.

    Accepted draws are simple, connected, and have both the code and its
    transpose code at distance >= the declared floor for s.  The result is a
    [[25 s^2, >= s^2, >= floor(s)]] CSS code.  Raises SamplingExhausted after
    ``_MAX_DRAWS`` (20000) rejected draws.
    """
    floor = biregular_distance_floor(s)
    rng = np.random.default_rng(seed)
    for attempt in range(1, _MAX_DRAWS + 1):
        h = _random_biregular(s, rng)
        if h is None:
            continue
        if classical_distance(h, cap=floor - 1) < floor:
            continue
        if classical_distance(h.transpose(), cap=floor - 1) < floor:
            continue
        code = hypergraph_product(h, h, name=f"random-hgp-s{s}-seed{seed}")
        code.metadata.update({
            "family": "random-hgp",
            "s": s,
            "seed": seed,
            "attempts": attempt,
            "distance_floor": floor,
        })
        if code.n != 25 * s * s:
            raise InvalidParameter("internal: unexpected block length")
        if code.parameters().k < s * s:
            raise InvalidParameter("internal: dimension below the product bound")
        _check_declared_ldpc(code, max_row=7, max_col=4)
        return code
    raise SamplingExhausted(
        f"no admissible (3,4)-biregular draw in {_MAX_DRAWS} attempts (s={s}, seed={seed})"
    )


# ---------------------------------------------------------------------------
# graph utilities
# ---------------------------------------------------------------------------


def bfs_distance_to_flipped(code: CssCode, s) -> np.ndarray:
    """Graph distance from each qubit to the nearest flipped X check.

    Distances are measured in the X Tanner graph (qubits at odd levels),
    with math.inf for qubits unreachable from any flipped check (in
    particular everywhere when the syndrome is all zero).  The search
    expands a whole level at a time over ``x_edge_qubit``/``x_edge_check``.
    """
    tan = code.tanner
    eq, ec = tan.x_edge_qubit, tan.x_edge_check
    dist_q = np.full(code.n, math.inf)
    seen_c = as_bit_vector(s, code.hx.n_rows, "syndrome").astype(bool)
    frontier, level = seen_c, 1.0
    while True:
        new_q = (np.bincount(eq[frontier[ec]], minlength=code.n) > 0) & np.isinf(dist_q)
        if not new_q.any():
            return dist_q
        dist_q[new_q] = level
        frontier = (np.bincount(ec[new_q[eq]], minlength=seen_c.size) > 0) & ~seen_c
        seen_c |= frontier
        level += 2.0


@dataclass(frozen=True)
class ZCycle:
    """A simple cycle in the Z Tanner graph.

    ``qubits[t]`` joins ``checks[t]`` and ``checks[(t+1) % K]``; the two
    tuples have equal length K and the cycle has 2K vertices.
    """

    checks: tuple[int, ...]
    qubits: tuple[int, ...]

    def __len__(self) -> int:
        return 2 * len(self.checks)


def _bfs_cycle_path(tan: TannerGraph, start_check: int, goal_qubit: int,
                    max_len: int) -> ZCycle | None:
    """Shortest Z-graph cycle through the edge (start_check, goal_qubit), or
    None when it is longer than ``max_len`` vertices.

    Breadth-first search for the shortest path from the check to the qubit
    that avoids their direct edge; that edge closes it into the cycle.
    """
    skip_edge = (start_check, goal_qubit)
    parent: dict[tuple[bool, int], tuple[bool, int] | None] = {
        (True, start_check): None
    }
    frontier = deque([((True, start_check), 0)])
    while frontier:
        (is_check, v), depth = frontier.popleft()
        if depth >= max_len - 1:
            continue
        neighbors = tan.z_supports[v] if is_check else tan.z_checks_of_qubit[v]
        for u in neighbors:
            key = (not is_check, u)
            edge = (v, u) if is_check else (u, v)
            if edge == skip_edge or key in parent:
                continue
            parent[key] = (is_check, v)
            if key == (False, goal_qubit):
                path: list[tuple[bool, int]] = [key]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                path.reverse()
                return ZCycle(checks=tuple(idx for is_c, idx in path if is_c),
                              qubits=tuple(idx for is_c, idx in path if not is_c))
            frontier.append((key, depth + 1))
    return None


def find_short_z_cycle(code: CssCode, max_len: int) -> ZCycle:
    """Shortest cycle in the Z Tanner graph, if its length is <= max_len.

    Uses the edge-deletion breadth-first search over every Tanner edge, so
    the returned cycle is globally minimal.  Raises CycleNotFound when the
    girth exceeds ``max_len`` (or no cycle exists).
    """
    tan = code.tanner
    best: ZCycle | None = None
    for k in range(code.hz.n_rows):
        for q in tan.z_supports[k]:
            # lengths are even: only a cycle two vertices shorter improves on best
            cycle = _bfs_cycle_path(tan, k, q, max_len if best is None else len(best) - 2)
            if cycle is not None:
                best = cycle
                if len(best) == 4:
                    return best
    if best is None:
        raise CycleNotFound(f"no Z-graph cycle of length <= {max_len}")
    return best


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def save_code(code: CssCode, directory) -> None:
    """Write hx.txt, hz.txt and meta.json into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    write_matrix(code.hx, os.path.join(directory, "hx.txt"))
    write_matrix(code.hz, os.path.join(directory, "hz.txt"))
    params = code.parameters()
    meta = {
        "name": code.name,
        "n": params.n,
        "k": params.k,
        "distance": params.distance_floor,
        "seed": code.metadata.get("seed"),
        "metadata": _jsonable(code.metadata),
    }
    with open(os.path.join(directory, "meta.json"), "w", encoding="ascii") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def load_code(directory) -> CssCode:
    hx = read_matrix(os.path.join(directory, "hx.txt"))
    hz = read_matrix(os.path.join(directory, "hz.txt"))
    meta_path = os.path.join(directory, "meta.json")
    name = ""
    metadata: dict = {}
    if os.path.exists(meta_path):
        with open(meta_path, "r", encoding="ascii") as fh:
            meta = json.load(fh)
        name = meta.get("name", "")
        metadata = meta.get("metadata", {}) or {}
    return CssCode(hx, hz, name=name, metadata=metadata)
