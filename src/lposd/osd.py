"""Ordered-statistics rounding of soft decoder output.

Qubits are sorted by how unreliable the soft information says they are;
the first rank(H_X) linearly independent columns in that order form the
committed set, which is inverted against the syndrome.  The zero-order
variant stops there; the combination-sweep variant additionally tries
every weight-1 pattern on the leftover set and every weight-2 pattern on
its first ``lam`` positions, keeping the lightest syndrome-consistent
candidate.  Either way the output reproduces the syndrome exactly, which
independent rounding cannot promise.

This module is the second stage only: ``sim`` runs the LP and
message-passing front ends that supply the soft vector, and hands their
undecided outcomes here.  It keeps no per-code cache: it reads H_X's
packed columns and rank, which ``BinaryMatrix`` caches.

Both steps use one incremental column basis (``_column_basis``).  The
ordering reduces the permuted columns until rank(H_X) are independent.
The elimination rebuilds the basis over the committed columns alone,
each vector tagged with the committed columns it sums, and reads the
solutions for s and for every remainder column off the tags of their
reductions.  Neither builds the m x (n+1) augmented matrix: on 300
stalled bb144 BP syndromes at p=0.06 (2-CPU Xeon) the elimination took
0.25 ms per syndrome (median) against 0.79 ms for a packed-row RREF of
[H_committed | H_remainder | s].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codes import CssCode, bfs_distance_to_flipped
from .errors import InvalidParameter, SingularSubmatrix
from .gf2 import as_bit_vector, as_weight_vector, rank, vector_to_bits

__all__ = [
    "DEFAULT_LAM",
    "OsdConfig",
    "QubitOrdering",
    "order_qubits",
    "osd0",
    "osd_cs",
    "osd_postprocess",
]

# Soft values are snapped to a grid before sorting so that solver noise far
# below any meaningful signal cannot reorder genuinely tied qubits.
_SOFT_QUANTUM = 1e-9

# The combination-sweep window of every entry point that is given none.
DEFAULT_LAM = 60


@dataclass
class OsdConfig:
    order: str = "osd_cs"  # "osd0" | "osd_cs"
    lam: int = DEFAULT_LAM
    tie_break: str = "distance"  # "distance" | "random"

    def __post_init__(self):
        if self.order not in ("osd0", "osd_cs"):
            raise InvalidParameter(f"unknown OSD order {self.order!r}")
        if self.lam < 0:
            raise InvalidParameter("lam must be >= 0")
        if self.tie_break not in ("distance", "random"):
            raise InvalidParameter(f"unknown tie_break {self.tie_break!r}")


@dataclass
class QubitOrdering:
    """Sorted qubits split into the committed set and the remainder.

    ``committed`` holds the first rank(H_X) qubits whose columns are
    linearly independent, in permutation order; ``remainder`` is every
    other qubit, also in permutation order.
    """

    permutation: np.ndarray
    committed: np.ndarray
    remainder: np.ndarray


def order_qubits(soft, code: CssCode, s, cfg: OsdConfig,
                 rng: np.random.Generator | None = None) -> QubitOrdering:
    """Sort qubits by descending soft value and pick the committed set.

    Ties break by ascending distance to the nearest flipped check (with
    unreachable qubits last) or by a shuffle drawn from ``rng``, which
    defaults to ``np.random.default_rng(0)``; the final tie-break is
    ascending qubit index, so the ordering is deterministic.
    """
    soft_arr = np.asarray(soft, dtype=float)
    n = code.n
    if soft_arr.shape != (n,):
        raise ValueError(f"soft vector must have length {n}")
    s = as_bit_vector(s, code.hx.n_rows, "syndrome")
    quantized = np.round(soft_arr / _SOFT_QUANTUM)
    if cfg.tie_break == "distance":
        tie_key = bfs_distance_to_flipped(code, s)
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        tie_key = rng.random(n)
    perm = np.lexsort((np.arange(n), tie_key, -quantized))

    picked = _column_basis(code, perm, rank(code.hx))[1]
    return QubitOrdering(perm, committed=perm[picked], remainder=np.delete(perm, picked))


def _column_basis(code: CssCode, order, stop: int) -> tuple[dict[int, int], list[int]]:
    """Reduce H_X's columns in ``order`` until ``stop`` of them are independent.

    Returns (basis, picked).  ``picked`` holds the positions in ``order`` of
    the independent columns.  A basis vector is an int whose bits from
    ``stop`` up are checks, keyed by its bit length; below them, bit k
    marks picked column k as a term of the sum it stands for.
    """
    cols = code.hx.transpose().rows  # column q of H_X as a bitset over checks
    basis: dict[int, int] = {}
    picked: list[int] = []
    for i, q in enumerate(order):
        if len(picked) == stop:
            break
        v = cols[q] << stop | 1 << len(picked)
        while (p := v.bit_length()) > stop:
            b = basis.get(p)
            if b is None:
                basis[p] = v
                picked.append(i)
                break
            v ^= b
    return basis, picked


def _eliminate(code: CssCode, ordering: QubitOrdering, s) -> tuple[np.ndarray, np.ndarray]:
    """Solve for s and for each remainder column in the committed columns.

    Returns (base, reach): ``base`` is the committed-set solution of
    H·e = s with the remainder forced to zero; ``reach`` maps each
    remainder column into committed coordinates, so flipping remainder
    qubit t changes the committed part by reach[:, t].  Both are expressed
    in committed order.  A vector reduced to zero check bits against the
    committed columns' basis keeps its solution in the tag bits.
    """
    r = ordering.committed.size
    basis, picked = _column_basis(code, ordering.committed, r)
    if len(picked) < r:
        col = next(k for k, i in enumerate(picked + [r]) if k != i)
        raise SingularSubmatrix(f"committed column {col} became dependent")
    cols = code.hx.transpose().rows
    targets = [vector_to_bits(as_bit_vector(s, code.hx.n_rows, "syndrome"), code.hx.n_rows)]
    targets += [cols[q] for q in ordering.remainder]
    nbytes = r // 8 + 1
    tags = []
    for v in targets:
        v <<= r
        while (p := v.bit_length()) > r:
            b = basis.get(p)
            if b is None:
                raise SingularSubmatrix("syndrome outside the check-matrix column space")
            v ^= b
        tags.append(v.to_bytes(nbytes, "little"))
    packed = np.frombuffer(b"".join(tags), dtype=np.uint8).reshape(len(tags), nbytes)
    bits = np.unpackbits(packed, axis=1, count=r, bitorder="little")
    return bits[0], bits[1:].T


def _scatter(code: CssCode, ordering: QubitOrdering,
             committed_bits: np.ndarray, remainder_picks: Sequence[int]) -> np.ndarray:
    out = np.zeros(code.n, dtype=np.uint8)
    out[ordering.committed] = committed_bits
    for t in remainder_picks:
        out[ordering.remainder[t]] = 1
    return out


def osd0(code: CssCode, s, ordering: QubitOrdering) -> np.ndarray:
    """Zero-order correction: invert the committed set against s."""
    base, _ = _eliminate(code, ordering, s)
    return _scatter(code, ordering, base, ())


def osd_cs(code: CssCode, s, ordering: QubitOrdering, lam: int = DEFAULT_LAM,
           weights=None) -> np.ndarray:
    """Combination-sweep correction.

    Candidates, in enumeration order: the zero-order solution, every
    weight-1 pattern on the remainder, and every weight-2 pattern within
    the first min(lam, |remainder|) remainder positions (lexicographic).
    The lightest candidate wins, by Hamming weight or, when per-qubit
    ``weights`` are given, by the sum of the weights of its flipped qubits;
    ties go to the earliest enumerated.
    """
    base, reach = _eliminate(code, ordering, s)
    n_t = ordering.remainder.size
    # cost of each committed and each remainder qubit; unit costs sum exactly
    w_arr = np.ones(code.n) if weights is None else as_weight_vector(weights, code.n)
    w_com, w_rem = w_arr[ordering.committed], w_arr[ordering.remainder]
    reach_f = reach.astype(float)
    w_base = w_com * base
    base_weight = w_base.sum()
    col_weight = w_com @ reach_f
    overlap = w_base @ reach_f
    weights_1 = base_weight + col_weight - 2 * overlap + w_rem

    lam_eff = min(lam, n_t)
    window = reach_f[:, :lam_eff]
    gram = (window * w_com[:, None]).T @ window
    base_gram = (window * w_base[:, None]).T @ window
    ca = col_weight[:lam_eff]
    ua = overlap[:lam_eff]
    pair_a, pair_b = np.triu_indices(lam_eff, k=1)  # empty below two positions
    xor_weight = ca[pair_a] + ca[pair_b] - 2 * gram[pair_a, pair_b]
    xor_overlap = ua[pair_a] + ua[pair_b] - 2 * base_gram[pair_a, pair_b]
    weights_2 = (base_weight + xor_weight - 2 * xor_overlap
                 + w_rem[pair_a] + w_rem[pair_b])

    all_weights = np.concatenate(([base_weight], weights_1, weights_2))
    winner = int(np.argmin(all_weights))
    if winner == 0:
        return _scatter(code, ordering, base, ())
    if winner <= n_t:
        t = winner - 1
        return _scatter(code, ordering, base ^ reach[:, t], (t,))
    p = winner - 1 - n_t
    t1, t2 = int(pair_a[p]), int(pair_b[p])
    return _scatter(code, ordering, base ^ reach[:, t1] ^ reach[:, t2], (t1, t2))


def osd_postprocess(code: CssCode, s, soft, cfg: OsdConfig,
                    rng: np.random.Generator | None = None,
                    weights=None) -> tuple[np.ndarray, str]:
    """Order by the soft vector, then run the configured OSD stage.

    ``weights`` are per-qubit costs for the combination sweep; None ranks
    its candidates by Hamming weight.
    """
    ordering = order_qubits(soft, code, s, cfg, rng=rng)
    if cfg.order == "osd0":
        return osd0(code, s, ordering), "osd-0"
    return osd_cs(code, s, ordering, cfg.lam, weights), "osd-cs"

