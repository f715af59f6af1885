"""The vectorised min-sum kernel as it stood before its lean rewrite.

Bitwise oracle for ``lposd.bp.min_sum_bp``: the production kernel reuses
the posterior, takes signs by XOR parity and clamps before the sign, and
must reproduce this one exactly (same ``converged``, ``iterations``,
``hard`` and the bytes of ``soft``).  Kept verbatim; do not tune it.
"""

import math

import numpy as np

from lposd.bp import BpResult, _error_probability

_CLAMP = 50.0


def reference_min_sum_bp(code, s, cfg) -> BpResult:
    tan = code.tanner
    eq, ec = tan.x_edge_qubit, tan.x_edge_check
    n = code.n
    n_edges = eq.size
    s_arr = np.asarray(s, dtype=np.uint8) & 1
    max_iter = cfg.max_iterations if cfg.max_iterations is not None else n
    prior = math.log((1.0 - cfg.channel_p) / cfg.channel_p)
    syn_sign = 1.0 - 2.0 * s_arr[ec]

    # the per-check reductions run over the checks that have edges: ptr
    # holds each one's first edge and seg maps an edge to its check's slot
    opens = np.diff(ec, prepend=-1) != 0
    ptr = np.flatnonzero(opens)
    seg = np.cumsum(opens) - 1
    edge_index = np.arange(n_edges)
    c2v = np.zeros(n_edges)
    posterior = np.full(n, prior)
    hard = np.zeros(n, dtype=np.uint8)
    for t in range(1, max_iter + 1):
        alpha = 1.0 - 2.0 ** (-t)
        totals = np.bincount(eq, weights=c2v, minlength=n)
        v2c = np.clip(prior + totals[eq] - c2v, -_CLAMP, _CLAMP)

        # per-check sign product and two smallest magnitudes
        sg = np.where(v2c < 0.0, -1.0, 1.0)  # sign(0) counts as +
        neg = np.add.reduceat((sg < 0.0).astype(np.int64), ptr)
        prod_sign = 1.0 - 2.0 * (neg & 1)
        mag = np.abs(v2c)
        min1 = np.minimum.reduceat(mag, ptr)
        first_min = np.minimum.reduceat(
            np.where(mag == min1[seg], edge_index, n_edges), ptr
        )
        masked = mag.copy()
        masked[first_min] = np.inf
        min2 = np.minimum.reduceat(masked, ptr)
        out_mag = min1[seg]
        out_mag[first_min] = min2
        c2v = np.clip(alpha * syn_sign * prod_sign[seg] * sg * out_mag,
                      -_CLAMP, _CLAMP)

        posterior = prior + np.bincount(eq, weights=c2v, minlength=n)
        hard = (posterior < 0.0).astype(np.uint8)
        if np.array_equal(code.syndrome(hard), s_arr):
            return BpResult(hard=hard, soft=_error_probability(posterior),
                            converged=True, iterations=t)
    return BpResult(hard=hard, soft=_error_probability(posterior), converged=False,
                    iterations=max_iter)
