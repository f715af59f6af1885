"""Min-sum belief propagation baseline.

Syndrome-based message passing on the X Tanner graph with a flooding
schedule.  Check-to-qubit messages at iteration t are scaled by
1 - 2^-t, so early iterations are damped and the factor approaches 1.
The decoder stops as soon as its running hard decision reproduces the
syndrome; non-convergence within the iteration budget is reported as a
flag, never an error.  Reliabilities suitable for OSD ordering are the
posterior error probabilities 1/(1+exp(L_i)).  The OSD fallback after a
stall is chained on in ``sim``, like the LP pipelines' second stage.

H_X is read only through the code's Tanner edge arrays
(``code.tanner.x_edge_qubit``/``x_edge_check``); a check without edges
takes no part in the message passing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import CssCode
from .errors import InvalidParameter

__all__ = ["BpConfig", "BpResult", "min_sum_bp"]

_CLAMP = 50.0


@dataclass
class BpConfig:
    channel_p: float = 0.05
    max_iterations: int | None = None  # None means the block length

    def __post_init__(self):
        if not 0.0 < self.channel_p < 0.5:
            raise InvalidParameter("channel_p must lie in (0, 1/2)")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise InvalidParameter("max_iterations must be >= 1")


@dataclass
class BpResult:
    hard: np.ndarray
    soft: np.ndarray
    converged: bool
    iterations: int


def _error_probability(posterior: np.ndarray) -> np.ndarray:
    """1/(1+exp(L)) per qubit; an overflow to inf correctly gives 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(posterior))


def min_sum_bp(code: CssCode, s, cfg: BpConfig) -> BpResult:
    """Run scaled min-sum BP against syndrome s; see the module docstring."""
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

