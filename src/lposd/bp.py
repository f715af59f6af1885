"""Min-sum belief propagation baseline.

Syndrome-based message passing on the X Tanner graph with a flooding
schedule.  Check-to-qubit messages at iteration t are scaled by
1 - 2^-t, so early iterations are damped and the factor approaches 1.
The decoder stops as soon as its running hard decision reproduces the
syndrome; non-convergence within the iteration budget is reported as a
flag, never an error.  Reliabilities suitable for OSD ordering are the
posterior error probabilities 1/(1+exp(L_i)).  The OSD fallback after a
stall is chained on in ``sim``, like the LP pipelines' second stage.

H_X is read only through the code's Tanner edge arrays and their per-check
segments (``code.tanner.x_edge_qubit``, ``x_segment_start`` and so on); a
check without edges has no segment and takes no part in the message
passing, and a syndrome that flips one never converges.  Each shortcut of
the lean kernel is exact in IEEE arithmetic:
qubit-to-check messages reuse the previous posterior (already ``prior +
totals``); signs come from the unclipped messages, since clipping keeps
signs, as the XOR parity of each check's negative inputs and syndrome bit
applied by multiplying by +-1; and ``min(alpha * magnitude, 50)`` before
the sign equals clipping after it, since rounding is symmetric (it only
bites on weight-1 checks, where the second minimum is inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import CssCode
from .errors import InvalidParameter
from .gf2 import as_bit_vector

__all__ = ["DEFAULT_CHANNEL_P", "BpConfig", "BpResult", "min_sum_bp"]

# The channel prior of a BP decode that is given no error rate.
DEFAULT_CHANNEL_P = 0.05

_CLAMP = 50.0
_SIGN = np.array([1.0, -1.0])


@dataclass
class BpConfig:
    channel_p: float = DEFAULT_CHANNEL_P
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
    eq, ptr, seg = tan.x_edge_qubit, tan.x_segment_start, tan.x_edge_segment
    n = code.n
    n_edges = eq.size
    s_arr = as_bit_vector(s, code.hx.n_rows, "syndrome")
    max_iter = cfg.max_iterations if cfg.max_iterations is not None else n
    prior = math.log((1.0 - cfg.channel_p) / cfg.channel_p)

    # the per-check reductions run over the segments of the checks that have edges
    s_live = s_arr[tan.x_segment_check].astype(bool)
    satisfiable = s_live.sum() == s_arr.sum()  # no flipped check lacks edges
    edge_index = np.arange(n_edges)
    c2v = np.zeros(n_edges)
    posterior = np.full(n, prior)
    hard = np.zeros(n, dtype=bool)
    for t in range(1, max_iter + 1):
        alpha = 1.0 - 2.0 ** (-t)
        v2c = posterior[eq] - c2v
        neg = v2c < 0.0  # sign(0) counts as +
        mag = np.minimum(np.abs(v2c), _CLAMP)

        # per-check sign parity (with the syndrome bit) and two smallest
        # magnitudes; an edge's outgoing sign leaves its own sign out
        flip = (np.bitwise_xor.reduceat(neg, ptr) ^ s_live)[seg] ^ neg
        min1 = np.minimum.reduceat(mag, ptr)
        out_mag = min1[seg]
        first_min = np.minimum.reduceat(
            np.where(mag == out_mag, edge_index, n_edges), ptr
        )
        mag[first_min] = np.inf
        out_mag[first_min] = np.minimum.reduceat(mag, ptr)
        c2v = np.minimum(alpha * out_mag, _CLAMP)
        c2v *= _SIGN[flip.view(np.uint8)]

        posterior = prior + np.bincount(eq, weights=c2v, minlength=n)
        hard = posterior < 0.0
        if satisfiable and (np.bitwise_xor.reduceat(hard[eq], ptr) == s_live).all():
            return BpResult(hard=hard.astype(np.uint8), soft=_error_probability(posterior),
                            converged=True, iterations=t)
    return BpResult(hard=hard.astype(np.uint8), soft=_error_probability(posterior),
                    converged=False, iterations=max_iter)
