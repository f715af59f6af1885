"""``bfs_distance_to_flipped`` as it stood before its array rewrite.

Bitwise oracle for ``lposd.codes.bfs_distance_to_flipped``: the production
search expands whole frontiers over the X Tanner edge arrays and must
return the same float64 distances, ``inf`` included, as this per-node
breadth-first search.  Kept verbatim; do not tune it.
"""

import math
from collections import deque

import numpy as np


def reference_bfs_distance_to_flipped(code, s) -> np.ndarray:
    s_arr = np.asarray(s, dtype=np.uint8)
    tan = code.tanner
    n = code.n
    dist_q = np.full(n, math.inf)
    dist_c = np.full(code.hx.n_rows, math.inf)
    frontier: deque[tuple[bool, int]] = deque()
    for j in np.flatnonzero(s_arr):
        dist_c[j] = 0
        frontier.append((True, int(j)))
    while frontier:
        is_check, v = frontier.popleft()
        if is_check:
            for q in tan.x_supports[v]:
                if math.isinf(dist_q[q]):
                    dist_q[q] = dist_c[v] + 1
                    frontier.append((False, q))
        else:
            for j in tan.x_checks_of_qubit[v]:
                if math.isinf(dist_c[j]):
                    dist_c[j] = dist_q[v] + 1
                    frontier.append((True, j))
    return dist_q
