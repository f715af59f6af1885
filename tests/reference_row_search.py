"""``patterns._row_search`` as it stood before its vectorised rewrite.

Oracle for ``lposd.patterns._row_search``: the production screen tries only the
Z rows that meet the error and their pairs, and must return the same first
strictly lighter combination, in the same order, as this loop over single
rows and row pairs.  Kept verbatim; do not tune it.
"""

import itertools

_REDUCE_BUDGET = 2


def reference_row_search(code, e_bits: int) -> int | None:
    """A strictly lighter error that adds up to ``_REDUCE_BUDGET`` Z check rows, or None."""
    weight = e_bits.bit_count()
    for size in range(1, _REDUCE_BUDGET + 1):
        for combo in itertools.combinations(code.hz.rows, size):
            cand = e_bits
            for row in combo:
                cand ^= row
            if cand.bit_count() < weight:
                return cand
    return None
