"""GF(2) linear algebra on bit-packed rows.

Rows are Python integers used as bitsets (bit ``c`` of row ``r`` is the matrix
entry ``(r, c)``), so row operations are single XORs regardless of width.
All public functions accept and return numpy ``uint8`` vectors at the
boundary; the packed representation is internal.
``as_bit_vector`` checks every syndrome, error, correction and reference
argument in the package, and ``as_weight_vector`` every per-qubit cost vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


__all__ = [
    "BinaryMatrix",
    "as_bit_vector",
    "as_weight_vector",
    "RowReduction",
    "rank",
    "row_reduce",
    "in_rowspace",
    "kernel_basis",
    "vector_to_bits",
    "bits_to_vector",
    "write_matrix",
    "read_matrix",
    "matrix_to_text",
    "matrix_from_text",
]


def as_bit_vector(v, length: int, name: str) -> np.ndarray:
    """``v`` as a new uint8 vector; ValueError naming ``name`` unless ``v`` is
    1-D with ``length`` entries, each 0 or 1.  Nothing is reduced mod 2."""
    arr = np.asarray(v)
    if arr.shape != (length,):
        raise ValueError(f"{name} must have length {length}")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError(f"{name} entries must be 0 or 1")
    return arr.astype(np.uint8)


def as_weight_vector(weights, length: int) -> np.ndarray:
    """Per-qubit costs as a float vector of ``length`` finite entries, or ValueError."""
    arr = np.asarray(weights, dtype=float)
    if arr.shape != (length,):
        raise ValueError(f"weights must have length {length}")
    if not np.isfinite(arr).all():
        raise ValueError("weights must be finite")
    return arr


def vector_to_bits(v: Sequence[int] | np.ndarray, length: int) -> int:
    """Pack a 0/1 vector into an int bitset (bit i = entry i)."""
    # little-endian byte packing matches bit i of the int being entry i
    packed = np.packbits(as_bit_vector(v, length, "vector"), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def bits_to_vector(bits: int, length: int) -> np.ndarray:
    """Unpack an int bitset into a numpy uint8 vector of the given length."""
    nbytes = (length + 7) // 8
    raw = np.frombuffer(bits.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:length].copy()


class BinaryMatrix:
    """Immutable binary matrix stored as bit-packed rows.

    Treat instances as read-only: derived data (reduced form, transpose)
    is cached on first use.
    """

    __slots__ = ("_rows", "_n_cols", "_cache")

    def __init__(self, rows: Iterable[int], n_cols: int):
        rows = tuple(int(r) for r in rows)
        if n_cols < 0:
            raise ValueError("n_cols must be nonnegative")
        for r in rows:
            if r < 0 or r >> n_cols:
                raise ValueError("row bits exceed n_cols")
        self._rows = rows
        self._n_cols = n_cols
        self._cache: dict = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dense(cls, array) -> "BinaryMatrix":
        """Rows of a 2-D 0/1 array; ValueError for any other entry (nothing
        is reduced mod 2)."""
        arr = np.asarray(array)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        bits = as_bit_vector(arr.reshape(-1), arr.size, "matrix").reshape(arr.shape)
        packed = np.packbits(bits, axis=1, bitorder="little")
        return cls((int.from_bytes(row.tobytes(), "little") for row in packed), arr.shape[1])

    @classmethod
    def from_entries(cls, n_rows: int, n_cols: int,
                     entries: Iterable[tuple[int, int]]) -> "BinaryMatrix":
        rows = [0] * n_rows
        for i, j in entries:
            if not (0 <= i < n_rows and 0 <= j < n_cols):
                raise ValueError(f"entry ({i}, {j}) out of bounds")
            rows[i] ^= 1 << j
        return cls(rows, n_cols)

    # -- basic accessors ---------------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self._rows)

    @property
    def n_cols(self) -> int:
        return self._n_cols

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self._rows), self._n_cols)

    @property
    def rows(self) -> tuple[int, ...]:
        """Rows as int bitsets."""
        return self._rows

    def row_support(self, i: int) -> tuple[int, ...]:
        """Sorted column indices of the ones in row i."""
        bits = self._rows[i]
        out = []
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return tuple(out)

    def row_weight(self, i: int) -> int:
        return self._rows[i].bit_count()

    def get(self, i: int, j: int) -> int:
        return (self._rows[i] >> j) & 1

    def to_dense(self) -> np.ndarray:
        if self.n_rows == 0:
            return np.zeros((0, self._n_cols), dtype=np.uint8)
        return np.stack([bits_to_vector(r, self._n_cols) for r in self._rows])

    def transpose(self) -> "BinaryMatrix":
        cached = self._cache.get("transpose")
        if cached is None:
            cols = [0] * self._n_cols
            for i in range(len(self._rows)):
                for c in self.row_support(i):
                    cols[c] |= 1 << i
            cached = BinaryMatrix(cols, len(self._rows))
            self._cache["transpose"] = cached
        return cached

    # -- arithmetic --------------------------------------------------------

    def mat_vec(self, v) -> np.ndarray:
        """Matrix-vector product over GF(2)."""
        bits = vector_to_bits(v, self._n_cols)
        out = np.empty(len(self._rows), dtype=np.uint8)
        for i, r in enumerate(self._rows):
            out[i] = (r & bits).bit_count() & 1
        return out

    def commutes_with(self, other: "BinaryMatrix") -> bool:
        """True when self @ other.T == 0 over GF(2): per row of self, the
        columns of other over its support sum to zero."""
        if self._n_cols != other.n_cols:
            raise ValueError("matrices act on different column spaces")
        cols = other.transpose().rows
        for i in range(len(self._rows)):
            total = 0
            for c in self.row_support(i):
                total ^= cols[c]
            if total:
                return False
        return True

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryMatrix)
            and self._n_cols == other._n_cols
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self._rows, self._n_cols))

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.n_rows}x{self.n_cols})"


@dataclass(frozen=True)
class RowReduction:
    """Result of full row reduction.

    ``reduced`` is in reduced row-echelon form, its rows span the original
    rows, and ``pivot_cols[r]`` is the pivot column of reduced row ``r``.
    """

    reduced: BinaryMatrix
    pivot_cols: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)


def row_reduce(m: BinaryMatrix) -> RowReduction:
    """Full reduced row-echelon form, cached on the matrix; pivots are
    chosen as the first nonzero row per column."""
    cached = m._cache.get("rref")
    if cached is not None:
        return cached
    rows = list(m.rows)
    pivot_cols: list[int] = []
    r = 0
    n_rows = len(rows)
    for c in range(m.n_cols):
        mask = 1 << c
        pivot = next((i for i in range(r, n_rows) if rows[i] & mask), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(n_rows):
            if i != r and rows[i] & mask:
                rows[i] ^= rows[r]
        pivot_cols.append(c)
        r += 1
        if r == n_rows:
            break
    result = RowReduction(reduced=BinaryMatrix(rows, m.n_cols), pivot_cols=tuple(pivot_cols))
    m._cache["rref"] = result
    return result


def rank(m: BinaryMatrix) -> int:
    return row_reduce(m).rank


def in_rowspace(m: BinaryMatrix, v) -> bool:
    """True when v is a GF(2) linear combination of the rows of m."""
    red = row_reduce(m)
    bits = vector_to_bits(v, m.n_cols)
    for r, c in zip(red.reduced.rows, red.pivot_cols):
        if (bits >> c) & 1:
            bits ^= r
    return bits == 0


def kernel_basis(m: BinaryMatrix) -> list[np.ndarray]:
    """Basis of the right kernel {v : m v = 0}, one vector per free column."""
    red = row_reduce(m)
    pivots = set(red.pivot_cols)
    col_of_row = dict(enumerate(red.pivot_cols))
    basis = []
    for free in range(m.n_cols):
        if free in pivots:
            continue
        bits = 1 << free
        for r in range(red.rank):
            if (red.reduced.rows[r] >> free) & 1:
                bits |= 1 << col_of_row[r]
        basis.append(bits_to_vector(bits, m.n_cols))
    return basis


# -- sparse text serialization ---------------------------------------------
#
# Line 1: "<n_rows> <n_cols>".  Line i+1: the 0-based column indices of the
# ones in row i, space separated; an empty line is an all-zero row.


def matrix_to_text(m: BinaryMatrix) -> str:
    lines = [f"{m.n_rows} {m.n_cols}"]
    for i in range(m.n_rows):
        lines.append(" ".join(str(c) for c in m.row_support(i)))
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> BinaryMatrix:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad header line: {lines[0]!r}")
    n_rows, n_cols = int(header[0]), int(header[1])
    if len(lines) - 1 != n_rows:
        raise ValueError(f"expected {n_rows} row lines, found {len(lines) - 1}")
    entries = []
    for i in range(n_rows):
        for tok in lines[i + 1].split():
            entries.append((i, int(tok)))
    return BinaryMatrix.from_entries(n_rows, n_cols, entries)


def write_matrix(m: BinaryMatrix, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(matrix_to_text(m))


def read_matrix(path) -> BinaryMatrix:
    with open(path, "r", encoding="ascii") as fh:
        return matrix_from_text(fh.read())
