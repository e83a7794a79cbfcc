"""Dense 0/1 matrices with GF(2) and integer-arithmetic semantics.

Rows are stored as Python integers used as bitsets (bit ``j`` = column
``j``), which makes elimination a matter of XORing machine words.  The
GF(2) products of the solution-set randomizer are here; the integer product
of the linear-system randomizer (:mod:`satcloak.matrixrand`) reads the
matrix as a numpy grid of 0/1 entries (:func:`_bit_grid`).

No random matrix draw can fail.  The sparse one is a permuted unit
lower-triangular matrix; the dense one draws each row outside the span of
the rows before it, tested against the pivot table that :func:`gf2_rank`
also keeps.  All randomness is seeded.  :func:`gf2_invert` eliminates
column by column.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

__all__ = [
    "SingularMatrixError",
    "BitMatrix",
    "gf2_rank",
    "gf2_invert",
    "gf2_mat_vec",
    "row_ones_csr",
    "random_full_rank",
    "random_sparse_full_rank",
]

_BITS = re.compile("[01]*")


class SingularMatrixError(ValueError):
    """Inversion was requested for a matrix without full GF(2) rank."""


@dataclass
class BitMatrix:
    """A ``rows`` x ``cols`` 0/1 matrix; ``row_bits[i]`` bit ``j`` is entry (i, j)."""

    rows: int
    cols: int
    row_bits: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.row_bits) != self.rows:
            raise ValueError("row count does not match bit storage")
        mask = (1 << self.cols) - 1
        for bits in self.row_bits:
            if bits & ~mask:
                raise ValueError("row has bits beyond declared column count")

    @classmethod
    def identity(cls, dim: int) -> "BitMatrix":
        return cls(dim, dim, [1 << i for i in range(dim)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, [0] * rows)

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> "BitMatrix":
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        bits = []
        for row in rows:
            if len(row) != nc:
                raise ValueError("ragged rows")
            acc = 0
            for j, entry in enumerate(row):
                if entry not in (0, 1):
                    raise ValueError("entries must be 0 or 1")
                acc |= entry << j
            bits.append(acc)
        return cls(nr, nc, bits)

    def get(self, i: int, j: int) -> int:
        return (self.row_bits[i] >> j) & 1

    def to_rows(self) -> list[list[int]]:
        return [[(bits >> j) & 1 for j in range(self.cols)] for bits in self.row_bits]

    def row_ones(self, i: int) -> list[int]:
        """Column indices of the 1-entries in row ``i``, ascending."""
        bits = self.row_bits[i]
        out = []
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out

    def nonzero_count(self) -> int:
        return sum(bits.bit_count() for bits in self.row_bits)

    def transpose(self) -> "BitMatrix":
        cols = [0] * self.cols
        for i, bits in enumerate(self.row_bits):
            while bits:
                low = bits & -bits
                cols[low.bit_length() - 1] |= 1 << i
                bits ^= low
        return BitMatrix(self.cols, self.rows, cols)

    def to_strings(self) -> list[str]:
        """Row-major '0'/'1' strings (column 0 first) for serialization."""
        # The set bit ``1 << cols`` pins the width at cols + 1 binary digits
        # (leading zeros kept, and "" for zero columns); reversing drops it.
        top = 1 << self.cols
        return [format(bits | top, "b")[:0:-1] for bits in self.row_bits]

    @classmethod
    def from_strings(cls, rows: int, cols: int, strings: list[str]) -> "BitMatrix":
        """Inverse of :meth:`to_strings`.  ValueError unless ``strings`` is a
        list of ``rows`` strings of exactly ``cols`` '0'/'1' characters."""
        if not isinstance(strings, list):
            raise ValueError(f"bit strings must be a list, not {type(strings).__name__}")
        if len(strings) != rows:
            raise ValueError("row count mismatch")
        for s in strings:
            # int(s, 2) alone would also take signs, underscores and blanks.
            if not isinstance(s, str) or len(s) != cols or not _BITS.fullmatch(s):
                raise ValueError(f"bad bit string {s!r}")
        return cls(rows, cols, [int(s[::-1] or "0", 2) for s in strings])


def _add_to_span(row: int, pivots: dict[int, int]) -> bool:
    """Add ``row`` to the span held by ``pivots``; False if already in it.

    ``pivots`` maps a lowest set bit to the one kept row that has it.  The
    row is reduced by XORing in the pivot at its lowest set bit until it is
    zero or its lowest bit is new, when it joins the table.  A row costs one
    XOR per pivot it meets, so sparse rows (a permutation plus a few extra
    bits) stay cheap: no step scans every row for every column.
    """
    while row:
        low = row & -row
        pivot = pivots.get(low)
        if pivot is None:
            pivots[low] = row
            return True
        row ^= pivot
    return False


def gf2_rank(m: BitMatrix) -> int:
    """Rank over GF(2): the size of the pivot table of all rows."""
    pivots: dict[int, int] = {}
    for row in m.row_bits:
        _add_to_span(row, pivots)
    return len(pivots)


def gf2_invert(m: BitMatrix) -> BitMatrix:
    """Inverse over GF(2).  Raises :class:`SingularMatrixError` if singular."""
    if m.rows != m.cols:
        raise SingularMatrixError("only square matrices can be inverted")
    dim = m.rows
    work = list(m.row_bits)
    inv = [1 << i for i in range(dim)]
    for col in range(dim):
        pivot = None
        for i in range(col, dim):
            if (work[i] >> col) & 1:
                pivot = i
                break
        if pivot is None:
            raise SingularMatrixError("matrix is singular over GF(2)")
        work[col], work[pivot] = work[pivot], work[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        for i in range(dim):
            if i != col and (work[i] >> col) & 1:
                work[i] ^= work[col]
                inv[i] ^= inv[col]
    return BitMatrix(dim, dim, inv)


def gf2_mat_vec(m: BitMatrix, vec: list[int]) -> list[int]:
    """Matrix-vector product over GF(2); ``vec`` is a 0/1 list."""
    if len(vec) != m.cols:
        raise ValueError("dimension mismatch")
    packed = 0
    for j, entry in enumerate(vec):
        if entry:
            packed |= 1 << j
    return [(m.row_bits[i] & packed).bit_count() & 1 for i in range(m.rows)]


# Unpacking costs a few ns per bit of the grid and walking ``row_ones`` a few
# hundred ns per one, so the grid is unpacked down to one one in 64 bits.
_UNPACK_DENSITY = 64


def _bit_grid(m: BitMatrix) -> np.ndarray:
    """The matrix as a ``(rows, 8 * ceil(cols / 8))`` uint8 array of 0/1
    entries, unpacked by numpy from the row bitsets; the columns past
    ``cols`` are 0."""
    width = (m.cols + 7) // 8
    grid = b"".join(bits.to_bytes(width, "little") for bits in m.row_bits)
    bits = np.unpackbits(np.frombuffer(grid, np.uint8), bitorder="little")
    return bits.reshape(m.rows, 8 * width)


def row_ones_csr(m: BitMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Every row's :meth:`~BitMatrix.row_ones`, listed once as CSR: row
    ``i``'s column indices are ``cols[starts[i]:starts[i + 1]]``, ascending.

    A matrix with at least one one in 64 bits is unpacked by
    :func:`_bit_grid`; a sparser one is walked one row at a time, one step
    per one, instead of unpacking its ``rows * cols`` bits.
    """
    starts = np.zeros(m.rows + 1, np.int64)
    np.cumsum(np.fromiter(map(int.bit_count, m.row_bits), np.int64, m.rows),
              out=starts[1:])
    ones = int(starts[-1])
    if m.rows * m.cols <= _UNPACK_DENSITY * ones:
        grid = _bit_grid(m)
        cols = np.flatnonzero(grid) % grid.shape[1]
    else:
        cols = np.fromiter(
            chain.from_iterable(map(m.row_ones, range(m.rows))), np.int64, ones
        )
    return starts, cols


def _as_rng(seed: int | random.Random) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def random_full_rank(dim: int, seed: int | random.Random) -> BitMatrix:
    """Uniform random ``dim`` x ``dim`` 0/1 matrix with full GF(2) rank.

    Row ``i`` is ``getrandbits(dim)``, redrawn while it is in the span of
    rows ``0..i-1`` (probability ``2**(i - dim)``; about ``dim + 1.6`` draws
    in all).  So each row, kept as drawn, is uniform outside that span, and
    every invertible matrix is equally likely.

    Full GF(2) rank forces an odd integer determinant, so the matrix is
    also invertible over the rationals — both multiplication semantics used
    by the randomizers are covered by the one condition.  Deterministic
    given the seed.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = _as_rng(seed)
    pivots: dict[int, int] = {}
    rows: list[int] = []
    while len(rows) < dim:
        row = rng.getrandbits(dim)
        if _add_to_span(row, pivots):
            rows.append(row)
    return BitMatrix(dim, dim, rows)


def random_sparse_full_rank(
    dim: int, row_weight: int, seed: int | random.Random
) -> BitMatrix:
    """Random invertible matrix with at most ``row_weight`` ones per row.

    The matrix is ``P L Q`` for uniform random permutation matrices ``P``
    and ``Q`` and a unit lower-triangular ``L`` whose row ``i >= 1`` adds
    ``randint(0, row_weight - 1)`` ones at columns drawn from ``0..i-1``
    (repeats merge).  Its determinant is 1 over GF(2) and +-1 over the
    integers, so no draw fails, and nonzeros stay linear in ``dim``.  This
    is not uniform over sparse invertible matrices (nor was the rejection
    sampler it replaced).  Deterministic given the seed.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if row_weight < 1:
        raise ValueError("row_weight must be >= 1")
    rng = _as_rng(seed)
    rows = list(range(dim))
    rng.shuffle(rows)
    cols = list(range(dim))
    rng.shuffle(cols)
    lower = []
    for i in range(dim):
        bits = 1 << cols[i]
        if i:
            for _ in range(rng.randint(0, row_weight - 1)):
                bits |= 1 << cols[rng.randrange(i)]
        lower.append(bits)
    return BitMatrix(dim, dim, [lower[r] for r in rows])
