"""0/1 matrices with GF(2) and integer-arithmetic semantics.

A :class:`BitMatrix` keeps only its ones, as CSR.  The sparse draw writes
that store; the GF(2) product, the gf2 rewrite (:mod:`satcloak.solsetrand`)
and the integer product (:mod:`satcloak.matrixrand`) read it.  Only the
eliminations, :func:`gf2_rank`, :func:`gf2_invert` and the dense draw, XOR
whole rows, as Python ints used as bitsets (bit ``j`` = column ``j``).

No random matrix draw can fail.  The sparse one is a permuted unit
lower-triangular matrix; the dense one draws each row outside the span of
the rows before it, tested against the pivot table that :func:`gf2_rank`
also keeps.  Each draw reads the ``random.Random`` it is given.
:func:`gf2_invert` eliminates column by column.
"""

from __future__ import annotations

import random
import re

import numpy as np

from .cnf import _offsets_of, _row_of_each

__all__ = [
    "SingularMatrixError",
    "BitMatrix",
    "gf2_rank",
    "gf2_invert",
    "gf2_mat_vec",
    "random_full_rank",
    "random_sparse_full_rank",
]

_BITS = re.compile("[01]*")
_HEX = re.compile("[0-9a-fA-F]*")


class SingularMatrixError(ValueError):
    """Inversion was requested for a matrix without full GF(2) rank."""


class BitMatrix:
    """A ``rows`` x ``cols`` 0/1 matrix, kept as one flat CSR store of its
    ones (the layout :class:`~satcloak.cnf.CnfInstance` keeps clauses in):
    row ``i``'s ones are at the columns ``cols[starts[i]:starts[i + 1]]``,
    ascending, in int64 arrays.

    ``BitMatrix(rows, cols, row_bits)`` converts one int per row (bit ``j``
    is column ``j``) once; ValueError for another row count or a bit at
    column ``cols`` or above.  :attr:`row_bits` builds the ints again on
    each read, for the eliminations.  Matrices are treated as immutable.
    """

    __slots__ = ("rows", "cols", "_starts", "_cols")
    __hash__ = None

    def __init__(self, rows: int, cols: int, row_bits: list[int]):
        if len(row_bits) != rows:
            raise ValueError("row count does not match bit storage")
        if any(bits >> cols for bits in row_bits):
            raise ValueError("row has bits beyond declared column count")
        width = (cols + 7) // 8
        packed = b"".join(bits.to_bytes(width, "little") for bits in row_bits)
        self.rows, self.cols = rows, cols
        self._starts, self._cols = _ones_of(_unpacked(packed, rows, width))

    @classmethod
    def _of(cls, rows: int, cols: int, starts: np.ndarray,
            ones: np.ndarray) -> BitMatrix:
        """The matrix of the store arrays, kept as given."""
        m = cls.__new__(cls)
        m.rows, m.cols, m._starts, m._cols = rows, cols, starts, ones
        return m

    @classmethod
    def identity(cls, dim: int) -> BitMatrix:
        return cls._of(dim, dim, np.arange(dim + 1), np.arange(dim))

    def _packed(self) -> np.ndarray:
        """Each row packed little-endian into ``ceil(cols / 8)`` bytes,
        through a bool grid of whole bytes (a scatter and ``packbits`` take a
        fraction of the time of OR-ing each one into its byte)."""
        width = (self.cols + 7) // 8
        grid = np.zeros(self.rows * 8 * width, bool)
        grid[_row_of_each(self._starts) * (8 * width) + self._cols] = True
        return np.packbits(grid.reshape(self.rows, 8 * width), axis=1,
                           bitorder="little")

    @property
    def row_bits(self) -> list[int]:
        return [int.from_bytes(row.tobytes(), "little") for row in self._packed()]

    def __eq__(self, other):
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return ((self.rows, self.cols) == (other.rows, other.cols)
                and np.array_equal(self._starts, other._starts)
                and np.array_equal(self._cols, other._cols))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows!r}, {self.cols!r}, {self.row_bits!r})"

    def nonzero_count(self) -> int:
        return self._cols.size

    def to_obj(self) -> dict:
        """The key-file form: the sparse ``counts`` (ones per row) and
        ``ones`` (the store's columns) when they are no longer, counting
        ``len(str(cols)) + 1`` characters per number, than the dense form,
        ``hex``: the rows of :meth:`_packed`, row-major, as hex digits.  A
        matrix without columns is sparse, as its hex would be empty and
        could not bound its rows."""
        shape = {"rows": self.rows, "cols": self.cols}
        width = (self.cols + 7) // 8
        numbers = self.nonzero_count() + self.rows
        if not width or numbers * (len(str(self.cols)) + 1) <= 2 * self.rows * width:
            return {**shape, "counts": np.diff(self._starts).tolist(),
                    "ones": self._cols.tolist()}
        return {**shape, "hex": self._packed().tobytes().hex()}

    @classmethod
    def from_obj(cls, obj: dict) -> BitMatrix:
        """Inverse of :meth:`to_obj`.  KeyError for a missing field,
        ValueError naming the field whose value is malformed: a row that
        lists a column twice, out of order or at ``cols`` or above, counts
        that do not add up to the ones, or hex of the wrong length, with a
        character that is not a hex digit or with a bit set in a row's
        padding, or hex for rows without columns."""
        if not isinstance(obj, dict):
            raise ValueError(f"expected an object, not {type(obj).__name__}")
        rows, cols = _count(obj, "rows"), _count(obj, "cols")
        if "hex" not in obj:
            return cls._of(rows, cols, *_sparse_store(obj, rows, cols))
        text, width = obj["hex"], (cols + 7) // 8
        if rows and not width:
            raise ValueError("'hex' cannot give rows without columns")
        if not isinstance(text, str) or len(text) != 2 * rows * width:
            raise ValueError(f"'hex' must be a string of {2 * rows * width} hex "
                             "digits (2 per byte of each row)")
        if not _HEX.fullmatch(text):
            raise ValueError("'hex' holds a character that is not a hex digit")
        grid = _unpacked(bytes.fromhex(text), rows, width)
        if grid[:, cols:].any():
            raise ValueError(f"'hex' sets a bit at column {cols} or above")
        return cls._of(rows, cols, *_ones_of(grid))

    @classmethod
    def from_strings(cls, rows: int, cols: int, strings: list[str]) -> "BitMatrix":
        """A matrix from format-1 key files: ValueError unless ``strings`` is
        a list of ``rows`` strings of exactly ``cols`` '0'/'1' characters,
        column 0 first."""
        if not isinstance(strings, list):
            raise ValueError(f"bit strings must be a list, not {type(strings).__name__}")
        if len(strings) != rows:
            raise ValueError("row count mismatch")
        for s in strings:
            # Any character but '1' would read as 0 below.
            if not isinstance(s, str) or len(s) != cols or not _BITS.fullmatch(s):
                raise ValueError(f"bad bit string {s!r}")
        text = np.frombuffer("".join(strings).encode("ascii"), np.uint8)
        return cls._of(rows, cols, *_ones_of(text.reshape(rows, cols) == ord("1")))


def _unpacked(packed: bytes, rows: int, width: int) -> np.ndarray:
    """The bool grid of rows packed little-endian, ``width`` bytes each."""
    bits = np.unpackbits(np.frombuffer(packed, np.uint8), bitorder="little")
    return bits.view(bool).reshape(rows, 8 * width)


def _count(obj: dict, name: str) -> int:
    value = obj[name]
    if type(value) is not int or value < 0:
        raise ValueError(f"{name!r} must be a non-negative integer")
    return value


def _int_list(obj: dict, name: str) -> np.ndarray:
    values = obj[name]
    if not isinstance(values, list) or not set(map(type, values)) <= {int}:
        raise ValueError(f"{name!r} must be a list of integers")
    try:
        return np.array(values, np.int64)
    except OverflowError:
        raise ValueError(f"{name!r} holds an integer outside int64") from None


def _sparse_store(obj: dict, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The store of a sparse key-file matrix, checked as :meth:`BitMatrix.from_obj`
    says."""
    counts, ones = _int_list(obj, "counts"), _int_list(obj, "ones")
    if counts.size != rows:
        raise ValueError(f"'counts' must hold one count per row ({rows})")
    # Each count at most the number of ones keeps the sum from wrapping.
    if not np.all((counts >= 0) & (counts <= ones.size)) or counts.sum() != ones.size:
        raise ValueError(f"'counts' must be non-negative and add up to the "
                         f"{ones.size} entries of 'ones'")
    if ones.size and not 0 <= ones.min() <= ones.max() < cols:
        raise ValueError(f"'ones' must lie in 0..{cols - 1}")
    starts = _offsets_of(counts)
    # Columns rise within each row; a row's first may be below the last
    # one before it.
    rising = ones[1:] > ones[:-1]
    inner = starts[1:-1]
    rising[inner[(inner > 0) & (inner < ones.size)] - 1] = True
    if not rising.all():
        row = _row_of_each(starts)[np.argmin(rising) + 1]
        raise ValueError(f"'ones' of row {row} must be ascending, each column once")
    return starts, ones


def _ones_of(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The store ``(starts, cols)`` of a 2-D bool grid (numpy finds the
    ones of a uint8 grid, and splits flat indices by division, at several
    times the cost of this)."""
    counts = np.count_nonzero(grid, axis=1)
    cols = np.flatnonzero(grid)
    cols -= np.repeat(np.arange(len(grid)) * grid.shape[1], counts)
    return _offsets_of(counts), cols


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
    work = m.row_bits
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
    # One XOR run per row; the trailing 0 keeps every run start in range.
    gathered = np.append(np.asarray(vec, bool)[m._cols], False)
    parity = np.bitwise_xor.reduceat(gathered, m._starts[:-1])
    parity[m._starts[:-1] == m._starts[1:]] = False  # an empty row
    return parity.astype(np.int64).tolist()


def random_full_rank(dim: int, rng: random.Random) -> BitMatrix:
    """Uniform random ``dim`` x ``dim`` 0/1 matrix with full GF(2) rank.

    Row ``i`` is ``getrandbits(dim)``, redrawn while it is in the span of
    rows ``0..i-1`` (probability ``2**(i - dim)``; about ``dim + 1.6`` draws
    in all).  So each row, kept as drawn, is uniform outside that span, and
    every invertible matrix is equally likely.

    Full GF(2) rank forces an odd integer determinant, so the matrix is
    also invertible over the rationals — both multiplication semantics used
    by the randomizers are covered by the one condition.  Deterministic
    given the state of ``rng``.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    pivots: dict[int, int] = {}
    rows: list[int] = []
    while len(rows) < dim:
        row = rng.getrandbits(dim)
        if _add_to_span(row, pivots):
            rows.append(row)
    return BitMatrix(dim, dim, rows)


def random_sparse_full_rank(
    dim: int, row_weight: int, rng: random.Random
) -> BitMatrix:
    """Random invertible matrix with at most ``row_weight`` ones per row.

    The matrix is ``P L Q`` for uniform random permutation matrices ``P``
    and ``Q`` and a unit lower-triangular ``L`` whose row ``i >= 1`` adds
    ``randint(0, row_weight - 1)`` ones at columns drawn from ``0..i-1``
    (repeats merge).  Its determinant is 1 over GF(2) and +-1 over the
    integers, so no draw fails, and nonzeros stay linear in ``dim``.  This
    is not uniform over sparse invertible matrices.  Deterministic given
    the state of ``rng``.  A row holds at most ``dim`` ones, so a larger
    ``row_weight`` draws as ``dim`` does.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if row_weight < 1:
        raise ValueError("row_weight must be >= 1")
    row_weight = min(row_weight, dim)
    rows = list(range(dim))
    rng.shuffle(rows)
    cols = list(range(dim))
    rng.shuffle(cols)
    # Row i of L: its one at column cols[i], then its extra ones as drawn.
    lower, widths = [], []
    for i in range(dim):
        lower.append(cols[i])
        extra = rng.randint(0, row_weight - 1) if i else 0
        lower.extend(cols[rng.randrange(i)] for _ in range(extra))
        widths.append(1 + extra)
    # Row rows[k] of L is row k of the matrix.  Sorting its ones by
    # (row, column) orders each row and merges repeats in one pass.
    at = np.argsort(rows)
    ones = np.unique(np.repeat(at, widths) * dim + np.array(lower, np.int64))
    starts = _offsets_of(np.bincount(ones // dim, minlength=dim))
    return BitMatrix._of(dim, dim, starts, ones % dim)
