"""Linear-system randomization of 3SAT instances.

Each width-3 clause becomes one integer equation over the clause's three
variables plus two fresh dummy variables:

    y'_1 + y'_2 + y'_3 + d_1 + d_2 = 3

where a positive literal contributes ``+y``, a negated literal contributes
``-y`` with the constant folded into the right-hand side (a clause with
``t`` negations has rhs ``3 - t``).  Stacking the ``m`` equations gives
``AX = B`` with ``A`` an ``m x (n + 2m)`` matrix; multiplying both sides by
a random full-rank 0/1 matrix ``R`` (ordinary integer arithmetic) yields the
outsourced system ``RAX = RB``, whose 0/1 solution set is identical because
``R`` is invertible.  Solutions map back by projecting the first ``n``
coordinates.

A system keeps only its nonzero coefficients, in one flat CSR store (see
:class:`LinearSystem`).  The encoding writes ``A``'s five entries per row
straight into it, the product sums ``A``'s nonzeros under blocks of ``R``'s
rows with numpy, and the OPB writer, the parser and :func:`check_linear`
read and write the store, with no Python list per row.

The outsourced artifact serializes as an OPB pseudo-Boolean file.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

import numpy as np

from .cnf import (
    _INT64_MAX,
    CnfInstance,
    _cell_table,
    _cells_text,
    _offsets_of,
    _row_of_each,
    _three_table,
)
from .gf2 import BitMatrix, random_full_rank

__all__ = [
    "LinearSystem",
    "MatrixSecret",
    "encode_linear",
    "dummy_completion",
    "complete_solution",
    "apply_random_matrix",
    "randomize_system",
    "check_linear",
    "emit_opb",
    "parse_opb",
]


class LinearSystem:
    """0/1 linear equality system: ``coeffs[i] . x = rhs[i]`` for each row.

    ``LinearSystem(num_vars, coeffs, rhs)`` takes ``coeffs`` as a list of
    rows of ``num_vars`` ints and keeps only the nonzeros, in one flat store
    (CSR, the layout :class:`~satcloak.cnf.CnfInstance` keeps clauses in):
    row ``i``'s values are ``vals[starts[i]:starts[i + 1]]``, at the
    columns ``cols[starts[i]:starts[i + 1]]``, ascending.  The store and
    ``rhs`` are int64 arrays; ValueError for a row of another width or a
    coefficient or right-hand side outside int64.

    The encoding, the random-matrix product, :func:`emit_opb`,
    :func:`parse_opb`, :func:`check_linear` and ``==`` work on the store.
    :attr:`coeffs` is a new dense list of row lists built on each read, and
    :attr:`rhs` a new list, for the code that walks rows one by one.
    Systems are treated as immutable, like CNF instances.
    """

    __slots__ = ("num_vars", "_starts", "_cols", "_vals", "_rhs")
    __hash__ = None

    def __init__(self, num_vars: int, coeffs: list[list[int]], rhs: list[int]):
        if len(rhs) != len(coeffs):
            raise ValueError("rhs length does not match constraint count")
        if any(len(row) != num_vars for row in coeffs):
            raise ValueError("coefficient row width mismatch")
        dense = _int64(coeffs).reshape(len(coeffs), num_vars)
        rows, cols = np.nonzero(dense)
        self.num_vars = num_vars
        self._starts = _offsets_of(np.bincount(rows, minlength=len(coeffs)))
        self._cols = cols.astype(np.int64)
        self._vals = dense[rows, cols]
        self._rhs = _int64(rhs)

    @classmethod
    def _of(cls, num_vars: int, starts: np.ndarray, cols: np.ndarray,
            vals: np.ndarray, rhs: np.ndarray) -> LinearSystem:
        """The system of the store arrays, kept as given."""
        sys = cls.__new__(cls)
        sys.num_vars = num_vars
        sys._starts, sys._cols, sys._vals, sys._rhs = starts, cols, vals, rhs
        return sys

    @property
    def coeffs(self) -> list[list[int]]:
        # One dense row at a time, so no (rows, num_vars) array is made
        # beside the lists.
        starts, cols, vals = self._starts.tolist(), self._cols, self._vals
        row = np.zeros(self.num_vars, np.int64)
        out = []
        for a, b in zip(starts, starts[1:]):
            row[cols[a:b]] = vals[a:b]
            out.append(row.tolist())
            row[cols[a:b]] = 0
        return out

    @property
    def rhs(self) -> list[int]:
        return self._rhs.tolist()

    @property
    def num_constraints(self) -> int:
        return self._starts.size - 1

    def _dense(self) -> np.ndarray:
        """The ``(num_constraints, num_vars)`` int64 coefficient matrix."""
        dense = np.zeros((self.num_constraints, self.num_vars), np.int64)
        dense[_row_of_each(self._starts), self._cols] = self._vals
        return dense

    def __eq__(self, other):
        if not isinstance(other, LinearSystem):
            return NotImplemented
        return self.num_vars == other.num_vars and all(
            map(np.array_equal, self._store(), other._store())
        )

    def _store(self) -> tuple[np.ndarray, ...]:
        return self._starts, self._cols, self._vals, self._rhs

    def __repr__(self) -> str:
        return (f"LinearSystem(num_vars={self.num_vars!r}, "
                f"coeffs={self.coeffs!r}, rhs={self.rhs!r})")

    def validate(self) -> None:
        """ValueError unless ``rhs`` has one value per row and every stored
        column is below ``num_vars``."""
        if self._rhs.size != self.num_constraints:
            raise ValueError("rhs length does not match constraint count")
        if self._cols.size and self._cols.max() >= self.num_vars:
            raise ValueError("coefficient column beyond num_vars")


def _int64(values) -> np.ndarray:
    """``values`` (nested lists of ints) as an int64 array; ValueError for a
    value outside int64."""
    try:
        return np.array(values, np.int64)
    except OverflowError:
        raise ValueError("coefficient or right-hand side outside int64") from None


@dataclass
class MatrixSecret:
    """Client-held state for mapping a solution back: where the original
    variables end (``original_n``; the dummies follow) and the constraint
    count ``m``, which fixes the solution length ``n + 2m``.  ``R`` is not
    kept: projecting a solution never needs it."""

    original_n: int
    num_constraints: int


def encode_linear(instance: CnfInstance) -> LinearSystem:
    """Encode an exactly-3CNF instance as ``AX = B``.

    One equation per clause over ``n + 2m`` variables; the two dummies of
    clause ``i`` occupy columns ``n + 2i`` and ``n + 2i + 1`` (0-based).
    Each row is stored as its clause's literals (+1 or -1 at the variable's
    column, a repeated variable's values summed and a zero sum dropped) and
    the two dummies' 1s.  Raises ValueError on clauses that are not width 3.
    """
    table = _three_table(instance)
    n, m = instance.num_vars, table.shape[0]
    # Each clause's literals sorted by variable: keys 2|lit| + (lit < 0)
    # through a three-input sorting network of elementwise min and max.
    a, b, c = 2 * np.abs(table.T) + (table.T < 0)
    a, b = np.minimum(a, b), np.maximum(a, b)
    b, c = np.minimum(b, c), np.maximum(b, c)
    a, b = np.minimum(a, b), np.maximum(a, b)
    cols = np.empty((m, 5), np.int64)
    vals = np.ones((m, 5), np.int64)
    for j, key in enumerate((a, b, c)):
        cols[:, j] = (key >> 1) - 1
        vals[:, j] = 1 - 2 * (key & 1)
    cols[:, 3] = n + 2 * np.arange(m)
    cols[:, 4] = cols[:, 3] + 1
    # A repeated variable's literals are neighbours once sorted: each run
    # of one column is summed at its head.
    head = np.ones((m, 5), bool)
    head[:, 1:3] = cols[:, 1:3] != cols[:, :2]
    heads = np.flatnonzero(head)
    sums = np.add.reduceat(vals.reshape(-1), heads)
    heads, sums = heads[sums != 0], sums[sums != 0]
    starts = _offsets_of(np.bincount(heads // 5, minlength=m))
    rhs = 3 - np.count_nonzero(table < 0, axis=1)
    return LinearSystem._of(n + 2 * m, starts, cols.reshape(-1)[heads], sums, rhs)


def dummy_completion(clause_satisfied_count: int) -> tuple[int, int]:
    """Dummy-variable values for a clause with ``k`` satisfied literals:
    3 -> (0, 0), 2 -> (1, 0), 1 -> (1, 1).  ``k = 0`` has no completion."""
    table = {3: (0, 0), 2: (1, 0), 1: (1, 1)}
    try:
        return table[clause_satisfied_count]
    except KeyError:
        raise ValueError(
            f"no dummy completion for satisfied-literal count {clause_satisfied_count}"
        ) from None


def complete_solution(instance: CnfInstance, assignment: dict[int, bool]) -> list[int]:
    """Extend a satisfying CNF assignment to a 0/1 vector solving ``AX = B``.

    Raises ValueError if the assignment leaves some clause unsatisfied.
    """
    n = instance.num_vars
    vector = [0] * (n + 2 * instance.num_clauses)
    for v in range(1, n + 1):
        vector[v - 1] = 1 if assignment[v] else 0
    for i, clause in enumerate(instance.clauses):
        satisfied = sum(1 for lit in clause if assignment[abs(lit)] == (lit > 0))
        d1, d2 = dummy_completion(satisfied)
        vector[n + 2 * i] = d1
        vector[n + 2 * i + 1] = d2
    return vector


# Products of R's entries with A's nonzeros formed per block of R's rows in
# apply_random_matrix: its temporaries stay near 256 KB per array.
_PRODUCT_BLOCK = 1 << 15


def apply_random_matrix(sys: LinearSystem, r: BitMatrix) -> LinearSystem:
    """Return the system ``(RA)X = RB`` (plain integer arithmetic).

    This is NOT reduced mod 2: ``[[1, 1]]`` times the rows ``[1]`` and
    ``[-1]`` is ``[[0]]``.  ``R``'s ones are scattered once into a 0/1
    grid; each block of its rows takes the grid's entries at the rows of
    A's nonzeros, listed column by column, times their values, and sums
    each column's run (``np.add.reduceat``), keeping the nonzero sums as
    the new rows' store.  That is ``rows(R) * nnz(A)`` products instead of
    a product per entry of a dense A.  ``RB`` is the grid times ``B``.
    Raises ValueError when the dimensions differ or ``r.cols * max|A|`` (or
    ``max|B|``) could overflow int64.
    """
    m = sys.num_constraints
    if r.cols != m:
        raise ValueError("R dimension does not match constraint count")
    top = max(map(_magnitude, (sys._vals, sys._rhs)))
    if r.cols * top > _INT64_MAX:
        raise ValueError(f"R times a value of magnitude {top} could overflow int64")
    grid = np.zeros((r.rows, m), np.uint8)
    grid[_row_of_each(r._starts), r._cols] = 1
    rhs = grid @ sys._rhs  # before the blocks: numpy widens the grid to int64
    by_column = np.argsort(sys._cols, kind="stable")
    rows = _row_of_each(sys._starts)[by_column]
    vals = sys._vals[by_column]
    cols = sys._cols[by_column]
    heads = np.flatnonzero(np.diff(cols, prepend=-1))  # each column's run
    used = cols[heads]
    step = max(1, _PRODUCT_BLOCK // max(rows.size, 1))
    widths, out_cols, out_vals = [], [], []
    for i in range(0, r.rows, step):
        sums = np.add.reduceat(grid[i : i + step, rows] * vals, heads, axis=1)
        nonzero = sums != 0
        widths.append(np.count_nonzero(nonzero, axis=1))
        out_cols.append(np.broadcast_to(used, sums.shape)[nonzero])
        out_vals.append(sums[nonzero])
    return LinearSystem._of(
        sys.num_vars,
        _offsets_of(np.concatenate([np.zeros(0, np.intp), *widths])),
        np.concatenate([np.zeros(0, np.int64), *out_cols]),
        np.concatenate([np.zeros(0, np.int64), *out_vals]),
        rhs,
    )


def _magnitude(values: np.ndarray) -> int:
    """The largest ``|v|`` of the int64 ``values`` (0 for none), exact also
    for ``-2**63``."""
    return max(-int(values.min(initial=0)), int(values.max(initial=0)))


def randomize_system(sys: LinearSystem, seed: int) -> tuple[LinearSystem, MatrixSecret]:
    """Multiply the encoded system by a random full-rank ``R`` drawn from
    ``seed``.  The 0/1 solution sets of input and output are identical.
    A system without constraints is multiplied by the 0 x 0 identity."""
    m = sys.num_constraints
    r = random_full_rank(m, random.Random(seed)) if m else BitMatrix.identity(0)
    return apply_random_matrix(sys, r), MatrixSecret(sys.num_vars - 2 * m, m)


def check_linear(sys: LinearSystem, vector: list[int]) -> bool:
    """True iff the 0/1 ``vector`` satisfies every equation.

    One int64 sum per row over its stored nonzeros.  Raises ValueError for
    a vector of another length or with an entry other than 0 and 1, or when
    a row's sum could overflow int64 (its nonzero count times the largest
    ``|coefficient|``), so a sum is never wrapped.
    """
    if len(vector) != sys.num_vars:
        raise ValueError("vector length does not match system")
    x = np.asarray(vector)
    if ((x != 0) & (x != 1)).any():
        raise ValueError("vector entries must be 0 or 1")
    starts = sys._starts
    widths = np.diff(starts)
    if int(widths.max(initial=0)) * _magnitude(sys._vals) > _INT64_MAX:
        raise ValueError("a row sum could overflow int64")
    # One 0 past the terms: reduceat reads the term at an empty row's
    # start, which may be the end, and the 0 also ends the last row.
    terms = np.zeros(sys._vals.size + 1, np.int64)
    terms[:-1] = sys._vals * x.astype(np.int64)[sys._cols]
    sums = np.add.reduceat(terms, starts[:-1]) * (widths != 0)
    return bool((sums == sys._rhs).all())


# ---------------------------------------------------------------------------
# OPB (pseudo-Boolean equality) serialization
# ---------------------------------------------------------------------------

def _term_table(values: np.ndarray) -> np.ndarray:
    """The sorted values to make cells for: the range ``min..max`` when it
    is no longer than ``values``, else only the values in use, so a sparse
    value such as ``10**12`` never sizes the table.  No values give the
    table ``[0]``, as :func:`~satcloak.cnf._cell_table` needs one row."""
    if not values.size:
        return np.zeros(1, np.int64)
    lo, hi = int(values.min()), int(values.max())
    if hi - lo < values.size:
        return np.arange(lo, hi + 1)
    return np.unique(values)


def _table_rows(table: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The row of each of ``values`` in its :func:`_term_table`."""
    if int(table[-1]) - int(table[0]) == table.size - 1:  # a range
        return values - table[0]
    return np.searchsorted(table, values)


def _signed_cells(table: np.ndarray, plus: bytes) -> np.ndarray:
    """The cells of :func:`~satcloak.cnf._cell_table` for ``table``,
    without its two closing rows, with ``plus`` in the sign column of the
    positive values: ``b"+"`` for coefficients, ``b"x"`` for names."""
    cells = _cell_table(table)[:-2]
    cells[table > 0, 0] = ord(plus)
    return cells


# Terms written per block by emit_opb: its temporaries, about 100 bytes a
# term, stay near 400 KB beside the text.
_TERMS = 1 << 12


def emit_opb(sys: LinearSystem) -> str:
    """Serialize as an OPB file of equality constraints.

    Zero coefficients are omitted; every term carries an explicit sign, e.g.
    ``+1 x1 -2 x3 = 4 ;``.  A row without a nonzero coefficient is written
    as `` = b ;``.

    The text comes from the store through tables of text cells, as
    :func:`~satcloak.cnf.emit_dimacs` writes literals: one cell per
    coefficient value (``"+1 "``), one per name (``"x3 "``) and one end
    cell per row (``"= 4 ;\\n"``, or ``" = 4 ;\\n"`` for an empty row),
    cut into pieces of the table's width.  The cells are stacked in one
    table, each term ``take``s its value's and its name's cell, each row
    its end cells, and the bytes become text with their NUL padding
    deleted, 4,096 terms at a time.  No Python object is made per term.  A
    value or name table covers ``min..max``, or only the values in use when
    that range is longer than the term count.
    """
    starts, cols, vals = sys._starts, sys._cols, sys._vals
    m = sys.num_constraints
    value_table = _term_table(vals)
    col_table = _term_table(cols)
    rhs_table = _term_table(sys._rhs)
    value_cells = _signed_cells(value_table, b"+")
    name_cells = _signed_cells(col_table + 1, b"x")
    rhs_cells = _cell_table(rhs_table)[:-2]
    ends = np.zeros((m, rhs_cells.shape[1] + 5), np.uint8)
    ends[:, 0] = np.where(starts[1:] == starts[:-1], ord(" "), 0)
    ends[:, 1:3] = np.frombuffer(b"= ", np.uint8)
    ends[:, 3:-2] = rhs_cells[_table_rows(rhs_table, sys._rhs)]
    ends[:, -2:] = np.frombuffer(b";\n", np.uint8)
    # One table: value cells, name cells, then each row's end cell as
    # ``pieces`` cells of the common width.
    width = max(value_cells.shape[1], name_cells.shape[1])
    pieces = -(-ends.shape[1] // width)
    name0 = len(value_cells)
    end0 = name0 + len(name_cells)
    cells = np.zeros((end0 + m * pieces, width), np.uint8)
    cells[:name0, : value_cells.shape[1]] = value_cells
    cells[name0:end0, : name_cells.shape[1]] = name_cells
    cells[end0:].reshape(m, pieces * width)[:, : ends.shape[1]] = ends
    text = [f"* #variable= {sys.num_vars} #constraint= {m}\n"]
    cuts = np.searchsorted(starts, np.arange(_TERMS, starts[-1], _TERMS)).tolist()
    for r0, r1 in zip([0, *cuts], [*cuts, m]):
        s, e = starts[r0], starts[r1]
        # Row i's end cells follow its terms' two cells each and the
        # earlier rows' end cells.
        at = 2 * (starts[r0 + 1 : r1 + 1] - s) + pieces * np.arange(r1 - r0)
        at = (at[:, None] + np.arange(pieces)).reshape(-1)
        rows = np.empty(2 * (e - s) + at.size, np.intp)
        rows[at] = np.arange(end0 + pieces * r0, end0 + pieces * r1)
        term = np.ones(rows.size, bool)
        term[at] = False
        pairs = np.empty((e - s, 2), np.intp)
        pairs[:, 0] = _table_rows(value_table, vals[s:e])
        pairs[:, 1] = _table_rows(col_table, cols[s:e]) + name0
        rows[term] = pairs.reshape(-1)
        text.append(_cells_text(cells, rows))
    return "".join(text)


_OPB_HEADER = re.compile(
    r"\*\s*#variable=\s*([0-9]+)\s+#constraint=\s*([0-9]+)(?!\S)"
)
_OPB_CONSTRAINT = re.compile(r"((?:[+-][0-9]+\s+x[0-9]+\s+)+)=\s*([+-]?[0-9]+)\s*;")
_OPB_TERM = re.compile(r"([+-][0-9]+)\s+x([0-9]+)")


def parse_opb(text: str) -> LinearSystem:
    """Parse the equality-OPB dialect written by :func:`emit_opb`: after the
    header, ``*`` comment lines and lines of one or more whitespace-separated
    ``<signed integer> x<index>`` terms followed by ``= <integer> ;``.
    A variable's repeated terms in one line are summed.  Raises ValueError
    for any other line and for a coefficient or right-hand side outside
    int64.  Only the nonzero terms are kept, so the memory is that of the
    text, whatever ``#variable=`` says."""
    lines = [l.strip() for l in text.splitlines() if l.strip()]
    if not lines:
        raise ValueError("empty OPB input")
    header = _OPB_HEADER.match(lines[0])
    if not header:
        raise ValueError(f"malformed OPB header: {lines[0]!r}")
    num_vars, num_constraints = int(header.group(1)), int(header.group(2))
    widths = []
    terms = []  # (column, value) of every row's nonzeros, in order
    rhs = []
    for line in lines[1:]:
        if line.startswith("*"):
            continue
        constraint = _OPB_CONSTRAINT.fullmatch(line)
        if not constraint:
            raise ValueError(f"malformed OPB constraint: {line!r}")
        row: dict[int, int] = {}
        for coeff, var in _OPB_TERM.findall(constraint.group(1)):
            var = int(var)
            if not 1 <= var <= num_vars:
                raise ValueError(f"variable x{var} out of range in {line!r}")
            row[var - 1] = row.get(var - 1, 0) + int(coeff)
        nonzero = sorted((j, c) for j, c in row.items() if c)
        widths.append(len(nonzero))
        terms.extend(nonzero)
        rhs.append(int(constraint.group(2)))
    if len(widths) != num_constraints:
        raise ValueError(
            f"constraint count mismatch: header says {num_constraints}, "
            f"found {len(widths)}"
        )
    pairs = _int64(terms).reshape(-1, 2)
    return LinearSystem._of(
        num_vars, _offsets_of(np.array(widths, np.int64)),
        pairs[:, 0].copy(), pairs[:, 1].copy(), _int64(rhs),
    )
