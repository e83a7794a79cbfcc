"""CNF data model, DIMACS I/O, 3CNF conversion, and Tseitin gates.

Literals are DIMACS-style signed integers: ``v`` is the positive occurrence
of variable ``v`` (``v >= 1``) and ``-v`` its negation.  A clause is a list of
literals, an instance is a variable count plus its clauses, stored as one
int64 array of all literals in clause order and one offsets array giving
where each clause starts (the layout SAT solvers keep clauses in).  Every
operation on an instance (validating, checking an assignment, writing
DIMACS, converting to 3CNF, the isomorphism disguise) is a numpy operation
over those two arrays, with no Python code per clause; only the 3CNF
conversion's gate map takes a step per fresh variable.  ``clauses`` is a
new list of clause lists made on each read, for the code that walks
clauses one by one, and lives only as long as its reader keeps it.  Every
transformation in the toolkit consumes and produces these objects.

:func:`parse_dimacs` reads a plain clause body (decimal literals and
whitespace only) with numpy in one pass and cuts it into clauses at its
zeros.  Any other body is read one ``str`` token at a time, which gives the
same clauses and names the first bad token; both cut the literals into
clauses with :func:`_clause_arrays`.

Circuits are built as gates over literals by :class:`TseitinEncoder`:
``and`` and ``or`` of any number of inputs and ``xor`` of two, each a fresh
variable with its definition clauses.  :meth:`TseitinEncoder.gate` and
:meth:`TseitinEncoder.gate_n` share repeated gates, so the firewall
encoder's equal predicates and terms and the cost circuit's repeated
adder gates are each one variable.

The dummy variables of the 3CNF conversion (split and padding variables,
``or`` gates) and of the cost circuit's adder are gates of a
:class:`TseitinMap`, and :func:`evaluate_gates` computes them.  The GF(2)
rewrite writes its exactly-3CNF output as one literal table and computes
its own dummies from that layout (:mod:`satcloak.solsetrand`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

__all__ = [
    "DimacsError",
    "InvalidSolutionError",
    "CnfInstance",
    "parse_dimacs",
    "emit_dimacs",
    "to_three_cnf",
    "TseitinMap",
    "TseitinEncoder",
    "evaluate_gates",
]


class DimacsError(ValueError):
    """Raised for malformed DIMACS input."""


class InvalidSolutionError(Exception):
    """A provider-supplied solution failed validation against the original
    instance.  Distinct from ValueError so callers can tell fraud (or an
    implementation bug) apart from plain usage errors."""


class CnfInstance:
    """A CNF formula: ``num_vars`` variables, clauses over signed literals.

    ``CnfInstance(num_vars, clauses)`` takes the clauses as a list of
    clause lists or as a ``(k, w)`` int64 array with one row per clause,
    and stores them as one int64 literal array plus an offsets array:
    clause ``i`` is ``literals[offsets[i]:offsets[i + 1]]``.  Literals
    beyond int64, in range only for more than ``2**63 - 1`` variables, are
    kept as Python ints in an object array.

    :meth:`validate`, :meth:`satisfies`, :attr:`num_clauses`, ``==`` and
    :func:`emit_dimacs` are numpy operations on the two arrays;
    :func:`emit_dimacs` writes every literal through a table of
    fixed-width text cells, also for an object array.
    :attr:`table` is a ``(k, w)`` view of the literals when every clause
    has one width ``w >= 1`` (None otherwise, and for no clauses).
    :attr:`clauses` is a new list built from the arrays on each read, for
    the code that walks clauses one by one (the matrix encoding, the
    firewall, the cost circuit and the oracles).  It is not cached: a
    cached view would keep a second copy of the clauses, several times the
    arrays' size, for as long as the instance lives.

    Instances are treated as immutable after construction; all operations
    return new objects.  Instances may share arrays with each other (a
    3CNF instance is its own conversion, and the isomorphism keeps the
    offsets), so nothing writes into them in place.
    """

    __slots__ = ("num_vars", "_lits", "_offsets")
    __hash__ = None

    def __init__(self, num_vars: int, clauses: list[list[int]] | np.ndarray):
        self.num_vars = num_vars
        if isinstance(clauses, np.ndarray):
            k, w = clauses.shape
            self._lits = np.ascontiguousarray(clauses, np.int64).reshape(-1)
            self._offsets = np.arange(k + 1, dtype=np.int64) * w
            return
        widths = np.fromiter(map(len, clauses), np.int64, len(clauses))
        self._offsets = _offsets_of(widths)
        self._lits = _literal_array(clauses, int(self._offsets[-1]))

    @classmethod
    def _of(cls, num_vars: int, lits: np.ndarray, offsets: np.ndarray) -> CnfInstance:
        """The instance of the literal and offsets arrays, kept as given."""
        instance = cls.__new__(cls)
        instance.num_vars = num_vars
        instance._lits = lits
        instance._offsets = offsets
        return instance

    @property
    def clauses(self) -> list[list[int]]:
        flat = self._lits.tolist()
        bounds = self._offsets.tolist()
        return list(map(flat.__getitem__, map(slice, bounds, bounds[1:])))

    @property
    def table(self) -> np.ndarray | None:
        widths = np.diff(self._offsets)
        if not widths.size or widths[0] < 1 or (widths != widths[0]).any():
            return None
        return self._lits.reshape(widths.size, int(widths[0]))

    @property
    def num_clauses(self) -> int:
        return self._offsets.size - 1

    def __eq__(self, other):
        if not isinstance(other, CnfInstance):
            return NotImplemented
        return (
            self.num_vars == other.num_vars
            and np.array_equal(self._offsets, other._offsets)
            and np.array_equal(self._lits, other._lits)
        )

    def __repr__(self) -> str:
        return f"CnfInstance(num_vars={self.num_vars!r}, clauses={self.clauses!r})"

    def validate(self) -> None:
        """ValueError for a negative variable count, then for the first
        clause, in order, that is empty or holds a literal that is 0 or
        names a variable beyond ``num_vars``."""
        if self.num_vars < 0:
            raise ValueError("negative variable count")
        offsets = self._offsets
        empty = np.flatnonzero(offsets[1:] == offsets[:-1])
        bad = _first_bad_literal(self._lits, self.num_vars)
        # An empty clause comes first iff it starts at or before the literal.
        if empty.size and (bad is None or offsets[empty[0]] <= bad):
            raise ValueError("empty clause")
        if bad is not None:
            lit = self._lits[bad]
            raise ValueError(f"literal {lit} out of range 1..{self.num_vars}")

    def satisfies(self, assignment: dict[int, bool]) -> bool:
        """True iff ``assignment`` satisfies every clause.

        Values are bools or 0/1 ints, keys int64 values.  A clause with a
        true literal is satisfied whether or not its other variables are
        assigned.  The first clause that no true literal satisfies decides
        the answer: False, or KeyError if it names a variable missing from
        ``assignment``.  An empty clause is never satisfied.
        """
        lits, offsets = self._lits, self._offsets
        size = len(assignment)
        keys = np.fromiter(assignment, np.int64, size)
        values = np.fromiter(assignment.values(), bool, size)
        true = np.where(values, keys, -keys)
        span = max(-int(lits.min(initial=0)), int(lits.max(initial=0)))
        # One false element past the literals: reduceat reads the element
        # at an empty clause's offset, which may be the end.
        hit = np.zeros(lits.size + 1, bool)
        if span <= 4 * (lits.size + size):
            # A truth table over the literals -span..span: one gather per
            # literal, without np.isin's per-call set-up.
            truth = np.zeros(2 * span + 1, bool)
            truth[true[(true >= -span) & (true <= span)] + span] = True
            hit[:-1] = truth[lits + span]
        else:  # literals too large for a truth table of that size
            hit[:-1] = np.isin(lits, true)
        hit = np.logical_or.reduceat(hit, offsets[:-1])
        hit &= offsets[1:] != offsets[:-1]
        if hit.all():
            return True
        i = int(hit.argmin())
        for lit in lits[offsets[i] : offsets[i + 1]].tolist():
            if abs(lit) not in assignment:
                raise KeyError(abs(lit))
        return False


def _offsets_of(widths: np.ndarray) -> np.ndarray:
    """Offsets of clauses of ``widths`` laid end to end, the total last."""
    offsets = np.zeros(widths.size + 1, np.int64)
    np.cumsum(widths, out=offsets[1:])
    return offsets


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    """Start offset of each of ``counts``'s runs in one array."""
    return np.cumsum(counts) - counts


def _runs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each item of runs of ``counts`` items laid end to end: its run
    and its index within the run."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - _exclusive_cumsum(counts)[owner]


def _three_table(instance: CnfInstance) -> np.ndarray:
    """The instance's clauses as a ``(k, 3)`` table; ValueError naming the
    first clause of another width."""
    widths = np.diff(instance._offsets)
    wrong = np.flatnonzero(widths != 3)
    if wrong.size:
        i = int(wrong[0])
        raise ValueError(
            f"clause {i + 1} has width {widths[i]}; "
            "run to_three_cnf first (exactly 3 literals required)"
        )
    return instance._lits.reshape(-1, 3)


def _literal_array(runs, size: int) -> np.ndarray:
    """The ``size`` literals of the lists ``runs`` laid end to end: int64,
    or Python ints in an object array when one is beyond int64."""
    try:
        return np.fromiter(chain.from_iterable(runs), np.int64, size)
    except OverflowError:
        return np.fromiter(chain.from_iterable(runs), object, size)


def _first_bad_literal(lits: np.ndarray, num_vars: int) -> int | None:
    """The index of the first literal of ``lits`` that is 0 or names a
    variable beyond ``num_vars``; None if there is none."""
    bad = (lits == 0) | (lits > num_vars) | (lits < -num_vars)
    return int(bad.argmax()) if bad.any() else None


def _marked_lines(text: str) -> list[tuple[int, int]]:
    """Spans of the lines of ``text`` whose first non-blank character is
    "c" (a comment) or "p" (a problem line), in order.  ``text`` breaks
    lines at "\n" only.  Clause lines hold neither letter, so the searches
    skip them at the speed of ``str.find``."""
    spans = []
    for letter in "cp":
        i = text.find(letter)
        while i >= 0:
            start = text.rfind("\n", 0, i) + 1
            end = text.find("\n", i)
            if end < 0:
                end = len(text)
            if not text[start:i].strip():
                spans.append((start, end))
            i = text.find(letter, end)
    return sorted(spans)


def parse_dimacs(text: str | bytes) -> CnfInstance:
    """Parse DIMACS CNF text.

    Grammar: optional ``c`` comment lines, one ``p cnf <n> <m>`` header,
    then ``m`` clauses as whitespace-separated nonzero integers each
    terminated by ``0``.  Raises :class:`DimacsError` on malformed headers,
    clause-count mismatches, out-of-range variables, or zero-length clauses.
    Repeated literals within a clause are collapsed to their first
    occurrence; tautologies (``v`` and ``-v`` together) are kept.

    The clause body is read by numpy in one pass (:func:`_read_literals`)
    when it holds only plain decimals, all in range, and cut into clauses
    at its zeros (:func:`_clause_arrays`): no ``str`` token, ``int()`` call
    or list per literal or clause.  Any other body (``+1``, ``1_0`` or
    ``١``, which ``int()`` reads, a bad token or an out-of-range literal)
    takes the token reader (:func:`_token_clauses`), which names the first
    bad token.  Both give the same clauses and the same errors.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii")
    if not text.isascii() or any(map(text.__contains__, _LINE_BREAKS)):
        text = "\n".join(text.splitlines())
    num_vars = -1
    num_clauses = -1
    pieces: list[str] = []
    done = 0
    for start, end in _marked_lines(text):
        pieces.append(text[done:start])
        done = end
        line = text[start:end].strip()
        if line.startswith("c"):
            continue
        if num_vars != -1:
            raise DimacsError("duplicate problem line")
        parts = line.split()
        if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
            raise DimacsError(f"malformed problem line: {line!r}")
        try:
            num_vars = int(parts[2])
            num_clauses = int(parts[3])
        except ValueError as exc:
            raise DimacsError(f"malformed problem line: {line!r}") from exc
        if num_vars < 0 or num_clauses < 0:
            raise DimacsError(f"negative counts in problem line: {line!r}")
    if num_vars == -1:
        raise DimacsError("missing problem line")
    pieces.append(text[done:])
    body = " ".join(pieces)

    lits = _read_literals(body, num_vars)
    arrays = _token_clauses(body, num_vars) if lits is None else _clause_arrays(lits)
    instance = CnfInstance._of(num_vars, *arrays)
    if instance.num_clauses != num_clauses:
        raise DimacsError(
            "clause count mismatch: "
            f"header says {num_clauses}, found {instance.num_clauses}"
        )
    return instance


# Line breaks other than "\n" that str.splitlines() knows in ASCII text.
_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"
# The bytes of a plain clause body: decimal digits, the minus sign, and the
# whitespace that both str.split() and numpy's separator skip.
_PLAIN_BYTES = b"0123456789- \t\n\r\x0b\x0c"
_INT64_MAX = 2**63 - 1


def _read_literals(body: str, num_vars: int) -> np.ndarray | None:
    """The literals of a clause body, each in range, read by numpy in one
    pass; None when the body is not plain or a literal is out of range.

    Plain means ASCII digits, ``-`` and whitespace only, at least one
    token, and every ``-`` at the start of a token and before a digit: so
    every token is ``-?[0-9]+`` and reads as ``int()`` reads it.  The checks
    come first because ``np.fromstring`` differs from ``int()`` outside
    that form, in ways that vary between numpy releases: a blank body reads
    as ``[0]``, a lone sign as ``0``, ``"- 1"`` as ``-1``, and text it cannot
    match raises in numpy 2 but only warns and stops in older releases.  A
    token too long for int64 saturates at ``2**63 - 1`` (also when it is
    negative), so with ``num_vars`` below that the range check refuses it.
    """
    if not body.isascii() or num_vars >= _INT64_MAX:
        return None
    raw = body.encode("ascii")
    if not raw or raw.isspace() or raw.translate(None, _PLAIN_BYTES):
        return None
    buf = np.frombuffer(raw, np.uint8)
    signs = np.flatnonzero(buf == ord("-"))
    if signs.size:
        # Whitespace is below "-" and the digits above it.
        if signs[-1] == buf.size - 1 or (buf[signs + 1] < ord("0")).any():
            return None
        if signs[0] == 0:
            signs = signs[1:]
        if (buf[signs - 1] > ord(" ")).any():
            return None
    lits = np.fromstring(raw, np.int64, sep=" ")
    if lits.max() > num_vars or lits.min() < -num_vars:
        return None
    return lits


def _clause_arrays(lits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The literal and offsets arrays of a literal stream cut at each
    ``0``, repeated literals collapsed to their first occurrence.  Raises
    :class:`DimacsError` for an empty clause, then for literals after the
    last ``0``; an empty stream has no clauses."""
    zero = lits == 0
    ends = np.flatnonzero(zero)
    offsets = np.zeros(ends.size + 1, np.int64)
    offsets[1:] = ends - np.arange(ends.size)
    empty = np.flatnonzero(offsets[1:] == offsets[:-1])
    if empty.size:
        raise DimacsError(f"zero-length clause (clause {empty[0] + 1})")
    if lits.size and lits[-1] != 0:
        raise DimacsError("unterminated clause at end of input")
    lits = lits[~zero]
    repeats = _repeats(lits, offsets)
    if repeats.any():
        lits = lits[~repeats]
        offsets -= _offsets_of(repeats)[offsets]
    return lits, offsets


# Literals at most this far apart in a clause are compared across the
# whole stream at once; the pairs grow with the square of the width, so a
# wider clause is checked with a set.
_NEAR = 8


def _repeats(lits: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Mask of the literals that repeat an earlier literal of their clause
    (clauses not empty).

    For each distance ``d`` up to :data:`_NEAR`, every literal is compared
    with the one ``d`` before it, where both lie in one clause.  A clause
    wider than ``_NEAR + 1`` has pairs farther apart: a ``set`` of its
    literals tells whether it repeats one, and only then is it walked.
    """
    size = lits.size
    repeats = np.zeros(size, bool)
    inner = np.ones(size, bool)  # not the first literal of a clause
    inner[offsets[:-1]] = False
    near = inner.copy()  # at least d literals after its clause's first
    widths = np.diff(offsets)
    for d in range(1, min(int(widths.max(initial=0)), _NEAR + 1)):
        if d > 1:
            near[d - 1 :] &= inner[: size - d + 1]
        repeats[d:] |= near[d:] & (lits[d:] == lits[:-d])
    for i in np.flatnonzero(widths > _NEAR + 1).tolist():
        a, b = int(offsets[i]), int(offsets[i + 1])
        clause = lits[a:b].tolist()
        if len(set(clause)) < len(clause):
            # Walked backwards, each literal's last position is its first.
            first = dict(zip(reversed(clause), range(b - 1, a - 1, -1)))
            repeats[a:b] = True
            repeats[list(first.values())] = False
    return repeats


def _token_clauses(body: str, num_vars: int) -> tuple[np.ndarray, np.ndarray]:
    """The literal and offsets arrays of any clause body, read one ``str``
    token at a time by ``int()`` and cut by :func:`_clause_arrays`.  Raises
    :class:`DimacsError` for the first error in reading order: a bad token
    ends the input, and the clauses before it are still checked."""
    tokens = body.split()
    lits: list[int] = []
    error = None
    try:
        lits.extend(map(int, tokens))  # keeps the literals before a failure
    except ValueError:
        error = f"non-integer token {tokens[len(lits)]!r}"
    if lits and (max(lits) > num_vars or min(lits) < -num_vars):
        stop = next(i for i, lit in enumerate(lits) if abs(lit) > num_vars)
        error = f"variable {abs(lits[stop])} exceeds declared maximum {num_vars}"
        del lits[stop:]
    stream = _literal_array((lits,), len(lits))
    if error is None:
        return _clause_arrays(stream)
    ends = np.flatnonzero(stream == 0)
    _clause_arrays(stream[: ends[-1] + 1 if ends.size else 0])
    raise DimacsError(error)


def _cell_table(values: np.ndarray) -> np.ndarray:
    """The DIMACS cells of the sorted, nonempty ``values``, one ASCII row
    each, then the rows ``"0\\n"`` and ``" 0\\n"``.

    A cell is a literal and the space after it, NUL-padded to one width:
    the sign in the first column, the digits right-aligned, NUL in every
    unused column (in a table of 3-digit values, ``-12`` is the bytes
    ``-``, NUL, ``1``, ``2``, space).  Built by digit arithmetic, one pass
    per digit of the largest magnitude, in the smallest unsigned type that
    holds it (``|-2**63|`` wraps to ``-2**63`` in int64 and casts to
    ``2**63``).
    """
    top = max(-int(values[0]), int(values[-1]))
    digits = len(str(top))
    cells = np.zeros((values.size + 2, digits + 2), np.uint8)
    body = cells[:-2]
    body[:, 0] = np.where(values < 0, ord("-"), 0)
    body[:, -1] = ord(" ")
    mags = np.abs(values).astype(np.min_scalar_type(top))
    for place in range(digits):
        column = body[:, digits - place]
        rest = mags // 10
        column[:] = mags - rest * 10 + ord("0")
        mags = rest
        if place:  # leading zeros: the values of magnitude below 10**place
            power = 10**place
            column[np.searchsorted(values, 1 - power) : np.searchsorted(values, power)] = 0
    cells[-2, :2] = np.frombuffer(b"0\n", np.uint8)
    cells[-1, :3] = np.frombuffer(b" 0\n", np.uint8)
    return cells


# The cells of every literal up to this magnitude, built once: a small
# instance then writes with a few numpy calls and no table of its own.
_SMALL_TOP = 9999
_SMALL_CELLS = _cell_table(np.arange(-_SMALL_TOP, _SMALL_TOP + 1))
# Literals written per block, so the writer's temporaries stay a few times
# one block's text beside the text itself.
_BLOCK = 1 << 16


def emit_dimacs(instance: CnfInstance) -> str:
    """Serialize to canonical DIMACS text: the ``p cnf`` line, then one
    line per clause, its literals separated by spaces and closed by ``0``.

    Each literal is written as ``str()`` writes it, a width-0 clause as
    ``" 0"``.  The text comes from a table of literal cells
    (:func:`_cell_table`): each literal ``take``s its cell, each clause
    gets a ``"0\\n"`` cell after its literals (``" 0\\n"`` when it has
    none), and the cells' bytes become text with their NUL padding
    deleted, about 64k literals at a time.  No Python object is made per
    literal.  Literals up to 9999 use one table built at import; larger
    ones a table over ``-top..top`` when the largest magnitude ``top`` is
    below half the literal count, else a table over the values in use
    (``np.unique``), so a sparse variable id such as ``10**12`` never
    sizes the table.  An object array (literals beyond int64) takes that
    last path too.
    """
    lits, offsets = instance._lits, instance._offsets
    top = max(-int(lits.min(initial=0)), int(lits.max(initial=0)))
    if top <= _SMALL_TOP:
        cells, shift = _SMALL_CELLS, _SMALL_TOP
    elif 2 * top < lits.size:
        cells, shift = _cell_table(np.arange(-top, top + 1)), top
    else:
        values, lits = np.unique(lits, return_inverse=True)
        cells, shift = _cell_table(values), 0
    end = cells.shape[0] - 2  # the row of "0\n", then the row of " 0\n"
    widths = np.diff(offsets)
    text = [f"p cnf {instance.num_vars} {instance.num_clauses}\n"]
    if widths.size and widths[0] and (widths == widths[0]).all():
        width = int(widths[0])  # one row of cells per clause
        step = -(-_BLOCK // width)
        for c in range(0, widths.size, step):
            block = lits[c * width : (c + step) * width].reshape(-1, width)
            rows = np.empty((block.shape[0], width + 1), np.intp)
            np.add(block, shift, out=rows[:, :width])
            rows[:, width] = end
            text.append(_cells_text(cells, rows))
        return "".join(text)
    stop_rows = end + (widths == 0)
    cuts = np.searchsorted(offsets, np.arange(_BLOCK, offsets[-1], _BLOCK)).tolist()
    for c0, c1 in zip([0, *cuts], [*cuts, widths.size]):
        s, e = offsets[c0], offsets[c1]
        # Clause i's "0" cell follows its literals and the i - c0 earlier ones.
        stops = offsets[c0 + 1 : c1 + 1] + np.arange(-s, c1 - c0 - s)
        rows = np.empty(e - s + c1 - c0, np.intp)
        rows[stops] = stop_rows[c0:c1]
        literal = np.ones(rows.size, bool)
        literal[stops] = False
        rows[literal] = lits[s:e] + shift
        text.append(_cells_text(cells, rows))
    return "".join(text)


def _cells_text(cells: np.ndarray, rows: np.ndarray) -> str:
    """The text of the cells at ``rows``, in order, NUL padding deleted."""
    return cells.take(rows, 0).tobytes().translate(None, b"\0").decode("ascii")


# ---------------------------------------------------------------------------
# CNF -> exactly-3CNF conversion
# ---------------------------------------------------------------------------

def to_three_cnf(instance: CnfInstance) -> tuple[CnfInstance, TseitinMap]:
    """Convert any CNF to an equisatisfiable, exactly-3-literal CNF.

    Clauses longer than 3 are chain-split with one fresh variable per split
    point; clauses of width 1 or 2 are padded by fresh-variable case
    expansion (unit -> 4 clauses, binary -> 2 clauses) so every output
    clause has exactly three literals.  Any satisfying assignment of the
    output restricted to the original variables satisfies the input.

    The returned map holds each fresh variable as an ``or`` gate.  Split
    variable ``s_i`` of a clause ``l_0 .. l_{w-1}`` is ``or(l_{i+2},
    s_{i+1})`` and the last one ``or(l_{w-2}, l_{w-1})``, Tseitin's
    two-input links, so each has the value of its clause suffix
    ``l_{i+2} .. l_{w-1}`` and the map grows linearly with the output.  A
    padding variable is the empty ``or`` (false).  The gates go in clause
    by clause, a clause's padding gates in variable order and its split
    gates from last to first, so each gate follows its inputs.
    :func:`evaluate_gates` extends a model of the input to a model of the
    output.  The output keeps the input's clause order, each clause
    replaced by its pieces; fresh variables are numbered from
    ``num_vars + 1`` in that order.  An input whose clauses all have width
    3 is returned as it is, with an empty map.  Every piece is placed by
    ``cumsum`` offsets over per-clause counts, so no Python code runs per
    clause, only one step per fresh variable to write its gate.

    Raises ValueError if the input contains an empty clause (trivially
    unsatisfiable; flagged rather than encoded).
    """
    n = instance.num_vars
    lits, offsets = instance._lits, instance._offsets
    widths = np.diff(offsets)
    if (widths == 3).all():
        return instance, TseitinMap(n, n)
    if not widths.all():
        raise ValueError("empty clause: input is trivially unsatisfiable")
    # Fresh variables of a clause: 2 for a unit, 1 for a binary and w - 3
    # for width w >= 3; output clauses: 4, 2 and w - 2.
    fresh = np.abs(widths - 3)
    pieces = fresh + 1 + (widths == 1)
    var0 = n + 1 + _exclusive_cumsum(fresh)
    row0 = _exclusive_cumsum(pieces)
    first = offsets[:-1]
    out = np.empty((int(pieces.sum()), 3), np.int64)
    # Unit (a): (a p q) (a -p q) (a p -q) (a -p -q).
    c = np.flatnonzero(widths == 1)
    a, p = lits[first[c]], var0[c]
    block = [[a, p, p + 1], [a, -p, p + 1], [a, p, -p - 1], [a, -p, -p - 1]]
    out[row0[c, None] + np.arange(4)] = np.array(block).transpose(2, 0, 1)
    # Binary (a b): (a b p) (a b -p).
    c = np.flatnonzero(widths == 2)
    a, b, p = lits[first[c]], lits[first[c] + 1], var0[c]
    block = [[a, b, p], [a, b, -p]]
    out[row0[c, None] + np.arange(2)] = np.array(block).transpose(2, 0, 1)
    # Width w >= 3, (l_0 .. l_{w-1}) split by s_0 .. s_{w-4}: (l_0 l_1 s_0)
    # (-s_0 l_2 s_1) ... (-s_{w-4} l_{w-2} l_{w-1}).
    wide = np.flatnonzero(widths >= 3)
    owner, i = _runs(pieces[wide])
    c = wide[owner]
    s = var0[c] + i
    rows = row0[c] + i
    out[rows, 0] = np.where(i == 0, lits[first[c]], 1 - s)
    out[rows, 1] = lits[first[c] + i + 1]
    out[rows, 2] = np.where(i == widths[c] - 3, lits[offsets[c + 1] - 1], s)
    # The gates, one place per fresh variable: the clause (-s_k l_{k+2}
    # s_{k+1}) above read as s_k = (or l_{k+2} s_{k+1}), so the values are
    # the suffix values.  A clause's split gates take its places from last
    # to first, each after its input; padding gates in variable order.
    owner, i = _runs(fresh)
    var = var0[owner] + i
    split = np.flatnonzero(widths[owner] > 3)
    c, i = owner[split], i[split]
    k = fresh[c] - 1 - i
    s = var0[c] + k
    var[split] = s
    a = lits[first[c] + k + 2]
    b = np.where(i == 0, lits[offsets[c + 1] - 1], s + 1)
    gates = np.empty(owner.size, object)
    gates.fill(_PADDING_GATE)
    # All pairs exist before the gates that hold them, so the collector
    # stops tracking each tuple at its first pass; zip makes its result
    # before the items, and a gate made before its pair stayed tracked into
    # full collections (1.9 of 4.5 s on a 2.4M-clause input).
    pairs = np.fromiter(zip(a.tolist(), b.tolist()), object, split.size)
    gates[split] = np.fromiter(zip(repeat("or"), pairs), object, split.size)
    top = n + owner.size
    gates = dict(zip(var.tolist(), gates))
    return CnfInstance(top, out), TseitinMap(n, top, gates)


# The gate of every padding variable: the empty or, false.
_PADDING_GATE = ("or", ())


@dataclass
class TseitinMap:
    """Gate dictionary of a Tseitin encoding.

    ``gates`` maps each fresh gate variable to ``(op, input_literals)`` in
    definition (topological) order, where ``op`` is ``"and"``, ``"or"`` or
    ``"xor"`` and the inputs are signed literals over input variables or
    earlier gates.  Topological is not always ascending: the split gates
    of :func:`to_three_cnf` read the next split variable of their clause.
    For every assignment of the input variables there is exactly one
    extension to the gates satisfying the definition clauses;
    :func:`evaluate_gates` computes it.
    """

    num_input_vars: int
    num_vars: int
    gates: dict[int, tuple[str, tuple[int, ...]]] = field(default_factory=dict)


class TseitinEncoder:
    """Incremental Tseitin encoder over literals.

    :meth:`add_gate` takes a fresh variable for every call.  :meth:`gate`
    and :meth:`gate_n` look ``(op, input literals)`` up in one table first,
    so a repeated gate is one variable and the CNF stays linear in the
    number of distinct gates.  Callers may build several outputs against
    one shared gate pool (the cost-circuit compiler and the firewall
    encoder do).
    """

    def __init__(self, num_input_vars: int):
        self.num_input_vars = num_input_vars
        self._next = num_input_vars + 1
        self.clauses: list[list[int]] = []
        self.gates: dict[int, tuple[str, tuple[int, ...]]] = {}
        self._shared: dict[tuple[str, tuple[int, ...]], int] = {}

    def add_gate(self, op: str, lits: tuple[int, ...]) -> int:
        """A fresh variable defined as ``op(lits)``, with its definition
        clauses; ``op`` is ``"and"`` or ``"or"`` (any number of inputs; none
        gives a forced constant) or ``"xor"`` (two inputs)."""
        g = self._next
        self._next += 1
        self.gates[g] = (op, lits)
        if op == "xor":
            la, lb = lits
            self.clauses.extend(
                [[-g, la, lb], [-g, -la, -lb], [g, la, -lb], [g, -la, lb]]
            )
        elif op == "and":
            self.clauses.extend([-g, l] for l in lits)
            self.clauses.append([g] + [-l for l in lits])
        else:
            self.clauses.extend([g, -l] for l in lits)
            self.clauses.append([-g] + list(lits))
        return g

    def gate(self, op: str, a: int, b: int) -> int:
        """Literal of ``op(a, b)`` for ``op`` in ``"and"``, ``"or"``,
        ``"xor"``.  The literal 0 is constant false and folds away: ``and``
        with 0 gives 0, ``or`` and ``xor`` with 0 give the other input.
        Otherwise this is ``gate_n(op, (a, b))``, written out because the
        cost circuit's adder calls it for every bit."""
        if not a or not b:
            return 0 if op == "and" else a or b
        lits = (a, b)
        g = self._shared.get((op, lits))
        if g is None:
            g = self._shared[op, lits] = self.add_gate(op, lits)
        return g

    def gate_n(self, op: str, lits: tuple[int, ...]) -> int:
        """Literal of ``op(lits)`` over nonzero literals: the input itself
        when there is one, else the gate of ``(op, lits)``, made on the
        first call and shared by every later one (and by :meth:`gate`).
        No inputs give the forced constant gate: ``and`` true, ``or``
        false."""
        if len(lits) == 1:
            return lits[0]
        g = self._shared.get((op, lits))
        if g is None:
            g = self._shared[op, lits] = self.add_gate(op, lits)
        return g

    @property
    def num_vars(self) -> int:
        return self._next - 1

    def cnf(self) -> CnfInstance:
        return CnfInstance(self.num_vars, self.clauses)

    def mapping(self) -> TseitinMap:
        return TseitinMap(self.num_input_vars, self.num_vars, dict(self.gates))


def evaluate_gates(mapping: TseitinMap, inputs: dict[int, bool]) -> dict[int, bool]:
    """Compute the unique gate extension of an input assignment.

    ``inputs`` must cover variables ``1..num_input_vars``.  Returns a total
    assignment over ``1..num_vars`` satisfying every definition clause.
    """
    full = {v: inputs[v] for v in range(1, mapping.num_input_vars + 1)}

    def lit_value(lit: int) -> bool:
        return full[abs(lit)] == (lit > 0)

    for gate, (op, lits) in mapping.gates.items():
        if op == "and":
            full[gate] = all(lit_value(l) for l in lits)
        elif op == "or":
            full[gate] = any(lit_value(l) for l in lits)
        elif op == "xor":
            a, b = lits
            full[gate] = lit_value(a) != lit_value(b)
        else:
            raise ValueError(f"unknown gate op {op!r}")
    return full


# The name perfbench/client.py imports for completing a 3CNF map; the map
# holds gates like any other.
complete_to_three_cnf = evaluate_gates
