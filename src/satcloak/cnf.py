"""CNF data model, DIMACS I/O, 3CNF conversion, and Tseitin gates.

Literals are DIMACS-style signed integers: ``v`` is the positive occurrence
of variable ``v`` (``v >= 1``) and ``-v`` its negation.  A clause is a list of
literals, an instance is a variable count plus its clauses in one of two
stores: a list of clause lists, or a *table*, one ``(k, w)`` int64 array of
clauses that all have width ``w``.  The instance keeps the store it was
built with, and its operations (validating, checking an assignment,
writing DIMACS, the isomorphism disguise) run on that store with the same
results and errors on both; on a table they are numpy operations with no
Python code per clause.  ``clauses`` of a table is a new list made by one
``tolist()`` on each read, which lives only as long as its reader keeps
it.  Every transformation in the toolkit consumes and produces these
objects.

:func:`parse_dimacs` reads a plain clause body (decimal literals and
whitespace only) with numpy in one pass; a body whose clauses all have one
width from 1 to 4 and repeat no literal, such as any exactly-3CNF text,
stays a table.  Any other body is read one ``str`` token at a time, which
gives the same clauses and names the first bad token.  Both readers cut a
stream of mixed widths into clauses with the same loop,
:func:`_split_clauses`.

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

The library's entry points that build or walk clause-sized object graphs
run with CPython's cyclic garbage collector paused (:func:`_nogc`).  Those
graphs (clause lists, gate tuples, dicts of ints) hold no reference cycles,
so reference counting frees them and the collector's passes only re-scan
survivors.  For the same reason the survivors are moved to the oldest
generation when the pause ends, instead of being scanned by the young
collections that the allocations made during the call would start.
Calls that build only one list per row or a few dicts, such as the matrix
encoding and product and ``orchestrator.check_solution``, and the GF(2)
rewrite, which writes one literal table, run unpaused; the clause-sized
work inside them, :func:`to_three_cnf`, keeps its own pause.
"""

from __future__ import annotations

import gc
import threading
from dataclasses import dataclass, field
from functools import wraps
from itertools import chain, combinations

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


# The collector's on/off switch is process-wide, so the count of running
# paused calls and the state to restore when the last one ends live at
# module level too, under one lock: a thread that read ``gc.isenabled()``
# while another re-enabled the collector could otherwise leave it off.
_pause_lock = threading.Lock()
_pauses = 0
_gc_was_enabled = False


def _nogc(func):
    """Decorate ``func`` to run with the cyclic garbage collector paused.

    While any decorated call runs, in any thread, the pause holds for the
    whole process.  When the last running call ends, by returning or by
    raising, the collector is put back as it was before the first one began.

    Nothing is collected on the way out: the decorated code makes no
    cycles, and reference counting keeps freeing its garbage meanwhile.
    Instead, if the collector was on, every object it tracks is promoted to
    the oldest generation (``gc.freeze()`` then ``gc.unfreeze()``, which
    splice lists in constant time and reset the young count).  Otherwise
    the first allocation after the pause would start a young collection
    over everything the call allocated and kept, clause lists that cannot
    be cyclic garbage, and the next older collection would scan them again.
    The promotion is skipped while the caller has objects frozen, so they
    stay frozen.  The trade-off: cyclic garbage that was still young when
    the call ended waits for the next full collection.
    """

    @wraps(func)
    def paused(*args, **kwargs):
        global _pauses, _gc_was_enabled
        with _pause_lock:
            if not _pauses:
                _gc_was_enabled = gc.isenabled()
                gc.disable()
            _pauses += 1
        try:
            return func(*args, **kwargs)
        finally:
            with _pause_lock:
                _pauses -= 1
                if not _pauses and _gc_was_enabled:
                    if not gc.get_freeze_count():
                        gc.freeze()
                        gc.unfreeze()
                    gc.enable()

    return paused


class DimacsError(ValueError):
    """Raised for malformed DIMACS input."""


class InvalidSolutionError(Exception):
    """A provider-supplied solution failed validation against the original
    instance.  Distinct from ValueError so callers can tell fraud (or an
    implementation bug) apart from plain usage errors."""


class CnfInstance:
    """A CNF formula: ``num_vars`` variables, clauses over signed literals.

    ``CnfInstance(num_vars, clauses)`` takes the clauses in one of two
    stores and keeps that store:

    * a list of clause lists, which the instance holds as given;
    * a *table*: a ``(k, w)`` int64 array with one row per clause, all of
      one width ``w >= 1``.  :func:`parse_dimacs` makes one of a body whose
      clauses have one width from 1 to 4 and repeat no literal,
      :func:`~satcloak.isomorph.apply_iso` keeps it and
      :func:`~satcloak.solsetrand.gf_randomize` writes one.  :attr:`table`
      is the array (None for the list store).

    :meth:`validate`, :meth:`satisfies`, :attr:`num_clauses`, ``==`` and
    :func:`emit_dimacs` work on the store the instance holds, with the same
    results and errors on both.  Nothing converts a list store to a table
    store.  :attr:`clauses` is the list store, or for a table a new list
    built by one ``tolist()`` on each read, for the code that walks clauses
    one by one (the 3CNF conversion of other widths, the matrix encoding,
    the firewall and the oracles).  It is not cached: a cached view would
    keep a second copy of the clauses, about seven times the table's size,
    for as long as the instance lives, after a reader that needed it once.

    Instances are treated as immutable after construction; all operations
    return new objects.  Instances may share clause lists and tables with
    each other (a converted instance keeps the input's width-3 clauses), so
    nothing mutates a clause, the clause list or the table in place.
    """

    __slots__ = ("num_vars", "_clauses", "_table")
    __hash__ = None

    def __init__(self, num_vars: int, clauses: list[list[int]] | np.ndarray):
        self.num_vars = num_vars
        if isinstance(clauses, np.ndarray):
            self._clauses = None
            self._table = clauses
        else:
            self._clauses = clauses
            self._table = None

    @property
    def clauses(self) -> list[list[int]]:
        if self._table is None:
            return self._clauses
        return self._table.tolist()

    @property
    def table(self) -> np.ndarray | None:
        return self._table

    @property
    def num_clauses(self) -> int:
        return len(self._clauses if self._table is None else self._table)

    def __eq__(self, other):
        if not isinstance(other, CnfInstance):
            return NotImplemented
        if self.num_vars != other.num_vars:
            return False
        if self._table is not None and other._table is not None:
            return np.array_equal(self._table, other._table)
        return self.clauses == other.clauses

    def __repr__(self) -> str:
        return f"CnfInstance(num_vars={self.num_vars!r}, clauses={self.clauses!r})"

    def validate(self) -> None:
        if self.num_vars < 0:
            raise ValueError("negative variable count")
        if self._table is not None:
            lit = _first_bad_literal(self._table, self.num_vars)
            if lit is not None:
                raise ValueError(f"literal {lit} out of range 1..{self.num_vars}")
            return
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range 1..{self.num_vars}")

    def satisfies(self, assignment: dict[int, bool]) -> bool:
        """True iff ``assignment`` satisfies every clause.

        Values are bools or 0/1 ints.  A clause with a true literal is
        satisfied whether or not its other variables are assigned.  The
        first clause that no true literal satisfies decides the answer:
        False, or KeyError if it names a variable missing from
        ``assignment``.  On a table the keys must be int64 values.
        """
        if self._table is None:
            true = {v if value else -v for v, value in assignment.items()}
            falsified = next(filter(true.isdisjoint, self.clauses), None)
        else:
            table = self._table
            size = len(assignment)
            keys = np.fromiter(assignment, np.int64, size)
            values = np.fromiter(assignment.values(), bool, size)
            true = np.where(values, keys, -keys)
            span = max(-int(table.min(initial=0)), int(table.max(initial=0)))
            if span <= 4 * (table.size + size):
                # A truth table over the literals -span..span: one gather
                # per literal, without np.isin's per-call set-up.
                truth = np.zeros(2 * span + 1, bool)
                truth[true[(true >= -span) & (true <= span)] + span] = True
                hit = truth[table + span].any(axis=1)
            else:  # literals too large for a truth table of that size
                hit = np.isin(table, true).any(axis=1)
            falsified = None if hit.all() else table[hit.argmin()].tolist()
        if falsified is None:
            return True
        for lit in falsified:
            if abs(lit) not in assignment:
                raise KeyError(abs(lit))
        return False


def _first_bad_literal(table: np.ndarray, num_vars: int) -> int | None:
    """The first literal of ``table``, in row order, that is 0 or names a
    variable beyond ``num_vars``; None if there is none."""
    bad = (table == 0) | (np.abs(table) > num_vars)
    return int(table.flat[bad.argmax()]) if bad.any() else None


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


@_nogc
def parse_dimacs(text: str | bytes) -> CnfInstance:
    """Parse DIMACS CNF text.

    Grammar: optional ``c`` comment lines, one ``p cnf <n> <m>`` header,
    then ``m`` clauses as whitespace-separated nonzero integers each
    terminated by ``0``.  Raises :class:`DimacsError` on malformed headers,
    clause-count mismatches, out-of-range variables, or zero-length clauses.
    Repeated literals within a clause are collapsed to their first
    occurrence; tautologies (``v`` and ``-v`` together) are kept.

    The clause body is read by numpy in one pass (:func:`_read_literals`)
    when it holds only plain decimals, all in range: no ``str`` token and
    no ``int()`` call per literal.  Any other body (``+1``, ``1_0`` or
    ``١``, which ``int()`` reads, a bad token or an out-of-range literal)
    takes the token reader (:func:`_token_clauses`), which names the first
    bad token.  Both give the same clauses and the same errors.  The
    instance holds a literal table when :func:`_uniform_clauses` gives one,
    and clause lists otherwise.
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
    if lits is None:
        clauses = _token_clauses(body, num_vars)
    else:
        clauses = _uniform_clauses(lits)
        if clauses is None:
            clauses = _split_clauses(lits.tolist())
    if len(clauses) != num_clauses:
        raise DimacsError(
            f"clause count mismatch: header says {num_clauses}, found {len(clauses)}"
        )
    return CnfInstance(num_vars, clauses)


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


def _uniform_clauses(
    lits: np.ndarray | list[int],
) -> np.ndarray | list[list[int]] | None:
    """The clauses of a literal stream whose clauses all have one width
    from 1 to 4, or None for any other stream: a ``(k, w)`` table when no
    clause repeats a literal, else clause lists with repeated literals
    collapsed to their first occurrence.

    The stream is viewed as a table with one row per clause, so no Python
    code runs per clause; repeats are found by comparing each pair of
    columns, and only a stream that has one is turned into lists, by one
    ``tolist()``.  Wider clauses take :func:`_split_clauses`: the pairs
    grow with the square of the width.
    """
    lits = np.asarray(lits, np.int64)
    ends = np.flatnonzero(lits == 0)
    k = ends.size
    if not k:
        return None
    w = int(ends[0])
    if not 1 <= w <= 4 or lits.size != k * (w + 1):
        return None
    table = lits.reshape(k, w + 1)
    if table[:, w].any():
        return None
    rows = table[:, :w]
    repeats = np.zeros(k, bool)
    for i, j in combinations(range(w), 2):
        repeats |= rows[:, i] == rows[:, j]
    if not repeats.any():
        return np.ascontiguousarray(rows)
    clauses = rows.tolist()
    for i in np.flatnonzero(repeats).tolist():
        clauses[i] = list(dict.fromkeys(clauses[i]))
    return clauses


def _token_clauses(body: str, num_vars: int) -> list[list[int]]:
    """The clauses of any clause body, read one ``str`` token at a time by
    ``int()``.  Raises :class:`DimacsError` for the first error in reading
    order: a bad token ends the input, and the clauses before it are still
    checked."""
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
    return _split_clauses(lits, error)


def _split_clauses(lits: list[int], error: str | None = None) -> list[list[int]]:
    """The clauses of a literal stream cut at each ``0``, repeated literals
    collapsed to their first occurrence.  Raises :class:`DimacsError` for an
    empty clause, then for ``error`` (what stopped the stream early), then
    for literals after the last ``0``."""
    clauses = []
    start = 0
    for _ in range(lits.count(0)):
        end = lits.index(0, start)
        if end == start:
            raise DimacsError(f"zero-length clause (clause {len(clauses) + 1})")
        clause = lits[start:end]
        if len(set(clause)) != len(clause):
            clause = list(dict.fromkeys(clause))
        clauses.append(clause)
        start = end + 1
    if error is not None:
        raise DimacsError(error)
    if start != len(lits):
        raise DimacsError("unterminated clause at end of input")
    return clauses


class _ClauseFormats(dict):
    """Line template of each clause width, e.g. ``3`` -> ``"%d %d %d 0\\n"``,
    built the first time the width is looked up.  Width 0 gives ``" 0\\n"``."""

    def __missing__(self, width: int) -> str:
        text = self[width] = " ".join(["%d"] * width) + " 0\n"
        return text


_FORMATS = _ClauseFormats()


def emit_dimacs(instance: CnfInstance) -> str:
    """Serialize to canonical DIMACS text: the ``p cnf`` line, then one
    line per clause, its literals separated by spaces and closed by ``0``.

    Literals must be ints; each is written with ``%d``.  A width-0 clause
    is written as ``" 0"``.  The body is one template of per-width line
    formats, filled with all literals in a single ``%`` operation; a table's
    template is its one line format repeated, its literals one ``tolist()``.
    """
    head = f"p cnf {instance.num_vars} {instance.num_clauses}\n"
    table = instance.table
    if table is not None:
        k, w = table.shape
        return head + (_FORMATS[w] * k) % tuple(table.ravel().tolist())
    clauses = instance.clauses
    template = "".join(map(_FORMATS.__getitem__, map(len, clauses)))
    return head + template % tuple(chain.from_iterable(clauses))


# ---------------------------------------------------------------------------
# CNF -> exactly-3CNF conversion
# ---------------------------------------------------------------------------

@_nogc
def to_three_cnf(instance: CnfInstance) -> tuple[CnfInstance, TseitinMap]:
    """Convert any CNF to an equisatisfiable, exactly-3-literal CNF.

    Clauses longer than 3 are chain-split with one fresh variable per split
    point; clauses of width 1 or 2 are padded by fresh-variable case
    expansion (unit -> 4 clauses, binary -> 2 clauses) so every output
    clause has exactly three literals.  Any satisfying assignment of the
    output restricted to the original variables satisfies the input.

    The returned map holds each fresh variable as an ``or`` gate over
    original literals: a split variable is the ``or`` of its clause suffix,
    a padding variable the empty ``or`` (false).  :func:`evaluate_gates`
    extends a model of the input to a model of the output.  Width-3 clauses
    are shared with the input, not copied, and a width-3 table is returned
    as it is, with an empty map.

    Raises ValueError if the input contains an empty clause (trivially
    unsatisfiable; flagged rather than encoded).
    """
    table = instance.table
    if table is not None and table.shape[1] == 3:
        return instance, TseitinMap(instance.num_vars, instance.num_vars)
    next_var = instance.num_vars + 1
    out: list[list[int]] = []
    gates: dict[int, tuple[str, tuple[int, ...]]] = {}
    for clause in instance.clauses:
        w = len(clause)
        if w == 0:
            raise ValueError("empty clause: input is trivially unsatisfiable")
        if w == 3:
            out.append(clause)
        elif w == 1:
            (a,) = clause
            p, q = next_var, next_var + 1
            next_var += 2
            gates[p] = gates[q] = ("or", ())
            out.extend([[a, p, q], [a, -p, q], [a, p, -q], [a, -p, -q]])
        elif w == 2:
            a, b = clause
            p = next_var
            next_var += 1
            gates[p] = ("or", ())
            out.extend([[a, b, p], [a, b, -p]])
        else:
            # (l1 l2 s1) (-s1 l3 s2) ... (-s_{w-3} l_{w-1} l_w); each s_i is
            # defined as the truth of the remaining suffix l_{i+2}..l_w.
            svars = list(range(next_var, next_var + w - 3))
            next_var += w - 3
            for idx, s in enumerate(svars):
                gates[s] = ("or", tuple(clause[idx + 2 :]))
            out.append([clause[0], clause[1], svars[0]])
            for i in range(1, w - 3):
                out.append([-svars[i - 1], clause[i + 1], svars[i]])
            out.append([-svars[-1], clause[w - 2], clause[w - 1]])
    cnf = CnfInstance(next_var - 1, out)
    return cnf, TseitinMap(instance.num_vars, next_var - 1, gates)


@dataclass
class TseitinMap:
    """Gate dictionary of a Tseitin encoding.

    ``gates`` maps each fresh gate variable to ``(op, input_literals)`` in
    definition (topological) order, where ``op`` is ``"and"``, ``"or"`` or
    ``"xor"`` and the inputs are signed literals over input variables or
    earlier gates.  For every assignment of the input variables there is
    exactly one extension to the gates satisfying the definition clauses;
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
        return CnfInstance(self.num_vars, list(self.clauses))

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
