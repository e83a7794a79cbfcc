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

The outsourced artifact serializes as an OPB pseudo-Boolean file.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import chain, compress

from .cnf import CnfInstance, _three_table
from .gf2 import BitMatrix, int_mat_mul, int_mat_vec, random_full_rank

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


@dataclass
class LinearSystem:
    """0/1 linear equality system: ``coeffs[i] . x = rhs[i]`` for each row."""

    num_vars: int
    coeffs: list[list[int]]
    rhs: list[int]

    @property
    def num_constraints(self) -> int:
        return len(self.coeffs)

    def validate(self) -> None:
        if len(self.rhs) != len(self.coeffs):
            raise ValueError("rhs length does not match constraint count")
        for row in self.coeffs:
            if len(row) != self.num_vars:
                raise ValueError("coefficient row width mismatch")


@dataclass
class MatrixSecret:
    """Client-held state for mapping a solution back: where the original
    variables end (``original_n``; the dummies follow) and the per-row
    negation counts, read only for their number ``m``, which fixes the
    solution length ``n + 2m``.  ``R`` is not kept: projecting a solution
    never needs it."""

    original_n: int
    negation_constants: list[int]
    seed: int


def encode_linear(instance: CnfInstance) -> LinearSystem:
    """Encode an exactly-3CNF instance as ``AX = B``.

    One equation per clause over ``n + 2m`` variables; the two dummies of
    clause ``i`` occupy columns ``n + 2i`` and ``n + 2i + 1`` (0-based).
    Raises ValueError on clauses that are not width 3.
    """
    n = instance.num_vars
    m = instance.num_clauses
    num_vars = n + 2 * m
    coeffs = []
    rhs = []
    for i, clause in enumerate(_three_table(instance).tolist()):
        row = [0] * num_vars
        negations = 0
        for lit in clause:
            if lit > 0:
                row[lit - 1] += 1
            else:
                row[-lit - 1] -= 1
                negations += 1
        row[n + 2 * i] = 1
        row[n + 2 * i + 1] = 1
        coeffs.append(row)
        rhs.append(3 - negations)
    return LinearSystem(num_vars, coeffs, rhs)


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


def apply_random_matrix(sys: LinearSystem, r: BitMatrix) -> LinearSystem:
    """Return the system ``(RA)X = RB`` (plain integer arithmetic)."""
    if r.cols != sys.num_constraints:
        raise ValueError("R dimension does not match constraint count")
    coeffs = int_mat_mul(r, sys.coeffs)
    rhs = int_mat_vec(r, sys.rhs)
    return LinearSystem(sys.num_vars, coeffs, rhs)


def randomize_system(sys: LinearSystem, seed: int) -> tuple[LinearSystem, MatrixSecret]:
    """Multiply the encoded system by a random full-rank ``R`` drawn from
    ``seed``.  The 0/1 solution sets of input and output are identical."""
    m = sys.num_constraints
    r = random_full_rank(m, random.Random(seed))
    original_n = sys.num_vars - 2 * m
    negation_constants = [3 - b for b in sys.rhs]
    secret = MatrixSecret(original_n, negation_constants, seed)
    return apply_random_matrix(sys, r), secret


def check_linear(sys: LinearSystem, vector: list[int]) -> bool:
    """True iff the 0/1 ``vector`` satisfies every equation."""
    if len(vector) != sys.num_vars:
        raise ValueError("vector length does not match system")
    return all(
        sum(c * x for c, x in zip(row, vector)) == b
        for row, b in zip(sys.coeffs, sys.rhs)
    )


# ---------------------------------------------------------------------------
# OPB (pseudo-Boolean equality) serialization
# ---------------------------------------------------------------------------

class _SignedCoefficients(dict):
    """Signed text of each coefficient value, e.g. ``-2`` -> ``"-2"``,
    formatted the first time the value is looked up."""

    def __missing__(self, c: int) -> str:
        text = self[c] = f"{c:+d}"
        return text


def emit_opb(sys: LinearSystem) -> str:
    """Serialize as an OPB file of equality constraints.

    Zero coefficients are omitted; every term carries an explicit sign, e.g.
    ``+1 x1 -2 x3 = 4 ;``.  A row without a nonzero coefficient is written
    as `` = b ;``.
    """
    names = [f"x{j}" for j in range(1, max(map(len, sys.coeffs), default=0) + 1)]
    signed = _SignedCoefficients()
    lines = [f"* #variable= {sys.num_vars} #constraint= {sys.num_constraints}"]
    for row, b in zip(sys.coeffs, sys.rhs):
        # The nonzero values and their names, interleaved: "+1 x1 -2 x3".
        terms = zip(map(signed.__getitem__, filter(None, row)), compress(names, row))
        lines.append(f"{' '.join(chain.from_iterable(terms))} = {b} ;")
    return "\n".join(lines) + "\n"


_OPB_HEADER = re.compile(
    r"\*\s*#variable=\s*([0-9]+)\s+#constraint=\s*([0-9]+)(?!\S)"
)
_OPB_CONSTRAINT = re.compile(r"((?:[+-][0-9]+\s+x[0-9]+\s+)+)=\s*([+-]?[0-9]+)\s*;")
_OPB_TERM = re.compile(r"([+-][0-9]+)\s+x([0-9]+)")


def parse_opb(text: str) -> LinearSystem:
    """Parse the equality-OPB dialect written by :func:`emit_opb`: after the
    header, ``*`` comment lines and lines of one or more whitespace-separated
    ``<signed integer> x<index>`` terms followed by ``= <integer> ;``.
    Raises ValueError for any other line."""
    lines = [l.strip() for l in text.splitlines() if l.strip()]
    if not lines:
        raise ValueError("empty OPB input")
    header = _OPB_HEADER.match(lines[0])
    if not header:
        raise ValueError(f"malformed OPB header: {lines[0]!r}")
    num_vars, num_constraints = int(header.group(1)), int(header.group(2))
    coeffs = []
    rhs = []
    for line in lines[1:]:
        if line.startswith("*"):
            continue
        constraint = _OPB_CONSTRAINT.fullmatch(line)
        if not constraint:
            raise ValueError(f"malformed OPB constraint: {line!r}")
        row = [0] * num_vars
        for coeff, var in _OPB_TERM.findall(constraint.group(1)):
            var = int(var)
            if not 1 <= var <= num_vars:
                raise ValueError(f"variable x{var} out of range in {line!r}")
            row[var - 1] += int(coeff)
        coeffs.append(row)
        rhs.append(int(constraint.group(2)))
    if len(coeffs) != num_constraints:
        raise ValueError(
            f"constraint count mismatch: header says {num_constraints}, "
            f"found {len(coeffs)}"
        )
    return LinearSystem(num_vars, coeffs, rhs)
