"""Solution-set randomization: substitute ``X = R^-1 Y`` over GF(2).

A random full-rank n x n 0/1 matrix ``R`` defines new variables
``Y = RX``.  Every original variable is then an XOR of some ``y`` s, and each
clause's disjunction of XOR expressions is re-encoded into CNF:

* a 1-term XOR is just a (possibly negated) ``y`` literal;
* a 2-term XOR ``a xor b`` is flattened through two dummy variables per
  occurrence, ``z ⇔ (a ∧ ¬b)`` and ``z' ⇔ (b ∧ ¬a)`` (three clauses each),
  which join the clause disjunction;
* a k-term XOR (k >= 3) gets a chain of linked dummies, each link a
  four-clause odd-parity block ``z ⇔ ¬(a xor b)``; the final link variable
  represents the whole XOR up to a recorded parity and joins the clause as
  a single literal.  Chains are built once per variable and shared.

The rewritten clauses (width up to 6) are then regularized to exactly-3CNF.
Solutions map back by ``X = R^-1 Y``; all dummies are functionally
determined by ``Y``, so the projected solution set is the image of the
original solution set under the bijection ``R`` — same solution count,
scrambled structure.

With ``row_weight`` set, the substitution matrix ``R^-1`` is drawn sparse
(so each original variable is an XOR of at most ``row_weight`` new ones);
output size then stays linear in the input size.  Only ``R^-1`` is kept:
mapping a solution back reads nothing else, and the honest provider's
forward map, the one user of ``R``, inverts it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cnf import (
    CnfInstance,
    InvalidSolutionError,
    TseitinMap,
    complete_to_three_cnf,
    evaluate_gates,
    to_three_cnf,
)
from .gf2 import (
    BitMatrix,
    gf2_invert,
    gf2_mat_vec,
    random_full_rank,
    random_sparse_full_rank,
)

__all__ = [
    "GfSecret",
    "gf_randomize",
    "gf_derandomize",
    "gf_forward",
]


@dataclass
class GfSecret:
    """The substitution matrix ``r_inv`` (``X = R^-1 Y`` over GF(2)).

    Variables ``1..original_n`` of the randomized instance are the ``y``
    coordinates; everything above is an encoding dummy to be discarded
    after the substitution.
    """

    r_inv: BitMatrix
    original_n: int
    seed: int


def _xnor_link(z: int, la: int, lb: int) -> list[list[int]]:
    # z <-> not(la xor lb), i.e. the odd-parity constraint z + la + lb = 1.
    return [[z, la, lb], [z, -la, -lb], [-z, -la, lb], [-z, la, -lb]]


def _conj_pair(z: int, la: int, lb: int) -> list[list[int]]:
    # z <-> (la and lb).
    return [[-z, la], [-z, lb], [z, -la, -lb]]


class _Plan:
    """Deterministic rewrite of an instance under a substitution matrix.

    Rebuilding the plan from ``(instance, r_inv)`` is how forward mapping
    recovers the dummy-variable layout without storing it in the secret.
    """

    def __init__(self, instance: CnfInstance, r_inv: BitMatrix):
        n = instance.num_vars
        self._next = n + 1
        self.clauses: list[list[int]] = []
        # Each dummy as a gate over earlier literals, in definition order.
        self.gates: dict[int, tuple[str, tuple[int, ...]]] = {}
        self._chain_rep: dict[int, int] = {}
        subs = [
            tuple(j + 1 for j in r_inv.row_ones(v)) for v in range(n)
        ]
        for clause in instance.clauses:
            big: list[int] = []
            for lit in clause:
                v = abs(lit)
                positive = lit > 0
                s = subs[v - 1]
                if len(s) == 1:
                    big.append(s[0] if positive else -s[0])
                elif len(s) == 2:
                    a, b = s
                    if positive:  # value 1: (a and not b) or (b and not a)
                        pairs = [(a, -b), (b, -a)]
                    else:  # value 0: (a and b) or (not a and not b)
                        pairs = [(a, b), (-a, -b)]
                    for pair in pairs:
                        z = self._fresh("and", pair)
                        self.clauses.extend(_conj_pair(z, *pair))
                        big.append(z)
                else:
                    rep = self._chain(v, s)
                    big.append(rep if positive else -rep)
            self.clauses.append(big)
        self.tmap = TseitinMap(n, self._next - 1, self.gates)

    def _fresh(self, op: str, lits: tuple[int, int]) -> int:
        z = self._next
        self._next += 1
        self.gates[z] = (op, lits)
        return z

    def _chain(self, v: int, s: tuple[int, ...]) -> int:
        """Signed literal equal to ``xor(s)``; links are cached per variable."""
        rep = self._chain_rep.get(v)
        if rep is None:
            prev = s[0]
            for nxt in s[1:]:
                z = self._fresh("xor", (prev, -nxt))  # z = not(prev xor nxt)
                self.clauses.extend(_xnor_link(z, prev, nxt))
                prev = z
            # After k-1 links the last z equals xor(s) + (k-1 mod 2).
            rep = prev if (len(s) - 1) % 2 == 0 else -prev
            self._chain_rep[v] = rep
        return rep


def _draw_substitution(
    n: int,
    rng: random.Random,
    row_weight: int | None,
    fixed_vars: frozenset[int],
) -> BitMatrix:
    """Draw ``R^-1``, identity on ``fixed_vars`` coordinates.

    In sparse mode ``R^-1`` is drawn directly (its row weights bound the XOR
    widths and hence the output size); the dense draw is of ``R``, which is
    then inverted.
    """
    free = sorted(set(range(1, n + 1)) - fixed_vars)
    if not free:
        return BitMatrix.identity(n)
    if row_weight is not None:
        block = random_sparse_full_rank(len(free), row_weight, rng)
    else:
        block = gf2_invert(random_full_rank(len(free), rng))
    rows = [0] * n
    for v in range(1, n + 1):
        if v in fixed_vars:
            rows[v - 1] = 1 << (v - 1)
    for bi, v in enumerate(free):
        acc = 0
        for bj in block.row_ones(bi):
            acc |= 1 << (free[bj] - 1)
        rows[v - 1] = acc
    return BitMatrix(n, n, rows)


def gf_randomize(
    instance: CnfInstance,
    seed: int,
    row_weight: int | None = None,
    fixed_vars: frozenset[int] | set[int] = frozenset(),
) -> tuple[CnfInstance, GfSecret]:
    """Randomize the solution set of an exactly-3CNF instance.

    Returns an exactly-3CNF instance over the ``y`` variables plus dummies,
    together with the secret substitution.  An assignment ``Y`` extends to a
    solution of the output iff ``X = R^-1 Y`` satisfies the input.

    ``fixed_vars`` coordinates are left unmixed (identity rows in ``R^-1``) —
    the cost randomizer uses this to keep circuit output bits addressable.
    With the identity matrix (e.g. zero free coordinates) the output equals
    the input.
    """
    for i, clause in enumerate(instance.clauses):
        if len(clause) != 3:
            raise ValueError(
                f"clause {i + 1} has width {len(clause)}; "
                "run to_three_cnf first (exactly 3 literals required)"
            )
    n = instance.num_vars
    rng = random.Random(seed)
    if n == 0:
        return CnfInstance(0, []), GfSecret(BitMatrix(0, 0, []), 0, seed)
    r_inv = _draw_substitution(n, rng, row_weight, frozenset(fixed_vars))
    plan = _Plan(instance, r_inv)
    pre = CnfInstance(plan.tmap.num_vars, plan.clauses)
    out, _ = to_three_cnf(pre)
    return out, GfSecret(r_inv, n, seed)


def gf_derandomize(
    sol: dict[int, bool],
    secret: GfSecret,
    original: CnfInstance | None = None,
) -> dict[int, bool]:
    """Recover ``X = R^-1 Y`` from a solution of the randomized instance.

    Dummy variables (indices above ``original_n``) are discarded.  When the
    original instance is supplied the result is checked against it and an
    :class:`InvalidSolutionError` is raised on failure (fraud/bug signal).
    """
    n = secret.original_n
    try:
        y = [1 if sol[i] else 0 for i in range(1, n + 1)]
    except KeyError as exc:
        raise ValueError(f"solution is missing variable {exc.args[0]}") from None
    x = gf2_mat_vec(secret.r_inv, y)
    assignment = {v: bool(x[v - 1]) for v in range(1, n + 1)}
    if original is not None and not original.satisfies(assignment):
        raise InvalidSolutionError(
            "recovered assignment does not satisfy the original instance"
        )
    return assignment


def gf_forward(
    assignment: dict[int, bool], secret: GfSecret, instance: CnfInstance
) -> dict[int, bool]:
    """Map an original assignment to a total assignment of the randomized
    instance: ``Y = RX`` plus the canonical values of all dummies.  ``R`` is
    the inverse of the secret's ``R^-1``.

    ``instance`` must be the original (pre-randomization) instance; the
    encoding layout is reconstructed from it and the secret.  If the input
    satisfies the instance, the output satisfies the randomized one.
    """
    n = secret.original_n
    x = [1 if assignment[v] else 0 for v in range(1, n + 1)]
    y = gf2_mat_vec(gf2_invert(secret.r_inv), x)
    base = {v: bool(y[v - 1]) for v in range(1, n + 1)}
    plan = _Plan(instance, secret.r_inv)
    pre_full = evaluate_gates(plan.tmap, base)
    pre = CnfInstance(plan.tmap.num_vars, plan.clauses)
    _, tmap = to_three_cnf(pre)
    return complete_to_three_cnf(tmap, pre_full)
