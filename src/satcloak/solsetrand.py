"""Solution-set randomization: substitute ``X = R^-1 Y`` over GF(2).

A random full-rank n x n 0/1 matrix ``R`` defines new variables
``Y = RX``.  Every original variable is then an XOR of some ``y`` s, and each
clause's disjunction of XOR expressions is re-encoded into CNF:

* a 1-term XOR is just a (possibly negated) ``y`` literal;
* a 2-term XOR ``a xor b`` is flattened through two ``and`` gates per
  occurrence, ``z ⇔ (a ∧ ¬b)`` and ``z' ⇔ (b ∧ ¬a)`` (three clauses each),
  which join the clause disjunction;
* a k-term XOR (k >= 3) gets a chain of linked ``xor`` gates, each link
  ``z ⇔ (a xor ¬b)``, i.e. ``¬(a xor b)`` (four clauses); the final link
  variable represents the whole XOR up to a recorded parity and joins the
  clause as a single literal.  Chains are built once per variable and
  shared.

Both kinds of dummy are :meth:`~satcloak.cnf.TseitinEncoder.add_gate`
gates, so :func:`~satcloak.cnf.evaluate_gates` computes them.  The
rewritten clauses (width up to 6) are then regularized to exactly-3CNF.
Solutions map back by ``X = R^-1 Y``; all dummies are functionally
determined by ``Y``, so the projected solution set is the image of the
original solution set under the bijection ``R`` — same solution count,
scrambled structure.

With ``row_weight`` set, the substitution matrix ``R^-1`` is drawn sparse
and invertible by construction, a permuted unit lower-triangular matrix
(so each original variable is an XOR of at most ``row_weight`` new ones);
output size then stays linear in the input size.  Without it, ``R^-1`` is
a uniform invertible matrix.  Only ``R^-1`` is drawn and kept: mapping a
solution back reads nothing else, and the honest provider's forward map,
the one user of ``R``, inverts it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cnf import CnfInstance, TseitinEncoder, _nogc, evaluate_gates, to_three_cnf
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


def _rewrite(instance: CnfInstance, r_inv: BitMatrix) -> TseitinEncoder:
    """Deterministic rewrite of an instance under a substitution matrix: an
    encoder over the ``y`` variables whose clauses are the rewritten
    clauses, each after the gate clauses of the dummies it reads.

    Rebuilding it from ``(instance, r_inv)`` is how forward mapping
    recovers the dummy-variable layout without storing it in the secret.
    """
    n = instance.num_vars
    enc = TseitinEncoder(n)
    chain_rep: dict[int, int] = {}
    subs = [tuple(j + 1 for j in r_inv.row_ones(v)) for v in range(n)]
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
                big.extend([enc.add_gate("and", pair) for pair in pairs])
            else:
                rep = chain_rep.get(v)
                if rep is None:
                    rep = chain_rep[v] = _chain(enc, s)
                big.append(rep if positive else -rep)
        enc.clauses.append(big)
    return enc


def _chain(enc: TseitinEncoder, s: tuple[int, ...]) -> int:
    """Signed literal equal to ``xor(s)``, built from xnor links."""
    prev = s[0]
    for nxt in s[1:]:
        prev = enc.add_gate("xor", (prev, -nxt))  # not(prev xor nxt)
    # After k-1 links the last one equals xor(s) + (k-1 mod 2).
    return prev if (len(s) - 1) % 2 == 0 else -prev


def _draw_substitution(
    n: int,
    rng: random.Random,
    row_weight: int | None,
    fixed_vars: frozenset[int],
) -> BitMatrix:
    """Draw ``R^-1``, identity on ``fixed_vars`` coordinates.

    Sparse, the row weights of ``R^-1`` bound the XOR widths and hence the
    output size.  Dense, a uniform ``R^-1`` is the inverse of a uniform
    ``R``, so nothing is inverted.  With no coordinate fixed, the drawn
    block is ``R^-1``.
    """
    free = sorted(set(range(1, n + 1)) - fixed_vars)
    if not free:
        return BitMatrix.identity(n)
    if row_weight is not None:
        block = random_sparse_full_rank(len(free), row_weight, rng)
    else:
        block = random_full_rank(len(free), rng)
    if len(free) == n:
        return block
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


@_nogc
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
    out, _ = to_three_cnf(_rewrite(instance, r_inv).cnf())
    return out, GfSecret(r_inv, n, seed)


def gf_derandomize(sol: dict[int, bool], secret: GfSecret) -> dict[int, bool]:
    """Recover ``X = R^-1 Y`` from a solution of the randomized instance.

    Dummy variables (indices above ``original_n``) are discarded; ValueError
    if the solution misses a ``y`` variable.  The result is not checked
    against the original instance: ``DISGUISES["solution_set"].check`` does
    that.
    """
    n = secret.original_n
    try:
        y = [1 if sol[i] else 0 for i in range(1, n + 1)]
    except KeyError as exc:
        raise ValueError(f"solution is missing variable {exc.args[0]}") from None
    x = gf2_mat_vec(secret.r_inv, y)
    return {v: bool(x[v - 1]) for v in range(1, n + 1)}


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
    enc = _rewrite(instance, secret.r_inv)
    _, three_map = to_three_cnf(enc.cnf())
    return evaluate_gates(three_map, evaluate_gates(enc.mapping(), base))
