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

The rewritten clauses (width 3 to 6) are then split into exactly-3CNF as
:func:`~satcloak.cnf.to_three_cnf` splits them, and the width-2 gate
clauses padded as it pads them.  Every piece has a fixed shape, so the
output is built as one ``(k, 3)`` literal table by numpy over the input's
literal table and ``R^-1``'s ones listed once
(:func:`~satcloak.gf2.row_ones_csr`): no gate tuples, no clause lists.
:func:`gf_forward` computes every dummy from the same layout (a chain link
is a prefix parity of its row, an ``and`` gate the AND of its inputs, a
padding variable false, a split variable the OR of its clause suffix).
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
import numpy as np

from .cnf import CnfInstance, _exclusive_cumsum, _runs, _three_table
from .gf2 import (
    BitMatrix,
    gf2_invert,
    gf2_mat_vec,
    random_full_rank,
    random_sparse_full_rank,
    row_ones_csr,
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


class _Rewrite:
    """Layout of the rewrite of an exactly-3CNF table under ``R^-1``.

    The output is, for each input clause in order: the gate clauses of
    each of its literals in order, then the rewritten clause split into
    width-3 pieces.  By the length ``L`` of its variable's row of ``R^-1``
    a literal gives

    * ``L = 1``: no gate; it becomes the row's ``y`` literal;
    * ``L = 2``: two ``and`` gates, 10 clauses with 4 padding variables
      (each width-2 gate clause padded twice), and two positive literals;
    * ``L >= 3``: at the variable's first literal in stream order, a chain
      of ``L - 1`` xnor links (4 clauses each), link ``t`` equal to the
      parity of the row's first ``t + 2`` ones XOR ``(t + 1) mod 2``; every
      literal of the variable becomes its last link, negated for even
      ``L``, and the literal's own sign.

    A rewritten clause has width 3 plus its number of ``L = 2`` literals
    and is split into that many plus one clauses by as many split
    variables, as :func:`~satcloak.cnf.to_three_cnf` splits it.  Gate
    variables are numbered from ``n + 1`` in creation order, padding and
    split variables after all of them in clause order.  Every count and
    offset comes from ``cumsum`` over per-literal and per-clause arrays,
    so :meth:`table` and :meth:`values` run no Python code per clause.
    Rebuilding it from ``(table, r_inv)`` is how :func:`gf_forward` recovers
    the dummy-variable layout without storing it in the secret.
    """

    def __init__(self, table: np.ndarray, r_inv: BitMatrix):
        n = r_inv.rows
        starts, cols = row_ones_csr(r_inv)
        self.ys = cols + 1
        k = len(table)
        lits = table.ravel()
        var = np.abs(lits) - 1
        self.positive = lits > 0
        self.first = starts[var]
        self.length = starts[var + 1] - self.first
        self.pair = self.length == 2
        builds = np.zeros(lits.size, bool)
        builds[np.unique(var, return_index=True)[1]] = True
        builds &= self.length >= 3
        links = np.where(builds, self.length - 1, 0)
        gates = 2 * self.pair + links
        self.gate0 = n + 1 + _exclusive_cumsum(gates)
        num_gates = int(gates.sum())
        # Per clause, four slots: its three literals, then the clause itself.
        self.extra = self.pair.reshape(k, 3).sum(1)
        rows = np.column_stack([(10 * self.pair + 4 * links).reshape(k, 3),
                                1 + self.extra]).ravel()
        dummies = np.column_stack([(4 * self.pair).reshape(k, 3),
                                   self.extra]).ravel()
        self.row0 = _exclusive_cumsum(rows).reshape(k, 4)
        self.dummy0 = (n + num_gates + 1 + _exclusive_cumsum(dummies)).reshape(k, 4)
        self.num_rows = int(rows.sum())
        self.num_vars = n + num_gates + int(dummies.sum())
        self.n = n
        # Every chain link: the literal that builds it, its index in the chain.
        self.chain_lit, self.link = _runs(links)
        last = np.zeros(n, np.int64)
        last[var[builds]] = self.gate0[builds] + links[builds] - 1
        rep = np.where(self.length % 2 == 1, last[var], -last[var])
        head = np.where(self.length == 1, self.ys[self.first], rep)
        head = np.where(self.pair, self.gate0, np.where(self.positive, head, -head))
        # The rewritten clauses, width 3 to 6, left-aligned in six columns.
        width = 1 + self.pair.reshape(k, 3)
        at = (np.cumsum(width, axis=1) - width).ravel()
        clause = np.repeat(np.arange(k), 3)
        self.wide = np.zeros((k, 6), np.int64)
        self.wide[clause, at] = head
        self.wide[clause[self.pair], at[self.pair] + 1] = self.gate0[self.pair] + 1

    def _slot(self, lit: np.ndarray, array: np.ndarray) -> np.ndarray:
        """``array``'s entry for the slots of flat literal indices ``lit``."""
        return array.ravel()[lit + lit // 3]

    def table(self) -> np.ndarray:
        """The ``(k, 3)`` literal table of the rewritten exactly-3CNF."""
        out = np.empty((self.num_rows, 3), np.int64)
        ys = self.ys
        # and gates: (a xor b) is (a and -b) or (b and -a); its negation is
        # (a and b) or (-a and -b).  Each gate's clauses are (-g, x, p),
        # (-g, x, -p), (-g, z, q), (-g, z, -q), (g, -x, -z) for inputs x, z
        # and padding variables p, q.
        lit = np.flatnonzero(self.pair)
        a = ys[self.first[lit]]
        b = ys[self.first[lit] + 1]
        pos = self.positive[lit]
        g = self.gate0[lit]
        p = self._slot(lit, self.dummy0)
        blocks = []
        for gate, x, z, pad in (
            (g, a, np.where(pos, -b, b), p),
            (g + 1, np.where(pos, b, -a), np.where(pos, -a, -b), p + 2),
        ):
            blocks += [[-gate, x, pad], [-gate, x, -pad], [-gate, z, pad + 1],
                       [-gate, z, -pad - 1], [gate, -x, -z]]
        block = np.array(blocks, np.int64).transpose(2, 0, 1)
        rows = self._slot(lit, self.row0)[:, None] + np.arange(10)
        out[rows] = block
        # xnor links: g = not(prev xor next), clauses (-g, prev, -next),
        # (-g, -prev, next), (g, prev, next), (g, -prev, -next).
        lit, t = self.chain_lit, self.link
        g = self.gate0[lit] + t
        prev = np.where(t == 0, ys[self.first[lit]], g - 1)
        nxt = ys[self.first[lit] + t + 1]
        block = np.array([[-g, prev, -nxt], [-g, -prev, nxt],
                          [g, prev, nxt], [g, -prev, -nxt]], np.int64)
        rows = (self._slot(lit, self.row0) + 4 * t)[:, None] + np.arange(4)
        out[rows] = block.transpose(2, 0, 1)
        # Split clause c_0..c_{w-1} by s_0..s_{w-4}: (c_0, c_1, s_0),
        # (-s_{i-1}, c_{i+1}, s_i), ..., (-s_{w-4}, c_{w-2}, c_{w-1}).
        c, i = _runs(1 + self.extra)
        s = self.dummy0[c, 3] + i
        rows = self.row0[c, 3] + i
        out[rows, 0] = np.where(i == 0, self.wide[c, 0], 1 - s)
        out[rows, 1] = self.wide[c, i + 1]
        out[rows, 2] = np.where(i == self.extra[c], self.wide[c, 2 + self.extra[c]], s)
        return out

    def values(self, y: list[int]) -> list[bool]:
        """Values of variables ``1..num_vars`` for the ``y`` block ``y``:
        the unique values of the gates and split variables, padding
        variables false."""
        val = np.zeros(self.num_vars + 1, bool)
        val[1 : self.n + 1] = y
        a = val[self.ys[self.first[self.pair]]]
        b = val[self.ys[self.first[self.pair] + 1]]
        pos = self.positive[self.pair]
        g = self.gate0[self.pair]
        val[g] = np.where(pos, a & ~b, a & b)
        val[g + 1] = np.where(pos, b & ~a, ~a & ~b)
        prefix = np.concatenate(([0], np.cumsum(val[self.ys])))
        lit, t = self.chain_lit, self.link
        start = self.first[lit]
        parity = (prefix[start + t + 2] - prefix[start]) & 1
        val[self.gate0[lit] + t] = parity != (t + 1) % 2
        wide = val[np.abs(self.wide)] != (self.wide < 0)
        wide &= self.wide != 0
        suffix = np.logical_or.accumulate(wide[:, ::-1], axis=1)[:, ::-1]
        c, i = _runs(self.extra)
        val[self.dummy0[c, 3] + i] = suffix[c, i + 2]
        return val[1:].tolist()


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


def gf_randomize(
    instance: CnfInstance,
    seed: int,
    row_weight: int | None = None,
    fixed_vars: frozenset[int] | set[int] = frozenset(),
) -> tuple[CnfInstance, GfSecret]:
    """Randomize the solution set of an exactly-3CNF instance.

    Returns an exactly-3CNF instance over the ``y`` variables plus dummies,
    built from one ``(k, 3)`` literal table, together with the secret
    substitution.  An assignment ``Y`` extends to a solution of the output
    iff ``X = R^-1 Y`` satisfies the input.  ValueError names the input's
    first clause of another width than 3.

    ``fixed_vars`` coordinates are left unmixed (identity rows in ``R^-1``) —
    the cost randomizer uses this to keep circuit output bits addressable.
    With the identity matrix (e.g. zero free coordinates) the output equals
    the input.
    """
    table = _three_table(instance)
    n = instance.num_vars
    rng = random.Random(seed)
    if n == 0:
        return CnfInstance(0, []), GfSecret(BitMatrix(0, 0, []), 0)
    r_inv = _draw_substitution(n, rng, row_weight, frozenset(fixed_vars))
    rewrite = _Rewrite(table, r_inv)
    return CnfInstance(rewrite.num_vars, rewrite.table()), GfSecret(r_inv, n)


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
    values = _Rewrite(_three_table(instance), secret.r_inv).values(y)
    return dict(enumerate(values, start=1))
