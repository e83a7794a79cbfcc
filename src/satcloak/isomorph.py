"""Baseline instance randomizer: variable permutation plus polarity flips.

This transformation is an isomorphism of the instance — it cannot change the
variable count, clause count, or clause-length profile, which is exactly the
statistical leakage that motivates the heavier randomizers.  It is cheap,
composes with everything, and inverts trivially.

It keeps the instance's clause store.  On a literal table (what
``parse_dimacs`` makes of an exactly-3CNF text) the literal map is one
lookup array and the clause shuffle one row gather, so an instance read
from text is disguised and written back without a clause list.  Both
stores give the same artifact and secret from the same seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .cnf import CnfInstance, _first_bad_literal, _nogc

__all__ = ["IsoSecret", "apply_iso", "iso_randomize", "iso_derandomize", "iso_forward"]


@dataclass
class IsoSecret:
    """``permutation[v-1]`` is the randomized index of original variable ``v``;
    ``flips`` holds the original variables whose polarity is inverted."""

    permutation: list[int]
    flips: frozenset[int]
    seed: int

    def __post_init__(self) -> None:
        n = len(self.permutation)
        if sorted(self.permutation) != list(range(1, n + 1)):
            raise ValueError("permutation is not a bijection on 1..n")
        if any(v < 1 or v > n for v in self.flips):
            raise ValueError("flip set mentions out-of-range variables")


def apply_iso(instance: CnfInstance, secret: IsoSecret) -> CnfInstance:
    """Map literal ``(v, p)`` to ``(permutation(v), p xor flip(v))``,
    keeping clause order and the instance's store.  Raises ValueError
    naming the first literal that is 0 or out of range.

    A table goes through one signed lookup array indexed by ``lit + n``;
    clause lists through a dict from literal to image."""
    n = instance.num_vars
    if len(secret.permutation) != n:
        raise ValueError("secret size does not match instance")
    table = instance.table
    if table is not None:
        lit = _first_bad_literal(table, n)
        if lit is not None:
            raise ValueError(f"literal {lit} out of range 1..{n}")
        mapped = np.array(secret.permutation, np.int64)
        flips = np.fromiter(secret.flips, np.int64, len(secret.flips))
        mapped[flips - 1] *= -1
        image = np.concatenate([-mapped[::-1], [0], mapped])
        return CnfInstance(n, image[table + n])
    image = {}
    for v, w in enumerate(secret.permutation, 1):
        if v in secret.flips:
            w = -w
        image[v] = w
        image[-v] = -w
    get = image.__getitem__
    try:
        clauses = [list(map(get, clause)) for clause in instance.clauses]
    except KeyError as exc:
        raise ValueError(f"literal {exc.args[0]} out of range 1..{n}") from None
    return CnfInstance(n, clauses)


@_nogc
def iso_randomize(instance: CnfInstance, seed: int) -> tuple[CnfInstance, IsoSecret]:
    """Draw a uniform permutation and per-variable coin-flip polarity set,
    apply them, and shuffle clause order.  Deterministic given ``seed``.

    A table's rows are gathered in the order a shuffle of their indices
    gives.  ``random.shuffle`` swaps by position only, so that is the order
    the same shuffle gives a clause list, and both stores give the same
    artifact."""
    rng = random.Random(seed)
    n = instance.num_vars
    permutation = list(range(1, n + 1))
    rng.shuffle(permutation)
    flips = frozenset(v for v in range(1, n + 1) if rng.random() < 0.5)
    secret = IsoSecret(permutation, flips, seed)
    mapped = apply_iso(instance, secret)
    shuffle = random.Random(seed ^ 0x5CA7).shuffle
    if mapped.table is None:
        clauses = mapped.clauses
        shuffle(clauses)
        return CnfInstance(n, clauses), secret
    order = list(range(mapped.num_clauses))
    shuffle(order)
    return CnfInstance(n, mapped.table[order]), secret


def iso_derandomize(solution: dict[int, bool], secret: IsoSecret) -> dict[int, bool]:
    """Invert the map on assignments: ``x_v = y_{permutation(v)} xor flip(v)``."""
    n = len(secret.permutation)
    missing = [secret.permutation[v - 1] for v in range(1, n + 1)
               if secret.permutation[v - 1] not in solution]
    if missing:
        raise ValueError(f"solution domain is missing variables {missing}")
    return {
        v: solution[secret.permutation[v - 1]] != (v in secret.flips)
        for v in range(1, n + 1)
    }


def iso_forward(assignment: dict[int, bool], secret: IsoSecret) -> dict[int, bool]:
    """Forward map on assignments: ``y_{permutation(v)} = x_v xor flip(v)``."""
    n = len(secret.permutation)
    if any(v not in assignment for v in range(1, n + 1)):
        raise ValueError("assignment does not cover 1..n")
    return {
        secret.permutation[v - 1]: assignment[v] != (v in secret.flips)
        for v in range(1, n + 1)
    }
