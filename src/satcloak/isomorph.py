"""Baseline instance randomizer: variable permutation plus polarity flips.

This transformation is an isomorphism of the instance — it cannot change the
variable count, clause count, or clause-length profile, which is exactly the
statistical leakage that motivates the heavier randomizers.  It is cheap,
composes with everything, and inverts trivially.

On the instance's literal array the literal map is one lookup array and
the clause shuffle one gather by the clause offsets, so an instance read
from text is disguised and written back without a clause list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .cnf import CnfInstance, _first_bad_literal, _offsets_of

__all__ = ["IsoSecret", "apply_iso", "iso_randomize", "iso_derandomize", "iso_forward"]


@dataclass
class IsoSecret:
    """``permutation[v-1]`` is the randomized index of original variable ``v``;
    ``flips`` holds the original variables whose polarity is inverted."""

    permutation: list[int]
    flips: frozenset[int]

    def __post_init__(self) -> None:
        n = len(self.permutation)
        if sorted(self.permutation) != list(range(1, n + 1)):
            raise ValueError("permutation is not a bijection on 1..n")
        if any(v < 1 or v > n for v in self.flips):
            raise ValueError("flip set mentions out-of-range variables")


def apply_iso(instance: CnfInstance, secret: IsoSecret) -> CnfInstance:
    """Map literal ``(v, p)`` to ``(permutation(v), p xor flip(v))``,
    keeping clause order.  Raises ValueError naming the first literal that
    is 0 or out of range.

    The literals go through one signed lookup array indexed by
    ``lit + n``; the clause offsets are kept."""
    n = instance.num_vars
    if len(secret.permutation) != n:
        raise ValueError("secret size does not match instance")
    lits = instance._lits
    bad = _first_bad_literal(lits, n)
    if bad is not None:
        raise ValueError(f"literal {lits[bad]} out of range 1..{n}")
    mapped = np.array(secret.permutation, np.int64)
    flips = np.fromiter(secret.flips, np.int64, len(secret.flips))
    mapped[flips - 1] *= -1
    image = np.concatenate([-mapped[::-1], [0], mapped])
    return CnfInstance._of(n, image[lits + n], instance._offsets)


def iso_randomize(instance: CnfInstance, seed: int) -> tuple[CnfInstance, IsoSecret]:
    """Draw a uniform permutation and per-variable coin-flip polarity set,
    apply them, and shuffle clause order.  Deterministic given ``seed``.

    The clauses are gathered in the order a ``random.shuffle`` of their
    indices gives, which is the order the same shuffle gives a list of
    the clauses: it swaps by position only."""
    rng = random.Random(seed)
    n = instance.num_vars
    permutation = list(range(1, n + 1))
    rng.shuffle(permutation)
    flips = frozenset(v for v in range(1, n + 1) if rng.random() < 0.5)
    secret = IsoSecret(permutation, flips)
    mapped = apply_iso(instance, secret)
    order = list(range(mapped.num_clauses))
    random.Random(seed ^ 0x5CA7).shuffle(order)
    order = np.array(order, np.int64)
    starts = mapped._offsets[order]
    widths = mapped._offsets[order + 1] - starts
    offsets = _offsets_of(widths)
    # Output literal j of clause i is input literal starts[i] + j.
    index = np.repeat(starts - offsets[:-1], widths)
    index += np.arange(index.size)
    return CnfInstance._of(n, mapped._lits[index], offsets), secret


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
