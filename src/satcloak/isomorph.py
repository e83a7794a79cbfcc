"""Baseline instance randomizer: variable permutation plus polarity flips.

This transformation is an isomorphism of the instance — it cannot change the
variable count, clause count, or clause-length profile, which is exactly the
statistical leakage that motivates the heavier randomizers.  It is cheap,
composes with everything, and inverts trivially.

The secret and the clause order come from one numpy Generator as whole
vectors, with no Python step per variable or clause.  On the instance's
literal array the literal map is one lookup array and the clause shuffle
one gather by the clause offsets, so an instance read from text is
disguised and written back without a clause list.
"""

from __future__ import annotations

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
        perm = _in_range(self.permutation, n)
        if perm is None or np.any(np.bincount(perm, minlength=n + 1)[1:] != 1):
            raise ValueError("permutation is not a bijection on 1..n")
        if _in_range(self.flips, n) is None:
            raise ValueError("flip set mentions out-of-range variables")


def _in_range(values, n: int) -> np.ndarray | None:
    """``values`` as an int64 array if each lies in ``1..n``, else None
    (also for a value beyond int64)."""
    try:
        array = np.fromiter(values, np.int64, len(values))
    except OverflowError:
        return None
    return array if np.all((array >= 1) & (array <= n)) else None


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
    apply them, and shuffle clause order.  Deterministic given ``seed``
    (its absolute value seeds one ``np.random.default_rng``) within one
    satcloak version.

    The permutation, the flips and the clause order are drawn in that
    order as numpy vectors, and the clauses are gathered by their offsets
    in the drawn order."""
    rng = np.random.default_rng(abs(seed))
    n = instance.num_vars
    permutation = rng.permutation(n) + 1
    flips = np.flatnonzero(rng.random(n) < 0.5) + 1
    secret = IsoSecret(permutation.tolist(), frozenset(flips.tolist()))
    mapped = apply_iso(instance, secret)
    order = rng.permutation(mapped.num_clauses)
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
