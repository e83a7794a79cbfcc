"""Shared generators and naive reference routines for the test suite.

The naive enumerations here are deliberately written with itertools over
plain dicts — independent of the numpy-based oracles — so that an oracle
bug cannot hide behind a shared code path.
"""

import itertools
import random

from satcloak.cnf import CnfInstance
from satcloak.firewall import FirewallPolicy, FirewallRule
from satcloak.gf2 import BitMatrix
from satcloak.oracles import restricted_sat


def random_three_cnf(rng: random.Random, num_vars: int, num_clauses: int) -> CnfInstance:
    """Random strict 3CNF: three distinct variables per clause, random signs."""
    if num_vars < 3:
        raise ValueError("need at least 3 variables for a 3CNF clause")
    clauses = []
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return CnfInstance(num_vars, clauses)


def random_mixed_cnf(
    rng: random.Random, num_vars: int, num_clauses: int, max_width: int = 4
) -> CnfInstance:
    """Random CNF with clause widths from 1 up to ``max_width``."""
    clauses = []
    for _ in range(num_clauses):
        w = rng.randint(1, min(max_width, num_vars))
        vs = rng.sample(range(1, num_vars + 1), w)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return CnfInstance(num_vars, clauses)


def all_assignments(num_vars: int):
    for bits in itertools.product([False, True], repeat=num_vars):
        yield dict(zip(range(1, num_vars + 1), bits))


def naive_solutions(instance: CnfInstance) -> list[dict[int, bool]]:
    return [a for a in all_assignments(instance.num_vars) if instance.satisfies(a)]


def naive_count(instance: CnfInstance) -> int:
    return len(naive_solutions(instance))


def expected_linear_count(instance: CnfInstance) -> int:
    """Solution count of the clause/constraint translation of a 3CNF.

    Each satisfying assignment contributes one dummy completion per clause
    with k true literals: one way for k in {1, 3}, two ways for k = 2.
    """
    total = 0
    for assign in all_assignments(instance.num_vars):
        ways = 1
        for clause in instance.clauses:
            k = sum(1 for lit in clause if assign[abs(lit)] == (lit > 0))
            if k == 0:
                ways = 0
                break
            ways *= 2 if k == 2 else 1
        total += ways
    return total


def vector_to_assignment(vector) -> dict[int, bool]:
    return {i + 1: bool(b) for i, b in enumerate(vector)}


def assignment_to_vector(assign: dict[int, bool], num_vars: int) -> list[int]:
    return [int(assign[v]) for v in range(1, num_vars + 1)]


def projected_solutions(instance: CnfInstance, num_front: int) -> list[tuple[int, ...]]:
    """All values of the first ``num_front`` variables that extend to a full
    solution of ``instance``.  Uses restricted_sat, so the tail may be large
    as long as it decomposes into small components once the front is fixed."""
    hits = []
    for bits in itertools.product([0, 1], repeat=num_front):
        partial = {v: bool(b) for v, b in zip(range(1, num_front + 1), bits)}
        if restricted_sat(instance, partial):
            hits.append(bits)
    return hits


def random_policy(
    rng: random.Random,
    layout,
    num_rules: int,
    wildcard_p: float = 0.35,
) -> FirewallPolicy:
    """Random policy over ``layout``: concrete values with occasional
    wildcards at both field and chunk granularity."""

    def ip_value(bits: int):
        if rng.random() < wildcard_p:
            return None
        chunks = layout.ip_chunks(bits)
        return tuple(
            None if rng.random() < wildcard_p else rng.randrange(1 << w)
            for w in chunks
        )

    def port_value(bits: int):
        return None if rng.random() < wildcard_p else rng.randrange(1 << bits)

    rules = [
        FirewallRule(
            ip_value(layout.src_ip_bits),
            port_value(layout.src_port_bits),
            ip_value(layout.dst_ip_bits),
            port_value(layout.dst_port_bits),
            rng.choice(["accept", "deny"]),
        )
        for _ in range(num_rules)
    ]
    return FirewallPolicy(rules, rng.choice(["accept", "deny"]))


def gf2_mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Product over GF(2)."""
    if a.cols != b.rows:
        raise ValueError("dimension mismatch")
    out = []
    for i in range(a.rows):
        bits = a.row_bits[i]
        acc = 0
        while bits:
            low = bits & -bits
            acc ^= b.row_bits[low.bit_length() - 1]
            bits ^= low
        out.append(acc)
    return BitMatrix(a.rows, b.cols, out)
