"""Desk-scale ground-truth engines.

Exhaustive enumeration backs every equivalence claim the randomizers make:
an instance small enough to outsource in a test is small enough to solve by
brute force, and the brute-force answer is the verdict of record.  All
enumeration is in lexicographic order over assignments with variable 1 as
the most significant bit, so "first witness" outputs are reproducible.

The 0/1 linear-system checker meets in the middle (Horowitz & Sahni,
1974): each half of the variables is enumerated once, partial row sums are
matched through a deterministic 64-bit linear fingerprint, and every
candidate pair is re-verified with exact integer arithmetic before it is
counted — fingerprint collisions can only create candidates, never wrong
answers.  ``_linear_direct``, a full cube enumeration, is kept as the
reference the tests compare it against.

Hard variable limits raise :class:`VarLimitError` rather than running
forever.  :func:`brute_sat` and :func:`brute_linear` take theirs as an
argument (the CLI's ``--var-limit``); the other oracles use fixed limits
(``_OPTIMUM_VARS``, ``_LINEAR_SOLUTIONS_VARS``), and
:func:`restricted_sat` bounds each residual component at
``_COMPONENT_VARS``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cnf import CnfInstance
from .matrixrand import LinearSystem

__all__ = [
    "VarLimitError",
    "SatResult",
    "LinearResult",
    "MincostResult",
    "brute_sat",
    "brute_linear",
    "all_linear_solutions",
    "brute_mincost",
    "brute_max3sat",
    "restricted_sat",
]

#: Chunk size (assignments per numpy block) for cube enumeration.
_CHUNK = 1 << 18

#: Variable limits of the optimum oracles and of all_linear_solutions.
_OPTIMUM_VARS = 24
_LINEAR_SOLUTIONS_VARS = 44


class VarLimitError(ValueError):
    """The instance exceeds the enumeration budget."""


@dataclass
class SatResult:
    satisfiable: bool
    assignment: dict[int, bool] | None
    count: int


@dataclass
class LinearResult:
    feasible: bool
    vector: list[int] | None
    count: int


@dataclass
class MincostResult:
    satisfiable: bool
    cost: int | None
    assignment: dict[int, bool] | None


def _index_bits(idx: np.ndarray, n: int) -> np.ndarray:
    """Unpack assignment indices to an (len, n) 0/1 matrix, variable 1 first
    (most significant)."""
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    return ((idx[:, None] >> shifts[None, :]) & 1).astype(np.int8)


def _assignment_from_index(idx: int, n: int) -> dict[int, bool]:
    return {v: bool((idx >> (n - v)) & 1) for v in range(1, n + 1)}


def _cube(n: int):
    """The ``2^n`` assignment indices in order, in blocks of ``_CHUNK``."""
    for lo in range(0, 1 << n, _CHUNK):
        yield np.arange(lo, min(lo + _CHUNK, 1 << n), dtype=np.int64)


def _clause_mask(clause: list[int], idx: np.ndarray, n: int) -> np.ndarray:
    """Boolean mask of which assignment indices satisfy ``clause``."""
    cm = np.zeros(len(idx), dtype=bool)
    for lit in clause:
        bit = ((idx >> (n - abs(lit))) & 1).astype(bool)
        cm |= bit if lit > 0 else ~bit
    return cm


def _sat_mask(clauses: list[list[int]], idx: np.ndarray, n: int) -> np.ndarray:
    """Boolean mask of which assignment indices satisfy all clauses."""
    ok = np.ones(len(idx), dtype=bool)
    for clause in clauses:
        ok &= _clause_mask(clause, idx, n)
        if not ok.any():
            break
    return ok


def brute_sat(instance: CnfInstance, var_limit: int = 24) -> SatResult:
    """Exact satisfiability, first witness, and solution count by full
    enumeration of the ``2^n`` cube."""
    n = instance.num_vars
    if n > var_limit:
        raise VarLimitError(f"{n} variables exceed limit {var_limit}")
    clauses = instance.clauses
    count = 0
    first: int | None = None
    for idx in _cube(n):
        ok = _sat_mask(clauses, idx, n)
        c = int(ok.sum())
        if c and first is None:
            first = int(idx[np.argmax(ok)])
        count += c
    if first is None:
        return SatResult(False, None, 0)
    return SatResult(True, _assignment_from_index(first, n), count)


def _linear_direct(sys: LinearSystem) -> tuple[int, int | None, np.ndarray]:
    """(count, first index, all feasible indices) by direct enumeration."""
    nv = sys.num_vars
    a = sys._dense()
    b = sys._rhs
    allidx = np.concatenate([
        idx[np.all(_index_bits(idx, nv).astype(np.int64) @ a.T == b, axis=1)]
        for idx in _cube(nv)
    ])
    if not len(allidx):
        return 0, None, allidx
    return len(allidx), int(allidx[0]), allidx


# Fixed fingerprint coefficients: deterministic, odd, spread over 64 bits.
_FP_SEED = np.uint64(0x9E3779B97F4A7C15)


def _fingerprint_coeffs(m: int) -> np.ndarray:
    x = _FP_SEED
    out = np.empty(m, dtype=np.uint64)
    for i in range(m):
        # splitmix64 step
        x = np.uint64((int(x) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
        z = int(x)
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        out[i] = np.uint64((z ^ (z >> 31)) | 1)
    return out


def _half_sums(a_half: np.ndarray, nbits: int) -> np.ndarray:
    """Row sums of every assignment of one variable half: (2^nbits, m).

    Filled by doubling, last variable first: the rows with bit ``j`` set are
    the rows below them plus that variable's column, so variable 1 is the
    most significant bit of the row index.
    """
    out = np.empty((1 << nbits, a_half.shape[0]), dtype=np.int64)
    out[0] = 0
    for j, col in enumerate(a_half.T[::-1]):
        np.add(out[:1 << j], col, out=out[1 << j:2 << j])
    return out


def _linear_mim(sys: LinearSystem) -> tuple[int, int | None, np.ndarray]:
    """Exact meet-in-the-middle enumeration of ``AX = B`` solutions.

    Returns (count, first combined index, all combined indices); indices
    order variable 1 as the most significant bit, left half high.
    """
    nv = sys.num_vars
    m = sys.num_constraints
    left = nv // 2
    right = nv - left
    a = sys._dense()
    b = sys._rhs
    sl = _half_sums(a[:, :left], left)
    sr = _half_sums(a[:, left:], right)
    coeffs = _fingerprint_coeffs(m).astype(np.int64)
    with np.errstate(over="ignore"):
        hr = sr @ coeffs
        hneed = (b @ coeffs) - (sl @ coeffs)
    order = np.argsort(hr, kind="stable")
    hr_sorted = hr[order]
    lo = np.searchsorted(hr_sorted, hneed, side="left")
    hi = np.searchsorted(hr_sorted, hneed, side="right")
    lens = hi - lo
    lefts = np.nonzero(lens)[0]
    if len(lefts) == 0:
        return 0, None, np.empty(0, dtype=np.int64)
    lens_nz = lens[lefts]
    total = int(lens_nz.sum())
    starts = lo[lefts]
    offsets = np.repeat(np.cumsum(lens_nz) - lens_nz, lens_nz)
    flat = np.repeat(starts, lens_nz) + (np.arange(total) - offsets)
    il = np.repeat(lefts.astype(np.int64), lens_nz)
    ir = order[flat].astype(np.int64)
    combined: list[np.ndarray] = []
    for blk in range(0, total, _CHUNK):
        end = min(blk + _CHUNK, total)
        good = np.all(sl[il[blk:end]] + sr[ir[blk:end]] == b[None, :], axis=1)
        if good.any():
            combined.append(
                (il[blk:end][good] << right) | ir[blk:end][good]
            )
    if not combined:
        return 0, None, np.empty(0, dtype=np.int64)
    allidx = np.sort(np.concatenate(combined))
    return len(allidx), int(allidx[0]), allidx


def brute_linear(sys: LinearSystem, var_limit: int = 44) -> LinearResult:
    """Exact feasibility, first 0/1 witness, and solution count, by
    meet-in-the-middle enumeration."""
    nv = sys.num_vars
    if nv > var_limit:
        raise VarLimitError(f"{nv} variables exceed limit {var_limit}")
    count, first, _ = _linear_mim(sys)
    if first is None:
        return LinearResult(False, None, 0)
    bits = [(first >> (nv - v)) & 1 for v in range(1, nv + 1)]
    return LinearResult(True, bits, count)


def all_linear_solutions(sys: LinearSystem) -> np.ndarray:
    """All 0/1 solutions as an (count, num_vars) array in lexicographic
    order (variable 1 most significant)."""
    nv = sys.num_vars
    if nv > _LINEAR_SOLUTIONS_VARS:
        raise VarLimitError(f"{nv} variables exceed limit {_LINEAR_SOLUTIONS_VARS}")
    _, _, idx = _linear_mim(sys)
    return _index_bits(idx, nv).astype(np.uint8)


def brute_mincost(inst) -> MincostResult:
    """Exact minimum of a linear cost over satisfying assignments.

    ``inst`` is a MincostInstance (``.cnf`` and ``.costs``); ties break to
    the lexicographically first argmin.
    """
    cnf: CnfInstance = inst.cnf
    n = cnf.num_vars
    if n > _OPTIMUM_VARS:
        raise VarLimitError(f"{n} variables exceed limit {_OPTIMUM_VARS}")
    weights = np.zeros(n, dtype=np.int64)
    for v, c in inst.costs.items():
        if not 1 <= v <= n:
            raise ValueError(f"cost on unknown variable {v}")
        if c < 0:
            raise ValueError("costs must be non-negative")
        weights[v - 1] = c
    clauses = cnf.clauses
    best_cost: int | None = None
    best_idx: int | None = None
    for idx in _cube(n):
        sat_idx = idx[_sat_mask(clauses, idx, n)]
        if not len(sat_idx):
            continue
        costs = _index_bits(sat_idx, n).astype(np.int64) @ weights
        pos = int(np.argmin(costs))
        cost = int(costs[pos])
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_idx = int(sat_idx[pos])
    if best_cost is None:
        return MincostResult(False, None, None)
    return MincostResult(True, best_cost, _assignment_from_index(best_idx, n))


def brute_max3sat(inst) -> tuple[int, dict[int, bool]]:
    """Exact maximum number of simultaneously satisfiable clauses, with a
    lexicographically-first maximizing assignment."""
    cnf: CnfInstance = getattr(inst, "cnf", inst)
    n = cnf.num_vars
    if n > _OPTIMUM_VARS:
        raise VarLimitError(f"{n} variables exceed limit {_OPTIMUM_VARS}")
    clauses = cnf.clauses
    best = -1
    best_idx = 0
    for idx in _cube(n):
        sat_counts = np.zeros(len(idx), dtype=np.int32)
        for clause in clauses:
            sat_counts += _clause_mask(clause, idx, n)
        pos = int(np.argmax(sat_counts))
        if int(sat_counts[pos]) > best:
            best = int(sat_counts[pos])
            best_idx = int(idx[pos])
    return best, _assignment_from_index(best_idx, n)


# ---------------------------------------------------------------------------
# Restricted satisfiability: decide whether a partial assignment extends
# ---------------------------------------------------------------------------

#: Largest residual component :func:`restricted_sat` enumerates.
_COMPONENT_VARS = 22


def restricted_sat(instance: CnfInstance, partial: dict[int, bool]) -> bool:
    """True iff ``partial`` extends to a total satisfying assignment.

    Decision procedure: simplify under the partial assignment, run unit
    propagation to a fixpoint, then split the residual clauses into
    variable-connected components and enumerate each component, its
    variables renumbered ``1..k``, through the clause mask.  Exact; raises
    :class:`VarLimitError` if some residual component has more than
    ``_COMPONENT_VARS`` variables (the structured instances this oracle
    exists for — Tseitin-style encodings with functionally-determined
    dummies — propagate down to tiny components).
    """
    assign = dict(partial)
    clauses = instance.clauses
    while True:
        residual: list[list[int]] = []
        units: list[int] = []
        for clause in clauses:
            keep: list[int] = []
            satisfied = False
            for lit in clause:
                val = assign.get(abs(lit))
                if val is None:
                    keep.append(lit)
                elif val == (lit > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if not keep:
                return False
            if len(keep) == 1:
                units.append(keep[0])
            residual.append(keep)
        if not units:
            break
        for lit in units:
            # Conflicting units leave one clause falsified; the next sweep
            # sees it and reports unsatisfiable.
            assign.setdefault(abs(lit), lit > 0)
        clauses = residual
    if not residual:
        return True

    # Union-find over the residual variables.
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    for clause in residual:
        vs = [abs(l) for l in clause]
        for v in vs:
            parent.setdefault(v, v)
        for v in vs[1:]:
            parent[find(vs[0])] = find(v)

    groups: dict[int, list[list[int]]] = {}
    for clause in residual:
        groups.setdefault(find(abs(clause[0])), []).append(clause)

    for comp_clauses in groups.values():
        comp_vars = sorted({abs(l) for c in comp_clauses for l in c})
        k = len(comp_vars)
        if k > _COMPONENT_VARS:
            raise VarLimitError(
                f"residual component has {k} variables (limit {_COMPONENT_VARS})"
            )
        pos = {v: i for i, v in enumerate(comp_vars, 1)}
        local = [
            [pos[l] if l > 0 else -pos[-l] for l in c] for c in comp_clauses
        ]
        if not any(_sat_mask(local, idx, k).any() for idx in _cube(k)):
            return False
    return True
