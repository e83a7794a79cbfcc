"""Ground-truth engines, cross-checked against naive itertools enumeration."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from helpers import (
    expected_linear_count,
    naive_count,
    naive_solutions,
    random_mixed_cnf,
    random_three_cnf,
)
from satcloak.cnf import CnfInstance
from satcloak.matrixrand import LinearSystem, encode_linear
from satcloak.objective import MincostInstance
from satcloak.oracles import (
    LinearResult,
    VarLimitError,
    _half_sums,
    _linear_direct,
    all_linear_solutions,
    brute_linear,
    brute_max3sat,
    brute_mincost,
    brute_sat,
    restricted_sat,
)


def test_contradiction_is_unsat():
    res = brute_sat(CnfInstance(1, [[1], [-1]]))
    assert res.satisfiable is False
    assert res.assignment is None
    assert res.count == 0


def test_two_clause_instance_count():
    # (x1 v x2 v x3) & (-x1 v x2 v -x3): enumeration gives six models.
    inst = CnfInstance(3, [[1, 2, 3], [-1, 2, -3]])
    res = brute_sat(inst)
    assert res.satisfiable
    assert res.count == 6
    assert res.count == naive_count(inst)


def test_empty_clause_list_counts_whole_cube():
    res = brute_sat(CnfInstance(4, []))
    assert res.count == 16
    assert res.assignment == {1: False, 2: False, 3: False, 4: False}


def test_first_witness_is_lexicographic():
    # x2 must hold; the smallest model is x1=False, x2=True, x3=False.
    res = brute_sat(CnfInstance(3, [[2]]))
    assert res.assignment == {1: False, 2: True, 3: False}


def test_counts_match_naive_enumeration():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 8)
        inst = random_mixed_cnf(rng, n, rng.randint(1, 12))
        res = brute_sat(inst)
        sols = naive_solutions(inst)
        assert res.count == len(sols)
        assert res.satisfiable == bool(sols)
        if sols:
            assert res.assignment == sols[0]
            assert inst.satisfies(res.assignment)


def test_brute_sat_var_limit():
    with pytest.raises(VarLimitError):
        brute_sat(CnfInstance(25, [[1, 2, 3]]))
    # The limit is an argument, not a policy.
    assert brute_sat(CnfInstance(25, [[1]]), var_limit=25).satisfiable


def test_linear_pair_sum_unique():
    res = brute_linear(LinearSystem(2, [[1, 1]], [2]))
    assert res.feasible
    assert res.vector == [1, 1]
    assert res.count == 1


def test_linear_net_zero_coefficient_infeasible():
    # x1 - x1 = 1 collapses to a zero row with right-hand side 1.
    res = brute_linear(LinearSystem(1, [[0]], [1]))
    assert res.feasible is False
    assert res.count == 0


def test_linear_first_vector_lexicographic():
    # x1 + x2 = 1: (0,1) precedes (1,0) with variable 1 most significant.
    res = brute_linear(LinearSystem(2, [[1, 1]], [1]))
    assert res.vector == [0, 1]
    assert res.count == 2


def test_linear_unconstrained_counts_cube():
    res = brute_linear(LinearSystem(3, [], []))
    assert res.count == 8
    assert res.vector == [0, 0, 0]


def test_encoded_clause_system_count():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(3, 6)
        inst = random_three_cnf(rng, n, rng.randint(1, 7))
        sys_ = encode_linear(inst)
        res = brute_linear(sys_)
        assert res.count == expected_linear_count(inst)
        if res.feasible:
            sols = all_linear_solutions(sys_)
            assert len(sols) == res.count
            a = np.array(sys_.coeffs, dtype=np.int64)
            b = np.array(sys_.rhs, dtype=np.int64)
            assert np.all(sols.astype(np.int64) @ a.T == b[None, :])


def test_meet_in_middle_matches_direct():
    """Both linear oracles agree with the full cube enumeration, for 0 to 16
    variables, no constraints up to six and with solvable and random
    right-hand sides."""
    rng = random.Random(37)
    for nv, m in itertools.product(range(17), range(7)):
        coeffs = [[rng.randint(-2, 2) for _ in range(nv)] for _ in range(m)]
        if rng.random() < 0.5:
            x = [rng.randint(0, 1) for _ in range(nv)]
            rhs = [sum(c * v for c, v in zip(row, x)) for row in coeffs]
        else:
            rhs = [rng.randint(-2, 4) for _ in range(m)]
        sys_ = LinearSystem(nv, coeffs, rhs)
        count, _, idx = _linear_direct(sys_)
        shifts = np.arange(nv - 1, -1, -1)
        want_all = ((idx[:, None] >> shifts) & 1).astype(np.uint8)
        got = all_linear_solutions(sys_)
        assert got.shape == (count, nv), (nv, m)
        assert np.array_equal(got, want_all), (nv, m)
        want = LinearResult(False, None, 0)
        if count:
            want = LinearResult(True, want_all[0].tolist(), count)
        assert brute_linear(sys_) == want, (nv, m)


def test_linear_var_limit():
    big = LinearSystem(45, [[1] * 45], [1])
    with pytest.raises(VarLimitError):
        brute_linear(big)
    with pytest.raises(VarLimitError):
        all_linear_solutions(big)


def test_mincost_matches_naive():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 7)
        cnf = random_mixed_cnf(rng, n, rng.randint(1, 10))
        costs = {v: rng.randint(0, 7) for v in range(1, n + 1)}
        res = brute_mincost(MincostInstance(cnf, costs))
        sols = naive_solutions(cnf)
        if not sols:
            assert res.satisfiable is False
            assert res.cost is None
            continue
        want = min(sum(costs[v] for v in s if s[v]) for s in sols)
        assert res.satisfiable and res.cost == want
        assert cnf.satisfies(res.assignment)
        assert sum(costs[v] for v in res.assignment if res.assignment[v]) == want


def test_mincost_zero_costs_and_tie_break():
    res = brute_mincost(MincostInstance(CnfInstance(2, [[1, 2]]), {}))
    assert res.cost == 0
    # All three models cost zero; ties break lexicographically.
    assert res.assignment == {1: False, 2: True}


def test_mincost_rejects_bad_cost_maps():
    cnf = CnfInstance(2, [[1]])
    with pytest.raises(ValueError, match="unknown variable"):
        brute_mincost(MincostInstance(cnf, {3: 1}))
    with pytest.raises(ValueError, match="non-negative"):
        brute_mincost(MincostInstance(cnf, {1: -2}))


def test_max3sat_matches_naive():
    rng = random.Random(91)
    for _ in range(20):
        inst = random_three_cnf(rng, rng.randint(3, 7), rng.randint(1, 8))
        best, assign = brute_max3sat(inst)
        counts = [
            sum(1 for c in inst.clauses if any(a[abs(l)] == (l > 0) for l in c))
            for a in (
                dict(zip(range(1, inst.num_vars + 1), bits))
                for bits in itertools.product([False, True], repeat=inst.num_vars)
            )
        ]
        assert best == max(counts)
        achieved = sum(
            1 for c in inst.clauses if any(assign[abs(l)] == (l > 0) for l in c)
        )
        assert achieved == best
        if naive_count(inst):
            assert best == len(inst.clauses)


def test_max3sat_contradiction_pair():
    # (x1) & (-x1): one of the two clauses, never both.
    best, _ = brute_max3sat(CnfInstance(1, [[1], [-1]]))
    assert best == 1


def test_restricted_sat_matches_extension_search():
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randint(1, 7)
        inst = random_mixed_cnf(rng, n, rng.randint(1, 10))
        fixed = rng.sample(range(1, n + 1), rng.randint(0, n))
        partial = {v: rng.random() < 0.5 for v in fixed}
        free = [v for v in range(1, n + 1) if v not in partial]
        want = any(
            inst.satisfies({**partial, **dict(zip(free, bits))})
            for bits in itertools.product([False, True], repeat=len(free))
        )
        assert restricted_sat(inst, partial) == want


def test_restricted_sat_propagates_long_chains():
    # The implication chain x1 -> x2 -> ... -> x60 collapses by unit
    # propagation even though it is one 60-variable component.
    n = 60
    inst = CnfInstance(n, [[1]] + [[-v, v + 1] for v in range(1, n)])
    assert restricted_sat(inst, {}) is True
    assert restricted_sat(inst, {n: False}) is False


def test_restricted_sat_component_budget():
    # A cycle of ternary clauses is one connected component with no unit to
    # seed propagation, so the component budget is the only way out.
    def cycle(n):
        return CnfInstance(
            n, [[v, (v % n) + 1, ((v + 1) % n) + 1] for v in range(1, n + 1)]
        )

    with pytest.raises(VarLimitError):
        restricted_sat(cycle(25), {})
    assert restricted_sat(cycle(10), {}) is True


def test_restricted_sat_component_spans_two_blocks():
    # (x_i v x_{i+1}) & (x_i v -x_{i+1}) forces x_i with no unit clause to
    # start propagation, so the 19-variable cycle is one component whose
    # only model, all-true, lies in the last of its two enumeration blocks.
    n = 19
    clauses = []
    for v in range(1, n + 1):
        w = v % n + 1
        clauses += [[v, w], [v, -w]]
    assert restricted_sat(CnfInstance(n, clauses), {}) is True
    assert restricted_sat(CnfInstance(n, clauses + [[-1, -n]]), {}) is False


def test_linear_meets_in_middle_at_forty_variables():
    # One equation sum(x) = 1: each half is 20 bits and every unit vector
    # is a solution; the lexicographically first sets the last variable.
    res = brute_linear(LinearSystem(40, [[1] * 40], [1]))
    assert res.count == 40
    assert res.vector == [0] * 39 + [1]


def test_half_sums_peak_is_its_result():
    rng = np.random.default_rng(3)
    a_half = rng.integers(-2, 3, size=(4, 18), dtype=np.int64)
    tracemalloc.start()
    try:
        out = _half_sums(a_half, 18)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The slack covers numpy's fixed 64 KiB ufunc buffer; a chunked walk
    # with unpacked bits would peak tens of megabytes higher.
    assert peak <= out.nbytes + (128 << 10)
    idx = np.array([0, 1, 5, (1 << 17) + 3, (1 << 18) - 1], dtype=np.int64)
    bits = (idx[:, None] >> np.arange(17, -1, -1)) & 1
    assert np.array_equal(out[idx], bits @ a_half.T)
