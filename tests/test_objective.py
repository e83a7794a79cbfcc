"""Cost-circuit compilation, Mincost randomization, MAX3SAT reduction."""

import random

import pytest

from helpers import all_assignments, naive_solutions, random_three_cnf
from satcloak.cnf import (
    CnfInstance,
    InvalidSolutionError,
    evaluate_gates,
    to_three_cnf,
)
from satcloak.matrixrand import check_linear, complete_solution
from satcloak.objective import (
    Max3SatInstance,
    MincostInstance,
    circuit_costs,
    compile_cost_circuit,
    decode_cost,
    derandomize_mincost,
    emit_cost_sidecar,
    evaluate_circuit,
    max3sat_to_mincost,
    parse_cost_sidecar,
    randomize_mincost,
)
from satcloak.oracles import brute_max3sat, brute_mincost
from satcloak.solsetrand import gf_forward

# ---------------------------------------------------------------------------
# Cost circuit
# ---------------------------------------------------------------------------


def test_single_unit_cost_is_a_wire():
    inst = MincostInstance(CnfInstance(1, [[1]]), {1: 1})
    combined, circuit = compile_cost_circuit(inst)
    # One variable at cost 1: the output bit IS the variable, no gates.
    assert len(circuit.output_bits) == 1
    assert circuit.output_bits == [1]
    assert circuit.tmap.gates == {}
    assert combined.clauses == inst.cnf.clauses
    assert circuit_costs(circuit) == {1: 1}


def test_two_unit_costs_sum_in_binary():
    inst = MincostInstance(CnfInstance(2, []), {1: 1, 2: 1})
    _, circuit = compile_cost_circuit(inst)
    assert len(circuit.output_bits) == 2
    for x in all_assignments(2):
        full = evaluate_circuit(circuit, x)
        assert decode_cost(full, circuit) == int(x[1]) + int(x[2])


def test_circuit_arithmetic_exhaustive():
    rng = random.Random(101)
    for _ in range(20):
        n = rng.randint(1, 6)
        beta = rng.randint(1, 3)
        cnf = random_three_cnf(rng, max(n, 3), rng.randint(1, 6))
        cnf = CnfInstance(n, []) if n < 3 else cnf
        costs = {
            v: rng.randint(0, (1 << beta) - 1)
            for v in range(1, n + 1)
            if rng.random() < 0.8
        }
        inst = MincostInstance(cnf, costs)
        combined, circuit = compile_cost_circuit(inst)
        # The per-cost width is the smallest that fits every cost.
        fit = max([1, *(c.bit_length() for c in costs.values())])
        assert len(circuit.output_bits) == fit + (max(n, 1) - 1).bit_length()
        for x in all_assignments(n):
            full = evaluate_circuit(circuit, x)
            assert decode_cost(full, circuit) == inst.cost_of(x)
            # Gate clauses are always met; the CNF part decides.
            assert combined.satisfies(full) == cnf.satisfies(x)


def test_zero_cost_function_collapses():
    inst = MincostInstance(CnfInstance(3, [[1, 2, 3]]), {})
    _, circuit = compile_cost_circuit(inst)
    # All output positions share one forced-false gate.
    assert len(set(circuit.output_bits)) == 1
    for x in all_assignments(3):
        assert decode_cost(evaluate_circuit(circuit, x), circuit) == 0


def test_output_positions_may_share_variables():
    # A power-of-two cost passes straight through: both the weight-2 output
    # position and the constant-false position reference few variables.
    inst = MincostInstance(CnfInstance(1, []), {1: 2})
    _, circuit = compile_cost_circuit(inst)
    weights = circuit_costs(circuit)
    for x in all_assignments(1):
        assert decode_cost(evaluate_circuit(circuit, x), circuit) == 2 * int(x[1])
    # Accumulated weights still reproduce the cost on every assignment.
    for x in all_assignments(1):
        full = evaluate_circuit(circuit, x)
        assert sum(w for v, w in weights.items() if full[v]) == 2 * int(x[1])


def test_gate_count_stays_linear():
    # The exact counts are those of the adder built as shared formulas, so
    # gate sharing over literals loses none of the formula memo's sharing.
    rng = random.Random(103)
    for n, beta, counts in [(4, 2, (19, 65)), (8, 3, (54, 185)),
                            (16, 3, (121, 415)), (16, 4, (158, 540))]:
        costs = {v: rng.randint(1, (1 << beta) - 1) for v in range(1, n + 1)}
        inst = MincostInstance(CnfInstance(n, []), costs)
        combined, circuit = compile_cost_circuit(inst)
        gates = len(circuit.tmap.gates)
        assert (gates, combined.num_clauses) == counts
        assert gates <= 6 * n * len(circuit.output_bits) + len(circuit.output_bits)


def test_cost_circuit_at_1000_variables():
    rng = random.Random(131)
    n = 1000
    costs = {v: rng.randint(1, 15) for v in range(1, n + 1)}
    inst = MincostInstance(CnfInstance(n, []), costs)
    _, circuit = compile_cost_circuit(inst)
    assert len(circuit.output_bits) == 4 + 10
    for _ in range(20):
        x = {v: rng.random() < 0.5 for v in range(1, n + 1)}
        assert decode_cost(evaluate_circuit(circuit, x), circuit) == inst.cost_of(x)


# ---------------------------------------------------------------------------
# Mincost randomization
# ---------------------------------------------------------------------------


def _artifact_cost(costs: dict[int, int], full: dict[int, bool]) -> int:
    return sum(w for v, w in costs.items() if full[v])


def test_matrix_method_preserves_costs():
    rng = random.Random(107)
    for _ in range(8):
        n = rng.randint(3, 5)
        cnf = random_three_cnf(rng, n, rng.randint(1, 5))
        costs = {v: rng.randint(0, 3) for v in range(1, n + 1)}
        inst = MincostInstance(cnf, costs)
        artifact, secret = randomize_mincost(inst, rng.getrandbits(32), "matrix")
        assert artifact.kind == "linear" and artifact.system is not None

        combined, circuit = compile_cost_circuit(inst)
        assert circuit.output_bits == secret.circuit.output_bits
        three, _ = to_three_cnf(combined)
        for x in naive_solutions(cnf):
            full3 = evaluate_gates(secret.three_map, evaluate_circuit(circuit, x))
            vec = complete_solution(three, full3)
            assert check_linear(artifact.system, vec)
            got = sum(w * vec[v - 1] for v, w in artifact.costs.items())
            assert got == inst.cost_of(x)
            x_back, cost_back = derandomize_mincost(vec, secret, inst)
            assert x_back == x and cost_back == inst.cost_of(x)


def test_solution_set_method_preserves_costs():
    rng = random.Random(109)
    for _ in range(6):
        n = rng.randint(3, 5)
        cnf = random_three_cnf(rng, n, rng.randint(1, 4))
        costs = {v: rng.randint(0, 3) for v in range(1, n + 1)}
        inst = MincostInstance(cnf, costs)
        artifact, secret = randomize_mincost(
            inst, rng.getrandbits(32), "solution_set"
        )
        assert artifact.kind == "cnf" and artifact.cnf is not None

        combined, circuit = compile_cost_circuit(inst)
        three, _ = to_three_cnf(combined)
        for x in naive_solutions(cnf):
            full3 = evaluate_gates(secret.three_map, evaluate_circuit(circuit, x))
            full = gf_forward(full3, secret.inner, three)
            assert artifact.cnf.satisfies(full)
            # Output bits are fixed points of the substitution, so the
            # published cost function reads the same value.
            assert _artifact_cost(artifact.costs, full) == inst.cost_of(x)
            x_back, cost_back = derandomize_mincost(full, secret, inst)
            assert x_back == x and cost_back == inst.cost_of(x)


def test_randomize_mincost_unknown_method():
    inst = MincostInstance(CnfInstance(3, [[1, 2, 3]]), {1: 1})
    with pytest.raises(ValueError, match="unknown method"):
        randomize_mincost(inst, 0, method="fft")


def test_derandomize_rejects_forged_cost_bits():
    cnf = CnfInstance(3, [[1, 2, 3]])
    inst = MincostInstance(cnf, {1: 1, 2: 1, 3: 1})
    artifact, secret = randomize_mincost(inst, 13, "matrix")
    combined, circuit = compile_cost_circuit(inst)
    three, _ = to_three_cnf(combined)
    x = {1: True, 2: True, 3: False}
    vec = complete_solution(three, evaluate_gates(secret.three_map, evaluate_circuit(circuit, x)))
    assert derandomize_mincost(vec, secret, inst) == (x, 2)

    # Forge a cheaper cost by clearing a set output bit: caught by the
    # circuit re-evaluation even though the original clauses still hold.
    set_bit = next(b for b in secret.circuit.output_bits if vec[b - 1] == 1)
    assert set_bit > 3  # a gate, not an original variable
    forged = list(vec)
    forged[set_bit - 1] = 0
    with pytest.raises(InvalidSolutionError, match="inconsistent"):
        derandomize_mincost(forged, secret, inst)

    # Falsify the instance itself.
    broken = list(vec)
    broken[0] = broken[1] = broken[2] = 0
    with pytest.raises(InvalidSolutionError):
        derandomize_mincost(broken, secret, inst)

    with pytest.raises(ValueError, match="coordinates"):
        derandomize_mincost(vec + [0], secret, inst)


def test_derandomize_rejects_other_input_count():
    inst = MincostInstance(CnfInstance(3, [[1, 2, 3]]), {1: 1})
    _, secret = randomize_mincost(inst, 13, "solution_set")
    other = MincostInstance(CnfInstance(4, [[1, 2, 3], [4]]), {1: 1})
    vec = [1] * secret.inner.original_n
    with pytest.raises(ValueError, match="does not match secret"):
        derandomize_mincost(vec, secret, other)


# ---------------------------------------------------------------------------
# MAX3SAT reduction
# ---------------------------------------------------------------------------


def test_max3sat_requires_width_three():
    with pytest.raises(ValueError, match="width 1"):
        Max3SatInstance(CnfInstance(1, [[1]])).validate()


def test_reduction_structure():
    inst = Max3SatInstance(CnfInstance(3, [[1, -2, 3]]))
    reduced, offset = max3sat_to_mincost(inst)
    assert offset == 1
    assert reduced.cnf.num_vars == 4
    assert reduced.cnf.clauses == [[-4, -1], [-4, 2], [-4, -3], [4, 1, -2, 3]]
    assert reduced.costs == {4: 1}


def test_miss_indicators_track_violations():
    rng = random.Random(113)
    for _ in range(10):
        inst = Max3SatInstance(random_three_cnf(rng, rng.randint(3, 5), rng.randint(1, 4)))
        reduced, _ = max3sat_to_mincost(inst)
        n = inst.cnf.num_vars
        for full in all_assignments(reduced.cnf.num_vars):
            if reduced.cnf.satisfies(full):
                for i, clause in enumerate(inst.cnf.clauses):
                    violated = all(full[abs(l)] != (l > 0) for l in clause)
                    assert full[n + i + 1] == violated


def test_reduction_optimum_identity():
    rng = random.Random(127)
    for _ in range(12):
        inst = Max3SatInstance(random_three_cnf(rng, rng.randint(3, 6), rng.randint(1, 6)))
        reduced, offset = max3sat_to_mincost(inst)
        best, _ = brute_max3sat(inst)
        res = brute_mincost(reduced)
        assert res.satisfiable
        assert offset - res.cost == best


def test_contradictory_pair_costs_one_miss():
    three, _ = to_three_cnf(CnfInstance(1, [[1], [-1]]))
    assert three.num_clauses == 8
    reduced, offset = max3sat_to_mincost(Max3SatInstance(three))
    assert offset == 8
    assert brute_mincost(reduced).cost == 1
    best, _ = brute_max3sat(three)
    assert best == 7


# ---------------------------------------------------------------------------
# Cost sidecar format
# ---------------------------------------------------------------------------


def test_sidecar_round_trip():
    costs = {3: 4, 1: 0, 10: 7}
    text = emit_cost_sidecar(costs)
    assert text == "w 1 0\nw 3 4\nw 10 7\n"
    assert parse_cost_sidecar(text) == costs
    assert parse_cost_sidecar("c comment\n\n" + text) == costs


@pytest.mark.parametrize(
    "text",
    [
        "v 1 2\n",
        "w 1\n",
        "w 1 x\n",
        "w 0 2\n",
        "w 1 -2\n",
        "w 1 2\nw 1 3\n",
    ],
)
def test_sidecar_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_cost_sidecar(text)
