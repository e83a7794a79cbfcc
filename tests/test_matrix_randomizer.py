"""Clause-to-equation encoding and random-matrix system randomization."""

import random
import tracemalloc

import pytest

from helpers import (
    expected_linear_count,
    naive_solutions,
    random_three_cnf,
    vector_to_assignment,
)
from satcloak.cnf import CnfInstance, InvalidSolutionError, to_three_cnf
from satcloak.disguise import DISGUISES
from satcloak.gf2 import BitMatrix
from satcloak.matrixrand import (
    LinearSystem,
    apply_random_matrix,
    check_linear,
    complete_solution,
    dummy_completion,
    emit_opb,
    encode_linear,
    parse_opb,
    randomize_system,
)
from satcloak.oracles import all_linear_solutions, brute_linear

MATRIX = DISGUISES["matrix"]


def test_encode_two_clause_example():
    # (x1 v x2 v x3) & (-x1 v x2 v -x3) over 3 + 2*2 variables.
    inst = CnfInstance(3, [[1, 2, 3], [-1, 2, -3]])
    sys_ = encode_linear(inst)
    assert sys_.num_vars == 7
    assert sys_.coeffs == [
        [1, 1, 1, 1, 1, 0, 0],
        [-1, 1, -1, 0, 0, 1, 1],
    ]
    assert sys_.rhs == [3, 1]
    sys_.validate()


def test_encode_sorts_columns_and_sums_repeated_variables():
    inst = CnfInstance(3, [[3, -1, 2], [1, 1, -2], [2, -2, 3], [-3, -3, -3]])
    sys_ = encode_linear(inst)
    assert sys_.coeffs == [
        [-1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
        [2, -1, 0, 0, 0, 1, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0],
        [0, 0, -3, 0, 0, 0, 0, 0, 0, 1, 1],
    ]
    assert sys_.rhs == [2, 2, 2, 0]
    # Only nonzeros are stored, each row's columns ascending.
    assert sys_._cols.tolist() == [0, 1, 2, 3, 4, 0, 1, 5, 6, 2, 7, 8, 2, 9, 10]


def test_encode_rejects_non_three_clauses():
    with pytest.raises(ValueError, match="width 2"):
        encode_linear(CnfInstance(2, [[1, -2]]))


def test_dummy_completion_table():
    assert dummy_completion(3) == (0, 0)
    assert dummy_completion(2) == (1, 0)
    assert dummy_completion(1) == (1, 1)
    with pytest.raises(ValueError):
        dummy_completion(0)


def test_complete_solution_solves_encoded_system():
    rng = random.Random(41)
    for _ in range(20):
        inst = random_three_cnf(rng, rng.randint(3, 7), rng.randint(1, 8))
        sys_ = encode_linear(inst)
        for assign in naive_solutions(inst):
            vec = complete_solution(inst, assign)
            assert check_linear(sys_, vec)
            assert vec[: inst.num_vars] == [
                int(assign[v]) for v in range(1, inst.num_vars + 1)
            ]


def test_complete_solution_rejects_falsifying_assignment():
    inst = CnfInstance(3, [[1, 2, 3]])
    with pytest.raises(ValueError):
        complete_solution(inst, {1: False, 2: False, 3: False})


def test_solutions_project_onto_cnf_models():
    # The 0/1 solutions of AX = B are exactly the CNF models extended by
    # dummy completions; counts follow the per-clause multiplicity rule.
    rng = random.Random(43)
    for _ in range(15):
        inst = random_three_cnf(rng, rng.randint(3, 6), rng.randint(1, 6))
        sys_ = encode_linear(inst)
        sols = all_linear_solutions(sys_)
        assert len(sols) == expected_linear_count(inst)
        models = {tuple(int(a[v]) for v in sorted(a)) for a in naive_solutions(inst)}
        projected = {tuple(int(b) for b in row[: inst.num_vars]) for row in sols}
        assert projected == models


def test_randomize_preserves_solution_set():
    rng = random.Random(47)
    for _ in range(15):
        inst = random_three_cnf(rng, rng.randint(3, 6), rng.randint(2, 6))
        sys_ = encode_linear(inst)
        art, secret = randomize_system(sys_, rng.getrandbits(32))
        assert art.num_vars == sys_.num_vars
        assert art.num_constraints == sys_.num_constraints
        before = all_linear_solutions(sys_)
        after = all_linear_solutions(art)
        assert before.shape == after.shape
        assert (before == after).all()


def test_randomize_with_injected_matrix():
    inst = CnfInstance(3, [[1, 2, 3], [-1, 2, -3]])
    sys_ = encode_linear(inst)
    r = BitMatrix.from_rows([[1, 1], [0, 1]])
    art = apply_random_matrix(sys_, r)
    # Row 0 is the sum of both equations, row 1 is the second unchanged.
    assert art.coeffs[0] == [0, 2, 0, 1, 1, 1, 1]
    assert art.rhs == [4, 1]
    assert art.coeffs[1] == sys_.coeffs[1]
    _, secret = randomize_system(sys_, seed=0)
    assert secret.negation_constants == [0, 2]


def test_apply_random_matrix_dimension_check():
    sys_ = encode_linear(CnfInstance(3, [[1, 2, 3]]))
    with pytest.raises(ValueError):
        apply_random_matrix(sys_, BitMatrix.identity(2))


def test_randomize_deterministic_per_seed():
    sys_ = encode_linear(CnfInstance(3, [[1, 2, 3], [-1, -2, 3], [1, -2, -3]]))
    a1, s1 = randomize_system(sys_, 5)
    a2, s2 = randomize_system(sys_, 5)
    assert a1 == a2 and s1 == s2
    a3, _ = randomize_system(sys_, 6)
    assert a3 != a1


def test_derandomize_round_trip():
    rng = random.Random(53)
    for _ in range(15):
        inst = random_three_cnf(rng, rng.randint(3, 6), rng.randint(2, 6))
        sys_ = encode_linear(inst)
        art, secret = randomize_system(sys_, rng.getrandbits(32))
        res = brute_linear(art)
        if not res.feasible:
            assert not naive_solutions(inst)
            continue
        assignment, _ = MATRIX.check(res.vector, secret, inst)
        assert inst.satisfies(assignment)
        assert assignment == vector_to_assignment(res.vector[: inst.num_vars])


def test_randomize_round_trip_at_1000_clauses():
    # A dense R of dimension 1000 against A's 5 nonzeros per row: the product
    # must add only those nonzeros to stay well inside the suite's budget.
    rng = random.Random(61)
    n, m = 250, 1000
    planted = {v: rng.random() < 0.5 for v in range(1, n + 1)}
    clauses = []
    while len(clauses) < m:
        clause = [v if rng.random() < 0.5 else -v
                  for v in rng.sample(range(1, n + 1), 3)]
        if any(planted[abs(lit)] == (lit > 0) for lit in clause):
            clauses.append(clause)
    three, _ = to_three_cnf(CnfInstance(n, clauses))
    assert three.num_clauses == m
    art, secret = randomize_system(encode_linear(three), 67)
    assert (art.num_constraints, art.num_vars) == (m, n + 2 * m)
    vector = complete_solution(three, planted)
    assert check_linear(art, vector)
    assert MATRIX.check(vector, secret, three) == (planted, None)
    flipped = list(vector)
    flipped[abs(clauses[0][0]) - 1] ^= 1
    assert not check_linear(art, flipped)


def test_derandomize_rejects_bad_solutions():
    inst = CnfInstance(3, [[1, 2, 3], [-1, 2, -3]])
    art, secret = randomize_system(encode_linear(inst), 9)
    good = complete_solution(inst, {1: True, 2: True, 3: True})
    assert MATRIX.check(good, secret, inst) == ({1: True, 2: True, 3: True}, None)

    with pytest.raises(ValueError, match="coordinates"):
        MATRIX.check(good + [0], secret, inst)
    with pytest.raises(ValueError, match="does not match secret"):
        MATRIX.check(good, secret, CnfInstance(4, [[1, 2, 3]]))
    # A projection falsifying the CNF is fraud, not a usage error.
    bad = [0, 0, 0, 1, 1, 1, 1]
    with pytest.raises(InvalidSolutionError):
        MATRIX.check(bad, secret, inst)


def test_opb_round_trip():
    rng = random.Random(59)
    for _ in range(10):
        inst = random_three_cnf(rng, rng.randint(3, 6), rng.randint(1, 6))
        art, _ = randomize_system(encode_linear(inst), rng.getrandbits(32))
        again = parse_opb(emit_opb(art))
        assert again == art


def test_linear_system_store():
    sys_ = LinearSystem(4, [[0, 3, 0, -1], [0, 0, 0, 0], [2, 0, 0, 0]], [5, 0, -2])
    assert sys_.num_constraints == 3
    assert sys_._starts.tolist() == [0, 2, 2, 3]
    assert sys_._cols.tolist() == [1, 3, 0]
    assert sys_._vals.tolist() == [3, -1, 2]
    assert sys_.coeffs == [[0, 3, 0, -1], [0, 0, 0, 0], [2, 0, 0, 0]]
    assert sys_.rhs == [5, 0, -2]
    assert sys_ != LinearSystem(4, [[0, 3, 0, -1], [0, 0, 0, 0], [2, 0, 0, 0]], [5, 0, -1])
    assert sys_ != LinearSystem(4, [[0, 3, 0, -1], [0, 0, 0, 0], [0, 2, 0, 0]], [5, 0, -2])


@pytest.mark.parametrize("coeffs,rhs", [
    ([[1, 2], [3]], [0, 0]),  # ragged
    ([[1, 2, 3]], [0]),  # wider than num_vars
    ([[1, 2]], [0, 1]),  # one rhs too many
    ([[2**63, 0]], [0]),
    ([[0, -(2**63) - 1]], [0]),
    ([[1, 0]], [2**63]),
])
def test_linear_system_rejects_ragged_rows_and_int64_overflow(coeffs, rhs):
    with pytest.raises(ValueError):
        LinearSystem(2, coeffs, rhs)


def test_linear_system_holds_int64_extremes():
    top = 2**63 - 1
    sys_ = LinearSystem(2, [[top, -top - 1]], [-top - 1])
    assert sys_.coeffs == [[top, -top - 1]]
    assert parse_opb(emit_opb(sys_)) == sys_


@pytest.mark.parametrize("line", [
    "+9223372036854775808 x1 = 1 ;",
    "-9223372036854775809 x1 = 1 ;",
    "+1 x1 = 9223372036854775808 ;",
    # Each term fits, their sum does not.
    "+9223372036854775807 x1 +1 x1 = 1 ;",
])
def test_parse_opb_rejects_values_beyond_int64(line):
    with pytest.raises(ValueError, match="outside int64"):
        parse_opb(f"* #variable= 1 #constraint= 1\n{line}\n")


def test_parse_opb_sums_repeated_terms():
    text = "* #variable= 3 #constraint= 1\n+2 x3 -1 x1 +1 x1 -2 x3 +4 x2 = 4 ;\n"
    assert parse_opb(text) == LinearSystem(3, [[0, 4, 0]], [4])


def test_parse_opb_memory_follows_the_text_not_the_header():
    text = "* #variable= 1000000000 #constraint= 1\n+1 x1000000000 = 1 ;\n"
    tracemalloc.start()
    try:
        sys_ = parse_opb(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sys_.num_vars == 10**9
    assert sys_._cols.tolist() == [10**9 - 1]
    assert peak < 2**20


def test_product_overflow_raises():
    r = BitMatrix.from_rows([[1, 1], [0, 1]])
    big = 2**62
    with pytest.raises(ValueError, match="overflow int64"):
        apply_random_matrix(LinearSystem(1, [[big], [big]], [0, 0]), r)
    with pytest.raises(ValueError, match="overflow int64"):
        apply_random_matrix(LinearSystem(1, [[1], [1]], [big, 0]), r)
    # Just inside the bound: 2 * (2**62 - 1) fits.
    art = apply_random_matrix(LinearSystem(1, [[big - 1], [big - 1]], [0, 0]), r)
    assert art.coeffs == [[2 * (big - 1)], [big - 1]]


def test_check_linear_refuses_a_row_sum_that_could_wrap():
    top = 2**63 - 1
    sys_ = LinearSystem(2, [[top, top]], [0])
    with pytest.raises(ValueError, match="overflow int64"):
        check_linear(sys_, [1, 1])
    assert check_linear(LinearSystem(2, [[top, 0], [0, 0]], [top, 0]), [1, 1])
    assert not check_linear(LinearSystem(2, [[0, 0]], [1]), [1, 1])
    for vector in ([2, 0], [0, -1], [2**64, 0]):
        with pytest.raises(ValueError, match="0 or 1"):
            check_linear(LinearSystem(2, [[top, 0]], [0]), vector)


def test_emit_opb_peak_is_a_small_multiple_of_its_text():
    rng = random.Random(71)
    art, _ = randomize_system(encode_linear(random_three_cnf(rng, 235, 1000)), 73)
    tracemalloc.start()
    try:
        text = emit_opb(art)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 8_000_000
    # The text pieces and their join, plus one block's cells and indices.
    assert peak <= 2 * len(text) + 2**20


def test_opb_emit_format():
    sys_ = LinearSystem(3, [[1, 0, -2]], [4])
    assert emit_opb(sys_) == "* #variable= 3 #constraint= 1\n+1 x1 -2 x3 = 4 ;\n"


# Constraint lines the parser once read as a different system (dropping the
# terms it did not understand) or let escape as a bare int() error.
MALFORMED_CONSTRAINTS = [
    "+1 x1 +1 y2 -1 x3 = 1 ;",
    "+1 x1 junk = 1 ;",
    "+1 x1 = \u00b2 ;",
    "+1 x1 = +-5 ;",
    "+\u0661 x1 = 1 ;",
    "+1 x\u0661 = 1 ;",
    "+1 x1 >= 1 ;",
    "+1 x1 = 1",
    "+1x1 = 1 ;",
]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "no header\n",
        "* #variable= 2 #constraint= 1\n+1 x1 = ;\n",
        "* #variable= 2 #constraint= 1\n+1 x3 = 1 ;\n",
        "* #variable= 2 #constraint= 2\n+1 x1 = 1 ;\n",
        *(f"* #variable= 3 #constraint= 1\n{line}\n" for line in MALFORMED_CONSTRAINTS),
        "* #variable= \u00b2 #constraint= 1\n+1 x1 = 1 ;\n",
        "* #variable= 3 #constraint= 1x\n+1 x1 = 1 ;\n",
    ],
)
def test_opb_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_opb(text)


@pytest.mark.parametrize("line", MALFORMED_CONSTRAINTS)
def test_opb_parse_names_malformed_constraint(line):
    text = f"* #variable= 3 #constraint= 1\n+1 x2 = 1 ;\n{line}\n"
    with pytest.raises(ValueError, match="^malformed OPB constraint: "):
        parse_opb(text)
