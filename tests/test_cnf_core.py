"""CNF model, DIMACS I/O, 3CNF conversion, and Tseitin encoding."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_assignments, naive_count, naive_solutions, random_mixed_cnf
from satcloak.cnf import (
    FALSE,
    TRUE,
    CnfInstance,
    DimacsError,
    TseitinEncoder,
    emit_dimacs,
    eval_formula,
    evaluate_gates,
    f_and,
    f_iff,
    f_not,
    f_or,
    f_var,
    f_xor,
    formula_size,
    formula_vars,
    parse_dimacs,
    to_three_cnf,
    tseitin,
)

# ---------------------------------------------------------------------------
# Instance basics and DIMACS
# ---------------------------------------------------------------------------


def test_validate_rejects_bad_instances():
    with pytest.raises(ValueError):
        CnfInstance(-1, []).validate()
    with pytest.raises(ValueError):
        CnfInstance(2, [[]]).validate()
    with pytest.raises(ValueError):
        CnfInstance(2, [[3]]).validate()
    with pytest.raises(ValueError):
        CnfInstance(2, [[0]]).validate()
    CnfInstance(2, [[1, -2]]).validate()


def test_clause_satisfied():
    clause = CnfInstance(2, [[1, -2]])
    assert clause.satisfies({1: False, 2: False})
    assert not clause.satisfies({1: False, 2: True})


def test_satisfies_with_missing_variables():
    inst = CnfInstance(3, [[1, 2], [-3, 2]])
    # Each clause has a true literal, so the unassigned variable 3 is moot.
    assert inst.satisfies({1: True, 2: True})
    assert inst.satisfies({1: 1, 2: 1, 3: 0})  # 0/1 ints work as values
    assert not inst.satisfies({1: 0, 2: 0, 3: 0})
    # A clause no true literal satisfies must not hide a missing variable.
    with pytest.raises(KeyError):
        inst.satisfies({1: False, 3: True})
    with pytest.raises(KeyError):
        inst.satisfies({})


def test_emit_canonical_form():
    inst = CnfInstance(3, [[1, -3], [2]])
    assert emit_dimacs(inst) == "p cnf 3 2\n1 -3 0\n2 0\n"


def test_parse_accepts_comments_and_multiline_clauses():
    text = "c a comment\np cnf 4 2\nc mid-stream comment\n1 -2\n3 0 4 -1 0\n"
    inst = parse_dimacs(text)
    assert inst.num_vars == 4
    assert inst.clauses == [[1, -2, 3], [4, -1]]


def test_parse_bytes_input():
    assert parse_dimacs(b"p cnf 1 1\n1 0\n").clauses == [[1]]


def test_parse_dedupes_repeated_literals_keeps_tautologies():
    assert parse_dimacs("p cnf 2 1\n1 1 -2 1 0\n").clauses == [[1, -2]]
    assert parse_dimacs("p cnf 1 1\n1 -1 0\n").clauses == [[1, -1]]


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("1 0\n", "missing problem line"),
        ("p cnf 1 1\np cnf 1 1\n1 0\n", "duplicate problem line"),
        ("p cnf 1\n1 0\n", "malformed problem line"),
        ("p dnf 1 1\n1 0\n", "malformed problem line"),
        ("p cnf x 1\n1 0\n", "malformed problem line"),
        ("p cnf -1 0\n", "negative counts"),
        ("p cnf 1 1\nfoo 0\n", "non-integer token"),
        ("p cnf 1 1\n2 0\n", "exceeds declared maximum"),
        ("p cnf 1 1\n0\n", "zero-length clause"),
        ("p cnf 1 1\n1\n", "unterminated clause"),
        ("p cnf 1 2\n1 0\n", "clause count mismatch"),
    ],
)
def test_parse_rejects_malformed_input(text, fragment):
    with pytest.raises(DimacsError, match=fragment):
        parse_dimacs(text)


@st.composite
def cnf_instances(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    m = draw(st.integers(min_value=0, max_value=10))
    lit = st.integers(min_value=1, max_value=n).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clauses = draw(
        st.lists(
            st.lists(lit, min_size=1, max_size=4, unique=True),
            min_size=m,
            max_size=m,
        )
    )
    return CnfInstance(n, clauses)


@given(cnf_instances())
@settings(max_examples=60)
def test_dimacs_round_trip(inst):
    again = parse_dimacs(emit_dimacs(inst))
    assert again.num_vars == inst.num_vars
    assert again.clauses == inst.clauses


# ---------------------------------------------------------------------------
# 3CNF conversion
# ---------------------------------------------------------------------------


def test_three_cnf_shapes():
    # Width-by-width clause and variable overhead.
    unit, m1 = to_three_cnf(CnfInstance(1, [[1]]))
    assert [len(c) for c in unit.clauses] == [3, 3, 3, 3]
    assert unit.num_vars == 3 and len(m1.gates) == 2

    binary, m2 = to_three_cnf(CnfInstance(2, [[1, -2]]))
    assert [len(c) for c in binary.clauses] == [3, 3]
    assert binary.num_vars == 3 and len(m2.gates) == 1

    triple, m3 = to_three_cnf(CnfInstance(3, [[1, 2, 3]]))
    assert triple.clauses == [[1, 2, 3]]
    assert m3.gates == {}

    wide, m5 = to_three_cnf(CnfInstance(5, [[1, -2, 3, -4, 5]]))
    assert [len(c) for c in wide.clauses] == [3, 3, 3]
    assert wide.num_vars == 7
    assert m5.gates[6] == ("or", (3, -4, 5))
    assert m5.gates[7] == ("or", (-4, 5))


def test_three_cnf_rejects_empty_clause():
    with pytest.raises(ValueError):
        to_three_cnf(CnfInstance(1, [[]]))


def test_three_cnf_preserves_models():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 6)
        inst = random_mixed_cnf(rng, n, rng.randint(1, 8), max_width=5)
        three, mapping = to_three_cnf(inst)
        assert all(len(c) == 3 for c in three.clauses)
        assert mapping.num_input_vars == inst.num_vars
        assert mapping.num_vars == three.num_vars
        three.validate()

        # Projection: every model of the conversion restricts to a model.
        for full in all_assignments(three.num_vars):
            if three.satisfies(full):
                proj = {v: full[v] for v in range(1, n + 1)}
                assert inst.satisfies(proj)
        # Completion: every model of the input extends canonically.
        for assign in naive_solutions(inst):
            full = evaluate_gates(mapping, assign)
            assert three.satisfies(full)
        # Both directions together give equisatisfiability.
        assert bool(naive_count(inst)) == bool(naive_count(three))


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


def test_constant_folding():
    assert f_and() == TRUE
    assert f_or() == FALSE
    assert f_not(TRUE) == FALSE
    assert f_not(f_not(f_var(1))) == f_var(1)
    assert f_and(f_var(1), TRUE) == f_var(1)
    assert f_and(f_var(1), FALSE) == FALSE
    assert f_or(f_var(1), FALSE) == f_var(1)
    assert f_or(f_var(1), TRUE) == TRUE
    assert f_xor(f_var(1), FALSE) == f_var(1)
    assert f_xor(f_var(1), TRUE) == f_not(f_var(1))
    with pytest.raises(ValueError):
        f_var(0)


def _random_formula(rng: random.Random, num_vars: int, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return f_var(rng.randint(1, num_vars))
    op = rng.choice(["and", "or", "not", "xor", "iff"])
    if op == "not":
        return f_not(_random_formula(rng, num_vars, depth - 1))
    if op in ("xor", "iff"):
        a = _random_formula(rng, num_vars, depth - 1)
        b = _random_formula(rng, num_vars, depth - 1)
        return f_xor(a, b) if op == "xor" else f_iff(a, b)
    k = rng.randint(2, 3)
    parts = [_random_formula(rng, num_vars, depth - 1) for _ in range(k)]
    return f_and(*parts) if op == "and" else f_or(*parts)


def test_eval_formula_truth_tables():
    a, b = f_var(1), f_var(2)
    table = {
        f_and(a, b): [False, False, False, True],
        f_or(a, b): [False, True, True, True],
        f_xor(a, b): [False, True, True, False],
        f_iff(a, b): [True, False, False, True],
    }
    for formula, wants in table.items():
        got = [
            eval_formula(formula, {1: x, 2: y})
            for x in (False, True)
            for y in (False, True)
        ]
        assert got == wants
    assert eval_formula(TRUE, {}) is True
    assert eval_formula(FALSE, {}) is False


def test_formula_vars_and_size():
    f = f_and(f_var(1), f_or(f_var(2), f_not(f_var(1))))
    assert formula_vars(f) == {1, 2}
    assert formula_vars(TRUE) == set()
    # Shared subterms count once: repeating x adds no nodes.
    x = f_xor(f_var(1), f_var(2))
    assert formula_size(f_and(x, x, f_var(3))) == formula_size(f_and(x, f_var(3)))


# ---------------------------------------------------------------------------
# Tseitin
# ---------------------------------------------------------------------------


def test_tseitin_agrees_with_eval():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(1, 4)
        f = _random_formula(rng, n, rng.randint(1, 3))
        cnf, root, mapping = tseitin(f, num_input_vars=n)
        for inputs in all_assignments(n):
            full = evaluate_gates(mapping, inputs)
            assert cnf.satisfies(full)
            root_val = full[abs(root)] == (root > 0)
            assert root_val == eval_formula(f, inputs)


def test_tseitin_gate_extension_unique():
    # Definition clauses pin every gate: a satisfying total assignment is
    # exactly the computed extension of its input part.
    rng = random.Random(72)
    for _ in range(12):
        n = rng.randint(1, 3)
        f = _random_formula(rng, n, 2)
        cnf, _, mapping = tseitin(f, num_input_vars=n)
        if cnf.num_vars > 12:
            continue
        for full in all_assignments(cnf.num_vars):
            if cnf.satisfies(full):
                inputs = {v: full[v] for v in range(1, n + 1)}
                assert full == evaluate_gates(mapping, inputs)


def test_tseitin_shares_identical_subformulas():
    x = f_xor(f_var(1), f_var(2))
    enc = TseitinEncoder(2)
    first = enc.encode(x)
    vars_after_first = enc.num_vars
    assert enc.encode(x) == first
    assert enc.num_vars == vars_after_first
    # NOT reuses the child gate with flipped sign.
    assert enc.encode(f_not(x)) == -first


def test_tseitin_constants_become_forced_gates():
    cnf, root, mapping = tseitin(TRUE, num_input_vars=0)
    assert cnf.clauses == [[root]]
    assert evaluate_gates(mapping, {})[root] is True
    cnf, root, _ = tseitin(FALSE, num_input_vars=0)
    assert cnf.clauses == [[-root]]


def test_tseitin_plain_variable_allocates_nothing():
    cnf, root, _ = tseitin(f_var(2), num_input_vars=3)
    assert root == 2
    assert cnf.num_vars == 3
    assert cnf.clauses == []


def test_gate_folds_false_and_shares_repeats():
    enc = TseitinEncoder(2)
    # The literal 0 is constant false and never allocates a gate.
    assert enc.gate("and", 1, 0) == 0
    assert enc.gate("or", 0, -2) == -2
    assert enc.gate("xor", 1, 0) == 1
    assert enc.gate("xor", 0, 0) == 0
    assert enc.num_vars == 2 and enc.clauses == []
    g = enc.gate("xor", 1, -2)
    clauses = list(enc.clauses)
    assert enc.gate("xor", 1, -2) == g
    assert enc.clauses == clauses and enc.num_vars == 3
    h = enc.gate("and", g, 2)
    mapping = enc.mapping()
    assert mapping.gates == {g: ("xor", (1, -2)), h: ("and", (g, 2))}
    for inputs in all_assignments(2):
        full = evaluate_gates(mapping, inputs)
        assert full[g] == (inputs[1] == inputs[2])
        assert full[h] == (inputs[1] == inputs[2] and inputs[2])
        assert enc.cnf().satisfies(full)


def test_tseitin_reserved_range_enforced():
    enc = TseitinEncoder(1)
    with pytest.raises(ValueError, match="reserved input range"):
        enc.encode(f_var(2))
