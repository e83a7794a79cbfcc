"""CNF model, DIMACS I/O, 3CNF conversion, and Tseitin gates."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import all_assignments, naive_count, naive_solutions, random_mixed_cnf
from satcloak.cnf import (
    CnfInstance,
    DimacsError,
    TseitinEncoder,
    TseitinMap,
    emit_dimacs,
    evaluate_gates,
    parse_dimacs,
    to_three_cnf,
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
    # Each split variable is the or of the next literal and the next split
    # variable, the last one of the last two literals.
    assert m5.gates[6] == ("or", (3, 7))
    assert m5.gates[7] == ("or", (-4, 5))


def test_three_cnf_returns_a_width_three_table_as_it_is():
    inst = parse_dimacs("p cnf 4 2\n1 -2 3 0\n-1 2 4 0\n")
    assert inst.table is not None
    three, mapping = to_three_cnf(inst)
    assert three is inst
    assert (mapping.num_input_vars, mapping.num_vars, mapping.gates) == (4, 4, {})
    # Another width is split into a width-3 table view.
    wide, _ = to_three_cnf(parse_dimacs("p cnf 4 1\n1 -2 3 4 0\n"))
    assert wide.table.shape == (2, 3) and wide.num_vars == 5


def test_three_cnf_rejects_empty_clause():
    with pytest.raises(ValueError):
        to_three_cnf(CnfInstance(1, [[]]))


def reference_to_three_cnf(instance):
    """The conversion one clause at a time, as lists: the reference for
    the numpy conversion's clauses, variable numbers and gates."""
    next_var = instance.num_vars + 1
    out = []
    gates = {}
    for clause in instance.clauses:
        w = len(clause)
        if w == 0:
            raise ValueError("empty clause: input is trivially unsatisfiable")
        if w == 3:
            out.append(clause)
        elif w == 1:
            (a,) = clause
            p, q = next_var, next_var + 1
            next_var += 2
            gates[p] = gates[q] = ("or", ())
            out.extend([[a, p, q], [a, -p, q], [a, p, -q], [a, -p, -q]])
        elif w == 2:
            a, b = clause
            p = next_var
            next_var += 1
            gates[p] = ("or", ())
            out.extend([[a, b, p], [a, b, -p]])
        else:
            svars = list(range(next_var, next_var + w - 3))
            next_var += w - 3
            gates[svars[-1]] = ("or", (clause[w - 2], clause[w - 1]))
            for idx in range(w - 5, -1, -1):
                gates[svars[idx]] = ("or", (clause[idx + 2], svars[idx + 1]))
            out.append([clause[0], clause[1], svars[0]])
            for i in range(1, w - 3):
                out.append([-svars[i - 1], clause[i + 1], svars[i]])
            out.append([-svars[-1], clause[w - 2], clause[w - 1]])
    cnf = CnfInstance(next_var - 1, out)
    return cnf, TseitinMap(instance.num_vars, next_var - 1, gates)


def _conversion(convert, instance):
    """What ``convert(instance)`` gives: the output's bytes and variable
    count and the map's counts and gates in order, or the error."""
    try:
        three, mapping = convert(instance)
    except ValueError as exc:
        return "error", str(exc)
    counts = (three.num_vars, mapping.num_input_vars, mapping.num_vars)
    return emit_dimacs(three), counts, list(mapping.gates.items())


@st.composite
def mixed_width_instances(draw):
    """Clauses of widths 0 to 8 over few variables, so repeated literals
    and tautologies are common; an empty clause is rare."""
    n = draw(st.integers(min_value=1, max_value=6))
    lit = st.integers(min_value=1, max_value=n).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    width = st.sampled_from([0] + [1, 2, 3, 4, 5, 6, 7, 8] * 4)
    clauses = draw(st.lists(
        width.flatmap(lambda w: st.lists(lit, min_size=w, max_size=w)), max_size=12
    ))
    return CnfInstance(n, clauses)


@given(mixed_width_instances())
@settings(max_examples=300, deadline=None)
@example(CnfInstance(0, []))
@example(CnfInstance(4, []))
@example(CnfInstance(4, [[1, 2, 3, 4], [], [1]]))
@example(CnfInstance(2, [[1, 1, -1, 2, 2, -2, 1, 1], [2, -2], [1, 1, 1]]))
def test_three_cnf_matches_reference(inst):
    assert _conversion(to_three_cnf, inst) == _conversion(reference_to_three_cnf, inst)


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


def test_three_cnf_map_is_linear_in_its_output():
    # A clause of width w gets w - 3 split gates of two inputs each, not
    # suffixes of up to w - 2, and each has the value of its clause suffix.
    rng = random.Random(5)
    n = 8
    x = {v: rng.random() < 0.5 for v in range(1, n + 1)}

    def lit(value):
        v = rng.randint(1, n)
        return v if x[v] == value else -v

    # True only at two places, so the suffix values change along the clause.
    wide = [lit(j in (700, 1000)) for j in range(3000)]
    short = [[lit(rng.random() < 0.3) for _ in range(w)] for w in range(1, 9)]
    inst = CnfInstance(n, short[:4] + [wide] + short[4:])
    _, mapping = to_three_cnf(inst)

    suffix_or = {}  # split variable -> or of its clause suffix
    var = n + 1
    for clause in inst.clauses:
        w = len(clause)
        if w <= 3:
            var += 3 - w
            continue
        values = []
        value = False
        for l in reversed(clause[2:]):
            value = value or x[abs(l)] == (l > 0)
            values.append(value)
        for i in range(w - 3):
            suffix_or[var + i] = values[w - 3 - i]
        var += w - 3
    assert var - 1 == mapping.num_vars
    assert {len(mapping.gates[v][1]) for v in suffix_or} == {2}
    inputs = sum(len(lits) for _, lits in mapping.gates.values())
    assert inputs <= 2 * len(mapping.gates)
    seen = set(range(1, n + 1))
    for v, (_, lits) in mapping.gates.items():
        assert {abs(l) for l in lits} <= seen
        seen.add(v)
    full = evaluate_gates(mapping, x)
    assert {v: full[v] for v in suffix_or} == suffix_or
    assert set(suffix_or.values()) == {False, True}


# ---------------------------------------------------------------------------
# Tseitin gates
# ---------------------------------------------------------------------------

_OPS = {"and": all, "or": any, "xor": lambda values: values[0] != values[1]}


def _random_circuit(rng, enc, n):
    """Random gates from gate/gate_n over inputs 1..n: and/or of one to
    four inputs, xor of two, inputs negated at random.  Returns the
    ``(op, lits, literal)`` triples in the order made."""
    pool = list(range(1, n + 1))
    made = []
    for _ in range(rng.randint(1, 6)):
        op = rng.choice(sorted(_OPS))
        k = 2 if op == "xor" else rng.randint(1, 4)
        lits = tuple(rng.choice(pool) * rng.choice((1, -1)) for _ in range(k))
        lit = enc.gate(op, *lits) if k == 2 else enc.gate_n(op, lits)
        made.append((op, lits, lit))
        pool.append(abs(lit))
    return made


def test_tseitin_agrees_with_eval():
    # The extension evaluate_gates computes satisfies the definition
    # clauses, and every gate literal takes the value of its op.
    rng = random.Random(71)
    for _ in range(60):
        n = rng.randint(1, 3)
        enc = TseitinEncoder(n)
        made = _random_circuit(rng, enc, n)
        cnf, mapping = enc.cnf(), enc.mapping()
        for inputs in all_assignments(n):
            full = evaluate_gates(mapping, inputs)
            assert cnf.satisfies(full)

            def value(l):
                return full[abs(l)] == (l > 0)

            for op, lits, lit in made:
                assert value(lit) == _OPS[op]([value(l) for l in lits])


def test_tseitin_gate_extension_unique():
    # Definition clauses pin every gate: a satisfying total assignment is
    # exactly the computed extension of its input part.
    rng = random.Random(72)
    for _ in range(60):
        n = rng.randint(1, 3)
        enc = TseitinEncoder(n)
        _random_circuit(rng, enc, n)
        cnf, mapping = enc.cnf(), enc.mapping()
        for full in all_assignments(cnf.num_vars):
            if cnf.satisfies(full):
                inputs = {v: full[v] for v in range(1, n + 1)}
                assert full == evaluate_gates(mapping, inputs)


def test_tseitin_shares_identical_subformulas():
    # A repeated (op, lits) finds the literal of its first gate, also one
    # that gate made, and adds neither a variable nor a clause.
    rng = random.Random(73)
    for _ in range(60):
        n = rng.randint(1, 3)
        enc = TseitinEncoder(n)
        made = _random_circuit(rng, enc, n)
        size = (enc.num_vars, len(enc.clauses))
        for op, lits, lit in made:
            assert enc.gate_n(op, lits) == lit
            if len(lits) == 2:
                assert enc.gate(op, *lits) == lit
        assert (enc.num_vars, len(enc.clauses)) == size
    enc = TseitinEncoder(2)
    x = enc.gate("xor", 1, 2)
    assert enc.gate_n("xor", (1, 2)) == x and enc.num_vars == 3


def test_tseitin_plain_variable_allocates_nothing():
    # A one-input and/or is its input literal: no variable, no clause.
    enc = TseitinEncoder(3)
    assert enc.gate_n("and", (2,)) == 2
    assert enc.gate_n("or", (-3,)) == -3
    assert enc.num_vars == 3
    assert enc.clauses == [] and enc.mapping().gates == {}


def test_tseitin_constants_become_forced_gates():
    # A gate of no inputs is a forced constant: "and" true, "or" false.
    enc = TseitinEncoder(0)
    true = enc.gate_n("and", ())
    false = enc.gate_n("or", ())
    assert enc.clauses == [[true], [-false]]
    assert enc.gate_n("and", ()) == true
    full = evaluate_gates(enc.mapping(), {})
    assert full[true] is True and full[false] is False


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
