"""GF(2) substitution randomizer: Y = RX with XOR re-encoding."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    naive_count,
    naive_solutions,
    projected_solutions,
    random_three_cnf,
    row_ones,
)
from satcloak.cnf import (
    CnfInstance,
    InvalidSolutionError,
    TseitinEncoder,
    emit_dimacs,
    evaluate_gates,
    parse_dimacs,
    to_three_cnf,
)
from satcloak.disguise import DISGUISES
from satcloak.gf2 import BitMatrix, gf2_invert, gf2_mat_vec
from satcloak.oracles import brute_sat
from satcloak.solsetrand import (
    GfSecret,
    gf_derandomize,
    gf_forward,
    gf_randomize,
)

GF2 = DISGUISES["solution_set"]


def test_rejects_non_three_cnf():
    with pytest.raises(ValueError, match="clause 1 has width 2"):
        gf_randomize(CnfInstance(2, [[1, -2]]), seed=0)
    with pytest.raises(ValueError, match="clause 2 has width 4"):
        gf_randomize(CnfInstance(4, [[1, 2, 3], [1, 2, 3, 4]]), seed=0)
    table = parse_dimacs("p cnf 2 2\n1 -2 0\n2 1 0\n")
    assert table.table is not None
    with pytest.raises(ValueError, match="clause 1 has width 2"):
        gf_randomize(table, seed=0)


def test_table_and_lists_give_the_same_artifact():
    rng = random.Random(59)
    inst = random_three_cnf(rng, 12, 40)
    table = parse_dimacs(emit_dimacs(inst))
    assert table == inst
    for row_weight in (None, 2, 3):
        art, secret = gf_randomize(inst, 4, row_weight)
        assert art.table is not None
        assert gf_randomize(table, 4, row_weight) == (art, secret)
        x = {v: rng.random() < 0.5 for v in range(1, 13)}
        assert gf_forward(x, secret, table) == gf_forward(x, secret, inst)


def test_output_is_strict_three_cnf():
    rng = random.Random(61)
    for _ in range(10):
        inst = random_three_cnf(rng, rng.randint(3, 8), rng.randint(1, 8))
        art, secret = gf_randomize(inst, rng.getrandbits(32))
        art.validate()
        assert all(len(c) == 3 for c in art.clauses)
        assert secret.original_n == inst.num_vars
        assert art.num_vars >= inst.num_vars


def test_solution_sets_are_in_bijection():
    # Valid y-blocks of the artifact are exactly R applied to the models of
    # the input; counts match and inversion recovers each model.
    rng = random.Random(67)
    for _ in range(12):
        n = rng.randint(3, 6)
        inst = random_three_cnf(rng, n, rng.randint(1, 7))
        art, secret = gf_randomize(inst, rng.getrandbits(32))
        ys = projected_solutions(art, n)
        assert len(ys) == naive_count(inst)
        recovered = set()
        for bits in ys:
            y = {v: bool(b) for v, b in zip(range(1, n + 1), bits)}
            x, _ = GF2.check(y, secret, inst)
            assert inst.satisfies(x)
            recovered.add(tuple(int(x[v]) for v in range(1, n + 1)))
        models = {
            tuple(int(a[v]) for v in range(1, n + 1)) for a in naive_solutions(inst)
        }
        assert recovered == models


def test_every_artifact_model_projects_soundly():
    # No spurious models: the y-block of any total artifact model inverts to
    # a model of the input.  (Total counts exceed projected counts because
    # regularization splitting leaves some dummies underconstrained.)
    rng = random.Random(71)
    checked = 0
    for _ in range(25):
        n = rng.randint(3, 4)
        inst = random_three_cnf(rng, n, rng.randint(1, 4))
        art, secret = gf_randomize(inst, rng.getrandbits(32))
        if art.num_vars > 18:
            continue
        res = brute_sat(art, var_limit=18)
        assert res.count >= naive_count(inst)
        # The artifact is a table; its list store checks one small
        # assignment without numpy's per-call cost, with the same result.
        lists = CnfInstance(art.num_vars, art.clauses)
        for full in itertools.product([False, True], repeat=art.num_vars):
            assign = dict(zip(range(1, art.num_vars + 1), full))
            if lists.satisfies(assign):
                x, _ = GF2.check(assign, secret, inst)
                assert inst.satisfies(x)
        checked += 1
    assert checked >= 5


def test_forward_then_backward_is_identity():
    rng = random.Random(73)
    for _ in range(12):
        n = rng.randint(3, 6)
        inst = random_three_cnf(rng, n, rng.randint(1, 7))
        art, secret = gf_randomize(inst, rng.getrandbits(32))
        for x in naive_solutions(inst):
            full = gf_forward(x, secret, inst)
            assert art.satisfies(full)
            assert GF2.check(full, secret, inst) == (x, None)


def test_derandomize_error_paths():
    inst = CnfInstance(3, [[1, 2, 3]])
    art, secret = gf_randomize(inst, 5)
    with pytest.raises(ValueError, match="missing variable"):
        gf_derandomize({1: True}, secret)
    # Hunt a y vector whose preimage falsifies the instance.
    for bits in itertools.product([False, True], repeat=3):
        y = dict(zip([1, 2, 3], bits))
        x = gf_derandomize(y, secret)
        if not inst.satisfies(x):
            with pytest.raises(InvalidSolutionError):
                GF2.check(y, secret, inst)
            break
    else:
        pytest.fail("every preimage satisfied a falsifiable instance")


def test_sparse_mode_bounds_substitution_width():
    rng = random.Random(79)
    for _ in range(8):
        n = rng.randint(6, 12)
        inst = random_three_cnf(rng, n, rng.randint(3, 10))
        art, secret = gf_randomize(inst, rng.getrandbits(32), row_weight=2)
        assert all(bits.bit_count() <= 2 for bits in secret.r_inv.row_bits)
        # Still a faithful randomization on the small end.
        if n <= 6:
            ys = projected_solutions(art, n)
            assert len(ys) == naive_count(inst)


def test_fixed_vars_stay_unmixed():
    rng = random.Random(83)
    inst = random_three_cnf(rng, 6, 6)
    fixed = frozenset({2, 5})
    art, secret = gf_randomize(inst, 11, fixed_vars=fixed)
    for v in fixed:
        assert row_ones(secret.r_inv, v - 1) == [v - 1]
    for x in naive_solutions(inst):
        full = gf_forward(x, secret, inst)
        assert art.satisfies(full)
        for v in fixed:
            assert full[v] == x[v]


def test_all_vars_fixed_is_identity():
    inst = CnfInstance(3, [[1, -2, 3]])
    art, secret = gf_randomize(inst, 3, fixed_vars={1, 2, 3})
    assert art == inst
    assert secret.r_inv == BitMatrix.identity(3)


def test_empty_instance():
    art, secret = gf_randomize(CnfInstance(0, []), 1)
    assert art == CnfInstance(0, [])
    assert secret.original_n == 0


def test_deterministic_per_seed():
    inst = CnfInstance(4, [[1, 2, 3], [-2, 3, -4]])
    a1, s1 = gf_randomize(inst, 21)
    a2, s2 = gf_randomize(inst, 21)
    assert a1 == a2 and s1 == s2
    _, s3 = gf_randomize(inst, 22)
    assert s3.r_inv != s1.r_inv


# ---------------------------------------------------------------------------
# The table rewrite against the gate-by-gate rewrite it replaced
# ---------------------------------------------------------------------------


def _rewrite(instance: CnfInstance, r_inv: BitMatrix) -> TseitinEncoder:
    """Reference rewrite, one gate at a time: an encoder over the ``y``
    variables whose clauses are the rewritten clauses, each after the gate
    clauses of the dummies it reads."""
    n = instance.num_vars
    enc = TseitinEncoder(n)
    chain_rep: dict[int, int] = {}
    subs = [tuple(j + 1 for j in row_ones(r_inv, v)) for v in range(n)]
    for clause in instance.clauses:
        big: list[int] = []
        for lit in clause:
            v = abs(lit)
            positive = lit > 0
            s = subs[v - 1]
            if len(s) == 1:
                big.append(s[0] if positive else -s[0])
            elif len(s) == 2:
                a, b = s
                if positive:  # value 1: (a and not b) or (b and not a)
                    pairs = [(a, -b), (b, -a)]
                else:  # value 0: (a and b) or (not a and not b)
                    pairs = [(a, b), (-a, -b)]
                big.extend([enc.add_gate("and", pair) for pair in pairs])
            else:
                rep = chain_rep.get(v)
                if rep is None:
                    rep = chain_rep[v] = _chain(enc, s)
                big.append(rep if positive else -rep)
        enc.clauses.append(big)
    return enc


def _chain(enc: TseitinEncoder, s: tuple[int, ...]) -> int:
    """Signed literal equal to ``xor(s)``, built from xnor links."""
    prev = s[0]
    for nxt in s[1:]:
        prev = enc.add_gate("xor", (prev, -nxt))  # not(prev xor nxt)
    # After k-1 links the last one equals xor(s) + (k-1 mod 2).
    return prev if (len(s) - 1) % 2 == 0 else -prev


def _check_against_reference(inst, seed, row_weight, fixed, x):
    """The artifact's bytes and variable count, and ``gf_forward``'s value
    of every variable, equal the reference rewrite's then
    ``to_three_cnf`` and its two gate maps."""
    art, secret = gf_randomize(inst, seed, row_weight, fixed)
    enc = _rewrite(inst, secret.r_inv)
    ref, three_map = to_three_cnf(enc.cnf())
    assert emit_dimacs(art) == emit_dimacs(ref)
    assert art.num_vars == ref.num_vars
    n = inst.num_vars
    y = gf2_mat_vec(gf2_invert(secret.r_inv), [int(x[v]) for v in range(1, n + 1)])
    base = {v: bool(y[v - 1]) for v in range(1, n + 1)}
    expected = evaluate_gates(three_map, evaluate_gates(enc.mapping(), base))
    full = gf_forward(x, secret, inst)
    assert full == expected
    assert list(full) == list(range(1, len(full) + 1))
    assert all(type(value) is bool for value in full.values())


def _random_clauses(rng, n, k):
    """Clauses of three literals drawn with replacement, so a clause may
    name a variable twice or hold a tautology; one of each is forced."""
    clauses = [[rng.choice((-1, 1)) * rng.randint(1, n) for _ in range(3)]
               for _ in range(k)]
    if k >= 2:
        v, u = rng.randint(1, n), rng.randint(1, n)
        clauses[0] = [v, -v, u]
        clauses[1] = [-u, v, -u]
    return clauses


def test_table_rewrite_matches_reference_rewrite():
    rng = random.Random(89)
    for n in range(41):
        for row_weight in (None, 1, 2, 3, 4, 5):
            k = rng.randint(0, 12) if n else 0
            inst = CnfInstance(n, _random_clauses(rng, n, k))
            fixed = frozenset(v for v in range(1, n + 1) if rng.random() < 0.2)
            x = {v: rng.random() < 0.5 for v in range(1, n + 1)}
            _check_against_reference(inst, rng.getrandbits(32), row_weight, fixed, x)


@st.composite
def rewrite_cases(draw):
    n = draw(st.integers(1, 9))
    lits = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(lits, min_size=3, max_size=3), max_size=8))
    fixed = draw(st.frozensets(st.integers(1, n)))
    row_weight = draw(st.sampled_from((None, 1, 2, 3, 4)))
    x = dict(enumerate(draw(st.lists(st.booleans(), min_size=n, max_size=n)), 1))
    return CnfInstance(n, clauses), draw(st.integers(0, 2**32)), row_weight, fixed, x


@given(rewrite_cases())
@settings(max_examples=300, deadline=None)
def test_table_rewrite_matches_reference_rewrite_on_generated_cases(case):
    _check_against_reference(*case)


def test_sparse_rewrite_matches_reference_at_a_thousand_variables():
    # The sparse R^-1 is listed by walking its rows, not by unpacking.
    rng = random.Random(97)
    inst = random_three_cnf(rng, 1000, 4000)
    x = {v: rng.random() < 0.5 for v in range(1, 1001)}
    for row_weight in (2, 3, 5):
        _check_against_reference(inst, 3, row_weight, frozenset(), x)
