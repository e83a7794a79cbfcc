"""GF(2) substitution randomizer: Y = RX with XOR re-encoding."""

import itertools
import random

import pytest

from helpers import (
    naive_count,
    naive_solutions,
    projected_solutions,
    random_three_cnf,
)
from satcloak.cnf import CnfInstance, InvalidSolutionError
from satcloak.disguise import DISGUISES
from satcloak.gf2 import BitMatrix
from satcloak.oracles import brute_sat
from satcloak.solsetrand import (
    GfSecret,
    gf_derandomize,
    gf_forward,
    gf_randomize,
)

GF2 = DISGUISES["solution_set"]


def test_rejects_non_three_cnf():
    with pytest.raises(ValueError, match="width 2"):
        gf_randomize(CnfInstance(2, [[1, -2]]), seed=0)


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
        for full in itertools.product([False, True], repeat=art.num_vars):
            assign = dict(zip(range(1, art.num_vars + 1), full))
            if art.satisfies(assign):
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
        assert secret.r_inv.row_ones(v - 1) == [v - 1]
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
