"""Variable permutation + polarity flip randomizer."""

import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_assignments, naive_count, naive_solutions, random_mixed_cnf
from satcloak.cnf import CnfInstance, parse_dimacs
from satcloak.disguise import DISGUISES
from satcloak.isomorph import (
    IsoSecret,
    apply_iso,
    iso_derandomize,
    iso_forward,
    iso_randomize,
)
from satcloak.oracles import brute_sat
from satcloak.orchestrator import (
    check_solution,
    make_record,
    record_from_json,
    record_to_json,
)


def test_secret_validation():
    IsoSecret([2, 1, 3], frozenset({2}))
    with pytest.raises(ValueError, match="bijection"):
        IsoSecret([1, 1], frozenset())
    with pytest.raises(ValueError, match="out-of-range"):
        IsoSecret([1, 2], frozenset({3}))
    # Values beyond int64 are out of range too, not an OverflowError.
    with pytest.raises(ValueError, match="bijection"):
        IsoSecret([1, 2**70], frozenset())
    with pytest.raises(ValueError, match="out-of-range"):
        IsoSecret([1, 2], frozenset({2**70}))
    with pytest.raises(ValueError, match="bijection"):
        IsoSecret([0, 1], frozenset())
    IsoSecret([], frozenset())


def test_apply_iso_hand_example():
    inst = CnfInstance(3, [[1, -2, 3], [-1, 2]])
    secret = IsoSecret([3, 1, 2], frozenset({2}))
    out = apply_iso(inst, secret)
    # x1 -> y3, x2 -> y1 flipped, x3 -> y2.
    assert out.clauses == [[3, 1, 2], [-3, -1]]


def test_apply_iso_size_mismatch():
    secret = IsoSecret([1, 2], frozenset())
    with pytest.raises(ValueError, match="does not match"):
        apply_iso(CnfInstance(3, [[1]]), secret)


@pytest.mark.parametrize("clause, bad", [
    ([1, 0, 2], "0"), ([1, 4, 2], "4"), ([-3, 2, -4], "-4"),
])
def test_apply_iso_rejects_bad_literals(clause, bad):
    secret = IsoSecret([2, 3, 1], frozenset({1}))
    with pytest.raises(ValueError, match=f"literal {bad} out of range 1..3"):
        apply_iso(CnfInstance(3, [[1, -2, 3], clause]), secret)


def test_shape_profile_is_invariant():
    rng = random.Random(13)
    for _ in range(20):
        inst = random_mixed_cnf(rng, rng.randint(2, 8), rng.randint(1, 10))
        art, _ = iso_randomize(inst, rng.getrandbits(32))
        assert art.num_vars == inst.num_vars
        assert art.num_clauses == inst.num_clauses
        assert sorted(len(c) for c in art.clauses) == sorted(
            len(c) for c in inst.clauses
        )


def test_solution_count_is_invariant():
    rng = random.Random(29)
    for _ in range(25):
        inst = random_mixed_cnf(rng, rng.randint(1, 8), rng.randint(1, 10))
        art, _ = iso_randomize(inst, rng.getrandbits(32))
        assert brute_sat(art).count == naive_count(inst)


def test_round_trip_on_all_models():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(1, 6)
        inst = random_mixed_cnf(rng, n, rng.randint(1, 8))
        art, secret = iso_randomize(inst, rng.getrandbits(32))
        # Every model of the artifact derandomizes to a model of the input...
        for y in all_assignments(n):
            if art.satisfies(y):
                assert inst.satisfies(iso_derandomize(y, secret))
        # ...and every model of the input maps forward to a model.
        for x in naive_solutions(inst):
            assert art.satisfies(iso_forward(x, secret))


@given(st.integers(min_value=1, max_value=8), st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_forward_backward_inverse(n, rnd):
    perm = list(range(1, n + 1))
    rnd.shuffle(perm)
    flips = frozenset(v for v in range(1, n + 1) if rnd.random() < 0.5)
    secret = IsoSecret(perm, flips)
    x = {v: rnd.random() < 0.5 for v in range(1, n + 1)}
    assert iso_derandomize(iso_forward(x, secret), secret) == x


def test_derandomize_requires_full_domain():
    secret = IsoSecret([2, 1], frozenset())
    with pytest.raises(ValueError, match="missing variables"):
        iso_derandomize({2: True}, secret)
    with pytest.raises(ValueError, match="cover"):
        iso_forward({1: True}, secret)


def test_deterministic_per_seed():
    inst = CnfInstance(5, [[1, 2, -3], [4, -5, 1], [-2, 3, 5]])
    a1, s1 = iso_randomize(inst, 77)
    a2, s2 = iso_randomize(inst, 77)
    assert a1 == a2 and s1 == s2
    a3, _ = iso_randomize(inst, 78)
    assert a3 != a1


# Unique model: x1 true, x2 false, x3 true.
TINY = parse_dimacs("p cnf 3 4\n1 0\n-2 0\n1 2 3 0\n3 -1 0\n")


def test_negative_seed_draws_as_its_absolute_value():
    assert iso_randomize(TINY, -5) == iso_randomize(TINY, 5)


def test_huge_seed_round_trips():
    seed = 2**255
    artifact, secret = iso_randomize(TINY, seed)
    assert (artifact, secret) == iso_randomize(TINY, seed)
    record = record_from_json(record_to_json(make_record("iso", secret, TINY, seed)))
    assert record.seed == seed and record.secret == secret
    model = brute_sat(TINY).assignment
    vector = DISGUISES["iso"].forward(model, secret, TINY)
    assert artifact.satisfies({v: bool(b) for v, b in enumerate(vector, 1)})
    assert check_solution(record, vector, TINY) == (model, None)


def test_draw_is_uniform():
    # Each permutation, flip set and clause order of TINY must come up about
    # as often as a uniform draw gives it: within 5 binomial standard
    # deviations of its expected count over the seeds.
    seeds = 3000
    perms, flip_sets, orders = Counter(), Counter(), Counter()
    for seed in range(seeds):
        artifact, secret = iso_randomize(TINY, seed)
        mapped = apply_iso(TINY, secret).clauses
        perms[tuple(secret.permutation)] += 1
        flip_sets[secret.flips] += 1
        orders[tuple(mapped.index(c) for c in artifact.clauses)] += 1
    expected_keys = (
        set(itertools.permutations(range(1, 4))),
        {frozenset(c) for r in range(4) for c in itertools.combinations((1, 2, 3), r)},
        set(itertools.permutations(range(4))),
    )
    for counts, keys in zip((perms, flip_sets, orders), expected_keys):
        assert set(counts) == keys
        p = 1 / len(keys)
        spread = 5 * math.sqrt(seeds * p * (1 - p))
        for key, count in counts.items():
            assert abs(count - seeds * p) <= spread, (key, count)
