"""Every disguise entry, and Mincost around each inner one, on one tiny
instance: pinned artifact and key bytes, forward then derandomize, single
bit flips, and secret serialization."""

import hashlib

import pytest

from satcloak.cnf import InvalidSolutionError, complete_to_three_cnf, parse_dimacs, to_three_cnf
from satcloak.disguise import CLI_NAMES, DISGUISES, MINCOST_INNER, lookup
from satcloak.objective import (
    MINCOST,
    MincostInstance,
    compile_cost_circuit,
    evaluate_circuit,
    randomize_mincost,
)
from satcloak.oracles import brute_sat
from satcloak.orchestrator import (
    check_solution,
    make_record,
    record_from_json,
    record_to_json,
    secret_from_obj,
    secret_to_obj,
)

# Unique model: x1 true, x2 false, x3 true.  Clause widths 1, 1, 3 and 2
# exercise the 3CNF padding.
TINY = parse_dimacs("p cnf 3 4\n1 0\n-2 0\n1 2 3 0\n3 -1 0\n")
MODEL = {1: True, 2: False, 3: True}
COSTS = {1: 2, 2: 1, 3: 3}
SEED = 7

# (case, entry name, mincost?, row_weight) -> sha256 of the artifact text
# and of the key JSON, as written by the code before the disguise table.
PINNED = {
    ("iso", "iso", False, None): (
        "7f231856aad783e4309a276aec8bed892684f7330aad746f50d97a1bce14877c",
        "ce59db738a3e792980396521f94abbda759ac91b17cc4044cd10f73bb9ac3c82",
    ),
    ("matrix", "matrix", False, None): (
        "bfbc7cc3c22fc7764b2221e4c9bfbac24c453020a0fdfd92a72c06cb9979844f",
        "e83f44602a693007bdf9f47702063b7f1d5c3c6ac511e4cb2780b99578329be4",
    ),
    ("gf2", "solution_set", False, None): (
        "ab71b9848c78c6f0502b6f69a727f97600f1ca1f29d11fa98301176df948c8e7",
        "c272169a6fcd5fdd27a282b1300fdbd5965a7ea6355bb855b50e198952447c2a",
    ),
    ("gf2-w3", "solution_set", False, 3): (
        "f1b9432f20ca6cfa2f9b44352ec2ed4f8dea889582529d4c60287a70341d30d4",
        "bf6c9f18796ffc016e858c34b8064ede0b7e37761619a2c8c5d6b84f97e44b6f",
    ),
    ("mincost-matrix", "matrix", True, None): (
        "d29e80cfe0118d15505e1445a573d9d4532eac2ca88c24c25ecea9438c6c17ae",
        "6162b92b73d46dfb78ab867b24c4e30faf0c814de87a91323a6924a389872acb",
    ),
    ("mincost-gf2", "solution_set", True, None): (
        "4e6723974d0a321675042033d06f48a5f83dbdf5375f3924aa365698b6501182",
        "e058d63402c36e048c8641b5bea9c78004f8f63485051dbfffa81a244773bac7",
    ),
}


def _sha(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _disguise(name, mincost, row_weight):
    """Artifact text, record, forward-mapped honest vector, costs and the
    expected check result for one case."""
    entry = DISGUISES[name]
    if not mincost:
        artifact, secret = entry.randomize(TINY, SEED, row_weight)
        source = entry.source(TINY)
        vector = entry.forward(brute_sat(source).assignment, secret, source)
        record = make_record(entry.name, secret, TINY, SEED)
        return entry.emit(artifact), record, vector, None, (MODEL, None)
    inst = MincostInstance(TINY, COSTS)
    artifact, secret = randomize_mincost(inst, SEED, method=name, row_weight=row_weight)
    combined, _ = compile_cost_circuit(inst)
    three, _ = to_three_cnf(combined)
    full = evaluate_circuit(secret.circuit, MODEL)
    x3 = complete_to_three_cnf(secret.three_map, full)
    vector = entry.forward(x3, secret.inner, three)
    record = make_record(MINCOST.name, secret, TINY, SEED)
    return (entry.emit(artifact.inner), record, vector, COSTS,
            (MODEL, inst.cost_of(MODEL)))


@pytest.mark.parametrize("case", sorted(PINNED), ids=lambda c: c[0])
def test_entry_bytes_round_trip_and_flips(case):
    _, name, mincost, row_weight = case
    text, record, vector, costs, expected = _disguise(name, mincost, row_weight)
    key = record_to_json(record)
    assert (_sha(text), _sha(key)) == PINNED[case]

    assert secret_from_obj(secret_to_obj(record.secret)) == record.secret
    record = record_from_json(key)
    assert check_solution(record, vector, TINY, costs) == expected

    # The model is unique, so a flip that changes what the answer decodes
    # to must be rejected; flips of bits the decoding ignores may pass.
    rejected = 0
    for pos in range(len(vector)):
        flipped = list(vector)
        flipped[pos] ^= 1
        try:
            assert check_solution(record, flipped, TINY, costs) == expected
        except InvalidSolutionError:
            rejected += 1
    assert rejected > 0


def test_table_names():
    assert sorted(DISGUISES) == ["iso", "matrix", "solution_set"]
    assert sorted(MINCOST_INNER) == ["matrix", "solution_set"]
    assert CLI_NAMES["gf2"] is DISGUISES["solution_set"]
    with pytest.raises(ValueError, match="unknown method"):
        lookup("gf2")
    with pytest.raises(ValueError, match="unknown method"):
        lookup("iso", MINCOST_INNER)
