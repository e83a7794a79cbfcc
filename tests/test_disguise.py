"""Every disguise entry, and Mincost around each inner one, on one tiny
instance: pinned artifact and key bytes, forward then derandomize, single
bit flips, secret serialization, and no cyclic garbage left by the
builders."""

import gc
import hashlib
import json
from typing import get_type_hints

import pytest

from satcloak.cnf import (
    CnfInstance,
    InvalidSolutionError,
    emit_dimacs,
    evaluate_gates,
    parse_dimacs,
    to_three_cnf,
)
from satcloak.disguise import CLI_NAMES, DISGUISES, MINCOST_INNER, lookup
from satcloak.isomorph import iso_randomize
from satcloak.matrixrand import encode_linear, randomize_system
from satcloak.objective import (
    MINCOST,
    MincostInstance,
    compile_cost_circuit,
    derandomize_mincost,
    evaluate_circuit,
    randomize_mincost,
)
from satcloak.oracles import brute_sat
from satcloak.orchestrator import (
    check_solution,
    make_record,
    record_from_json,
    record_to_json,
)
from satcloak.solsetrand import gf_randomize

# Unique model: x1 true, x2 false, x3 true.  Clause widths 1, 1, 3 and 2
# exercise the 3CNF padding.
TINY = parse_dimacs("p cnf 3 4\n1 0\n-2 0\n1 2 3 0\n3 -1 0\n")
MODEL = {1: True, 2: False, 3: True}
COSTS = {1: 2, 2: 1, 3: 3}
SEED = 7

# (case, entry name, mincost?, row_weight) -> sha256 of the artifact text,
# as written by the code before the disguise table, and of the key JSON,
# as written since keys hold only what derandomizing reads.  The two
# Mincost cases are as written since the cost circuit is built from shared
# two-input gates, which numbers its gates in adder order.  The three gf2
# artifacts are as written since each XOR chain link is an encoder ``xor``
# gate, whose four clauses come in another order than before (SORTED_SHA
# shows the clauses themselves did not change).  The gf2-w3 artifact and
# key are as written since the sparse substitution is a permuted unit
# lower-triangular matrix, drawn without rejection.  The matrix, gf2 and
# mincost-gf2 artifacts, and the gf2 and mincost-gf2 keys, are as written
# since the dense matrix is drawn one row at a time outside the span of
# the rows before it, and the dense gf2 draw is of R^-1 itself.  Every key
# is as written since no secret keeps a seed (the record's top-level one is
# the only copy) and the Mincost circuit keeps no width beside its bits.
# The matrix and Mincost keys are as written since a matrix key keeps its
# constraint count instead of a negation count per constraint, and a
# Mincost key keeps neither the 3CNF map nor a type tag on its inner secret.
PINNED = {
    ("iso", "iso", False, None): (
        "7f231856aad783e4309a276aec8bed892684f7330aad746f50d97a1bce14877c",
        "cc4cadddea6a43a321ec5b84d04ad0383563acdfd5d49b5732aa7c370f741b65",
    ),
    ("matrix", "matrix", False, None): (
        "f161e1e59b1ae69d40bdf567107e484366c98aa54f3cda395adb7e399217627b",
        "882211f8d0f19914dbcdb6b5c329138eaf96ea9775ce075095b348635e79833e",
    ),
    ("gf2", "solution_set", False, None): (
        "9f7034022961d7588e3e0a3515dad5a6c3774cfe3c8938cf25a189f092ad8ae2",
        "b41c77b0034649693f141dd84fedd99a227ca99c257a9e1c3f4e99fa2898e674",
    ),
    ("gf2-w3", "solution_set", False, 3): (
        "94d72da94bb499c37a0cdf1cff104f242afae8c5d02dad4b046691e5e5a36051",
        "be3287385e271d758eef62bd83fe34b4f7990337ad74a2b4eed0161efb4302ee",
    ),
    ("mincost-matrix", "matrix", True, None): (
        "d909aae5b3b8df4dcd980c13dab23d7c7a28b4fa27cb237d8abb952cc711be1e",
        "8f6efa68206427c7278958a1ba9e3e5073af538eb12f82d479d69b292736c81a",
    ),
    ("mincost-gf2", "solution_set", True, None): (
        "005372656770cec4a7ad3dda3c3ebf7d12ca290623c7389f0abf8e30f9d7b697",
        "422cc5209caa0b5b44509cfb4b89d1461f621f3a47c0fd7539d1546043dc908e",
    ),
}

# sha256 of the sorted-clause form (literals sorted in each clause, then
# the clauses sorted, as DIMACS) of each gf2 artifact; gf2-w3's as written
# since the sparse substitution is drawn triangular, the other two since
# the dense one is drawn row by row outside the span.
SORTED_SHA = {
    "gf2": "43f336aa2412e415f9cc4bec6ca881948ca7f1594a337b95baa7424f718f691f",
    "gf2-w3": "02cca2e09bc1512686c6757b62c4804349570fc0ea6573f482429e004a44bfb1",
    "mincost-gf2": "9e0fd75387ef0f31a547ac5139b6361155bdbaf964768d7fd12fbe9e59f69a49",
}

# Three TINY keys as written before keys were cut to what derandomizing
# reads: with R in the matrix and gf2 secrets and the circuit's beta and
# adder_dummy_map.  OLD_KEY_SHA holds the key digests pinned then.  Compact
# JSON here; re-indented as key files are, they are those bytes again.
OLD_KEY_SHA = {
    "matrix": "e83f44602a693007bdf9f47702063b7f1d5c3c6ac511e4cb2780b99578329be4",
    "gf2-w3": "bf6c9f18796ffc016e858c34b8064ede0b7e37761619a2c8c5d6b84f97e44b6f",
    "mincost-gf2": "e058d63402c36e048c8641b5bea9c78004f8f63485051dbfffa81a244773bac7",
}
OLD_KEYS = {
    "matrix": (
        '{"method":"matrix","secret":{"type":"matrix","r":{"rows":11,"cols":11,'
        '"bits":["10010101001","01101110000","11100010111","11110000001","11101'
        '101100","00110010000","00001101000","00011110110","00011010110","11110'
        '001000","00110111100"]},"original_n":8,"dummy_offset":8,"negation_cons'
        'tants":[0,1,1,2,1,2,2,3,0,1,2],"seed":7},"instance_digest":"2fc4c70a50'
        '676473061e880184dcf005b2df6434645fa1c0c5278049e122fa60","seed":7}'
    ),
    "gf2-w3": (
        '{"method":"solution_set","secret":{"type":"gf2","r":{"rows":8,"cols":8'
        ',"bits":["00001000","00000010","00100000","00000100","10011000","10000'
        '001","10001000","01001100"]},"r_inv":{"rows":8,"cols":8,"bits":["10000'
        '010","10010001","00100000","00001010","10000000","00010000","01000000"'
        ',"10000110"]},"original_n":8,"seed":7},"instance_digest":"2fc4c70a5067'
        '6473061e880184dcf005b2df6434645fa1c0c5278049e122fa60","seed":7}'
    ),
    "mincost-gf2": (
        '{"method":"mincost","secret":{"type":"mincost","method":"solution_set"'
        ',"circuit":{"output_bits":[4,9,10,11],"width":4,"beta":2,"adder_dummy_'
        'map":[5,6,7,8],"tmap":{"num_input_vars":3,"num_vars":11,"gates":[[4,"o'
        'r",[]],[5,"and",[1,3]],[6,"and",[2,3]],[7,"xor",[1,3]],[8,"and",[6,7]]'
        ',[9,"or",[5,8]],[10,"xor",[7,6]],[11,"xor",[2,3]]]}},"three_map":{"ori'
        'ginal_num_vars":11,"num_vars":26,"definitions":[[12,"false",[]],[13,"f'
        'alse",[]],[14,"false",[]],[15,"false",[]],[16,"false",[]],[17,"false",'
        '[]],[18,"false",[]],[19,"false",[]],[20,"false",[]],[21,"false",[]],[2'
        '2,"false",[]],[23,"false",[]],[24,"false",[]],[25,"false",[]],[26,"fal'
        'se",[]]]},"inner":{"type":"gf2","r":{"rows":26,"cols":26,"bits":["1010'
        '1110000001110011101000","11001101000000100010110001","0100010100001101'
        '0100110110","00010000000000000000000000","11100111000000010011110000",'
        '"10100010000011010111001011","00100011000000001100001001","11101101000'
        '000110111111000","00000000100000000000000000","00000000010000000000000'
        '000","00000000001000000000000000","00100000000011000101001111","001010'
        '00000110010010011100","00101010000000111010000101","101011010001111001'
        '00000101","01000101000111110010101001","11000001000011100101001111","0'
        '0101000000110101111110000","10000001000011110111001001","0100000000011'
        '0011110101001","01100110000011000110100110","0000111100000011010011000'
        '0","01100111000101011110011111","00100110000001100100011100","10100110'
        '000011011111010000","10100011000000000101110001"]},"r_inv":{"rows":26,'
        '"cols":26,"bits":["00100111000101100111001110","1110110000010101100011'
        '1001","01000110000000010101001100","00010000000000000000000000","10100'
        '111000111000111001111","00001000000010011000110100","01100111000111111'
        '111101011","00101000000000100111001110","00000000100000000000000000","'
        '00000000010000000000000000","00000000001000000000000000","001011010001'
        '11000100001110","01001011000110101100111010","100011010001000111110111'
        '11","10100101000100000101110101","11101000000101100101111000","0000110'
        '1000101100010111110","00000101000111010110101110","0110101100001110000'
        '1011100","11101001000111011111100011","00000010000101111000000000","10'
        '101010000001001001101101","01101001000011101011111111","11000111000000'
        '011100000001","10101000000011001010011100","01101010000110010010000110'
        '"]},"original_n":26,"seed":7},"seed":7},"instance_digest":"2fc4c70a506'
        '76473061e880184dcf005b2df6434645fa1c0c5278049e122fa60","seed":7}'
    ),
}


# A Mincost key for WIDE written while each 3CNF split variable was the or
# of its whole clause suffix (``[26, "or", [3, -4, 5, 6]]`` in three_map);
# now it is the or of one literal and the next split variable.  Checking
# an answer never reads three_map, so the old key still checks answers.
WIDE = parse_dimacs("p cnf 6 2\n1 -2 3 -4 5 6 0\n-1 2 0\n")
WIDE_COSTS = {1: 1, 2: 2, 3: 1, 4: 1, 5: 2, 6: 1}
OLD_WIDE_KEY_SHA = "46ca2c1b5ef88373942de8170591c995761b569b34f45e228d54614fefe2198b"
OLD_WIDE_KEY = (
    '{"method":"mincost","secret":{"type":"mincost","method":"matrix","circui'
    't":{"output_bits":[25,24,23,19,16],"width":5,"tmap":{"num_input_vars":6,'
    '"num_vars":25,"gates":[[7,"xor",[3,4]],[8,"and",[3,4]],[9,"xor",[1,7]],['
    '10,"and",[1,7]],[11,"xor",[2,8]],[12,"xor",[11,10]],[13,"and",[2,8]],[14'
    ',"and",[10,11]],[15,"or",[13,14]],[16,"xor",[9,6]],[17,"and",[9,6]],[18,'
    '"xor",[12,5]],[19,"xor",[18,17]],[20,"and",[12,5]],[21,"and",[17,18]],[2'
    '2,"or",[20,21]],[23,"xor",[15,22]],[24,"and",[22,15]],[25,"or",[]]]}},"t'
    'hree_map":{"original_num_vars":25,"num_vars":51,"definitions":[[26,"or",'
    '[3,-4,5,6]],[27,"or",[-4,5,6]],[28,"or",[5,6]],[29,"false",[]],[30,"fals'
    'e",[]],[31,"false",[]],[32,"false",[]],[33,"false",[]],[34,"false",[]],['
    '35,"false",[]],[36,"false",[]],[37,"false",[]],[38,"false",[]],[39,"fals'
    'e",[]],[40,"false",[]],[41,"false",[]],[42,"false",[]],[43,"false",[]],['
    '44,"false",[]],[45,"false",[]],[46,"false",[]],[47,"false",[]],[48,"fals'
    'e",[]],[49,"false",[]],[50,"false",[]],[51,"false",[]]]},"inner":{"type"'
    ':"matrix","original_n":51,"negation_constants":[1,1,2,1,1,2,1,3,1,1,1,2,'
    '1,2,2,1,3,1,1,1,2,1,2,2,1,3,1,1,1,3,1,1,1,2,1,2,2,1,2,1,2,2,1,2,1,2,1,1,'
    '3,1,1,1,2,1,2,2,1,3,1,1,1,3,1,1,1,2,1,2,2,1,2,1,2,2,1,2,1,2,1,1,3,1,1,1,'
    '2,1,2,2,1,2,2,3],"seed":7},"seed":7},"instance_digest":"c91360309609fdd0'
    '5a28435d88cb2f9fbb05d6f8f9b56a82782097043b159f65","seed":7}'
)


# The honest answer _disguise built for the mincost-gf2 case when OLD_KEYS
# were written.  The cost circuit has been renumbered since, so the old key
# no longer equals the new one; it must still accept this answer.
OLD_MINCOST_GF2_VECTOR = [int(b) for b in (
    "10000011101100101010111100111100110001100010111011110001111001011011"
    "11100111001100001001110111101101000010011011111110000000100101000001"
    "01111010011101100010011110100010110011011000001001101100111101000010"
    "01100111011100111010010000111110101110010010111111100010001"
)]


# The honest answer _disguise built for the gf2-w3 case while the sparse
# substitution was drawn by rank rejection, which is what the old key holds.
# A fresh draw no longer equals it; the old key must still accept this.
OLD_GF2_W3_VECTOR = [int(b) for b in (
    "00101110010001100100011010010000000000000000000000001000000000110000"
    "000011000010000000001"
)]


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
    x3 = evaluate_gates(secret.three_map, full)
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

    assert record_from_json(key) == record
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


@pytest.mark.parametrize("case", [c for c in sorted(PINNED) if c[0] in SORTED_SHA],
                         ids=lambda c: c[0])
def test_gf2_artifact_clause_sets(case):
    art = parse_dimacs(_disguise(*case[1:])[0])
    clauses = sorted(sorted(c) for c in art.clauses)
    assert _sha(emit_dimacs(CnfInstance(art.num_vars, clauses))) == SORTED_SHA[case[0]]


@pytest.mark.parametrize("case", [c for c in sorted(PINNED) if c[0] in OLD_KEYS],
                         ids=lambda c: c[0])
def test_old_keys_still_load(case):
    old_key = json.dumps(json.loads(OLD_KEYS[case[0]]), indent=1) + "\n"
    assert _sha(old_key) == OLD_KEY_SHA[case[0]]
    _, record, vector, costs, expected = _disguise(*case[1:])
    old = record_from_json(old_key)
    new = record_from_json(record_to_json(record))
    if case[0] == "matrix":
        assert old == new
    assert check_solution(new, vector, TINY, costs) == expected
    old_vector = {
        "gf2-w3": OLD_GF2_W3_VECTOR,
        "mincost-gf2": OLD_MINCOST_GF2_VECTOR,
    }.get(case[0], vector)
    assert check_solution(old, old_vector, TINY, costs) == expected


@pytest.mark.parametrize("case", sorted(PINNED), ids=lambda c: c[0])
def test_key_holds_the_seed_once_and_no_width(case):
    # Key values are numbers, lists and objects, so a quoted name is a key.
    _, name, mincost, _ = case
    key = record_to_json(_disguise(*case[1:])[1])
    assert json.loads(key)["seed"] == SEED
    assert (key.count('"seed"'), key.count('"width"')) == (1, 0)
    # The secret holds its type tag and exactly the fields its reader reads:
    # a disguise reads its secret class's fields, and Mincost the circuit
    # and the inner secret, which its method's disguise reads untagged.
    secret = json.loads(key)["secret"]
    read = set(get_type_hints(DISGUISES[name].secret_type))
    if mincost:
        assert set(secret["inner"]) == read
        read = {"method", "circuit", "inner"}
    assert set(secret) == {"type", *read}
    assert (key.count('"three_map"'), key.count('"negation_constants"')) == (0, 0)


def test_old_wide_clause_mincost_key_still_loads():
    old_key = json.dumps(json.loads(OLD_WIDE_KEY), indent=1) + "\n"
    assert _sha(old_key) == OLD_WIDE_KEY_SHA
    inst = MincostInstance(WIDE, WIDE_COSTS)
    _, secret = randomize_mincost(inst, SEED, method="matrix")
    new_key = record_to_json(make_record(MINCOST.name, secret, WIDE, SEED))
    assert len(new_key) < len(old_key)
    model = brute_sat(WIDE).assignment
    three, _ = to_three_cnf(compile_cost_circuit(inst)[0])
    x3 = evaluate_gates(secret.three_map, evaluate_circuit(secret.circuit, model))
    vector = DISGUISES["matrix"].forward(x3, secret.inner, three)
    expected = (model, inst.cost_of(model))
    for key in (old_key, new_key):
        record = record_from_json(key)
        assert check_solution(record, vector, WIDE, WIDE_COSTS) == expected
        for bit in record.secret.circuit.output_bits:
            flipped = list(vector)
            flipped[bit - 1] ^= 1
            with pytest.raises(InvalidSolutionError):
                check_solution(record, flipped, WIDE, WIDE_COSTS)


def test_table_names():
    assert sorted(DISGUISES) == ["iso", "matrix", "solution_set"]
    assert sorted(MINCOST_INNER) == ["matrix", "solution_set"]
    assert CLI_NAMES["gf2"] is DISGUISES["solution_set"]
    with pytest.raises(ValueError, match="unknown method"):
        lookup("gf2")
    with pytest.raises(ValueError, match="unknown method"):
        lookup("iso", MINCOST_INNER)


TINY_TEXT = emit_dimacs(TINY)


def _no_cycles(func, *args, **kwargs):
    """``func(*args, **kwargs)``, asserting it left no cyclic garbage."""
    gc.collect()
    result = func(*args, **kwargs)
    assert gc.collect() == 0, func.__name__
    return result


@pytest.mark.parametrize("case", sorted(PINNED), ids=lambda c: c[0])
def test_builders_leave_no_cyclic_garbage(case):
    _, name, mincost, row_weight = case
    _, record, vector, costs, expected = _disguise(name, mincost, row_weight)
    _no_cycles(parse_dimacs, TINY_TEXT)
    three, _ = _no_cycles(to_three_cnf, TINY)
    if mincost:
        inst = MincostInstance(TINY, costs)
        _, secret = _no_cycles(
            randomize_mincost, inst, SEED, method=name, row_weight=row_weight
        )
        assert _no_cycles(derandomize_mincost, vector, secret, inst) == expected
    elif name == "iso":
        _no_cycles(iso_randomize, TINY, SEED)
    elif name == "matrix":
        _no_cycles(randomize_system, _no_cycles(encode_linear, three), SEED)
    else:
        _no_cycles(gf_randomize, three, SEED, row_weight)
    key = record_to_json(record)
    assert _no_cycles(record_from_json, key) == record
    assert _no_cycles(check_solution, record, vector, TINY, costs) == expected
