"""Firewall policies: field mapping, bit encoding, equivalence checking."""

import collections
import hashlib
import random

import pytest

from helpers import random_policy
from satcloak.cnf import (
    CnfInstance,
    InvalidSolutionError,
    TseitinEncoder,
    emit_dimacs,
    evaluate_gates,
)
from satcloak.firewall import (
    DEFAULT_LAYOUT,
    FieldMappingSecret,
    FirewallPolicy,
    FirewallRule,
    HeaderLayout,
    decode_witness,
    emit_policy,
    encode_policy,
    equivalence_cnf,
    map_fields,
    match_predicate,
    parse_policy,
    policy_accepts,
    rule_matches,
    _disjoint,
    _mask_value,
    _values,
)
from satcloak.oracles import restricted_sat

SMALL = HeaderLayout(2, 2, 2, 2)
TINY = HeaderLayout(1, 1, 1, 1)
# 10 bits, each IP four 1-bit chunks: the smallest layout with multi-chunk IPs.
QUAD = HeaderLayout(4, 1, 4, 1)


def _headers(layout):
    return range(1 << layout.total_bits)


def _solution(h: int, layout) -> dict[int, bool]:
    """Header ``h`` as an assignment of the header-bit variables."""
    k = layout.total_bits
    return {v: bool((h >> (k - v)) & 1) for v in range(1, k + 1)}


def _gate_values(enc: TseitinEncoder, root, layout) -> list[bool]:
    """Value of ``root``, a literal of ``enc``'s gates or a constant, on
    every header of ``layout``, computed by evaluate_gates."""
    if isinstance(root, bool):
        return [root] * (1 << layout.total_bits)
    mapping = enc.mapping()
    values = []
    for h in _headers(layout):
        full = evaluate_gates(mapping, _solution(h, layout))
        values.append(full[abs(root)] == (root > 0))
    return values


def _cnf_disagrees(cnf: CnfInstance, layout) -> bool:
    """Decide the equivalence CNF by enumerating header-bit restrictions."""
    return any(restricted_sat(cnf, _solution(h, layout)) for h in _headers(layout))


# ---------------------------------------------------------------------------
# Data model and layout
# ---------------------------------------------------------------------------


def test_rule_and_policy_validation():
    with pytest.raises(ValueError, match="accept or deny"):
        FirewallRule(None, None, None, None, "drop")
    with pytest.raises(ValueError, match="accept or deny"):
        FirewallPolicy([], "allow")
    with pytest.raises(ValueError, match="at least 1 bit"):
        HeaderLayout(0, 1, 1, 1)


def test_layout_geometry():
    assert DEFAULT_LAYOUT.total_bits == 96
    assert DEFAULT_LAYOUT.ip_chunks(32) == [8, 8, 8, 8]
    assert SMALL.total_bits == 8
    # Width not divisible by four: one single chunk.
    assert HeaderLayout(5, 2, 5, 2).ip_chunks(5) == [5]
    assert [name for name, _ in DEFAULT_LAYOUT.fields()] == [
        "src_ip",
        "src_port",
        "dst_ip",
        "dst_port",
    ]
    # One slot per IP chunk and per port, at its header bit offset.
    assert QUAD.slots() == (
        ("src_ip", 0, 1), ("src_ip", 1, 1), ("src_ip", 2, 1), ("src_ip", 3, 1),
        ("src_port", 4, 1),
        ("dst_ip", 5, 1), ("dst_ip", 6, 1), ("dst_ip", 7, 1), ("dst_ip", 8, 1),
        ("dst_port", 9, 1),
    )
    assert HeaderLayout(5, 2, 5, 2).slots() == (
        ("src_ip", 0, 5), ("src_port", 5, 2), ("dst_ip", 7, 5), ("dst_port", 12, 2),
    )
    assert DEFAULT_LAYOUT.slots()[4:6] == (("src_port", 32, 16), ("dst_ip", 48, 8))


# ---------------------------------------------------------------------------
# Field mapping
# ---------------------------------------------------------------------------


def _example_secret():
    return FieldMappingSecret.from_swaps(
        octet_swaps=[
            [(10, 23), (152, 163), (100, 41)],
            [(11, 170), (14, 76), (15, 201)],
            [(12, 55), (15, 142), (10, 97)],
            [],
        ],
        port_swaps=[(100, 471), (99, 15717), (80, 2313)],
    )


def test_two_rule_mapping_example():
    policy = FirewallPolicy(
        [
            FirewallRule((10, 11, 12, None), 100, (10, 14, 15, None), 80, "accept"),
            FirewallRule((152, 15, 10, None), 99, (152, 15, None, None), 80, "accept"),
        ],
        "deny",
    )
    mapped, _ = map_fields(policy, secret=_example_secret())
    assert mapped.rules[0] == FirewallRule(
        (23, 170, 55, None), 471, (23, 76, 142, None), 2313, "accept"
    )
    assert mapped.rules[1] == FirewallRule(
        (163, 201, 97, None), 15717, (163, 201, None, None), 2313, "accept"
    )
    assert mapped.default_action == "deny"


def test_identity_mapping_changes_nothing():
    policy = FirewallPolicy(
        [FirewallRule((1, 2, 3, 4), 5, None, None, "deny")], "accept"
    )
    identity = FieldMappingSecret.from_swaps([[], [], [], []], [])
    mapped, _ = map_fields(policy, secret=identity)
    assert mapped == policy


def test_mapping_preserves_value_frequencies():
    # Relabeled values keep their multiplicities: the frequency profile of
    # each column is an invariant of the disguise.
    rng = random.Random(131)
    ports = [rng.choice([80, 443, 8080]) for _ in range(12)]
    rules = [
        FirewallRule(None, p, None, rng.choice([80, 53]), "accept") for p in ports
    ]
    policy = FirewallPolicy(rules, "deny")
    mapped, secret = map_fields(policy, seed=17)
    for pick in [lambda r: r.src_port, lambda r: r.dst_port]:
        orig = collections.Counter(pick(r) for r in policy.rules)
        new = collections.Counter(pick(r) for r in mapped.rules)
        assert sorted(orig.values()) == sorted(new.values())
        # And the mapping is consistent: one image per value.
        assert {pick(r) for r in mapped.rules} == {
            secret.port_map[v] for v in orig
        }


def test_mapping_requires_seed_or_secret():
    with pytest.raises(ValueError, match="seed or secret"):
        map_fields(FirewallPolicy([], "deny"))


def test_mapping_rejects_non_bijections_and_domain_misses():
    bad = FieldMappingSecret([[1, 1]], [0])
    with pytest.raises(ValueError, match="bijection"):
        bad.validate()
    # A secret over a smaller domain than the rule values.
    small = FieldMappingSecret([[0, 1]] * 4, [0, 1])
    policy = FirewallPolicy([FirewallRule(None, 9, None, None, "accept")], "deny")
    with pytest.raises(ValueError, match="outside mapping domain"):
        map_fields(policy, secret=small, layout=HeaderLayout(8, 4, 8, 4))
    # A list index would wrap a negative swap round to the end.
    with pytest.raises(ValueError, match=r"swap \(-1, 3\) outside 0..3"):
        FieldMappingSecret.from_swaps([[]], [(-1, 3)], SMALL)


def test_mapping_rejects_fields_wider_than_16_bits():
    # Checked before any table is built: a 33-bit IP is one chunk.
    with pytest.raises(ValueError, match="src_ip needs a 33-bit value map"):
        FieldMappingSecret.random(HeaderLayout(33, 16, 33, 16), 1)
    with pytest.raises(ValueError, match="src_port needs a 32-bit value map"):
        FieldMappingSecret.from_swaps([[]] * 4, [], HeaderLayout(8, 32, 8, 32))
    # 16 bits, the default port width, is the widest map.
    secret = FieldMappingSecret.random(HeaderLayout(4, 16, 4, 16), 1)
    assert len(secret.port_map) == 1 << 16


def test_random_mapping_same_secret_reusable():
    layout = SMALL
    p1 = random_policy(random.Random(1), layout, 4)
    m1, secret = map_fields(p1, seed=9, layout=layout)
    m2, _ = map_fields(p1, secret=secret, layout=layout)
    assert m1 == m2


def test_mapping_preserves_equivalence_verdict():
    # Chunk-consistent relabeling is a bijection of header space, so it
    # preserves (in)equivalence of wildcard-free-port policies.
    rng = random.Random(137)
    layout = SMALL
    for trial in range(12):
        p1 = random_policy(rng, layout, rng.randint(1, 3))
        p2 = random_policy(rng, layout, rng.randint(1, 3))
        secret = FieldMappingSecret.random(layout, rng.getrandbits(32))
        m1, _ = map_fields(p1, secret=secret, layout=layout)
        m2, _ = map_fields(p2, secret=secret, layout=layout)
        before = any(
            policy_accepts(p1, h, layout) != policy_accepts(p2, h, layout)
            for h in _headers(layout)
        )
        after = any(
            policy_accepts(m1, h, layout) != policy_accepts(m2, h, layout)
            for h in _headers(layout)
        )
        assert before == after


# ---------------------------------------------------------------------------
# Bit-level encoding
# ---------------------------------------------------------------------------


def test_match_predicate_port_bits():
    # src_port = 3 at 2-bit width: both port bits set (vars 3 and 4).
    rule = FirewallRule(None, 3, None, None, "accept")
    assert match_predicate(rule, SMALL) == (3, 4)
    # src_port = 2: high bit set, low bit clear.
    rule2 = FirewallRule(None, 2, None, None, "accept")
    assert match_predicate(rule2, SMALL) == (3, -4)


def test_match_predicate_wildcards_and_chunks():
    assert match_predicate(FirewallRule(None, None, None, None, "deny"), SMALL) == ()
    # 8-bit IPs chunk into four 2-bit pieces; a None chunk contributes nothing.
    layout = HeaderLayout(8, 2, 8, 2)
    rule = FirewallRule((1, None, None, None), None, None, None, "accept")
    assert match_predicate(rule, layout) == (-1, 2)


def test_match_predicate_agrees_with_rule_matches():
    # The rule's predicate gate (the forced-true gate for an all-wildcard
    # rule) against direct matching, on every header.
    rng = random.Random(139)
    for layout in (TINY, SMALL, QUAD):
        for _ in range(25):
            rule = random_policy(rng, layout, 1, wildcard_p=0.5).rules[0]
            enc = TseitinEncoder(layout.total_bits)
            root = enc.gate_n("and", match_predicate(rule, layout))
            assert _gate_values(enc, root, layout) == [
                rule_matches(rule, h, layout) for h in _headers(layout)
            ]


def test_match_predicate_range_check():
    with pytest.raises(ValueError, match="exceeds"):
        match_predicate(FirewallRule(None, 4, None, None, "accept"), SMALL)


def test_mask_value_bits_are_the_slot_values():
    # Each header bit of a slot is fixed in the mask iff the rule fixes the
    # slot, and then the value's bit is that bit of the slot's value (MSB
    # first); a wildcard slot leaves both bits 0.
    rng = random.Random(140)
    for layout in (TINY, SMALL, QUAD, DEFAULT_LAYOUT):
        total = layout.total_bits
        for rule in random_policy(rng, layout, 40, wildcard_p=0.4).rules:
            mask, value = _mask_value(rule, layout)
            assert 0 <= value <= mask < (1 << total)
            for (_, offset, width), v in zip(layout.slots(), _values(rule, layout)):
                for b in range(width):
                    shift = total - 1 - (offset + b)
                    assert (mask >> shift) & 1 == (v is not None)
                    want = 0 if v is None else (v >> (width - 1 - b)) & 1
                    assert (value >> shift) & 1 == want


def test_disjoint_exactly_when_no_header_matches_both():
    # encode_policy drops the guard of an earlier rule that _disjoint says
    # cannot overlap; that is sound only if _disjoint is exact.
    rng = random.Random(141)
    for layout in (SMALL, QUAD):
        for _ in range(40):
            r1, r2 = random_policy(rng, layout, 2, wildcard_p=0.5).rules
            both = any(
                rule_matches(r1, h, layout) and rule_matches(r2, h, layout)
                for h in _headers(layout)
            )
            pair1, pair2 = _mask_value(r1, layout), _mask_value(r2, layout)
            assert _disjoint(pair1, pair2) == (not both)


def test_encode_policy_trivials():
    # Constant policies are decided without making a gate.
    enc = TseitinEncoder(SMALL.total_bits)
    assert encode_policy(enc, FirewallPolicy([], "deny"), SMALL) is False
    assert encode_policy(enc, FirewallPolicy([], "accept"), SMALL) is True
    accept_all = FirewallPolicy(
        [FirewallRule(None, None, None, None, "accept")], "deny"
    )
    assert encode_policy(enc, accept_all, SMALL) is True
    assert enc.num_vars == SMALL.total_bits and enc.clauses == []


def test_encode_policy_matches_simulation():
    rng = random.Random(149)
    for layout in (TINY, SMALL, QUAD):
        for _ in range(20):
            policy = random_policy(rng, layout, rng.randint(0, 4))
            accepts = [policy_accepts(policy, h, layout) for h in _headers(layout)]
            enc = TseitinEncoder(layout.total_bits)
            root = encode_policy(enc, policy, layout)
            assert _gate_values(enc, root, layout) == accepts


def test_rules_after_a_catch_all_are_checked_but_not_encoded():
    # Rules after the first catch-all are never a first match: the policy
    # writes the bytes of itself cut there, with the catch-all's action as
    # default.  Both spellings of a catch-all count.
    def text(p1, p2, layout):
        return emit_dimacs(equivalence_cnf(p1, p2, layout))

    rng = random.Random(151)
    for layout in (SMALL, QUAD, DEFAULT_LAYOUT):
        quarters = (None,) * len(layout.ip_chunks(layout.src_ip_bits))
        for _ in range(12):
            head = random_policy(rng, layout, rng.randint(0, 4), wildcard_p=0.2)
            tail = random_policy(rng, layout, rng.randint(1, 4))
            ip = rng.choice([None, quarters])
            action = rng.choice(["accept", "deny"])
            catch_all = FirewallRule(ip, None, ip, None, action)
            full = FirewallPolicy(
                head.rules + [catch_all] + tail.rules, tail.default_action
            )
            cut = FirewallPolicy(head.rules, action)
            other = random_policy(rng, layout, rng.randint(0, 4))
            assert text(full, other, layout) == text(cut, other, layout)
            assert text(other, full, layout) == text(other, cut, layout)
    # A rule after the catch-all that does not fit the layout is refused,
    # as policy_accepts refuses it.
    wide = FirewallRule(None, 9, None, None, "accept")
    for catch_all in (FirewallRule(None, None, None, None, "accept"),
                      FirewallRule((None,), None, (None,), None, "deny")):
        policy = FirewallPolicy([catch_all, wide], "deny")
        with pytest.raises(ValueError, match="src_port value 9 exceeds 2 bits"):
            encode_policy(TseitinEncoder(SMALL.total_bits), policy, SMALL)
        with pytest.raises(ValueError, match="src_port value 9 exceeds 2 bits"):
            policy_accepts(policy, 0, SMALL)


def test_policy_accepts_range_check():
    with pytest.raises(ValueError, match="exceeds layout"):
        policy_accepts(FirewallPolicy([], "deny"), 1 << 8, SMALL)
    # A rule outside the layout is refused as match_predicate refuses it,
    # also behind a rule that matches every header.
    wide = FirewallRule(None, 9, None, None, "accept")
    for rules in ([wide], [FirewallRule(None, None, None, None, "deny"), wide]):
        with pytest.raises(ValueError, match="src_port value 9 exceeds 2 bits"):
            policy_accepts(FirewallPolicy(rules, "deny"), 0, SMALL)


# ---------------------------------------------------------------------------
# Equivalence checking
# ---------------------------------------------------------------------------


def test_identical_policies_are_equivalent():
    policy = random_policy(random.Random(7), SMALL, 3)
    cnf = equivalence_cnf(policy, policy, SMALL)
    assert not _cnf_disagrees(cnf, SMALL)


def test_disagreement_found_and_decoded():
    # Policies differing on exactly one header (all four fields concrete;
    # 2-bit IP fields are single-chunk).
    target = FirewallRule((1,), 2, (0,), 3, "accept")
    p1 = FirewallPolicy([target], "deny")
    p2 = FirewallPolicy([], "deny")
    cnf = equivalence_cnf(p1, p2, SMALL)
    assert _cnf_disagrees(cnf, SMALL)
    # Solve by restriction, then decode the witness fields.
    hits = 0
    for h in _headers(SMALL):
        partial = _solution(h, SMALL)
        if restricted_sat(cnf, partial):
            hits += 1
            witness = decode_witness(partial, SMALL, p1, p2)
            assert witness["header"] == h
            assert witness["src_ip"] == (1,)
            assert witness["src_port"] == 2
            assert witness["dst_ip"] == (0,)
            assert witness["dst_port"] == 3
    assert hits == 1


def test_swapped_independent_rules_stay_equivalent():
    # Two disjoint concrete rules commute: first-match order cannot matter.
    r1 = FirewallRule((0,), None, None, None, "accept")
    r2 = FirewallRule((2,), None, None, None, "deny")
    p1 = FirewallPolicy([r1, r2], "deny")
    p2 = FirewallPolicy([r2, r1], "deny")
    cnf = equivalence_cnf(p1, p2, SMALL)
    assert not _cnf_disagrees(cnf, SMALL)


def test_overlapping_rule_swap_is_detected():
    # Overlapping accept/deny rules do NOT commute: headers matching both
    # flip classification when the order flips.
    r1 = FirewallRule((0,), None, None, None, "accept")
    r2 = FirewallRule(None, 1, None, None, "deny")
    p1 = FirewallPolicy([r1, r2], "deny")
    p2 = FirewallPolicy([r2, r1], "deny")
    cnf = equivalence_cnf(p1, p2, SMALL)
    assert _cnf_disagrees(cnf, SMALL)


def test_decode_witness_rejects_tampering():
    p1 = FirewallPolicy([FirewallRule(None, 1, None, None, "accept")], "deny")
    p2 = FirewallPolicy([], "deny")
    # Header 0 does not separate the policies (both deny).
    same = {v: False for v in range(1, 9)}
    with pytest.raises(InvalidSolutionError, match="does not distinguish"):
        decode_witness(same, SMALL, p1, p2)
    with pytest.raises(ValueError, match="missing header bit"):
        decode_witness({1: True}, SMALL)
    # One policy alone cannot be replayed; it is not silently skipped.
    for one in ({"p1": p1}, {"p2": p1}):
        with pytest.raises(ValueError, match="give both policies or neither"):
            decode_witness(same, SMALL, **one)


# (policy-pair seed, pruned) -> sha256 of the DIMACS text of
# equivalence_cnf, as written when the formula encoder also built the cost
# circuit.  Clause and gate order are part of the pinned bytes.  ``pruned``
# is True: these digests were pinned for the encoding with guards on
# disjoint rules dropped, which is now the only one.  "batch" is the digest
# of _folding_batch_text, written by that encoding before the unpruned one
# was removed.
PINNED_EQUIVALENCE = {
    (31, True): "69b73607b96ce87f1b497fa4d8a494991620e6405260383ae1296a8b9a12adad",
    (32, True): "d33bbe4071861357180026f5796c51207cb906bbf324de547d371a736b42d558",
    "batch": "4bd2b6cbcc59a156ec239e159410ad40a2906745e3fc98d43c6e1e8c14cabbc0",
}


@pytest.mark.parametrize(
    "seed,pruned", sorted(k for k in PINNED_EQUIVALENCE if k != "batch")
)
def test_equivalence_cnf_bytes_pinned(seed, pruned):
    rng = random.Random(seed)
    p1 = random_policy(rng, DEFAULT_LAYOUT, 6)
    p2 = random_policy(rng, DEFAULT_LAYOUT, 6)
    text = emit_dimacs(equivalence_cnf(p1, p2))
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    assert digest == PINNED_EQUIVALENCE[seed, pruned]


def _folding_batch_text() -> str:
    """Concatenated DIMACS text of the equivalence CNFs the 96-bit pins
    miss: policies that fold to a constant (empty ones, all-wildcard
    rules), identical pairs and near-wildcard policies, on the TINY, SMALL
    and 8,2,8,2 layouts."""
    rng = random.Random(41)
    accept_all = FirewallRule(None, None, None, None, "accept")
    deny_all = FirewallRule(None, None, None, None, "deny")
    texts = []
    for layout in (TINY, SMALL, HeaderLayout(8, 2, 8, 2)):
        fixed = [FirewallPolicy([], "deny"), FirewallPolicy([], "accept")]
        fixed += [
            FirewallPolicy([rule, *random_policy(rng, layout, 2).rules], default)
            for rule in (accept_all, deny_all)
            for default in ("deny", "accept")
        ]
        pairs = [(a, b) for a in fixed for b in fixed]
        for wildcard_p in (0.35, 0.7, 0.95):
            for num_rules in range(6):
                p1 = random_policy(rng, layout, num_rules, wildcard_p)
                p2 = random_policy(rng, layout, rng.randint(0, 5), wildcard_p)
                pairs += [(p1, p2), (p1, p1), (p2, p1), (p1, rng.choice(fixed))]
        for a, b in pairs:
            texts.append(emit_dimacs(equivalence_cnf(a, b, layout)))
    return "".join(texts)


def test_equivalence_cnf_folding_batch_pinned():
    text = _folding_batch_text()
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    assert digest == PINNED_EQUIVALENCE["batch"]


def test_equivalence_cnf_size_of_two_1000_rule_policies():
    # Guards on disjoint rules are dropped: the unpruned chain wrote 3,108
    # variables and 677,118 clauses for this pair.
    rng = random.Random(1000)
    p1 = random_policy(rng, DEFAULT_LAYOUT, 1000, 0.1)
    p2 = random_policy(rng, DEFAULT_LAYOUT, 1000, 0.1)
    cnf = equivalence_cnf(p1, p2)
    assert (cnf.num_vars, cnf.num_clauses) == (1390, 90189)


def test_decode_witness_without_policies_just_slices():
    sol = {v: v in {1, 4, 8} for v in range(1, 9)}
    fields = decode_witness(sol, SMALL)
    assert fields["header"] == 0b10010001
    assert fields["src_ip"] == (2,)
    assert fields["src_port"] == 1
    assert fields["dst_ip"] == (0,)
    assert fields["dst_port"] == 1


def test_decode_witness_slices_are_the_matched_rule_values():
    # On every header a rule matches, each concrete field or chunk of the
    # rule reads back from the decoded witness.
    rng = random.Random(157)
    for layout in (SMALL, QUAD):
        for rule in random_policy(rng, layout, 12, wildcard_p=0.5).rules:
            for h in _headers(layout):
                if not rule_matches(rule, h, layout):
                    continue
                fields = decode_witness(_solution(h, layout), layout)
                assert fields["header"] == h
                for name in ("src_port", "dst_port"):
                    if getattr(rule, name) is not None:
                        assert fields[name] == getattr(rule, name)
                for name in ("src_ip", "dst_ip"):
                    value = getattr(rule, name)
                    assert len(fields[name]) == len(layout.ip_chunks(layout.src_ip_bits))
                    if value is not None:
                        for got, want in zip(fields[name], value):
                            assert want is None or got == want


# ---------------------------------------------------------------------------
# Policy file format
# ---------------------------------------------------------------------------


def test_policy_file_round_trip():
    text = (
        "# edge firewall\n"
        "10.11.12.* 100 10.14.15.* 80 accept\n"
        "* * 152.15.*.* * deny\n"
        "default accept\n"
    )
    policy = parse_policy(text)
    assert policy.rules[0].src_ip == (10, 11, 12, None)
    assert policy.rules[0].dst_port == 80
    assert policy.rules[1].src_ip is None
    assert policy.rules[1].dst_ip == (152, 15, None, None)
    assert policy.default_action == "accept"
    assert parse_policy(emit_policy(policy)) == policy


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("1.2.3.4 1 5.6.7.8 2 accept\n", "missing 'default"),
        ("default accept\ndefault deny\n", "duplicate default"),
        ("default maybe\n", "bad default"),
        ("1.2.3.4 1 5.6.7.8 2\ndefault deny\n", "expected 5 fields"),
        ("1.2.3.4 1 5.6.7.8 2 drop\ndefault deny\n", "unknown action"),
        ("1.2.x.4 1 5.6.7.8 2 accept\ndefault deny\n", "bad IP chunk"),
        ("1.2.3.4 -1 5.6.7.8 2 accept\ndefault deny\n", "negative port"),
        # int() would read these as 80, 2 and 1.
        ("1.2.3.4 8_0 5.6.7.8 2 accept\ndefault deny\n", "bad port"),
        ("1.+2.3.4 1 5.6.7.8 2 accept\ndefault deny\n", "bad IP chunk"),
        ("1.2.3.4 1 5.6.7.8 \uff11 accept\ndefault deny\n", "bad port"),
    ],
)
def test_policy_file_rejects_malformed(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_policy(text)
