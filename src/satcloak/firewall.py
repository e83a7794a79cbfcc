"""Firewall policies as Tseitin gates, and their randomization.

A policy is an ordered rule list with first-match semantics over a packet
header of ``k`` bits (source IP, source port, destination IP, destination
port, in that bit order).  Each rule's predicate is an ``and`` gate over
the bits of its concrete fields; the whole policy is the ``or`` gate of
the first-match chain

    accepts(h)  =  OR_i [ M_i(h) AND NOT M_1(h) ... NOT M_{i-1}(h) ]

over its accept rules (plus a catch-all term for an accept default),
without the guards ``NOT M_j`` of rules that cannot overlap rule ``i``
and ending at the first catch-all rule.  Two policies are equivalent iff
the ``xor`` gate of their two roots is unsatisfiable; the gate clauses
with that root asserted are the checkable artifact, and any satisfying
assignment decodes to a concrete witness packet the policies disagree on.

Before outsourcing, field values are disguised by per-position bijections:
one map per IP chunk position (shared between source and destination
addresses) plus one port map (shared between source and destination
ports).  Wildcards stay wildcards and rule order is untouched, so the
mapped policy is the original up to a relabeling of header space — which
also means value frequencies survive (a port that appears often still
appears often under its new name; this leak is inherent to the scheme).

IP fields whose width is a multiple of four are modeled as four dotted
chunks (octets at the default 32 bits); narrower test layouts use a
single chunk.  A rule is read through one table, ``HeaderLayout.slots()``,
into one ternary ``(mask, value)`` pair over the packed header, which
matching, the overlap test and the predicates read.  A value map is a
permutation list indexed by the original value, as in a fw-map key file.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass

from .cnf import CnfInstance, InvalidSolutionError, TseitinEncoder

__all__ = [
    "FirewallRule",
    "FirewallPolicy",
    "HeaderLayout",
    "FieldMappingSecret",
    "DEFAULT_LAYOUT",
    "map_fields",
    "match_predicate",
    "encode_policy",
    "policy_accepts",
    "rule_matches",
    "equivalence_cnf",
    "decode_witness",
    "parse_policy",
    "emit_policy",
]

_ACTIONS = ("accept", "deny")


@dataclass(frozen=True)
class FirewallRule:
    """One filtering rule; field order matches the on-disk and on-wire
    order (source IP, source port, destination IP, destination port).

    Wildcards are ``None``: a ``None`` chunk inside an IP tuple wildcards
    that chunk, a ``None`` field wildcards the whole field."""

    src_ip: tuple[int | None, ...] | None
    src_port: int | None
    dst_ip: tuple[int | None, ...] | None
    dst_port: int | None
    action: str

    def __post_init__(self):
        if self.action not in _ACTIONS:
            raise ValueError(f"action must be accept or deny, not {self.action!r}")


@dataclass
class FirewallPolicy:
    """Ordered rules plus an explicit default action; the first matching
    rule decides, the default decides when none match."""

    rules: list[FirewallRule]
    default_action: str

    def __post_init__(self):
        if self.default_action not in _ACTIONS:
            raise ValueError(
                f"default action must be accept or deny, not {self.default_action!r}"
            )


@dataclass(frozen=True)
class HeaderLayout:
    """Bit widths of the four header fields (default 32+16+32+16 = 96)."""

    src_ip_bits: int = 32
    src_port_bits: int = 16
    dst_ip_bits: int = 32
    dst_port_bits: int = 16

    def __post_init__(self):
        slots, offset = [], 0
        for name, bits in self.fields():
            if bits < 1:
                raise ValueError(f"{name} must be at least 1 bit")
            for width in self.ip_chunks(bits) if name.endswith("_ip") else [bits]:
                slots.append((name, offset, width))
                offset += width
        # Not a dataclass field: equality, hashing and repr see the widths.
        object.__setattr__(self, "_slots", tuple(slots))

    def fields(self) -> list[tuple[str, int]]:
        return [
            ("src_ip", self.src_ip_bits),
            ("src_port", self.src_port_bits),
            ("dst_ip", self.dst_ip_bits),
            ("dst_port", self.dst_port_bits),
        ]

    @property
    def total_bits(self) -> int:
        return sum(bits for _, bits in self.fields())

    def ip_chunks(self, bits: int) -> list[int]:
        """Chunk widths of an IP field: dotted quarters when divisible by
        four (octets at 32 bits), a single chunk otherwise."""
        if bits % 4 == 0:
            return [bits // 4] * 4
        return [bits]

    def slots(self) -> tuple[tuple[str, int, int], ...]:
        """``(field, offset, width)`` of every value a rule can fix, in
        header bit order: each chunk of an IP field, then a port whole."""
        return self._slots


DEFAULT_LAYOUT = HeaderLayout()


def _values(rule: FirewallRule, layout: HeaderLayout) -> tuple[int | None, ...]:
    """The rule's value in each of ``layout.slots()``, None for a wildcard;
    ValueError if the rule does not fit the layout."""
    values: list[int | None] = []
    for name, bits in layout.fields():
        widths = layout.ip_chunks(bits) if name.endswith("_ip") else [bits]
        value = getattr(rule, name)
        if value is None:
            value = (None,) * len(widths)
        elif not name.endswith("_ip"):
            value = (value,)
        elif len(value) != len(widths):
            raise ValueError(
                f"{name} has {len(value)} chunks, layout wants {len(widths)}"
            )
        kind = "chunk" if name.endswith("_ip") else "value"
        for v, w in zip(value, widths):
            if v is not None and not 0 <= v < (1 << w):
                raise ValueError(f"{name} {kind} {v} exceeds {w} bits")
        values += value
    return tuple(values)


# ---------------------------------------------------------------------------
# Field mapping (value randomization)
# ---------------------------------------------------------------------------

# A field map is a full table of 2**w values, so maps stop at the default
# port width: a 33-bit IP field is one chunk, and its table would not fit.
_MAX_MAP_BITS = 16


def _check_map_widths(layout: HeaderLayout) -> None:
    """ValueError naming the first field whose value map would be wider
    than ``_MAX_MAP_BITS``; runs before any table is built."""
    for name, _, width in layout.slots():
        if width > _MAX_MAP_BITS:
            raise ValueError(
                f"{name} needs a {width}-bit value map; "
                f"field maps hold at most {_MAX_MAP_BITS} bits"
            )


@dataclass
class FieldMappingSecret:
    """Per-chunk-position bijections for IP values plus one port bijection.

    Each map is a permutation list: ``m[v]`` is the new name of value
    ``v``, for ``v`` in ``0..len(m)-1``.  The same chunk maps serve source
    and destination addresses, and the same port map serves both ports —
    consistency across all rules is what keeps the mapped policy
    meaningful.
    """

    octet_maps: list[list[int]]
    port_map: list[int]
    seed: int | None = None

    def validate(self) -> None:
        for i, m in enumerate(self.octet_maps):
            if sorted(m) != list(range(len(m))):
                raise ValueError(f"octet map {i} is not a bijection on its domain")
        if sorted(self.port_map) != list(range(len(self.port_map))):
            raise ValueError("port map is not a bijection on its domain")

    def to_json(self) -> str:
        """The text of a fw-map key file."""
        return json.dumps(asdict(self)) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FieldMappingSecret":
        """The mapping a fw-map key file holds.  ValueError naming the field
        if one is missing or not the list of integers (or, for ``seed``,
        the integer or null) it must be."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("fw-map key file is not a JSON object")
        for name in ("octet_maps", "port_map"):
            if name not in obj:
                raise ValueError(f"fw-map key file lacks field {name!r}")

        def values(value, name: str) -> list[int]:
            if not isinstance(value, list) or not all(type(x) is int for x in value):
                raise ValueError(
                    f"fw-map key field {name!r}: expected a list of integers"
                )
            return value

        octet_maps = obj["octet_maps"]
        if not isinstance(octet_maps, list):
            raise ValueError("fw-map key field 'octet_maps': expected a list of lists")
        seed = obj.get("seed")
        if seed is not None and type(seed) is not int:
            raise ValueError("fw-map key field 'seed': expected an integer or null")
        return cls(
            [values(m, f"octet_maps[{i}]") for i, m in enumerate(octet_maps)],
            values(obj["port_map"], "port_map"),
            seed,
        )

    @classmethod
    def random(cls, layout: HeaderLayout, seed: int) -> "FieldMappingSecret":
        """Uniform random bijections over the full value domains."""
        _check_map_widths(layout)
        chunk_widths = layout.ip_chunks(layout.src_ip_bits)
        if chunk_widths != layout.ip_chunks(layout.dst_ip_bits):
            raise ValueError("source/destination IP chunking differs; cannot share maps")
        if layout.src_port_bits != layout.dst_port_bits:
            raise ValueError("source/destination port widths differ; cannot share map")
        rng = random.Random(seed)

        def perm(size: int) -> list[int]:
            values = list(range(size))
            rng.shuffle(values)
            return values

        octet_maps = [perm(1 << w) for w in chunk_widths]
        return cls(octet_maps, perm(1 << layout.src_port_bits), seed)

    @classmethod
    def from_swaps(
        cls,
        octet_swaps: list[list[tuple[int, int]]],
        port_swaps: list[tuple[int, int]],
        layout: HeaderLayout = DEFAULT_LAYOUT,
    ) -> "FieldMappingSecret":
        """Identity maps with the given transpositions applied — handy for
        spelling out small concrete mappings (a <-> b per position)."""
        _check_map_widths(layout)

        def build(size: int, swaps: list[tuple[int, int]]) -> list[int]:
            m = list(range(size))
            for a, b in swaps:
                if not (0 <= a < size and 0 <= b < size):
                    raise ValueError(f"swap ({a}, {b}) outside 0..{size - 1}")
                m[a], m[b] = m[b], m[a]
            return m

        chunk_widths = layout.ip_chunks(layout.src_ip_bits)
        if len(octet_swaps) != len(chunk_widths):
            raise ValueError(
                f"need swap lists for {len(chunk_widths)} chunk positions"
            )
        octet_maps = [
            build(1 << w, swaps) for w, swaps in zip(chunk_widths, octet_swaps)
        ]
        return cls(octet_maps, build(1 << layout.src_port_bits, port_swaps))


def map_fields(
    policy: FirewallPolicy,
    seed: int | None = None,
    *,
    secret: FieldMappingSecret | None = None,
    layout: HeaderLayout = DEFAULT_LAYOUT,
) -> tuple[FirewallPolicy, FieldMappingSecret]:
    """Replace every concrete field value via the (shared) bijections.

    Wildcards and rule order are preserved.  Supply ``secret`` to reuse an
    existing mapping; otherwise one is drawn from ``seed``.
    """
    if secret is None:
        if seed is None:
            raise ValueError("either seed or secret is required")
        secret = FieldMappingSecret.random(layout, seed)
    secret.validate()

    def map_ip(ip):
        if ip is None:
            return None
        maps = secret.octet_maps
        out = []
        for i, v in enumerate(ip):
            if v is None:
                out.append(None)
            elif i >= len(maps) or not 0 <= v < len(maps[i]):
                raise ValueError(f"chunk value {v} outside mapping domain")
            else:
                out.append(maps[i][v])
        return tuple(out)

    def map_port(p):
        if p is None:
            return None
        if not 0 <= p < len(secret.port_map):
            raise ValueError(f"port {p} outside mapping domain")
        return secret.port_map[p]

    mapped = []
    for rule in policy.rules:
        _values(rule, layout)
        out = FirewallRule(
            map_ip(rule.src_ip),
            map_port(rule.src_port),
            map_ip(rule.dst_ip),
            map_port(rule.dst_port),
            rule.action,
        )
        # A supplied map may be a bijection on a domain wider than the
        # layout's fields; the mapped values must still fit them.
        _values(out, layout)
        mapped.append(out)
    return FirewallPolicy(mapped, policy.default_action), secret


# ---------------------------------------------------------------------------
# Bit-level encoding
# ---------------------------------------------------------------------------

def _mask_value(rule: FirewallRule, layout: HeaderLayout) -> tuple[int, int]:
    """The rule as one ternary ``(mask, value)`` pair over the packed
    header (header bit order, the first slot most significant): a header
    ``h`` matches iff ``h & mask == value``, and a catch-all rule has
    ``mask == 0``.  ValueError if the rule does not fit the layout."""
    mask = value = 0
    for (_, _, width), v in zip(layout.slots(), _values(rule, layout)):
        mask <<= width
        value <<= width
        if v is not None:
            mask |= (1 << width) - 1
            value |= v
    return mask, value


def _literals(mask: int, value: int, total_bits: int) -> tuple[int, ...]:
    """Header-bit literals whose ``and`` is the match test of a
    ``(mask, value)`` pair: one per set bit of ``mask``, most significant
    (variable 1) first, negative where ``value`` has a zero."""
    fixed, bits = (format(x, f"0{total_bits}b") for x in (mask, value))
    return tuple(
        i if b == "1" else -i
        for i, (m, b) in enumerate(zip(fixed, bits), 1)
        if m == "1"
    )


def match_predicate(
    rule: FirewallRule, layout: HeaderLayout = DEFAULT_LAYOUT
) -> tuple[int, ...]:
    """Header-bit literals whose ``and`` is true exactly on headers the
    rule matches: the inputs of the rule's predicate gate.  Wildcarded
    fields and chunks contribute nothing, so an all-wildcard rule gives
    ``()``, which matches every header."""
    return _literals(*_mask_value(rule, layout), layout.total_bits)


def _disjoint(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """True if no header matches both ``(mask, value)`` pairs: some bit
    that both fix is fixed to different values."""
    return bool((a[1] ^ b[1]) & a[0] & b[0])


def encode_policy(
    enc: TseitinEncoder,
    policy: FirewallPolicy,
    layout: HeaderLayout = DEFAULT_LAYOUT,
) -> int | bool:
    """Literal of a gate of ``enc`` that is true exactly on headers the
    policy accepts; ``True`` or ``False``, with no gate made, if the policy
    accepts every header or none.

    Each accept rule's term is the ``and`` of its predicate and the
    negated predicates of the earlier rules that can overlap it (a guard
    on a disjoint rule is always true).  The chain stops at the first
    catch-all rule, whose action stands for the default, since no later
    rule is ever a first match; every rule is still checked against the
    layout.  Gates are made depth first, term by term, through ``enc``'s
    shared gate table, so equal predicates and terms are one gate, also
    across policies encoded into the same ``enc``.  Each rule's predicate
    gate is looked up there once, the first time a term needs it; later
    guards reuse its literal.
    """
    pairs = [_mask_value(rule, layout) for rule in policy.rules]
    cut = next((i for i, (mask, _) in enumerate(pairs) if not mask), len(pairs))
    default = policy.rules[cut].action if cut < len(pairs) else policy.default_action
    if default == "accept" and not cut:
        return True
    preds = [_literals(mask, value, layout.total_bits) for mask, value in pairs[:cut]]
    terms = [
        (i, [j for j in range(i) if not _disjoint(pairs[i], pairs[j])])
        for i in range(cut)
        if policy.rules[i].action == "accept"
    ]
    if default == "accept":
        terms.append((None, range(cut)))
    if not terms:
        return False
    made = [0] * cut  # rule j's predicate literal once its gate is made

    def predicate(j: int) -> int:
        if not made[j]:
            made[j] = enc.gate_n("and", preds[j])
        return made[j]

    roots = []
    for i, guards in terms:
        lits = [] if i is None else [predicate(i)]
        lits += [-predicate(j) for j in guards]
        roots.append(enc.gate_n("and", tuple(lits)))
    return enc.gate_n("or", tuple(roots))


def rule_matches(rule: FirewallRule, header: int, layout: HeaderLayout) -> bool:
    """Direct (non-symbolic) match test of one rule against a packed header."""
    mask, value = _mask_value(rule, layout)
    return header & mask == value


def policy_accepts(
    policy: FirewallPolicy, header: int, layout: HeaderLayout = DEFAULT_LAYOUT
) -> bool:
    """Reference first-match evaluation on a packed header value; refuses
    a rule outside the layout, as :func:`encode_policy` does."""
    if not 0 <= header < (1 << layout.total_bits):
        raise ValueError("header value exceeds layout width")
    pairs = [_mask_value(rule, layout) for rule in policy.rules]
    for rule, (mask, value) in zip(policy.rules, pairs):
        if header & mask == value:
            return rule.action == "accept"
    return policy.default_action == "accept"


def equivalence_cnf(
    p1: FirewallPolicy,
    p2: FirewallPolicy,
    layout: HeaderLayout = DEFAULT_LAYOUT,
) -> CnfInstance:
    """CNF satisfiable iff the two policies disagree on some header.

    Variables ``1..layout.total_bits`` are the header bits; the rest are
    the gates of :func:`encode_policy` for ``p1`` then ``p2`` and the
    ``xor`` of their roots, asserted by a unit clause.  A policy that is
    constant adds no gate: it leaves the other root or its negation, and
    two constant policies leave one forced gate.  A satisfying
    assignment's header bits are a packet the policies classify
    differently (see :func:`decode_witness`).
    """
    enc = TseitinEncoder(layout.total_bits)
    lits = []
    differ = False
    for policy in (p1, p2):
        root = encode_policy(enc, policy, layout)
        if isinstance(root, bool):
            differ ^= root
        else:
            lits.append(root)
    if len(lits) == 2:
        root = enc.gate("xor", *lits)
    elif lits:
        root = -lits[0] if differ else lits[0]
    else:
        root = enc.gate_n("and" if differ else "or", ())
    return CnfInstance(enc.num_vars, enc.clauses + [[root]])


def decode_witness(
    sol: dict[int, bool],
    layout: HeaderLayout = DEFAULT_LAYOUT,
    p1: FirewallPolicy | None = None,
    p2: FirewallPolicy | None = None,
) -> dict:
    """Slice the header bits of an equivalence-CNF solution into field
    values.

    Returns ``{"header": packed int, "src_ip": chunk tuple, "src_port":
    int, ...}``.  When both policies are supplied the witness is replayed
    through direct simulation and must actually separate them; otherwise
    :class:`InvalidSolutionError` (a tampered or fabricated witness).
    Giving only one of the two policies is a ValueError."""
    if (p1 is None) != (p2 is None):
        raise ValueError("give both policies or neither")
    total = layout.total_bits
    header = 0
    for v in range(1, total + 1):
        try:
            bit = sol[v]
        except KeyError:
            raise ValueError(f"solution is missing header bit {v}") from None
        header = (header << 1) | (1 if bit else 0)
    fields: dict = {"header": header}
    for name, offset, width in layout.slots():
        v = (header >> (total - offset - width)) & ((1 << width) - 1)
        fields[name] = fields.get(name, ()) + (v,) if name.endswith("_ip") else v
    if p1 is not None:
        if policy_accepts(p1, header, layout) == policy_accepts(p2, header, layout):
            raise InvalidSolutionError(
                "decoded header does not distinguish the two policies"
            )
    return fields


# ---------------------------------------------------------------------------
# Policy file format
# ---------------------------------------------------------------------------

def _decimal(token: str) -> int:
    """Value of a token of ASCII decimal digits.  ``int()`` alone also
    takes signs, underscores and non-ASCII digits ("+2", "8_0", "１"),
    which :func:`emit_policy` would write back as other text."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not a decimal number: {token!r}")
    return int(token)


def _parse_ip(token: str):
    if token == "*":
        return None
    chunks = []
    for part in token.split("."):
        if part == "*":
            chunks.append(None)
        else:
            try:
                chunks.append(_decimal(part.removeprefix("-")))
            except ValueError as exc:
                raise ValueError(f"bad IP chunk {part!r} in {token!r}") from exc
            if part.startswith("-"):
                raise ValueError(f"negative IP chunk in {token!r}")
    return tuple(chunks)


def _parse_port(token: str):
    if token == "*":
        return None
    try:
        value = _decimal(token.removeprefix("-"))
    except ValueError as exc:
        raise ValueError(f"bad port {token!r}") from exc
    if token.startswith("-"):
        raise ValueError(f"negative port {token!r}")
    return value


def parse_policy(text: str) -> FirewallPolicy:
    """Parse the policy file format: one `src_ip src_port dst_ip dst_port
    action` rule per line plus exactly one `default <action>` line; ``*``
    wildcards a field or a single IP chunk; ``#`` starts a comment."""
    rules = []
    default = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "default":
            if len(parts) != 2 or parts[1] not in _ACTIONS:
                raise ValueError(f"line {lineno}: bad default line {line!r}")
            if default is not None:
                raise ValueError(f"line {lineno}: duplicate default line")
            default = parts[1]
            continue
        if len(parts) != 5:
            raise ValueError(
                f"line {lineno}: expected 5 fields "
                f"(src_ip src_port dst_ip dst_port action), got {len(parts)}"
            )
        if parts[4] not in _ACTIONS:
            raise ValueError(f"line {lineno}: unknown action {parts[4]!r}")
        try:
            rules.append(
                FirewallRule(
                    _parse_ip(parts[0]),
                    _parse_port(parts[1]),
                    _parse_ip(parts[2]),
                    _parse_port(parts[3]),
                    parts[4],
                )
            )
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if default is None:
        raise ValueError("missing 'default <accept|deny>' line")
    return FirewallPolicy(rules, default)


def _ip_str(ip) -> str:
    if ip is None:
        return "*"
    return ".".join("*" if v is None else str(v) for v in ip)


def emit_policy(policy: FirewallPolicy) -> str:
    lines = []
    for r in policy.rules:
        port = "*" if r.src_port is None else str(r.src_port)
        dport = "*" if r.dst_port is None else str(r.dst_port)
        lines.append(
            f"{_ip_str(r.src_ip)} {port} {_ip_str(r.dst_ip)} {dport} {r.action}"
        )
    lines.append(f"default {policy.default_action}")
    return "\n".join(lines) + "\n"
