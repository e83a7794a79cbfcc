"""Objective-function randomization: Mincost SAT and MAX3SAT.

A Mincost instance (CNF plus per-variable non-negative integer costs)
leaks structure through its cost vector: the provider can see which
variables carry weight.  The fix is to compile the cost function into the
formula itself — an adder circuit summing ``c_i * x_i`` in binary — so
that after CNF-level randomization the cost function mentions only the
``w`` circuit output bits, with fixed weights ``2^(w-j)``.  Dummy and
original variables then look alike.

MAX3SAT reduces to Mincost by a per-clause miss indicator: a fresh
variable forced (by a Tseitin biconditional) to be true exactly when its
clause is violated, at cost 1.  The original clauses are dropped from the
hard constraint set — only the indicator definitions are hard — so the
optimum is ``m - mincost`` with ``m`` the clause count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cnf import (
    CnfInstance,
    InvalidSolutionError,
    TseitinEncoder,
    TseitinMap,
    _three_table,
    evaluate_gates,
    to_three_cnf,
)
from .disguise import MINCOST_INNER, _field_from_obj, lookup
from .matrixrand import LinearSystem, MatrixSecret
from .solsetrand import GfSecret

__all__ = [
    "MincostInstance",
    "Max3SatInstance",
    "CostCircuitSecret",
    "RandomizedMincost",
    "MincostSecret",
    "compile_cost_circuit",
    "circuit_costs",
    "decode_cost",
    "evaluate_circuit",
    "randomize_mincost",
    "derandomize_mincost",
    "max3sat_to_mincost",
    "emit_cost_sidecar",
    "parse_cost_sidecar",
    "MINCOST",
]


@dataclass
class MincostInstance:
    """A CNF with a linear objective: minimize ``sum(costs[v] * x_v)`` over
    satisfying assignments.  Variables absent from ``costs`` cost 0."""

    cnf: CnfInstance
    costs: dict[int, int] = field(default_factory=dict)

    def validate(self) -> None:
        self.cnf.validate()
        for v, c in self.costs.items():
            if not 1 <= v <= self.cnf.num_vars:
                raise ValueError(f"cost on unknown variable {v}")
            if c < 0:
                raise ValueError(f"negative cost {c} on variable {v}")

    def cost_of(self, assignment: dict[int, bool]) -> int:
        return sum(c for v, c in self.costs.items() if assignment[v])


@dataclass
class Max3SatInstance:
    """Clauses to maximize; every clause must have exactly three literals
    (pad shorter ones with :func:`satcloak.cnf.to_three_cnf` first)."""

    cnf: CnfInstance

    def validate(self) -> None:
        self.cnf.validate()
        _three_table(self.cnf)


@dataclass
class CostCircuitSecret:
    """Layout of a compiled cost circuit.

    ``output_bits`` are the variables ``b_1..b_w`` holding the binary cost,
    most significant first, so ``w`` is their number (positions may share a
    variable when the adder proves bits equal, e.g. constant-zero high
    bits).  ``tmap`` holds every gate definition and is what forward
    evaluation and solution validation run on.
    """

    output_bits: list[int]
    tmap: TseitinMap


def _ripple_add(enc: TseitinEncoder, xs: list[int], ys: list[int]) -> list[int]:
    """Add two equal-width little-endian literal vectors (0 is constant
    false) with ``enc``'s gates; the final carry is dropped (callers
    guarantee the sum fits the width)."""
    out = []
    carry = 0
    for a, b in zip(xs, ys):
        half = enc.gate("xor", a, b)
        out.append(enc.gate("xor", half, carry))
        carry = enc.gate("or", enc.gate("and", a, b), enc.gate("and", carry, half))
    return out


def compile_cost_circuit(
    inst: MincostInstance,
) -> tuple[CnfInstance, CostCircuitSecret]:
    """Compile the cost function into the CNF as a binary adder tree.

    Returns the combined instance (original clauses plus gate definition
    clauses) and the circuit secret.  In every satisfying assignment the
    output bits spell ``sum(costs[v] * x_v)`` in binary, most significant
    bit first, over ``w = beta + ceil(log2(n))`` bits, where ``beta`` is
    the smallest per-cost width (at least 1) that fits every cost.
    """
    inst.validate()
    n = inst.cnf.num_vars
    beta = max([1, *(c.bit_length() for c in inst.costs.values())])
    width = beta + (max(n, 1) - 1).bit_length()  # beta + ceil(log2 n)

    enc = TseitinEncoder(n)
    vectors = [
        [v if (c >> i) & 1 else 0 for i in range(width)]
        for v, c in sorted(inst.costs.items())
        if c
    ]
    while len(vectors) > 1:
        nxt = [
            _ripple_add(enc, vectors[i], vectors[i + 1])
            for i in range(0, len(vectors) - 1, 2)
        ]
        if len(vectors) % 2:
            nxt.append(vectors[-1])
        vectors = nxt
    total = vectors[0] if vectors else [0] * width
    # Most significant first; constant-false bits share one forced-false gate.
    false = enc.add_gate("or", ()) if 0 in total else 0
    output_bits = [lit or false for lit in reversed(total)]
    combined = CnfInstance(enc.num_vars, inst.cnf.clauses + enc.clauses)
    return combined, CostCircuitSecret(output_bits, enc.mapping())


def circuit_costs(secret: CostCircuitSecret) -> dict[int, int]:
    """Cost function of the compiled instance: weight ``2^(w-j)`` on output
    bit ``b_j``.  Weights of positions sharing a variable accumulate."""
    costs: dict[int, int] = {}
    width = len(secret.output_bits)
    for j, b in enumerate(secret.output_bits, start=1):
        costs[b] = costs.get(b, 0) + (1 << (width - j))
    return costs


def decode_cost(assignment: dict[int, bool], secret: CostCircuitSecret) -> int:
    """Read the binary cost off the output bits of a total assignment."""
    value = 0
    for b in secret.output_bits:
        value = 2 * value + assignment[b]
    return value


def evaluate_circuit(
    secret: CostCircuitSecret, inputs: dict[int, bool]
) -> dict[int, bool]:
    """Extend an assignment of the original variables over all gates."""
    return evaluate_gates(secret.tmap, inputs)


@dataclass
class RandomizedMincost:
    """The artifact a provider sees: the inner disguise's artifact — a
    linear system or a 3CNF — plus the cost function over output-bit
    variables."""

    inner: LinearSystem | CnfInstance
    costs: dict[int, int]

    @property
    def cnf(self) -> CnfInstance | None:
        return self.inner if isinstance(self.inner, CnfInstance) else None


@dataclass
class MincostSecret:
    """Composite client-held state: the inner disguise's library name, the
    circuit layout and the inner randomizer's secret, which is all that a
    key holds.  ``three_map``, the 3CNF conversion's map, is what
    :func:`randomize_mincost` built on the way; checking an answer never
    reads it, so no key keeps it, a loaded secret has None there and
    equality ignores it."""

    method: str
    circuit: CostCircuitSecret
    inner: MatrixSecret | GfSecret
    three_map: TseitinMap | None = field(default=None, compare=False)


def randomize_mincost(
    inst: MincostInstance,
    seed: int,
    method: str = "matrix",
    row_weight: int | None = None,
) -> tuple[RandomizedMincost, MincostSecret]:
    """Randomize a Mincost instance so dummies and originals are
    indistinguishable.

    Pipeline: compile the cost circuit, convert to exactly-3CNF, then hand
    off to the chosen CNF randomizer — ``"matrix"`` (random-matrix
    multiplication of the linear encoding) or ``"solution_set"`` (GF(2)
    change of variables; circuit output bits are held fixed so the cost
    function still addresses them).  Every satisfying assignment of the
    result carries the original cost on its output bits.
    """
    inner = lookup(method, MINCOST_INNER)
    combined, circuit = compile_cost_circuit(inst)
    three, three_map = to_three_cnf(combined)
    artifact, inner_secret = inner.randomize_source(
        three, seed, row_weight, frozenset(circuit.output_bits)
    )
    return (
        RandomizedMincost(artifact, circuit_costs(circuit)),
        MincostSecret(method, circuit, inner_secret, three_map),
    )


def derandomize_mincost(
    sol, secret: MincostSecret, original: MincostInstance
) -> tuple[dict[int, bool], int]:
    """Recover the original assignment and its cost from a provider answer.

    ``sol`` is a 0/1 vector or assignment dict over the randomized
    instance's variables.  Validation is three-stage: the recovered original
    variables must satisfy the original CNF, the provider's circuit bits
    (cost outputs included) must agree with a forward re-evaluation of the
    circuit — so a forged cheap cost is caught, not just an unsatisfying
    assignment — and the circuit's cost must be what ``original.costs``
    gives, so an answer checked against another cost function is caught.
    Raises :class:`InvalidSolutionError` on any failure, and ValueError if
    ``original`` is malformed or has another number of variables than the
    secret's circuit inputs.
    """
    original.validate()
    tmap = secret.circuit.tmap
    if tmap.num_input_vars != original.cnf.num_vars:
        raise ValueError("original instance does not match secret")
    x3 = lookup(secret.method, MINCOST_INNER).decode(sol, secret.inner)
    # Restrict 3CNF variables to the compiled circuit's, then split into
    # original inputs vs. circuit gates.
    claimed = {v: x3[v] for v in range(1, tmap.num_vars + 1)}
    x = {v: claimed[v] for v in range(1, tmap.num_input_vars + 1)}
    if not original.cnf.satisfies(x):
        raise InvalidSolutionError(
            "recovered assignment does not satisfy the original instance"
        )
    recomputed = evaluate_gates(tmap, x)
    if recomputed != claimed:
        raise InvalidSolutionError(
            "solution's circuit bits are inconsistent with its inputs"
        )
    cost = decode_cost(claimed, secret.circuit)
    expected = original.cost_of(x)
    if cost != expected:
        raise InvalidSolutionError(
            f"circuit cost {cost} differs from the cost function's {expected}"
        )
    return x, cost


def _tmap_obj(t: TseitinMap) -> dict:
    return {
        "num_input_vars": t.num_input_vars,
        "num_vars": t.num_vars,
        "gates": [[g, op, list(lits)] for g, (op, lits) in t.gates.items()],
    }


def _tmap_from(obj: dict) -> TseitinMap:
    """The circuit's gate map from its key object, whose ``gates`` are
    ``[variable, op, literals]`` entries; errors as for :func:`_field`."""
    ops = ("and", "or", "xor")
    entries = obj["gates"]
    if not isinstance(entries, list) or not all(
        isinstance(e, list)
        and len(e) == 3
        and type(e[0]) is int
        and e[1] in ops
        and isinstance(e[2], list)
        and all(type(lit) is int for lit in e[2])
        for e in entries
    ):
        raise ValueError(
            "mincost secret field 'circuit.tmap.gates': expected a list of "
            f"[variable, kind, literals] entries with kind in {ops}"
        )
    return TseitinMap(
        _field(obj, "circuit.tmap.num_input_vars"),
        _field(obj, "circuit.tmap.num_vars"),
        {g: (op, tuple(lits)) for g, op, lits in entries},
    )


def _field(obj: dict, path: str, hint=int):
    """The field of a Mincost key object at the end of the dotted ``path``
    from the secret: ``int`` or ``list[int]`` (read as a disguise's secret
    fields are), or ``dict`` for a nested object.
    KeyError if it is missing, ValueError naming ``path`` if its value has
    another type."""
    value = obj[path.rpartition(".")[2]]
    try:
        if hint is not dict:
            return _field_from_obj(value, hint)
        if not isinstance(value, dict):
            raise ValueError(f"expected an object, not {type(value).__name__}")
        return value
    except ValueError as exc:
        raise ValueError(f"mincost secret field {path!r}: {exc}") from None


def _check_ranges(secret: MincostSecret) -> None:
    """Raise ValueError naming the first circuit field whose value is out of
    range, so that checking an answer never indexes it by a variable the
    answer does not have.  Gates must be the variables above the inputs, in
    order, each reading only variables below it, and an xor gate reads
    exactly two."""
    t = secret.circuit.tmap
    bits = secret.circuit.output_bits
    if not t.num_input_vars <= t.num_vars <= secret.inner.original_n:
        path, why = "tmap.num_vars", (
            f"must lie in {t.num_input_vars}..{secret.inner.original_n}")
    elif list(t.gates) != list(range(t.num_input_vars + 1, t.num_vars + 1)):
        path, why = "tmap.gates", (
            f"gate ids must run {t.num_input_vars + 1}..{t.num_vars} in order")
    elif any(not 0 < abs(lit) < g for g, (_, lits) in t.gates.items()
             for lit in lits):
        path, why = "tmap.gates", "a gate input must be a variable below its gate"
    elif any(op == "xor" and len(lits) != 2 for op, lits in t.gates.values()):
        path, why = "tmap.gates", "an xor gate must have exactly two inputs"
    elif not bits:
        path, why = "output_bits", "must not be empty"
    elif not all(1 <= b <= t.num_vars for b in bits):
        path, why = "output_bits", f"bits must lie in 1..{t.num_vars}"
    else:
        return
    raise ValueError(f"mincost secret field 'circuit.{path}': {why}")


class _MincostRecords:
    """What the client's records need of Mincost secrets: their ``type``
    tag, serialization and validation, alongside the entries of
    :data:`satcloak.disguise.DISGUISES`.  The inner secret is serialized by
    its own disguise."""

    name = tag = "mincost"
    secret_type = MincostSecret

    def to_obj(self, secret: MincostSecret) -> dict:
        return {
            "method": secret.method,
            "circuit": {
                "output_bits": list(secret.circuit.output_bits),
                "tmap": _tmap_obj(secret.circuit.tmap),
            },
            "inner": lookup(secret.method, MINCOST_INNER).to_obj(secret.inner),
        }

    def from_obj(self, obj: dict, key_format: int) -> MincostSecret:
        """The secret a key-file dict of format ``key_format`` describes.
        KeyError for a missing field, ValueError naming the field for a
        value of the wrong type or out of range."""
        c = _field(obj, "circuit", dict)
        circuit = CostCircuitSecret(
            _field(c, "circuit.output_bits", list[int]),
            _tmap_from(_field(c, "circuit.tmap", dict)),
        )
        secret = MincostSecret(
            obj["method"],
            circuit,
            lookup(obj["method"], MINCOST_INNER).from_obj(
                _field(obj, "inner", dict), key_format),
        )
        _check_ranges(secret)
        return secret

    def check(self, solution, secret: MincostSecret, original: CnfInstance, costs):
        """``(assignment, cost)`` of a solution; ``costs`` is the original
        cost function and is required."""
        if costs is None:
            raise ValueError("mincost records need the cost function (--costs)")
        return derandomize_mincost(solution, secret, MincostInstance(original, costs))


MINCOST = _MincostRecords()


def max3sat_to_mincost(inst: Max3SatInstance) -> tuple[MincostInstance, int]:
    """Reduce MAX3SAT to Mincost via per-clause miss indicators.

    Clause ``i`` gets a fresh variable ``u_i`` with hard clauses forcing
    ``u_i`` true exactly when clause ``i`` is violated, at cost 1.  The
    original clauses themselves are NOT hard (they may be violated); the
    returned offset is the clause count ``m``, and the input's maximum
    satisfiable count equals ``m - mincost``.
    """
    inst.validate()
    cnf = inst.cnf
    n = cnf.num_vars
    clauses: list[list[int]] = []
    costs: dict[int, int] = {}
    for i, clause in enumerate(cnf.clauses):
        u = n + i + 1
        for lit in clause:
            clauses.append([-u, -lit])
        clauses.append([u, *clause])
        costs[u] = 1
    reduced = MincostInstance(CnfInstance(n + cnf.num_clauses, clauses), costs)
    return reduced, cnf.num_clauses


def emit_cost_sidecar(costs: dict[int, int]) -> str:
    """Serialize a cost function: one ``w <var> <cost>`` line per weighted
    variable, sorted by variable."""
    return "".join(f"w {v} {costs[v]}\n" for v in sorted(costs))


def parse_cost_sidecar(text: str) -> dict[int, int]:
    """Parse the ``w <var> <cost>`` sidecar format (blank and ``c`` comment
    lines ignored)."""
    costs: dict[int, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] != "w":
            raise ValueError(f"line {lineno}: expected 'w <var> <cost>', got {line!r}")
        try:
            v, c = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer field in {line!r}") from exc
        if v < 1 or c < 0:
            raise ValueError(f"line {lineno}: bad variable or negative cost")
        if v in costs:
            raise ValueError(f"line {lineno}: duplicate cost for variable {v}")
        costs[v] = c
    return costs
