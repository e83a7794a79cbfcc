"""Workloads of the client round-trip benchmark.

Each instance goes through one closed-loop round trip:

1. the client disguises it (``randomize``), making the same public library
   calls in the same order as ``satcloak randomize`` /
   ``max3sat-reduce`` / ``mincost-randomize``, with text kept in memory;
2. the simulated provider maps a known answer forward into the artifact's
   variables (``provide``).  This is not client work and is not timed as
   such;
3. the client checks the honest answer and then a tampered one
   (``verify``), with the same calls as ``satcloak verify-solution``.

The expected results come from this module's own clause evaluator and cost
sum, never from the library's checks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
from satcloak.cnf import (
    CnfInstance,
    InvalidSolutionError,
    complete_to_three_cnf,
    emit_dimacs,
    parse_dimacs,
    to_three_cnf,
)
from satcloak.isomorph import iso_forward, iso_randomize
from satcloak.matrixrand import (
    LinearSystem,
    complete_solution,
    emit_opb,
    encode_linear,
    randomize_system,
)
from satcloak.objective import (
    Max3SatInstance,
    MincostInstance,
    MincostSecret,
    RandomizedMincost,
    compile_cost_circuit,
    derandomize_mincost,
    emit_cost_sidecar,
    evaluate_circuit,
    max3sat_to_mincost,
    parse_cost_sidecar,
    randomize_mincost,
)
from satcloak.orchestrator import (
    ProviderAnswer,
    make_record,
    record_from_json,
    record_to_json,
    validate_solution,
)
from satcloak.solsetrand import GfSecret, gf_forward, gf_randomize

RATIO = 4.26  # clause/variable ratio of every generated 3CNF
MAX_COST = 15
MINCOST_ROW_WEIGHT = 3


@dataclass(frozen=True)
class SizeClass:
    """``kind`` is sat-iso, sat-matrix, sat-gf2, mincost or max3sat.  ``size``
    is the variable count, except for sat-matrix where it is the clause
    count (its cost grows with clauses cubed)."""

    kind: str
    size: int

    @property
    def label(self) -> str:
        unit = "m" if self.kind == "sat-matrix" else "n"
        return f"{self.kind}:{unit}={self.size}"


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple[SizeClass, ...]  # one instance of each, in this order
    warmup: tuple[SizeClass, ...]  # the self-test: same code, tiny sizes


def _sat(kind: str, sizes) -> tuple[SizeClass, ...]:
    return tuple(SizeClass(kind, s) for s in sizes)


# Why these workloads (BENCHMARK.json says the same in one line each):
# * sat-iso: the only disguise that scales to industrial-size CNFs.  All
#   linear text and dict work (cnf parse/emit, isomorph, orchestrator
#   digest and validate), no matrix math.  Sizes stop at n=10k so that each
#   size class gets a dozen samples in a 25 s run.
# * sat-matrix: sizes by clause count m; the dense m^3 integer product in
#   randomize_system dominates, so a sparse product must show here.
# * sat-gf2: dense gf_randomize, the CLI default: dense GF(2) draw and
#   inversion, XOR re-encoding and artifacts of several MB.
# * mincost-gf2: the paper's optimization path, Mincost and MAX3SAT through
#   randomize_mincost(method="solution_set", row_weight=3): cost circuit,
#   sparse rank-rejection sampler and the largest keys.  Sizes are kept
#   small because at n=40..80 one instance takes 1-35 s, depending on the
#   sampler's luck, which leaves too few samples for a steady median.
# Left out: fw-map (about 0.1 s per policy pair, mostly a fixed
# 65,536-entry port permutation, and no open work targets it); Mincost with
# the matrix inner disguise (146 s for one 34-clause MAX3SAT instance); the
# exhaustive oracles (provider-side and test-only).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sat-iso", _sat("sat-iso", (2500, 5000, 10000)),
                 _sat("sat-iso", (30, 60))),
        Workload("sat-matrix", _sat("sat-matrix", (100, 160, 220)),
                 _sat("sat-matrix", (12, 20))),
        Workload("sat-gf2", _sat("sat-gf2", (100, 200, 300)),
                 _sat("sat-gf2", (10, 16))),
        Workload(
            "mincost-gf2",
            (SizeClass("mincost", 10), SizeClass("max3sat", 5),
             SizeClass("mincost", 15), SizeClass("max3sat", 6),
             SizeClass("mincost", 20)),
            (SizeClass("mincost", 4), SizeClass("max3sat", 3)),
        ),
    )
}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

@dataclass
class Instance:
    """Generated input.  ``lits`` holds one clause per row; ``x[v]`` is the
    planted value of variable ``v`` (sat, mincost) or the answer the
    provider reports (max3sat), and ``costs[v]`` its cost (mincost).
    numpy arrays hold no Python objects, so keeping them alive does not
    slow the garbage collections inside the timed client phases."""

    cls: SizeClass
    num_vars: int
    lits: np.ndarray
    x: np.ndarray
    costs: np.ndarray | None
    seed: int
    text: str
    costs_text: str | None

    def assignment(self) -> dict[int, bool]:
        return {v: bool(self.x[v]) for v in range(1, self.num_vars + 1)}

    def cnf(self) -> CnfInstance:
        return CnfInstance(self.num_vars, self.lits.tolist())


def _three_cnf(n: int, m: int, rng: np.random.Generator, planted=None):
    """``m`` clauses over three distinct variables each.  With ``planted``,
    a clause the assignment falsifies gets one literal's sign flipped."""
    vs = rng.integers(1, n + 1, size=(m, 3))
    while True:
        dup = (vs[:, 0] == vs[:, 1]) | (vs[:, 0] == vs[:, 2]) | (vs[:, 1] == vs[:, 2])
        if not dup.any():
            break
        vs[dup] = rng.integers(1, n + 1, size=(int(dup.sum()), 3))
    lits = np.where(rng.random((m, 3)) < 0.5, vs, -vs)
    if planted is not None:
        rows = np.nonzero(falsified(lits, planted))[0]
        cols = rng.integers(0, 3, size=len(rows))
        lits[rows, cols] *= -1
    return lits


def make_instance(cls: SizeClass, workload_seed: int, ident: int) -> Instance:
    """Deterministic in ``(cls, workload_seed, ident)``.  The disguise seed
    is drawn here and passed explicitly to the client."""
    key = hashlib.sha256(f"{cls.label}:{workload_seed}:{ident}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(key[:16], "little"))
    if cls.kind == "sat-matrix":
        m = cls.size
        n = round(m / RATIO)
    else:
        n = cls.size
        m = round(RATIO * n)
    x = rng.random(n + 1) < 0.5
    lits = _three_cnf(n, m, rng, planted=None if cls.kind == "max3sat" else x)
    costs = costs_text = None
    if cls.kind == "mincost":
        costs = rng.integers(1, MAX_COST + 1, size=n + 1)
        costs_text = "".join(f"w {v} {costs[v]}\n" for v in range(1, n + 1))
    text = f"p cnf {n} {m}\n" + "".join(
        f"{a} {b} {c} 0\n" for a, b, c in lits.tolist()
    )
    seed = int(rng.integers(0, 2**32))
    return Instance(cls, n, lits, x, costs, seed, text, costs_text)


# ---------------------------------------------------------------------------
# The benchmark's own evaluators
# ---------------------------------------------------------------------------

def falsified(lits: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per clause row: True when ``x`` (indexed by variable) makes every
    literal false."""
    return ~(x[np.abs(lits)] == (lits > 0)).any(axis=1)


def _falsify(inst: Instance, rng: np.random.Generator) -> np.ndarray:
    """The planted assignment changed so that one clause is false."""
    clause = inst.lits[rng.integers(len(inst.lits))]
    x = inst.x.copy()
    x[np.abs(clause)] = clause < 0
    if not falsified(inst.lits, x).any():
        raise AssertionError("tampered assignment still satisfies the instance")
    return x


def _as_dict(x: np.ndarray) -> dict[int, bool]:
    return {v: bool(x[v]) for v in range(1, len(x))}


def _check_cnf_text(text: str, vec: list[int]) -> None:
    """The artifact, an exactly-3CNF, must be satisfied by the forward-mapped
    answer."""
    head, _, body = text.partition("\n")
    fields = head.split()
    if fields[:2] != ["p", "cnf"] or int(fields[2]) != len(vec):
        raise AssertionError(f"artifact header {head!r} vs {len(vec)} vars")
    rows = np.array(body.split(), dtype=np.int64).reshape(-1, 4)
    y = np.array([0] + vec, dtype=bool)
    if (len(rows) != int(fields[3]) or rows[:, 3].any()
            or falsified(rows[:, :3], y).any()):
        raise AssertionError("artifact CNF rejects the forward-mapped answer")


def _check_opb_text(text: str, vec: list[int]) -> None:
    lines = [ln for ln in text.split("\n") if ln and not ln.startswith("*")]
    for ln in lines:
        terms, rhs = ln.rstrip(" ;").split(" = ")
        toks = terms.split()
        total = sum(int(toks[i]) * vec[int(toks[i + 1][1:]) - 1]
                    for i in range(0, len(toks), 2))
        if total != int(rhs):
            raise AssertionError("artifact OPB rejects the forward-mapped answer")


def _check_costs_text(text: str, vec: list[int], expected: int) -> None:
    total = 0
    for ln in text.split("\n"):
        if ln:
            _, v, c = ln.split()
            total += int(c) * vec[int(v) - 1]
    if total != expected:
        raise AssertionError(f"artifact costs give {total}, expected {expected}")


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------

@dataclass
class Disguise:
    """What the client holds and sends after randomizing one instance."""

    artifact_texts: list[str]  # everything sent to the provider
    key: str
    original_text: str  # the original the client keeps for verification
    original_costs: str | None
    artifact: object
    secret: object
    three: CnfInstance | None
    original: CnfInstance
    sizes: dict[str, int] = field(default_factory=dict)

    def release(self) -> None:
        """Drop the objects only the provider and the size counters need,
        so that verification runs with what the client really keeps."""
        self.artifact = self.secret = self.three = self.original = None

    def digest(self) -> str:
        h = hashlib.sha256()
        for t in self.artifact_texts + [self.key]:
            h.update(t.encode("ascii"))
        return h.hexdigest()


def solution_vector(text: str) -> list[int]:
    """Signed-literal answer line to a 0/1 vector, with the checks of
    ``satcloak.cli._read_solution`` and ``_solution_vector``."""
    sol: dict[int, bool] = {}
    for tok in text.split():
        lit = int(tok)
        if lit == 0 or abs(lit) in sol:
            raise ValueError(f"bad or repeated literal {lit}")
        sol[abs(lit)] = lit > 0
    n = max(sol)
    if len(sol) != n:
        raise ValueError("solution line is missing a variable")
    return [1 if sol[v] else 0 for v in range(1, n + 1)]


def _randomize_sat(inst: Instance, tr) -> Disguise:
    """``satcloak randomize --method iso|matrix|gf2``."""
    kind = inst.cls.kind
    with tr.span("cnf.parse_dimacs"):
        instance = parse_dimacs(inst.text)
    with tr.span("cnf.validate"):
        instance.validate()
    three = None
    if kind == "sat-iso":
        method = "iso"
        with tr.span("isomorph.iso_randomize"):
            artifact, secret = iso_randomize(instance, inst.seed)
        with tr.span("cnf.emit_dimacs"):
            text = emit_dimacs(artifact)
    else:
        with tr.span("cnf.to_three_cnf"):
            three, _ = to_three_cnf(instance)
        if kind == "sat-matrix":
            method = "matrix"
            with tr.span("matrixrand.encode_linear"):
                system = encode_linear(three)
            with tr.span("matrixrand.randomize_system"):
                artifact, secret = randomize_system(system, inst.seed)
            with tr.span("matrixrand.emit_opb"):
                text = emit_opb(artifact)
        else:
            method = "solution_set"
            with tr.span("solsetrand.gf_randomize"):
                artifact, secret = gf_randomize(three, inst.seed)
            with tr.span("cnf.emit_dimacs"):
                text = emit_dimacs(artifact)
    with tr.span("orchestrator.make_record"):
        record = make_record(method, secret, instance, inst.seed)
    with tr.span("orchestrator.record_to_json"):
        key = record_to_json(record)
    return Disguise([text], key, inst.text, None, artifact, secret, three, instance)


def _randomize_mincost(inst: Instance, tr) -> Disguise:
    """``satcloak max3sat-reduce`` (MAX3SAT only), then
    ``satcloak mincost-randomize --method gf2 --row-weight 3``."""
    text, costs_text = inst.text, inst.costs_text
    if inst.cls.kind == "max3sat":
        with tr.span("cnf.parse_dimacs"):
            cnf = parse_dimacs(text)
        with tr.span("objective.max3sat_to_mincost"):
            reduced, _ = max3sat_to_mincost(Max3SatInstance(cnf))
        with tr.span("cnf.emit_dimacs"):
            text = emit_dimacs(reduced.cnf)
        with tr.span("objective.emit_cost_sidecar"):
            costs_text = emit_cost_sidecar(reduced.costs)
    with tr.span("cnf.parse_dimacs"):
        cnf = parse_dimacs(text)
    with tr.span("objective.parse_cost_sidecar"):
        costs = parse_cost_sidecar(costs_text)
    with tr.span("objective.randomize_mincost"):
        artifact, secret = randomize_mincost(
            MincostInstance(cnf, costs), inst.seed,
            method="solution_set", row_weight=MINCOST_ROW_WEIGHT,
        )
    with tr.span("cnf.emit_dimacs"):
        art_text = emit_dimacs(artifact.cnf)
    with tr.span("objective.emit_cost_sidecar"):
        art_costs = emit_cost_sidecar(artifact.costs)
    with tr.span("orchestrator.make_record"):
        record = make_record("mincost", secret, cnf, inst.seed)
    with tr.span("orchestrator.record_to_json"):
        key = record_to_json(record)
    return Disguise([art_text, art_costs], key, text, costs_text,
                    artifact, secret, None, cnf)


def randomize(inst: Instance, tr) -> Disguise:
    if inst.cls.kind in ("mincost", "max3sat"):
        return _randomize_mincost(inst, tr)
    return _randomize_sat(inst, tr)


def verify(d: Disguise, answer: str, tr):
    """``satcloak verify-solution``.  Returns the accepted assignment (and
    cost, for mincost), or None when the answer is rejected."""
    with tr.span("orchestrator.record_from_json"):
        record = record_from_json(d.key)
    with tr.span("cnf.parse_dimacs"):
        original = parse_dimacs(d.original_text)
    vector = solution_vector(answer)
    if d.original_costs is None:
        with tr.span("orchestrator.validate_solution") as sp:
            valid, assignment = validate_solution(
                ProviderAnswer(0, "solution", vector, 0.0), record, original
            )
            if not valid:
                sp.fail()
        return assignment if valid else None
    with tr.span("objective.parse_cost_sidecar"):
        costs = parse_cost_sidecar(d.original_costs)
    try:
        with tr.span("objective.derandomize_mincost"):
            return derandomize_mincost(
                vector, record.secret, MincostInstance(original, costs)
            )
    except InvalidSolutionError:
        return None


def record_sizes(d: Disguise) -> None:
    """Size counters read from the returned objects (outside timed code)."""
    s = d.sizes
    s["original_vars"] = d.original.num_vars
    s["original_clauses"] = d.original.num_clauses
    secret = d.secret
    if d.three is not None:
        s["three_vars"] = d.three.num_vars
    if isinstance(secret, MincostSecret):
        s["three_vars"] = secret.three_map.num_vars
        s["circuit_gates"] = len(secret.circuit.tmap.gates)
        secret = secret.inner
    art = d.artifact
    if isinstance(art, RandomizedMincost):
        art = art.cnf
    if isinstance(art, LinearSystem):
        s["artifact_vars"] = art.num_vars
        s["artifact_clauses"] = art.num_constraints
        s["artifact_nonzeros"] = sum(
            sum(1 for c in row if c) for row in art.coeffs
        )
    else:
        s["artifact_vars"] = art.num_vars
        s["artifact_clauses"] = art.num_clauses
        s["artifact_nonzeros"] = sum(len(c) for c in art.clauses)
    if isinstance(secret, GfSecret):
        s["substitution_nonzeros"] = secret.r_inv.nonzero_count()


# ---------------------------------------------------------------------------
# Simulated provider
# ---------------------------------------------------------------------------

def _line(vec: list[int]) -> str:
    return " ".join(str(v if b else -v) for v, b in enumerate(vec, start=1))


def _vector(full: dict[int, bool], num_vars: int) -> list[int]:
    return [1 if full[v] else 0 for v in range(1, num_vars + 1)]


def _sat_vector(inst: Instance, d: Disguise, x: np.ndarray) -> list[int]:
    kind = inst.cls.kind
    if kind == "sat-iso":
        return _vector(iso_forward(_as_dict(x), d.secret), inst.num_vars)
    three, tmap = to_three_cnf(inst.cnf())
    x3 = complete_to_three_cnf(tmap, _as_dict(x))
    if kind == "sat-matrix":
        return complete_solution(three, x3)
    return _vector(gf_forward(x3, d.secret, three), d.artifact.num_vars)


def _mincost_inputs(inst: Instance) -> tuple[MincostInstance, np.ndarray, int]:
    """The Mincost instance the client disguised, the answer's full input
    assignment and its cost, from this module's own evaluation."""
    if inst.cls.kind == "mincost":
        costs = {v: int(inst.costs[v]) for v in range(1, inst.num_vars + 1)}
        cost = int(inst.costs[1:][inst.x[1:]].sum())
        return MincostInstance(inst.cnf(), costs), inst.x, cost
    reduced, _ = max3sat_to_mincost(Max3SatInstance(inst.cnf()))
    missed = falsified(inst.lits, inst.x)
    return reduced, np.concatenate([inst.x, missed]), int(missed.sum())


def provide(inst: Instance, d: Disguise, tr) -> tuple[str, str, object]:
    """Honest and tampered answer lines for the artifact, plus the result
    the honest answer must verify to.

    The tampered SAT answer is an assignment that falsifies one original
    clause, mapped forward (for the matrix disguise, written over the
    original-variable block of the honest vector, since a falsified clause
    has no dummy completion).  The tampered Mincost answer is the honest
    vector with one cost-output bit flipped.
    """
    rng = np.random.default_rng(inst.seed)
    if inst.cls.kind in ("sat-iso", "sat-matrix", "sat-gf2"):
        with tr.span("provider.forward"):
            honest = _sat_vector(inst, d, inst.x)
            bad_x = _falsify(inst, rng)
            if inst.cls.kind == "sat-matrix":
                n = inst.num_vars
                tampered = bad_x[1:].astype(int).tolist() + honest[n:]
            else:
                tampered = _sat_vector(inst, d, bad_x)
        if inst.cls.kind == "sat-matrix":
            _check_opb_text(d.artifact_texts[0], honest)
        else:
            _check_cnf_text(d.artifact_texts[0], honest)
        return _line(honest), _line(tampered), inst.assignment()
    secret = d.secret
    with tr.span("provider.forward"):
        mc, full_x, cost = _mincost_inputs(inst)
        combined, _ = compile_cost_circuit(mc)
        three, _ = to_three_cnf(combined)
        full = evaluate_circuit(secret.circuit, _as_dict(full_x))
        x3 = complete_to_three_cnf(secret.three_map, full)
        honest = _vector(gf_forward(x3, secret.inner, three),
                         d.artifact.cnf.num_vars)
        tampered = list(honest)
        bits = secret.circuit.output_bits
        tampered[bits[rng.integers(len(bits))] - 1] ^= 1
    _check_cnf_text(d.artifact_texts[0], honest)
    _check_costs_text(d.artifact_texts[1], honest, cost)
    return _line(honest), _line(tampered), (_as_dict(full_x), cost)


def accepted_correctly(result, expected) -> bool:
    """The honest answer must come back as exactly the expected assignment
    (and, for Mincost, the exact cost)."""
    if result is None:
        return False
    if isinstance(expected, tuple):
        return result[0] == expected[0] and result[1] == expected[1]
    return result == expected
