"""Outsourcing protocol simulation: randomize, dispatch, validate, settle.

The client randomizes one instance ``k`` times with independent seeds and
sends each version to a different simulated provider (so no provider can
tell that two requests share an original).  Providers answer with a
solution vector, an unsatisfiable claim, or a failure; the client
derandomizes and validates every claimed solution against the original
instance it kept, cross-checks the verdicts, flags contradicted or
fraudulent providers, and settles a per-provider payment ledger.

Provider behaviors model the threat cases: ``honest`` solves the artifact
(backed by the exhaustive oracles — desk-scale instances only), ``lazy``
reports failure without working, ``malicious-unsat`` claims unsatisfiable
regardless of truth, ``malicious-corrupt`` solves honestly and then flips
three coordinates of the answer.

Validation never trusts a provider: a claimed solution must derandomize
to an assignment satisfying every original clause, and each
:class:`RandomizationRecord` carries a digest of the original instance so
a secret cannot be replayed against the wrong formula.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass

from .cnf import CnfInstance, InvalidSolutionError, emit_dimacs
from .disguise import DISGUISES, KEY_FORMAT, Disguise, lookup
from .objective import MINCOST

__all__ = [
    "DigestMismatchError",
    "RandomizationRecord",
    "ProviderAnswer",
    "ProviderBehavior",
    "ProviderReport",
    "OutsourceReport",
    "BEHAVIOR_KINDS",
    "instance_digest",
    "make_record",
    "check_solution",
    "validate_solution",
    "outsource",
    "render_report",
    "record_to_json",
    "record_from_json",
]

BEHAVIOR_KINDS = ("honest", "lazy", "malicious-unsat", "malicious-corrupt")

# Every kind of record the client keeps: one per disguise, and Mincost,
# which wraps one of them.  A record's method names its kind, which has the
# ``type`` tag and class of its secret, ``to_obj``/``from_obj`` and
# ``check``.
_RECORD_KINDS = {kind.name: kind for kind in (*DISGUISES.values(), MINCOST)}


class DigestMismatchError(Exception):
    """The randomization record does not belong to this original instance."""


def instance_digest(instance: CnfInstance) -> str:
    return hashlib.sha256(emit_dimacs(instance).encode("ascii")).hexdigest()


@dataclass
class RandomizationRecord:
    """Client-held ticket for one outsourced instance: which method, its
    secret, and a digest binding it to the original."""

    method: str
    secret: object
    instance_digest: str
    seed: int


@dataclass
class ProviderAnswer:
    provider_id: int
    verdict: str  # "solution" | "unsatisfiable" | "fail"
    assignment: list[int] | None
    elapsed: float


@dataclass
class ProviderBehavior:
    kind: str

    def __post_init__(self):
        if self.kind not in BEHAVIOR_KINDS:
            raise ValueError(f"unknown behavior {self.kind!r}")


@dataclass
class ProviderReport:
    provider_id: int
    behavior: str
    verdict: str
    valid: bool | None
    flagged: bool
    payment: str
    elapsed: float


@dataclass
class OutsourceReport:
    verdict: str  # "sat" | "unsat-consensus" | "inconclusive"
    solution: dict[int, bool] | None
    providers: list[ProviderReport]
    records: list[RandomizationRecord]
    artifacts: list


def make_record(
    method: str, secret, original: CnfInstance, seed: int
) -> RandomizationRecord:
    return RandomizationRecord(method, secret, instance_digest(original), seed)


def check_solution(
    record: RandomizationRecord,
    solution: list[int] | None,
    original: CnfInstance,
    costs: dict[int, int] | None = None,
) -> tuple[dict[int, bool], int | None]:
    """Derandomize a provider's solution and validate it against the
    original, for a record of any method.

    ``costs`` is the original cost function, which Mincost records need.
    Returns the original assignment and, for Mincost records, its cost
    (None otherwise).  Raises :class:`DigestMismatchError` if the record
    was made for another instance, :class:`InvalidSolutionError` for any
    defect of the solution (a missing or wrong-length vector included),
    and ValueError for an unknown method or missing costs.
    """
    kind = lookup(record.method, _RECORD_KINDS)
    if record.instance_digest != instance_digest(original):
        raise DigestMismatchError(
            "randomization record was made for a different instance"
        )
    if solution is None:
        raise InvalidSolutionError("the answer carries no solution vector")
    return kind.check(solution, record.secret, original, costs)


def validate_solution(
    answer: ProviderAnswer, record: RandomizationRecord, original: CnfInstance
) -> tuple[bool, dict[int, bool] | None]:
    """Derandomize and check a claimed solution against the original.

    Returns ``(valid, assignment)``; any defect in the provider's vector —
    wrong length, unsatisfied clause after inversion — yields ``(False,
    None)`` rather than an exception, because provider misbehavior is data.
    A record whose digest does not match ``original`` raises
    :class:`DigestMismatchError`; an answer with no solution raises
    ValueError (caller bug, not provider behavior).
    """
    if answer.verdict != "solution":
        raise ValueError(f"answer verdict is {answer.verdict!r}, not a solution")
    if record.method not in DISGUISES:
        raise ValueError(
            f"records of method {record.method!r} are not validated against a "
            "bare CNF (use the objective-function derandomizer)"
        )
    try:
        assignment, _ = check_solution(record, answer.assignment, original)
    except InvalidSolutionError:
        return False, None
    return True, assignment


# ---------------------------------------------------------------------------
# Provider simulation
# ---------------------------------------------------------------------------

def _simulate_provider(
    behavior: str,
    disguise: Disguise,
    original: CnfInstance,
    artifact,
    secret,
    rng: random.Random,
) -> tuple[str, list[int] | None]:
    if behavior == "lazy":
        return "fail", None
    if behavior == "malicious-unsat":
        return "unsatisfiable", None
    vector = disguise.solve(original, artifact, secret)
    if vector is None:
        return "unsatisfiable", None
    if behavior == "malicious-corrupt":
        for pos in rng.sample(range(len(vector)), min(3, len(vector))):
            vector[pos] ^= 1
    return "solution", vector


def outsource(
    instance: CnfInstance,
    method: str = "iso",
    k_providers: int = 3,
    behaviors: list[str] | None = None,
    seed: int = 0,
) -> OutsourceReport:
    """Run the whole protocol round against ``k_providers`` simulated
    providers and settle the outcome.

    Each provider receives an independently-seeded randomization of
    ``instance``.  Consolidation: the first validated solution makes the
    verdict ``"sat"``; with no valid solution, at least one unsatisfiable
    claim makes it ``"unsat-consensus"``; all-fail is ``"inconclusive"``.
    Flags mark providers whose unsat/fail claim is contradicted by a
    validated solution, and providers whose claimed solution failed
    validation.  Payment: full for providers whose answer supports the
    final verdict (validated solution, or unsatisfiable under consensus),
    nothing otherwise.
    """
    if k_providers < 1:
        raise ValueError("need at least one provider")
    if behaviors is None:
        behaviors = ["honest"] * k_providers
    behaviors = [b.kind if isinstance(b, ProviderBehavior) else b for b in behaviors]
    if len(behaviors) != k_providers:
        raise ValueError("one behavior per provider required")
    for b in behaviors:
        if b not in BEHAVIOR_KINDS:
            raise ValueError(f"unknown behavior {b!r}")

    disguise = lookup(method)

    master = random.Random(seed)
    seeds = [master.getrandbits(32) for _ in range(k_providers)]
    records, artifacts, answers = [], [], []
    for i in range(k_providers):
        artifact, secret = disguise.randomize(instance, seeds[i])
        records.append(make_record(method, secret, instance, seeds[i]))
        artifacts.append(artifact)
        start = time.perf_counter()
        verdict, vector = _simulate_provider(
            behaviors[i], disguise, instance, artifact, secret,
            random.Random(seeds[i] ^ 0xC0FFEE),
        )
        answers.append(
            ProviderAnswer(i, verdict, vector, time.perf_counter() - start)
        )

    validity: list[bool | None] = []
    assignments: list[dict[int, bool] | None] = []
    for answer, record in zip(answers, records):
        if answer.verdict == "solution":
            ok, assignment = validate_solution(answer, record, instance)
            validity.append(ok)
            assignments.append(assignment)
        else:
            validity.append(None)
            assignments.append(None)

    any_valid = any(v is True for v in validity)
    if any_valid:
        verdict = "sat"
        solution = next(a for v, a in zip(validity, assignments) if v)
    elif any(a.verdict == "unsatisfiable" for a in answers):
        verdict = "unsat-consensus"
        solution = None
    else:
        verdict = "inconclusive"
        solution = None

    providers = []
    for answer, behavior, valid in zip(answers, behaviors, validity):
        contradicted = any_valid and answer.verdict in ("unsatisfiable", "fail")
        fraudulent = valid is False
        if valid:
            payment = "paid-full"
        elif verdict == "unsat-consensus" and answer.verdict == "unsatisfiable":
            payment = "paid-full"
        else:
            payment = "paid-none"
        providers.append(
            ProviderReport(
                answer.provider_id, behavior, answer.verdict, valid,
                contradicted or fraudulent, payment, answer.elapsed,
            )
        )
    return OutsourceReport(verdict, solution, providers, records, artifacts)


def render_report(report: OutsourceReport) -> str:
    lines = [f"verdict: {report.verdict}"]
    if report.solution is not None:
        lits = " ".join(
            str(v if val else -v) for v, val in sorted(report.solution.items())
        )
        lines.append(f"solution: {lits}")
    for p in report.providers:
        valid = "-" if p.valid is None else ("yes" if p.valid else "NO")
        flag = " FLAGGED" if p.flagged else ""
        lines.append(
            f"provider {p.provider_id} [{p.behavior}]: verdict={p.verdict} "
            f"valid={valid} payment={p.payment} "
            f"elapsed={p.elapsed * 1000.0:.1f}ms{flag}"
        )
    flagged = sum(1 for p in report.providers if p.flagged)
    lines.append(f"flagged: {flagged} of {len(report.providers)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Secret / record serialization
# ---------------------------------------------------------------------------

def record_to_json(record: RandomizationRecord) -> str:
    """The key-file text of a record, in format :data:`KEY_FORMAT`, as one
    line of compact JSON.  ValueError for an unknown method, TypeError if
    the secret is not of the class its method writes."""
    kind = lookup(record.method, _RECORD_KINDS)
    if not isinstance(record.secret, kind.secret_type):
        raise TypeError(
            f"method {record.method!r} cannot write a secret of type "
            f"{type(record.secret).__name__}"
        )
    obj = {
        "format": KEY_FORMAT,
        "method": record.method,
        "secret": {"type": kind.tag, **kind.to_obj(record.secret)},
        "instance_digest": record.instance_digest,
        "seed": record.seed,
    }
    return json.dumps(obj, separators=(",", ":")) + "\n"


def record_from_json(text: str) -> RandomizationRecord:
    """Read a key file of format 1 (no ``format`` field) or 2.  Raises
    ValueError naming the problem if it is not JSON, has another format,
    lacks a field, holds a secret that does not fit its method, or gives a
    field a value of the wrong type."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("key file is not a JSON object")
    key_format = obj.get("format", 1)
    if type(key_format) is not int or key_format not in (1, KEY_FORMAT):
        raise ValueError(f"key file field 'format' must be 1 or {KEY_FORMAT}, "
                         f"not {key_format!r}")
    for name in ("method", "secret", "instance_digest", "seed"):
        if name not in obj:
            raise ValueError(f"key file lacks field {name!r}")
    if not isinstance(obj["instance_digest"], str):
        raise ValueError("key file field 'instance_digest' must be a string")
    if type(obj["seed"]) is not int:
        raise ValueError("key file field 'seed' must be an integer")
    kind = lookup(obj["method"], _RECORD_KINDS)
    secret = obj["secret"]
    tag = secret.get("type") if isinstance(secret, dict) else None
    if tag != kind.tag:
        raise ValueError(
            f"secret of type {tag!r} does not fit method {obj['method']!r}"
        )
    try:
        secret = kind.from_obj(secret, key_format)
    except KeyError as exc:
        raise ValueError(f"{kind.tag} secret lacks field {exc.args[0]!r}") from None
    return RandomizationRecord(
        obj["method"],
        secret,
        obj["instance_digest"],
        obj["seed"],
    )
