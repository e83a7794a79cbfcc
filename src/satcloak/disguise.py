"""The disguises a CNF instance can be outsourced under, in one table.

Each entry of :data:`DISGUISES`, keyed by its library name, owns what
differs between disguises: randomizing (on the exactly-3CNF form where it
needs one), the artifact's text and file suffix, mapping an answer back and
checking it against the original, the forward map a truthful provider's
answer comes from, and its secret's key-file form.  The CLI, the
outsourcing simulation and the Mincost wrapper look entries up here.
"""

from __future__ import annotations

from dataclasses import fields
from typing import get_origin, get_type_hints

from .cnf import CnfInstance, InvalidSolutionError, emit_dimacs, to_three_cnf
from .gf2 import BitMatrix
from .isomorph import IsoSecret, iso_derandomize, iso_forward, iso_randomize
from .matrixrand import (
    MatrixSecret,
    complete_solution,
    emit_opb,
    encode_linear,
    randomize_system,
)
from .oracles import brute_sat
from .solsetrand import GfSecret, gf_derandomize, gf_forward, gf_randomize

__all__ = [
    "Disguise",
    "SolutionShapeError",
    "DISGUISES",
    "MINCOST_INNER",
    "CLI_NAMES",
    "lookup",
]


class SolutionShapeError(InvalidSolutionError, ValueError):
    """A solution of the wrong length, or missing a variable: provider data
    like any failed check, and still a ValueError to callers that treat a
    malformed vector as one."""


def _values(solution, n: int, length: int | None = None) -> dict[int, bool]:
    """Variables ``1..n`` of a 0/1 vector or an assignment dict.  A vector
    may run past ``n`` (dummies follow) unless ``length`` fixes its length."""
    if isinstance(solution, dict):
        missing = [v for v in range(1, n + 1) if v not in solution]
        if missing:
            raise SolutionShapeError(f"solution is missing variable {missing[0]}")
        return {v: bool(solution[v]) for v in range(1, n + 1)}
    if length is not None and len(solution) != length:
        raise SolutionShapeError(
            f"solution has {len(solution)} coordinates, expected {length}"
        )
    if len(solution) < n:
        raise SolutionShapeError(
            f"solution has {len(solution)} coordinates, expected at least {n}"
        )
    return {v: bool(solution[v - 1]) for v in range(1, n + 1)}


def _no_row_weight(tag: str, row_weight) -> None:
    if row_weight is not None:
        raise ValueError(f"row weight shapes only the gf2 disguise, not {tag}")


def _vector(assignment: dict[int, bool], num_vars: int) -> list[int]:
    return [1 if assignment[v] else 0 for v in range(1, num_vars + 1)]


class Disguise:
    """One way to disguise a CNF instance.

    Its *source* is the instance it is applied to: the original, or the
    exactly-3CNF form of it.  ``tag`` names it on the command line
    (``--method``) and in key files.  ``mincost`` says whether the Mincost
    wrapper can use it: variables the wrapper names must keep their indices
    in the artifact.  Each entry defines ``randomize_source(source, seed,
    row_weight, fixed_vars)``, ``emit(artifact)``, ``decode(solution,
    secret)`` (the unchecked assignment of the source's variables behind a
    0/1 vector or assignment dict, raising :class:`SolutionShapeError`) and
    ``forward(model, secret, source)`` (a vector solving the artifact).
    """

    name: str  # library name; also the method of its records
    tag: str
    secret_type: type
    suffix: str  # artifact file suffix
    mincost = True
    emit = staticmethod(emit_dimacs)

    def source(self, original: CnfInstance) -> CnfInstance:
        return to_three_cnf(original)[0]

    def randomize(self, original: CnfInstance, seed: int, row_weight=None):
        """``(artifact, secret)``.  ``row_weight`` shapes only the GF(2)
        disguise; the other entries raise ValueError if it is given."""
        return self.randomize_source(self.source(original), seed, row_weight)

    def check(self, solution, secret, original: CnfInstance, costs=None):
        """Derandomize a solution of the artifact and validate it:
        ``(assignment, None)``, as a plain disguise carries no cost function.

        Raises :class:`InvalidSolutionError` if the assignment fails the
        source, and ValueError if ``original`` is not the secret's instance.
        """
        source = self.source(original)
        x = self.decode(solution, secret)
        if len(x) != source.num_vars:
            raise ValueError("original instance does not match secret")
        if not source.satisfies(x):
            raise InvalidSolutionError(
                "derandomized assignment does not satisfy the original instance"
            )
        return {v: x[v] for v in range(1, original.num_vars + 1)}, None

    def solve(self, original: CnfInstance, artifact, secret):
        """A truthful provider's vector solving the artifact, or None if there
        is none.  The exhaustive oracle solves the source, whose model is
        mapped forward: the artifact has more variables to enumerate."""
        source = self.source(original)
        res = brute_sat(source)
        if not res.satisfiable:
            return None
        return self.forward(res.assignment, secret, source)

    def to_obj(self, secret) -> dict:
        """Key-file form of the secret: its fields in order.  The record
        writes its ``type`` tag in front, so a Mincost key's inner secret,
        whose disguise the Mincost ``method`` names, carries none."""
        obj = {}
        for f in fields(secret):
            value = getattr(secret, f.name)
            if isinstance(value, BitMatrix):
                value = {"rows": value.rows, "cols": value.cols,
                         "bits": value.to_strings()}
            elif isinstance(value, frozenset):
                value = sorted(value)
            obj[f.name] = value
        return obj

    def from_obj(self, obj: dict):
        """The secret a key-file dict describes.  KeyError for a missing
        field, ValueError naming the field for a value of the wrong type."""
        args = {}
        for name, hint in get_type_hints(self.secret_type).items():
            try:
                args[name] = _field_from_obj(obj[name], hint)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{self.tag} secret field {name!r}: {exc}") from None
        return self.secret_type(**args)


def _field_from_obj(value, hint):
    """A secret field from its key-file form: a bit matrix object, a
    non-negative integer (every integer field is a count), or a list of
    integers for a list or frozenset field."""
    if hint is BitMatrix:
        return BitMatrix.from_strings(value["rows"], value["cols"], value["bits"])
    container = get_origin(hint)
    if container is None:
        if type(value) is not int:
            raise ValueError(f"expected an integer, not {type(value).__name__}")
        if value < 0:
            raise ValueError("must not be negative")
        return value
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise ValueError("expected a list of integers")
    return container(value)


class _Iso(Disguise):
    name = tag = "iso"
    secret_type = IsoSecret
    suffix = ".rand.cnf"
    mincost = False  # it moves every variable

    def source(self, original):
        return original

    def randomize_source(self, source, seed, row_weight=None, fixed_vars=frozenset()):
        _no_row_weight(self.tag, row_weight)
        return iso_randomize(source, seed)

    def decode(self, solution, secret):
        n = len(secret.permutation)
        return iso_derandomize(_values(solution, n, n), secret)

    def forward(self, model, secret, source):
        return _vector(iso_forward(model, secret), source.num_vars)

    def solve(self, original, artifact, secret):
        # The artifact is no larger than the original, so the provider
        # solves it directly, and which model it finds follows the artifact.
        res = brute_sat(artifact)
        if not res.satisfiable:
            return None
        return _vector(res.assignment, artifact.num_vars)


class _Matrix(Disguise):
    name = tag = "matrix"
    secret_type = MatrixSecret
    suffix = ".rand.opb"
    emit = staticmethod(emit_opb)

    def randomize_source(self, source, seed, row_weight=None, fixed_vars=frozenset()):
        _no_row_weight(self.tag, row_weight)
        # R mixes equations, never variables, so fixed_vars hold already.
        return randomize_system(encode_linear(source), seed)

    def decode(self, solution, secret):
        length = secret.original_n + 2 * secret.num_constraints
        return _values(solution, secret.original_n, length)

    def from_obj(self, obj: dict):
        # Keys written before the count was kept list one negation count
        # per constraint instead; their number is the count.
        if "num_constraints" not in obj and isinstance(
            obj.get("negation_constants"), list
        ):
            obj = {**obj, "num_constraints": len(obj["negation_constants"])}
        return super().from_obj(obj)

    def forward(self, model, secret, source):
        return complete_solution(source, model)


class _SolutionSet(Disguise):
    name = "solution_set"
    tag = "gf2"
    secret_type = GfSecret
    suffix = ".rand.cnf"

    def randomize_source(self, source, seed, row_weight=None, fixed_vars=frozenset()):
        return gf_randomize(source, seed, row_weight, fixed_vars)

    def decode(self, solution, secret):
        return gf_derandomize(_values(solution, secret.original_n), secret)

    def forward(self, model, secret, source):
        full = gf_forward(model, secret, source)
        return _vector(full, len(full))


DISGUISES = {d.name: d for d in (_Iso(), _Matrix(), _SolutionSet())}
MINCOST_INNER = {name: d for name, d in DISGUISES.items() if d.mincost}
CLI_NAMES = {d.tag: d for d in DISGUISES.values()}


def lookup(name: str, table: dict = DISGUISES):
    """The entry of ``table`` named ``name``; ValueError if there is none."""
    if not isinstance(name, str):
        raise ValueError(f"method must be a string, not {type(name).__name__}")
    try:
        return table[name]
    except KeyError:
        raise ValueError(f"unknown method {name!r} ({', '.join(table)})") from None
