"""Command-line front door for the randomization toolkit.

Every pipeline is a subcommand; all outputs are plain files in the
documented formats (.cnf DIMACS, .opb linear systems, .fw policies,
.key JSON secrets, .sol assignments as signed literals).  Secrets never
ride along with emitted instances — the artifact file is exactly what an
untrusted provider would receive.

Exit codes: 0 success, 1 usage/format error, 2 validation failure
(fraudulent solution, digest mismatch) so scripts can tell fraud from
their own mistakes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .cnf import (
    DimacsError,
    InvalidSolutionError,
    emit_dimacs,
    parse_dimacs,
    to_three_cnf,
)
from .firewall import (
    HeaderLayout,
    FieldMappingSecret,
    equivalence_cnf,
    map_fields,
    emit_policy,
    parse_policy,
)
from .disguise import CLI_NAMES, MINCOST_INNER
from .matrixrand import parse_opb
from .objective import (
    MINCOST,
    Max3SatInstance,
    MincostInstance,
    emit_cost_sidecar,
    max3sat_to_mincost,
    parse_cost_sidecar,
    randomize_mincost,
)
from .oracles import brute_linear, brute_sat, restricted_sat
from .orchestrator import (
    DigestMismatchError,
    check_solution,
    make_record,
    outsource,
    record_from_json,
    record_to_json,
    render_report,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; our taxonomy reserves 2
    # for validation failures, so route usage errors to exit code 1.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    return Path(path).read_text(encoding="ascii")


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="ascii")


def _stem(path: str) -> str:
    p = Path(path)
    return str(p.parent / p.stem)


def _read_solution(path: str) -> dict[int, bool]:
    """First assignment line of a .sol file: signed literals, every
    variable mentioned exactly once.  A file of blank lines is the empty
    assignment, as ``solve-brute --out`` writes it for zero variables."""
    lines = _read(path).splitlines()
    if lines and not any(line.strip() for line in lines):
        return {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        sol: dict[int, bool] = {}
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer token {tok!r}") from exc
            if lit == 0:
                raise ValueError(f"{path}:{lineno}: literal 0 is not allowed")
            if abs(lit) in sol:
                raise ValueError(f"{path}:{lineno}: variable {abs(lit)} repeated")
            sol[abs(lit)] = lit > 0
        return sol
    raise ValueError(f"{path}: no assignment line found")


def _solution_vector(sol: dict[int, bool]) -> list[int]:
    # The variables are distinct and positive, so they are 1..n exactly
    # when the largest is their count n; else one of 1..n is missing.
    n = len(sol)
    if max(sol, default=0) != n:
        missing = next(v for v in range(1, n + 1) if v not in sol)
        raise ValueError(f"solution line is missing variable {missing}")
    return [1 if sol[v] else 0 for v in range(1, n + 1)]


def _assignment_line(assignment: dict[int, bool]) -> str:
    return " ".join(str(v if val else -v) for v, val in sorted(assignment.items()))


def _parse_layout(text: str) -> HeaderLayout:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(
            f"layout must be four comma-separated bit widths, got {text!r}"
        )
    try:
        widths = [int(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"non-integer width in layout {text!r}") from exc
    return HeaderLayout(*widths)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_randomize(args) -> int:
    instance = parse_dimacs(_read(args.infile))
    instance.validate()
    disguise = CLI_NAMES[args.method]
    artifact, secret = disguise.randomize(instance, args.seed, args.row_weight)
    base = _stem(args.infile)
    out = args.out or base + disguise.suffix
    _write(out, disguise.emit(artifact))
    keyfile = args.secret or base + ".key"
    record = make_record(disguise.name, secret, instance, args.seed)
    _write(keyfile, record_to_json(record))
    print(f"wrote {out} and {keyfile}")
    return 0


def _checked_solution(args) -> tuple[dict[int, bool], int | None]:
    """Derandomize ``--solution`` with the ``--secret`` key and validate it
    against ``--original`` (and ``--costs``): ``(assignment, cost)``, the
    cost None unless the key is a Mincost one."""
    record = record_from_json(_read(args.secret))
    original = parse_dimacs(_read(args.original))
    costs = parse_cost_sidecar(_read(args.costs)) if args.costs else None
    vector = _solution_vector(_read_solution(args.solution))
    return check_solution(record, vector, original, costs)


def _cmd_derandomize(args) -> int:
    assignment, cost = _checked_solution(args)
    if cost is not None:
        print(f"cost {cost}")
    line = _assignment_line(assignment)
    if args.out:
        _write(args.out, line + "\n")
    print(line)
    return 0


def _cmd_to3cnf(args) -> int:
    instance = parse_dimacs(_read(args.infile))
    instance.validate()
    three, _ = to_three_cnf(instance)
    out = args.out or _stem(args.infile) + ".3cnf.cnf"
    _write(out, emit_dimacs(three))
    print(f"wrote {out}: {three.num_vars} vars, {three.num_clauses} clauses")
    return 0


def _cmd_mincost_randomize(args) -> int:
    cnf = parse_dimacs(_read(args.infile))
    inst = MincostInstance(cnf, parse_cost_sidecar(_read(args.costs)))
    disguise = CLI_NAMES[args.method]
    artifact, secret = randomize_mincost(
        inst, args.seed, method=disguise.name, row_weight=args.row_weight
    )
    base = _stem(args.infile)
    out = args.out or base + disguise.suffix
    _write(out, disguise.emit(artifact.inner))
    costs_out = args.costs_out or base + ".rand.wts"
    _write(costs_out, emit_cost_sidecar(artifact.costs))
    keyfile = args.secret or base + ".key"
    _write(keyfile, record_to_json(make_record(MINCOST.name, secret, cnf, args.seed)))
    print(f"wrote {out}, {costs_out} and {keyfile}")
    return 0


def _cmd_max3sat_reduce(args) -> int:
    cnf = parse_dimacs(_read(args.infile))
    reduced, offset = max3sat_to_mincost(Max3SatInstance(cnf))
    base = _stem(args.infile)
    out = args.out or base + ".mincost.cnf"
    costs_out = args.costs_out or base + ".mincost.wts"
    _write(out, emit_dimacs(reduced.cnf))
    _write(costs_out, emit_cost_sidecar(reduced.costs))
    print(f"wrote {out} and {costs_out}")
    print(f"offset {offset}")
    return 0


def _cmd_fw_encode(args) -> int:
    layout = _parse_layout(args.layout)
    p1 = parse_policy(_read(args.p1))
    p2 = parse_policy(_read(args.p2))
    cnf = equivalence_cnf(p1, p2, layout)
    out = args.out or _stem(args.p1) + ".eq.cnf"
    # The header-bits comment lets solve-brute decide satisfiability by
    # enumerating packet headers instead of all CNF variables.
    _write(out, f"c header-bits {layout.total_bits}\n" + emit_dimacs(cnf))
    print(f"wrote {out}: {cnf.num_vars} vars, {cnf.num_clauses} clauses, "
          f"{layout.total_bits} header bits")
    return 0


def _cmd_fw_map(args) -> int:
    layout = _parse_layout(args.layout)
    policy = parse_policy(_read(args.infile))
    if args.use_secret:
        secret = FieldMappingSecret.from_json(_read(args.use_secret))
        mapped, secret = map_fields(policy, secret=secret, layout=layout)
    else:
        if args.seed is None:
            raise ValueError("either --seed or --use-secret is required")
        mapped, secret = map_fields(policy, args.seed, layout=layout)
    base = _stem(args.infile)
    out = args.out or base + ".mapped.fw"
    _write(out, emit_policy(mapped))
    keyfile = args.secret or base + ".key"
    _write(keyfile, secret.to_json())
    print(f"wrote {out} and {keyfile}")
    return 0


_HEADER_HINT = "c header-bits "


def _cmd_solve_brute(args) -> int:
    if args.infile.endswith(".opb"):
        sys_ = parse_opb(_read(args.infile))
        res = brute_linear(sys_, var_limit=args.var_limit)
        if not res.feasible:
            print("UNSAT count=0")
            return 0
        print(f"SAT count={res.count}")
        if args.out:
            line = " ".join(
                str(v if bit else -v)
                for v, bit in enumerate(res.vector, start=1)
            )
            _write(args.out, line + "\n")
        return 0
    text = _read(args.infile)
    instance = parse_dimacs(text)
    instance.validate()
    header_bits = None
    for line in text.splitlines():
        if line.startswith(_HEADER_HINT):
            token = line[len(_HEADER_HINT):].strip()
            header_bits = int(token) if token.isascii() and token.isdigit() else -1
            if not 0 <= header_bits <= instance.num_vars:
                raise ValueError(
                    f"comment {line.strip()!r}: header bits must be an integer "
                    f"from 0 to the variable count, {instance.num_vars}"
                )
            break
    if header_bits is not None and instance.num_vars > args.var_limit:
        if header_bits > 20:
            raise ValueError(
                f"{header_bits} header bits is beyond brute-force range"
            )
        count = 0
        witness = None
        for header in range(1 << header_bits):
            partial = {
                v: bool((header >> (header_bits - v)) & 1)
                for v in range(1, header_bits + 1)
            }
            if restricted_sat(instance, partial):
                count += 1
                if witness is None:
                    witness = header
        if witness is None:
            print("UNSAT count=0")
        else:
            print(f"SAT count={count} header={witness}")
        return 0
    res = brute_sat(instance, var_limit=args.var_limit)
    if not res.satisfiable:
        print("UNSAT count=0")
        return 0
    print(f"SAT count={res.count}")
    if args.out:
        _write(args.out, _assignment_line(res.assignment) + "\n")
    return 0


def _cmd_outsource(args) -> int:
    instance = parse_dimacs(_read(args.infile))
    instance.validate()
    behaviors = [b.strip() for b in args.providers.split(",") if b.strip()]
    if not behaviors:
        raise ValueError("empty --providers specification")
    report = outsource(
        instance,
        method=CLI_NAMES[args.method].name,
        k_providers=len(behaviors),
        behaviors=behaviors,
        seed=args.seed,
    )
    print(render_report(report), end="")
    return 0


def _cmd_verify_solution(args) -> int:
    _, cost = _checked_solution(args)
    print("valid" if cost is None else f"valid cost={cost}")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="satcloak",
        description="Randomize SAT-family instances for privacy-preserving "
        "outsourcing, and undo or verify the results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("randomize", help="randomize a CNF instance")
    p.add_argument("--method", choices=sorted(CLI_NAMES), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.add_argument("--secret", help="key file to write (default <in>.key)")
    p.add_argument("--row-weight", type=int,
                   help="sparse substitution (gf2 only; an error with other methods)")
    p.set_defaults(func=_cmd_randomize)

    p = sub.add_parser("derandomize", help="map a provider solution back")
    p.add_argument("--secret", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--original", required=True)
    p.add_argument("--costs", help="cost sidecar (mincost records)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_derandomize)

    p = sub.add_parser("to3cnf", help="convert CNF to exactly-3CNF")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_to3cnf)

    p = sub.add_parser("mincost-randomize",
                       help="randomize a CNF + cost-function instance")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--costs", required=True, help="w <var> <cost> sidecar")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--method", default="matrix",
                   choices=[d.tag for d in MINCOST_INNER.values()])
    p.add_argument("--out")
    p.add_argument("--costs-out")
    p.add_argument("--secret")
    p.add_argument("--row-weight", type=int,
                   help="sparse substitution (gf2 only; an error with matrix)")
    p.set_defaults(func=_cmd_mincost_randomize)

    p = sub.add_parser("max3sat-reduce",
                       help="reduce MAX3SAT to a mincost instance")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.add_argument("--costs-out")
    p.set_defaults(func=_cmd_max3sat_reduce)

    p = sub.add_parser("fw-encode",
                       help="encode firewall-policy equivalence as CNF")
    p.add_argument("--p1", required=True)
    p.add_argument("--p2", required=True)
    p.add_argument("--layout", default="32,16,32,16",
                   help="bit widths: src_ip,src_port,dst_ip,dst_port")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fw_encode)

    p = sub.add_parser("fw-map", help="randomize policy field values")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--use-secret", help="reuse an existing mapping key file")
    p.add_argument("--layout", default="32,16,32,16")
    p.add_argument("--out")
    p.add_argument("--secret", help="key file to write (default <in>.key)")
    p.set_defaults(func=_cmd_fw_map)

    p = sub.add_parser("solve-brute", help="exhaustive solve (.cnf or .opb)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--var-limit", type=int, default=24)
    p.add_argument("--out", help="write a satisfying assignment (.sol)")
    p.set_defaults(func=_cmd_solve_brute)

    p = sub.add_parser("outsource", help="simulate a k-provider round")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--method", choices=sorted(CLI_NAMES), default="iso")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--providers", default="honest,honest,honest",
                   help="comma list of honest|lazy|malicious-unsat|malicious-corrupt")
    p.set_defaults(func=_cmd_outsource)

    p = sub.add_parser("verify-solution", help="check a provider solution")
    p.add_argument("--secret", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--original", required=True)
    p.add_argument("--costs")
    p.set_defaults(func=_cmd_verify_solution)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DigestMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidSolutionError as exc:
        print(f"error: solution failed validation: {exc}", file=sys.stderr)
        return 2
    except (DimacsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
