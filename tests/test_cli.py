"""End-to-end tests for the command-line interface.

Everything runs in-process through ``main(argv)`` so exit codes, stdout,
and written files can be checked without spawning subprocesses.
"""

import hashlib
import json
import tracemalloc

import pytest

from satcloak.cli import _solution_vector, main
from satcloak.cnf import parse_dimacs

SAT_CNF = "p cnf 3 2\n1 2 3 0\n-1 2 -3 0\n"
FORCED_CNF = "p cnf 2 2\n1 0\n2 0\n"  # unique model: both variables true


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def read_assignment(line):
    lits = [int(tok) for tok in line.split()]
    return {abs(lit): lit > 0 for lit in lits}


# ---------------------------------------------------------------------------
# randomize / solve-brute / derandomize round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", ["iso", "matrix", "gf2"])
def test_randomize_solve_derandomize(tmp_path, capsys, method):
    src = tmp_path / "orig.cnf"
    src.write_text(SAT_CNF)

    code, out, _ = run(
        capsys, "randomize", "--method", method, "--seed", "7", "--in", str(src)
    )
    assert code == 0
    suffix = ".rand.opb" if method == "matrix" else ".rand.cnf"
    artifact = tmp_path / ("orig" + suffix)
    key = tmp_path / "orig.key"
    assert artifact.exists() and key.exists()
    assert str(artifact) in out and str(key) in out

    sol = tmp_path / "answer.sol"
    code, out, _ = run(
        capsys, "solve-brute", "--in", str(artifact), "--out", str(sol)
    )
    assert code == 0
    assert out.startswith("SAT count=")

    code, out, _ = run(
        capsys,
        "derandomize",
        "--secret", str(key),
        "--solution", str(sol),
        "--original", str(src),
    )
    assert code == 0
    assignment = read_assignment(out)
    assert parse_dimacs(SAT_CNF).satisfies(assignment)


def test_randomize_is_deterministic(tmp_path, capsys):
    src = tmp_path / "orig.cnf"
    src.write_text(SAT_CNF)
    paths = []
    for tag in ("a", "b"):
        art = tmp_path / f"{tag}.cnf"
        key = tmp_path / f"{tag}.key"
        code, _, _ = run(
            capsys,
            "randomize", "--method", "gf2", "--seed", "11",
            "--in", str(src), "--out", str(art), "--secret", str(key),
        )
        assert code == 0
        paths.append((art, key))
    (art_a, key_a), (art_b, key_b) = paths
    assert art_a.read_bytes() == art_b.read_bytes()
    assert key_a.read_bytes() == key_b.read_bytes()


def test_derandomize_writes_out_file(tmp_path, capsys):
    src = tmp_path / "orig.cnf"
    src.write_text(FORCED_CNF)
    run(capsys, "randomize", "--method", "iso", "--seed", "1", "--in", str(src))
    sol = tmp_path / "good.sol"
    run(capsys, "solve-brute", "--in", str(tmp_path / "orig.rand.cnf"),
        "--out", str(sol))
    mapped = tmp_path / "mapped.sol"
    code, out, _ = run(
        capsys,
        "derandomize",
        "--secret", str(tmp_path / "orig.key"),
        "--solution", str(sol),
        "--original", str(src),
        "--out", str(mapped),
    )
    assert code == 0
    assert mapped.read_text() == out
    assert read_assignment(out) == {1: True, 2: True}


# ---------------------------------------------------------------------------
# fraud and mismatch detection
# ---------------------------------------------------------------------------

def test_derandomize_rejects_fraudulent_solution(tmp_path, capsys):
    src = tmp_path / "orig.cnf"
    src.write_text(FORCED_CNF)
    run(capsys, "randomize", "--method", "iso", "--seed", "5", "--in", str(src))
    good = tmp_path / "good.sol"
    run(capsys, "solve-brute", "--in", str(tmp_path / "orig.rand.cnf"),
        "--out", str(good))

    # The original has a unique model, so flipping any literal of the
    # provider's answer is guaranteed to break it.
    lits = [int(t) for t in good.read_text().split()]
    lits[0] = -lits[0]
    bad = tmp_path / "bad.sol"
    bad.write_text(" ".join(map(str, lits)) + "\n")

    for command in ("derandomize", "verify-solution"):
        code, _, err = run(
            capsys,
            command,
            "--secret", str(tmp_path / "orig.key"),
            "--solution", str(bad),
            "--original", str(src),
        )
        assert code == 2
        assert "failed validation" in err


def test_verify_solution_accepts_honest_answer(tmp_path, capsys):
    src = tmp_path / "orig.cnf"
    src.write_text(SAT_CNF)
    run(capsys, "randomize", "--method", "matrix", "--seed", "2", "--in", str(src))
    sol = tmp_path / "answer.sol"
    run(capsys, "solve-brute", "--in", str(tmp_path / "orig.rand.opb"),
        "--out", str(sol))
    code, out, _ = run(
        capsys,
        "verify-solution",
        "--secret", str(tmp_path / "orig.key"),
        "--solution", str(sol),
        "--original", str(src),
    )
    assert code == 0
    assert out == "valid\n"


def test_derandomize_digest_mismatch(tmp_path, capsys):
    src = tmp_path / "orig.cnf"
    src.write_text(SAT_CNF)
    run(capsys, "randomize", "--method", "iso", "--seed", "9", "--in", str(src))
    sol = tmp_path / "answer.sol"
    run(capsys, "solve-brute", "--in", str(tmp_path / "orig.rand.cnf"),
        "--out", str(sol))

    other = tmp_path / "other.cnf"
    other.write_text("p cnf 3 2\n1 2 3 0\n-1 2 3 0\n")
    code, _, err = run(
        capsys,
        "derandomize",
        "--secret", str(tmp_path / "orig.key"),
        "--solution", str(sol),
        "--original", str(other),
    )
    assert code == 2
    assert "different instance" in err


def _drop(obj, *path):
    for name in path[:-1]:
        obj = obj[name]
    del obj[path[-1]]


@pytest.mark.parametrize("command,method,mutate,fragment", [
    ("randomize", "matrix", lambda k: {"method": "iso"},
     "key file lacks field 'secret'"),
    ("randomize", "matrix", lambda k: _drop(k, "seed"), "key file lacks field 'seed'"),
    ("randomize", "matrix", lambda k: _drop(k, "secret", "num_constraints"),
     "matrix secret lacks field 'num_constraints'"),
    ("randomize", "matrix", lambda k: k.update(method="iso"),
     "secret of type 'matrix' does not fit method 'iso'"),
    ("randomize", "matrix", lambda k: k.update(method="mincost"),
     "secret of type 'matrix' does not fit method 'mincost'"),
    ("randomize", "matrix", lambda k: k.update(method="bogus"),
     "unknown method 'bogus'"),
    ("randomize", "matrix", lambda k: k.update(secret=[]),
     "secret of type None does not fit method 'matrix'"),
    ("randomize", "matrix", lambda k: [], "key file is not a JSON object"),
    ("mincost-randomize", "matrix", lambda k: _drop(k, "secret", "circuit", "tmap"),
     "mincost secret lacks field 'tmap'"),
    ("mincost-randomize", "matrix", lambda k: k["secret"].update(type="gf2"),
     "secret of type 'gf2' does not fit method 'mincost'"),
    ("randomize", "matrix", lambda k: k.update(method=["x"]),
     "method must be a string, not list"),
    ("randomize", "gf2", lambda k: k["secret"]["r_inv"].update(bits=5),
     "gf2 secret field 'r_inv': bit strings must be a list, not int"),
    ("randomize", "gf2", lambda k: k["secret"]["r_inv"]["bits"].__setitem__(0, 5),
     "gf2 secret field 'r_inv': bad bit string 5"),
    ("randomize", "iso", lambda k: k.update(instance_digest=5),
     "key file field 'instance_digest' must be a string"),
    ("randomize", "iso", lambda k: k.update(seed="x"),
     "key file field 'seed' must be an integer"),
    ("randomize", "gf2", lambda k: k["secret"].update(r_inv=5),
     "gf2 secret field 'r_inv': "),
    ("mincost-randomize", "matrix", lambda k: k["secret"].update(method=["x"]),
     "method must be a string, not list"),
    ("randomize", "iso", lambda k: k["secret"].update(permutation=5),
     "iso secret field 'permutation': expected a list of integers"),
    ("randomize", "matrix", lambda k: k["secret"].update(original_n="3"),
     "matrix secret field 'original_n': expected an integer, not str"),
    ("mincost-randomize", "matrix",
     lambda k: k["secret"]["circuit"].update(output_bits=5),
     "mincost secret field 'circuit.output_bits': expected a list of integers"),
    ("mincost-randomize", "matrix", lambda k: k["secret"]["circuit"].update(tmap=5),
     "mincost secret field 'circuit.tmap': expected an object, not int"),
    ("mincost-randomize", "matrix",
     lambda k: k["secret"]["circuit"]["tmap"]["gates"][0].__setitem__(1, "nand"),
     "mincost secret field 'circuit.tmap.gates': expected a list of "),
    ("mincost-randomize", "matrix", lambda k: k["secret"].update(circuit=[]),
     "mincost secret field 'circuit': expected an object, not list"),
    ("mincost-randomize", "matrix",
     lambda k: k["secret"]["circuit"].update(output_bits=[99999]),
     "mincost secret field 'circuit.output_bits': bits must lie in 1..4"),
    ("mincost-randomize", "matrix",
     lambda k: k["secret"]["circuit"]["output_bits"].__setitem__(0, 99999),
     "mincost secret field 'circuit.output_bits': bits must lie in 1..4"),
    ("mincost-randomize", "matrix",
     lambda k: k["secret"]["circuit"]["tmap"].update(num_vars=1000000),
     "mincost secret field 'circuit.tmap.num_vars': must lie in 3.."),
    ("mincost-randomize", "matrix",
     lambda k: k["secret"]["circuit"]["tmap"]["gates"][0].__setitem__(2, [999]),
     "mincost secret field 'circuit.tmap.gates': a gate input must be a "
     "variable below its gate"),
    ("mincost-randomize", "matrix",
     lambda k: k["secret"]["circuit"].update(output_bits=[]),
     "mincost secret field 'circuit.output_bits': must not be empty"),
    ("mincost-randomize", "matrix",
     lambda k: _drop(k, "secret", "circuit", "tmap", "gates", 0),
     "mincost secret field 'circuit.tmap.gates': gate ids must run 4..4 in order"),
    ("mincost-randomize", "matrix",
     lambda k: k["secret"]["circuit"]["tmap"]["gates"].__setitem__(0, [4, "xor", [1]]),
     "mincost secret field 'circuit.tmap.gates': an xor gate must have exactly "
     "two inputs"),
    # A negative count is a malformed key, not a fraudulent answer.
    ("randomize", "matrix", lambda k: k["secret"].update(original_n=-1),
     "matrix secret field 'original_n': must not be negative"),
    ("randomize", "gf2", lambda k: k["secret"].update(original_n=-1),
     "gf2 secret field 'original_n': must not be negative"),
    ("randomize", "matrix", lambda k: k["secret"].update(num_constraints=-1),
     "matrix secret field 'num_constraints': must not be negative"),
    ("mincost-randomize", "matrix",
     lambda k: k["secret"]["circuit"]["tmap"].update(num_input_vars=-1),
     "mincost secret field 'circuit.tmap.num_input_vars': must not be negative"),
], ids=["only-method", "no-seed", "no-secret-field", "matrix-as-iso",
        "matrix-as-mincost", "unknown-method", "secret-not-object", "not-object",
        "mincost-nested-field", "mincost-as-gf2", "method-not-string",
        "bits-not-list", "row-not-string", "digest-not-string", "seed-not-int",
        "matrix-not-object",
        "mincost-inner-method-not-string", "list-field-not-list",
        "int-field-not-int", "mincost-output-bits-not-list",
        "mincost-tmap-not-object", "mincost-unknown-gate-op",
        "mincost-circuit-not-object",
        "mincost-output-bits-count", "mincost-output-bit-range",
        "mincost-tmap-num-vars-range", "mincost-gate-input-range",
        "mincost-output-bits-empty", "mincost-gate-missing", "mincost-xor-arity",
        "matrix-original-n-negative", "gf2-original-n-negative",
        "num-constraints-negative", "mincost-num-input-vars-negative"])
def test_malformed_key_exits_1(tmp_path, capsys, command, method, mutate, fragment):
    src = tmp_path / "orig.cnf"
    src.write_text(SAT_CNF)
    costs = tmp_path / "orig.wts"
    costs.write_text("w 1 1\n")
    extra = ["--costs", str(costs)] if command == "mincost-randomize" else []
    run(capsys, command, "--method", method, "--seed", "7", "--in", str(src),
        *extra)
    key = tmp_path / "orig.key"
    obj = json.loads(key.read_text())
    replaced = mutate(obj)
    key.write_text(json.dumps(obj if replaced is None else replaced))
    sol = tmp_path / "answer.sol"
    sol.write_text("1 2 3\n")
    for verb in ("derandomize", "verify-solution"):
        code, out, err = run(
            capsys, verb, "--secret", str(key), "--solution", str(sol),
            "--original", str(src), *extra,
        )
        assert code == 1
        assert out == ""
        assert f"error: {fragment}" in err


# ---------------------------------------------------------------------------
# error taxonomy: usage and format problems exit 1
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    [],
    ["no-such-command"],
    ["randomize", "--method", "bogus", "--seed", "1", "--in", "x.cnf"],
    ["randomize", "--in", "x.cnf"],  # missing required --seed/--method
])
def test_usage_errors_exit_1(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 1


def test_missing_input_file(tmp_path, capsys):
    code, _, err = run(
        capsys, "randomize", "--method", "iso", "--seed", "1",
        "--in", str(tmp_path / "nope.cnf"),
    )
    assert code == 1
    assert "error:" in err


def test_malformed_dimacs(tmp_path, capsys):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 2\n1 0\n")
    code, _, err = run(capsys, "to3cnf", "--in", str(bad))
    assert code == 1
    assert "error:" in err


def test_far_variable_is_found_missing_without_walking_to_it():
    # "1 -2 N": variable 3 is missing whatever N is, and finding it must
    # not cost memory that grows with N.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="missing variable 3$"):
            _solution_vector({1: True, 2: False, 10**6: True})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("text,fragment", [
    ("1 0 2\n", "literal 0"),
    ("1 -1\n", "repeated"),
    ("1 3\n", "missing variable 2"),
    ("1 -2 1000000000000\n", "missing variable 3"),
    ("", "no assignment line"),
    ("1 x\n", "non-integer"),
])
def test_solution_file_errors(tmp_path, capsys, text, fragment):
    src = tmp_path / "orig.cnf"
    src.write_text(FORCED_CNF)
    run(capsys, "randomize", "--method", "iso", "--seed", "3", "--in", str(src))
    sol = tmp_path / "weird.sol"
    sol.write_text(text)
    code, _, err = run(
        capsys,
        "derandomize",
        "--secret", str(tmp_path / "orig.key"),
        "--solution", str(sol),
        "--original", str(src),
    )
    assert code == 1
    assert fragment in err


# ---------------------------------------------------------------------------
# conversion commands
# ---------------------------------------------------------------------------

def test_to3cnf(tmp_path, capsys):
    src = tmp_path / "wide.cnf"
    src.write_text("p cnf 5 1\n1 2 3 4 5 0\n")
    code, out, _ = run(capsys, "to3cnf", "--in", str(src))
    assert code == 0
    assert "7 vars, 3 clauses" in out
    three = parse_dimacs((tmp_path / "wide.3cnf.cnf").read_text())
    assert all(len(c) == 3 for c in three.clauses)


def test_max3sat_reduce(tmp_path, capsys):
    src = tmp_path / "maxsat.cnf"
    src.write_text("p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n")
    code, out, _ = run(capsys, "max3sat-reduce", "--in", str(src))
    assert code == 0
    assert "offset 2" in out
    reduced = parse_dimacs((tmp_path / "maxsat.mincost.cnf").read_text())
    assert reduced.num_vars == 5
    assert reduced.num_clauses == 8
    wts = (tmp_path / "maxsat.mincost.wts").read_text()
    assert "w 4 1" in wts and "w 5 1" in wts


# ---------------------------------------------------------------------------
# mincost pipeline
# ---------------------------------------------------------------------------

def test_mincost_round_trip(tmp_path, capsys):
    src = tmp_path / "task.cnf"
    src.write_text("p cnf 2 1\n1 2 0\n")
    costs = tmp_path / "task.wts"
    costs.write_text("w 1 1\nw 2 1\n")

    code, out, _ = run(
        capsys,
        "mincost-randomize",
        "--in", str(src), "--costs", str(costs),
        "--seed", "3", "--method", "matrix",
    )
    assert code == 0
    artifact = tmp_path / "task.rand.opb"
    assert artifact.exists()
    assert (tmp_path / "task.rand.wts").exists()

    sol = tmp_path / "provider.sol"
    code, out, _ = run(
        capsys, "solve-brute", "--in", str(artifact),
        "--var-limit", "44", "--out", str(sol),
    )
    assert code == 0
    assert out.startswith("SAT count=")

    code, out, _ = run(
        capsys,
        "derandomize",
        "--secret", str(tmp_path / "task.key"),
        "--solution", str(sol),
        "--original", str(src),
        "--costs", str(costs),
    )
    assert code == 0
    cost_line, assignment_line = out.splitlines()
    cost = int(cost_line.split()[1])
    assignment = read_assignment(assignment_line)
    assert parse_dimacs(src.read_text()).satisfies(assignment)
    assert cost == sum(1 for v in (1, 2) if assignment[v])

    code, out, _ = run(
        capsys,
        "verify-solution",
        "--secret", str(tmp_path / "task.key"),
        "--solution", str(sol),
        "--original", str(src),
        "--costs", str(costs),
    )
    assert code == 0
    assert out == f"valid cost={cost}\n"


# A clause-free instance encodes to a system without constraints, which the
# matrix disguise multiplies by the 0 x 0 identity.

@pytest.mark.parametrize("method,suffix", [
    ("iso", ".rand.cnf"), ("matrix", ".rand.opb"), ("gf2", ".rand.cnf"),
])
def test_zero_variable_round_trip(tmp_path, capsys, method, suffix):
    # solve-brute writes the empty assignment as a blank line, which reads
    # back as the empty assignment.
    src = tmp_path / "none.cnf"
    src.write_text("p cnf 0 0\n")
    code, _, _ = run(capsys, "randomize", "--method", method, "--seed", "1",
                     "--in", str(src))
    assert code == 0
    sol = tmp_path / "none.sol"
    code, out, _ = run(capsys, "solve-brute", "--in",
                       str(tmp_path / ("none" + suffix)), "--out", str(sol))
    assert (code, out, sol.read_text()) == (0, "SAT count=1\n", "\n")
    argv = ["--secret", str(tmp_path / "none.key"), "--solution", str(sol),
            "--original", str(src)]
    assert run(capsys, "derandomize", *argv)[:2] == (0, "\n")
    assert run(capsys, "verify-solution", *argv)[:2] == (0, "valid\n")


def test_matrix_randomize_of_a_clause_free_instance(tmp_path, capsys):
    src = tmp_path / "free.cnf"
    src.write_text("p cnf 3 0\n")
    code, _, _ = run(capsys, "randomize", "--method", "matrix", "--seed", "1",
                     "--in", str(src))
    assert code == 0
    assert (tmp_path / "free.rand.opb").read_text().startswith(
        "* #variable= 3 #constraint= 0\n")
    sol = tmp_path / "free.sol"
    code, out, _ = run(capsys, "solve-brute", "--in",
                       str(tmp_path / "free.rand.opb"), "--out", str(sol))
    assert (code, out) == (0, "SAT count=8\n")
    code, out, _ = run(capsys, "verify-solution", "--secret",
                       str(tmp_path / "free.key"), "--solution", str(sol),
                       "--original", str(src))
    assert (code, out) == (0, "valid\n")


def test_mincost_matrix_randomize_of_a_clause_free_instance(tmp_path, capsys):
    src = tmp_path / "task.cnf"
    src.write_text("p cnf 1 0\n")
    costs = tmp_path / "task.wts"
    costs.write_text("w 1 1\n")
    code, _, _ = run(capsys, "mincost-randomize", "--method", "matrix",
                     "--seed", "1", "--in", str(src), "--costs", str(costs))
    assert code == 0
    sol = tmp_path / "task.sol"
    code, out, _ = run(capsys, "solve-brute", "--in",
                       str(tmp_path / "task.rand.opb"), "--out", str(sol))
    assert (code, out) == (0, "SAT count=2\n")
    code, out, _ = run(capsys, "derandomize", "--secret",
                       str(tmp_path / "task.key"), "--solution", str(sol),
                       "--original", str(src), "--costs", str(costs))
    assert (code, out) == (0, "cost 0\n-1\n")


def test_mincost_record_requires_costs_flag(tmp_path, capsys):
    src = tmp_path / "task.cnf"
    src.write_text("p cnf 2 1\n1 2 0\n")
    costs = tmp_path / "task.wts"
    costs.write_text("w 1 1\n")
    run(capsys, "mincost-randomize", "--in", str(src), "--costs", str(costs),
        "--seed", "3")
    sol = tmp_path / "any.sol"
    sol.write_text("1 2\n")
    code, _, err = run(
        capsys,
        "derandomize",
        "--secret", str(tmp_path / "task.key"),
        "--solution", str(sol),
        "--original", str(src),
    )
    assert code == 1
    assert "--costs" in err


@pytest.mark.parametrize("defect,fragment", [
    ("original", "different instance"),
    ("costs", "circuit cost 1 differs from the cost function's 9"),
    ("short", "solution has 5 coordinates, expected 29"),
], ids=["original", "costs", "short"])
def test_mincost_answer_defects_exit_2(tmp_path, capsys, defect, fragment):
    src = tmp_path / "task.cnf"
    src.write_text("p cnf 2 1\n1 2 0\n")
    costs = tmp_path / "task.wts"
    costs.write_text("w 1 1\nw 2 1\n")
    run(capsys, "mincost-randomize", "--in", str(src), "--costs", str(costs),
        "--seed", "7", "--method", "matrix")
    sol = tmp_path / "provider.sol"
    run(capsys, "solve-brute", "--in", str(tmp_path / "task.rand.opb"),
        "--var-limit", "44", "--out", str(sol))
    # The honest answer, checked against another original, another cost
    # function, or cut to its first five coordinates.
    if defect == "original":
        src = tmp_path / "other.cnf"
        src.write_text("p cnf 2 1\n-1 2 0\n")
    elif defect == "costs":
        costs = tmp_path / "other.wts"
        costs.write_text("w 1 5\nw 2 9\n")
    else:
        sol.write_text(" ".join(sol.read_text().split()[:5]) + "\n")

    for command in ("derandomize", "verify-solution"):
        code, out, err = run(
            capsys,
            command,
            "--secret", str(tmp_path / "task.key"),
            "--solution", str(sol),
            "--original", str(src),
            "--costs", str(costs),
        )
        assert code == 2
        assert out == ""
        assert fragment in err


def test_mincost_randomize_rejects_iso():
    with pytest.raises(SystemExit) as excinfo:
        main(["mincost-randomize", "--in", "x.cnf", "--costs", "x.wts",
              "--seed", "1", "--method", "iso"])
    assert excinfo.value.code == 1


@pytest.mark.parametrize("command,method", [
    ("randomize", "iso"),
    ("randomize", "matrix"),
    ("mincost-randomize", "matrix"),
])
def test_row_weight_outside_gf2_exits_1(tmp_path, capsys, command, method):
    src = tmp_path / "orig.cnf"
    src.write_text(SAT_CNF)
    costs = tmp_path / "orig.wts"
    costs.write_text("w 1 1\n")
    extra = ["--costs", str(costs)] if command == "mincost-randomize" else []
    code, out, err = run(
        capsys, command, "--method", method, "--seed", "7", "--in", str(src),
        "--row-weight", "3", *extra,
    )
    assert code == 1
    assert out == ""
    assert f"error: row weight shapes only the gf2 disguise, not {method}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["orig.cnf", "orig.wts"]


@pytest.mark.parametrize("row_weight", ["3", None])
@pytest.mark.parametrize("command", ["randomize", "mincost-randomize"])
def test_gf2_randomize_writes_its_files(tmp_path, capsys, command, row_weight):
    src = tmp_path / "orig.cnf"
    src.write_text(SAT_CNF)
    costs = tmp_path / "orig.wts"
    costs.write_text("w 1 1\n")
    extra = ["--costs", str(costs)] if command == "mincost-randomize" else []
    if row_weight is not None:
        extra += ["--row-weight", row_weight]
    code, _, err = run(
        capsys, command, "--method", "gf2", "--seed", "7", "--in", str(src),
        *extra,
    )
    assert code == 0
    assert err == ""
    outputs = ["orig.key", "orig.rand.cnf"]
    if command == "mincost-randomize":
        outputs.append("orig.rand.wts")
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(["orig.cnf", "orig.wts", *outputs])
    assert all((tmp_path / name).stat().st_size > 0 for name in outputs)


# ---------------------------------------------------------------------------
# firewall pipeline
# ---------------------------------------------------------------------------

def test_fw_encode_and_header_solve(tmp_path, capsys):
    p1 = tmp_path / "p1.fw"
    p1.write_text("1 2 0 3 accept\ndefault deny\n")
    same = tmp_path / "same.fw"
    same.write_text("1 2 0 3 accept\ndefault deny\n")
    deny_all = tmp_path / "deny.fw"
    deny_all.write_text("default deny\n")

    code, out, _ = run(
        capsys, "fw-encode", "--p1", str(p1), "--p2", str(same),
        "--layout", "2,2,2,2",
    )
    assert code == 0
    assert "8 header bits" in out
    eq = tmp_path / "p1.eq.cnf"
    assert eq.read_text().startswith("c header-bits 8\n")

    # Identical policies never disagree; --var-limit 4 forces the
    # header-enumeration path since the CNF itself has more variables.
    code, out, _ = run(capsys, "solve-brute", "--in", str(eq), "--var-limit", "4")
    assert code == 0
    assert out == "UNSAT count=0\n"

    code, _, _ = run(
        capsys, "fw-encode", "--p1", str(p1), "--p2", str(deny_all),
        "--layout", "2,2,2,2", "--out", str(eq),
    )
    assert code == 0
    code, out, _ = run(capsys, "solve-brute", "--in", str(eq), "--var-limit", "4")
    assert code == 0
    # Disagreement exactly on src_ip=1, src_port=2, dst_ip=0, dst_port=3,
    # packed MSB-first: 0b01_10_00_11 = 99.
    assert out == "SAT count=1 header=99\n"


def test_fw_encode_refuses_rule_outside_layout_after_catch_all(tmp_path, capsys):
    # The chain is not encoded past the catch-all, but every rule is still
    # checked against the layout.
    p1 = tmp_path / "p1.fw"
    p1.write_text("* * * * accept\n* 9 * * deny\ndefault deny\n")
    p2 = tmp_path / "p2.fw"
    p2.write_text("default accept\n")
    code, _, err = run(capsys, "fw-encode", "--p1", str(p1), "--p2", str(p2),
                       "--layout", "2,2,2,2")
    assert code == 1
    assert "src_port value 9 exceeds 2 bits" in err


def test_fw_encode_header_hint_guard(tmp_path, capsys):
    p1 = tmp_path / "p1.fw"
    p1.write_text("default accept\n")
    p2 = tmp_path / "p2.fw"
    p2.write_text("default deny\n")
    eq = tmp_path / "big.eq.cnf"
    run(capsys, "fw-encode", "--p1", str(p1), "--p2", str(p2),
        "--layout", "8,8,8,8", "--out", str(eq))
    code, _, err = run(capsys, "solve-brute", "--in", str(eq), "--var-limit", "4")
    assert code == 1
    assert "beyond brute-force range" in err


@pytest.mark.parametrize("bits", ["4", "-1", "x"])
def test_solve_brute_rejects_bad_header_bits(tmp_path, capsys, bits):
    # The header bits are the first K variables.  A K beyond the variable
    # count enumerated phantom bits ("4" printed SAT count=14), and "-1"
    # failed with "negative shift count".
    cnf = tmp_path / "three.cnf"
    cnf.write_text(f"c header-bits {bits}\np cnf 3 1\n1 2 3 0\n")
    code, out, err = run(capsys, "solve-brute", "--in", str(cnf), "--var-limit", "2")
    assert (code, out) == (1, "")
    assert err == (
        f"error: comment 'c header-bits {bits}': header bits must be an "
        "integer from 0 to the variable count, 3\n"
    )
    # K equal to the variable count is the largest that is accepted.
    cnf.write_text("c header-bits 3\np cnf 3 1\n1 2 3 0\n")
    code, out, _ = run(capsys, "solve-brute", "--in", str(cnf), "--var-limit", "2")
    assert (code, out) == (0, "SAT count=7 header=1\n")


# 8-bit IP fields split into four 2-bit chunks, so IPs are dotted quads.
ROUND_TRIP_POLICY = "1.2.3.0 2 * 3 accept\n* 1 0.1.*.2 * deny\ndefault deny\n"


def test_fw_map_round_trip(tmp_path, capsys):
    src = tmp_path / "policy.fw"
    src.write_text(ROUND_TRIP_POLICY)
    code, _, _ = run(
        capsys, "fw-map", "--in", str(src), "--seed", "5", "--layout", "8,2,8,2",
    )
    assert code == 0
    mapped = tmp_path / "policy.mapped.fw"
    key = tmp_path / "policy.key"
    first = mapped.read_text()
    assert mapped.exists() and key.exists()

    # Re-running with the saved key reproduces the mapping exactly.
    again = tmp_path / "again.fw"
    code, _, _ = run(
        capsys, "fw-map", "--in", str(src), "--use-secret", str(key),
        "--layout", "8,2,8,2", "--out", str(again),
    )
    assert code == 0
    assert again.read_text() == first

    # Wildcards and the rule shape survive the mapping.
    lines = first.splitlines()
    assert lines[1].split()[0] == "*"
    assert lines[1].split()[3] == "*"
    assert lines[1].split()[2].split(".")[2] == "*"
    assert lines[2] == "default deny"


# sha256 of the files fw-map writes, pinned while the value maps were
# dicts: ROUND_TRIP_POLICY mapped at --seed 5 --layout 8,2,8,2 and its key,
# and the key of FieldMappingSecret.random(DEFAULT_LAYOUT, 7), which
# --seed 7 writes at the default layout.
PINNED_FW_MAP = {
    "mapped": "a24405bdbed4fb384f9278ccab364adbc9847a076431cf9658f8309479b47537",
    "key": "f40cf6bae2206867ef75d577432ba133fb0b0b242f1faf859803e76da85962ef",
    "default-layout-key": "be3672362cd679a871535b3b0ee8e715b0bf479db09c52049f306d3645f1c651",
}


def test_fw_map_bytes_pinned(tmp_path, capsys):
    src = tmp_path / "policy.fw"
    src.write_text(ROUND_TRIP_POLICY)
    code, _, _ = run(
        capsys, "fw-map", "--in", str(src), "--seed", "5", "--layout", "8,2,8,2",
    )
    assert code == 0
    code, _, _ = run(
        capsys, "fw-map", "--in", str(src), "--seed", "7",
        "--out", str(tmp_path / "default.fw"),
        "--secret", str(tmp_path / "default.key"),
    )
    assert code == 0
    files = {
        "mapped": "policy.mapped.fw",
        "key": "policy.key",
        "default-layout-key": "default.key",
    }
    digests = {
        pin: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for pin, name in files.items()
    }
    assert digests == PINNED_FW_MAP


def test_fw_map_reads_a_key_that_holds_its_seed(tmp_path, capsys):
    # Keys written before they held only the maps also kept the seed; the
    # field is ignored, so such a key maps the policy as it did.
    src = tmp_path / "policy.fw"
    src.write_text(ROUND_TRIP_POLICY)
    key = tmp_path / "policy.key"
    code, _, _ = run(capsys, "fw-map", "--in", str(src), "--seed", "5",
                     "--layout", "8,2,8,2")
    assert code == 0
    assert "seed" not in json.loads(key.read_text())
    key.write_text(json.dumps({**json.loads(key.read_text()), "seed": 5}))
    again = tmp_path / "again.fw"
    code, _, _ = run(capsys, "fw-map", "--in", str(src), "--use-secret",
                     str(key), "--layout", "8,2,8,2", "--out", str(again))
    assert code == 0
    assert again.read_bytes() == (tmp_path / "policy.mapped.fw").read_bytes()
    assert hashlib.sha256(again.read_bytes()).hexdigest() == PINNED_FW_MAP["mapped"]


@pytest.mark.parametrize("edit, message", [
    (lambda k: {"octet_maps": k["octet_maps"]},
     "fw-map key file lacks field 'port_map'"),
    (lambda k: [1, 2], "fw-map key file is not a JSON object"),
    (lambda k: {**k, "octet_maps": 5},
     "fw-map key field 'octet_maps': expected a list of lists"),
    (lambda k: {**k, "port_map": [float(p) for p in k["port_map"]]},
     "fw-map key field 'port_map': expected a list of integers"),
], ids=["no-port-map", "not-object", "octet-maps-not-list", "float-port"])
def test_fw_map_rejects_malformed_key(tmp_path, capsys, edit, message):
    src = tmp_path / "policy.fw"
    src.write_text("1.2.3.0 2 * 3 accept\ndefault deny\n")
    key = tmp_path / "policy.key"
    code, _, _ = run(capsys, "fw-map", "--in", str(src), "--seed", "5",
                     "--layout", "8,2,8,2", "--secret", str(key))
    assert code == 0
    key.write_text(json.dumps(edit(json.loads(key.read_text()))))
    code, _, err = run(capsys, "fw-map", "--in", str(src), "--use-secret",
                       str(key), "--layout", "8,2,8,2",
                       "--out", str(tmp_path / "again.fw"))
    assert code == 1
    assert err == f"error: {message}\n"


def test_fw_map_rejects_key_mapping_outside_layout(tmp_path, capsys):
    # A bijection on 0..7 is a valid map, but 2-bit ports only hold 0..3.
    src = tmp_path / "policy.fw"
    src.write_text("1.2.3.0 1 * 3 accept\ndefault deny\n")
    key = tmp_path / "policy.key"
    code, _, _ = run(capsys, "fw-map", "--in", str(src), "--seed", "5",
                     "--layout", "8,2,8,2", "--secret", str(key))
    assert code == 0
    obj = json.loads(key.read_text())
    obj["port_map"] = [6, 7, 0, 1, 2, 3, 4, 5]
    key.write_text(json.dumps(obj))
    out = tmp_path / "again.fw"
    code, _, err = run(capsys, "fw-map", "--in", str(src), "--use-secret",
                       str(key), "--layout", "8,2,8,2", "--out", str(out))
    assert code == 1
    assert err == "error: src_port value 7 exceeds 2 bits\n"
    assert not out.exists()


def test_fw_map_needs_seed_or_secret(tmp_path, capsys):
    src = tmp_path / "policy.fw"
    src.write_text("default deny\n")
    code, _, err = run(capsys, "fw-map", "--in", str(src))
    assert code == 1
    assert "--seed or --use-secret" in err


@pytest.mark.parametrize(
    "layout, message",
    [
        ("33,16,33,16", "error: src_ip needs a 33-bit value map"),
        ("8,32,8,32", "error: src_port needs a 32-bit value map"),
    ],
)
def test_fw_map_rejects_wide_fields(tmp_path, capsys, layout, message):
    # A full map of a 33- or 32-bit field would be a table of 2**33 or
    # 2**32 values; the layout is refused before any table is built.
    src = tmp_path / "policy.fw"
    src.write_text("default deny\n")
    code, _, err = run(
        capsys, "fw-map", "--in", str(src), "--seed", "1", "--layout", layout,
    )
    assert code == 1
    assert err.startswith(message)


def test_fw_bad_layout(tmp_path, capsys):
    src = tmp_path / "policy.fw"
    src.write_text("default deny\n")
    code, _, err = run(
        capsys, "fw-map", "--in", str(src), "--seed", "1", "--layout", "4,4",
    )
    assert code == 1
    assert "four comma-separated" in err


# ---------------------------------------------------------------------------
# solve-brute on linear systems and outsourcing rounds
# ---------------------------------------------------------------------------

def test_solve_brute_opb_infeasible(tmp_path, capsys):
    opb = tmp_path / "sys.opb"
    opb.write_text("* #variable= 2 #constraint= 1\n+1 x1 +1 x2 = 3 ;\n")
    code, out, _ = run(capsys, "solve-brute", "--in", str(opb))
    assert code == 0
    assert out == "UNSAT count=0\n"


def test_solve_brute_unsat_cnf(tmp_path, capsys):
    cnf = tmp_path / "contra.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    code, out, _ = run(capsys, "solve-brute", "--in", str(cnf))
    assert code == 0
    assert out == "UNSAT count=0\n"


def test_outsource_report(tmp_path, capsys):
    src = tmp_path / "orig.cnf"
    src.write_text(SAT_CNF)
    code, out, _ = run(
        capsys,
        "outsource", "--in", str(src), "--method", "iso", "--seed", "2",
        "--providers", "honest,lazy,malicious-unsat",
    )
    assert code == 0
    assert "verdict: sat" in out
    assert "FLAGGED" in out
    assert "flagged: 2 of 3" in out


def test_outsource_empty_providers(tmp_path, capsys):
    src = tmp_path / "orig.cnf"
    src.write_text(SAT_CNF)
    code, _, err = run(
        capsys, "outsource", "--in", str(src), "--providers", " , ,",
    )
    assert code == 1
    assert "empty" in err
