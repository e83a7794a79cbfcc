"""``parse_dimacs`` and ``emit_dimacs`` against line-by-line reference
copies: equal clauses or the same DimacsError, and byte-equal text.  An
instance parsed from text against one built from the same clauses as
lists: equal results and errors from every operation."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_three_cnf
from satcloak import cnf
from satcloak.cnf import (
    CnfInstance,
    DimacsError,
    InvalidSolutionError,
    emit_dimacs,
    evaluate_gates,
    parse_dimacs,
    to_three_cnf,
)
from satcloak.disguise import DISGUISES
from satcloak.isomorph import IsoSecret, apply_iso, iso_forward, iso_randomize
from satcloak.solsetrand import gf_randomize
from satcloak.orchestrator import (
    check_solution,
    make_record,
    record_from_json,
    record_to_json,
)

# ---------------------------------------------------------------------------
# Reference codecs: one line, one token and one literal at a time
# ---------------------------------------------------------------------------


def _reference_dedupe(lits):
    seen = set()
    out = []
    for lit in lits:
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    return out


def reference_parse(text):
    if isinstance(text, bytes):
        text = text.decode("ascii")
    num_vars = -1
    num_clauses = -1
    tokens = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars != -1:
                raise DimacsError("duplicate problem line")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(f"malformed problem line: {line!r}")
            try:
                num_vars = int(parts[2])
                num_clauses = int(parts[3])
            except ValueError as exc:
                raise DimacsError(f"malformed problem line: {line!r}") from exc
            if num_vars < 0 or num_clauses < 0:
                raise DimacsError(f"negative counts in problem line: {line!r}")
            continue
        tokens.extend(line.split())
    if num_vars == -1:
        raise DimacsError("missing problem line")

    clauses = []
    current = []
    for tok in tokens:
        try:
            lit = int(tok)
        except ValueError as exc:
            raise DimacsError(f"non-integer token {tok!r}") from exc
        if lit == 0:
            if not current:
                raise DimacsError(f"zero-length clause (clause {len(clauses) + 1})")
            clauses.append(_reference_dedupe(current))
            current = []
        else:
            if abs(lit) > num_vars:
                raise DimacsError(
                    f"variable {abs(lit)} exceeds declared maximum {num_vars}"
                )
            current.append(lit)
    if current:
        raise DimacsError("unterminated clause at end of input")
    if len(clauses) != num_clauses:
        raise DimacsError(
            f"clause count mismatch: header says {num_clauses}, found {len(clauses)}"
        )
    return CnfInstance(num_vars, clauses)


def reference_emit(instance):
    lines = [f"p cnf {instance.num_vars} {instance.num_clauses}"]
    for clause in instance.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def _outcome(parse, text):
    try:
        inst = parse(text)
    except DimacsError as exc:
        return "error", str(exc)
    return "ok", (inst.num_vars, inst.clauses)


# ---------------------------------------------------------------------------
# Generated DIMACS text
# ---------------------------------------------------------------------------

BLANKS = st.sampled_from(["", " ", "\t", "  \t", " \x0c"])
SEPARATORS = st.sampled_from([" ", " ", "\t", "  ", " \t ", "\x1f"])
BAD_TOKENS = st.sampled_from(
    ["x", "1a", "--1", "0x1", "1.0", "c", "p", "cnf", "C", "P", "1-", "-", "+"]
)
# Tokens that int() reads although they are not plain decimals.
ODD_INTEGERS = st.sampled_from(["+1", "1_0", "01", "-0", "+0", "00", "١"])
# Comment lines (a "c" first, after blanks or not) and blank lines.
EXTRA_LINES = st.sampled_from([
    "c", "cc", "c comment", "ccomment p", "cp cnf 1 1", "c0 1 -2 x", " c",
    "\tc cnf 0", "", " ", "\t", "  \t", " \x0c",
])
# Read by index from drawn bytes, one byte per token or line: what goes
# before a clause token (a separator, or a line break "\n" with blanks
# around it), and what ends a line.
GLUE = [
    " ", " ", " ", " ", " ", "\t", "  ", " \t ", "\x1f", " ",
    "\n", " \n", "\n\t", "  \t\n \x0c", "\n\n",
]
LINE_ENDS = ["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x1c", " "]


@st.composite
def headers(draw, num_vars, num_clauses):
    form = draw(st.sampled_from(
        ["ok"] * 16 + ["short", "dnf", "word", "negative", "extra", "glued"]
    ))
    n, m = str(num_vars), str(num_clauses)
    if form == "short":
        return f"p cnf {n}"
    if form == "dnf":
        return f"p dnf {n} {m}"
    if form == "word":
        return f"p cnf x {m}"
    if form == "negative":
        return f"p cnf -{n} {m}"
    if form == "extra":
        return f"p cnf {n} {m} 7"
    if form == "glued":
        return f"pcnf {n} {m}"
    sep = draw(SEPARATORS)
    return sep.join(["p", "cnf", n, m])


@st.composite
def dimacs_texts(draw):
    """DIMACS text, mostly valid.  Each run of literals, separators or line
    ends is drawn as one byte string, so an example makes at most about 40
    choices however long it is: hypothesis's ``data_too_large`` health
    check fails a test whose examples routinely make many more choices than
    the simplest one does."""
    num_vars = draw(st.sampled_from([0, 1, 2, 3, 4, 5, 6] + [6] * 5))
    # One byte per literal: bits 1-6 pick the variable and bit 0 the sign.
    # Clauses have one drawn width, which the one-pass split takes, or end
    # at each byte from 0xAA up (one in three).
    width = draw(st.sampled_from([None, None, 1, 2, 3, 4]))
    size = draw(st.integers(min_value=0, max_value=24))
    clauses = [[]]
    for b in draw(st.binary(min_size=size, max_size=size)):
        var = (b & 0x7F) // 2 % max(num_vars, 1) + 1
        clauses[-1].append(-var if b & 1 else var)
        if len(clauses[-1]) == width or (width is None and b >= 0xAA):
            clauses.append([])
    clauses = [clause for clause in clauses if clause]
    tokens = [str(lit) for clause in clauses for lit in (*clause, 0)]

    # Defects, each rare enough that most texts still parse.
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        defect = draw(st.sampled_from(
            ["bad", "odd", "range", "zero", "cut"]
        ))
        at = draw(st.integers(min_value=0, max_value=len(tokens)))
        if defect == "bad":
            tokens.insert(at, draw(BAD_TOKENS))
        elif defect == "odd":
            tokens.insert(at, draw(ODD_INTEGERS))
        elif defect == "range":
            tokens.insert(at, str(draw(st.sampled_from([1, -1])) * (num_vars + 1)))
        elif defect == "zero":
            tokens.insert(at, "0")
        elif defect == "cut" and tokens:
            tokens.pop()

    num_clauses = len(clauses) + draw(st.sampled_from([0] * 8 + [1, -1]))
    num_clauses = max(num_clauses, 0)

    # Clause tokens spread over lines: several clauses on one line, or one
    # clause over several.
    glue = draw(st.binary(min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    body = "".join(GLUE[g % len(GLUE)] + tok for g, tok in zip(glue, [*tokens, ""]))
    lines = body.split("\n")

    extras = draw(st.lists(EXTRA_LINES, max_size=5))
    header_count = draw(st.sampled_from([1, 1, 1, 1, 1, 0, 2]))
    head_lines = [
        draw(BLANKS) + draw(headers(num_vars, num_clauses))
        for _ in range(header_count)
    ]
    for line in extras + head_lines:
        # Headers mostly go first, comments anywhere.
        first = line in head_lines and draw(st.booleans())
        at = 0 if first else draw(st.integers(min_value=0, max_value=len(lines)))
        lines.insert(at, line)

    ends = draw(st.binary(min_size=len(lines), max_size=len(lines)))
    text = "".join(line + LINE_ENDS[e % len(LINE_ENDS)] for line, e in zip(lines, ends))
    if draw(st.booleans()):
        text = text[: -1]  # no final line end (or half of a "\r\n")
    return text


@given(dimacs_texts(), st.booleans())
@settings(max_examples=1000, deadline=None)
@example("c only a comment\n", False)
@example("p cnf 2 1\n\tc indented comment\r\n1 -2 0\r\n", False)
@example("p cnf 2 2\n1 1 -1 0 2 -2 2 0\n", False)
@example("p cnf 1 1\n0 x\n", False)
@example("p cnf 1 1\n2 x\n", False)
@example("p cnf 1 1\nx 2\n", False)
@example("p cnf 1 1\n1 0 0\n", False)
@example("p cnf 1 2\n1 0\n1", False)
@example("p cnf 1 1\np cnf x\n1 0\n", False)
@example("  p cnf 3 1\n1 2 3 0 c not a comment\n", True)
# Bodies that np.fromstring reads unlike int(): a blank body as [0], a lone
# sign as 0, a sign before whitespace as part of the next number, and a
# number too long for int64 as 2**63 - 1, also when it is negative.
@example("p cnf 0 0\n \n", False)
@example("p cnf 1 1\n1 0 -\n", False)
@example("p cnf 1 1\n1 0 +\n", False)
@example("p cnf 1 2\n1 0 1 -\n", False)
@example("p cnf 1 2\n1 0 1 -", False)
@example("p cnf 1 1\n- 1 0\n", False)
@example("p cnf 1 1\n+ 1 0\n", False)
@example("p cnf 99999999999999999999 1\n99999999999999999998 0\n", False)
@example("p cnf 3 1\n-99999999999999999999 0\n", False)
def test_parse_matches_reference(text, as_bytes):
    if as_bytes:
        try:
            text = text.encode("ascii")
        except UnicodeEncodeError:
            pass
    got = _outcome(parse_dimacs, text)
    assert got == _outcome(reference_parse, text)
    if got[0] == "ok":
        inst = CnfInstance(*got[1])
        assert emit_dimacs(inst) == reference_emit(inst)


@given(
    st.integers(min_value=0, max_value=10**6),
    st.lists(st.lists(st.integers(min_value=-(10**6), max_value=10**6), max_size=5),
             max_size=10),
)
@settings(max_examples=200, deadline=None)
@example(0, [])
@example(3, [[]])
@example(3, [[], [1, -3]])
def test_emit_matches_reference(num_vars, clauses):
    # emit_dimacs serializes whatever it is given, valid or not.
    inst = CnfInstance(num_vars, clauses)
    assert emit_dimacs(inst) == reference_emit(inst)


def _planted_three_cnf(rng, num_vars, num_clauses):
    planted = {v: rng.random() < 0.5 for v in range(1, num_vars + 1)}
    clauses = []
    while len(clauses) < num_clauses:
        clause = random_three_cnf(rng, num_vars, 1).clauses[0]
        if any(planted[abs(lit)] == (lit > 0) for lit in clause):
            clauses.append(clause)
    return CnfInstance(num_vars, clauses)


def test_emit_matches_reference_at_scale():
    rng = random.Random(11)
    # A dense GF(2) artifact: the largest texts the library writes.
    original = _planted_three_cnf(rng, 300, 1278)
    artifact, _ = DISGUISES["solution_set"].randomize(original, 5)
    assert artifact.num_clauses > 100_000
    # Every width from 0 to 40, literals up to +-10^9 of both signs.
    widths = [*range(41), *(rng.randint(0, 40) for _ in range(2000))]
    clauses = [
        [rng.choice([-1, 1]) * rng.randint(1, 10**9) for _ in range(w)]
        for w in widths
    ]
    clauses.append([10**9, -(10**9)])
    mixed = CnfInstance(10**9, clauses)
    for inst in (artifact, mixed):
        assert emit_dimacs(inst) == reference_emit(inst)


def _edge_instances():
    """Instances at the edges of ``emit_dimacs``'s cell tables and blocks,
    each with a name."""
    block = cnf._BLOCK
    yield "no-clauses", CnfInstance(3, [])
    yield "one-empty-clause", CnfInstance(0, [[]])
    for k in range(1, 19):
        # The largest magnitude sets the cell width: both sides of each
        # step, of both signs.
        for top in (10**k - 1, 10**k):
            yield f"top-{top}", CnfInstance(top, [[top, -top], [-7, 1, 10**k // 2]])
            yield f"neg-top-{top}", CnfInstance(top, [[-top], [top - 1, 0]])
    top = 2**63 - 1
    yield "int64-bounds", CnfInstance(top, [[top, -top, -(2**63)], [1, -1]])
    for top in (cnf._SMALL_TOP, cnf._SMALL_TOP + 1):
        yield f"import-time-table-edge-{top}", CnfInstance(top, [[top, -top, 3]])
    # A table over -top..top only when 2 * top is below the literal count.
    for size in (2 * 12_000 - 1, 2 * 12_000, 2 * 12_000 + 1):
        lits = [(-1) ** i * (1 + i % 12_000) for i in range(size)]
        yield f"dense-table-edge-{size}", CnfInstance(12_000, [lits[:-1], lits[-1:]])
    yield "sparse-ids", CnfInstance(10**15, [[10**15], [-1, 2]])
    yield "sparse-ids-empty-clause", CnfInstance(
        10**12, [[10**12, -3, 10**9], [], [-(10**12)]]
    )
    yield "beyond-int64", CnfInstance(2**70, [[2**70, -(2**64)], [], [-1, 2**63, 5]])
    three = [[1, -2, 3], [-4, 5, -6], [7, 8, -9]]
    yield "empty-first", CnfInstance(9, [[], *three])
    yield "empty-in-a-width-3-run", CnfInstance(9, [three[0], [], *three[1:]])
    yield "empty-last", CnfInstance(9, [*three, []])
    yield "empty-first-middle-and-last", CnfInstance(
        9, [[], three[0], [], [], three[1], []]
    )
    rng = random.Random(26)

    def clause(width, top=10**6):
        return [rng.choice([-1, 1]) * rng.randint(1, top) for _ in range(width)]

    for size in (block - 1, block, block + 1):
        k, rest = divmod(size, 3)
        threes = [clause(3) for _ in range(k)]
        if rest:
            threes.append(clause(rest))
        yield f"{size}-literals-width-3-then-{rest}", CnfInstance(10**6, threes)
        yield f"{size}-literals-width-1", CnfInstance(
            10**6, [clause(1) for _ in range(size)]
        )
    yield "a-clause-wider-than-a-block", CnfInstance(
        10**6, [clause(1), clause(2 * block + 5), [], clause(2)]
    )
    widths = [0, 1, 2, 3, 3, 3, 7, 40]
    clauses = []
    while sum(map(len, clauses)) < 3 * block:
        clauses.append(clause(rng.choice(widths), 99_999))
    yield "mixed-widths-across-blocks", CnfInstance(99_999, clauses)
    yield "width-5-across-blocks", CnfInstance(
        99, [clause(5, 99) for _ in range(block // 2)]
    )


@pytest.mark.parametrize(
    "instance", [pytest.param(inst, id=name) for name, inst in _edge_instances()]
)
def test_emit_matches_reference_at_the_edges(instance):
    assert emit_dimacs(instance) == reference_emit(instance)


def test_emit_peak_memory_stays_near_the_text():
    # The dense artifact of test_emit_matches_reference_at_scale: about
    # 3.4 MB of text, written in blocks, so the writer holds little more
    # than the blocks' text and the joined result.
    rng = random.Random(11)
    original = _planted_three_cnf(rng, 300, 1278)
    artifact, _ = DISGUISES["solution_set"].randomize(original, 5)
    tracemalloc.start()
    try:
        text = emit_dimacs(artifact)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 3_000_000
    assert peak <= 2 * len(text) + 8 * 2**20


def test_non_ascii_bytes_are_rejected_like_the_reference():
    data = "p cnf 1 1\n1 0 c é\n".encode("utf-8")
    for parse in (parse_dimacs, reference_parse):
        with pytest.raises(UnicodeDecodeError):
            parse(data)


# ---------------------------------------------------------------------------
# Streams of one clause width, with repeated literals and tautologies
# ---------------------------------------------------------------------------

UNIFORM_CLAUSES = 10_000


def _uniform_tokens(rng, width, num_vars):
    """Tokens of ``UNIFORM_CLAUSES`` clauses of ``width`` literals.  Few
    variables make repeated literals and tautologies common; every tenth
    clause repeats one of its literals or holds a variable of both signs."""
    tokens = []
    for i in range(UNIFORM_CLAUSES):
        clause = [rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(width)]
        if width > 1 and i % 10 == 0:
            j, k = rng.sample(range(width), 2)
            clause[k] = clause[j] if i % 20 else -clause[j]
        tokens.extend(map(str, clause))
        tokens.append("0")
    return tokens


def _text(num_vars, num_clauses, tokens):
    return f"p cnf {num_vars} {num_clauses}\n" + " ".join(tokens) + "\n"


def _same_as_reference(text):
    got = _outcome(parse_dimacs, text)
    assert got == _outcome(reference_parse, text)
    return got


# Width 12 is wider than the pairs parse_dimacs compares across the stream.
@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 12])
def test_uniform_width_streams_match_reference(width):
    rng = random.Random(width)
    num_vars = width + 2
    tokens = _uniform_tokens(rng, width, num_vars)
    text = _text(num_vars, UNIFORM_CLAUSES, tokens)
    status, (_, clauses) = _same_as_reference(text)
    assert status == "ok"
    if width > 1:
        assert sum(len(c) < width for c in clauses) >= UNIFORM_CLAUSES // 20
        assert any(-c[0] in c for c in clauses)
    # The clause count is still checked against the header.
    for wrong in (UNIFORM_CLAUSES - 1, UNIFORM_CLAUSES + 1):
        assert _same_as_reference(_text(num_vars, wrong, tokens))[0] == "error"


def _near_uniform(tokens, width, defect):
    """``tokens`` of one clause width, changed to break the width, the
    clause ends or a token."""
    tokens = list(tokens)
    middle = (UNIFORM_CLAUSES // 2) * (width + 1)
    if defect == "last-wider":
        tokens[-1:-1] = ["1"]
    elif defect == "last-narrower":
        del tokens[-2]
    elif defect == "widths-swapped":
        # One clause gives a literal to the next: the token and zero
        # counts are unchanged, but a zero sits off the width's grid.
        tokens[middle - 2], tokens[middle - 1] = tokens[middle - 1], tokens[middle - 2]
    elif defect == "no-final-zero":
        tokens.pop()
    elif defect == "leading-zero":
        tokens.insert(0, "0")
    elif defect == "bad-token":
        tokens[middle] = "x"
    elif defect == "out-of-range":
        tokens[middle] = "-99"
    return tokens


NEAR_UNIFORM_DEFECTS = [
    "last-wider", "last-narrower", "widths-swapped", "no-final-zero",
    "leading-zero", "bad-token", "out-of-range",
]


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("defect", NEAR_UNIFORM_DEFECTS)
def test_near_uniform_streams_match_reference(width, defect):
    rng = random.Random(100 + width)
    tokens = _uniform_tokens(rng, width, width + 2)
    tokens = _near_uniform(tokens, width, defect)
    count = tokens.count("0")
    for num_clauses in (count, count + 1):
        _same_as_reference(_text(width + 2, num_clauses, tokens))


# ---------------------------------------------------------------------------
# Which reader parses which text: numpy's one pass or the token reader
# ---------------------------------------------------------------------------

# One-clause bodies that int() reads but numpy's one pass must not.
ODD_BODIES = ["+1 0", "1_0 -1 0", "\u0661 0", "1\x1f-1 0", "+1 -2 0"]
# Malformed bodies over 5 variables with a bad token or a literal out of
# range.
MALFORMED_BODIES = [
    "x", "1 0 x", "1 0 6 0", "1 0 -6 0", "1 0 -", "1 0 +",
    "- 1 0", "+ 1 0", "1-2 0", "--1 0", "1- 0", "0x1 0", "1.0 0", "-",
    "99999999999999999999 0", "-99999999999999999999 0",
]
# Malformed bodies of plain literals in range: an empty clause or no final 0.
PLAIN_MALFORMED_BODIES = ["0", "1 0 0", "1 2", "1 2 0 0", "1 0 1 2 0 3"]


def _token_reads(monkeypatch):
    """The bodies that reach the token reader from now on."""
    reads = []
    token_clauses = cnf._token_clauses

    def spy(body, num_vars):
        reads.append(body)
        return token_clauses(body, num_vars)

    monkeypatch.setattr(cnf, "_token_clauses", spy)
    return reads


def test_plain_text_takes_the_numpy_reader(monkeypatch):
    rng = random.Random(15)
    planted = _planted_three_cnf(rng, 200, 852)
    mixed = CnfInstance(30, [
        [rng.choice([-1, 1]) * rng.randint(1, 30) for _ in range(rng.randint(1, 8))]
        for _ in range(500)
    ])
    assert any(len(set(c)) < len(c) for c in mixed.clauses)
    reads = _token_reads(monkeypatch)
    for inst in (planted, mixed):
        text = emit_dimacs(inst)
        assert _same_as_reference(text) == ("ok", (inst.num_vars, [
            list(dict.fromkeys(c)) for c in inst.clauses
        ]))
        # Comments, other line ends and a wrong clause count do not matter.
        variant = "c x\r\n" + text.replace("\n", "\r\n").replace(" 0\r\n", " 0\t", 7)
        assert _same_as_reference(variant)[0] == "ok"
        assert _same_as_reference(text.replace(" 0\n", " 0 ", 1) + "1 0\n")[0] == "error"
    assert _same_as_reference("p cnf 5 2\n-00005 1 0 00003 -5 0\n")[0] == "ok"
    assert reads == []


@pytest.mark.parametrize("body", ODD_BODIES)
def test_odd_integers_take_the_token_reader(monkeypatch, body):
    reads = _token_reads(monkeypatch)
    assert _same_as_reference(f"p cnf 20 1\n{body}\n")[0] == "ok"
    assert len(reads) == 1


@pytest.mark.parametrize("body", MALFORMED_BODIES)
def test_malformed_bodies_take_the_token_reader(monkeypatch, body):
    reads = _token_reads(monkeypatch)
    assert _same_as_reference(f"p cnf 5 1\n{body}\n")[0] == "error"
    assert len(reads) == 1


@pytest.mark.parametrize("body", PLAIN_MALFORMED_BODIES)
def test_plain_malformed_bodies_take_the_numpy_reader(monkeypatch, body):
    reads = _token_reads(monkeypatch)
    assert _same_as_reference(f"p cnf 5 1\n{body}\n")[0] == "error"
    assert reads == []


def test_blank_bodies_take_the_token_reader(monkeypatch):
    reads = _token_reads(monkeypatch)
    for text in ("p cnf 5 0\n", "p cnf 5 0\n \n\t\n"):
        assert _same_as_reference(text) == ("ok", (5, []))
    assert len(reads) == 2


def test_huge_variable_count_takes_the_token_reader(monkeypatch):
    reads = _token_reads(monkeypatch)
    big = 2**63 - 1
    for n in (big - 1, big, big + 1):
        text = f"p cnf {n} 1\n{-n} {n} 0\n"
        assert _same_as_reference(text)[0] == "ok"
    # From 2**63 - 1 on, a literal that saturates int64 would be in range.
    assert len(reads) == 2


# ---------------------------------------------------------------------------
# Parsed from text against built from lists: the same clauses, one store
# ---------------------------------------------------------------------------


def _result(func, *args):
    """What ``func(*args)`` gives: its value, or the type and arguments of
    the ValueError or KeyError it raises."""
    try:
        return "ok", func(*args)
    except (ValueError, KeyError) as exc:
        return type(exc).__name__, exc.args


def _iso_outcome(func, instance, arg):
    """``_result`` of ``apply_iso`` or ``iso_randomize``, with the output
    instance as its DIMACS text, whether it has a table view, and the
    secret ``iso_randomize`` drew."""
    status, value = _result(func, instance, arg)
    if status != "ok":
        return status, value
    value, secret = value if func is iso_randomize else (value, None)
    return "ok", emit_dimacs(value), value.table is not None, secret


@st.composite
def store_pairs(draw):
    """``(parsed, lists)``: two instances of the same clauses of widths 1
    to 8.  The first is parsed from their DIMACS text, so repeated literals
    are collapsed; or, for literals that are 0 or out of range, which no
    parse gives, built from a ``(k, w)`` table of clauses of one width.
    The second is built from the first's clauses as lists.  Either has a
    table view iff its clauses have one width."""
    num_vars = draw(st.integers(min_value=1, max_value=6))
    bad = draw(st.sampled_from([False] * 4 + [True]))
    top = num_vars + 2 if bad else num_vars
    lit = st.integers(min_value=0 if bad else 1, max_value=top).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    width = draw(st.integers(min_value=1, max_value=8))
    if bad or draw(st.booleans()):
        sizes = st.just(width)
    else:
        sizes = st.integers(min_value=1, max_value=8)
    clauses = draw(st.lists(
        sizes.flatmap(lambda w: st.lists(lit, min_size=w, max_size=w)),
        min_size=1, max_size=8,
    ))
    if bad:
        table = CnfInstance(num_vars, np.array(clauses, np.int64))
        return table, CnfInstance(num_vars, clauses)
    parsed = parse_dimacs(emit_dimacs(CnfInstance(num_vars, clauses)))
    uniform = len({len(c) for c in parsed.clauses}) == 1
    assert (parsed.table is not None) == uniform
    return parsed, CnfInstance(num_vars, [list(c) for c in parsed.clauses])


@st.composite
def partial_assignments(draw, num_vars):
    variables = draw(st.lists(
        st.integers(min_value=1, max_value=num_vars + 2), max_size=num_vars + 2
    ))
    values = st.sampled_from([True, False, 1, 0])
    return {v: draw(values) for v in variables}


@given(store_pairs(), st.data())
@settings(max_examples=300, deadline=None)
def test_table_and_lists_give_the_same_results(pair, data):
    table, lists = pair
    n = lists.num_vars
    assert emit_dimacs(table) == emit_dimacs(lists)
    assert _result(table.validate) == _result(lists.validate)
    for _ in range(4):
        assignment = data.draw(partial_assignments(n))
        assert _result(table.satisfies, assignment) == _result(
            lists.satisfies, assignment
        )
    assert table.num_clauses == lists.num_clauses
    assert table == lists and lists == table
    if table.table is not None:
        assert table == CnfInstance(n, table.table.copy())
        assert table != CnfInstance(n, table.table[:-1])
    assert table != CnfInstance(n + 1, lists.clauses)
    assert table != CnfInstance(n, lists.clauses[:-1])
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32)))
    permutation = rng.sample(range(1, n + 1), n)
    flips = frozenset(v for v in range(1, n + 1) if rng.random() < 0.5)
    # The same output bytes or error, and each output keeps its widths.
    wrong_size = IsoSecret([], frozenset())
    for func, arg in [(apply_iso, IsoSecret(permutation, flips)),
                      (apply_iso, wrong_size), (iso_randomize, rng.getrandbits(32))]:
        got = _iso_outcome(func, table, arg)
        want = _iso_outcome(func, lists, arg)
        if got[0] == "ok":
            assert want == got
            assert got[2] == (table.table is not None)
        else:
            assert got == want


@pytest.mark.parametrize("clauses,assignment", [
    ([[1, -2, 3], [-1, 2, 4]], {}),  # nothing assigned
    ([[1, -2, 3], [-1, 2, 4]], {-1: True, -2: 0}),  # keys that are literals
    ([[0, 1, 2]], {0: True}),
    ([[10**12, 1, 2], [-1, -2, 3]], {10**12: 1, 1: False, 2: True, 3: 0}),
    ([[10**12, 1, 2]], {1: False, 2: False}),  # a missing variable decides
    ([[-(2**63 - 1), 1, 2]], {2**63 - 1: False, 1: False, 2: False}),
    ([[1, 2, 3]], {-(2**63): True, 10**15: True, 3: True}),
])
def test_table_satisfies_matches_lists_at_extreme_literals(clauses, assignment):
    table = CnfInstance(3, np.array(clauses, np.int64))
    lists = CnfInstance(3, clauses)
    assert _result(table.satisfies, assignment) == _result(lists.satisfies, assignment)


def _planted_three_cnf_text(rng, num_vars, num_clauses):
    """DIMACS text of ``num_clauses`` clauses over three distinct variables
    each, satisfied by the returned assignment (``x[v]`` for variable v)."""
    x = rng.random(num_vars + 1) < 0.5
    vs = rng.integers(1, num_vars + 1, size=(num_clauses, 3))
    while True:
        dup = (vs[:, 0] == vs[:, 1]) | (vs[:, 0] == vs[:, 2]) | (vs[:, 1] == vs[:, 2])
        if not dup.any():
            break
        vs[dup] = rng.integers(1, num_vars + 1, size=(int(dup.sum()), 3))
    lits = np.where(rng.random((num_clauses, 3)) < 0.5, vs, -vs)
    false = ~(x[np.abs(lits)] == (lits > 0)).any(axis=1)
    lits[false, 0] *= -1
    body = ("%d %d %d 0\n" * num_clauses) % tuple(lits.ravel().tolist())
    return f"p cnf {num_vars} {num_clauses}\n" + body, lits, x


def test_iso_round_trip_at_a_million_clauses_builds_no_clause_list(monkeypatch):
    reads = []
    view = CnfInstance.clauses

    def spy(instance):
        reads.append(instance.num_clauses)
        return view.fget(instance)

    monkeypatch.setattr(CnfInstance, "clauses", property(spy))
    num_clauses = 10**6
    num_vars = round(num_clauses / 4.26)
    text, lits, x = _planted_three_cnf_text(
        np.random.default_rng(20), num_vars, num_clauses
    )
    planted = {v: bool(x[v]) for v in range(1, num_vars + 1)}
    falsifying = dict(planted)
    for lit in lits[0].tolist():
        falsifying[abs(lit)] = lit < 0

    original = parse_dimacs(text)
    assert original.table is not None
    original.validate()
    artifact, secret = iso_randomize(original, 7)
    artifact_text = emit_dimacs(artifact)
    key = record_to_json(make_record("iso", secret, original, 7))
    record = record_from_json(key)
    original = parse_dimacs(text)
    honest = iso_forward(planted, secret)
    assert parse_dimacs(artifact_text) == artifact
    assert artifact.satisfies(honest)
    vector = [int(honest[v]) for v in range(1, num_vars + 1)]
    assert check_solution(record, vector, original) == (planted, None)
    bad = iso_forward(falsifying, secret)
    with pytest.raises(InvalidSolutionError):
        check_solution(record, [int(bad[v]) for v in range(1, num_vars + 1)], original)
    assert reads == []


def test_mixed_width_round_trip_at_a_million_literals_builds_no_clause_list(monkeypatch):
    reads = []
    view = CnfInstance.clauses

    def spy(instance):
        reads.append(instance.num_clauses)
        return view.fget(instance)

    monkeypatch.setattr(CnfInstance, "clauses", property(spy))
    rng = np.random.default_rng(23)
    num_clauses = 2 * 10**6 // 7  # about 10**6 literals of widths 2 to 5
    num_vars = num_clauses // 4
    widths = rng.integers(2, 6, num_clauses)
    starts = np.cumsum(widths) - widths
    lits = rng.integers(1, num_vars + 1, widths.sum())
    lits *= rng.choice([-1, 1], lits.size)
    # Plant a model: a clause it falsifies gets its first literal negated.
    x = rng.random(num_vars + 1) < 0.5
    true = x[np.abs(lits)] == (lits > 0)
    lits[starts[~np.logical_or.reduceat(true, starts)]] *= -1
    tokens = np.insert(lits, starts[1:], 0).tolist()
    text = f"p cnf {num_vars} {num_clauses}\n" + " ".join(map(str, tokens)) + " 0\n"

    original = parse_dimacs(text)
    assert original.table is None and original.num_clauses == num_clauses
    original.validate()
    three, three_map = to_three_cnf(original)
    assert three.table.shape == (three.num_clauses, 3)
    assert len(three_map.gates) == three.num_vars - num_vars > num_clauses // 2
    artifact, secret = iso_randomize(three, 7)
    assert parse_dimacs(emit_dimacs(artifact)) == artifact
    planted = {v: bool(x[v]) for v in range(1, num_vars + 1)}
    assert original.satisfies(planted)
    assert artifact.satisfies(iso_forward(evaluate_gates(three_map, planted), secret))
    assert reads == []


def test_sparse_gf2_round_trip_at_32k_variables_builds_no_clause_list(monkeypatch):
    reads = []
    view = CnfInstance.clauses

    def spy(instance):
        reads.append(instance.num_clauses)
        return view.fget(instance)

    monkeypatch.setattr(CnfInstance, "clauses", property(spy))
    num_vars = 32_000
    text, _, _ = _planted_three_cnf_text(
        np.random.default_rng(22), num_vars, round(4.26 * num_vars)
    )
    original = parse_dimacs(text)
    three, three_map = to_three_cnf(original)
    assert three is original and not three_map.gates
    artifact, secret = gf_randomize(three, 7, row_weight=3)
    assert artifact.num_clauses > 1_700_000
    assert secret.r_inv.rows == num_vars
    assert parse_dimacs(emit_dimacs(artifact)) == artifact
    assert reads == []
