"""Bit matrices: GF(2) and integer semantics, rank, inversion, sampling."""

import json
import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gf2_mat_mul, random_three_cnf, row_ones
from satcloak import solsetrand
from satcloak.gf2 import (
    BitMatrix,
    SingularMatrixError,
    gf2_invert,
    gf2_mat_vec,
    gf2_rank,
    random_full_rank,
    random_sparse_full_rank,
)
from satcloak.matrixrand import LinearSystem, apply_random_matrix


def test_constructors_and_accessors():
    m = BitMatrix.from_strings(2, 3, ["101", "011"])
    assert (m.rows, m.cols) == (2, 3)
    assert m.row_bits == [0b101, 0b110]
    assert row_ones(m, 1) == [1, 2]
    assert m.nonzero_count() == 4
    assert BitMatrix.identity(3) == BitMatrix.from_strings(3, 3, ["100", "010", "001"])
    assert BitMatrix(2, 2, [0, 0]).nonzero_count() == 0


def test_construction_errors():
    with pytest.raises(ValueError, match="row count"):
        BitMatrix(2, 3, [1])
    with pytest.raises(ValueError, match="beyond declared column count"):
        BitMatrix(1, 2, [4])


def test_string_round_trip():
    m = BitMatrix(2, 3, [0b011, 0b100])
    assert BitMatrix.from_strings(2, 3, ["110", "001"]) == m
    with pytest.raises(ValueError):
        BitMatrix.from_strings(2, 3, ["110"])
    with pytest.raises(ValueError):
        BitMatrix.from_strings(1, 3, ["1x0"])


@pytest.mark.parametrize("rows,cols", [(3, 0), (3, 1), (3, 64), (3, 65), (0, 5), (0, 0)])
def test_string_round_trip_at_word_edges(rows, cols):
    rng = random.Random(rows * 100 + cols)
    bits = [rng.getrandbits(cols) for _ in range(rows)]
    if rows and cols:
        bits[0] = (1 << cols) - 1  # every column set
        bits[-1] = 1 << (cols - 1)  # only the last column set
    m = BitMatrix(rows, cols, bits)
    strings = ["".join(str(b >> j & 1) for j in range(cols)) for b in bits]
    assert BitMatrix.from_strings(rows, cols, strings) == m
    assert BitMatrix.from_obj(m.to_obj()) == m


@pytest.mark.parametrize("cols,strings", [
    (3, ["11"]),  # short
    (3, ["1100"]),  # long
    (0, ["1"]),
    (3, ["1_0"]),  # int(s, 2) would take each of these
    (3, [" 10"]),
    (3, ["10 "]),
    (2, ["+1"]),
    (2, ["-1"]),
    (3, ["0b1"]),
    (1, ["\u0661"]),  # a non-ASCII decimal digit
    (3, [101]),  # not a string
    (3, [None]),
    (3, "101"),  # not a list
    (3, {"0": "101"}),
])
def test_from_strings_rejects_malformed_rows(cols, strings):
    with pytest.raises(ValueError):
        BitMatrix.from_strings(1, cols, strings)


def _sparse_obj(m):
    return {"rows": m.rows, "cols": m.cols,
            "counts": np.diff(m._starts).tolist(), "ones": m._cols.tolist()}


def _hex_obj(m):
    width = (m.cols + 7) // 8
    text = b"".join(b.to_bytes(width, "little") for b in m.row_bits).hex()
    return {"rows": m.rows, "cols": m.cols, "hex": text}


def _sparse_is_shorter(m):
    """The rule for the key form: ones per row plus the column of each one,
    ``len(str(cols)) + 1`` characters per number, against two hex digits
    per byte of the packed rows; always sparse without columns."""
    numbers = m.nonzero_count() + m.rows
    return not m.cols or (
        numbers * (len(str(m.cols)) + 1) <= 2 * m.rows * ((m.cols + 7) // 8))


def _check_both_forms(m):
    """Either form reads back, whichever the rule picks; rows without
    columns only in the sparse form, as the empty hex cannot bound them."""
    assert BitMatrix.from_obj(_sparse_obj(m)) == m
    if m.cols or not m.rows:
        assert BitMatrix.from_obj(_hex_obj(m)) == m
    else:
        with pytest.raises(ValueError, match="'hex' cannot give rows without columns"):
            BitMatrix.from_obj(_hex_obj(m))


@pytest.mark.parametrize("m", [
    BitMatrix(0, 0, []),
    BitMatrix(3, 0, [0, 0, 0]),
    BitMatrix(4, 70, [0] * 4),
    BitMatrix.identity(5),
    BitMatrix.identity(40),
    random_full_rank(130, random.Random(2)),
    random_sparse_full_rank(400, 3, random.Random(2)),
    BitMatrix(3, 200, [0, 1 << 199, (1 << 200) - 1]),
], ids=["0x0", "3x0", "zeros", "identity-5", "identity-40", "dense", "sparse",
        "edges"])
def test_key_form_follows_the_rule_and_round_trips(m):
    obj = m.to_obj()
    assert set(obj) == ({"rows", "cols", "counts", "ones"} if _sparse_is_shorter(m)
                        else {"rows", "cols", "hex"})
    assert obj == (_sparse_obj(m) if _sparse_is_shorter(m) else _hex_obj(m))
    _check_both_forms(m)
    # No hex form is longer than the format-1 '0'/'1' rows.
    if "hex" in obj:
        assert len(json.dumps(obj)) <= len(json.dumps(
            {"rows": m.rows, "cols": m.cols, "bits": ["0" * m.cols] * m.rows}))


def test_sparse_key_form_at_eight_thousand_rows():
    m = random_sparse_full_rank(8000, 3, random.Random(1))
    text = json.dumps(m.to_obj(), separators=(",", ":"))
    assert "ones" in json.loads(text)
    assert len(text) < 2**20
    assert BitMatrix.from_obj(json.loads(text)) == m


@pytest.mark.parametrize("edit,fragment", [
    (lambda o: o.update(counts=[3, 1, 2]), "'counts' must be non-negative and add up"),
    (lambda o: o.update(counts=[-1, 4, 2]), "'counts' must be non-negative and add up"),
    # Counts whose int64 sum wraps around to the number of ones.
    (lambda o: o.update(counts=[2**63 - 1, 2**63 - 1, 2], ones=[]),
     "'counts' must be non-negative and add up"),
    (lambda o: o.update(counts=[1, 1, 1]), "'counts' must be non-negative and add up"),
    (lambda o: o.update(counts=[2, 2]), "'counts' must hold one count per row"),
    (lambda o: o["ones"].__setitem__(0, 3), "'ones' must lie in 0..2"),
    (lambda o: o["ones"].__setitem__(0, -1), "'ones' must lie in 0..2"),
    (lambda o: o["ones"].__setitem__(1, 0), "'ones' of row 0 must be ascending"),
    (lambda o: o["ones"].__setitem__(3, 2), "'ones' of row 2 must be ascending"),
    (lambda o: o["ones"].__setitem__(slice(3, 5), [2, 1]),
     "'ones' of row 2 must be ascending"),
    (lambda o: o["ones"].__setitem__(0, 2**70), "'ones' holds an integer outside int64"),
    (lambda o: o["ones"].__setitem__(0, True), "'ones' must be a list of integers"),
    (lambda o: o.update(ones="012"), "'ones' must be a list of integers"),
    (lambda o: o.update(rows=-3), "'rows' must be a non-negative integer"),
    (lambda o: o.update(cols="3"), "'cols' must be a non-negative integer"),
    (lambda o: o.update(hex="0102"), "'hex' must be a string of 6 hex digits"),
    (lambda o: o.update(hex=[1, 2, 3]), "'hex' must be a string of 6 hex digits"),
    (lambda o: o.update(hex="01020x"), "'hex' holds a character that is not a hex digit"),
    (lambda o: o.update(hex="01 203"), "'hex' holds a character that is not a hex digit"),
    (lambda o: o.update(hex="010208"), "'hex' sets a bit at column 3 or above"),
    (lambda o: o.update(hex="8102ff"), "'hex' sets a bit at column 3 or above"),
], ids=["counts-sum-high", "counts-negative", "counts-sum-wraps", "counts-sum-low",
        "counts-short", "column-at-cols", "column-negative", "column-repeated",
        "last-row-repeated", "last-row-descending", "column-beyond-int64",
        "column-bool", "ones-not-list", "rows-negative", "cols-not-int",
        "hex-short", "hex-not-string", "hex-letter", "hex-space",
        "padding-bit-last-row", "padding-bit-first-row"])
def test_from_obj_rejects_malformed_forms(edit, fragment):
    # Rows hold columns 0 and 1, column 1, and columns 1 and 2.
    m = BitMatrix.from_strings(3, 3, ["110", "010", "011"])
    obj = _sparse_obj(m)
    obj["hex"] = _hex_obj(m)["hex"]
    if "hex" not in fragment:
        del obj["hex"]
    assert BitMatrix.from_obj(obj) == m
    edit(obj)
    with pytest.raises(ValueError, match=re.escape(fragment)):
        BitMatrix.from_obj(obj)


def test_from_obj_needs_an_object_and_its_fields():
    with pytest.raises(ValueError, match="expected an object, not list"):
        BitMatrix.from_obj([])
    with pytest.raises(KeyError):
        BitMatrix.from_obj({"rows": 1, "cols": 1})
    with pytest.raises(KeyError):
        BitMatrix.from_obj({"rows": 1, "cols": 1, "counts": [0]})


def test_rank_examples():
    assert gf2_rank(BitMatrix.identity(5)) == 5
    assert gf2_rank(BitMatrix(3, 3, [0, 0, 0])) == 0
    # Third row is the XOR of the first two.
    m = BitMatrix.from_strings(3, 3, ["101", "011", "110"])
    assert gf2_rank(m) == 2
    assert gf2_rank(BitMatrix.from_strings(1, 3, ["101"])) == 1


def _column_elimination_rank(m):
    """Reference rank: the earlier column-by-column elimination, which for
    each column finds a pivot row and clears that bit from every other row."""
    rows = list(m.row_bits)
    rank = 0
    for col in range(m.cols):
        pivot = None
        for i in range(rank, len(rows)):
            if (rows[i] >> col) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and (rows[i] >> col) & 1:
                rows[i] ^= rows[rank]
        rank += 1
        if rank == len(rows):
            break
    return rank


@st.composite
def _rank_case(draw):
    """A matrix that is dense, or sparse (row weight <= 3), with as many,
    more or fewer rows than columns, either count possibly zero."""
    rows = draw(st.integers(min_value=0, max_value=24))
    cols = draw(st.integers(min_value=0, max_value=24))
    if cols and draw(st.booleans()):
        position = st.integers(min_value=0, max_value=cols - 1)
        bits = [sum({1 << j for j in draw(st.lists(position, max_size=3))})
                for _ in range(rows)]
    else:
        word = st.integers(min_value=0, max_value=(1 << cols) - 1)
        bits = draw(st.lists(word, min_size=rows, max_size=rows))
    if rows and draw(st.booleans()):
        # Repeat a row or XOR two together, so rank deficiency is common.
        i, j, k = (draw(st.integers(min_value=0, max_value=rows - 1))
                   for _ in range(3))
        bits[i] = bits[j] ^ bits[k]
    return BitMatrix(rows, cols, bits)


@given(_rank_case())
@settings(max_examples=300)
def test_rank_matches_column_elimination(m):
    assert gf2_rank(m) == _column_elimination_rank(m)


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 5), (5, 0), (7, 3), (3, 7)])
def test_rank_matches_column_elimination_at_edges(rows, cols):
    rng = random.Random(rows * 10 + cols)
    m = BitMatrix(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])
    assert gf2_rank(m) == _column_elimination_rank(m) == min(rows, cols)


@given(_rank_case())
@settings(max_examples=200)
def test_key_forms_round_trip(m):
    assert BitMatrix.from_obj(m.to_obj()) == m
    _check_both_forms(m)


def _store_rows(m):
    """Each row's ones as the store lists them, after checking its layout."""
    starts, cols = m._starts, m._cols
    assert starts[0] == 0 and len(starts) == m.rows + 1 and starts[-1] == cols.size
    assert cols.dtype == starts.dtype == np.int64
    return [row_ones(m, i) for i in range(m.rows)]


def _bit_rows(m):
    """Each row's ones, ascending, read off ``row_bits`` one column at a time."""
    return [[j for j in range(m.cols) if bits >> j & 1] for bits in m.row_bits]


@given(_rank_case())
@settings(max_examples=300)
def test_row_ones_csr_lists_every_row(m):
    assert _store_rows(m) == _bit_rows(m)


@pytest.mark.parametrize("m", [
    BitMatrix(0, 0, []),
    BitMatrix(3, 0, [0, 0, 0]),
    BitMatrix(4, 70, [0] * 4),
    random_full_rank(130, random.Random(2)),  # converted from row ints
    random_sparse_full_rank(400, 3, random.Random(2)),  # written by the draw
    BitMatrix(3, 200, [0, 1 << 199, (1 << 200) - 1]),
], ids=["0x0", "3x0", "zeros", "dense", "sparse", "edges"])
def test_row_ones_csr_on_both_paths(m):
    assert _store_rows(m) == _bit_rows(m)
    assert BitMatrix(m.rows, m.cols, m.row_bits) == m


def test_invert_round_trip():
    rng = random.Random(9)
    for dim in [1, 2, 3, 5, 8, 13]:
        m = random_full_rank(dim, rng)
        inv = gf2_invert(m)
        assert gf2_mat_mul(m, inv) == BitMatrix.identity(dim)
        assert gf2_mat_mul(inv, m) == BitMatrix.identity(dim)


def test_invert_rejects_singular():
    with pytest.raises(SingularMatrixError):
        gf2_invert(BitMatrix(2, 2, [0, 0]))
    with pytest.raises(SingularMatrixError):
        gf2_invert(BitMatrix.from_strings(1, 3, ["101"]))


@given(st.integers(min_value=1, max_value=7), st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_mat_vec_matches_mat_mul(dim, rnd):
    m = BitMatrix(dim, dim, [rnd.getrandbits(dim) for _ in range(dim)])
    vec = [rnd.randint(0, 1) for _ in range(dim)]
    col = BitMatrix(dim, 1, vec)
    want = gf2_mat_mul(m, col).row_bits
    assert gf2_mat_vec(m, vec) == want


def test_integer_semantics_cancel():
    # Plain integer arithmetic, not mod 2: 1 + (-1) really cancels.
    r = BitMatrix(1, 2, [0b11])
    art = apply_random_matrix(LinearSystem(1, [[1], [-1]], [1, -1]), r)
    assert art.coeffs == [[0]]
    assert art.rhs == [0]


def test_integer_product_matches_naive():
    rng = random.Random(4)
    for _ in range(15):
        rows, mid, width = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 4)
        r = BitMatrix(rows, mid, [rng.getrandbits(mid) for _ in range(rows)])
        a = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(mid)]
        want = [
            [sum((r.row_bits[i] >> k & 1) * a[k][j] for k in range(mid))
             for j in range(width)]
            for i in range(rows)
        ]
        v = [rng.randint(-3, 3) for _ in range(mid)]
        art = apply_random_matrix(LinearSystem(width, a, v), r)
        assert art.coeffs == want
        assert art.rhs == [
            sum((r.row_bits[i] >> k & 1) * v[k] for k in range(mid))
            for i in range(rows)
        ]


@st.composite
def _sparse_product_case(draw):
    """A 0/1 ``r`` and a wide, mostly-zero integer ``a``: ``a`` has an
    all-zero row and column and a row cancelling the one before it, ``r``
    an all-zero row and another covering both cancelling rows and its own
    last column."""
    rows = draw(st.integers(min_value=2, max_value=6))
    mid = draw(st.integers(min_value=3, max_value=8))
    width = draw(st.integers(min_value=1, max_value=40))
    entry = st.sampled_from([0] * 8 + [-2, -1, 1, 2])
    a = [draw(st.lists(entry, min_size=width, max_size=width)) for _ in range(mid)]
    a[-1] = [-c for c in a[-2]]
    a[draw(st.integers(min_value=0, max_value=mid - 3))] = [0] * width
    zero_col = draw(st.integers(min_value=0, max_value=width - 1))
    for row in a:
        row[zero_col] = 0
    bits = [draw(st.integers(min_value=0, max_value=(1 << mid) - 1))
            for _ in range(rows)]
    zero_row = draw(st.integers(min_value=0, max_value=rows - 1))
    bits[zero_row] = 0
    bits[(zero_row + 1) % rows] |= 0b11 << (mid - 2)
    v = draw(st.lists(entry, min_size=mid, max_size=mid))
    v[-1] = -v[-2]
    return BitMatrix(rows, mid, bits), a, v


@given(_sparse_product_case())
@settings(max_examples=60)
def test_sparse_integer_product_matches_triple_loop(case):
    r, a, v = case
    assert _store_rows(r) == _bit_rows(r)
    want = [[0] * len(a[0]) for _ in range(r.rows)]
    for i in range(r.rows):
        for j in range(len(a[0])):
            for k in range(r.cols):
                want[i][j] += (r.row_bits[i] >> k & 1) * a[k][j]
    art = apply_random_matrix(LinearSystem(len(a[0]), a, v), r)
    assert art.coeffs == want
    assert art.rhs == [
        sum((r.row_bits[i] >> k & 1) * v[k] for k in range(r.cols))
        for i in range(r.rows)
    ]


def test_dimension_mismatches():
    m = BitMatrix.identity(2)
    with pytest.raises(ValueError):
        gf2_mat_mul(m, BitMatrix.identity(3))
    with pytest.raises(ValueError):
        gf2_mat_vec(m, [1, 0, 1])
    with pytest.raises(ValueError):
        apply_random_matrix(LinearSystem(1, [[1]], [1]), m)


def test_full_rank_sampling():
    for dim in [*range(1, 65), 600]:
        m = random_full_rank(dim, random.Random(dim))
        assert gf2_rank(m) == dim
        # Deterministic per seed, varies across seeds (dim 1 has one choice).
        assert random_full_rank(dim, random.Random(dim)) == m
    assert (random_full_rank(6, random.Random(1))
            != random_full_rank(6, random.Random(2)))
    with pytest.raises(ValueError):
        random_full_rank(0, random.Random(1))


def test_sparse_sampling_respects_weight():
    for dim, w in [(6, 2), (10, 3), (17, 3)]:
        m = random_sparse_full_rank(dim, w, random.Random(dim * 31 + w))
        assert gf2_rank(m) == dim
        assert all(bits.bit_count() <= w for bits in m.row_bits)
    # Weight 1 is exactly a permutation matrix.
    p = random_sparse_full_rank(8, 1, random.Random(3))
    assert all(bits.bit_count() == 1 for bits in p.row_bits)
    assert gf2_rank(p) == 8
    with pytest.raises(ValueError):
        random_sparse_full_rank(4, 0, random.Random(1))


def test_sparse_weight_above_dim_draws_as_dim():
    # A row holds at most dim ones, so a huge weight costs no more draws.
    for seed in range(8):
        assert (random_sparse_full_rank(3, 10**6, random.Random(seed))
                == random_sparse_full_rank(3, 3, random.Random(seed)))


def test_sparse_sampling_at_scale():
    # The draw is a permuted unit lower-triangular matrix, full rank by
    # construction, at a dimension where a draw redrawn until full rank
    # would often give up.  Its extra ones (about one per row) must be
    # there: without them it is a bare permutation, which passes every
    # other sampler check.
    dim = 16384
    m = random_sparse_full_rank(dim, 3, random.Random(1))
    assert gf2_rank(m) == dim
    assert all(bits.bit_count() <= 3 for bits in m.row_bits)
    assert m.nonzero_count() > 1.5 * dim


@pytest.mark.parametrize("draw", [
    lambda rng: random_sparse_full_rank(32768, 3, rng),
    lambda rng: solsetrand._draw_substitution(
        32768, rng, 3, frozenset(range(1, 32768, 7))),
], ids=["draw", "fixed-vars"])
def test_sparse_draw_peak_memory_is_linear(draw):
    # The store of about 2 ones per row is about 1 MB, while one int per
    # row, as wide as its highest one, averages 2 KB at this size.
    rng = random.Random(1)
    tracemalloc.start()
    try:
        m = draw(rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.nonzero_count() > 1.5 * 28000
    assert peak < 16 * 2**20


@pytest.mark.parametrize("dim,chi2_999", [(2, 20.52), (3, 229.21)])
def test_dense_draw_is_uniform(dim, chi2_999):
    # Every element of GL_dim(F_2) is drawn about 300 times; chi2_999 is the
    # 99.9% point of the chi-squared distribution with one degree of
    # freedom fewer than the group has elements (scipy's chi2.ppf).
    order = 1
    for i in range(dim):
        order *= 2**dim - 2**i
    rng = random.Random(21)
    counts = Counter(
        tuple(random_full_rank(dim, rng).row_bits) for _ in range(order * 300)
    )
    assert len(counts) == order
    assert all(gf2_rank(BitMatrix(dim, dim, list(rows))) == dim for rows in counts)
    assert sum((c - 300) ** 2 / 300 for c in counts.values()) < chi2_999


def test_dense_gf2_secret_is_the_drawn_matrix(monkeypatch):
    def no_inversion(m):
        raise AssertionError("the client inverted a matrix")

    monkeypatch.setattr(solsetrand, "gf2_invert", no_inversion)
    original = random_three_cnf(random.Random(3), 12, 40)
    _, secret = solsetrand.gf_randomize(original, 5)
    assert secret.r_inv == random_full_rank(12, random.Random(5))
