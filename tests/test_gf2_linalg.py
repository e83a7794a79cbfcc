"""Bitset matrices: GF(2) and integer semantics, rank, inversion, sampling."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gf2_mat_mul, random_three_cnf
from satcloak import solsetrand
from satcloak.gf2 import (
    BitMatrix,
    SingularMatrixError,
    gf2_invert,
    gf2_mat_vec,
    gf2_rank,
    random_full_rank,
    random_sparse_full_rank,
    row_ones_csr,
)
from satcloak.matrixrand import LinearSystem, apply_random_matrix


def test_constructors_and_accessors():
    m = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert (m.rows, m.cols) == (2, 3)
    assert m.get(0, 0) == 1 and m.get(0, 1) == 0
    assert m.to_rows() == [[1, 0, 1], [0, 1, 1]]
    assert m.row_ones(1) == [1, 2]
    assert m.nonzero_count() == 4
    assert BitMatrix.identity(3).to_rows() == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]
    assert BitMatrix.zeros(2, 2).nonzero_count() == 0


def test_construction_errors():
    with pytest.raises(ValueError, match="row count"):
        BitMatrix(2, 3, [1])
    with pytest.raises(ValueError, match="beyond declared column count"):
        BitMatrix(1, 2, [4])
    with pytest.raises(ValueError, match="ragged"):
        BitMatrix.from_rows([[1, 0], [1]])
    with pytest.raises(ValueError, match="0 or 1"):
        BitMatrix.from_rows([[2]])


def test_transpose_involution():
    rng = random.Random(1)
    for _ in range(10):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = BitMatrix(r, c, [rng.getrandbits(c) for _ in range(r)])
        t = m.transpose()
        assert (t.rows, t.cols) == (c, r)
        assert all(m.get(i, j) == t.get(j, i) for i in range(r) for j in range(c))
        assert t.transpose() == m


def test_string_round_trip():
    m = BitMatrix.from_rows([[1, 1, 0], [0, 0, 1]])
    s = m.to_strings()
    assert s == ["110", "001"]
    assert BitMatrix.from_strings(2, 3, s) == m
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
    strings = m.to_strings()
    assert strings == [
        "".join(str(m.get(i, j)) for j in range(cols)) for i in range(rows)
    ]
    assert BitMatrix.from_strings(rows, cols, strings) == m


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


def test_rank_examples():
    assert gf2_rank(BitMatrix.identity(5)) == 5
    assert gf2_rank(BitMatrix.zeros(3, 3)) == 0
    # Third row is the XOR of the first two.
    m = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    assert gf2_rank(m) == 2
    assert gf2_rank(BitMatrix.from_rows([[1, 0, 1]])) == 1


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


def _csr_rows(m):
    starts, cols = row_ones_csr(m)
    assert starts[0] == 0 and len(starts) == m.rows + 1
    assert cols.dtype == starts.dtype == np.int64
    return [cols[starts[i]:starts[i + 1]].tolist() for i in range(m.rows)]


@given(_rank_case())
@settings(max_examples=300)
def test_row_ones_csr_lists_every_row(m):
    assert _csr_rows(m) == [m.row_ones(i) for i in range(m.rows)]


@pytest.mark.parametrize("m", [
    BitMatrix(0, 0, []),
    BitMatrix(3, 0, [0, 0, 0]),
    BitMatrix.zeros(4, 70),
    random_full_rank(130, 2),  # unpacked: half the bits are ones
    random_sparse_full_rank(400, 3, 2),  # walked: about one bit in 200
    BitMatrix(3, 200, [0, 1 << 199, (1 << 200) - 1]),
], ids=["0x0", "3x0", "zeros", "dense", "sparse", "edges"])
def test_row_ones_csr_on_both_paths(m):
    assert _csr_rows(m) == [m.row_ones(i) for i in range(m.rows)]


def test_invert_round_trip():
    rng = random.Random(9)
    for dim in [1, 2, 3, 5, 8, 13]:
        m = random_full_rank(dim, rng)
        inv = gf2_invert(m)
        assert gf2_mat_mul(m, inv) == BitMatrix.identity(dim)
        assert gf2_mat_mul(inv, m) == BitMatrix.identity(dim)


def test_invert_rejects_singular():
    with pytest.raises(SingularMatrixError):
        gf2_invert(BitMatrix.zeros(2, 2))
    with pytest.raises(SingularMatrixError):
        gf2_invert(BitMatrix.from_rows([[1, 0, 1]]))


@given(st.integers(min_value=1, max_value=7), st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_mat_vec_matches_mat_mul(dim, rnd):
    m = BitMatrix(dim, dim, [rnd.getrandbits(dim) for _ in range(dim)])
    vec = [rnd.randint(0, 1) for _ in range(dim)]
    col = BitMatrix.from_rows([[v] for v in vec])
    want = [row[0] for row in gf2_mat_mul(m, col).to_rows()]
    assert gf2_mat_vec(m, vec) == want


def test_integer_semantics_cancel():
    # Plain integer arithmetic, not mod 2: 1 + (-1) really cancels.
    r = BitMatrix.from_rows([[1, 1]])
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
            [sum(r.get(i, k) * a[k][j] for k in range(mid)) for j in range(width)]
            for i in range(rows)
        ]
        v = [rng.randint(-3, 3) for _ in range(mid)]
        art = apply_random_matrix(LinearSystem(width, a, v), r)
        assert art.coeffs == want
        assert art.rhs == [
            sum(r.get(i, k) * v[k] for k in range(mid)) for i in range(rows)
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
    for i in range(r.rows):
        assert r.row_ones(i) == [j for j in range(r.cols) if r.get(i, j)]
    want = [[0] * len(a[0]) for _ in range(r.rows)]
    for i in range(r.rows):
        for j in range(len(a[0])):
            for k in range(r.cols):
                want[i][j] += r.get(i, k) * a[k][j]
    art = apply_random_matrix(LinearSystem(len(a[0]), a, v), r)
    assert art.coeffs == want
    assert art.rhs == [
        sum(r.get(i, k) * v[k] for k in range(r.cols)) for i in range(r.rows)
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
        m = random_full_rank(dim, seed=dim)
        assert gf2_rank(m) == dim
        # Deterministic per seed, varies across seeds (dim 1 has one choice).
        assert random_full_rank(dim, seed=dim) == m
    assert random_full_rank(6, seed=1) != random_full_rank(6, seed=2)
    with pytest.raises(ValueError):
        random_full_rank(0, seed=1)


def test_sparse_sampling_respects_weight():
    for dim, w in [(6, 2), (10, 3), (17, 3)]:
        m = random_sparse_full_rank(dim, w, seed=dim * 31 + w)
        assert gf2_rank(m) == dim
        assert all(bits.bit_count() <= w for bits in m.row_bits)
    # Weight 1 is exactly a permutation matrix.
    p = random_sparse_full_rank(8, 1, seed=3)
    assert all(bits.bit_count() == 1 for bits in p.row_bits)
    assert gf2_rank(p) == 8
    with pytest.raises(ValueError):
        random_sparse_full_rank(4, 0, seed=1)


def test_sparse_sampling_at_scale():
    # The draw is a permuted unit lower-triangular matrix, full rank by
    # construction, at a dimension where a draw redrawn until full rank
    # would often give up.  Its extra ones (about one per row) must be
    # there: without them it is a bare permutation, which passes every
    # other sampler check.
    dim = 16384
    m = random_sparse_full_rank(dim, 3, seed=1)
    assert gf2_rank(m) == dim
    assert all(bits.bit_count() <= 3 for bits in m.row_bits)
    assert m.nonzero_count() > 1.5 * dim


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
