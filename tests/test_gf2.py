import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from naive import (
    naive_col_weights,
    naive_greedy_rows,
    naive_kernel,
    naive_kron,
    naive_parse_row,
    naive_rank,
    naive_rref,
    naive_span,
    naive_transpose,
)

from cssbalance import (
    BitMatrix,
    ChainComplex,
    ClassicalCode,
    CssCode,
    block,
    distance_balance,
    double_balance,
    hamming74,
    locality,
    parse_pcm,
    q_complex,
    rep_standard,
    row_basis,
    write_pcm,
)
from cssbalance import gf2
from cssbalance.gf2 import _DENSE_SPAN, _read_rows
from conftest import rand_matrix

H3 = BitMatrix.from_strings(["110", "011"])


def test_constructor_checks_dimensions_and_rows():
    """The public constructor refuses rows that do not fit; only the
    builders whose rows fit by construction skip the check."""
    with pytest.raises(ValueError, match="row value does not fit in 2 bits"):
        BitMatrix(1, 2, [0b100])
    with pytest.raises(ValueError, match="row value does not fit in 2 bits"):
        BitMatrix(1, 2, [-1])
    with pytest.raises(ValueError, match="expected 2 row values, got 1"):
        BitMatrix(2, 2, [1])
    for bad in (lambda: BitMatrix(-1, 2), lambda: BitMatrix.identity(-1)):
        with pytest.raises(ValueError, match="matrix dimensions must be >= 0"):
            bad()


def test_rank_examples():
    assert BitMatrix.identity(4).rank() == 4
    assert BitMatrix.zeros(3, 5).rank() == 0
    assert H3.rank() == 2


def test_rank_matches_row_span_enumeration(rng):
    for _ in range(30):
        a = rand_matrix(rng, rng.randint(0, 6), rng.randint(0, 8))
        assert a.rank() == naive_rank(a)


def test_kernel_basis_examples():
    assert BitMatrix.identity(3).kernel_basis() == []
    assert H3.kernel_basis() == [0b111]
    assert len(BitMatrix.zeros(2, 3).kernel_basis()) == 3


def test_kernel_basis_is_kept_but_returned_afresh():
    """The basis is built once per matrix and kept with the reduced rows;
    a caller that changes the list it got changes no later answer."""
    a = BitMatrix.from_strings(["1100", "0110"])
    first = a.kernel_basis()
    assert len(a._echelon) == 4 and len(a._rref()) == 3
    want = list(first)
    first.append(1)
    first[0] = 0
    second = a.kernel_basis()
    assert second == want and second is not a.kernel_basis()


def test_rank_nullity(rng):
    for _ in range(50):
        a = rand_matrix(rng, rng.randint(0, 8), rng.randint(0, 10))
        basis = a.kernel_basis()
        assert a.rank() + len(basis) == a.cols
        for v in basis:
            assert all((row & v).bit_count() % 2 == 0 for row in a.row_ints())


def test_kron_identities():
    assert BitMatrix.identity(2).kron(BitMatrix.identity(3)) == BitMatrix.identity(6)


def test_kron_hand_expansion():
    a = BitMatrix.from_strings(["11"])
    got = a.kron(BitMatrix.identity(2))
    assert got == BitMatrix.from_strings(["1010", "0101"])


def test_kron_empty():
    a = rand_matrix(random.Random(5), 3, 4)
    empty = BitMatrix.zeros(0, 0)
    out = a.kron(empty)
    assert (out.rows, out.cols) == (0, 0)


def test_kron_mixed_product(rng):
    for _ in range(25):
        m, k, p = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        m2, k2, p2 = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = rand_matrix(rng, m, k)
        c = rand_matrix(rng, k, p)
        b = rand_matrix(rng, m2, k2)
        d = rand_matrix(rng, k2, p2)
        assert a.kron(b) @ c.kron(d) == (a @ c).kron(b @ d)


def test_matmul_vec_associativity(rng):
    """(AB)v = A(Bv), with the vector v as a one-column matrix."""
    for _ in range(40):
        m, k, n = rng.randint(1, 12), rng.randint(1, 12), rng.randint(1, 12)
        a = rand_matrix(rng, m, k)
        b = rand_matrix(rng, k, n)
        v = rand_matrix(rng, n, 1)
        assert (a @ b) @ v == a @ (b @ v)


def test_block_diagonal():
    eye, zeros = BitMatrix.identity, BitMatrix.zeros
    assert block([[eye(2), zeros(2, 3)], [zeros(3, 2), eye(3)]]) == BitMatrix.identity(5)


def test_block_takes_only_matrices():
    with pytest.raises(TypeError):
        block([[BitMatrix.identity(2), None], [0, BitMatrix.identity(3)]])
    with pytest.raises(ValueError):
        block([[]])
    assert block([]) == BitMatrix.zeros(0, 0)


def test_block_horizontal_shape():
    left = H3.transpose()
    right = BitMatrix.identity(3).kron(BitMatrix.from_strings(["11"]))
    out = block([[left, right]])
    assert out.rows == 3 and out.cols == left.cols + right.cols


def test_block_mismatched_heights():
    with pytest.raises(ValueError):
        block([[BitMatrix.identity(2), BitMatrix.identity(3)]])


def test_transpose_involution(rng):
    a = rand_matrix(rng, 5, 7)
    assert a.transpose().transpose() == a


def test_row_basis_keeps_kernel(rng):
    for _ in range(20):
        a = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        rb = row_basis(a)
        assert rb.rank() == rb.rows == a.rank()
        assert rb.kernel_basis() == a.kernel_basis()


def test_pcm_round_trip(rng):
    for _ in range(20):
        a = rand_matrix(rng, rng.randint(0, 6), rng.randint(0, 9))
        assert parse_pcm(write_pcm(a)) == a


def test_pcm_exact_text():
    assert write_pcm(H3) == "2 3\n110\n011\n"


def test_pcm_comments_and_missing_newline():
    assert parse_pcm("# a comment\n2 3\n110\n# mid comment\n011") == H3


def test_pcm_errors():
    with pytest.raises(ValueError):
        parse_pcm("")
    with pytest.raises(ValueError):
        parse_pcm("2 3\n110\n01")
    with pytest.raises(ValueError):
        parse_pcm("2 3\n110\n01x")
    with pytest.raises(ValueError):
        parse_pcm("nonsense\n")
    for row in ("1_", " 1", "+1", "12"):  # int() takes spaces, signs, underscores
        with pytest.raises(ValueError):
            parse_pcm(f"1 2\n{row}\n")
    # int(..., 2) also takes full-width and Arabic-Indic digits and a
    # trailing tab.
    for row in ("\uff11\uff10", "\u0660\u0661", "1\t"):
        with pytest.raises(ValueError, match="bad matrix row"):
            parse_pcm(f"1 2\n{row}\n")


def test_empty_matrices_are_legal():
    a = BitMatrix.zeros(0, 4)
    assert a.rank() == 0
    assert len(a.kernel_basis()) == 4
    b = BitMatrix.zeros(4, 0)
    assert b.rank() == 0
    assert b.kernel_basis() == []


@st.composite
def matrices(draw, max_rows=5, max_cols=5):
    cols = draw(st.integers(0, max_cols))
    rows = draw(st.lists(st.integers(0, (1 << cols) - 1), max_size=max_rows))
    if rows and draw(st.booleans()):
        rows.append(rows[0] ^ rows[-1])  # a dependent row (zero for one row)
    if draw(st.booleans()):
        rows.append(0)
    if cols and draw(st.booleans()):
        src = draw(st.integers(0, cols - 1))
        rows = [r | (((r >> src) & 1) << cols) for r in rows]  # a duplicate column
        cols += 1
    return BitMatrix(len(rows), cols, rows)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(matrices(max_rows=4, max_cols=5), matrices(max_rows=4, max_cols=5))
@example(BitMatrix.zeros(0, 3), H3)  # no rows on the left
@example(H3, BitMatrix.zeros(0, 2))  # no rows on the right
@example(BitMatrix.zeros(2, 0), H3)  # no columns on the left
@example(H3, BitMatrix.zeros(2, 0))  # no columns on the right
@example(BitMatrix.from_strings(["111", "101"]), BitMatrix.from_strings(["11", "11"]))
def test_kron_matches_naive(a, b):
    assert a.kron(b) == naive_kron(a, b)


@st.composite
def dense_matrices(draw, max_rows=40, max_cols=40):
    """Rows of uniform random bits: most columns count past one, so the
    count planes carry."""
    rows, cols = draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols))
    return rand_matrix(random.Random(draw(st.integers(0, 1 << 32))), rows, cols)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(matrices(max_rows=9, max_cols=8), dense_matrices()))
@example(BitMatrix.zeros(0, 4))
@example(BitMatrix.zeros(3, 0))
@example(BitMatrix(300, 8, [0xFF] * 299 + [0x0F]))  # counts past one byte
def test_locality_matches_naive(a):
    want = max([v.bit_count() for v in a.row_ints()] + naive_col_weights(a), default=0)
    assert locality(ClassicalCode(a)) == want


def test_locality_past_sixteen_planes():
    """70000 rows of five ones: the counts of the four middle columns need
    17 count planes."""
    a = BitMatrix(70000, 6, [0b011111, 0b111110] * 35000)
    assert naive_col_weights(a) == [35000] + [70000] * 4 + [35000]
    assert locality(ClassicalCode(a)) == 70000


def _check_rank(a):
    assert a.rank() == naive_rank(a)


def _check_kernel_basis(a):
    basis = a.kernel_basis()
    assert len(basis) == a.cols - naive_rank(a)
    assert naive_span(BitMatrix(len(basis), a.cols, basis)) == set(naive_kernel(a))


def _check_pivot_columns(a):
    assert a.pivot_columns() == naive_greedy_rows(naive_transpose(a))


def _check_row_basis(a):
    assert row_basis(a).row_ints() == tuple(a.row_ints()[r] for r in naive_greedy_rows(a))


def _check_rref(a):
    rows, pivots = naive_rref(a)
    assert a._rref() == (tuple(rows), tuple(pivots), tuple(naive_greedy_rows(a)))


ELIMINATION_CHECKS = {
    "rank": _check_rank,
    "kernel_basis": _check_kernel_basis,
    "pivot_columns": _check_pivot_columns,
    "row_basis": _check_row_basis,
    "_rref": _check_rref,
}
# The readers that need the back-substituted rows; the others read the
# forward stage alone.
REDUCED_READERS = {"kernel_basis", "_rref"}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(matrices(max_rows=9, max_cols=8), st.permutations(sorted(ELIMINATION_CHECKS)))
@example(BitMatrix.zeros(0, 3), sorted(ELIMINATION_CHECKS))  # no rows
@example(BitMatrix.zeros(3, 0), sorted(ELIMINATION_CHECKS))  # no columns
@example(BitMatrix.zeros(0, 0), sorted(ELIMINATION_CHECKS))
@example(BitMatrix.from_strings(["110", "110", "000", "011"]), sorted(ELIMINATION_CHECKS))
@example(BitMatrix.from_strings(["10", "01", "11"]), sorted(ELIMINATION_CHECKS))  # rank == cols
# Rank reaches cols at the second row, before the reduced readers come.
@example(BitMatrix.from_strings(["10", "01", "11", "10"]),
         ["rank", "pivot_columns", "row_basis", "kernel_basis", "_rref"])
# Tall: each later row reduces to zero only after three or four XORs.
@example(BitMatrix.from_strings(["11000", "01100", "00110", "00011", "11110", "10111",
                                 "01111", "11011", "11101"]), sorted(ELIMINATION_CHECKS))
# The last row's pivot must be cleared from all three earlier pivot rows.
@example(BitMatrix.from_strings(["10011", "01011", "00111", "00010"]), sorted(ELIMINATION_CHECKS))
# Pivots arrive in descending column order.
@example(BitMatrix.from_strings(["00011", "00110", "01100", "11000"]), sorted(ELIMINATION_CHECKS))
def test_elimination_matches_naive(a, order):
    """Every method that eliminates agrees with the span-set references,
    whatever the order of the calls on one matrix; an equal matrix built
    afresh and the transpose, checked in between, share no cached form.
    The back-substitution runs only once a reader of the reduced rows
    comes. The cache takes no part in equality or hashing, of the matrix
    or of a record built on it."""
    twin = BitMatrix(a.rows, a.cols, a.row_ints())
    for i, name in enumerate(order):
        ELIMINATION_CHECKS[name](a)
        reduced = not REDUCED_READERS.isdisjoint(order[:i + 1])
        assert isinstance(a._echelon[0], tuple) == reduced
        ELIMINATION_CHECKS[name](a.transpose())
    for name in reversed(order):
        ELIMINATION_CHECKS[name](a)
        ELIMINATION_CHECKS[name](twin)
    assert a == twin and hash(a) == hash(twin)
    fresh = BitMatrix(a.rows, a.cols, a.row_ints())
    assert a._echelon is not None and fresh._echelon is None
    records = (
        lambda m: ChainComplex((m.cols, m.rows), (m,)),
        lambda m: CssCode.from_check_matrices(m, BitMatrix.zeros(0, m.cols)),
        ClassicalCode,
    )
    for record in records:
        assert record(a) == record(fresh) and hash(record(a)) == hash(record(fresh))


def _check_against_gauss_jordan(a):
    """_rref and kernel_basis against textbook Gauss-Jordan elimination,
    which needs no span sets and so reaches hundreds of columns."""
    rows, pivots = naive_rref(a)
    assert a._rref()[:2] == (tuple(rows), tuple(pivots))
    # Row r raises the rank of the rows before it exactly when column r of
    # the transpose lies outside the span of the columns before it.
    assert list(a._rref()[2]) == naive_rref(naive_transpose(a))[1]
    free = [c for c in range(a.cols) if c not in pivots]
    basis = a.kernel_basis()
    assert len(basis) == a.cols - len(pivots)
    free_mask = sum(1 << f for f in free)
    for f, v in zip(free, basis):
        assert all((row & v).bit_count() % 2 == 0 for row in a.row_ints())
        assert v & free_mask == 1 << f


def _balanced_matrices():
    r4 = rep_standard(4)
    double = double_balance(q_complex(r4.h), r4).code  # n = 284
    single = distance_balance(q_complex(rep_standard(3).h), hamming74()).code
    return [double.h_x, double.h_z, single.h_x, single.h_z]


@pytest.mark.parametrize("a", _balanced_matrices(),
                         ids=["double-hx", "double-hz", "single-hx", "single-hz"])
def test_elimination_matches_gauss_jordan_on_balanced_codes(a):
    _check_against_gauss_jordan(a)


@st.composite
def sparse_matrices(draw, max_rows=48, max_cols=64, max_row_weight=6):
    cols = draw(st.integers(1, max_cols))
    count = draw(st.integers(0, max_rows))
    support = st.sets(st.integers(0, cols - 1), max_size=min(max_row_weight, cols))
    rows = [sum(1 << c for c in cs)
            for cs in draw(st.lists(support, min_size=count, max_size=count))]
    for i, j in draw(st.lists(st.tuples(st.integers(0, max_rows), st.integers(0, max_rows)),
                              max_size=4 if rows else 0)):
        rows.append(rows[i % len(rows)] ^ rows[j % len(rows)])  # a dependent row
    return BitMatrix(len(rows), cols, rows)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sparse_matrices())
def test_elimination_matches_gauss_jordan_on_sparse_matrices(a):
    _check_against_gauss_jordan(a)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(matrices(max_rows=6, max_cols=12))
@example(BitMatrix.zeros(0, 0))
@example(BitMatrix.zeros(0, 4))  # no rows
@example(BitMatrix.zeros(3, 0))  # no columns: empty row lines
def test_pcm_round_trip_property(a):
    assert parse_pcm(write_pcm(a)) == a
    assert BitMatrix.from_strings(write_pcm(a).split("\n")[1:-1], a.cols) == a


PCM_TEXT = st.one_of(
    st.text(max_size=40),
    st.text(alphabet="01 #\n-+_x2\t", max_size=40),
    st.builds(lambda head, body: head + "\n" + body,
              st.sampled_from(["2 3", "1 2", "0 0", "3 0", "-1 2", "2", "1_0 1"]),
              st.text(alphabet="01 \n_+#", max_size=20)),
)


def _parsed(text):
    try:
        return "ok", parse_pcm(text)
    except ValueError as exc:
        return "error", str(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(PCM_TEXT, st.sampled_from(["\n", "\\n", "\r\n"]))
# Non-ASCII text in the header, the rows and a comment: the reader sees a
# '?' for each character of a str, so only the line reader reads them.
@example("\uff12 3\n110\n011\n", "\n")
@example("1 2\n1\u00e9\n", "\n")
@example("# \u00e9\n1 2\n10\n", "\n")
def test_parse_pcm_reads_a_str_as_its_bytes(text, nl):
    """parse_pcm of a str and of its UTF-8 bytes give the same matrix or
    the same error text, with the line breaks written as nl: only "\\n"
    is a line break, so the others are refused or read as row text."""
    x = text.replace("\n", nl)
    assert _parsed(x.encode()) == _parsed(x)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(PCM_TEXT)
def test_parse_pcm_raises_only_value_error(text):
    try:
        a = parse_pcm(text)
    except ValueError:
        return
    assert parse_pcm(write_pcm(a)) == a


@st.composite
def pcm_row_texts(draw):
    """(cols, row lines) with 0 to 3000 columns. A row's count of ones is
    drawn up to one past the reader's switch (ones * _DENSE_SPAN == cols),
    up to cols, or is cols. Half the time the first row sits at the switch,
    with ones * _DENSE_SPAN within one of cols."""
    counts = []
    if draw(st.booleans()):
        k = draw(st.integers(0, 3000 // _DENSE_SPAN))
        cols = max(k, _DENSE_SPAN * k + draw(st.integers(-1, 1)))
        counts.append(k)
    else:
        cols = draw(st.integers(0, 3000))
    counts += draw(st.lists(st.one_of(
        st.integers(0, min(cols, cols // _DENSE_SPAN + 1)), st.integers(0, cols), st.just(cols),
    ), max_size=3))
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    lines = []
    for ones in counts:
        where = set(rng.sample(range(cols), ones))
        lines.append("".join("1" if c in where else "0" for c in range(cols)))
    return cols, lines


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pcm_row_texts())
@example((0, ["", ""]))
@example((2648, ["0" * 2642 + "1" * 6, "1" * 64 + "0" * 2584, "0" * 2648]))
def test_parse_pcm_matches_character_reader(case):
    cols, lines = case
    text = f"{len(lines)} {cols}\n" + "".join(ln + "\n" for ln in lines)
    a = parse_pcm(text)
    assert a.row_ints() == tuple(naive_parse_row(ln, cols) for ln in lines)
    assert write_pcm(a) == text


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(matrices(max_rows=6, max_cols=12),
                 st.builds(lambda case: BitMatrix.from_strings(case[1], case[0]),
                           pcm_row_texts())))
@example(BitMatrix.zeros(0, 0))
@example(BitMatrix.zeros(0, 4))  # no rows: the header line alone
@example(BitMatrix.zeros(3, 0))  # no columns: rows of the newline alone
# One row on each side of the dense switch (ones * _DENSE_SPAN == cols).
@example(BitMatrix(2, 2 * _DENSE_SPAN, [1 | 1 << _DENSE_SPAN, 0b111 << _DENSE_SPAN]))
def test_write_pcm_escaped_newline_is_the_replaced_text(a):
    """The JSON body that a complex file holds, written in one pass, is the
    pcm text with each newline escaped afterwards; with a bytes newline it
    is those bytes, whose rows the row reader reads back from their range,
    and parse_pcm reads the bytes of the plain text."""
    text = write_pcm(a)
    assert write_pcm(a, "\\n") == text.replace("\n", "\\n")
    for nl in (b"\n", b"\\n"):
        data = write_pcm(a, nl)
        assert type(data) is bytes and data == text.encode().replace(b"\n", nl)
        body = data.index(nl) + len(nl)
        rows = _read_rows(b"#" + data, body + 1, len(data) + 1, a.rows, a.cols, nl)
        assert rows == list(a.row_ints())
    assert parse_pcm(write_pcm(a, b"\n")) == a


@pytest.mark.parametrize("newline", ["", "0", "\r\n", b" "])
def test_write_pcm_refuses_a_newline_no_reader_reads(newline):
    with pytest.raises(ValueError, match="newline must be"):
        write_pcm(H3, newline)


def _bad_rows(cols: int) -> list[str]:
    """Rows of a cols-column matrix that are one character short, one
    long, or hold a 2, a space or an underscore."""
    zeros = "0" * (cols - 2)
    return ["1" + zeros, "1" + zeros + "00", "12" + zeros, "1 " + zeros, "1_" + zeros]


@pytest.mark.parametrize("cols", [2, 200])
def test_parse_pcm_rejects_bad_rows_by_text(cols):
    for line in _bad_rows(cols):
        with pytest.raises(ValueError):
            naive_parse_row(line, cols)
        with pytest.raises(ValueError) as exc:
            parse_pcm(f"1 {cols}\n{line}\n")
        assert str(exc.value) == f"bad matrix row: {line!r}"


# Chunks of a few bytes hold one row or a few, so every row boundary is
# also a chunk boundary somewhere.
SMALL_CHUNKS = [1, 4, 9, 23]


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
def test_chunked_reader_matches_character_reader(monkeypatch, rng, chunk):
    monkeypatch.setattr(gf2, "_CHUNK_BYTES", chunk)
    for _ in range(40):
        a = rand_matrix(rng, rng.randint(0, 7), rng.randint(0, 9))
        text = write_pcm(a)
        lines = text.split("\n")[1:-1]
        want = tuple(naive_parse_row(ln, a.cols) for ln in lines)
        assert parse_pcm(text).row_ints() == want
        assert BitMatrix.from_strings(lines, a.cols).row_ints() == want
        if a.rows and a.cols:  # the final newline is optional
            assert parse_pcm(text[:-1]).row_ints() == want
        commented = "# head\n" + "\n".join(ln + "\n# between" for ln in text.split("\n")[:-1])
        assert parse_pcm(commented).row_ints() == want
        data = write_pcm(a, b"\\n")
        body = data.index(b"\\n") + 2
        assert tuple(_read_rows(data, body, len(data), a.rows, a.cols, b"\\n")) == want


# Row texts of an escaped newline that hold only 0/1 and the escapes'
# bytes, in the right count, but not each in its place: a row whose escape
# is split across two rows, and rows shifted by one byte.
MISPLACED_ESCAPES = [(b"01\\0n1\\n", 2, 2), (b"\\n0\\n1", 2, 1), (b"0\\n\\1n", 2, 1),
                     (b"\\n\\n", 1, 2), (b"n0\\", 1, 1)]


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
def test_chunked_reader_refuses_misplaced_escapes(monkeypatch, chunk):
    """An escaped newline is two bytes, and the chunk edges fall between
    rows, so one row's escape ends a chunk and the next row starts one:
    each byte of the escape is checked in its place."""
    monkeypatch.setattr(gf2, "_CHUNK_BYTES", chunk)
    for data, rows, cols in MISPLACED_ESCAPES:
        assert _read_rows(data, 0, len(data), rows, cols, b"\\n") is None
    data = b"3 2\\n01\\n11\\n10\\n"
    assert _read_rows(data, 5, len(data), 3, 2, b"\\n") == [2, 3, 1]


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
def test_chunked_reader_at_the_dense_switch(monkeypatch, rng, chunk):
    """Rows with one fewer, as many and one more ones than the switch
    allows a sparse read, against the character reader."""
    monkeypatch.setattr(gf2, "_CHUNK_BYTES", chunk)
    for cols in (_DENSE_SPAN - 1, _DENSE_SPAN, 2 * _DENSE_SPAN, 2 * _DENSE_SPAN + 1):
        limit = cols // _DENSE_SPAN
        lines = []
        for ones in (limit - 1, limit, limit + 1):
            where = set(rng.sample(range(cols), max(ones, 0)))
            lines.append("".join("1" if c in where else "0" for c in range(cols)))
        text = f"{len(lines)} {cols}\n" + "".join(ln + "\n" for ln in lines)
        a = parse_pcm(text)
        assert a.row_ints() == tuple(naive_parse_row(ln, cols) for ln in lines)
        assert write_pcm(a) == text


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
def test_chunked_reader_refuses_by_text(monkeypatch, chunk):
    """A fault in any chunk, the last included, gives the line reader's
    error text."""
    monkeypatch.setattr(gf2, "_CHUNK_BYTES", chunk)
    rows = ["0110", "1001", "1111", "0000"]
    for i in range(len(rows)):
        for bad in ("01x0", "011", "01100", "0\ud8001", "0\uff1100", "01_0"):
            lines = rows[:i] + [bad] + rows[i + 1:]
            text = "4 4\n" + "".join(ln + "\n" for ln in lines)
            readers = [lambda: parse_pcm(text), lambda: BitMatrix.from_strings(lines, 4)]
            if "\ud800" not in bad:  # a lone surrogate has no bytes
                readers.append(lambda: parse_pcm(text.encode()))
            for reader in readers:
                with pytest.raises(ValueError) as exc:
                    reader()
                assert str(exc.value) == f"bad matrix row: {bad!r}"
    with pytest.raises(ValueError) as exc:
        parse_pcm("2 4\n0110\n1001\n\n")
    assert str(exc.value) == "expected 2 rows, found 3"


def test_huge_header_fails_before_allocating():
    """The body's length is checked against the header before anything
    of the header's size is made."""
    with pytest.raises(ValueError) as exc:
        parse_pcm("1000000000000 3\n101\n")
    assert str(exc.value) == "expected 1000000000000 rows, found 1"
    with pytest.raises(ValueError) as exc:
        parse_pcm("1 1000000000000\n101\n")
    assert str(exc.value) == "bad matrix row: '101'"
