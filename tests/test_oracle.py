import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from naive import (
    naive_depths,
    naive_distance,
    naive_min_weight,
    naive_quantum_distances,
    naive_rref,
    naive_soundness,
)

from cssbalance import (
    INFINITE,
    BitMatrix,
    CapExceeded,
    ChainComplex,
    ClassicalCode,
    CssCode,
    analyze_classical,
    analyze_quantum,
    as_css,
    classical_dimension,
    classical_distance,
    classical_soundness,
    cocomplex,
    component_soundness,
    hamming74,
    locality,
    q_complex,
    distance_balance,
    quantum_dimension,
    quantum_distance_x,
    quantum_distance_z,
    quantum_distances,
    quantum_soundness,
    random_css,
    rep_modified,
    rep_standard,
)
from cssbalance.gf2 import _columns
from cssbalance.oracle import (
    _depths,
    _logical_search,
    _logical_walk,
    _min_weight,
    _use_search,
    _zeros,
)
from conftest import rand_matrix

H3 = BitMatrix.from_strings(["110", "011"])


def test_classical_dimension():
    assert classical_dimension(rep_standard(3)) == 1
    assert classical_dimension(hamming74()) == 4
    assert classical_dimension(ClassicalCode(BitMatrix.zeros(0, 5))) == 5


def test_classical_distance():
    assert classical_distance(rep_standard(3)) == 3
    assert classical_distance(hamming74()) == 3
    assert classical_distance(ClassicalCode(BitMatrix.identity(4))) == INFINITE


def test_classical_distance_matches_naive(rng):
    for _ in range(30):
        h = rand_matrix(rng, rng.randint(0, 5), rng.randint(1, 7))
        assert classical_distance(ClassicalCode(h)) == naive_distance(h)


def test_soundness_rep3():
    assert classical_soundness(rep_standard(3)) == Fraction(3, 2)


def test_soundness_single_check():
    assert classical_soundness(ClassicalCode(BitMatrix.from_strings(["11"]))) == 2


def test_soundness_drops_with_padded_zero_row():
    padded = ClassicalCode(BitMatrix.from_strings(["110", "011", "000"]))
    assert classical_soundness(padded) == 1


def test_soundness_matches_full_sweep(rng):
    for _ in range(40):
        h = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 6))
        assert classical_soundness(ClassicalCode(h)) == naive_soundness(h)


def test_soundness_pinned_at_high_rank():
    # Exact values from a byte-per-syndrome BFS. The scans cover 2^21 and
    # 2^22 syndromes, so the block swaps move by up to 2^20 and 2^21.
    bal = distance_balance(q_complex(rep_standard(3).h), rep_standard(4)).code
    assert (bal.h_x.rank(), bal.h_z.rank()) == (8, 21)
    assert classical_soundness(ClassicalCode(bal.h_x)) == Fraction(15, 4)
    assert classical_soundness(ClassicalCode(bal.h_z)) == Fraction(1, 2)
    h_z = distance_balance(q_complex(rep_standard(2).h), rep_standard(6)).code.h_z
    assert h_z.rank() == 22
    assert classical_soundness(ClassicalCode(h_z)) == Fraction(29, 96)


def test_soundness_undefined_cases():
    assert classical_soundness(ClassicalCode(BitMatrix.zeros(0, 3))) is None
    assert classical_soundness(ClassicalCode(BitMatrix.zeros(2, 3))) is None


def test_soundness_trivial_kernel_is_computed():
    # Square invertible checks: every nonzero word scores t|Hx|/(s|x|).
    rho = classical_soundness(ClassicalCode(BitMatrix.identity(3)))
    assert rho == naive_soundness(BitMatrix.identity(3)) == 1


def test_soundness_permutation_invariance(rng):
    for _ in range(10):
        h = rand_matrix(rng, rng.randint(1, 4), rng.randint(2, 6))
        base = classical_soundness(ClassicalCode(h))
        cols = list(range(h.cols))
        rng.shuffle(cols)
        permuted = BitMatrix(h.rows, h.cols, [
            sum((v >> c & 1) << i for i, c in enumerate(cols)) for v in h.row_ints()])
        assert classical_soundness(ClassicalCode(permuted)) == base
        rows = list(range(h.rows))
        rng.shuffle(rows)
        row_perm = BitMatrix(h.rows, h.cols, [h.row_ints()[r] for r in rows])
        assert classical_soundness(ClassicalCode(row_perm)) == base
        assert classical_distance(ClassicalCode(permuted)) == classical_distance(ClassicalCode(h))


def test_soundness_weak_upper_bound(rng):
    for _ in range(20):
        h = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 6))
        code = ClassicalCode(h)
        rho = classical_soundness(code)
        if rho is not None and code.independent_checks:
            assert rho <= code.t


def test_quantum_dimension():
    toy = as_css(
        ChainComplex(
            (1, 2, 1),
            (BitMatrix.from_strings(["11"]).transpose(), BitMatrix.from_strings(["11"])),
        )
    )
    assert quantum_dimension(toy) == 0
    assert quantum_dimension(q_complex(H3)) == 1
    free = CssCode.from_check_matrices(BitMatrix.zeros(0, 5), BitMatrix.zeros(0, 5))
    assert quantum_dimension(free) == 5


def test_quantum_distances_examples():
    assert quantum_distances(q_complex(H3)) == (2, 3)
    assert quantum_distances(q_complex(hamming74().h)) == (2, 3)
    toy = CssCode.from_check_matrices(
        BitMatrix.from_strings(["11"]), BitMatrix.from_strings(["11"])
    )
    assert quantum_distances(toy) == (INFINITE, INFINITE)


def test_quantum_distances_match_naive(rng):
    for seed in range(25):
        n = rng.randint(3, 7)
        n_z = rng.randint(1, max(1, n // 2))
        n_x = rng.randint(0, n - n_z - 1) if n - n_z - 1 > 0 else 0
        q = random_css(n, n_x, n_z, seed=seed * 31 + 5)
        assert quantum_distances(q) == naive_quantum_distances(q.h_x, q.h_z)


def test_locality():
    assert locality(rep_standard(3)) == 2
    assert locality(rep_modified(5)) == 4
    assert locality(ClassicalCode(BitMatrix.identity(4))) == 1
    assert locality(hamming74()) == 4
    with pytest.raises(TypeError, match="no parity checks on BitMatrix"):
        locality(BitMatrix.identity(4))


def test_quantum_soundness_is_component_min():
    q = q_complex(H3)
    rho_x, rho_z = component_soundness(q)
    assert rho_x == classical_soundness(ClassicalCode(q.h_x))
    assert rho_z == classical_soundness(ClassicalCode(q.h_z))
    assert quantum_soundness(q) == min(rho_x, rho_z)


def test_quantum_soundness_undefined_when_side_missing():
    q = CssCode.from_check_matrices(
        BitMatrix.zeros(0, 3), BitMatrix.from_strings(["110"])
    )
    assert quantum_soundness(q) is None


@st.composite
def random_css_codes(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    n_z = draw(st.integers(0, n))
    n_x = draw(st.integers(0, n - n_z))
    return random_css(n, n_x, n_z, seed=draw(st.integers(0, 1 << 16)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(random_css_codes())
def test_distances_swap_under_cocomplex(q):
    assert cocomplex(cocomplex(q.complex)) == q.complex
    flipped = as_css(cocomplex(q.complex))
    assert quantum_distances(flipped) == quantum_distances(q)[::-1]
    assert quantum_dimension(flipped) == quantum_dimension(q)


def test_cap_exceeded():
    big = ClassicalCode(BitMatrix.zeros(1, 30))
    with pytest.raises(CapExceeded):
        classical_distance(big, cap=1 << 12)
    with pytest.raises(CapExceeded):
        classical_soundness(ClassicalCode(BitMatrix.identity(20)), cap=1 << 12)
    # 30 free qubits: 2^30 words to walk and 2^30 syndromes to search.
    free = CssCode.from_check_matrices(BitMatrix.zeros(0, 30), BitMatrix.zeros(0, 30))
    for distance in (quantum_distance_x, quantum_distance_z):
        with pytest.raises(CapExceeded):
            distance(free, cap=1 << 12)


def q_rep4_rep4():
    return distance_balance(q_complex(rep_standard(4).h), rep_standard(4)).code


def test_cap_exceeded_names_both_scans():
    code = q_rep4_rep4()  # n = 41, rank H_X = 12, rank H_Z = 28
    with pytest.raises(CapExceeded) as info:
        quantum_distance_z(code, cap=1 << 12)
    assert str(info.value) == (
        "Z-distance needs 2^29 words (kernel scan) or 2^13 syndromes (syndrome scan), "
        "cap is 2^12"
    )
    assert (info.value.words_log2, info.value.syndromes_log2) == (29, 13)
    with pytest.raises(CapExceeded) as info:
        classical_soundness(ClassicalCode(BitMatrix.identity(20)), cap=5000)
    assert str(info.value) == "soundness needs 2^20 syndromes (syndrome scan), cap is 5000"
    with pytest.raises(CapExceeded, match=r"distance needs 2\^29 words \(kernel scan\), cap is 0"):
        classical_distance(ClassicalCode(BitMatrix.zeros(1, 29)), cap=0)
    with pytest.raises(TypeError):  # the sizes are keyword-only
        CapExceeded("distance", 20, 4096)


def test_each_distance_takes_the_scan_that_fits():
    # The X-distance walks 2^13 words (its search would need 2^29
    # syndromes); the Z-distance searches 2^13 syndromes (its walk would
    # need 2^29 words). Both fit a cap of 2^13.
    assert quantum_distances(q_rep4_rep4(), cap=1 << 13) == (8, 4)


def test_strategy_choice_by_cost():
    # Only the search fits: take it however many columns it has.
    assert _use_search("d", 1 << 12, 29, 12, 1000) is True
    # Both fit: a 2^11-word walk beats 2^24 syndromes times 100 columns ...
    assert _use_search("d", 1 << 24, 11, 24, 100) is False
    # ... and 2^11 syndromes times 100 columns beat a 2^24-word walk.
    assert _use_search("d", 1 << 24, 24, 11, 100) is True
    # A scan the call cannot use is None.
    assert _use_search("d", 1 << 24, None, 24) is True
    with pytest.raises(CapExceeded):
        _use_search("d", 1 << 24, None, 25)


def test_determinism(rng):
    h = rand_matrix(random.Random(3), 3, 6)
    code = ClassicalCode(h)
    first = (classical_soundness(code), classical_distance(code))
    for _ in range(3):
        assert (classical_soundness(code), classical_distance(code)) == first


def test_classical_report_json_shape():
    report = analyze_classical(rep_standard(3), provenance="rep(3)")
    obj = report.to_obj()
    assert obj == {
        "kind": "classical",
        "n": 3,
        "K": 1,
        "d": 3,
        "locality": 2,
        "soundness": {"num": 3, "den": 2},
        "s": 2,
        "provenance": "rep(3)",
    }


def test_report_object_is_a_copy():
    """Changing what to_obj returns, a nested soundness object included,
    changes neither the text nor a later to_obj."""
    report = analyze_classical(rep_standard(3), provenance="rep(3)")
    text, obj = report.to_text(), report.to_obj()
    changed = report.to_obj()
    changed["n"] = 99
    changed["soundness"]["num"] = 7
    del changed["kind"]
    assert report.to_text() == text and "n                      3" in text
    assert report.to_obj() == obj and obj["soundness"] == {"num": 3, "den": 2}


def test_quantum_report_json_shape():
    report = analyze_quantum(q_complex(H3), provenance="q")
    obj = report.to_obj()
    assert list(obj) == ["kind", "n", "K", "dX", "dZ", "locality", "soundness", "nX", "nZ", "provenance"]
    assert obj["dX"] == 2 and obj["dZ"] == 3 and obj["soundness"] == {"num": 2, "den": 1}


def test_infinite_distance_serializes_as_inf():
    report = analyze_quantum(q_complex(BitMatrix.from_strings(["1"])))
    obj = report.to_obj()
    assert obj["K"] == 0
    assert obj["dX"] == "inf" and obj["dZ"] == "inf"


def test_report_marks_cap_exceeded_fields():
    report = analyze_classical(ClassicalCode(BitMatrix.zeros(1, 30)), cap=1 << 12)
    obj = report.to_obj()
    assert obj["d"] == "cap-exceeded"
    assert obj["K"] == 30
    assert obj["soundness"] == "undefined"


# Property tests: every scan against the literal sweeps of naive.py, on
# small matrices that often carry zero rows, dependent rows, zero columns
# and duplicate columns.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def check_matrices(draw, max_rows=4, max_cols=5):
    cols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.integers(0, (1 << cols) - 1), max_size=max_rows))
    if rows and draw(st.booleans()):
        rows.append(rows[0] ^ rows[-1])  # a dependent row (zero for one row)
    if draw(st.booleans()):
        rows.append(0)
    if draw(st.booleans()):
        # One more column: a copy of an existing column, or zeros.
        src = draw(st.integers(0, cols - 1))
        copy = draw(st.booleans())
        rows = [r | ((copy and (r >> src) & 1) << cols) for r in rows]
        cols += 1
    return BitMatrix(len(rows), cols, rows)


@st.composite
def css_check_pairs(draw):
    """(H_X, H_Z) with H_X H_Z^T = 0: the rows of H_Z are drawn from the
    span of ker(H_X), so dependent and zero rows and K = 0 all occur."""
    h_x = draw(check_matrices(max_rows=3, max_cols=6))
    kernel = h_x.kernel_basis()
    z_rows = []
    for _ in range(draw(st.integers(0, 3))):
        pick = draw(st.integers(0, (1 << len(kernel)) - 1))
        z_rows.append(_span_element(kernel, pick))
    return h_x, BitMatrix(len(z_rows), h_x.cols, z_rows)


def _span_element(basis, pick):
    v = 0
    for i, b in enumerate(basis):
        if (pick >> i) & 1:
            v ^= b
    return v


@PROPERTY
@given(check_matrices(max_rows=6, max_cols=7))
@example(BitMatrix.zeros(2, 3))  # rank 0
@example(BitMatrix.from_strings(["1100", "1100", "0000"]))  # dependent and zero rows
@example(BitMatrix.from_strings(["1010", "0110"]))  # duplicate columns
@example(BitMatrix.from_strings(["1011"]))  # s = 1
@example(BitMatrix.from_strings(["1100", "0110", "1010"]))  # a zero column, dependent rows
@example(BitMatrix.from_strings(["1101", "0111"]))  # columns 1 and 3 are equal
# Rank 6: a set of 64 syndromes spans three 30-bit digits, and the block
# swaps move by 16 and 32. The second has a zero column (6), a duplicate
# column (7 = 0) and a dependent row; the third is dense, with a repeated
# row, and tells apart wrong masks that the symmetric ones do not.
@example(BitMatrix.from_strings(
    ["1100000", "0110000", "0011000", "0001100", "0000110", "0000011"]))
@example(BitMatrix.from_strings(
    ["11000001", "01100000", "00110000", "00011000", "00001100", "00000100", "11000101"]))
@example(BitMatrix.from_strings(
    ["10111101", "11011010", "11010011", "00001101", "10001111", "11101011", "10111101"]))
def test_soundness_search_matches_naive(h):
    assert classical_soundness(ClassicalCode(h)) == naive_soundness(h)


def _depth_values(basis, cols):
    """The depth of each syndrome of _depths, read back from its planes."""
    rank = len(basis)
    planes = _depths(_columns(basis, cols), _zeros(rank), (1 << (1 << rank)) - 1)
    return [sum((p >> c & 1) << k for k, p in enumerate(planes)) for c in range(1 << rank)]


@st.composite
def unit_column_bases(draw):
    """(basis, cols) of a random matrix of rank 1 to 8 on at most 12 bits,
    in which each row owns a unit column: its echelon rows, with the unit
    at each row's lowest bit, or the basis of its kernel whose vector for
    free column f has its unit at f, the vector's highest bit. A copied
    column goes last, so a copy of a pivot column is a non-pivot column
    equal to a unit; zero columns occur too."""
    s = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 10))
    columns = draw(st.lists(st.integers(0, (1 << s) - 1), min_size=cols, max_size=cols))
    if draw(st.booleans()):
        columns[draw(st.integers(0, cols - 1))] = 0
    for _ in range(draw(st.integers(0, 2))):
        columns.append(columns[draw(st.integers(0, cols - 1))])
    rows = [sum((g >> i & 1) << b for b, g in enumerate(columns)) for i in range(s)]
    basis, pivots = naive_rref(BitMatrix(s, len(columns), rows))
    if draw(st.booleans()):
        basis = [1 << f | sum(1 << p for p, row in zip(pivots, basis) if row >> f & 1)
                 for f in range(len(columns)) if f not in pivots]
    assume(basis)
    return basis, len(columns)


@PROPERTY
@given(unit_column_bases())
@example(([0b001, 0b010, 0b100], 3))  # units only: no relaxation
@example(([0b1001, 0b0010], 4))  # a zero column, and column 3 equal to the unit at 0
@example(([0b011001, 0b011010, 0b000100], 6))  # 3 = 0 + 1, 4 a copy of 3, 5 a zero column
@example(([0b011, 0b101], 3))  # the kernel basis of 111: units at the highest bits, column 0 = 11
def test_depths_match_naive(basis_cols):
    basis, cols = basis_cols
    assert _depth_values(basis, cols) == naive_depths(basis, cols)


@pytest.mark.parametrize("rank", [3, 7, 15])
def test_depths_carry_out_at_full_planes(rank):
    # At rank 2^P - 1 the first non-unit column g moves the depth rank of
    # the all-ones syndrome onto ~g, and the increment carries out of the
    # P planes.
    rng = random.Random(rank)
    for _ in range(3):
        h = rand_matrix(rng, rank, rank + 2)
        echelon, pivots = naive_rref(h)
        if len(pivots) == rank:
            break
    assert len(pivots) == rank
    assert _depth_values(echelon, h.cols) == naive_depths(echelon, h.cols)


@st.composite
def wide_check_matrices(draw):
    """Up to 5 checks on at least twice as many bits and at most 12, so
    most columns are not pivots; a column may be zero or repeated."""
    s = draw(st.integers(1, 5))
    t = draw(st.integers(2 * s, min(12, s + 7)))
    columns = draw(st.lists(st.integers(0, (1 << s) - 1), min_size=t, max_size=t))
    if draw(st.booleans()):
        columns[draw(st.integers(0, t - 1))] = 0
    columns[draw(st.integers(0, t - 1))] = columns[draw(st.integers(0, t - 1))]
    rows = [sum((g >> i & 1) << b for b, g in enumerate(columns)) for i in range(s)]
    return BitMatrix(s, t, rows)


@settings(PROPERTY, max_examples=40)
@given(wide_check_matrices())
@example(BitMatrix.from_strings(["111111111111"]))  # one check, every column equal
# Three checks whose twelve columns take five values: each of the first
# three is repeated, and column 6 is there four times.
@example(BitMatrix.from_strings(["110110000011", "011011000010", "000000111110"]))
def test_soundness_on_wide_checks_matches_naive(h):
    assert classical_soundness(ClassicalCode(h)) == naive_soundness(h)


@PROPERTY
@given(check_matrices())
@example(BitMatrix.identity(3))  # no nonzero codeword
@example(BitMatrix.from_strings(["1100", "0011", "1111"]))  # dependent rows, duplicate columns
def test_classical_distance_walk_matches_naive(h):
    assert classical_distance(ClassicalCode(h)) == naive_distance(h)


@st.composite
def subset_bases(draw):
    """Up to 6 members of up to 8 bits, k = 0 included, with dependent
    members, zero columns and duplicate columns."""
    cols = draw(st.integers(0, 8))
    vals = draw(st.lists(st.integers(0, (1 << cols) - 1), max_size=6))
    if vals and draw(st.booleans()):
        vals.append(vals[0] ^ vals[-1])  # a dependent member (zero for one member)
    if draw(st.booleans()):
        vals = [v << 1 for v in vals]  # a zero column
    if draw(st.booleans()):
        vals = [v | (v >> 1 & 1) << (cols + 1) for v in vals]  # column 1 copied
    return vals


@PROPERTY
@given(subset_bases())
@example([])  # k = 0
@example([0b011, 0b011, 0b110])  # a repeated member
@example([0b1101, 0b0110, 0b1011])  # a dependent member: the sum of the others
@example([0b0110, 0b0110, 0b1000])  # equal columns 1 and 2, a zero column 0
@example([0b0111, 0b0111, 0b1000])  # columns 0 to 2 equal: three copies
def test_min_weight_matches_naive_for_every_low(vals):
    for low in range(len(vals) + 1):  # low = k leaves no subset: INFINITE
        assert _min_weight(vals, low) == naive_min_weight(vals, low)
    assert _min_weight(vals, len(vals)) == INFINITE


def test_classical_distance_of_a_2_18_word_kernel():
    # 14 independent random checks on 32 bits: 2^18 kernel words, six
    # weight planes. The distance is the one the Gray walk of earlier
    # releases found.
    h = rand_matrix(random.Random(20), 14, 32)
    assert h.rank() == 14
    assert classical_distance(ClassicalCode(h)) == 5


def test_logical_scans_agree_beyond_2_12_words():
    # q(rep3) x rep3: the Z-distance scans 2^16 kernel words or searches
    # 2^7 syndromes, the X-distance 2^7 words or 2^16 syndromes.
    code = distance_balance(q_complex(rep_standard(3).h), rep_standard(3)).code
    assert code.n - code.h_x.rank() == 16
    assert _logical_walk(code.h_x, code.h_z) == _logical_search(code.h_x, code.h_z) == 3
    assert _logical_walk(code.h_z, code.h_x) == _logical_search(code.h_z, code.h_x) == 6


@PROPERTY
@given(css_check_pairs())
@example((BitMatrix.zeros(0, 3), BitMatrix.zeros(0, 3)))  # rank 0 on both sides
@example((BitMatrix.identity(3), BitMatrix.zeros(1, 3)))  # K = 0
@example((BitMatrix.from_strings(["11"]), BitMatrix.from_strings(["11", "11"])))  # K = 0
# The search for d_X writes syndromes over the kernel basis of H_X. In the
# first, only column 0, which is not a unit there, has a logical syndrome:
# d_X = 1. In the second, only the unit column 1 has: d_X = 1. In the third
# the least logical syndrome weight is 3 and d_X = 2, which the relaxation
# by the non-unit columns finds.
@example((BitMatrix.from_strings(["111"]), BitMatrix.from_strings(["011"])))
@example((BitMatrix.from_strings(["111"]), BitMatrix.from_strings(["101"])))
@example((BitMatrix.from_strings(["01101", "11111"]), BitMatrix.from_strings(["11110", "00101"])))
def test_logical_distance_scans_match_naive(pair):
    h_x, h_z = pair
    d_x, d_z = naive_quantum_distances(h_x, h_z)
    assert _logical_walk(h_z, h_x) == _logical_search(h_z, h_x) == d_x
    assert _logical_walk(h_x, h_z) == _logical_search(h_x, h_z) == d_z
    assert quantum_distances(CssCode.from_check_matrices(h_x, h_z)) == (d_x, d_z)
