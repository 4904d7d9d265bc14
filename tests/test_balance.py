from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from cssbalance import (
    INFINITE,
    BitMatrix,
    ClassicalCode,
    ClassicalParams,
    CssCode,
    DependentChecksError,
    QuantumParams,
    bound_check,
    bound_x,
    bound_z,
    distance_balance,
    double_balance,
    hamming74,
    locality,
    measured_classical_params,
    measured_quantum_params,
    predicted_double_params,
    predicted_params,
    q_complex,
    quantum_dimension,
    quantum_distances,
    random_css,
    random_ldpc,
    rep_standard,
)
from cssbalance import constructions
from cssbalance.balance import _swap

H3 = BitMatrix.from_strings(["110", "011"])


def q_rep3():
    return q_complex(H3)


def test_balanced_dimensions():
    bal = distance_balance(q_rep3(), rep_standard(2))
    assert (bal.code.n, bal.code.n_x, bal.code.n_z) == (14, 4, 12)
    assert bal.code.complex.validate() is None


def test_balanced_block_layout():
    bal = distance_balance(q_rep3(), rep_standard(2))
    assert bal.block_layout["qubits"] == {"n*t": [0, 12], "nX*s": [12, 14]}
    assert bal.block_layout["z_checks"] == {"nZ*t": [0, 6], "n*s": [6, 12]}
    assert bal.block_layout["x_checks"] == {"nX*t": [0, 4]}


def test_trivial_classical_code_reproduces_input():
    q = q_rep3()
    trivial = ClassicalCode(BitMatrix.zeros(0, 1))
    bal = distance_balance(q, trivial)
    assert bal.code.h_x == q.h_x
    assert bal.code.h_z == q.h_z


def test_dependent_checks_refused():
    dup = ClassicalCode(BitMatrix.from_strings(["110", "110"]))
    with pytest.raises(DependentChecksError):
        distance_balance(q_rep3(), dup)


def test_more_checks_than_bits_refused():
    tall = ClassicalCode(BitMatrix.from_strings(["10", "01", "11"]))
    with pytest.raises(ValueError, match="more checks than bits"):
        distance_balance(q_rep3(), tall)


def test_oversized_balanced_code_refused_before_any_kron(monkeypatch):
    """Both balanced check matrices are checked against the generators'
    limit, with their message, before any Kronecker product is built."""
    monkeypatch.setattr(constructions, "MAX_MATRIX_ENTRIES", 100)
    monkeypatch.setattr(BitMatrix, "kron", lambda *a: pytest.fail("kron ran"))
    r = rep_standard(2)  # t = 2, s = 1
    # q(rep3): H_Z' is 12 x 14 = 168 entries, H_X' 4 x 14.
    with pytest.raises(ValueError, match="a 12 x 14 matrix exceeds the generator limit"):
        distance_balance(q_rep3(), r)
    with pytest.raises(ValueError, match="a 12 x 14 matrix"):
        double_balance(q_rep3(), r)
    with pytest.raises(ValueError, match="a 12 x 14 matrix"):
        bound_check(q_rep3(), r)
    # Four X checks on 3 qubits and no Z checks: H_Z' is 3 x 10 = 30
    # entries, H_X' 8 x 10 = 80; the limit 50 refuses only H_X'.
    wide = CssCode.from_check_matrices(BitMatrix.from_strings(["100", "010", "001", "111"]),
                                       BitMatrix.zeros(0, 3))
    monkeypatch.setattr(constructions, "MAX_MATRIX_ENTRIES", 50)
    with pytest.raises(ValueError, match="a 8 x 10 matrix exceeds the generator limit"):
        distance_balance(wide, r)


def test_balanced_code_at_the_size_limit_is_built(monkeypatch):
    monkeypatch.setattr(constructions, "MAX_MATRIX_ENTRIES", 12 * 14)
    assert distance_balance(q_rep3(), rep_standard(2)).code.n == 14


def test_predicted_matches_measured_small():
    q, r = q_rep3(), rep_standard(2)
    qp = measured_quantum_params(q)
    rp = measured_classical_params(r)
    predicted = predicted_params(qp, rp)
    assert (predicted.n, predicted.dimension, predicted.d_x, predicted.d_z) == (14, 1, 4, 3)
    measured = measured_quantum_params(distance_balance(q, r).code)
    assert measured.n == predicted.n
    assert measured.dimension == predicted.dimension
    assert (measured.d_x, measured.d_z) == (predicted.d_x, predicted.d_z)
    assert (measured.n_x, measured.n_z) == (predicted.n_x, predicted.n_z)


def test_bound_formula_example():
    value = bound_x(n=6, n_x=2, n_z=3, t=2, s=1, rho_z=Fraction(1))
    assert value == Fraction(7, 24)


def test_bound_z_formula_spot():
    value = bound_z(n=6, n_x=2, n_z=3, t=2, s=1, rho_x=Fraction(3))
    assert value == Fraction(1, 2) * 1 * Fraction(14, 4)


def test_no_balancing_gain_with_distance_one():
    qp = QuantumParams(n=6, dimension=1, d_x=2, d_z=3, n_x=2, n_z=3)
    rp = ClassicalParams(t=4, dimension=3, d=1, s=1)
    assert predicted_params(qp, rp).d_x == 2


def test_dimension_zero_classical_code_kills_all_logicals():
    # A square nonsingular classical code encodes nothing, so the balanced
    # code has no logical qubits and both distances are infinite; the
    # measured values must agree with the prediction even here.
    from cssbalance import INFINITE

    q = q_rep3()
    r = random_ldpc(3, 3, row_w=2, col_w=2, seed=4)
    assert classical_dimension_is_zero(r)
    qp = measured_quantum_params(q)
    rp = measured_classical_params(r)
    predicted = predicted_params(qp, rp)
    assert predicted.dimension == 0
    assert predicted.d_x == predicted.d_z == INFINITE
    bal = distance_balance(q, r)
    assert quantum_dimension(bal.code) == 0
    assert quantum_distances(bal.code) == (INFINITE, INFINITE)


def classical_dimension_is_zero(r):
    from cssbalance import classical_dimension

    return classical_dimension(r) == 0


def test_bound_check_holds_on_reference_pair():
    result = bound_check(q_rep3(), rep_standard(2))
    assert result.all_hold
    x_side, z_side = result.sides
    assert (x_side.side, z_side.side) == ("X", "Z")
    assert x_side.measured == Fraction(7, 6)
    assert x_side.bound == Fraction(7, 12)
    assert z_side.measured == Fraction(7, 2)
    assert z_side.bound == Fraction(7, 4)
    assert result.hypothesis_ok  # min(3,2)=2 <= min(12/3, 12/2)=4
    obj = result.to_obj()
    assert obj[0] == {
        "side": "X",
        "measured": {"num": 7, "den": 6},
        "bound": {"num": 7, "den": 12},
        "holds": True,
    }


def test_bound_check_trivial_classical_code():
    q = q_rep3()
    trivial = ClassicalCode(BitMatrix.zeros(0, 1))
    result = bound_check(q, trivial)
    # The balanced code is the input itself, so each side measures the
    # input component soundness and the bounds collapse to
    # min(rho, n/checks)-style clamps.
    assert result.sides[0].measured == result.rho_z
    assert result.sides[1].measured == result.rho_x
    assert result.all_hold


def test_bound_check_assume_rho_clamps():
    result = bound_check(q_rep3(), rep_standard(2), assume_rho=Fraction(5))
    # Clamp min(n_Z*rho/n, 1) saturates at 1 on both sides.
    assert result.sides[0].bound == Fraction(1, 2) * Fraction(14, 12)
    assert result.sides[1].bound == Fraction(1, 2) * Fraction(14, 4)
    assert not result.hypothesis_ok


def test_double_balance_parameters():
    bal = double_balance(q_rep3(), rep_standard(2))
    assert quantum_dimension(bal.code) == 1
    assert quantum_distances(bal.code) == (4, 6)
    qp = measured_quantum_params(q_rep3())
    rp = measured_classical_params(rep_standard(2))
    once = predicted_params(qp, rp)
    assert bal.code.n == once.n * rp.t + once.n_z * rp.s == 40
    predicted = predicted_double_params(qp, rp)
    assert (predicted.n, predicted.dimension, predicted.d_x, predicted.d_z) == (40, 1, 4, 6)
    assert (predicted.n_x, predicted.n_z) == (bal.code.n_x, bal.code.n_z) == (22, 24)


def test_double_balance_trivial_classical_code():
    q = q_rep3()
    trivial = ClassicalCode(BitMatrix.zeros(0, 1))
    bal = double_balance(q, trivial)
    assert bal.code.h_x == q.h_x and bal.code.h_z == q.h_z


def test_locality_bounded_by_sum():
    pairs = [
        (q_rep3(), rep_standard(2)),
        (q_complex(hamming74().h), rep_standard(3)),
        (random_css(5, 1, 2, seed=3), random_ldpc(5, 2, row_w=2, col_w=1, seed=3)),
    ]
    for q, r in pairs:
        bal = distance_balance(q, r)
        assert locality(bal.code) <= locality(q) + locality(r)


def test_locality_of_the_double_balanced_rep8_code():
    """The n = 2648 code of the construct benchmark: H_X has 1687 rows and
    H_Z 1408, and its locality is 6."""
    r = rep_standard(8)
    code = double_balance(q_complex(r.h), r).code
    assert (code.n, code.h_x.rows, code.h_z.rows) == (2648, 1687, 1408)
    assert locality(code) == 6


def test_balanced_equalities_random_pairs():
    for seed in range(20):
        q = random_css(4, 1, 1, seed=seed)
        r = random_ldpc(4, 2, row_w=2, col_w=2, seed=seed)
        qp = measured_quantum_params(q)
        rp = measured_classical_params(r)
        predicted = predicted_params(qp, rp)
        bal = distance_balance(q, r)
        assert bal.code.complex.validate() is None
        assert (bal.code.n, bal.code.n_x, bal.code.n_z) == (predicted.n, predicted.n_x, predicted.n_z)
        assert quantum_dimension(bal.code) == predicted.dimension
        d_x, d_z = quantum_distances(bal.code)
        assert d_x == predicted.d_x
        assert d_z == predicted.d_z
        result = bound_check(q, r)
        assert result.all_hold


# The paper's theorem on seeded random inputs: a random CSS code with both
# kinds of checks, balanced against an independent-check random LDPC code.
THEOREM = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def random_pairs(draw):
    """Balanced H_X has rank at most n_X*t and balanced H_Z at most
    n_Z*t + n*s; both bounds are kept to 20, so every soundness scan of
    bound_check covers at most 2^20 syndromes."""
    n, t = draw(st.integers(3, 6)), draw(st.integers(2, 5))
    s = draw(st.integers(1, min(t - 1, (20 - t) // n)))
    n_z = draw(st.integers(1, min(n - 1, (20 - n * s) // t)))
    n_x = draw(st.integers(1, min(n - n_z, 20 // t)))
    q = random_css(n, n_x, n_z, seed=draw(st.integers(0, 1 << 16)))
    col_w = draw(st.integers(1, s))
    row_w = draw(st.integers(1, min(t, t * col_w // s)))
    try:
        r = random_ldpc(t, s, row_w, col_w, seed=draw(st.integers(0, 1 << 16)))
    except RuntimeError:  # no independent-check draw with this profile
        reject()
    return q, r


@THEOREM
@given(random_pairs())
def test_balancing_theorem_on_random_pairs(pair):
    q, r = pair
    qp = measured_quantum_params(q)
    rp = measured_classical_params(r)
    bal = distance_balance(q, r)
    assert bal.code.complex.validate() is None
    assert bal.code.n == q.n * r.t + q.n_x * r.s
    k = quantum_dimension(bal.code)
    assert k == qp.dimension * rp.dimension
    # A code that encodes nothing has no logical operator on either side.
    expected = (qp.d_x * rp.d, qp.d_z) if k else (INFINITE, INFINITE)
    assert quantum_distances(bal.code) == expected
    check = bound_check(q, r)
    side_x, side_z = check.sides
    assert side_x.bound == bound_x(q.n, q.n_x, q.n_z, r.t, r.s, check.rho_z)
    assert side_z.bound == bound_z(q.n, q.n_x, q.n_z, r.t, r.s, check.rho_x)
    assert side_x.measured >= side_x.bound and side_x.holds
    assert side_z.measured >= side_z.bound and side_z.holds


@st.composite
def double_pairs(draw):
    """Double-balanced codes of at most 36 qubits whose input encodes at
    least one qubit: every distance scan stays small, so the whole test
    takes a few seconds."""
    n, t = draw(st.integers(3, 5)), draw(st.integers(2, 3))
    n_x = draw(st.integers(1, n - 2))
    n_z = draw(st.integers(1, n - n_x - 1))
    s = draw(st.integers(1, t - 1))
    once_n, once_n_z = n * t + n_x * s, n_z * t + n * s
    if once_n * t + once_n_z * s > 36:
        reject()
    q = random_css(n, n_x, n_z, seed=draw(st.integers(0, 1 << 16)))
    col_w = draw(st.integers(1, s))
    row_w = draw(st.integers(1, min(t, t * col_w // s)))
    try:
        r = random_ldpc(t, s, row_w, col_w, seed=draw(st.integers(0, 1 << 16)))
    except RuntimeError:  # no independent-check draw with this profile
        reject()
    return q, r


def _tiles(ranges: dict, size: int) -> bool:
    end = 0
    for lo, hi in ranges.values():
        if lo != end or hi < lo:
            return False
        end = hi
    return end == size


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(double_pairs())
def test_double_balance_matches_prediction_on_random_pairs(pair):
    q, r = pair
    predicted = predicted_double_params(measured_quantum_params(q), measured_classical_params(r))
    bal = double_balance(q, r)
    measured = measured_quantum_params(bal.code)
    assert replace(measured, locality=predicted.locality) == predicted
    assert measured.locality <= predicted.locality
    layout = bal.block_layout
    assert _tiles(layout["qubits"], bal.code.n)
    assert _tiles(layout["z_checks"], bal.code.n_z)
    assert _tiles(layout["x_checks"], bal.code.n_x)


def _ldpc(draw, seed: int) -> ClassicalCode:
    t = draw(st.integers(2, 5))
    s = draw(st.integers(1, t - 1))
    col_w = draw(st.integers(1, s))
    row_w = draw(st.integers(1, min(t, t * col_w // s)))
    try:
        return random_ldpc(t, s, row_w, col_w, seed)
    except RuntimeError:  # no independent-check draw with this profile
        reject()


@st.composite
def trusted_pairs(draw):
    """A quantum code from random_css or q_complex(random_ldpc) and a
    classical code from random_ldpc or rep: the inputs and outputs of every
    builder that skips validation."""
    seed = draw(st.integers(0, 1 << 16))
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        n_z = draw(st.integers(0, n))
        q = random_css(n, draw(st.integers(0, n - n_z)), n_z, seed)
    else:
        q = q_complex(_ldpc(draw, seed).h)
    r = _ldpc(draw, seed + 1) if draw(st.booleans()) else rep_standard(draw(st.integers(2, 5)))
    return q, r


def _shape(code) -> tuple[int, int, int]:
    return code.n, code.n_x, code.n_z


def _assert_validated_twins(code: CssCode) -> None:
    """code is valid, and equal in every view to the codes the validating
    entry points build from its complex and from its check matrices."""
    assert code.complex.validate() is None
    for twin in (CssCode(code.complex), CssCode.from_check_matrices(code.h_x, code.h_z)):
        assert (twin.h_x, twin.h_z) == (code.h_x, code.h_z)
        assert twin.complex == code.complex and twin.complex.labels == code.complex.labels
        assert _shape(twin) == _shape(code)
        assert twin == code and hash(twin) == hash(code)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(trusted_pairs())
def test_trusted_builders_give_valid_codes(pair):
    q, r = pair
    swapped = _swap(q)
    assert (swapped.h_x, swapped.h_z) == (q.h_z, q.h_x)
    once, twice = distance_balance(q, r).code, double_balance(q, r).code
    qp = QuantumParams(q.n, 0, 0, 0, q.n_x, q.n_z)
    rp = ClassicalParams(r.t, 0, 0, r.s)
    assert _shape(once) == _shape(predicted_params(qp, rp))
    assert _shape(twice) == _shape(predicted_double_params(qp, rp))
    for code in (q, swapped, once, twice):
        _assert_validated_twins(code)
