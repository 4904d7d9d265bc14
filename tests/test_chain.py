import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cssbalance import (
    BitMatrix,
    ChainComplex,
    ClassicalCode,
    CssCode,
    UndefinedSoundnessError,
    as_classical,
    as_css,
    bound_check,
    cocomplex,
    complex_from_json,
    complex_to_json,
    distance_balance,
    double_balance,
    homological_product,
    q_complex,
    rep_standard,
)
from cssbalance.chain import complex_from_layout
from cssbalance.io import load_code, load_css, save_complex
from conftest import rand_matrix, rand_valid_complex
from naive import naive_complex_json

H3 = BitMatrix.from_strings(["110", "011"])


def toy_css(h_z_row: str, h_x_row: str) -> ChainComplex:
    h_z = BitMatrix.from_strings([h_z_row])
    h_x = BitMatrix.from_strings([h_x_row])
    return ChainComplex((1, len(h_z_row), 1), (h_z.transpose(), h_x))


def test_validate_single_differential_ok():
    c = ChainComplex((3, 2), (H3,))
    assert c.validate() is None


def test_validate_toy_css_ok():
    assert toy_css("11", "11").validate() is None


def test_validate_names_failing_pair():
    report = toy_css("10", "10").validate()
    assert report is not None and "(d2, d1)" in report


def test_validate_reports_bad_shape():
    c = ChainComplex((3, 3), (H3,))
    assert "shape" in c.validate()


def test_spaces_must_be_integers():
    """A space that is not an int is refused by name, never truncated."""
    for spaces, message in (([2.7, True], "space 0 must be an integer, not 2.7"),
                            ([2, True], "space 1 must be an integer, not True"),
                            (["2", 1], "space 0 must be an integer, not '2'")):
        with pytest.raises(ValueError) as exc:
            ChainComplex(spaces, [BitMatrix.zeros(1, 2)])
        assert str(exc.value) == message
    assert ChainComplex([2, 1], [BitMatrix.zeros(1, 2)]).validate() is None


def test_cocomplex_involution(rng):
    for _ in range(30):
        c = rand_valid_complex(rng)
        assert cocomplex(cocomplex(c)) == c


def test_cocomplex_swaps_roles():
    q = ChainComplex((3, 6, 2), (BitMatrix.zeros(6, 3), BitMatrix.zeros(2, 6)))
    cc = cocomplex(q)
    assert cc.spaces == (2, 6, 3)
    css = as_css(q)
    flipped = as_css(cc)
    assert flipped.h_x == css.h_z and flipped.h_z == css.h_x


def test_cocomplex_of_classical_complex():
    r = rep_standard(3).complex
    rstar = cocomplex(r)
    assert rstar.spaces == (2, 3)
    assert rstar.diffs[0] == r.diffs[0].transpose()


def test_product_of_two_classical_complexes_dimensions():
    r1 = rep_standard(3).complex  # t=3, s=2
    r2 = rep_standard(2).complex  # t=2, s=1
    p = homological_product(r1, r2)
    assert p.spaces == (3 * 2, 3 * 1 + 2 * 2, 2 * 1)
    assert p.validate() is None


def test_product_dimension_identity(rng):
    for _ in range(40):
        x = rand_valid_complex(rng)
        y = rand_valid_complex(rng)
        p = homological_product(x, y)
        for grade in range(p.top_grade + 1):
            expect = sum(
                x.dim(i) * y.dim(grade - i)
                for i in range(x.top_grade + 1)
                if 0 <= grade - i <= y.top_grade
            )
            assert p.dim(grade) == expect


def test_product_passes_validate(rng):
    for _ in range(60):
        p = homological_product(rand_valid_complex(rng), rand_valid_complex(rng))
        assert p.validate() is None


def test_product_with_one_term_complex_scales(rng):
    x = rand_valid_complex(rng, max_terms=3)
    y = ChainComplex((3,))
    p = homological_product(x, y)
    assert p.spaces == tuple(3 * d for d in x.spaces)


def test_product_rejects_invalid_input():
    bad = toy_css("10", "10")
    with pytest.raises(ValueError):
        homological_product(bad, rep_standard(2).complex)


def _random_css(rng: random.Random, n: int, n_x: int, n_z: int) -> CssCode:
    """A random code of these sizes: each H_X row is drawn from ker H_Z."""
    h_z = rand_matrix(rng, n_z, n)
    kernel = h_z.kernel_basis()
    rows = []
    for _ in range(n_x):
        v = 0
        for b in kernel:
            if rng.getrandbits(1):
                v ^= b
        rows.append(v)
    return CssCode.from_check_matrices(BitMatrix(n_x, n, rows), h_z)


def _random_independent(rng: random.Random, t: int, s: int) -> ClassicalCode:
    while True:
        r = ClassicalCode(rand_matrix(rng, s, t))
        if r.independent_checks:
            return r


def _swap(c: CssCode) -> CssCode:
    return CssCode.from_check_matrices(c.h_z, c.h_x)


SHAPES = [(n, n_x, n_z, t, s) for n in range(5) for n_x in range(n + 1)
          for n_z in range(n + 1 - n_x) for t in range(4) for s in range(t + 1)]


def _product_balance(q: CssCode, r: ClassicalCode) -> CssCode:
    """The balanced code read off the bottom three terms of the product."""
    p = homological_product(q.complex, cocomplex(r.complex))
    return CssCode.from_check_matrices(p.diffs[2], p.diffs[1].transpose())


def test_product_blocks_match_explicit_layout():
    """The two differentials of (3-term) x (reversed 2-term) are exactly the
    advertised block matrices, and the balancing builders give them: on
    every shape with n <= 4, n_X + n_Z <= n and s <= t <= 3, zero sizes
    included, one step is the bottom of the product, and the double step is
    the product composed as balance, swap, balance, swap."""
    from cssbalance import block, q_complex

    q = q_complex(H3)
    r = rep_standard(2)
    p = homological_product(q.complex, cocomplex(r.complex))
    h_z_t, h_x, h, t, s = q.h_z.transpose(), q.h_x, r.h, r.t, r.s
    eye = BitMatrix.identity
    d2 = block([
        [h_z_t.kron(eye(t)), eye(q.n).kron(h.transpose())],
        [BitMatrix.zeros(q.n_x * s, q.n_z * t), h_x.kron(eye(s))],
    ])
    d1 = block([[h_x.kron(eye(t)), eye(q.n_x).kron(h.transpose())]])
    d3 = block([[eye(q.n_z).kron(h.transpose())], [h_z_t.kron(eye(s))]])
    assert p.diffs == (d3, d2, d1)

    assert len(SHAPES) == 350
    rng = random.Random(17)
    for n, n_x, n_z, t, s in SHAPES * 3:
        q, r = _random_css(rng, n, n_x, n_z), _random_independent(rng, t, s)
        bal = distance_balance(q, r)
        p = homological_product(q.complex, cocomplex(r.complex))
        assert (bal.code.h_z.transpose(), bal.code.h_x) == p.diffs[1:]
        assert double_balance(q, r).code == _swap(_product_balance(_swap(_product_balance(q, r)), r))


def test_bounds_are_defined_wherever_the_balanced_soundness_is():
    """On every shape of the layout test, bound_check either gives both
    bounds or stops at a balanced check code without soundness: a geometry
    whose bound is undefined leaves a balanced matrix with no nonzero row."""
    rng = random.Random(17)
    outcomes = {"bounds": 0, "undefined": 0}
    for n, n_x, n_z, t, s in SHAPES:
        q, r = _random_css(rng, n, n_x, n_z), _random_independent(rng, t, s)
        try:
            result = bound_check(q, r, assume_rho=Fraction(1))
        except UndefinedSoundnessError as exc:
            assert "balanced" in str(exc) and "has no soundness" in str(exc)
            outcomes["undefined"] += 1
        else:
            assert all(type(side.bound) is Fraction for side in result.sides)
            outcomes["bounds"] += 1
    assert outcomes["bounds"] and outcomes["undefined"]


def test_as_css_reads_off_checks():
    css = as_css(toy_css("11", "11"))
    assert (css.n, css.n_x, css.n_z) == (2, 1, 1)
    assert css.h_z == BitMatrix.from_strings(["11"])
    assert css.h_x == BitMatrix.from_strings(["11"])


def test_as_css_rejects_wrong_arity_and_invalid():
    with pytest.raises(ValueError):
        as_css(ChainComplex((1, 2, 2, 1), (BitMatrix.zeros(2, 1), BitMatrix.zeros(2, 2), BitMatrix.zeros(1, 2))))
    with pytest.raises(ValueError):
        as_css(toy_css("10", "10"))


NONZERO_COMPOSITE = "invalid complex: nonzero composite at pair (d2, d1)"


@pytest.mark.parametrize("enter", [
    lambda c, path: CssCode(c),
    lambda c, path: as_css(c),
    lambda c, path: CssCode.from_check_matrices(c.diff(1), c.diff(2).transpose()),
    lambda c, path: load_css(path),
    lambda c, path: load_code(path),
], ids=["CssCode", "as_css", "from_check_matrices", "load_css", "load_code"])
def test_every_entry_point_rejects_a_nonzero_composite(enter, tmp_path):
    bad = toy_css("10", "10")  # H_X * H_Z^T = 1
    path = tmp_path / "bad.json"
    path.write_text(complex_to_json(bad))
    with pytest.raises(ValueError) as exc:
        enter(bad, path)
    assert str(exc.value) == NONZERO_COMPOSITE


def test_from_check_matrices_rejects_mismatched_columns():
    with pytest.raises(ValueError) as exc:
        CssCode.from_check_matrices(BitMatrix.zeros(1, 3), BitMatrix.zeros(1, 4))
    assert str(exc.value) == "H_X and H_Z must act on the same qubits"


def test_css_code_is_its_check_matrices(tmp_path):
    """A code read from a complex file equals the q_complex build of the
    same check matrices, and hashes the same, whatever the file's labels;
    its complex carries the default labels."""
    built = q_complex(H3)
    c = built.complex
    path = tmp_path / "q.json"
    path.write_text(complex_to_json(ChainComplex(c.spaces, c.diffs, ["a", "b", "c"])))
    loaded = load_css(path)
    assert loaded == built and hash(loaded) == hash(built)
    assert loaded.complex == c and loaded.complex.labels == ("C2", "C1", "C0")


def test_as_classical():
    code = as_classical(ChainComplex((3, 2), (H3,)))
    assert (code.t, code.s) == (3, 2)
    assert code.independent_checks
    with pytest.raises(ValueError):
        as_classical(toy_css("11", "11"))


def test_dependent_checks_flag():
    dup = BitMatrix.from_strings(["110", "110"])
    assert not ClassicalCode(dup).independent_checks


def test_json_round_trip(rng):
    for _ in range(20):
        c = rand_valid_complex(rng)
        again = complex_from_json(complex_to_json(c))
        assert again == c


def test_json_field_order():
    c = ChainComplex((3, 2), (H3,))
    text = complex_to_json(c)
    assert text.index('"spaces"') < text.index('"diffs"') < text.index('"labels"')


# Quotes, backslashes, control characters and non-ASCII text, which json
# escapes, next to arbitrary text.
JSON_TEXT = (st.text(alphabet='a0 "\\\n\t\x00/\u00e9\u2603\U0001d11e', max_size=6)
             | st.text(max_size=6))
LAYOUTS = st.none() | st.dictionaries(JSON_TEXT, st.recursive(
    st.integers(-3, 9) | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(JSON_TEXT, inner, max_size=3),
    max_leaves=8,
), max_size=4)


@st.composite
def complexes(draw):
    """Complexes of any shapes, composites not necessarily zero, with
    default or drawn labels."""
    spaces = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    diffs = [
        BitMatrix(rows, cols, draw(st.lists(st.integers(0, (1 << cols) - 1),
                                            min_size=rows, max_size=rows)))
        for cols, rows in zip(spaces, spaces[1:])
    ]
    labels = draw(st.none() | st.lists(JSON_TEXT, min_size=len(spaces), max_size=len(spaces)))
    return ChainComplex(spaces, diffs, labels)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(complexes(), LAYOUTS)
@example(ChainComplex([2]), None)
@example(ChainComplex([2], labels=["\u00e9"]), None)  # "diffs": [], a non-ASCII label
@example(ChainComplex([0, 3, 0], [BitMatrix(3, 0, [0, 0, 0]), BitMatrix(0, 3, [])],
                      ['"', "\\", "\n\u00e9"]), {"k\u2603": {"\"": [1, []]}, "e": {}})
def test_complex_json_is_json_dumps_byte_for_byte(c, layout):
    """complex_to_json and the file save_complex writes are the bytes of
    json.dumps(obj, indent=1), the file with one more newline."""
    text = complex_to_json(c)
    assert text == naive_complex_json(c)
    assert complex_from_json(text) == c
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        save_complex(c, path, layout)
        assert path.read_bytes() == (naive_complex_json(c, layout) + "\n").encode()
        assert complex_from_json(path.read_text()) == c
        with path.open("rb") as fh:
            assert complex_from_layout(fh) == c  # read in chunks


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        complex_from_json("not json")
    with pytest.raises(ValueError):
        complex_from_json('{"spaces": [2]}')


VALID_JSON = complex_to_json(q_complex(rep_standard(3).h).complex)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats(allow_nan=False)
    | st.text(alphabet="01 \n2#-", max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["spaces", "diffs", "labels", "x"]), inner, max_size=4),
    max_leaves=12,
)
COMPLEX_TEXT = st.one_of(
    st.text(max_size=60),
    st.builds(json.dumps, JSON_VALUES),
    # well-typed fields whose shapes and rows need not agree
    st.builds(json.dumps, st.fixed_dictionaries(
        {"spaces": st.lists(st.integers(-1, 3), max_size=4),
         "diffs": st.lists(st.sampled_from(["2 3\n110\n011\n", "1 2\n11\n", "0 0\n",
                                            "3 2\n", "1 1\n2\n", "x"]), max_size=3)},
        optional={"labels": st.lists(st.text(max_size=3), max_size=4)})),
    # a valid complex with one slice cut out
    st.builds(lambda i, j: VALID_JSON[:i] + VALID_JSON[j:],
              st.integers(0, len(VALID_JSON)), st.integers(0, len(VALID_JSON))),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(COMPLEX_TEXT)
def test_complex_from_json_raises_only_value_error(text):
    try:
        c = complex_from_json(text)
    except ValueError:
        return
    assert complex_from_json(complex_to_json(c)) == c


@pytest.mark.parametrize("value, field", [
    (H3, "rows"),
    (ChainComplex((3, 2), (H3,)), "spaces"),
    (q_complex(H3), "h_x"),
    (ClassicalCode(H3), "h"),
], ids=["BitMatrix", "ChainComplex", "CssCode", "ClassicalCode"])
def test_core_types_are_immutable(value, field):
    """A field cannot be assigned (FrozenInstanceError is an
    AttributeError), and no name can be added: the value has no __dict__.
    CPython's frozen dataclasses with slots raise TypeError for a name that
    is not a field, through a stale class reference in their __setattr__,
    so both errors are accepted there."""
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises((AttributeError, TypeError)):
        value.extra = None
    assert getattr(value, field) is before
    assert not hasattr(value, "extra") and not hasattr(value, "__dict__")
