import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from cssbalance import constructions
from cssbalance import (
    BitMatrix,
    ClassicalCode,
    CodeSpec,
    classical_dimension,
    classical_distance,
    classical_soundness,
    hamming74,
    locality,
    param_table,
    q_complex,
    quantum_dimension,
    quantum_distances,
    random_css,
    random_ldpc,
    rep_modified,
    rep_standard,
    write_pcm,
)
from naive import naive_random_css


def test_rep_standard_pattern():
    assert rep_standard(3).h == BitMatrix.from_strings(["110", "011"])
    assert classical_distance(rep_standard(5)) == 5
    for l in range(2, 9):
        assert rep_standard(l).h.rank() == l - 1


def test_rep_modified_pattern():
    assert rep_modified(3).h == BitMatrix.from_strings(["101", "011"])
    assert locality(rep_modified(5)) == 4


def test_rep_matrices_share_kernel():
    for l in range(2, 9):
        assert rep_standard(l).h.kernel_basis() == rep_modified(l).h.kernel_basis()


def test_rep_rejects_short_lengths():
    with pytest.raises(ValueError):
        rep_standard(1)
    with pytest.raises(ValueError):
        rep_modified(0)


def test_generators_refuse_oversized_matrices(monkeypatch):
    # Each generator checks rows x cols of the largest matrix it builds
    # against the limit before it builds anything.
    monkeypatch.setattr(constructions, "MAX_MATRIX_ENTRIES", 100)
    assert rep_standard(10).h.rows == 9  # 9 x 10
    assert random_css(10, 1, 1, seed=0).n == 10  # checked as n x n, the limit itself
    assert q_complex(BitMatrix.zeros(3, 5)).n == 10  # H_Z is 5 x 10
    refused = [
        lambda: rep_standard(11),  # 10 x 11
        lambda: rep_modified(11),
        lambda: q_complex(BitMatrix.zeros(1, 8)),  # H_Z is 8 x 16
        lambda: random_ldpc(12, 9, row_w=2, col_w=2, seed=0),  # 9 x 12
        lambda: random_css(11, 1, 1, seed=0),  # 11 x 11
    ]
    for build in refused:
        with pytest.raises(ValueError, match="generator limit of 100 entries"):
            build()


def test_q_complex_examples():
    q = q_complex(BitMatrix.from_strings(["110", "011"]))
    assert quantum_dimension(q) == 1
    assert quantum_distances(q) == (2, 3)
    q = q_complex(hamming74().h)
    assert quantum_dimension(q) == 4
    assert quantum_distances(q) == (2, 3)
    degenerate = q_complex(BitMatrix.from_strings(["1"]))
    assert degenerate.n == 2 and quantum_dimension(degenerate) == 0


def test_q_complex_tracks_inner_code(rng):
    for seed in range(8):
        h = random_ldpc(6, 3, row_w=3, col_w=2, seed=seed).h
        q = q_complex(h)
        assert q.complex.validate() is None
        inner = ClassicalCode(h)
        assert quantum_dimension(q) == classical_dimension(inner)
        d_x, d_z = quantum_distances(q)
        assert d_z == classical_distance(inner)
        if quantum_dimension(q) >= 1:
            assert d_x == 2


def test_hamming74_parameters():
    code = hamming74()
    assert (code.t, code.s) == (7, 3)
    assert classical_dimension(code) == 4
    assert classical_distance(code) == 3
    assert locality(code) == 4
    assert code.independent_checks


def test_random_ldpc_postconditions():
    code = random_ldpc(8, 4, row_w=4, col_w=2, seed=1)
    assert code.h.rank() == 4
    assert locality(code) <= 4
    row_weights = [v.bit_count() for v in code.h.row_ints()]
    assert 1 <= min(row_weights) and max(row_weights) <= 4
    assert max(v.bit_count() for v in code.h.transpose().row_ints()) <= 2
    assert random_ldpc(8, 4, row_w=4, col_w=2, seed=1).h == code.h
    assert random_ldpc(8, 4, row_w=4, col_w=2, seed=2).h != code.h


def test_random_ldpc_square_is_nonsingular():
    code = random_ldpc(4, 4, row_w=2, col_w=2, seed=0)
    assert code.h.rank() == 4


def test_random_ldpc_infeasible_profile():
    with pytest.raises(ValueError):
        random_ldpc(4, 4, row_w=3, col_w=2, seed=0)
    with pytest.raises(ValueError):
        random_ldpc(3, 4, row_w=2, col_w=2, seed=0)


def test_random_css_valid_and_deterministic():
    a = random_css(6, 2, 2, seed=9)
    b = random_css(6, 2, 2, seed=9)
    assert a.complex == b.complex
    assert a.complex.validate() is None
    assert a.h_x.rank() == 2 and a.h_z.rank() == 2


def test_random_css_matches_rank_rebuilding_sampler():
    """Reducing each draw against the rows kept so far keeps the same draws
    as rebuilding the matrix and taking its rank, including with no X- or
    no Z-checks and with as many checks as qubits."""
    shapes = [(1, 0, 0), (4, 0, 2), (4, 3, 0), (5, 2, 3), (6, 0, 6), (6, 6, 0), (7, 2, 2)]
    for n, n_x, n_z in shapes:
        for seed in range(200):
            fast = random_css(n, n_x, n_z, seed)
            assert fast.complex == naive_random_css(n, n_x, n_z, seed).complex, (
                n, n_x, n_z, seed)


def test_doubled_checks_soundness_at_least_inner():
    """Doubling the block preserves soundness at worst; record the ratio."""
    for inner in (rep_standard(3), hamming74()):
        doubled = ClassicalCode(q_complex(inner.h).h_x)
        rho_inner = classical_soundness(inner)
        rho_doubled = classical_soundness(doubled)
        assert rho_doubled >= rho_inner
        print(f"doubled-vs-inner soundness t={inner.t}: {rho_doubled} vs {rho_inner} "
              f"(ratio {rho_doubled / rho_inner})")


def test_code_spec_round_trip():
    spec = CodeSpec("random_ldpc", {"t": 6, "s": 3, "row_w": 3, "col_w": 2, "seed": 4})
    code = spec.build()
    assert code == random_ldpc(6, 3, 3, 2, 4)
    seeded = CodeSpec("q_complex", {"hhat": {"family": "random_ldpc", "params": spec.params}})
    assert seeded.build() == q_complex(code.h)
    with pytest.raises(ValueError, match="parameter 'seed' must be an integer"):
        CodeSpec("random_ldpc", {**spec.params, "seed": True}).build()
    with pytest.raises(ValueError):
        CodeSpec("bogus")


def _outcome(build):
    """What build() gives: its code, or the type and text of its error."""
    try:
        return build()
    except Exception as exc:  # the error is the outcome here
        return type(exc), str(exc)


def _at_seed(spec, seed):
    """The reference for the code spec gives at seed: its GENERATORS
    builder called with the seed, and q_complex of its hhat's code, which
    must be classical."""
    if spec.family == "q_complex":
        inner = _at_seed(constructions.as_spec(spec.params["hhat"]), seed)
        if not isinstance(inner, ClassicalCode):
            raise ValueError("q_complex needs a classical inner code")
        return q_complex(inner.h)
    builder, names = constructions.GENERATORS[spec.family]
    return builder(*(seed if name == "seed" else spec.params[name] for name in names))


LDPC = {"t": 6, "s": 3, "row_w": 3, "col_w": 2}
# Specs of every family that builds from params, seeded and not.
GOOD_SPECS = [
    CodeSpec("rep", {"l": 3}),
    CodeSpec("rep_modified", {"l": 4}),
    CodeSpec("hamming74"),
    CodeSpec("random_ldpc", LDPC),
    CodeSpec("random_ldpc", {**LDPC, "seed": 7}),
    CodeSpec("random_css", {"n": 5, "n_x": 1, "n_z": 2}),
    CodeSpec("random_css", {"n": 4, "n_x": 1, "n_z": 1, "seed": 3}),
    CodeSpec("q_complex", {"hhat": {"family": "rep", "params": {"l": 3}}}),
    CodeSpec("q_complex", {"hhat": {"family": "random_ldpc", "params": LDPC}}),
    CodeSpec("q_complex", {"hhat": CodeSpec("random_ldpc", {**LDPC, "seed": 2})}),
]
# Specs that fail to build, one for each way a build can fail.
BAD_SPECS = [
    CodeSpec("rep", {"l": 1}),
    CodeSpec("random_ldpc", {**LDPC, "row_w": 9}),
    CodeSpec("random_css", {"n": 4, "n_x": 1}),
    CodeSpec("random_css", {"n": 4.0, "n_x": 1, "n_z": 1}),
    CodeSpec("q_complex", {"hhat": {"family": "random_ldpc", "params": {**LDPC, "s": 9}}}),
    CodeSpec("q_complex", {"hhat": {"family": "random_css", "params": {"n": 3, "n_x": 1, "n_z": 1}}}),
    CodeSpec("q_complex", {"hhat": "rep"}),
]


# Seeded specs of every family: random_css with and without X- and
# Z-checks and with as many checks as qubits, random_ldpc, and q_complex
# over each (over random_css it is an error when built).
SEEDED_SPECS = [
    CodeSpec("random_css", {"n": 5, "n_x": 1, "n_z": 2}),
    CodeSpec("random_css", {"n": 4, "n_x": 0, "n_z": 2}),
    CodeSpec("random_css", {"n": 4, "n_x": 3, "n_z": 0}),
    CodeSpec("random_css", {"n": 5, "n_x": 2, "n_z": 3}),
    CodeSpec("random_css", {"n": 3, "n_x": 0, "n_z": 0}),
    CodeSpec("random_ldpc", LDPC),
    CodeSpec("random_ldpc", {"t": 4, "s": 2, "row_w": 2, "col_w": 2}),
]
SEEDED_SPECS += [CodeSpec("q_complex", {"hhat": spec}) for spec in SEEDED_SPECS]


def test_draws_build_the_seeded_codes():
    """A draw is hashable, equal seeds give equal draws, and the code built
    from the draw at a seed is the family's builder called with that seed."""
    assert {spec.family for spec in SEEDED_SPECS} == {*constructions._SAMPLERS, "q_complex"}
    for spec in SEEDED_SPECS:
        draw, build = spec.sampler()
        again = spec.sampler()[0]
        for seed in range(50):
            drawn = draw(seed)
            hash(drawn)
            assert drawn == draw(seed) == again(seed), (spec, seed)
            want = _outcome(lambda: _at_seed(spec, seed))
            assert _outcome(lambda: build(drawn)) == want, (spec, seed)


def test_draws_hold_what_the_generator_drew():
    """A random_ldpc draw is its rows; a random_css draw is its H_Z rows and
    each H_X row as a mask over the kernel basis of H_Z."""
    for seed in range(50):
        assert CodeSpec("random_ldpc", LDPC).sampler()[0](seed) == \
            random_ldpc(**LDPC, seed=seed).h.row_ints()
        code = random_css(5, 2, 2, seed)
        hz_rows, masks = CodeSpec("random_css", {"n": 5, "n_x": 2, "n_z": 2}).sampler()[0](seed)
        kernel = code.h_z.kernel_basis()
        assert hz_rows == code.h_z.row_ints()
        assert tuple(sum_of(kernel, m) for m in masks) == code.h_x.row_ints()


def test_negative_seed_is_refused():
    """CPython seeds with |seed|, so a negative seed would repeat the code
    of its absolute value: every seeded draw refuses it."""
    with pytest.raises(ValueError, match="seed must be >= 0, got -4"):
        random_ldpc(**LDPC, seed=-4)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        random_css(4, 1, 1, -1)
    with pytest.raises(ValueError, match="seed must be >= 0, got -2"):
        CodeSpec("random_css", {"n": 4, "n_x": 1, "n_z": 1, "seed": -2}).build()
    for spec in SEEDED_SPECS:
        draw = spec.sampler()[0]
        draw(0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            draw(-1)


@pytest.mark.parametrize("family, params, message", [
    ("random_css", {"n": 4, "n_x": 1, "n_z": 1, "nx": 3}, "random_css does not take parameter 'nx'"),
    ("rep", {"l": 3, "seed": 5}, "rep does not take parameter 'seed'"),
    ("hamming74", {"l": 9}, "hamming74 does not take parameter 'l'"),
    ("q_complex", {"hhat": {"family": "rep", "params": {"l": 3}}, "path": "h.pcm"},
     "q_complex does not take parameter 'path' with 'hhat'"),
    ("q_complex", {"path": "h.pcm", "l": 3}, "q_complex does not take parameter 'l'"),
    ("from_file", {"path": "h.pcm", "hhat": {"family": "rep", "params": {"l": 3}}},
     "from_file does not take parameter 'hhat'"),
])
def test_code_spec_refuses_a_parameter_its_family_does_not_read(family, params, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        CodeSpec(family, params)
    # A nested spec is read when the outer one builds or draws.
    outer = CodeSpec("q_complex", {"hhat": {"family": family, "params": params}})
    with pytest.raises(ValueError, match=f"^{message}$"):
        outer.build()
    with pytest.raises(ValueError, match=f"^{message}$"):
        outer.sampler()


def sum_of(vectors, mask):
    """The sum of the vectors whose bits are set in mask."""
    total = 0
    for i, v in enumerate(vectors):
        if mask >> i & 1:
            total ^= v
    return total


def test_sampler_errors_are_build_errors(monkeypatch):
    """A sampler refuses a bad spec, and its draw finds no valid draw,
    with the error build() gives; these specs have no seed, so build()
    reads seed 0."""
    def drawn(spec, seed):
        draw, build = spec.sampler()
        return build(draw(seed))

    for spec in SEEDED_SPECS + BAD_SPECS:
        assert _outcome(lambda: drawn(spec, 0)) == _outcome(spec.build), spec
    monkeypatch.setattr(constructions, "MAX_RESAMPLES", 0)
    for spec in SEEDED_SPECS:
        assert _outcome(lambda: drawn(spec, 0)) == _outcome(spec.build), spec


def test_sampler_of_a_fixed_spec_builds_once(tmp_path, monkeypatch):
    """The sampler of a spec that does not depend on the seed builds its
    code once: the draw is None at every seed, and the build of None is
    the code build() gives."""
    path = tmp_path / "h.pcm"
    path.write_text(write_pcm(hamming74().h))
    calls = []
    build = CodeSpec.build
    monkeypatch.setattr(CodeSpec, "build", lambda spec: (calls.append(spec), build(spec))[1])
    for spec in (CodeSpec("rep", {"l": 3}), CodeSpec("hamming74"),
                 CodeSpec("from_file", {"path": str(path)}),
                 CodeSpec("q_complex", {"hhat": {"family": "rep", "params": {"l": 3}}})):
        want = spec.build()
        once = list(calls)
        calls.clear()
        draw, built = spec.sampler()
        codes = [built(draw(seed)) for seed in (0, 1, 7, 2**40, 1)]
        assert [draw(seed) for seed in (0, 1, 7, 2**40)] == [None] * 4, spec
        assert codes == [want] * 5 and all(code is codes[0] for code in codes), spec
        assert calls == once and calls[0] == spec, spec  # one build, with its hhat's
        calls.clear()


def test_code_spec_seeded():
    """seeded says whether the built code depends on the seed."""
    seeded = {
        "rep": False, "rep_modified": False, "hamming74": False,
        "random_ldpc": True, "random_css": True, "from_file": False,
    }
    assert set(seeded) | {"q_complex"} == set(constructions.FAMILIES)
    for family, want in seeded.items():
        assert CodeSpec(family).seeded == want, family
    for hhat, want in (({"family": "rep", "params": {"l": 3}}, False),
                       ({"family": "random_ldpc", "params": LDPC}, True),
                       (CodeSpec("random_css"), True),
                       ({"family": "from_file", "params": {"path": "h.pcm"}}, False)):
        assert CodeSpec("q_complex", {"hhat": hhat}).seeded == want, hhat
    assert not CodeSpec("q_complex", {"path": "h.pcm"}).seeded
    for spec in GOOD_SPECS:
        assert spec.seeded == (_at_seed(spec, 1) != _at_seed(spec, 2)), spec


def test_random_draws_are_pinned():
    """The packed rows the random generators draw for a few seeds, fixed so
    that a change to how a matrix is built cannot move a draw."""
    css = {0: ((28,), (27, 12)), 1: ((26,), (4, 18)), 2: ((31,), (30, 27)),
           3: ((19,), (7, 18)), 4: ((22,), (7, 9))}
    for seed, (h_x, h_z) in css.items():
        code = random_css(5, 1, 2, seed)
        assert (code.h_x.row_ints(), code.h_z.row_ints()) == (h_x, h_z), seed
    ldpc = {0: (9, 24, 20), 1: (16, 4, 8), 2: (1, 4, 32), 3: (16, 14, 49), 4: (4, 32, 10)}
    for seed, h in ldpc.items():
        assert random_ldpc(6, 3, 3, 2, seed).h.row_ints() == h, seed


def test_param_table_table4():
    record = param_table("table4", n=10, t=5)
    cols = record["columns"]
    assert record["rows"] == ["physical_qubits", "soundness", "distance", "rate", "locality"]
    general = cols[1]["cells"]
    assert general["physical_qubits"]["formula"] == "Theta(n*t)"
    assert general["physical_qubits"]["value"] == "50"
    assert general["soundness"] == {"formula": "Omega(1/t)", "symbolic": True}


def test_param_table_alpha_exponent():
    record = param_table("exampleParams", alpha=Fraction(1, 4))
    dim = record["columns"][1]["cells"]["dimension"]
    assert dim["exponent"] == "1/3"
    assert "1/3" in dim["formula"]
    symbolic = param_table("exampleParams")
    assert symbolic["columns"][1]["cells"]["dimension"]["formula"] == "Theta(n^(2a/(1+2a)))"
    # t = n^alpha needs alpha > 0, and sizes are positive.
    for alpha in (Fraction(-1, 2), Fraction(0)):
        with pytest.raises(ValueError, match="alpha must be positive"):
            param_table("exampleParams", alpha=alpha)
    for sizes in ({"n": -3, "l": 2}, {"n": 4, "t": 0}, {"l": -1}):
        with pytest.raises(ValueError, match="must be positive"):
            param_table("table4", **sizes)


def test_param_table_gen_params_shape():
    record = param_table("genParams")
    assert len(record["columns"]) == 4
    snd = record["columns"][3]["cells"]["soundness"]["formula"]
    assert snd == "Omega(1/(log(n)*t^2))"
    assert record["columns"][0]["cells"]["dimension"] == {"formula": "2", "symbolic": False}


def test_param_table_table1_shape():
    record = param_table("table1")
    assert [c["label"] for c in record["columns"]] == [
        "standard repetition checks",
        "modified repetition checks",
    ]
    assert record["columns"][1]["cells"]["soundness"]["formula"] == "Omega(1)"


def _spellings(name):
    return (name, name.upper(), name.lower(), f" {name}\t")


def test_param_table_records_are_pinned():
    """Every sheet under four spellings of its name and every combination
    of the inputs it reads, as JSON, against a digest of the records."""
    records = [param_table(s) for s in (*_spellings("table1"), *_spellings("genParams"))]
    for s in _spellings("table4"):
        for n, t, l in itertools.product((None, 10), (None, 5), (None, 3)):
            records.append(param_table(s, n=n, t=t, l=l))
    for s in _spellings("exampleParams"):
        for alpha in (None, Fraction(1, 4), Fraction(2)):
            records.append(param_table(s, alpha=alpha))
    text = "\n".join(json.dumps(r) for r in records)
    assert len(records) == 52
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c1a2547dd624610ce620dad7c070bfbd77b08d44221611eeea05f18275294299")


def test_param_table_records_are_fresh():
    """Each call builds its own record: changing one leaves the next as it was."""
    first, second = param_table("table4", n=10, l=3), param_table("table4", n=10, l=3)
    assert first == second and first is not second
    first["rows"].append("extra")
    first["columns"][0]["label"] = "changed"
    first["columns"][0]["cells"]["physical_qubits"]["formula"] = "changed"
    first["columns"][1]["cells"]["soundness"]["symbolic"] = False
    assert param_table("table4", n=10, l=3) == second
    assert second["rows"][-1] == "locality"


def test_param_table_refuses_inputs_a_sheet_does_not_read():
    """table4 reads n, t and l and exampleParams reads alpha; any other given
    input is refused by name, before its sign is checked."""
    for scenario, given, message in (
            ("table1", {"n": 5}, "table table1 does not take --n"),
            ("genParams", {"alpha": Fraction(1, 4)}, "table genParams does not take --alpha"),
            (" EXAMPLEPARAMS", {"n": 3}, "table exampleParams does not take --n"),
            ("table4", {"n": 3, "alpha": Fraction(2)}, "table table4 does not take --alpha"),
            ("exampleParams", {"alpha": Fraction(1), "t": -1},
             "table exampleParams does not take --t"),
            ("table1", {"l": 0}, "table table1 does not take --l")):
        with pytest.raises(ValueError) as exc:
            param_table(scenario, **given)
        assert str(exc.value) == message, scenario
    assert param_table("table4", n=3, t=2, l=4)["columns"][1]["cells"]["physical_qubits"] == {
        "formula": "Theta(n*t)", "symbolic": True, "value": "6"}
    assert param_table("exampleParams", alpha=Fraction(2))["columns"][1]["cells"]["dimension"] == {
        "formula": "Theta(n^(4/5))", "symbolic": True, "exponent": "4/5"}


def test_param_table_refuses_inputs_of_the_wrong_type():
    """n, t and l are ints and alpha an int or a Fraction: a float, a bool
    or a str is refused by name after the read check and before the sign
    check, and an int alpha is read as the Fraction it equals."""
    for scenario, given, message in (
            ("table4", {"n": 2.5, "l": 3}, "n must be an integer, not 2.5"),
            ("table4", {"n": True, "l": 3}, "n must be an integer, not True"),
            ("table4", {"n": 3, "t": "2"}, "t must be an integer, not '2'"),
            ("table4", {"l": -0.5}, "l must be an integer, not -0.5"),
            ("exampleParams", {"alpha": 0.8}, "alpha must be an integer or a Fraction, not 0.8"),
            ("exampleParams", {"alpha": True},
             "alpha must be an integer or a Fraction, not True"),
            ("exampleParams", {"alpha": "2"}, "alpha must be an integer or a Fraction, not '2'"),
            ("exampleParams", {"alpha": -2}, "alpha must be positive, got -2"),
            ("table1", {"n": 2.5}, "table table1 does not take --n")):
        with pytest.raises(ValueError) as exc:
            param_table(scenario, **given)
        assert str(exc.value) == message, given
    assert param_table("exampleParams", alpha=2) == param_table("exampleParams", alpha=Fraction(2))
    assert param_table("exampleParams", alpha=2)["columns"][1]["cells"]["dimension"] == {
        "formula": "Theta(n^(4/5))", "symbolic": True, "exponent": "4/5"}


def test_param_table_unknown_scenario():
    with pytest.raises(ValueError):
        param_table("bogus")
