"""Acceptance checklist.

Each test below is one numbered criterion and prints a single PASS/FAIL
line. Criteria 02-04 share one corpus of balanced-code instances built in
a module-scoped fixture; every instance pairs a small CSS code with an
independent-check classical code and stays inside the default enumeration
cap for dimension and distance measurements. Soundness bound checks must
be certified on every instance whose four syndrome searches (the input
and balanced H_X and H_Z codes, 2^rank syndromes each) fit the cap.
"""

import json
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import pytest
from naive import naive_soundness

from cssbalance import (
    BitMatrix,
    BoundCheck,
    DEFAULT_CAP,
    CapExceeded,
    ClassicalCode,
    CssCode,
    QuantumParams,
    bound_check,
    classical_soundness,
    cocomplex,
    as_css,
    distance_balance,
    double_balance,
    hamming74,
    homological_product,
    locality,
    measured_classical_params,
    measured_quantum_params,
    predicted_params,
    q_complex,
    quantum_dimension,
    quantum_distances,
    random_css,
    random_ldpc,
    rep_modified,
    rep_standard,
)
from cssbalance.cli import main as cli_main
from conftest import rand_valid_complex

H3 = BitMatrix.from_strings(["110", "011"])


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance {number:02d}] {name}: FAIL")
        raise
    print(f"[acceptance {number:02d}] {name}: PASS")


@dataclass
class Instance:
    label: str
    quantum: CssCode
    classical: ClassicalCode
    predicted: QuantumParams
    measured_k: int
    measured_d_x: float
    measured_d_z: float
    bounds: Optional[BoundCheck]
    soundness_fits: bool  # every soundness search of bound_check fits the cap


def _instance_pairs():
    pairs = []
    for l in (2, 3, 4):
        for m in (2, 3, 4):
            pairs.append((f"q(rep{l}) x rep{m}", q_complex(rep_standard(l).h), rep_standard(m)))
    pairs.append(("q(rep2) x hamming74", q_complex(rep_standard(2).h), hamming74()))
    for seed in (1, 2, 3):
        pairs.append((
            f"q(rep2) x ldpc(6,3)#{seed}",
            q_complex(rep_standard(2).h),
            random_ldpc(6, 3, row_w=3, col_w=2, seed=seed),
        ))
        pairs.append((
            f"q(rep3) x ldpc(4,2)#{seed}",
            q_complex(rep_standard(3).h),
            random_ldpc(4, 2, row_w=3, col_w=2, seed=seed),
        ))
    for seed in (1, 2):
        pairs.append((
            f"q(rep4) x ldpc(3,1)#{seed}",
            q_complex(rep_standard(4).h),
            random_ldpc(3, 1, row_w=2, col_w=1, seed=seed),
        ))
    for seed in (0, 1, 2):
        pairs.append((f"css(4,1,1)#{seed} x rep2", random_css(4, 1, 1, seed=seed), rep_standard(2)))
        pairs.append((f"css(4,1,1)#{seed + 3} x rep3", random_css(4, 1, 1, seed=seed + 3), rep_standard(3)))
        pairs.append((f"css(5,1,2)#{seed} x rep2", random_css(5, 1, 2, seed=seed), rep_standard(2)))
        pairs.append((
            f"css(5,1,2)#{seed} x ldpc(4,2)#{seed}",
            random_css(5, 1, 2, seed=seed),
            random_ldpc(4, 2, row_w=2, col_w=2, seed=seed),
        ))
    for seed in (0, 1):
        pairs.append((f"css(6,2,2)#{seed} x rep2", random_css(6, 2, 2, seed=seed), rep_standard(2)))
        pairs.append((
            f"css(4,1,1)#{seed + 6} x ldpc(5,2)#{seed}",
            random_css(4, 1, 1, seed=seed + 6),
            random_ldpc(5, 2, row_w=2, col_w=1, seed=seed),
        ))
    return pairs


@pytest.fixture(scope="module")
def corpus():
    records = []
    for label, q, r in _instance_pairs():
        qp = measured_quantum_params(q)
        rp = measured_classical_params(r)
        predicted = predicted_params(qp, rp)
        balanced = distance_balance(q, r)
        d_x, d_z = quantum_distances(balanced.code)
        try:
            bounds = bound_check(q, r)
        except CapExceeded:
            bounds = None
        checks = (q.h_x, q.h_z, balanced.code.h_x, balanced.code.h_z)
        soundness_fits = all(1 << h.rank() <= DEFAULT_CAP for h in checks)
        records.append(Instance(
            label=label,
            quantum=q,
            classical=r,
            predicted=predicted,
            measured_k=quantum_dimension(balanced.code),
            measured_d_x=d_x,
            measured_d_z=d_z,
            bounds=bounds,
            soundness_fits=soundness_fits,
        ))
    return records


def test_01_chain_condition_on_random_products():
    with criterion(1, "random homological products satisfy the chain condition"):
        rng = random.Random(1)
        start = time.monotonic()
        for _ in range(200):
            x = rand_valid_complex(rng, max_terms=3, max_dim=8)
            y = rand_valid_complex(rng, max_terms=3, max_dim=8)
            assert homological_product(x, y).validate() is None
        assert time.monotonic() - start < 10.0


def test_02_balanced_parameter_equalities(corpus):
    with criterion(2, "balanced dimension and distances equal the predictions exactly"):
        assert len(corpus) >= 34
        for inst in corpus:
            assert inst.measured_k == inst.predicted.dimension, inst.label
            assert inst.measured_d_x == inst.predicted.d_x, inst.label
            assert inst.measured_d_z == inst.predicted.d_z, inst.label


def test_03_x_side_soundness_bound(corpus):
    with criterion(3, "X-side soundness bound holds on every in-cap instance"):
        checked = [inst for inst in corpus if inst.bounds is not None]
        assert checked == [inst for inst in corpus if inst.soundness_fits]
        assert len(checked) >= 33
        for inst in checked:
            side = inst.bounds.sides[0]
            assert side.side == "X"
            assert side.measured >= side.bound, inst.label
            assert side.holds, inst.label


def test_04_z_side_soundness_bound(corpus):
    with criterion(4, "Z-side soundness bound holds on every in-cap instance"):
        checked = [inst for inst in corpus if inst.bounds is not None]
        assert checked == [inst for inst in corpus if inst.soundness_fits]
        assert len(checked) >= 33
        for inst in checked:
            side = inst.bounds.sides[1]
            assert side.side == "Z"
            assert side.measured >= side.bound, inst.label
            assert side.holds, inst.label


def test_05_double_balance_audit():
    with criterion(5, "double balancing multiplies both distances and audits qubit count"):
        q = q_complex(H3)
        r = rep_standard(2)
        bal = double_balance(q, r)
        assert quantum_dimension(bal.code) == 1
        assert quantum_distances(bal.code) == (4, 6)
        qp = measured_quantum_params(q)
        rp = measured_classical_params(r)
        once = predicted_params(qp, rp)
        assert bal.n == once.n * rp.t + once.n_z * rp.s


def test_06_doubled_check_complex_parameters():
    with criterion(6, "doubled-check complex inherits dimension and Z-distance, X-distance 2"):
        for inner, k, d in ((rep_standard(3), 1, 3), (hamming74(), 4, 3)):
            q = q_complex(inner.h)
            assert quantum_dimension(q) == k
            d_x, d_z = quantum_distances(q)
            assert (d_x, d_z) == (2, d)


def test_07_soundness_ground_truth():
    with criterion(7, "soundness oracle agrees with the naive full-word sweep"):
        rep3 = rep_standard(3)
        single = ClassicalCode(BitMatrix.from_strings(["11"]))
        from fractions import Fraction

        assert classical_soundness(rep3) == naive_soundness(rep3.h) == Fraction(3, 2)
        assert classical_soundness(single) == naive_soundness(single.h) == Fraction(2)


def test_08_repetition_matrix_equivalence():
    with criterion(8, "both repetition check matrices cut out the same code"):
        for l in range(2, 9):
            std, mod = rep_standard(l), rep_modified(l)
            assert std.h.kernel_basis() == mod.h.kernel_basis()
            assert locality(std) == 2
            # The heavy last column dominates from l = 3 on; at l = 2 the
            # two matrices coincide, so both localities are 2.
            assert locality(mod) == (l - 1 if l >= 3 else 2)


def test_09_cocomplex_involution_and_distance_swap():
    with criterion(9, "reversing arrows is an involution and swaps the two distances"):
        rng = random.Random(99)
        for trial in range(20):
            n = rng.randint(4, 7)
            n_z = rng.randint(1, 2)
            n_x = rng.randint(1, max(1, n - n_z - 1))
            q = random_css(n, n_x, n_z, seed=1000 + trial)
            c = q.complex
            assert cocomplex(cocomplex(c)) == c
            d_x, d_z = quantum_distances(q)
            assert quantum_distances(as_css(cocomplex(c))) == (d_z, d_x)


def test_10_sweep_determinism(tmp_path):
    with criterion(10, "sweep output is byte identical across runs"):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "pairs": [{
                "quantum": {"family": "random_css", "params": {"n": 4, "n_x": 1, "n_z": 1}},
                "classical": {"family": "random_ldpc",
                              "params": {"t": 4, "s": 2, "row_w": 2, "col_w": 2}},
                "seeds": {"start": 0, "count": 5},
            }]
        }))
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert cli_main(["sweep", str(job), "-o", str(first)]) == 0
        assert cli_main(["sweep", str(job), "-o", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        rows = first.read_text().strip().split("\n")[1:]
        assert len(rows) == 5
