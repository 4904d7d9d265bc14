"""Named code generators and symbolic parameter tables.

All randomness is drawn from a ``random.Random`` seeded explicitly, so the
same spec and seed always reproduce the same matrices bit for bit. A
spec splits into a draw, a hashable value made only of what its RNG
returned (None when the code does not depend on the seed), and a build of
the code from that draw (``CodeSpec.sampler``): two seeds with equal
draws give equal codes, so a caller can key on the draw before it builds
anything.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Hashable, Optional, Union

from .chain import ClassicalCode, CssCode, _as_int
from .gf2 import BitMatrix, block
from .io import load_code

_Code = Union[ClassicalCode, CssCode]

# Draws a random generator makes before it gives up with RuntimeError.
MAX_RESAMPLES = 1000

# The most entries (rows x cols) of a matrix a generator builds; a larger
# request is a ValueError before anything is allocated.
MAX_MATRIX_ENTRIES = 1 << 28


def _check_size(rows: int, cols: int) -> None:
    if rows * cols > MAX_MATRIX_ENTRIES:
        raise ValueError(
            f"a {rows} x {cols} matrix exceeds the generator limit of "
            f"{MAX_MATRIX_ENTRIES} entries"
        )


def rep_standard(l: int) -> ClassicalCode:
    """Chain-of-pairs checks for the length-l repetition code: row i is
    e_i + e_{i+1}, an (l-1) x l matrix with independent checks."""
    if l < 2:
        raise ValueError("repetition length must be >= 2")
    _check_size(l - 1, l)
    return ClassicalCode(BitMatrix(l - 1, l, [0b11 << i for i in range(l - 1)]))


def rep_modified(l: int) -> ClassicalCode:
    """Alternative checks for the same code: row i is e_i + e_{l-1}, so one
    column carries weight l-1. Same kernel as rep_standard(l)."""
    if l < 2:
        raise ValueError("repetition length must be >= 2")
    _check_size(l - 1, l)
    last = 1 << (l - 1)
    return ClassicalCode(BitMatrix(l - 1, l, [(1 << i) | last for i in range(l - 1)]))


def q_complex(hhat: BitMatrix) -> CssCode:
    """Doubled-check complex on 2n qubits: H_Z = [I_n | I_n] and
    H_X = [hhat | hhat]. The chain condition holds identically since the
    two copies of hhat cancel. Inherits dimension and Z-distance from
    ker(hhat) and has X-distance 2 whenever any logical qubit exists."""
    n = hhat.cols
    if n < 1:
        raise ValueError("check matrix must have at least one column")
    _check_size(max(n, hhat.rows), 2 * n)
    eye = BitMatrix.identity(n)
    h_z = block([[eye, eye]])
    h_x = block([[hhat, hhat]])
    return CssCode._trusted(h_x, h_z)


def hamming74() -> ClassicalCode:
    """The [7, 4, 3] code whose check columns are the numbers 1..7 in
    binary (bit i of column j is bit i of j)."""
    vals = [0, 0, 0]
    for j in range(1, 8):
        for i in range(3):
            if (j >> i) & 1:
                vals[i] |= 1 << (j - 1)
    return ClassicalCode(BitMatrix(3, 7, vals))


def random_ldpc(t: int, s: int, row_w: int, col_w: int, seed: int) -> ClassicalCode:
    """Pseudorandom s x t matrix with row weights in [1, row_w] and column
    weights at most col_w, resampled until the checks are independent.

    Exactly regular profiles are avoided on purpose: saturating an even
    column weight everywhere forces the rows to sum to zero, so some slack
    in the row weights is what makes independent checks reachable.

    Raises when the requested profile is infeasible by counting or when no
    independent-check sample is found in MAX_RESAMPLES draws.
    """
    draw, build = _ldpc_sampler(t, s, row_w, col_w)
    return build(draw(seed))


def _ldpc_sampler(t: int, s: int, row_w: int, col_w: int) -> tuple[Callable, Callable]:
    """random_ldpc's profile checked, and its (draw, build): the draw is
    the accepted rows, and the build their code."""
    if s > t:
        raise ValueError(f"more checks than bits (s = {s} > t = {t})")
    if row_w < 1 or col_w < 1:
        raise ValueError("weights must be >= 1")
    if row_w > t:
        raise ValueError(f"row weight {row_w} exceeds length {t}")
    if s * row_w > t * col_w:
        raise ValueError(
            f"infeasible profile: {s} rows of weight {row_w} cannot fit "
            f"column weight {col_w} over {t} columns"
        )
    _check_size(s, t)
    rng = random.Random()

    def draw(seed: int) -> tuple[int, ...]:
        if seed < 0:  # CPython would seed with its absolute value
            raise ValueError(f"seed must be >= 0, got {seed}")
        rng.seed(seed)
        for _ in range(MAX_RESAMPLES):
            col_load = [0] * t
            vals = []
            for _ in range(s):
                open_cols = [c for c in range(t) if col_load[c] < col_w]
                if not open_cols:
                    break
                chosen = rng.sample(open_cols, rng.randint(1, min(row_w, len(open_cols))))
                v = 0
                for c in chosen:
                    v |= 1 << c
                    col_load[c] += 1
                vals.append(v)
            else:
                reduced: dict[int, int] = {}
                if all(_independent(reduced, v) for v in vals):
                    return tuple(vals)
        raise RuntimeError(
            f"no independent-check sample with this profile in {MAX_RESAMPLES} tries"
        )

    def build(rows: tuple[int, ...]) -> ClassicalCode:
        return ClassicalCode(BitMatrix._trusted(s, t, rows))  # chosen columns are below t

    return draw, build


def random_css(n: int, n_x: int, n_z: int, seed: int) -> CssCode:
    """Random CSS code on n qubits with n_z independent Z-checks and n_x
    independent X-checks drawn from the orthogonal complement."""
    draw, build = _css_sampler(n, n_x, n_z)
    return build(draw(seed))


def _independent(reduced: dict[int, int], v: int) -> bool:
    """Whether v is independent of the rows accepted so far, which reduced
    holds in an echelon form keyed by their lowest set bit: exactly when v
    does not reduce to zero against them. An independent v is added."""
    while v and (low := v & -v) in reduced:
        v ^= reduced[low]
    if v:
        reduced[v & -v] = v
    return v != 0


def _sample_independent(rng: random.Random, dim: int, count: int) -> Optional[tuple[int, ...]]:
    """count independent draws of rng.getrandbits(dim), or None when
    MAX_RESAMPLES draws do not give them."""
    rows: list[int] = []
    reduced: dict[int, int] = {}
    for _ in range(MAX_RESAMPLES):
        if len(rows) == count:
            break
        v = rng.getrandbits(dim)
        if _independent(reduced, v):
            rows.append(v)
    return tuple(rows) if len(rows) == count else None


def _css_sampler(n: int, n_x: int, n_z: int) -> tuple[Callable, Callable]:
    """random_css's sizes checked, and its (draw, build). The draw is the
    H_Z rows and each H_X row as a mask over the kernel basis of H_Z, whose
    n - n_z vectors are independent: masks are independent exactly when
    the rows they stand for are, so the draw needs no kernel."""
    if n < 1:
        raise ValueError("need at least one qubit")
    if n_x < 0 or n_z < 0 or n_x + n_z > n:
        raise ValueError("check counts must satisfy 0 <= n_x + n_z <= n")
    _check_size(n, n)  # the kernel basis of H_Z has up to n rows
    rng = random.Random()

    def draw(seed: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if seed < 0:  # CPython would seed with its absolute value
            raise ValueError(f"seed must be >= 0, got {seed}")
        rng.seed(seed)
        hz_rows = _sample_independent(rng, n, n_z)
        if hz_rows is None:
            raise RuntimeError("could not sample independent Z-checks")
        masks = _sample_independent(rng, n - n_z, n_x)
        if masks is None:
            raise RuntimeError("could not sample independent X-checks")
        return hz_rows, masks

    def build(drawn: tuple[tuple[int, ...], tuple[int, ...]]) -> CssCode:
        hz_rows, masks = drawn
        h_z = BitMatrix._trusted(n_z, n, hz_rows)  # getrandbits(n) draws
        kernel = h_z.kernel_basis()
        hx_rows = []
        for m in masks:
            v = 0
            while m:
                low = m & -m
                v ^= kernel[low.bit_length() - 1]
                m ^= low
            hx_rows.append(v)
        # Every H_X row is a sum of kernel vectors of H_Z.
        return CssCode._trusted(BitMatrix._trusted(n_x, n, hx_rows), h_z)

    return draw, build


# Each family built from integer parameters: its builder and the names of
# those parameters in call order. A family whose names include "seed" is
# seeded, and a spec that leaves the seed out reads 0.
GENERATORS = {
    "rep": (rep_standard, ("l",)),
    "rep_modified": (rep_modified, ("l",)),
    "hamming74": (hamming74, ()),
    "random_ldpc": (random_ldpc, ("t", "s", "row_w", "col_w", "seed")),
    "random_css": (random_css, ("n", "n_x", "n_z", "seed")),
}
# Each seeded family's sampler: called with its parameters other than the
# seed, in order, it checks them and returns the family's (draw, build).
_SAMPLERS = {"random_ldpc": _ldpc_sampler, "random_css": _css_sampler}

FAMILIES = (*GENERATORS, "q_complex", "from_file")


@dataclass(frozen=True)
class CodeSpec:
    """A buildable description of a code: family name plus parameters.

    Families: the keys of GENERATORS, plus q_complex and from_file.
    q_complex takes hhat (a nested classical CodeSpec) or path (a file
    holding a classical code); from_file takes path. Any other parameter
    is a ValueError naming it."""

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        gen = GENERATORS.get(self.family)
        hhat = self.family == "q_complex" and "hhat" in self.params
        reads = gen[1] if gen is not None else ("hhat",) if hhat else ("path",)
        for name in self.params:
            if name not in reads:
                raise ValueError(f"{self.family} does not take parameter {name!r}"
                                 + (" with 'hhat'" if hhat else ""))

    def describe(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.family}({inner})"

    @property
    def seeded(self) -> bool:
        """Whether the code this spec builds depends on the seed: a seeded
        GENERATORS family, or q_complex over such an hhat."""
        gen = GENERATORS.get(self.family)
        if gen is not None:
            return "seed" in gen[1]
        return (self.family == "q_complex" and "hhat" in self.params
                and as_spec(self.params["hhat"]).seeded)

    def build(self) -> _Code:
        """The code this spec describes; a seeded family reads the spec's
        seed, 0 when it has none."""
        p = self.params
        gen = GENERATORS.get(self.family)
        if gen is not None:
            builder, names = gen
            return builder(*(_as_int(p.get(name, 0) if name == "seed" else p[name],
                                     f"parameter {name!r}") for name in names))
        if self.family == "from_file":
            return load_code(Path(p["path"]))
        # q_complex
        return _q_over(as_spec(p["hhat"]).build() if "hhat" in p
                       else load_code(Path(p["path"])))

    def sampler(self) -> tuple[Callable[[int], Hashable], Callable[[Hashable], _Code]]:
        """The spec's (draw, build), its parameters read and checked once,
        with build()'s errors: draw(seed), for an int seed, is a hashable
        value made only of what the RNG returned, and build(draw(seed)) is
        the code the spec gives at that seed. draw raises RuntimeError where
        no valid draw is found, and a seeded one ValueError at a negative
        seed. A q_complex draws its hhat's draw. A spec that is not seeded
        is built here, once: its draw is None at every seed and its build
        returns that code."""
        gen = GENERATORS.get(self.family)
        if gen is not None and self.family in _SAMPLERS:
            sizes = [_as_int(self.params[name], f"parameter {name!r}")
                     for name in gen[1] if name != "seed"]
            return _SAMPLERS[self.family](*sizes)
        if not self.seeded:
            fixed = self.build()
            return (lambda seed: None), (lambda drawn: fixed)
        draw, build = as_spec(self.params["hhat"]).sampler()
        return draw, lambda drawn: _q_over(build(drawn))


def _q_over(inner: _Code) -> CssCode:
    """q_complex of a classical inner code; ValueError for a CSS one."""
    if not isinstance(inner, ClassicalCode):
        raise ValueError("q_complex needs a classical inner code")
    return q_complex(inner.h)


def as_spec(obj) -> CodeSpec:
    """obj as a CodeSpec: a CodeSpec, or an object with a 'family' and an
    optional 'params' object; ValueError on anything else."""
    if isinstance(obj, CodeSpec):
        return obj
    if not isinstance(obj, dict) or "family" not in obj:
        raise ValueError(f"cannot interpret {obj!r} as a code spec")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"code spec 'params' must be an object, not {params!r}")
    return CodeSpec(obj["family"], dict(params))


# The parameter formula sheets: each names the inputs it reads, its rows
# and its columns, a label and one formula per row. A formula is symbolic
# unless it is all digits.
_DIMENSION_ROWS = ("physical_qubits", "soundness", "distance", "dimension", "locality")
_SHEETS = {
    "table1": ((), _DIMENSION_ROWS, {
        "standard repetition checks":
            ("O(n*l)", "Omega(1/l)", "Theta(min(n, l))", "Theta(n)", "Theta(1)"),
        "modified repetition checks":
            ("O(n*l)", "Omega(1)", "Theta(min(n, l))", "Theta(n)",
             "(avg, max) = (Theta(1), Theta(l))"),
    }),
    "table4": (("n", "t", "l"), ("physical_qubits", "soundness", "distance", "rate", "locality"), {
        "repetition checks, length l":
            ("Theta(n*l)", "Omega(1/l)", "Theta(min(n, l))", "Theta(1/l)", "Theta(1)"),
        "independent-check classical code, length t":
            ("Theta(n*t)", "Omega(1/t)", "Theta(min(n, t))", "Theta(1)", "Theta(1)"),
        "logarithmic classical length":
            ("n", "Omega(1/log(n))", "Theta(log(n))", "Theta(1)", "Theta(1)"),
    }),
    "genParams": ((), _DIMENSION_ROWS, {
        "hypersphere product family":
            ("n", "1/log(n)^2", "Theta(sqrt(n))", "2", "Theta(log(n)/loglog(n))"),
        "hemicubic family": ("n", "Omega(1/log(n))", "Theta(sqrt(n))", "1", "O(log(n))"),
        "double balanced, hypersphere product input":
            ("Theta(n*t^2)", "Omega(1/(log(n)^2*t^2))", "Theta(sqrt(n)*t)", "Theta(t^2)",
             "Theta(log(n)/loglog(n))"),
        "double balanced, hemicubic input":
            ("Theta(n*t^2)", "Omega(1/(log(n)*t^2))", "Theta(sqrt(n)*t)", "Theta(t^2)",
             "O(log(n))"),
    }),
    "exampleParams": (("alpha",), _DIMENSION_ROWS, {
        "logarithmic classical length (t = sqrt(log(n)))":
            ("n", "Omega(1/log(n)^2)", "Theta(sqrt(n))", "Theta(log(n))", "O(log(n))"),
        "polynomial classical length (t = n^a)":
            ("n", "Omega(1/(n^(2a/(1+2a))*log(n)))", "Theta(sqrt(n))",
             "Theta(n^(2a/(1+2a)))", "O(log(n))"),
    }),
}


def param_table(
    scenario: str,
    n: Optional[int] = None,
    t: Optional[int] = None,
    l: Optional[int] = None,
    alpha: Optional[Fraction] = None,
) -> dict:
    """Parameter formula sheets for the balancing constructions.

    Every asymptotic entry is emitted as a formula and flagged symbolic;
    exact numbers appear only where they follow from the given inputs.

      table1: balancing the doubled-check complex with the two repetition
              check matrices (standard vs modified).
      table4: the doubled-check complex balanced with repetition checks vs
              a general independent-check classical code; with n and l, or
              n and t, given, the qubit count is evaluated.
      genParams: growing the dimension of square-root-distance code
              families by double balancing with a classical code of
              length t.
      exampleParams: the same at logarithmic and polynomial classical
              lengths; with alpha given, the polynomial exponents are
              evaluated exactly.

    Only table4 reads n, t and l, and only exampleParams reads alpha
    (t = n^alpha); a given input must be read, an int (or, for alpha, a
    Fraction) and positive: ValueError if not.
    """
    key = scenario.strip().lower()
    name = next((s for s in _SHEETS if s.lower() == key), None)
    if name is None:
        raise ValueError(f"unknown scenario {scenario!r}")
    reads, rows, columns = _SHEETS[name]
    for option, value in (("n", n), ("t", t), ("l", l), ("alpha", alpha)):
        if value is None:
            continue
        if option not in reads:
            raise ValueError(f"table {name} does not take --{option}")
        if option != "alpha":
            _as_int(value, option)
        elif isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise ValueError(f"alpha must be an integer or a Fraction, not {value!r}")
        if value <= 0:
            raise ValueError(f"{option} must be positive, got {value}")
    cells = [{row: {"formula": f, "symbolic": not f.isdigit()} for row, f in zip(rows, formulas)}
             for formulas in columns.values()]
    if name == "table4":  # n*l qubits in the first column, n*t in the second
        for column, length in zip(cells, (l, t)):
            if n is not None and length is not None:
                column["physical_qubits"]["value"] = str(n * length)
    if name == "exampleParams" and alpha is not None:
        expo = str(2 * Fraction(alpha) / (1 + 2 * alpha))
        for cell in cells[1].values():
            if "2a/(1+2a)" in cell["formula"]:
                cell["formula"] = cell["formula"].replace("2a/(1+2a)", expo)
                cell["exponent"] = expo
    return {"scenario": name, "rows": list(rows),
            "columns": [{"label": label, "cells": c} for label, c in zip(columns, cells)]}
