"""Distance balancing of CSS codes against classical codes.

Tensor a 3-term quantum complex with the reversed 2-term complex of a
classical code and keep the bottom three terms of the 4-term result; they
are H_X' = [H_X (x) I_t | I_{n_X} (x) H^T] and H_Z' = [[H_Z (x) I_t, 0],
[I_n (x) H, H_X^T (x) I_s]], which ``distance_balance`` builds directly. With
an independent-check classical [t, k, d] code this multiplies the quantum
dimension by k and the X-distance by d while preserving the Z-distance,
at the price of n*t + n_X*s qubits. Double balancing is that step, an X/Z
swap, the step again and the swap back, and its predicted parameters are
the same composition. Exact lower bounds on the soundness of the two new
component codes of a single step are available in terms of the input
component soundness, and ``bound_check`` verifies them against the
enumeration oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .chain import ClassicalCode, CssCode, _normal_form
from .constructions import _check_size
from .gf2 import BitMatrix, block
from .oracle import (
    DEFAULT_CAP,
    INFINITE,
    classical_dimension,
    classical_distance,
    classical_soundness,
    fraction_obj,
    locality,
    quantum_dimension,
    quantum_distances,
)


class DependentChecksError(ValueError):
    """The classical code has dependent checks; balancing such a code can
    produce something other than a balanced version of the input."""


class UndefinedSoundnessError(ValueError):
    def __init__(self, side: str, detail: str):
        self.side = side
        super().__init__(f"soundness undefined on side {side}: {detail}")


@dataclass(frozen=True)
class BalancedCode:
    """A balanced CSS code together with its tensor coordinate layout.

    Qubits split into an n*t block (input qubit, classical bit) followed by
    an n_X*s block (input X-check, classical check); Z-checks split into
    n_Z*t then n*s; X-checks are a single n_X*t block. Each block is
    indexed left factor major.
    """

    code: CssCode
    block_layout: dict


def _ranges(sizes: list[tuple[str, int]]) -> dict:
    out = {}
    off = 0
    for name, size in sizes:
        out[name] = [off, off + size]
        off += size
    return out


def distance_balance(q: CssCode, r: ClassicalCode) -> BalancedCode:
    """Balance q against r; requires independent checks and s <= t. A
    check matrix over the generators' size limit is a ValueError before
    anything is built."""
    if r.s > r.t:
        raise ValueError(f"more checks than bits (s = {r.s} > t = {r.t})")
    if not r.independent_checks:
        raise DependentChecksError(
            f"classical code has dependent checks (rank {r.rank} < s = {r.s})"
        )
    n, n_x, n_z, t, s = q.n, q.n_x, q.n_z, r.t, r.s
    _check_size(n_z * t + n * s, n * t + n_x * s)
    _check_size(n_x * t, n * t + n_x * s)
    eye = BitMatrix.identity
    # H_X' H_Z'^T = [(H_X H_Z^T) (x) I_t | H_X (x) H^T + H_X (x) H^T] = 0.
    h_z = block([[q.h_z.kron(eye(t)), BitMatrix.zeros(n_z * t, n_x * s)],
                 [eye(n).kron(r.h), q.h_x.transpose().kron(eye(s))]])
    h_x = block([[q.h_x.kron(eye(t)), eye(n_x).kron(r.h.transpose())]])
    layout = {
        "qubits": _ranges([("n*t", n * t), ("nX*s", n_x * s)]),
        "z_checks": _ranges([("nZ*t", n_z * t), ("n*s", n * s)]),
        "x_checks": _ranges([("nX*t", n_x * t)]),
    }
    return BalancedCode(code=CssCode._trusted(h_x, h_z), block_layout=layout)


def _swap(q: CssCode) -> CssCode:
    """The same code with the X and Z roles exchanged."""
    return CssCode._trusted(q.h_z, q.h_x)


def double_balance(q: CssCode, r: ClassicalCode) -> BalancedCode:
    """Balance, swap the X and Z roles, balance again, swap back.

    Both distances get multiplied by the classical distance and the
    dimension picks up two factors of the classical dimension. The layout
    is the second step's, with its check blocks exchanged by the last swap.
    """
    second = distance_balance(_swap(distance_balance(q, r).code), r)
    layout = second.block_layout
    return BalancedCode(
        code=_swap(second.code),
        block_layout={**layout, "z_checks": layout["x_checks"], "x_checks": layout["z_checks"]},
    )


@dataclass(frozen=True)
class QuantumParams:
    n: int
    dimension: int
    d_x: float
    d_z: float
    n_x: int
    n_z: int
    locality: int = 0


@dataclass(frozen=True)
class ClassicalParams:
    t: int
    dimension: int
    d: float
    s: int
    locality: int = 0


def bound_x(
    n: int, n_x: int, n_z: int, t: int, s: int, rho_z: Optional[Fraction]
) -> Optional[Fraction]:
    """Soundness lower bound for the balanced Z-check code (the checks that
    detect X errors, i.e. the transposed upper differential):
    1/(s+1) * min(n_Z*rho_Z/n, 1) * (n*t + n_X*s)/(n_Z*t + n*s)."""
    if rho_z is None or n == 0 or n_z * t + n * s == 0:
        return None
    clamp = min(Fraction(n_z) * rho_z / n, Fraction(1))
    return Fraction(1, s + 1) * clamp * Fraction(n * t + n_x * s, n_z * t + n * s)


def bound_z(
    n: int, n_x: int, n_z: int, t: int, s: int, rho_x: Optional[Fraction]
) -> Optional[Fraction]:
    """Soundness lower bound for the balanced X-check code (the bottom
    differential): 1/t * min(n_X*rho_X/n, 1) * (n*t + n_X*s)/(n_X*t)."""
    if rho_x is None or n == 0 or n_x * t == 0:
        return None
    clamp = min(Fraction(n_x) * rho_x / n, Fraction(1))
    return Fraction(1, t) * clamp * Fraction(n * t + n_x * s, n_x * t)


def predicted_params(qp: QuantumParams, rp: ClassicalParams) -> QuantumParams:
    """Single balancing step: K' = K*k, d_X' = d_X*d, d_Z' = d_Z,
    n' = n*t + n_X*s, n_X' = n_X*t and n_Z' = n_Z*t + n*s, in exact
    arithmetic. The locality is an upper bound, qp.locality + rp.locality,
    not a prediction of the exact value.

    A dimension-zero result has no logical operators at all, so both
    predicted distances are infinite there; the d_Z' = d_Z preservation
    only speaks about codes that still encode something.
    """
    if rp.s > rp.t:
        raise ValueError(f"more checks than bits (s = {rp.s} > t = {rp.t})")
    dimension = qp.dimension * rp.dimension
    return QuantumParams(
        n=qp.n * rp.t + qp.n_x * rp.s,
        dimension=dimension,
        d_x=qp.d_x * rp.d if dimension else INFINITE,
        d_z=qp.d_z if dimension else INFINITE,
        n_x=qp.n_x * rp.t,
        n_z=qp.n_z * rp.t + qp.n * rp.s,
        locality=qp.locality + rp.locality,
    )


def _swap_params(p: QuantumParams) -> QuantumParams:
    """The parameters of ``_swap`` of a code with parameters p."""
    return replace(p, d_x=p.d_z, d_z=p.d_x, n_x=p.n_z, n_z=p.n_x)


def predicted_double_params(qp: QuantumParams, rp: ClassicalParams) -> QuantumParams:
    """``predicted_params`` composed as ``double_balance`` composes
    ``distance_balance``: K'' = K*k^2, d_X'' = d_X*d, d_Z'' = d_Z*d, and
    the locality bound is qp.locality + 2*rp.locality."""
    return _swap_params(predicted_params(_swap_params(predicted_params(qp, rp)), rp))


def measured_quantum_params(q: CssCode, cap: int = DEFAULT_CAP) -> QuantumParams:
    d_x, d_z = quantum_distances(q, cap)
    return QuantumParams(
        n=q.n,
        dimension=quantum_dimension(q),
        d_x=d_x,
        d_z=d_z,
        n_x=q.n_x,
        n_z=q.n_z,
        locality=locality(q),
    )


def measured_classical_params(r: ClassicalCode, cap: int = DEFAULT_CAP) -> ClassicalParams:
    return ClassicalParams(
        t=r.t,
        dimension=classical_dimension(r),
        d=classical_distance(r, cap),
        s=r.s,
        locality=locality(r),
    )


@dataclass(frozen=True)
class SideCheck:
    side: str  # "X": the transposed upper differential; "Z": the bottom one
    measured: Fraction
    bound: Fraction
    holds: bool

    def to_obj(self) -> dict:
        return {
            "side": self.side,
            "measured": fraction_obj(self.measured),
            "bound": fraction_obj(self.bound),
            "holds": self.holds,
        }


@dataclass(frozen=True)
class BoundCheck:
    sides: tuple[SideCheck, SideCheck]
    rho_x: Fraction
    rho_z: Fraction
    rho_cap: Optional[Fraction]  # min(2n/n_Z, 2n/n_X) of the input
    hypothesis_ok: bool  # min component soundness within rho_cap

    @property
    def all_hold(self) -> bool:
        return all(s.holds for s in self.sides)

    def to_obj(self) -> list:
        return [s.to_obj() for s in self.sides]


def bound_check(
    q: CssCode,
    r: ClassicalCode,
    cap: int = DEFAULT_CAP,
    assume_rho: Optional[Fraction] = None,
) -> BoundCheck:
    """Measure the soundness of both balanced component codes and compare
    against the exact lower-bound formulas, as exact rationals.

    The bounds are evaluated at the measured component soundness of the
    input (or at ``assume_rho`` for both sides when given). The returned
    record also flags whether the soundness used stays within
    min(2n/n_Z, 2n/n_X); the bound formulas themselves hold regardless
    because of their min(., 1) clamp. A defined soundness is positive (a
    nonzero syndrome has |Hx| >= 1), so ``assume_rho <= 0`` is a ValueError.
    """
    if assume_rho is not None and assume_rho <= 0:
        raise ValueError(f"assumed soundness must be positive, got {assume_rho}")
    # Measured before the build: undefined input soundness is reported even
    # when the classical checks are dependent.
    rho = _input_soundness(q, cap) if assume_rho is None else (assume_rho, assume_rho)
    return _check_balanced(q, r, distance_balance(q, r), cap, rho)


def _soundness(h: BitMatrix, cap: int, memo: Optional[dict]) -> Optional[Fraction]:
    """classical_soundness of the code of h. A memo maps the normal form of
    each check matrix measured so far to its soundness, which is exact:
    |Hx| and d(x, ker H) do not change when the rows or the columns of H
    are permuted."""
    code = ClassicalCode(h)
    if memo is None:
        return classical_soundness(code, cap)
    key = _normal_form(code)
    if key not in memo:
        memo[key] = classical_soundness(code, cap)
    return memo[key]


def _input_soundness(
    q: CssCode, cap: int, memo: Optional[dict] = None
) -> tuple[Fraction, Fraction]:
    rho_x, rho_z = _soundness(q.h_x, cap, memo), _soundness(q.h_z, cap, memo)
    if rho_x is None:
        raise UndefinedSoundnessError("Z", "the input H_X code has no soundness")
    if rho_z is None:
        raise UndefinedSoundnessError("X", "the input H_Z code has no soundness")
    return rho_x, rho_z


def _check_balanced(
    q: CssCode, r: ClassicalCode, bal: BalancedCode, cap: int,
    rho: Optional[tuple[Fraction, Fraction]] = None, memo: Optional[dict] = None,
) -> BoundCheck:
    """``bound_check`` on the already built ``bal = distance_balance(q, r)``;
    rho is (rho_x, rho_z), measured on q when not given. Each soundness is
    looked up in memo, and kept there, when a memo is given."""
    rho_x, rho_z = rho or _input_soundness(q, cap, memo)
    measured_x = _soundness(bal.code.h_z, cap, memo)
    if measured_x is None:
        raise UndefinedSoundnessError("X", "balanced Z-check code has no soundness")
    measured_z = _soundness(bal.code.h_x, cap, memo)
    if measured_z is None:
        raise UndefinedSoundnessError("Z", "balanced X-check code has no soundness")

    # Defined here: n = 0, n_Z*t + n*s = 0 or n_X*t = 0 leaves a balanced
    # check matrix without a nonzero row, whose soundness was None above.
    bx = bound_x(q.n, q.n_x, q.n_z, r.t, r.s, rho_z)
    bz = bound_z(q.n, q.n_x, q.n_z, r.t, r.s, rho_x)

    rho_cap = None
    if q.n_x > 0 and q.n_z > 0:
        rho_cap = min(Fraction(2 * q.n, q.n_z), Fraction(2 * q.n, q.n_x))
    hypothesis_ok = rho_cap is not None and min(rho_x, rho_z) <= rho_cap

    return BoundCheck(
        sides=(
            SideCheck("X", measured_x, bx, measured_x >= bx),
            SideCheck("Z", measured_z, bz, measured_z >= bz),
        ),
        rho_x=rho_x,
        rho_z=rho_z,
        rho_cap=rho_cap,
        hypothesis_ok=hypothesis_ok,
    )
