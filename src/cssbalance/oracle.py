"""Exact brute-force code analysis: dimension, distances, locality, soundness.

Every quantity here is computed by exhaustive enumeration or exact rank
arithmetic and reported as an int or a reduced Fraction; no floating point
is involved anywhere (``math.inf`` only marks the absence of a nonzero
codeword or logical operator). Every result is independent of scan order.

Minimum weights come from exhaustive scans, all bit-sliced (Biham, FSE
1997): a set of the 2^m words of m bits is one int of 2^m bits, the words
at which a sum of coordinates is odd are an XOR of the sets of ``_zeros``,
and ``_add`` sums sets into count planes, whose least count over a set
``_least`` finds by descent.

- the kernel scan (``_min_weight``) takes all 2^k subsets of a kernel
  basis at once: bit j of a subset's sum is set when an odd number of
  its members have bit j set, and the columns add up to weight planes.
  It holds about k + ceil(log2(n + 1)) + 4 sets of 2^k bits. Classical
  distance and a logical distance's scan use it;
- the syndrome scan (``_depths``) finds the depth of each syndrome, the
  minimum weight of its coset (the standard array of MacWilliams & Sloane,
  *The Theory of Error-Correcting Codes*, ch. 1). Syndromes are written in
  a basis with a unit column per row, and XOR by a column permutes a set
  of syndromes, a block swap per set bit of the column. Each depth starts
  at the weight over the basis's units and is relaxed once by each other
  distinct column (depth(c) <- 1 + depth(c ^ g) where less) in
  P = ceil(log2(rank + 1)) depth planes; the relaxation holds about
  rank + 2P + 8 sets. A pivot exchange (``_frame``) first makes those
  columns units where it can, one swap per plane each: total weight 7,
  not 39, on the rank-15 H_Z' of q(rep3) x rep3. Soundness works
  in H's echelon coordinates; the s checks are summed into weight planes
  after the relaxation, and that stage holds about
  rank + ceil(log2(s + 1)) + P + 5 sets. A logical distance works in the
  coordinates of the kernel basis of the other checks and takes the least
  depth over the logical syndromes; it stops before any set is made when
  the stabilizers span that kernel or a column of it is the syndrome of a
  logical operator of weight 1.

Classical distance always scans the kernel and soundness always searches
syndromes. A logical distance that fits both scans searches when
n * 2^rank < 2^dim(kernel), n the number of columns, from ranks alone,
before any kernel is built or any set allocated. That prices neither
scan's work nor its memory: under a cap of 2^30 the X-distance of
random_css(35, 11, 7) at seed 1 takes the 2^28-word kernel scan (14.7 s,
1.3 GB) over the 2^24-syndrome search (the same d = 2 in 0.5 s, 92 MB).
ROADMAP item 3 prices the rule from the work each scan does.

The enumeration budget is a hard cap on the size of the scan a call
chooses: 2^dim(kernel) words for a kernel scan, 2^rank syndromes for the
search. Per scan that is 2^dim ker H for classical distance;
min(2^dim ker H_Z, 2^(n - rank H_X)) for the X-distance and the same with
X and Z swapped for the Z-distance; and 2^rank H for soundness.
``CapExceeded`` is raised only when no scan fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .chain import ClassicalCode, CssCode
from .gf2 import BitMatrix, _columns, row_basis

DEFAULT_CAP = 1 << 24

INFINITE = math.inf

Distance = Union[int, float]


class CapExceeded(Exception):
    """Every exhaustive scan that could answer a call is larger than the cap.

    ``words_log2`` is log2 of the kernel scan's size and ``syndromes_log2``
    that of the syndrome search, None for a scan the call cannot use.
    """

    def __init__(
        self,
        what: str,
        cap: int,
        *,
        words_log2: Optional[int] = None,
        syndromes_log2: Optional[int] = None,
    ):
        self.what = what
        self.cap = cap
        self.words_log2 = words_log2
        self.syndromes_log2 = syndromes_log2
        sizes = ((words_log2, "words (kernel scan)"),
                 (syndromes_log2, "syndromes (syndrome scan)"))
        needs = [f"2^{k} {kind}" for k, kind in sizes if k is not None]
        power_of_two = cap > 0 and cap & (cap - 1) == 0
        cap_text = f"2^{cap.bit_length() - 1}" if power_of_two else str(cap)
        super().__init__(f"{what} needs {' or '.join(needs)}, cap is {cap_text}")


def _fits(log2_size: Optional[int], cap: int) -> bool:
    return log2_size is not None and log2_size < cap.bit_length() and (1 << log2_size) <= cap


def _use_search(
    what: str,
    cap: int,
    words_log2: Optional[int],
    syndromes_log2: Optional[int] = None,
    columns: int = 0,
) -> bool:
    """True to search 2^syndromes_log2 syndromes, False to scan the
    2^words_log2 words of a kernel, with None for a scan the call cannot
    use. When both fit the cap, the search is taken if
    ``columns * 2^syndromes_log2 < 2^words_log2``, a price of a search
    at most ``columns`` generators wide that ignores both scans' memory."""
    scan, search = _fits(words_log2, cap), _fits(syndromes_log2, cap)
    if scan and search:
        return columns << syndromes_log2 < 1 << words_log2
    if not (scan or search):
        raise CapExceeded(what, cap, words_log2=words_log2, syndromes_log2=syndromes_log2)
    return search


def _zeros(m: int) -> list[int]:
    """zeros[i]: the set of the 2^m words c (bit c of an int) whose bit i is
    0. The top one is the lower half, and each is the one above XOR itself
    moved up by 2^i."""
    zeros = [(1 << (1 << m >> 1)) - 1] if m else []
    for i in reversed(range(m - 1)):
        zeros.append(zeros[-1] ^ zeros[-1] << (1 << i))
    zeros.reverse()
    return zeros


def _odd_set(g: int, zeros, full: int) -> int:
    """The set of the words at which the sum of their coordinates at the
    bits of g is odd, given zeros[j], the words whose coordinate j is 0,
    and full, all words: the XOR of the full ^ zeros[j] for the bits j."""
    fired = full if g.bit_count() & 1 else 0
    while g:
        low = g & -g
        fired ^= zeros[low.bit_length() - 1]
        g ^= low
    return fired


def _add(planes: list[int], s: int, k: int = 0) -> None:
    """Add 2^k to the count of every member of the set s. The counts are
    bit-sliced: planes[k] is the set of the members whose count has bit k
    set, and there are enough planes for every sum."""
    while s:
        planes[k], s = planes[k] ^ s, planes[k] & s
        k += 1


def _least(found: int, planes: list[int]) -> int:
    """The least count over the nonempty set found: descend the planes from
    the top, keeping the members with bit k clear whenever there are any."""
    w = 0
    for k in reversed(range(len(planes))):
        low = found ^ (found & planes[k])  # not found & ~plane: no negative int
        if low:
            found = low
        else:
            w |= 1 << k
    return w


def _min_weight(vals: list[int], low: int = 0) -> Distance:
    """Minimum weight over the sums of the subsets of vals that take a
    member at index >= low; INFINITE when there is none. Bit-sliced over
    all 2^k subsets c at once: bit j of the sums is the parity set of
    column j of vals, and the adder sums those sets into weight planes.
    Equal columns share one parity set, and only one is alive at a time."""
    k = len(vals)
    if low >= k:
        return INFINITE
    zeros, full = _zeros(k), (1 << (1 << k)) - 1
    counts = {}  # counts[g]: the number of nonzero columns equal to g
    for g in _columns(vals, max(vals).bit_length()):
        if g:
            counts[g] = counts.get(g, 0) + 1
    planes = [0] * sum(counts.values()).bit_length()
    for g, copies in counts.items():
        fired = _odd_set(g, zeros, full)
        for j in range(copies.bit_length()):
            if copies >> j & 1:
                _add(planes, fired, j)
    return _least(full ^ ((1 << (1 << low)) - 1), planes)


def _swaps(move: int, zeros: list[int]) -> list[tuple[int, int]]:
    """XOR by move permutes a set of syndromes, one block swap per set bit
    i of move: (zeros[i], 2^i), the members to move up by 2^i and the
    distance; the members with bit i set move down by the same."""
    swaps = []
    while move:
        low = move & -move
        swaps.append((zeros[low.bit_length() - 1], low))
        move ^= low
    return swaps


def _frame(columns: list[int], owners: Sequence[int]) -> tuple[list[int], list[int]]:
    """(owners, moves): the column each row owns in the frame that _depths
    relaxes in, and the relaxed columns, each distinct column that is not
    zero or a unit, written in that frame. The basis is given by its
    columns (``gf2._columns``), row i owning the unit column owners[i].
    Each relaxed column j independent of those before it becomes a unit:
    a row i that still owns its first unit and has a one at j is added to
    the other rows with a one there, and owns j. That adds g ^ 2^i, g
    column j, to each later column with bit i."""
    first = {}
    for j, g in enumerate(columns):
        if g & (g - 1):
            first.setdefault(g, j)
    moves = sorted(first)
    owners, kept = list(owners), (1 << len(owners)) - 1  # rows owning their first unit
    for a, j in enumerate([first[g] for g in moves]):
        g = moves[a]
        low = g & kept & -(g & kept)
        if low:
            for b in range(a + 1, len(moves)):
                if moves[b] & low:
                    moves[b] ^= g ^ low
            owners[low.bit_length() - 1] = j
            moves[a] = low
            kept ^= low
    return owners, moves


def _depths(
    rows: Sequence[int], cols: int, owners: Sequence[int], zeros: list[int], full: int
) -> tuple[list[int], dict, int]:
    """The depths of the 2^rank syndromes of rank basis rows of cols bits,
    row i owning the unit column owners[i] (H's echelon rows and their
    pivots, or the kernel basis of the other checks and its free columns),
    in the frame of ``_frame``. zeros is _zeros(rank) and full the set of
    all syndromes. Returns (planes, at, mask): planes[k] is the set of the
    syndromes whose depth, the minimum weight of a word with that syndrome,
    has bit k set; at maps the column that row i of the frame owns to
    zeros[i], and mask has their bits, so that a row-space vector v has odd
    parity with the words of the syndromes _odd_set(v & mask, at, full).

    Each depth starts at the weight over the input's own units, the sum of
    the basis rows' odd sets. Each relaxed column g then relaxes depth(c)
    to 1 + depth(c ^ g) where that is less, one block swap per plane per
    set bit of g, which leaves depth(c) = min over the subsets S of those
    columns of |S| + weight(c ^ sum(S)). Depths are at most rank, so
    rank.bit_length() planes hold them; a carry out of the increment is a
    value above rank, which never wins."""
    owners, moves = _frame(_columns(rows, cols), owners)
    at, mask = dict(zip(owners, zeros)), sum(1 << o for o in owners)
    planes = [0] * len(zeros).bit_length()
    for row in rows:
        _add(planes, _odd_set(row & mask, at, full))
    for g in moves:
        swaps = _swaps(g, zeros)
        moved = []
        carry = full  # depth(c ^ g) + 1, one plane at a time
        for p in planes:
            for z, k in swaps:
                p = (p & z) << k | (p >> k) & z
            moved.append(p ^ carry)
            carry &= p
        less, same = 0, full ^ carry  # where moved < planes, read from the top
        for k in reversed(range(len(planes))):
            a, b = moved[k], planes[k]
            less |= same & (b ^ (a & b))
            same ^= same & (a ^ b)
        if less:
            for k, a in enumerate(moved):
                planes[k] ^= (planes[k] ^ a) & less
    return planes, at, mask


def classical_dimension(code: ClassicalCode) -> int:
    """Number of encoded bits: t - rank(H)."""
    return code.t - code.rank


def classical_distance(code: ClassicalCode, cap: int = DEFAULT_CAP) -> Distance:
    """Minimum weight of a nonzero codeword; INFINITE for the trivial code."""
    if code.rank == code.t:
        return INFINITE
    _use_search("distance", cap, code.t - code.rank)
    return _min_weight(code.h.kernel_basis())


def classical_soundness(
    code: ClassicalCode, cap: int = DEFAULT_CAP
) -> Optional[Fraction]:
    """The largest rho with |Hx|/s >= rho * d(x, ker H)/t for every word x.

    Both |Hx| and d(x, ker H) depend on x only through its syndrome, and
    d(x, ker H) is the depth of that syndrome, the least weight of a word
    with it, which _depths finds by relaxation over the columns that are
    not units. So the minimum of t*|Hx| / (s*d(x, ker H)) is taken over
    the nonzero syndromes, at the least |Hx| of each depth, walking the
    depths up until every nonzero syndrome is placed. |Hx| counts every check,
    dependent rows included. Words inside the code are excluded (the
    inequality is vacuous there). When ker(H) = {0} every nonzero word
    participates with d(x, ker H) = |x|.

    Returns None (undefined) when there are no checks or the code is the
    full space.
    """
    h = code.h
    t, s = code.t, code.s
    if s == 0 or code.rank == 0:
        return None  # no checks, or every syndrome vanishes
    _use_search("soundness", cap, None, code.rank)
    # Syndromes in the coordinates of the echelon rows, which span the row
    # space of H: the depths do not depend on the basis chosen.
    echelon, pivots, _ = h._rref()
    zeros, full = _zeros(len(pivots)), (1 << (1 << len(pivots))) - 1
    depths, at, mask = _depths(echelon, t, pivots, zeros, full)
    # Row j of H is the sum of the frame's rows i with H[j][owner_i] = 1,
    # so check j fires on the syndromes of odd parity against those bits.
    # The adder sums the checks: planes[k] is bit k of |Hx|, made once
    # the relaxation's moved planes are gone.
    planes = [0] * s.bit_length()
    for row in h.row_ints():
        _add(planes, _odd_set(row & mask, at, full))
    best_w, best_d = 0, 0
    left, d = full ^ 1, 0  # the nonzero syndromes not yet placed
    while left:
        # Every depth from 1 to the largest holds a syndrome: drop one
        # column from a least word and the depth falls by one.
        d += 1
        found = left
        for k, p in enumerate(depths):
            found = found & p if d >> k & 1 else found ^ (found & p)
        left ^= found
        w = _least(found, planes)
        if not best_d or w * best_d < best_w * d:
            best_w, best_d = w, d
    return Fraction(t * best_w, s * best_d)


def locality(obj) -> int:
    """Maximum row or column weight over a code's parity-check matrices.
    A row's weight is its bit_count. The columns are counted all at once:
    ``_add`` sums the rows into count planes (bit c of planes[k] is bit k
    of column c's count), and the largest count is the top count of the P
    planes, 2^P - 1, less ``_least`` of the complemented planes. A matrix
    with no rows or no columns adds 0."""
    if isinstance(obj, CssCode):
        mats = [obj.h_x, obj.h_z]
    elif isinstance(obj, ClassicalCode):
        mats = [obj.h]
    else:
        raise TypeError(f"no parity checks on {type(obj).__name__}")
    most = 0
    for m in mats:
        if not (m.rows and m.cols):
            continue
        planes = [0] * m.rows.bit_length()
        for v in m.row_ints():
            _add(planes, v)
        full = (1 << m.cols) - 1
        most = max(most, max(map(int.bit_count, m.row_ints())),
                   (1 << len(planes)) - 1 - _least(full, [full ^ p for p in planes]))
    return most


def quantum_dimension(q: CssCode) -> int:
    """Number of logical qubits: n - rank(H_X) - rank(H_Z)."""
    return q.n - q.h_x.rank() - q.h_z.rank()


def _logical_min_weight(
    stab_checks: BitMatrix, other_checks: BitMatrix, what: str, cap: int
) -> Distance:
    """Minimum weight over ker(stab_checks) minus the row space of
    other_checks; INFINITE when the code encodes nothing. The scan is
    chosen from the two ranks before anything is built."""
    n = stab_checks.cols
    rank_stab, rank_other = stab_checks.rank(), other_checks.rank()
    if n - rank_stab - rank_other == 0:
        return INFINITE
    if _use_search(what, cap, n - rank_stab, n - rank_other, n):
        return _logical_search(stab_checks, other_checks)
    return _logical_walk(stab_checks, other_checks)


def _logical_walk(stab_checks: BitMatrix, other_checks: BitMatrix) -> Distance:
    """Kernel scan of ker(stab_checks), which holds the row space of
    other_checks. Its basis here starts with the independent rows of
    other_checks, then takes the kernel vectors that raise the rank; a sum
    lies outside that row space exactly when it takes one of those."""
    rows = row_basis(other_checks).row_ints()
    vals = [*rows, *stab_checks.kernel_basis()]
    both = row_basis(BitMatrix._trusted(len(vals), stab_checks.cols, vals))
    return _min_weight(list(both.row_ints()), len(rows))


def _logical_search(stab_checks: BitMatrix, other_checks: BitMatrix) -> Distance:
    """Syndrome search in the coordinates of the basis of ker(other_checks),
    whose vector for free column f_i is the only one with a one there, so
    every free column is a unit: the rank is n - rank(other_checks). The
    stabilizer rows lie in that kernel, so their coordinates are their bits
    at the free columns. A word is a logical operator exactly when its
    syndrome is nonzero but no stabilizer row fires on it; a row basis of
    the stabilizers fires on the same syndromes as all their rows. The
    distance is INFINITE when the stabilizers span the kernel, 1 when a
    column, the syndrome of a weight-1 word, is logical (nonzero and off
    every stabilizer), both known before any set is made, and otherwise
    the least depth over the logical syndromes."""
    probes = other_checks.kernel_basis()
    free = sorted(set(range(other_checks.cols)) - set(other_checks.pivot_columns()))
    stabs = row_basis(stab_checks).row_ints()
    if len(stabs) == len(free):
        return INFINITE  # the stabilizers fire on every nonzero syndrome
    checked = 0
    for v in stabs:
        checked |= v
    if any(v & ~checked for v in probes):
        return 1  # a column off every stabilizer and with a nonzero syndrome
    zeros, full = _zeros(len(free)), (1 << (1 << len(free))) - 1
    depths, at, mask = _depths(probes, other_checks.cols, free, zeros, full)
    logical = full ^ 1  # the nonzero syndromes, less each odd set below
    for row in stabs:
        logical &= full ^ _odd_set(row & mask, at, full)
    return _least(logical, depths)


def quantum_distance_x(q: CssCode, cap: int = DEFAULT_CAP) -> Distance:
    """Minimum weight over ker(H_Z) outside the row space of H_X."""
    return _logical_min_weight(q.h_z, q.h_x, "X-distance", cap)


def quantum_distance_z(q: CssCode, cap: int = DEFAULT_CAP) -> Distance:
    """Minimum weight over ker(H_X) outside the row space of H_Z."""
    return _logical_min_weight(q.h_x, q.h_z, "Z-distance", cap)


def quantum_distances(q: CssCode, cap: int = DEFAULT_CAP) -> tuple[Distance, Distance]:
    return quantum_distance_x(q, cap), quantum_distance_z(q, cap)


def component_soundness(
    q: CssCode, cap: int = DEFAULT_CAP
) -> tuple[Optional[Fraction], Optional[Fraction]]:
    """Soundness of the two classical component codes (H_X code, H_Z code)."""
    return (classical_soundness(ClassicalCode(q.h_x), cap),
            classical_soundness(ClassicalCode(q.h_z), cap))


def quantum_soundness(q: CssCode, cap: int = DEFAULT_CAP) -> Optional[Fraction]:
    """Component soundness of the CSS code: the minimum over the two
    classical component codes, undefined when either side is undefined.

    The testability constant of the CSS code itself agrees with this value
    up to a factor of two in either direction; the component minimum is
    what gets reported.
    """
    return _component_min(*component_soundness(q, cap))


def _component_min(rho_x: Optional[Fraction], rho_z: Optional[Fraction]) -> Optional[Fraction]:
    """The smaller component soundness; undefined when either side is."""
    return None if rho_x is None or rho_z is None else min(rho_x, rho_z)


def fraction_obj(f: Optional[Fraction]):
    return "undefined" if f is None else {"num": f.numerator, "den": f.denominator}


def distance_obj(d):
    if d is None:
        return "cap-exceeded"
    if d == INFINITE:
        return "inf"
    return int(d)


@dataclass(frozen=True)
class CodeReport:
    """Exact analysis record for a classical or quantum code.

    ``obj`` is the record's JSON object, its keys in output order, and
    ``to_text`` renders the same object as text. Fields skipped because
    their enumeration exceeded the cap are listed in ``incomplete`` and
    read "cap-exceeded"; an undefined soundness reads "undefined", and
    ``undefined_sides`` names the component codes whose soundness is
    undefined, "X" for the H_X code and "Z" for the H_Z code.
    """

    obj: dict
    incomplete: tuple[str, ...] = ()
    undefined_sides: tuple[str, ...] = ()

    def to_obj(self) -> dict:
        """A new copy of the record's object, nested objects included, so
        that changing it leaves the report as it was."""
        return {k: dict(v) if isinstance(v, dict) else v for k, v in self.obj.items()}

    def to_text(self) -> str:
        lines = []
        for key, val in self.obj.items():
            if isinstance(val, dict):
                val = val["num"] if val["den"] == 1 else f"{val['num']}/{val['den']}"
            if key == "soundness" and self.obj["kind"] == "quantum":
                key = "soundness (component)"
                if val == "undefined":
                    codes = "/".join(f"H_{side}" for side in self.undefined_sides)
                    val = f"undefined ({codes} code)"
            lines.append(f"{key:<22} {val}")
        return "\n".join(lines)


def _unless_capped(incomplete: list[str], name: str, measure, *args):
    """measure(*args), or None with name noted as incomplete when capped."""
    try:
        return measure(*args)
    except CapExceeded:
        incomplete.append(name)
        return None


def _soundness_obj(incomplete: list[str], rho: Optional[Fraction]):
    return "cap-exceeded" if "soundness" in incomplete else fraction_obj(rho)


def analyze_classical(
    code: ClassicalCode, cap: int = DEFAULT_CAP, provenance: str = ""
) -> CodeReport:
    incomplete = []
    d = _unless_capped(incomplete, "d", classical_distance, code, cap)
    rho = _unless_capped(incomplete, "soundness", classical_soundness, code, cap)
    return CodeReport({
        "kind": "classical",
        "n": code.t,
        "K": classical_dimension(code),
        "d": distance_obj(d),
        "locality": locality(code),
        "soundness": _soundness_obj(incomplete, rho),
        "s": code.s,
        "provenance": provenance,
    }, tuple(incomplete))


def analyze_quantum(
    q: CssCode, cap: int = DEFAULT_CAP, provenance: str = ""
) -> CodeReport:
    incomplete = []
    d_x = _unless_capped(incomplete, "dX", quantum_distance_x, q, cap)
    d_z = _unless_capped(incomplete, "dZ", quantum_distance_z, q, cap)
    sides = _unless_capped(incomplete, "soundness", component_soundness, q, cap)
    rho, undefined = None, ()
    if sides is not None:
        rho = _component_min(*sides)
        undefined = tuple(name for name, side in zip("XZ", sides) if side is None)
    return CodeReport({
        "kind": "quantum",
        "n": q.n,
        "K": quantum_dimension(q),
        "dX": distance_obj(d_x),
        "dZ": distance_obj(d_z),
        "locality": locality(q),
        "soundness": _soundness_obj(incomplete, rho),
        "nX": q.n_x,
        "nZ": q.n_z,
        "provenance": provenance,
    }, tuple(incomplete), undefined)
