"""Independent reference implementations used to check the fast oracles.

Everything here is written in the most literal way possible: bit-by-bit
matrix-vector products, full sweeps over all 2^t words, ranks, row-space
membership and greedy bases decided by explicit span sets, and a
column-by-column Gauss-Jordan elimination for matrices too wide for span
sets. Nothing is shared with the package's elimination or enumeration
code paths, nor with the matrix type's conversions: entries are unpacked
and packed here by ``_bits`` and ``_from_bits``. The complex file's reference text is json.dumps of the whole
object, the reference CSS sampler tests each draw's independence by
rebuilding the span set of all the rows accepted so far, and the reference
row reader looks at one character at a time.
"""

import json
import random
from fractions import Fraction
from functools import lru_cache

from cssbalance import BitMatrix, CssCode, write_pcm
from cssbalance.constructions import MAX_RESAMPLES

INF = float("inf")


def _bits(a: BitMatrix) -> list[list[int]]:
    """The entries of a, row by row: entry (r, c) is bit c of row r."""
    return [[(v >> c) & 1 for c in range(a.cols)] for v in a.row_ints()]


def _from_bits(entries: list[list[int]], cols: int) -> BitMatrix:
    """The matrix with these rows of cols entries, entry c at bit c."""
    return BitMatrix(len(entries), cols, [sum(b << c for c, b in enumerate(r)) for r in entries])


@lru_cache(maxsize=256)
def _matrix_bits(a: BitMatrix) -> tuple[tuple[int, ...], ...]:
    """The entries of a, unpacked once per distinct matrix."""
    return tuple(map(tuple, _bits(a)))


def naive_mul(a: BitMatrix, v: int) -> list[int]:
    """The bits of A*v, where bit c of the packed int v is coordinate c."""
    bits = _matrix_bits(a)
    x = [(v >> c) & 1 for c in range(a.cols)]
    out = []
    for r in range(a.rows):
        acc = 0
        for c in range(a.cols):
            acc ^= bits[r][c] & x[c]
        out.append(acc)
    return out


def all_vectors(n: int) -> range:
    """Every word of length n, as packed ints."""
    return range(1 << n)


def naive_kernel(h: BitMatrix) -> list[int]:
    return [v for v in all_vectors(h.cols) if not any(naive_mul(h, v))]


def naive_span(h: BitMatrix) -> set[int]:
    """Every sum of rows of h, as packed ints."""
    span = {0}
    for v in h.row_ints():
        span |= {s ^ v for s in span}
    return span


def naive_rank(h: BitMatrix) -> int:
    return len(naive_span(h)).bit_length() - 1


def naive_transpose(h: BitMatrix) -> BitMatrix:
    bits = _bits(h)
    return _from_bits([[bits[r][c] for r in range(h.rows)] for c in range(h.cols)], h.rows)


def naive_kron(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """The Kronecker product entry by entry: entry (i*b.rows + j,
    p*b.cols + q) is a[i][p] * b[j][q]."""
    x, y = _bits(a), _bits(b)
    return _from_bits(
        [[x[i][p] * y[j][q] for p in range(a.cols) for q in range(b.cols)]
         for i in range(a.rows) for j in range(b.rows)],
        a.cols * b.cols,
    )


def naive_col_weights(h: BitMatrix) -> list[int]:
    """Each column's count of ones, one entry at a time."""
    bits = _bits(h)
    return [sum(bits[r][c] for r in range(h.rows)) for c in range(h.cols)]


def naive_greedy_rows(h: BitMatrix) -> list[int]:
    """Indices of the rows an ascending scan keeps when it keeps a row
    exactly if it lies outside the span of the rows kept before it."""
    kept, span = [], {0}
    for r, v in enumerate(h.row_ints()):
        if v not in span:
            kept.append(r)
            span |= {s ^ v for s in span}
    return kept


def naive_rref(h: BitMatrix) -> tuple[list[int], list[int]]:
    """Textbook Gauss-Jordan elimination, one column at a time: find a row at
    or below the current one with a 1 in the column, swap it up, and clear
    the column from every other row. Returns the nonzero rows of the
    reduced echelon form and their pivot columns. A column gets a pivot
    exactly when it lies outside the span of the columns before it."""
    rows = list(h.row_ints())
    pivots = []
    for c in range(h.cols):
        top = len(pivots)
        below = [r for r in range(top, len(rows)) if rows[r] >> c & 1]
        if not below:
            continue
        rows[top], rows[below[0]] = rows[below[0]], rows[top]
        for r in range(len(rows)):
            if r != top and rows[r] >> c & 1:
                rows[r] ^= rows[top]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def naive_parse_row(line: str, cols: int) -> int:
    """The packed row of a pcm row line: bit c is set exactly when
    character c is '1'. ValueError on a line of another length or with a
    character other than '0' and '1'."""
    if len(line) != cols:
        raise ValueError(f"row of {len(line)} characters, expected {cols}")
    v = 0
    for c, ch in enumerate(line):
        if ch == "1":
            v |= 1 << c
        elif ch != "0":
            raise ValueError(f"character {ch!r} in a row")
    return v


def naive_distance(h: BitMatrix):
    weights = [v.bit_count() for v in naive_kernel(h) if v]
    return min(weights) if weights else INF


def naive_min_weight(vals: list[int], low: int):
    """Minimum weight over the sums of the subsets of vals that take a
    member at index >= low, one subset at a time; INF when there is none."""
    best = INF
    for c in range(1 << len(vals)):
        if c >> low == 0:
            continue
        total = 0
        for i, v in enumerate(vals):
            if c >> i & 1:
                total ^= v
        best = min(best, total.bit_count())
    return best


def naive_soundness(h: BitMatrix):
    """min over words outside the code of t|Hx| / (s d(x, ker)); None when
    there are no checks or the code is the whole space."""
    t, s = h.cols, h.rows
    if s == 0 or t == 0:
        return None
    kernel = naive_kernel(h)
    if len(kernel) == 1 << t:
        return None
    best = None
    for x in all_vectors(t):
        syndrome = sum(naive_mul(h, x))
        if syndrome == 0:
            continue
        distance = min((x ^ c).bit_count() for c in kernel)
        ratio = Fraction(t * syndrome, s * distance)
        if best is None or ratio < best:
            best = ratio
    return best


def naive_depths(basis: list[int], cols: int) -> list[int]:
    """depths[c]: the least weight of a word of cols bits whose syndrome
    against the rows basis is c, where bit i of the syndrome is the parity
    of row i on the word; -1 for a syndrome no word has. Every word is
    swept, its syndrome the sum of the columns at its ones, read off the
    word without its lowest one."""
    column = [sum((row >> b & 1) << i for i, row in enumerate(basis)) for b in range(cols)]
    depths = [-1] * (1 << len(basis))
    syndrome = [0] * (1 << cols)
    for x in range(1 << cols):
        if x:
            low = x & -x
            syndrome[x] = syndrome[x ^ low] ^ column[low.bit_length() - 1]
        c = syndrome[x]
        if depths[c] < 0 or x.bit_count() < depths[c]:
            depths[c] = x.bit_count()
    return depths


def in_row_space(m: BitMatrix, v: int) -> bool:
    """Membership in the explicit set of all row sums."""
    return v in naive_span(m)


def naive_quantum_distances(h_x: BitMatrix, h_z: BitMatrix):
    n = h_x.cols
    d_x = d_z = INF
    for v in all_vectors(n):
        if v == 0:
            continue
        w = v.bit_count()
        if not any(naive_mul(h_z, v)) and not in_row_space(h_x, v):
            d_x = min(d_x, w)
        if not any(naive_mul(h_x, v)) and not in_row_space(h_z, v):
            d_z = min(d_z, w)
    return d_x, d_z


def naive_complex_json(c, block_layout=None) -> str:
    """The complex file's text without its final newline: the whole object
    built in memory, then json.dumps with one space per level."""
    obj = {
        "spaces": list(c.spaces),
        "diffs": [write_pcm(d) for d in c.diffs],
        "labels": list(c.labels),
    }
    if block_layout is not None:
        obj["block_layout"] = block_layout
    return json.dumps(obj, indent=1)


def naive_random_css(n: int, n_x: int, n_z: int, seed: int) -> CssCode:
    """random_css with each draw kept when the rank of all the rows kept so
    far plus the draw exceeds the number kept. The rank is read off span
    sets; the kernel basis of H_Z is the package's, because its order fixes
    which word an X-check draw stands for."""
    rng = random.Random(seed)

    def sample_independent(dim, count, combine):
        rows = []
        for _ in range(MAX_RESAMPLES):
            if len(rows) == count:
                return rows
            v = combine(rng.getrandbits(dim))
            if naive_rank(BitMatrix(len(rows) + 1, n, rows + [v])) > len(rows):
                rows.append(v)
        return rows if len(rows) == count else None

    hz_rows = sample_independent(n, n_z, lambda v: v)
    if hz_rows is None:
        raise RuntimeError("could not sample independent Z-checks")
    h_z = BitMatrix(n_z, n, hz_rows)
    kernel = h_z.kernel_basis()

    def from_kernel(mask):
        v = 0
        for i, b in enumerate(kernel):
            if mask >> i & 1:
                v ^= b
        return v

    hx_rows = sample_independent(len(kernel), n_x, from_kernel)
    if hx_rows is None:
        raise RuntimeError("could not sample independent X-checks")
    return CssCode.from_check_matrices(BitMatrix(n_x, n, hx_rows), h_z)
