"""Bit-packed linear algebra over GF(2).

Matrices store one Python int per row (bit c of row r is ``(row >> c) & 1``),
so XOR is vector addition and ``int.bit_count`` is the Hamming weight. A
vector is a packed int the same way, and the module has no other vector
type. All values are immutable after construction and safe to share across
threads. Every elimination (rank, pivots, kernel, row bases) reads one
routine, ``BitMatrix._rref``, which gives the reduced echelon form and the
rows that raised the rank; a matrix keeps that result once computed. It
inserts the rows in order into an echelon form, then back-substitutes once
from the highest pivot down, and ``kernel_basis`` reads the set bits of the
echelon rows once, so on a large sparse matrix the work follows the fill,
not the square of the rank. The cache is idempotent: two threads racing on
a first call only repeat the same work and store equal results.
Empty matrices (0 rows or 0 columns) are legal everywhere and act as the
empty map.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


class BitMatrix:
    """A rows x cols matrix over GF(2) with bit-packed rows."""

    # _echelon caches the result of _rref; it takes no part in equality.
    __slots__ = ("rows", "cols", "_r", "_echelon")

    def __init__(self, rows: int, cols: int, row_values: Iterable[int] = ()):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be >= 0")
        vals = tuple(row_values)
        if len(vals) != rows:
            raise ValueError(f"expected {rows} row values, got {len(vals)}")
        for v in vals:
            if v < 0 or v >> cols:
                raise ValueError(f"row value does not fit in {cols} bits")
        self._set(rows, cols, vals)

    @classmethod
    def _trusted(cls, rows: int, cols: int, vals: Sequence[int]) -> "BitMatrix":
        """The matrix of these row values, which fit in cols bits by
        construction; the builders in this module skip the public check."""
        m = object.__new__(cls)
        m._set(rows, cols, tuple(vals))
        return m

    def _set(self, rows: int, cols: int, vals: tuple[int, ...]) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_r", vals)
        object.__setattr__(self, "_echelon", None)

    def __setattr__(self, name, val):
        raise AttributeError("BitMatrix is immutable")

    @classmethod
    def from_rows(cls, bit_rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "BitMatrix":
        bit_rows = [list(r) for r in bit_rows]
        if cols is None:
            cols = len(bit_rows[0]) if bit_rows else 0
        for r in bit_rows:
            if len(r) != cols:
                raise ValueError("ragged rows")
            if any(b not in (0, 1) for b in r):
                raise ValueError("bits must be 0 or 1")
        return cls(len(bit_rows), cols, [sum(b << c for c, b in enumerate(r)) for r in bit_rows])

    @classmethod
    def from_strings(cls, lines: Sequence[str], cols: Optional[int] = None) -> "BitMatrix":
        lines = list(lines)
        if cols is None:
            cols = len(lines[0]) if lines else 0
        return cls(len(lines), cols, [_parse_row(ln, cols) for ln in lines])

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        if n < 0:
            raise ValueError("matrix dimensions must be >= 0")
        return cls._trusted(n, n, [1 << i for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, [0] * rows)

    def row(self, r: int) -> int:
        """Row r as a packed int."""
        return self._r[r]

    def row_ints(self) -> tuple[int, ...]:
        return self._r

    def bit(self, r: int, c: int) -> int:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError("matrix index out of range")
        return (self._r[r] >> c) & 1

    def to_bits(self) -> list[list[int]]:
        return [[(v >> c) & 1 for c in range(self.cols)] for v in self._r]

    def is_zero(self) -> bool:
        return not any(self._r)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._r == other._r
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._r))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"

    def __add__(self, other: "BitMatrix") -> "BitMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch in matrix addition")
        return BitMatrix._trusted(
            self.rows, self.cols, [a ^ b for a, b in zip(self._r, other._r)]
        )

    def transpose(self) -> "BitMatrix":
        cols = [0] * self.cols
        for r, v in enumerate(self._r):
            while v:
                low = v & -v
                cols[low.bit_length() - 1] |= 1 << r
                v ^= low
        return BitMatrix._trusted(self.cols, self.rows, cols)

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        orows = other._r
        vals = []
        for v in self._r:
            acc = 0
            while v:
                low = v & -v
                acc ^= orows[low.bit_length() - 1]
                v ^= low
            vals.append(acc)
        return BitMatrix._trusted(self.rows, other.cols, vals)

    def kron(self, other: "BitMatrix") -> "BitMatrix":
        """Kronecker product, left factor major: row (i,j) -> i*other.rows + j,
        column (p,q) -> p*other.cols + q."""
        bc = other.cols
        vals = []
        for a in self._r:
            for b in other._r:
                row = 0
                v = a
                while v:
                    low = v & -v
                    row |= b << ((low.bit_length() - 1) * bc)
                    v ^= low
                vals.append(row)
        return BitMatrix._trusted(self.rows * other.rows, self.cols * other.cols, vals)

    def row_weights(self) -> list[int]:
        return [v.bit_count() for v in self._r]

    def col_weights(self) -> list[int]:
        w = [0] * self.cols
        for v in self._r:
            while v:
                low = v & -v
                w[low.bit_length() - 1] += 1
                v ^= low
        return w

    def rank(self) -> int:
        return len(self._rref()[1])

    def _rref(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """Reduced row echelon form: (the nonzero rows, their pivot columns,
        the ascending indices of the rows that raised the rank), computed on
        first use and kept. Two passes, so the work follows the fill, not
        rank^2. Insertion reduces each row by the pivot rows kept so far,
        lowest pivot column first, until it has no bit in a pivot column; a
        nonzero remainder becomes a pivot row at its lowest set bit.
        Back-substitution then runs from the highest pivot down and clears
        the higher pivot columns from each row with their rows, which are
        already final."""
        if self._echelon is not None:
            return self._echelon
        at = [0] * self.cols  # at[c]: the pivot row whose pivot column is c
        pivots, kept, mask = [], [], 0
        for r, v in enumerate(self._r):
            while hits := v & mask:
                v ^= at[(hits & -hits).bit_length() - 1]
            if v:
                low = v & -v
                pivots.append(low.bit_length() - 1)
                at[pivots[-1]] = v
                kept.append(r)
                mask |= low
                if len(kept) == self.cols:
                    break
        pivots.sort()
        done = 0  # the pivot columns whose rows are final
        for p in reversed(pivots):
            v = at[p]
            while hits := v & done:
                v ^= at[(hits & -hits).bit_length() - 1]
            at[p] = v
            done |= 1 << p
        echelon = (tuple(at[p] for p in pivots), tuple(pivots), tuple(kept))
        object.__setattr__(self, "_echelon", echelon)
        return echelon

    def pivot_columns(self) -> list[int]:
        """Column indices of the leading ones in reduced row echelon form;
        these columns are independent and span the column space."""
        return list(self._rref()[1])

    def kernel_basis(self) -> list[int]:
        """Basis of ker(A) as packed ints; size cols - rank, ordered by
        ascending free column. Built from the nonzeros of the echelon rows:
        each set bit f of the row with pivot p puts p in the vector of free
        column f, which also has its unit at f."""
        work, pivots, _ = self._rref()
        at = [0] * self.cols  # at[f]: the pivots of the rows with a bit at f
        mask = 0
        for v, p in zip(work, pivots):
            v ^= 1 << p
            while v:
                low = v & -v
                at[low.bit_length() - 1] |= 1 << p
                v ^= low
            mask |= 1 << p
        return [at[f] | 1 << f for f in range(self.cols) if not mask >> f & 1]


def block(grid: Sequence[Sequence[BitMatrix]]) -> BitMatrix:
    """Assemble a matrix from a grid of BitMatrix blocks, zero blocks
    included. A grid row's height is that of its first block and a grid
    column's width that of its block in the first grid row."""
    if not all(isinstance(e, BitMatrix) for row in grid for e in row):
        raise TypeError("every block must be a BitMatrix")
    widths = [e.cols for e in grid[0]] if grid else []
    if grid and not widths:
        raise ValueError("a block grid row needs at least one block")
    vals: list[int] = []
    for i, row in enumerate(grid):
        if len(row) != len(widths):
            raise ValueError("ragged block grid")
        rows_here, shift = [0] * row[0].rows, 0
        for j, e in enumerate(row):
            if e.rows != len(rows_here):
                raise ValueError(f"inconsistent block heights in grid row {i}")
            if e.cols != widths[j]:
                raise ValueError(f"inconsistent block widths in grid column {j}")
            for r, v in enumerate(e.row_ints()):
                rows_here[r] |= v << shift
            shift += e.cols
        vals.extend(rows_here)
    return BitMatrix._trusted(len(vals), sum(widths), vals)


def row_basis(a: BitMatrix) -> BitMatrix:
    """Rows of a that greedily (in ascending order) form a row-space basis."""
    kept = a._rref()[2]
    return BitMatrix._trusted(len(kept), a.cols, [a.row(r) for r in kept])


def _format_row(v: int, cols: int) -> str:
    """Row v as cols characters 0/1, column 0 first."""
    return format(v, f"0{cols}b")[::-1] if cols else ""


def _parse_row(line: str, cols: int) -> int:
    """The row written by _format_row as line; ValueError on anything else.
    Each character is counted at most once, so the counts add up to cols
    exactly when every character is 0 or 1. int() reads every character,
    so a row with at most one 1 in 64 sets the bits of its ones instead."""
    ones = line.count("1")
    if len(line) != cols or line.count("0") + ones != cols:
        raise ValueError(f"bad matrix row: {line!r}")
    if ones * 64 > cols:
        return int(line[::-1], 2)
    v = 0
    i = -1
    for _ in range(ones):
        i = line.index("1", i + 1)
        v |= 1 << i
    return v


def write_pcm(a: BitMatrix) -> str:
    """Canonical text serialization: header line 'rows cols', then one 0/1
    line per row."""
    lines = [f"{a.rows} {a.cols}"] + [_format_row(v, a.cols) for v in a.row_ints()]
    return "\n".join(lines) + "\n"


def parse_pcm(text: str) -> BitMatrix:
    """Parse the text format written by write_pcm. Lines starting with '#'
    are comments; the trailing newline is optional. Row lines of a
    zero-column matrix are legitimately empty, so blank lines are rows."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    lines = [ln for ln in lines if not ln.startswith("#")]
    if not lines:
        raise ValueError("empty matrix file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad header line: {lines[0]!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"bad header line: {lines[0]!r}") from None
    if rows < 0 or cols < 0:
        raise ValueError("negative dimensions")
    body = lines[1:]
    if len(body) != rows:
        raise ValueError(f"expected {rows} rows, found {len(body)}")
    return BitMatrix._trusted(rows, cols, [_parse_row(ln, cols) for ln in body])
