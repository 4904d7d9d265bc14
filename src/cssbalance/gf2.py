"""Bit-packed linear algebra over GF(2).

Matrices store one Python int per row (bit c of row r is ``(row >> c) & 1``),
so XOR is vector addition and ``int.bit_count`` is the Hamming weight. A
vector is a packed int the same way, and the module has no other vector
type. Entries go in and out only as packed rows (``row_ints``) or 0/1
text (``from_strings``, ``parse_pcm``, ``write_pcm``), never one by one.
A matrix is a frozen dataclass, immutable after construction and safe to
share across threads; ``balance``, ``boundcheck`` and ``sweep`` refuse a
balanced check matrix over the generators' size limit
(``constructions.MAX_MATRIX_ENTRIES`` entries) before building it, as
``gen`` does. Every elimination (rank, pivots, kernel, row bases) reads one
routine in two stages, and a matrix keeps what it has computed.
``BitMatrix._forward`` inserts the rows in order into an echelon form; its
pivots and the rows that raised the rank are all that ``rank``,
``pivot_columns`` and ``row_basis`` read. ``BitMatrix._rref``
back-substitutes once from the highest pivot down, resuming from that
form, and runs only for the readers of the reduced rows: ``kernel_basis``
and the oracles' soundness search. ``kernel_basis`` reads the set bits of
the reduced rows once, so on a large sparse matrix the work follows the
fill, not the square of the rank, and keeps the basis with them. The
cache is idempotent: two threads racing on a first call only repeat the
same work and store equal results.
Empty matrices (0 rows or 0 columns) are legal everywhere and act as the
empty map.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from io import BytesIO
from typing import Iterable, Optional, Sequence, Union


# memoryview formats of unsigned fields of 1, 2, 4 and 8 bytes.
_FIELD_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


@dataclass(frozen=True, slots=True, init=False, repr=False)
class BitMatrix:
    """A rows x cols matrix over GF(2) with bit-packed rows."""

    rows: int
    cols: int
    _r: tuple[int, ...]
    # The elimination cache: None, then _forward's result (its first member
    # a list), then _rref's (a tuple), to which kernel_basis appends the
    # kernel basis as a fourth member. It takes no part in equality.
    _echelon: object = field(default=None, compare=False, hash=False)

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

    @classmethod
    def from_strings(cls, lines: Sequence[str], cols: Optional[int] = None) -> "BitMatrix":
        """The matrix whose rows are these lines of 0/1 characters, column 0
        first; ValueError naming the first line that is anything else."""
        lines = list(lines)
        if cols is None:
            cols = len(lines[0]) if lines else 0
        vals = _read_rows("".join(ln + "\n" for ln in lines), 0, len(lines), cols, "\n")
        if vals is None:
            for ln in lines:
                if len(ln) != cols or ln.count("0") + ln.count("1") != cols:
                    raise ValueError(f"bad matrix row: {ln!r}")
        return cls._trusted(len(lines), cols, vals)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        if n < 0:
            raise ValueError("matrix dimensions must be >= 0")
        return cls._trusted(n, n, [1 << i for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, [0] * rows)

    def row_ints(self) -> tuple[int, ...]:
        return self._r

    def is_zero(self) -> bool:
        return not any(self._r)

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"

    def transpose(self) -> "BitMatrix":
        return BitMatrix._trusted(self.cols, self.rows, _columns(self._r, self.cols))

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
        column (p,q) -> p*other.cols + q. Row (a, b) is spread(a) * b, where
        spread(a) puts bit p of a at bit p*other.cols; b < 2^other.cols, so
        the product carries nothing."""
        bc = other.cols
        spreads = []
        for a in self._r:
            spread = 0
            while a:
                low = a & -a
                spread |= 1 << (low.bit_length() - 1) * bc
                a ^= low
            spreads.append(spread)
        return BitMatrix._trusted(self.rows * other.rows, self.cols * other.cols,
                                  [s * b for s in spreads for b in other._r])

    def row_weights(self) -> list[int]:
        return [v.bit_count() for v in self._r]

    def col_weights(self) -> list[int]:
        """Each column's count of ones. The rows are added into carry-save
        planes (bit c of planes[k] is bit k of column c's count), and each
        plane is spread to one field of `size` bytes per column, so the
        fields of the planes' sum are the counts. The planes cost about as
        much as peeling four ones per row plus 64, so a sparser matrix
        peels its ones instead."""
        if sum(map(int.bit_count, self._r)) <= 4 * self.rows + 64:
            w = [0] * self.cols
            for v in self._r:
                while v:
                    low = v & -v
                    w[low.bit_length() - 1] += 1
                    v ^= low
            return w
        planes: list[int] = []
        for v in self._r:
            for k, p in enumerate(planes):
                if not v:
                    break
                planes[k], v = p ^ v, p & v
            if v:
                planes.append(v)
        size = 1  # each count is below 2**len(planes)
        while 8 * size < len(planes):
            size *= 2
        gap, total = "0" * (8 * size - 1), 0
        for k, p in enumerate(planes):
            total |= int(gap.join(format(p, "b")), 2) << k
        fields = memoryview(total.to_bytes(self.cols * size, sys.byteorder))
        return fields.cast(_FIELD_FORMATS[size]).tolist()

    def rank(self) -> int:
        return len(self._forward()[2])

    def _forward(self) -> tuple[Sequence[int], tuple[int, ...], tuple[int, ...]]:
        """The elimination's forward stage: (a table of the pivot rows, their
        pivot columns ascending, the ascending indices of the rows that
        raised the rank), computed on first use and kept. Insertion reduces
        each row by the pivot rows kept so far, lowest pivot column first,
        until it has no bit in a pivot column; a nonzero remainder becomes
        the pivot row at its lowest set bit c, table[c]. The pivots and the
        kept rows are final here: only _rref reads the table. Once _rref
        has run, this returns its result, whose pivots and kept rows are
        the same (and kernel_basis's, which appends the kernel)."""
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
        forward = (at, tuple(pivots), tuple(kept))
        object.__setattr__(self, "_echelon", forward)
        return forward

    def _rref(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """Reduced row echelon form: (the nonzero rows, their pivot columns,
        the ascending indices of the rows that raised the rank), computed on
        first use and kept. Back-substitution resumes from the forward
        stage's table, at most once per matrix: it runs from the highest
        pivot down and clears the higher pivot columns from each row with
        their rows, which are already final. So the work follows the fill,
        not rank^2, and no row is inserted twice. It rewrites the table in
        place: two threads racing here write the same final rows."""
        echelon = self._echelon or self._forward()
        at, pivots, kept = echelon[:3]
        if type(at) is tuple:  # reduced already
            return echelon[:3]
        done = 0  # the pivot columns whose rows are final
        for p in reversed(pivots):
            v = at[p]
            while hits := v & done:
                v ^= at[(hits & -hits).bit_length() - 1]
            at[p] = v
            done |= 1 << p
        echelon = (tuple(at[p] for p in pivots), pivots, kept)
        object.__setattr__(self, "_echelon", echelon)
        return echelon

    def pivot_columns(self) -> list[int]:
        """Column indices of the leading ones in reduced row echelon form;
        these columns are independent and span the column space."""
        return list(self._forward()[1])

    def kernel_basis(self) -> list[int]:
        """Basis of ker(A) as packed ints; size cols - rank, ordered by
        ascending free column. Built from the nonzeros of the echelon rows:
        each set bit f of the row with pivot p puts p in the vector of free
        column f, which also has its unit at f. Built once per matrix and
        kept with the reduced rows; each call returns a new list."""
        echelon = self._echelon
        if echelon is not None and len(echelon) == 4:
            return list(echelon[3])
        work, pivots, kept = self._rref()
        at = [0] * self.cols  # at[f]: the pivots of the rows with a bit at f
        mask = 0
        for v, p in zip(work, pivots):
            v ^= 1 << p
            while v:
                low = v & -v
                at[low.bit_length() - 1] |= 1 << p
                v ^= low
            mask |= 1 << p
        basis = [at[f] | 1 << f for f in range(self.cols) if not mask >> f & 1]
        object.__setattr__(self, "_echelon", (work, pivots, kept, tuple(basis)))
        return basis


def _columns(row_values: Sequence[int], cols: int) -> list[int]:
    """The columns of the matrix with these rows of cols bits, each as a
    packed int whose bit r is row r's bit: the rows of the transpose."""
    out = [0] * cols
    for r, v in enumerate(row_values):
        while v:
            low = v & -v
            out[low.bit_length() - 1] |= 1 << r
            v ^= low
    return out


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
    kept = a._forward()[2]
    return BitMatrix._trusted(len(kept), a.cols, [a._r[r] for r in kept])


# The pcm codec. A row with at most one 1 per _DENSE_SPAN columns is read
# and written one byte per 1; a denser row goes through one int() or
# format() call, whose cost follows the width instead.
_DENSE_SPAN = 128
_CHUNK_BYTES = 1 << 16


def _read_rows(text: Union[str, bytes, memoryview], at: int, rows: int, cols: int,
               newline: Union[str, bytes]) -> Optional[list[int]]:
    """The packed rows of text[at:] when it is rows lines of cols
    characters 0/1, each ended by newline (the last one optional when
    cols > 0); None otherwise. The text, a str or a bytes-like object, and
    newline are of one type. The text is checked and read in chunks of
    _CHUNK_BYTES, never copied whole."""
    nl = newline.encode() if isinstance(newline, str) else newline
    width, size = cols + len(nl), len(text) - at
    if size != rows * width and not (cols and size == rows * width - len(nl)):
        return None
    limit = cols // _DENSE_SPAN  # a row with more ones is dense
    step = max(1, _CHUNK_BYTES // width) * width
    # Made whole up front: a list grown row by row between the chunks
    # scatters the heap, and rows is now at most size + 1.
    vals = [0] * rows
    for first in range(at, len(text), step):
        chunk = text[first:first + step]
        try:
            raw = chunk.encode("ascii") if isinstance(chunk, str) else bytes(chunk)
        except UnicodeEncodeError:
            return None
        if len(raw) % width:  # the last row has no newline
            raw += nl
        newlines = nl * (len(raw) // width)
        # Only 0/1 and the newlines, each of whose bytes sits in its place.
        if raw.translate(None, b"01") != newlines or any(
                raw[cols + k::width] != newlines[k::len(nl)] for k in range(len(nl))):
            return None
        for r, start in enumerate(range(0, len(raw), width), (first - at) // width):
            end = start + cols
            v, left = 0, limit
            i = raw.find(b"1", start, end)
            while i >= 0:
                if not left:
                    v = int(raw[start:end][::-1], 2)
                    break
                v |= 1 << i - start
                left -= 1
                i = raw.find(b"1", i + 1, end)
            vals[r] = v
    return vals


def _dims(line: str) -> tuple[int, int]:
    """The rows and columns of a header line; ValueError otherwise."""
    header = line.split()
    if len(header) != 2:
        raise ValueError(f"bad header line: {line!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"bad header line: {line!r}") from None
    if rows < 0 or cols < 0:
        raise ValueError("negative dimensions")
    return rows, cols


def write_pcm(a: BitMatrix, newline: Union[str, bytes] = "\n") -> Union[str, bytes]:
    """Canonical text serialization: header line 'rows cols', then one 0/1
    line per row, column 0 first; every line, the header included, ends
    with newline. The text is bytes when newline is bytes, otherwise a
    str. With newline "\\n" (or b"\\n") the text is already the body of
    a JSON string, so a complex file escapes no second copy of it. The
    header and the zero rows are laid out in one buffer, each 1 is set in
    place, and the buffer hands over its bytes without a copy once no view
    of it is open."""
    rows, cols = a.rows, a.cols
    nl = newline.encode() if isinstance(newline, str) else newline
    head, blank = b"%d %d" % (rows, cols) + nl, b"0" * cols + nl
    width, limit, spec = len(blank), cols // _DENSE_SPAN, f"0{cols}b"
    out = BytesIO()
    out.write(head)
    for _ in range(rows):
        out.write(blank)
    with out.getbuffer() as buf:
        start = len(head)
        for v in a.row_ints():
            if v.bit_count() > limit:
                buf[start:start + cols] = format(v, spec)[::-1].encode()
            else:
                while v:
                    low = v & -v
                    buf[start + low.bit_length() - 1] = 49  # ord("1")
                    v ^= low
            start += width
    text = out.getvalue()
    return text if isinstance(newline, bytes) else text.decode()


def parse_pcm(text: Union[str, bytes, memoryview], newline: Union[str, bytes] = "\n") -> BitMatrix:
    """Parse the text format written by write_pcm, from a str or from a
    bytes-like text such as a memoryview slice of a file, whose lines end
    with newline: the matrix is that of the text as str with each newline
    read as a line break. Lines starting with '#' are comments; the trailing
    newline is optional. Row lines of a zero-column matrix are
    legitimately empty, so blank lines are rows. Text in write_pcm's
    layout is read in place; any other text is decoded (as UTF-8) if it is
    bytes, split into lines, its comments dropped, and read again or
    refused at its first fault."""
    if not isinstance(text, str) and isinstance(newline, str):
        newline = newline.encode()
    found = re.search(re.escape(newline), text)  # the end of the header line
    try:
        head = text[:found.start()] if found else text
        head = head if isinstance(head, str) else str(head, "utf-8")
        rows, cols = _dims(head)
    except ValueError:
        pass
    else:
        # With another newline a "\n" in the header would end the first line.
        if "\n" not in head:
            vals = _read_rows(text, found.end() if found else len(text), rows, cols, newline)
            if vals is not None:
                return BitMatrix._trusted(rows, cols, vals)
    if not isinstance(text, str):
        text, newline = str(text, "utf-8"), newline.decode()
    if newline != "\n":
        text = text.replace(newline, "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    lines = [ln for ln in lines if not ln.startswith("#")]
    if not lines:
        raise ValueError("empty matrix file")
    rows, cols = _dims(lines[0])
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} rows, found {len(lines) - 1}")
    return BitMatrix.from_strings(lines[1:], cols)
