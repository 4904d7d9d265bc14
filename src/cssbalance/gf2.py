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

The pcm codec works in chunks of about 64 KiB of whole rows
(``_CHUNK_BYTES``). Its readers take a seekable binary stream, an open
file or a BytesIO that shares the buffer of text in memory, and read
and check one chunk at a time; its chunk writer lays out one block of
rows at a time with ``write_pcm`` for savers to write as it comes. So
loading or saving a large matrix never holds its whole text; only
``write_pcm``, which returns the whole text, does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from io import BytesIO
from typing import BinaryIO, Iterable, Iterator, Optional, Sequence, Union


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
        stream = BytesIO(b"".join(ln.encode("ascii", "replace") + b"\n" for ln in lines))
        vals = _read_rows(stream, len(lines), cols, b"\n")
        if vals is None or stream.read(1):
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
# format() call, whose cost follows the width instead. Text is read and
# written in chunks of whole rows of about _CHUNK_BYTES, so a large
# matrix's text is never held whole.
_DENSE_SPAN = 128
_CHUNK_BYTES = 1 << 16


def _read_to(stream: BinaryIO, token: bytes) -> Optional[bytes]:
    """The bytes from a seekable stream's position up to the first token,
    read in chunks of _CHUNK_BYTES, with the stream left just past the
    token; None when the stream ends first."""
    start = stream.tell()
    got = stream.read(_CHUNK_BYTES)
    at = got.find(token)
    if at < 0:
        got = bytearray(got)  # grown in place: a long search stays linear
        while at < 0:
            piece = stream.read(_CHUNK_BYTES)
            if not piece:
                return None
            seen = max(0, len(got) - len(token) + 1)
            got += piece
            at = got.find(token, seen)
    stream.seek(start + at + len(token))
    return bytes(got[:at])


def _read_rows(stream: BinaryIO, rows: int, cols: int, nl: bytes) -> Optional[list[int]]:
    """The packed rows of the next rows lines of a seekable stream, each
    cols characters 0/1 ended by nl (the last one optional when cols > 0),
    with the stream left past them; None otherwise. The rows are read and
    checked in chunks of about _CHUNK_BYTES, never held whole."""
    width = cols + len(nl)
    size = rows * width - (len(nl) if rows and cols else 0)  # the optional nl is read last
    here = stream.tell()
    if stream.seek(0, 2) - here < size:  # rows the text cannot hold allocate nothing
        return None
    stream.seek(here)
    limit = cols // _DENSE_SPAN  # a row with more ones is dense
    step = max(1, _CHUNK_BYTES // width) * width
    # Made whole up front: a list grown row by row between the chunks
    # scatters the heap.
    vals = [0] * rows
    for first in range(0, size, step):
        want = min(step, size - first)
        raw = stream.read(want)
        if len(raw) != want:  # the file shrank while it was read
            return None
        newlines = nl * (len(raw) // width)  # the last row's nl is read below
        # Only 0/1 and the newlines, each of whose bytes sits in its place.
        if raw.translate(None, b"01") != newlines or any(
                raw[cols + k::width] != newlines[k::len(nl)] for k in range(len(nl))):
            return None
        for r, start in enumerate(range(0, len(raw), width), first // width):
            stop = start + cols
            v, left = 0, limit
            i = raw.find(b"1", start, stop)
            while i >= 0:
                if not left:
                    v = int(raw[start:stop][::-1], 2)
                    break
                v |= 1 << i - start
                left -= 1
                i = raw.find(b"1", i + 1, stop)
            vals[r] = v
    if rows and cols:
        end = stream.read(len(nl))
        if end != nl:
            stream.seek(-len(end), 1)
    return vals


def _read_pcm(stream: BinaryIO) -> Optional[BitMatrix]:
    """The matrix of a seekable stream in write_pcm's layout: a header
    line of ASCII with no CR, then the rows up to the stream's end, read
    in chunks; None for anything else."""
    head = _read_to(stream, b"\n")
    if head is None or not head.isascii() or b"\r" in head:
        return None
    try:
        rows, cols = _dims(head.decode())
    except ValueError:
        return None
    vals = _read_rows(stream, rows, cols, b"\n")
    if vals is None or stream.read(1):
        return None
    return BitMatrix._trusted(rows, cols, vals)


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
    with newline, "\n" or "\\n" (ValueError for any other). The text is
    bytes when newline is bytes, otherwise a str. With newline "\\n" the
    text is already the body of a JSON string, so a complex file escapes
    no second copy of it. The header and the zero rows are laid out in one
    buffer by one multiplication, each 1 is set in place, and the buffer
    hands over its bytes without a copy once no view of it is open."""
    if newline not in ("\n", "\\n", b"\n", b"\\n"):
        raise ValueError(f"newline must be '\\n' or '\\\\n', not {newline!r}")
    rows, cols = a.rows, a.cols
    nl = newline.encode() if isinstance(newline, str) else newline
    head, blank = b"%d %d" % (rows, cols) + nl, b"0" * cols + nl
    width, limit, spec = len(blank), cols // _DENSE_SPAN, f"0{cols}b"
    out, start = BytesIO(head + blank * rows), len(head)
    with out.getbuffer() as buf:
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


def _pcm_chunks(a: BitMatrix, nl: bytes) -> Iterator[Union[bytes, memoryview]]:
    """The bytes of write_pcm(a, nl) in pieces, so that a writer holds one:
    the header line, then write_pcm of each block of whole rows of about
    _CHUNK_BYTES, viewed past the block's own header line."""
    yield b"%d %d" % (a.rows, a.cols) + nl
    step = max(1, _CHUNK_BYTES // (a.cols + len(nl)))
    for first in range(0, a.rows, step):
        part = a.row_ints()[first:first + step]
        text = write_pcm(BitMatrix._trusted(len(part), a.cols, part), nl)
        yield memoryview(text)[text.index(nl) + len(nl):]


def parse_pcm(text: Union[str, bytes]) -> BitMatrix:
    """Parse the text format written by write_pcm, a str or its bytes.
    Lines starting with '#' are comments; the trailing newline is
    optional. Row lines of a zero-column matrix are legitimately empty, so
    blank lines are rows. A str is encoded once, whole, into a bytes copy,
    each non-ASCII character as a '?' that the reader refuses. Text in
    write_pcm's layout is read in place by _read_pcm, through a BytesIO
    that shares its buffer; any other text is decoded (as UTF-8) if it is
    bytes, split into lines, its comments dropped, and read again or
    refused at its first fault."""
    data = text.encode("ascii", "replace") if isinstance(text, str) else text
    matrix = _read_pcm(BytesIO(data))
    if matrix is not None:
        return matrix
    if not isinstance(text, str):
        text = text.decode()
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
