"""Chain complexes over GF(2) and their code views.

A complex is stored highest grade first: ``spaces[0]`` is the dimension of
the top space and ``diffs[i]`` maps ``spaces[i]`` down to ``spaces[i+1]``.
Construction is permissive; ``validate`` reports the first shape or
composition violation instead of raising, so invalid complexes can be
inspected.

A complex file is written (``complex_json_pieces``) and read from a
stream (``complex_from_layout``) in the pcm codec's chunks: at a time
it holds one chunk of a diff's text and the small members around the
diffs array, never a whole diff's text. A file in any other layout is read
whole, as text, by ``complex_from_json``.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from typing import BinaryIO, Iterator, Optional, Sequence, Union

from .gf2 import BitMatrix, _columns, _dims, _pcm_chunks, _read_rows, _read_to, block, parse_pcm


def _as_int(value, what: str) -> int:
    """value as an int. A float, a string or a bool is a ValueError naming
    what, so 2.7 is never read as 2."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return operator.index(value)


@dataclass(frozen=True, slots=True, init=False, repr=False)
class ChainComplex:
    """An ordered list of differentials with (intended) zero composites."""

    spaces: tuple[int, ...]
    diffs: tuple[BitMatrix, ...]
    labels: tuple[str, ...]

    def __init__(
        self,
        spaces: Sequence[int],
        diffs: Sequence[BitMatrix] = (),
        labels: Optional[Sequence[str]] = None,
    ):
        spaces = tuple(_as_int(d, f"space {i}") for i, d in enumerate(spaces))
        diffs = tuple(diffs)
        if not spaces:
            raise ValueError("a complex needs at least one space")
        if any(d < 0 for d in spaces):
            raise ValueError("space dimensions must be >= 0")
        if len(diffs) != len(spaces) - 1:
            raise ValueError(
                f"{len(spaces)} spaces need {len(spaces) - 1} differentials, got {len(diffs)}"
            )
        if labels is None:
            top = len(spaces) - 1
            labels = tuple(f"C{top - i}" for i in range(len(spaces)))
        else:
            labels = tuple(str(s) for s in labels)
            if len(labels) != len(spaces):
                raise ValueError("one label per space required")
        object.__setattr__(self, "spaces", spaces)
        object.__setattr__(self, "diffs", diffs)
        object.__setattr__(self, "labels", labels)

    @property
    def top_grade(self) -> int:
        return len(self.spaces) - 1

    def dim(self, grade: int) -> int:
        """Dimension of the space at the given grade (0 = rightmost)."""
        if not 0 <= grade <= self.top_grade:
            raise IndexError("grade out of range")
        return self.spaces[self.top_grade - grade]

    def diff(self, grade: int) -> BitMatrix:
        """The differential leaving the given grade (grade -> grade - 1)."""
        if not 1 <= grade <= self.top_grade:
            raise IndexError("no differential leaves that grade")
        return self.diffs[self.top_grade - grade]

    def validate(self) -> Optional[str]:
        """None when every shape conforms and all composites vanish,
        otherwise a message naming the first failing differential pair."""
        k = self.top_grade
        for i, d in enumerate(self.diffs):
            g = k - i
            if d.cols != self.spaces[i] or d.rows != self.spaces[i + 1]:
                return (
                    f"d{g} has shape {d.rows}x{d.cols}, expected "
                    f"{self.spaces[i + 1]}x{self.spaces[i]}"
                )
        for i in range(len(self.diffs) - 1):
            g = k - i
            if not (self.diffs[i + 1] @ self.diffs[i]).is_zero():
                return f"nonzero composite at pair (d{g}, d{g - 1})"
        return None

    def __repr__(self) -> str:
        arrows = " -> ".join(str(d) for d in self.spaces)
        return f"ChainComplex({arrows})"


def cocomplex(c: ChainComplex) -> ChainComplex:
    """Reverse the arrows: spaces reversed, every differential transposed.
    An involution; on a 3-term complex it swaps the X and Z roles."""
    return ChainComplex(
        tuple(reversed(c.spaces)),
        tuple(d.transpose() for d in reversed(c.diffs)),
        tuple(reversed(c.labels)),
    )


def homological_product(x: ChainComplex, y: ChainComplex) -> ChainComplex:
    """Tensor product of complexes: the grade-p space is the direct sum of
    x_i (x) y_{p-i}, and d(u(x)v) = du(x)v + u(x)dv (no signs over GF(2)).

    Summands are laid out with the x grade descending, matching the order in
    which blocks appear in the check matrices ``distance_balance`` builds,
    and each summand is indexed left factor major.
    """
    for name, c in (("left", x), ("right", y)):
        problem = c.validate()
        if problem is not None:
            raise ValueError(f"invalid {name} complex: {problem}")

    kx, ky = x.top_grade, y.top_grade

    def summands(p: int) -> list[tuple[int, int]]:
        top_i = min(kx, p)
        lo_i = max(0, p - ky)
        return [(i, p - i) for i in range(top_i, lo_i - 1, -1)]

    spaces = [sum(x.dim(i) * y.dim(j) for i, j in summands(p)) for p in range(kx + ky, -1, -1)]

    diffs = []
    for p in range(kx + ky, 0, -1):
        src = summands(p)
        dst = summands(p - 1)
        dst_index = {ij: row for row, ij in enumerate(dst)}
        grid = [[BitMatrix.zeros(x.dim(a) * y.dim(b), x.dim(i) * y.dim(j)) for i, j in src]
                for a, b in dst]
        for col, (i, j) in enumerate(src):
            if (i - 1, j) in dst_index:
                grid[dst_index[(i - 1, j)]][col] = x.diff(i).kron(BitMatrix.identity(y.dim(j)))
            if (i, j - 1) in dst_index:
                grid[dst_index[(i, j - 1)]][col] = BitMatrix.identity(x.dim(i)).kron(y.diff(j))
        diffs.append(block(grid))
    return ChainComplex(spaces, diffs)


@dataclass(frozen=True, slots=True, init=False, repr=False)
class CssCode:
    """A quantum CSS code: its check matrices H_X and H_Z, with
    H_X * H_Z^T = 0, and nothing else; two codes are equal when their
    check matrices are.

    Its complex has H_Z transposed as the top differential and H_X as the
    bottom one, so H_X * H_Z^T = 0 is exactly the chain condition; it is
    built, with the default labels, each time it is read. A code is
    validated where it enters: this constructor, ``from_check_matrices``
    and ``as_css``. The builders whose codes are valid by construction use
    ``_trusted``.
    """

    h_x: BitMatrix
    h_z: BitMatrix

    def __init__(self, complex: ChainComplex):
        if complex.top_grade != 2:
            raise ValueError(
                f"a CSS code needs a 3-term complex, got {complex.top_grade + 1} terms"
            )
        _check(complex)
        self._set(complex.diff(1), complex.diff(2).transpose())

    @classmethod
    def _trusted(cls, h_x: BitMatrix, h_z: BitMatrix) -> "CssCode":
        """The code of these check matrices, which act on the same qubits
        and give H_X * H_Z^T = 0 by construction."""
        code = object.__new__(cls)
        code._set(h_x, h_z)
        return code

    def _set(self, h_x: BitMatrix, h_z: BitMatrix) -> None:
        object.__setattr__(self, "h_x", h_x)
        object.__setattr__(self, "h_z", h_z)

    @property
    def complex(self) -> ChainComplex:
        return ChainComplex((self.n_z, self.n, self.n_x), (self.h_z.transpose(), self.h_x))

    @property
    def n(self) -> int:
        return self.h_x.cols

    @property
    def n_x(self) -> int:
        return self.h_x.rows

    @property
    def n_z(self) -> int:
        return self.h_z.rows

    @classmethod
    def from_check_matrices(cls, h_x: BitMatrix, h_z: BitMatrix) -> "CssCode":
        if h_x.cols != h_z.cols:
            raise ValueError("H_X and H_Z must act on the same qubits")
        code = cls._trusted(h_x, h_z)
        _check(code.complex)
        return code

    def __repr__(self) -> str:
        return f"CssCode(n={self.n}, n_x={self.n_x}, n_z={self.n_z})"


@dataclass(frozen=True, slots=True, init=False, repr=False)
class ClassicalCode:
    """A linear code given by its parity-check matrix H (s checks, t bits);
    two codes are equal when their matrices are."""

    h: BitMatrix
    t: int = field(compare=False)
    s: int = field(compare=False)

    def __init__(self, h: BitMatrix):
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "t", h.cols)
        object.__setattr__(self, "s", h.rows)

    @property
    def rank(self) -> int:
        return self.h.rank()

    @property
    def independent_checks(self) -> bool:
        return self.h.rank() == self.s

    @property
    def complex(self) -> ChainComplex:
        """The code as the 2-term complex bits -> checks."""
        return ChainComplex((self.t, self.s), (self.h,))

    def __repr__(self) -> str:
        return f"ClassicalCode(t={self.t}, s={self.s})"


def as_css(c: ChainComplex) -> CssCode:
    return CssCode(c)


def as_classical(c: ChainComplex) -> ClassicalCode:
    if c.top_grade != 1:
        raise ValueError(
            f"a classical code needs a 2-term complex, got {c.top_grade + 1} terms"
        )
    return ClassicalCode(_check(c).diff(1))


def _normal_form(code) -> tuple:
    """A code isomorphic to `code`, as a hashable key: the rows sorted within
    each check block (H_X and H_Z, or H), each column read as an int whose
    bit i is row i of the stacked blocks, and the columns sorted. The length,
    the block sizes and the sorted columns rebuild the code up to a column
    permutation, so equal keys mean isomorphic codes; the block sizes are in
    the key because an all-zero row changes no column."""
    blocks = (code.h_x, code.h_z) if isinstance(code, CssCode) else (code.h,)
    n = blocks[0].cols
    rows = [v for b in blocks for v in sorted(b.row_ints())]
    return (n, *(b.rows for b in blocks), tuple(sorted(_columns(rows, n))))


def _check(c: ChainComplex) -> ChainComplex:
    """c, or ValueError naming the first violation validate finds."""
    problem = c.validate()
    if problem is not None:
        raise ValueError(f"invalid complex: {problem}")
    return c


# How the writer lays out the diffs member: after the key, either "[]" or
# each diff's string after its separator, then the array's close.
_DIFFS = b',\n "diffs": '
_FIRST, _NEXT, _CLOSE = b'[\n  "', b'",\n  "', b'"\n ]'


def complex_json_pieces(
    c: ChainComplex, block_layout: Optional[dict] = None
) -> Iterator[Union[bytes, memoryview]]:
    """The bytes of json.dumps(obj, indent=1), where obj holds the complex's
    spaces, diffs and labels, then block_layout when given, in bytes-like
    pieces of at most about one chunk of the pcm writer each. The small
    members are formatted before this returns, so a layout that json
    cannot encode raises before the caller writes anything."""

    def member(name: str, value) -> bytes:
        # One level inside the top object: one more space after each newline.
        text = json.dumps(value, indent=1).replace("\n", "\n ")
        return f'\n "{name}": {text}'.encode()

    head = b"{" + member("spaces", list(c.spaces)) + _DIFFS
    tail = b"," + member("labels", list(c.labels))
    if block_layout is not None:
        tail += b"," + member("block_layout", block_layout)
    return _pieces(head, c.diffs, tail + b"\n}")


def _pieces(head: bytes, diffs: Sequence[BitMatrix],
            tail: bytes) -> Iterator[Union[bytes, memoryview]]:
    yield head
    if not diffs:
        yield b"[]"
    else:
        for i, d in enumerate(diffs):
            yield _NEXT if i else _FIRST
            # pcm text holds only digits, spaces and newlines, so with its
            # newlines written escaped it is its own JSON string.
            yield from _pcm_chunks(d, b"\\n")
        yield _CLOSE
    yield tail


def complex_to_json(c: ChainComplex) -> str:
    return b"".join(complex_json_pieces(c)).decode()


def _take(stream: BinaryIO, token: bytes) -> bool:
    """Whether the stream's next bytes are token: read past them if so,
    left where it was otherwise."""
    got = stream.read(len(token))
    if got == token:
        return True
    stream.seek(-len(got), 1)
    return False


def complex_from_layout(stream: BinaryIO) -> Optional[ChainComplex]:
    """The complex in a seekable binary stream, read from its position to
    its end in chunks, when it is ASCII with no CR and its diffs are laid
    out as save_complex writes them; None for any other text, or when a
    member or diff is invalid, so that the caller reads it as JSON and
    reports what that read reports. What it holds at once is the text
    before and after the diffs array, one chunk and the parsed diffs.

    It reads the text up to the diffs key, then each diff in turn, then
    the rest. Each diff must be write_pcm's header exactly, then rows of
    0/1 digits, each ended by an escaped newline (the last one optional,
    as in parse_pcm), then the closing quote. Then it holds no raw
    newline, comment line or other escape, so it is a valid JSON string
    whose value parse_pcm reads as the same matrix. The small members
    come from json.loads of the text with the diffs array cut out and a
    NaN put in its place: that parse must call the NaN the top-level
    "diffs" and see no other constant, so the cut was that member's value
    and json.loads of the whole text gives the same members."""
    head = _read_to(stream, _DIFFS)
    if head is None or not head.isascii() or b"\r" in head:
        return None
    diffs = []
    try:
        while _take(stream, _NEXT if diffs else _FIRST):
            header = _read_to(stream, b"\\n")
            if header is None:
                return None
            rows, cols = _dims(header.decode())
            if header != b"%d %d" % (rows, cols):
                return None
            vals = _read_rows(stream, rows, cols, b"\\n")
            if vals is None:
                return None
            diffs.append(BitMatrix._trusted(rows, cols, vals))
        if not _take(stream, _CLOSE if diffs else b"[]"):
            return None
        tail = stream.read()
        if not tail.isascii() or b"\r" in tail:
            return None
        constants: list[str] = []
        obj = json.loads(head + _DIFFS + b"NaN" + tail,
                         parse_constant=lambda name: constants.append(name) or constants)
        if constants != ["NaN"] or not isinstance(obj, dict) or obj.get("diffs") is not constants:
            return None
        obj["diffs"] = []
        spaces, _, labels = _members(obj)
        return ChainComplex(spaces, diffs, labels)
    except (ValueError, RecursionError):
        return None


def _list_of(value, kind) -> bool:
    return isinstance(value, list) and all(
        isinstance(v, kind) and not isinstance(v, bool) for v in value
    )


def _members(obj: dict) -> tuple:
    """obj's spaces, diffs and labels; ValueError when one is missing or
    of the wrong type."""
    try:
        spaces, diffs, labels = obj["spaces"], obj["diffs"], obj.get("labels")
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed complex object: {exc}") from None
    if not (_list_of(spaces, int) and _list_of(diffs, str)
            and (labels is None or _list_of(labels, str))):
        raise ValueError("malformed complex object: 'spaces' must be a list of "
                         "integers, 'diffs' and 'labels' lists of strings")
    return spaces, diffs, labels


def complex_from_obj(obj: dict) -> ChainComplex:
    spaces, diffs, labels = _members(obj)
    return ChainComplex(spaces, [parse_pcm(d) for d in diffs], labels)


def complex_from_json(text: str) -> ChainComplex:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError("not valid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError("complex JSON must be an object")
    return complex_from_obj(obj)
