"""File formats: parity-check matrix text files and chain-complex JSON.

Savers write each chunk of about 64 KiB of text (gf2._CHUNK_BYTES) as
the writer makes it, so they hold one at a time. A seekable file of at
least _IN_PLACE_BYTES bytes is read from the open file one chunk at a
time, each checked as it comes: a complex file in the writer's layout
diff by diff, a matrix file row chunk by row chunk, both only while the
file reads as itself (ASCII with no CR, under a locale encoding that
reads ASCII as ASCII). At the first departure the file is read again
from its start, whole, decoded as Path.read_text() would decode it, and
parsed as that text; a smaller file takes that whole-text path at once.
A pipe can be read only once, so it is read whole, and its bytes go
through the chunked readers from memory when they are that large.
"""

from __future__ import annotations

import locale
from io import BytesIO, TextIOWrapper
from pathlib import Path
from typing import BinaryIO, Callable, Optional, TypeVar, Union

from .chain import (
    ChainComplex,
    ClassicalCode,
    CssCode,
    as_classical,
    as_css,
    complex_from_json,
    complex_from_layout,
    complex_json_pieces,
)
from .gf2 import BitMatrix, _pcm_chunks, _read_pcm, parse_pcm

_ASCII = bytes(range(128))
# A file smaller than this is decoded whole: on a small file the checks of
# reading it in chunks cost more than the copies they save.
_IN_PLACE_BYTES = 1 << 16

_T = TypeVar("_T")


def _reads_ascii() -> bool:
    """Whether the locale encoding reads ASCII bytes as ASCII."""
    try:
        return _ASCII.decode(locale.getpreferredencoding(False)) == _ASCII.decode("ascii")
    except UnicodeDecodeError:
        return False


def _load(path: Path, read_stream: Callable[[BinaryIO], Optional[_T]],
          read_text: Callable[[str], _T]) -> _T:
    """read_stream of the open file, when it is at least _IN_PLACE_BYTES
    bytes under a locale that reads ASCII as ASCII and read_stream does
    not decline it (None); otherwise read_text of the file's text as
    Path.read_text() returns it, decoded from its bytes with the same
    encoding, newlines and errors. A pipe, which can be read only once,
    is read whole first."""
    with open(path, "rb") as fh:
        stream: BinaryIO = fh if fh.seekable() else BytesIO(fh.read())
        if stream.seek(0, 2) >= _IN_PLACE_BYTES and _reads_ascii():
            stream.seek(0)
            got = read_stream(stream)
            if got is not None:
                return got
        stream.seek(0)
        data = stream.read()
    return read_text(TextIOWrapper(BytesIO(data)).read())


def _as_code(c: ChainComplex) -> Union[ClassicalCode, CssCode]:
    """A 2-term complex as a classical code, any other as a CSS code."""
    return as_classical(c) if c.top_grade == 1 else as_css(c)


def _code_stream(stream: BinaryIO) -> Optional[Union[ClassicalCode, CssCode]]:
    """The code in a stream that opens with '{' as complex JSON, in any
    other as matrix text; None where that reader declines."""
    is_json = stream.read(1) == b"{"
    stream.seek(0)
    if is_json:
        c = complex_from_layout(stream)
        return None if c is None else _as_code(c)
    matrix = _read_pcm(stream)
    return None if matrix is None else ClassicalCode(matrix)


def _code_text(text: str) -> Union[ClassicalCode, CssCode]:
    if text.lstrip().startswith("{"):
        return _as_code(complex_from_json(text))
    return ClassicalCode(parse_pcm(text))


def load_matrix(path: Path) -> BitMatrix:
    return _load(path, _read_pcm, parse_pcm)


def load_classical(path: Path) -> ClassicalCode:
    return ClassicalCode(load_matrix(path))


def load_complex(path: Path) -> ChainComplex:
    return _load(path, complex_from_layout, complex_from_json)


def load_css(path: Path) -> CssCode:
    return as_css(load_complex(path))


def load_code(path: Path) -> Union[ClassicalCode, CssCode]:
    """Sniff the format: complex JSON (a 2-term complex reads as a
    classical code, a 3-term one as a CSS code) or matrix text."""
    return _load(path, _code_stream, _code_text)


def save_classical(code: ClassicalCode, path: Path) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_pcm_chunks(code.h, b"\n"))


def save_complex(
    c: ChainComplex, path: Path, block_layout: Optional[dict] = None
) -> None:
    pieces = complex_json_pieces(c, block_layout)
    with open(path, "wb") as fh:
        fh.writelines(pieces)
        fh.write(b"\n")
