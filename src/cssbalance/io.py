"""File formats: parity-check matrix text files and chain-complex JSON.

Every loader reads the file's bytes once. The bytes of a large file that
read as themselves are parsed in place: a complex file in the writer's
layout diff by diff, each a byte range of the file, a matrix file
whole. Any other file is decoded as Path.read_text() would decode it
and read as that text.
"""

from __future__ import annotations

import locale
from io import BytesIO, TextIOWrapper
from pathlib import Path
from typing import Optional, Union

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
from .gf2 import parse_pcm, write_pcm

_ASCII = bytes(range(128))
# The bytes str.lstrip() strips from an ASCII text.
_SPACE = bytes(c for c in _ASCII if chr(c).isspace())
# A file smaller than this is decoded whole: on a small file the checks of
# reading in place cost more than the copies they save.
_IN_PLACE_BYTES = 1 << 16


def _read(path: Path) -> Union[bytes, str]:
    """The file's text: its bytes when they can be read in place, that is
    a file of at least _IN_PLACE_BYTES bytes that reads as itself, ASCII
    with no CR (which universal newlines would rewrite) under a locale
    encoding that reads ASCII as ASCII; otherwise the str that
    Path.read_text() returns, decoded from the same bytes with the same
    encoding, newlines and errors."""
    data = Path(path).read_bytes()
    if len(data) >= _IN_PLACE_BYTES and data.isascii() and b"\r" not in data:
        try:
            if _ASCII.decode(locale.getpreferredencoding(False)) == _ASCII.decode("ascii"):
                return data
        except UnicodeDecodeError:
            pass
    return TextIOWrapper(BytesIO(data)).read()


def _complex(text: Union[bytes, str]) -> ChainComplex:
    if isinstance(text, bytes):
        c = complex_from_layout(text)
        if c is not None:
            return c
        text = text.decode("ascii")
    return complex_from_json(text)


def load_matrix(path: Path):
    return parse_pcm(_read(path))


def load_classical(path: Path) -> ClassicalCode:
    return ClassicalCode(load_matrix(path))


def load_complex(path: Path) -> ChainComplex:
    return _complex(_read(path))


def load_css(path: Path) -> CssCode:
    return as_css(load_complex(path))


def load_code(path: Path) -> Union[ClassicalCode, CssCode]:
    """Sniff the format: complex JSON (a 2-term complex reads as a
    classical code, a 3-term one as a CSS code) or matrix text."""
    text = _read(path)
    if isinstance(text, bytes):
        is_json = text.lstrip(_SPACE).startswith(b"{")
    else:
        is_json = text.lstrip().startswith("{")
    if is_json:
        c = _complex(text)
        if c.top_grade == 1:
            return as_classical(c)
        return as_css(c)
    return ClassicalCode(parse_pcm(text))


def save_classical(code: ClassicalCode, path: Path) -> None:
    Path(path).write_bytes(write_pcm(code.h, b"\n"))


def save_complex(
    c: ChainComplex, path: Path, block_layout: Optional[dict] = None
) -> None:
    pieces = complex_json_pieces(c, block_layout)
    with open(path, "wb") as fh:
        fh.writelines(pieces)
        fh.write(b"\n")
