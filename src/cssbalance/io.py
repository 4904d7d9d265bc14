"""File formats: parity-check matrix text files and chain-complex JSON."""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from .chain import (
    ChainComplex,
    ClassicalCode,
    CssCode,
    as_classical,
    as_css,
    complex_from_json,
    complex_json_pieces,
)
from .gf2 import parse_pcm, write_pcm


def load_matrix(path: Path):
    return parse_pcm(Path(path).read_text())


def load_classical(path: Path) -> ClassicalCode:
    return ClassicalCode(load_matrix(path))


def load_complex(path: Path) -> ChainComplex:
    return complex_from_json(Path(path).read_text())


def load_css(path: Path) -> CssCode:
    return as_css(load_complex(path))


def load_code(path: Path) -> Union[ClassicalCode, CssCode]:
    """Sniff the format: complex JSON (a 2-term complex reads as a
    classical code, a 3-term one as a CSS code) or matrix text."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        c = complex_from_json(text)
        if c.top_grade == 1:
            return as_classical(c)
        return as_css(c)
    return ClassicalCode(parse_pcm(text))


def save_classical(code: ClassicalCode, path: Path) -> None:
    Path(path).write_text(write_pcm(code.h))


def save_complex(
    c: ChainComplex, path: Path, block_layout: Optional[dict] = None
) -> None:
    pieces = complex_json_pieces(c, block_layout)
    with open(path, "w") as fh:
        fh.writelines(pieces)
        fh.write("\n")
