"""The file loaders against the text reader they replace: every input
gives the code, or the error text and exit code, that reading the file
with Path.read_text() and the str parsers gives."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cssbalance
from cssbalance import (
    ClassicalCode, as_classical, as_css, complex_from_json, complex_to_json, distance_balance,
    double_balance, hamming74, parse_pcm, q_complex, rep_standard, write_pcm,
)
from cssbalance.chain import complex_from_layout
from cssbalance.cli import main
from cssbalance import io
from cssbalance.io import load_code, load_complex, save_classical, save_complex

SRC = Path(cssbalance.__file__).resolve().parent.parent


def text_load_code(path: Path):
    """load_code as a reader of the decoded text: the whole file read by
    Path.read_text(), then json.loads or the line reader."""
    text = path.read_text()
    if text.lstrip().startswith("{"):
        c = complex_from_json(text)
        return as_classical(c) if c.top_grade == 1 else as_css(c)
    return ClassicalCode(parse_pcm(text))


def outcome(load, path: Path):
    try:
        return "ok", load(path)
    except (ValueError, OSError) as exc:
        return "error", type(exc), str(exc)


def assert_loads_as_text(path: Path, capsys=None):
    want = outcome(text_load_code, path)
    assert outcome(load_code, path) == want
    if capsys is not None and want[0] == "error":
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {want[2]}\n"
    return want


@pytest.fixture(params=["in_place", "decoded"])
def small_in_place(request, monkeypatch):
    """Read the small test files in place too, or decoded as they are."""
    if request.param == "in_place":
        monkeypatch.setattr(io, "_IN_PLACE_BYTES", 0)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Files as the writers lay them out, by name."""
    d = tmp_path_factory.mktemp("written")
    q3, r2 = q_complex(rep_standard(3).h), rep_standard(2)
    balanced = distance_balance(q3, r2)
    save_classical(hamming74(), d / "h.pcm")
    save_complex(rep_standard(3).complex, d / "two.json")
    save_complex(q3.complex, d / "three.json")
    save_complex(balanced.code.complex, d / "bal.json", balanced.block_layout)
    return d


@pytest.fixture(scope="module")
def dbl8(tmp_path_factory):
    """`balance --double` of q(rep8) x rep8: n = 2648, a 7.8 MiB file whose
    diffs span many of the reader's chunks. Returns (path, complex)."""
    balanced = double_balance(q_complex(rep_standard(8).h), rep_standard(8))
    path = tmp_path_factory.mktemp("dbl8") / "dbl8.json"
    save_complex(balanced.code.complex, path, balanced.block_layout)
    return path, balanced.code.complex


@pytest.mark.parametrize("name", ["h.pcm", "two.json", "three.json", "bal.json"])
def test_writer_layouts_load_in_place(written, small_in_place, name):
    path = written / name
    assert assert_loads_as_text(path)[0] == "ok"
    if name.endswith(".json"):
        assert complex_from_layout(path.read_bytes()) is not None


def test_double_balanced_file_loads_in_place(dbl8):
    path, c = dbl8
    assert complex_from_layout(path.read_bytes()) == c
    assert load_complex(path) == c
    assert assert_loads_as_text(path) == ("ok", as_css(c))


def _edit(path: Path, out: Path, edit) -> Path:
    out.write_bytes(edit(path.read_bytes()))
    return out


def _with_members(data: bytes, **members) -> bytes:
    obj = json.loads(data)
    obj.update(members)
    return (json.dumps(obj, indent=1) + "\n").encode()


# Files no writer emits: each must read as the text reader reads it, some
# as a code and some as an error.
EDITS = {
    "compact": lambda b: json.dumps(json.loads(b)).encode(),
    "reordered": lambda b: (json.dumps(dict(reversed(json.loads(b).items())), indent=1)
                            + "\n").encode(),
    "extra_member": lambda b: _with_members(b, note="x"),
    "escaped_digit": lambda b: b.replace(b'"6 3\\n1', b'"6 3\\n\\u0031', 1),
    "duplicate_diffs": lambda b: b[:b.rindex(b"}")] + b',\n "diffs": []\n}\n',
    "duplicate_diffs_nan": lambda b: b[:b.rindex(b"}")] + b',\n "diffs": NaN\n}\n',
    "trailing_bytes": lambda b: b + b"{}",
    "trailing_space": lambda b: b + b" \n",
    "crlf": lambda b: b.replace(b"\n", b"\r\n"),
    "raw_newline_in_diff": lambda b: b.replace(b"\\n", b"\n", 2),
    # Raw newlines and a comment line in write_pcm's length: the line
    # reader would take it, json.loads refuses it.
    "raw_newlines_at_full_length": lambda b: b.replace(
        b'"2 6\\n110110\\n011011\\n"', b'"2 6\\n110110\n011011\n#\n"'),
    "tab_in_diff_header": lambda b: b.replace(b'"6 3\\n', b'"6\t3\\n', 1),
    "tab_in_diff_comment": lambda b: b.replace(b'"2 6\\n', b'"2 6\\n#\t\\n', 1),
    "comment_in_diff": lambda b: b.replace(b'"6 3\\n', b'"# c\\n6 3\\n', 1),
    "diff_without_last_newline": lambda b: b.replace(b'\\n",', b'",', 1),
    "bad_row_in_diff": lambda b: b.replace(b'\\n0', b'\\n2', 1),
    "backslash_in_diff": lambda b: b.replace(b'\\n0', b'\\\\0', 1),
    "non_utf8": lambda b: b.replace(b'"C2"', b'"C\xff"'),
    "non_ascii": lambda b: b.replace(b'"C2"', '"Cé"'.encode()),
    "bool_space": lambda b: b.replace(b"[\n  3,", b"[\n  true,", 1),
    # ASCII bytes that json.loads of bytes would read as UTF-16.
    "utf16_le": lambda b: b.decode().encode("utf-16-le"),
    "utf16_be": lambda b: b.decode().encode("utf-16-be"),
}


@pytest.mark.parametrize("name", sorted(EDITS))
def test_complex_files_no_writer_emits(written, small_in_place, tmp_path, capsys, name):
    path = _edit(written / "three.json", tmp_path / "c.json", EDITS[name])
    assert path.read_bytes() != (written / "three.json").read_bytes()
    assert_loads_as_text(path, capsys)


# Diffs that json.loads may read but the in-place reader must decline:
# a header that is not write_pcm's, a body one byte short or long, and a
# raw newline where an escape was, at the same length, or in the header.
LAYOUT_FAULTS = {
    "header_raw_newline": lambda b: b.replace(b'"2 6\\n', b'"2\n6\\n'),
    "header_plus_sign": lambda b: b.replace(b'"2 6\\n', b'"+2 6\\n'),
    "header_leading_zero": lambda b: b.replace(b'"2 6\\n', b'"02 6\\n'),
    "header_two_spaces": lambda b: b.replace(b'"2 6\\n', b'"2  6\\n'),
    "body_one_byte_short": lambda b: b.replace(b"\\n011011\\n", b"\\n01101\\n"),
    "body_one_byte_long": lambda b: b.replace(b"\\n011011\\n", b"\\n0110110\\n"),
    "raw_newline": lambda b: b.replace(b"110110\\n011011", b"110110\n\n011011"),
}


@pytest.mark.parametrize("name", sorted(LAYOUT_FAULTS))
def test_layout_reader_declines_diff_faults(written, small_in_place, tmp_path, capsys, name):
    path = _edit(written / "three.json", tmp_path / "c.json", LAYOUT_FAULTS[name])
    data = path.read_bytes()
    assert data != (written / "three.json").read_bytes()
    assert complex_from_layout(data) is None
    assert_loads_as_text(path, capsys)


PCM_FILES = {
    "crlf": b"2 3\r\n110\r\n011\r\n",
    "comments": b"# rep 3\n2 3\n110\n# between\n011\n",
    "no_trailing_newline": b"2 3\n110\n011",
    "leading_zero_header": b"02 3\n110\n011\n",
    "non_utf8": b"# \xff\n2 3\n110\n011\n",
    "non_ascii_comment": "# é\n2 3\n110\n011\n".encode(),
    "bad_row": b"2 3\n110\n0x1\n",
    "leading_space": b" \n2 3\n110\n011\n",
    "empty": b"",
}


@pytest.mark.parametrize("name", sorted(PCM_FILES))
def test_matrix_files(small_in_place, tmp_path, capsys, name):
    path = tmp_path / "h.pcm"
    path.write_bytes(PCM_FILES[name])
    assert_loads_as_text(path, capsys)


WRITTEN = (complex_to_json(q_complex(rep_standard(3).h).complex) + "\n").encode()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, len(WRITTEN)), st.integers(0, 6),
       st.text(alphabet='01 23\\n"#,[]{}\t\ré', max_size=6))
def test_layout_reader_never_disagrees_with_json(at, cut, insert):
    """A writer's file with one slice replaced: the in-place reader gives
    the complex json.loads gives, or declines."""
    data = WRITTEN[:at] + insert.encode() + WRITTEN[at + cut:]
    try:
        want = ("ok", complex_from_json(data.decode("utf-8")))
    except ValueError as exc:
        want = ("error", str(exc))
    got = complex_from_layout(data) if data.isascii() and b"\r" not in data else None
    assert got is None or ("ok", got) == want


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
@pytest.mark.parametrize("name", ["comments", "crlf"])
def test_analyze_reads_a_piped_matrix_once(tmp_path, name):
    """A pipe can be read once: a file with a comment line, which the
    codec reads past in place, and a CRLF file, which is decoded, both
    print the report of the same file read by name."""
    path = tmp_path / "h.pcm"
    path.write_bytes(PCM_FILES[name])
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    cmd = [sys.executable, "-m", "cssbalance.cli", "analyze", "--json"]
    piped = subprocess.run(cmd + ["/dev/stdin"], input=path.read_bytes(),
                           capture_output=True, env=env)
    direct = subprocess.run(cmd + [str(path)], capture_output=True, env=env)
    assert piped.returncode == direct.returncode == 0, piped.stderr
    got, want = json.loads(piped.stdout), json.loads(direct.stdout)
    assert got.pop("provenance") == "file:/dev/stdin"
    want.pop("provenance")
    assert got == want


def test_load_code_peak_memory(dbl8):
    """The file's bytes are the largest thing live: each diff is parsed in
    place, in chunks, with no decoded copy of the file or a diff."""
    path, _ = dbl8
    tracemalloc.start()
    try:
        load_code(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * path.stat().st_size


def test_save_complex_peak_memory(dbl8, tmp_path):
    """One diff's bytes at a time are live, written with no str copy."""
    path, c = dbl8
    largest = max(len(write_pcm(d, b"\\n")) for d in c.diffs)
    tracemalloc.start()
    try:
        save_complex(c, tmp_path / "again.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * largest
    assert (tmp_path / "again.json").read_bytes() != path.read_bytes()  # no block_layout
