"""The README's code examples run against the current public API."""

import re
from pathlib import Path

from cssbalance.cli import SWEEP_HEADER, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs():
    text = README.read_text()
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under 'Library use'"
    exec(compile(block.group(1), f"{README}:Library use", "exec"), {})


def test_sweep_job_block_runs(tmp_path):
    text = README.read_text()
    section = text[text.index("Sweep job files"):]
    block = re.search(r"```json\n(.*?)```", section, re.S)
    assert block is not None, "no json block after 'Sweep job files'"
    header = re.search(r"\*\*Sweep CSV\*\* header:\n`([^`]*)`", text)
    assert header is not None, "no documented sweep CSV header"
    job = tmp_path / "job.json"
    job.write_text(block.group(1))
    out = tmp_path / "out.csv"
    assert main(["sweep", str(job), "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == header.group(1) == ",".join(SWEEP_HEADER)
    assert len(lines) == 1 + 20
