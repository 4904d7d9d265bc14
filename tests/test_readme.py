"""The README's promises hold: its code examples run against the current
public API, and the runtime imports only the standard library."""

import ast
import re
import sys
from pathlib import Path

from cssbalance.cli import SWEEP_HEADER, main

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = README.parent / "src" / "cssbalance"


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


def test_runtime_imports_only_the_standard_library():
    """Every absolute import in the package names a standard library module
    at its top level; relative imports stay inside the package."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    for path in modules:
        for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
