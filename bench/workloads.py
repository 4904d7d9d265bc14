"""The benchmark's workloads: instance lists, input generation, the fixed
job list of each workload and the check on every job's output.

Inputs are generated through the CLI's own ``gen`` command, so the
program under test only ever sees files. Seeded families (random LDPC
checks, random CSS codes, the sweep's seed range) draw their seeds from
the benchmark seed; the same benchmark seed gives the same files.

Each workload has a full instance list, which the benchmark measures, and
a tiny one, which the harness self-test runs in a second.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from cssbalance import cli
from cssbalance.io import load_classical, load_css

DEFAULT_CAP = 1 << 24  # the CLI's default enumeration cap
SMALL_CAP = 1 << 10  # the CLI's minimum cap


# Code recipes, as nested tuples. A salt offsets the benchmark seed so
# that two seeded codes of one instance differ.
def rep(l: int) -> tuple:
    return ("rep", l)


def q(hhat: tuple) -> tuple:
    return ("q", hhat)


def ldpc(t: int, s: int, row_w: int, col_w: int, salt: int = 0) -> tuple:
    return ("ldpc", t, s, row_w, col_w, salt)


def css(n: int, n_x: int, n_z: int, salt: int = 0) -> tuple:
    return ("randomcss", n, n_x, n_z, salt)


HAMMING74 = ("hamming74",)


def label(spec: tuple) -> str:
    family = spec[0]
    if family == "rep":
        return f"rep{spec[1]}"
    if family == "q":
        return f"q({label(spec[1])})"
    if family == "hamming74":
        return "hamming74"
    if family == "ldpc":
        return f"ldpc({spec[1]},{spec[2]})"
    return f"css({spec[1]},{spec[2]},{spec[3]})"


def pair_label(pair: tuple) -> str:
    return f"{label(pair[0])} x {label(pair[1])}"


# Instance lists. Soundness instances keep every coset scan (2^t words of
# the balanced H_X and H_Z codes) within the default cap; distance
# instances are the acceptance corpus's pairs with the largest kernel
# walks; the construct instance is over the cap for every scan.
INSTANCES = {
    "distance": {
        "full": [
            (q(rep(2)), HAMMING74),
            (q(rep(3)), rep(4)),
            (q(rep(4)), rep(3)),
            (q(rep(2)), ldpc(6, 3, 3, 2)),
        ],
        "tiny": [(q(rep(2)), rep(3)), (q(rep(2)), ldpc(4, 2, 3, 2))],
    },
    "soundness": {
        "full": [
            (q(rep(3)), rep(3)),
            (q(rep(4)), rep(2)),
            (q(rep(2)), rep(4)),
            (css(4, 1, 1), ldpc(4, 2, 3, 2)),
            (q(ldpc(3, 1, 2, 1)), ldpc(3, 1, 2, 1, salt=1)),
        ],
        "tiny": [(q(rep(2)), rep(2)), (css(4, 1, 1), rep(2))],
    },
    "construct": {
        "full": [(q(rep(8)), rep(8))],
        "tiny": [(q(rep(3)), rep(3))],
    },
}

# The construct workload's scans must all be refused by the cap, so that
# oracle scans do no work; the tiny instance gets there with the minimum cap.
CONSTRUCT_CAP = {"full": DEFAULT_CAP, "tiny": SMALL_CAP}

# Sweep rows: each pair runs `count` consecutive seeds from seed * count.
SWEEP_PAIRS = [
    {"family": "random_css", "params": {"n": 4, "n_x": 1, "n_z": 1}},
    {"family": "random_css", "params": {"n": 5, "n_x": 1, "n_z": 2}},
]
SWEEP_CLASSICAL = {"family": "rep", "params": {"l": 2}}
SWEEP_COUNT = {"full": 1000, "tiny": 3}
# The CSV header of the CLI contract, spelled out here so that the check
# does not trust the program's own constant.
SWEEP_HEADER = [
    "seed", "n", "K", "dX", "dZ", "locality",
    "rhoX_num", "rhoX_den", "rhoZ_num", "rhoZ_den",
    "boundX_num", "boundX_den", "boundZ_num", "boundZ_den",
    "holdsX", "holdsZ", "ms",
]

# Outputs pinned at the default benchmark seed (full instance lists only):
# the measured soundness (X side, Z side) of each soundness instance, and
# the sha256 of the sweep CSV.
DEFAULT_SEED = 0
PINS = {
    "soundness": {
        "q(rep3) x rep3": [[22, 21], [11, 3]],
        "q(rep4) x rep2": [[19, 16], [19, 12]],
        "q(rep2) x rep4": [[19, 40], [19, 4]],
        "css(4,1,1) x ldpc(4,2)": [[3, 2], [9, 2]],
        "q(ldpc(3,1)) x ldpc(3,1)": [[19, 15], [19, 3]],
    },
    "sweep": "b9c48b134948bb9835b1f6e8d35ce0ca8e5764e02d89f3b9710436bb6446675a",
}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One CLI invocation in this process: (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


@dataclass
class Job:
    label: str
    argv: list[str]
    expect_exit: int
    check: Callable[[str], list[str]]  # stdout -> problems found


def check_job(job: Job, code: Optional[int], stdout: str) -> list[str]:
    """Problems with one job's result; empty when it is as expected."""
    if code != job.expect_exit:
        return [f"{job.label}: exit code {code}, expected {job.expect_exit}"]
    try:
        return [f"{job.label}: {p}" for p in job.check(stdout)]
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        return [f"{job.label}: unreadable output ({exc!r})"]


class Generator:
    """Writes each code recipe to one file through ``cssbalance gen``."""

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.paths: dict[tuple, str] = {}

    def path(self, spec: tuple) -> str:
        if spec in self.paths:
            return self.paths[spec]
        family = spec[0]
        if family == "q":
            argv, ext = ["q", "--hhat", self.path(spec[1])], ".json"
        elif family == "rep":
            argv, ext = ["rep", str(spec[1])], ".pcm"
        elif family == "hamming74":
            argv, ext = ["hamming74"], ".pcm"
        elif family == "ldpc":
            t, s, row_w, col_w, salt = spec[1:]
            argv = ["ldpc", str(t), str(s), "--row-w", str(row_w),
                    "--col-w", str(col_w), "--seed", str(self.seed + salt)]
            ext = ".pcm"
        elif family == "randomcss":
            n, n_x, n_z, salt = spec[1:]
            argv = ["randomcss", str(n), str(n_x), str(n_z), "--seed", str(self.seed + salt)]
            ext = ".json"
        else:
            raise ValueError(f"unknown recipe {spec!r}")
        path = str(self.workdir / ("_".join(str(x) for x in _flat(spec)) + ext))
        code, _ = run_cli(["gen", *argv, "-o", path])
        if code != 0:
            raise RuntimeError(f"gen {' '.join(argv)} exited with {code}")
        self.paths[spec] = path
        return path


def _flat(spec):
    for x in spec:
        if isinstance(x, tuple):
            yield from _flat(x)
        else:
            yield x


def _check_distance(stdout: str) -> list[str]:
    obj = json.loads(stdout)
    predicted, measured = obj["predicted"], obj["measured"]
    problems = [
        f"{key}: predicted {predicted[key]} != measured {measured[key]}"
        for key in ("n", "K", "dX", "dZ")
        if predicted[key] != measured[key]
    ]
    if obj["n"] != measured["n"]:
        problems.append(f"n: written {obj['n']} != measured {measured['n']}")
    return problems


def _soundness_checker(pin: Optional[list]) -> Callable[[str], list[str]]:
    def check(stdout: str) -> list[str]:
        sides = json.loads(stdout)
        problems = []
        if [s["side"] for s in sides] != ["X", "Z"]:
            return [f"sides {[s['side'] for s in sides]}, expected X then Z"]
        for s in sides:
            measured = Fraction(s["measured"]["num"], s["measured"]["den"])
            bound = Fraction(s["bound"]["num"], s["bound"]["den"])
            if not (s["holds"] is True and measured >= bound):
                problems.append(f"side {s['side']}: {measured} < bound {bound}")
        got = [[s["measured"]["num"], s["measured"]["den"]] for s in sides]
        if pin is not None and got != pin:
            problems.append(f"measured soundness {got}, pinned {pin}")
        return problems

    return check


def _sweep_checker(csv_path: str, rows: int, pin: Optional[str]) -> Callable[[str], list[str]]:
    def check(stdout: str) -> list[str]:
        data = Path(csv_path).read_bytes()
        table = list(csv.reader(io.StringIO(data.decode())))
        if table[0] != SWEEP_HEADER:
            return [f"header {table[0]}"]
        problems = []
        if len(table) - 1 != rows:
            problems.append(f"{len(table) - 1} rows, expected {rows}")
        holds_x, holds_z = SWEEP_HEADER.index("holdsX"), SWEEP_HEADER.index("holdsZ")
        for row in table[1:]:
            if "NA" in row or row[holds_x] != "true" or row[holds_z] != "true":
                problems.append(f"row {row}")
                break
        digest = hashlib.sha256(data).hexdigest()
        if pin is not None and digest != pin:
            problems.append(f"sha256 {digest}, pinned {pin}")
        return problems

    return check


def balanced_sizes(n: int, n_x: int, n_z: int, k: int, t: int, s: int, k_c: int):
    """(n, n_X, n_Z, K) after one balancing step against a [t, k_c] code
    with s independent checks."""
    return n * t + n_x * s, n_x * t, n_z * t + n * s, k * k_c


def double_balanced_sizes(n, n_x, n_z, k, t, s, k_c) -> dict:
    """Balance, swap X and Z, balance again, swap back."""
    n1, nx1, nz1, k1 = balanced_sizes(n, n_x, n_z, k, t, s, k_c)
    n2, nx2, nz2, k2 = balanced_sizes(n1, nz1, nx1, k1, t, s, k_c)
    return {"n": n2, "nX": nz2, "nZ": nx2, "K": k2}


def _sizes_checker(expected: dict, keys: tuple[str, ...]) -> Callable[[str], list[str]]:
    def check(stdout: str) -> list[str]:
        obj = json.loads(stdout)
        return [f"{key}: {obj[key]}, expected {expected[key]}"
                for key in keys if obj[key] != expected[key]]

    return check


def setup(name: str, seed: int, workdir: Path, size: str = "full") -> list[Job]:
    """Generate the workload's input files in workdir; return its jobs."""
    gen = Generator(workdir, seed)
    pinned = size == "full" and seed == DEFAULT_SEED
    jobs: list[Job] = []
    if name == "distance":
        out = str(workdir / "balanced.json")
        for pair in INSTANCES[name][size]:
            argv = ["balance", "--json", gen.path(pair[0]), gen.path(pair[1]), "-o", out]
            jobs.append(Job(pair_label(pair), argv, 0, _check_distance))
    elif name == "soundness":
        for pair in INSTANCES[name][size]:
            pin = PINS["soundness"][pair_label(pair)] if pinned else None
            argv = ["boundcheck", "--json", gen.path(pair[0]), gen.path(pair[1])]
            jobs.append(Job(pair_label(pair), argv, 0, _soundness_checker(pin)))
    elif name == "sweep":
        count = SWEEP_COUNT[size]
        job_file = workdir / "sweep_job.json"
        job_file.write_text(json.dumps({"pairs": [
            {"quantum": quantum, "classical": SWEEP_CLASSICAL,
             "seeds": {"start": seed * count, "count": count}}
            for quantum in SWEEP_PAIRS
        ]}))
        out = str(workdir / "sweep.csv")
        rows = count * len(SWEEP_PAIRS)
        check = _sweep_checker(out, rows, PINS["sweep"] if pinned else None)
        jobs.append(Job(f"sweep of {rows} rows", ["sweep", str(job_file), "-o", out], 0, check))
    elif name == "construct":
        cap = str(CONSTRUCT_CAP[size])
        out = str(workdir / "double.json")
        for pair in INSTANCES[name][size]:
            qpath, rpath = gen.path(pair[0]), gen.path(pair[1])
            qc, rc = load_css(Path(qpath)), load_classical(Path(rpath))
            expected = double_balanced_sizes(
                qc.n, qc.n_x, qc.n_z, qc.n - qc.h_x.rank() - qc.h_z.rank(),
                rc.t, rc.s, rc.t - rc.h.rank(),
            )
            text = pair_label(pair)
            jobs.append(Job(f"balance --double {text}",
                            ["balance", "--double", "--json", "--cap", cap, qpath, rpath, "-o", out],
                            0, _sizes_checker(expected, ("n", "nX", "nZ"))))
            jobs.append(Job(f"analyze {text}", ["analyze", "--json", "--cap", cap, out],
                            3, _sizes_checker(expected, ("n", "nX", "nZ", "K"))))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return jobs
