"""Scan sizes of every benchmark instance under both enumeration strategies.

    python3 bench/requirements.py [--seed N]

For each exhaustive scan a workload's jobs ask for, prints log2 of the
number of words the current Gray walk visits and log2 of the number of
syndromes a breadth-first search over syndrome space (the coset-leader
engine planned for the oracles) would visit:

- distance of a classical code H: Gray dim ker H; the search is not
  planned there (classical distance stays on the Gray walk);
- X-distance of a CSS code: Gray dim ker H_Z = n - rank H_Z; search over
  the syndromes of [H_Z; basis of ker H_X], rank n - rank H_X;
- Z-distance: the same with X and Z swapped;
- soundness of a classical code H on t bits: Gray 2^t words; search over
  2^rank(H) syndromes.

The benchmark needs every scan either to fit the default cap under both
strategies or to exceed it by more than 2^100 under both, so that a change
of strategy cannot change how much work any workload asks for. Exits 1
when a scan does neither. Sweep rows are not listed: their balanced codes
have at most 11 qubits, so every scan of theirs fits under both.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from cssbalance import (  # noqa: E402
    ClassicalCode,
    distance_balance,
    double_balance,
)
from cssbalance.io import load_classical, load_css  # noqa: E402

import workloads  # noqa: E402

CAP_LOG2 = workloads.DEFAULT_CAP.bit_length() - 1
MARGIN_LOG2 = 100


def _distance_scans(prefix: str, code) -> list[dict]:
    n, rx, rz = code.n, code.h_x.rank(), code.h_z.rank()
    if n - rx - rz == 0:
        return []
    return [
        {"scan": f"{prefix} dX", "gray_log2": n - rz, "bfs_log2": n - rx},
        {"scan": f"{prefix} dZ", "gray_log2": n - rx, "bfs_log2": n - rz},
    ]


def _classical_distance_scan(prefix: str, r: ClassicalCode) -> list[dict]:
    e = r.t - r.h.rank()
    return [{"scan": f"{prefix} d", "gray_log2": e, "bfs_log2": e}] if e else []


def _soundness_scans(prefix: str, code) -> list[dict]:
    out = []
    for side, h in (("H_X", code.h_x), ("H_Z", code.h_z)):
        if h.rows and h.cols and h.rank():
            out.append({"scan": f"{prefix} soundness {side}",
                        "gray_log2": h.cols, "bfs_log2": h.rank()})
    return out


def verdict(scan: dict) -> str:
    sizes = (scan["gray_log2"], scan["bfs_log2"])
    if max(sizes) <= CAP_LOG2:
        return "fits"
    if min(sizes) > CAP_LOG2 + MARGIN_LOG2:
        return "over by more than 2^100"
    return "VIOLATES"


def instance_scans(name: str, qc, rc) -> list[dict]:
    if name == "distance":
        bal = distance_balance(qc, rc).code
        scans = (_distance_scans("input", qc) + _classical_distance_scan("classical", rc)
                 + _distance_scans("balanced", bal))
    elif name == "soundness":
        bal = distance_balance(qc, rc).code
        scans = _soundness_scans("input", qc) + _soundness_scans("balanced", bal)
    else:
        dbl = double_balance(qc, rc).code
        scans = (_distance_scans("input", qc) + _classical_distance_scan("classical", rc)
                 + _distance_scans("double", dbl) + _soundness_scans("double", dbl))
    for scan in scans:
        scan["verdict"] = verdict(scan)
    return scans


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = p.parse_args(argv)
    workdir = BENCH / "_work" / "requirements"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    report = {"cap_log2": CAP_LOG2, "seed": args.seed, "instances": {}}
    try:
        gen = workloads.Generator(workdir, args.seed)
        for name, sizes in workloads.INSTANCES.items():
            rows = report["instances"][name] = []
            for pair in sizes["full"]:
                qc = load_css(Path(gen.path(pair[0])))
                rc = load_classical(Path(gen.path(pair[1])))
                rows.append({"instance": workloads.pair_label(pair),
                             "scans": instance_scans(name, qc, rc)})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report, indent=1))
    bad = [s for rows in report["instances"].values() for row in rows
           for s in row["scans"] if s["verdict"] == "VIOLATES"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
