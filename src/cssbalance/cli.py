"""Command-line interface.

Commands: gen, analyze, balance, boundcheck, sweep, table. Exit codes are
a stable contract: 0 success (and, for boundcheck, all bounds hold),
2 parse or usage error, 3 enumeration cap exceeded, 4 dependent classical
checks without --reduce-checks, 5 undefined soundness.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .balance import (
    DependentChecksError,
    UndefinedSoundnessError,
    _check_balanced,
    bound_check,
    distance_balance,
    double_balance,
    measured_classical_params,
    measured_quantum_params,
    predicted_double_params,
    predicted_params,
)
from .chain import ClassicalCode, CssCode, _list_of
from .constructions import CodeSpec, as_spec, param_table
from .gf2 import row_basis
from .io import load_classical, load_code, load_css, save_classical, save_complex
from .oracle import (
    DEFAULT_CAP,
    CapExceeded,
    CodeReport,
    analyze_classical,
    analyze_quantum,
    distance_obj,
    locality,
    quantum_dimension,
    quantum_distance_x,
    quantum_distance_z,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_DEPENDENT = 4
EXIT_UNDEFINED = 5

MIN_CAP = 1 << 10


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--cap", type=int, default=DEFAULT_CAP,
        help=f"enumeration budget per exhaustive scan (default 2^24, min {MIN_CAP})",
    )
    common.add_argument("--seed", type=int, default=0, help="seed for randomized families")
    common.add_argument("--json", action="store_true", help="machine-readable output")

    parser = argparse.ArgumentParser(
        prog="cssbalance",
        description="construct, balance and exactly analyze CSS codes over GF(2)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate a code and write it to a file")
    p.add_argument("family", choices=["rep", "repmod", "q", "hamming74", "ldpc", "randomcss"])
    p.add_argument("numbers", nargs="*", type=int,
                   help="family sizes: rep/repmod l; ldpc t s; randomcss n nx nz")
    p.add_argument("--hhat", help="matrix file for the q family")
    p.add_argument("--row-w", type=int, default=3, help="ldpc row weight")
    p.add_argument("--col-w", type=int, default=2, help="ldpc column weight cap")
    p.add_argument("-o", "--out", required=True, help="output path")

    p = sub.add_parser("analyze", parents=[common], help="exact parameter report for a code file")
    p.add_argument("path")

    p = sub.add_parser("balance", parents=[common], help="balance a quantum code against a classical one")
    p.add_argument("quantum", help="3-term complex JSON file")
    p.add_argument("classical", help="parity-check matrix file")
    p.add_argument("-o", "--out", required=True, help="output path for the balanced complex")
    p.add_argument("--double", action="store_true", help="balance twice with an X/Z swap between")
    p.add_argument("--reduce-checks", action="store_true",
                   help="drop dependent classical checks instead of refusing them")

    p = sub.add_parser("boundcheck", parents=[common],
                       help="verify the soundness lower bounds on a balanced pair")
    p.add_argument("quantum")
    p.add_argument("classical")
    p.add_argument("--assume-rho", type=_fraction_arg, default=None,
                   help="use this soundness for both components instead of measuring")
    p.add_argument("--reduce-checks", action="store_true")

    p = sub.add_parser("sweep", parents=[common], help="run a batch of balance+boundcheck instances")
    p.add_argument("job", help="JSON job file listing code spec pairs and seeds")
    p.add_argument("-o", "--out", required=True, help="output CSV path")
    p.add_argument("--timing", action="store_true",
                   help="fill the ms column with each row's wall time (makes output "
                        "nondeterministic); a row whose pair already ran in this "
                        "sweep reuses that row's fields, so its ms is short")

    p = sub.add_parser("table", parents=[common], help="print a parameter formula sheet")
    p.add_argument("scenario")
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--alpha", type=_fraction_arg)
    return parser


def _spec_from_gen_args(args) -> CodeSpec:
    nums = args.numbers
    if args.family in ("rep", "repmod"):
        if len(nums) != 1:
            raise ValueError("rep/repmod take one size: l")
        fam = "rep" if args.family == "rep" else "rep_modified"
        return CodeSpec(fam, {"l": nums[0]})
    if args.family == "hamming74":
        if nums:
            raise ValueError("hamming74 takes no sizes")
        return CodeSpec("hamming74")
    if args.family == "ldpc":
        if len(nums) != 2:
            raise ValueError("ldpc takes two sizes: t s")
        return CodeSpec("random_ldpc", {
            "t": nums[0], "s": nums[1],
            "row_w": args.row_w, "col_w": args.col_w, "seed": args.seed,
        })
    if args.family == "randomcss":
        if len(nums) != 3:
            raise ValueError("randomcss takes three sizes: n nx nz")
        return CodeSpec("random_css", {
            "n": nums[0], "n_x": nums[1], "n_z": nums[2], "seed": args.seed,
        })
    if args.family == "q":
        if not args.hhat:
            raise ValueError("the q family needs --hhat <matrix file>")
        return CodeSpec("q_complex", {"path": args.hhat})
    raise ValueError(f"unknown family {args.family!r}")


def _print_report(report: CodeReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_obj()))
    else:
        print(report.to_text())


def cmd_gen(args) -> int:
    spec = _spec_from_gen_args(args)
    code = spec.build()
    out = Path(args.out)
    if isinstance(code, ClassicalCode):
        save_classical(code, out)
        report = analyze_classical(code, args.cap, provenance=spec.describe())
    else:
        save_complex(code.complex, out)
        report = analyze_quantum(code, args.cap, provenance=spec.describe())
    _print_report(report, args.json)
    return EXIT_OK


def cmd_analyze(args) -> int:
    code = load_code(Path(args.path))
    if isinstance(code, ClassicalCode):
        report = analyze_classical(code, args.cap, provenance=f"file:{args.path}")
    else:
        report = analyze_quantum(code, args.cap, provenance=f"file:{args.path}")
    _print_report(report, args.json)
    return EXIT_CAP if report.incomplete else EXIT_OK


def _load_pair(args) -> tuple[CssCode, ClassicalCode]:
    q = load_css(Path(args.quantum))
    r = load_classical(Path(args.classical))
    if args.reduce_checks and not r.independent_checks:
        r = ClassicalCode(row_basis(r.h))
    return q, r


def _fmt(v) -> str:
    return str(distance_obj(v))


def cmd_balance(args) -> int:
    q, r = _load_pair(args)
    prov = (f"file:{args.quantum}", f"file:{args.classical}")
    balanced = (double_balance if args.double else distance_balance)(q, r, prov)
    save_complex(balanced.code.complex, Path(args.out), balanced.block_layout)

    predicted = measured = None
    note = ""
    try:
        qp = measured_quantum_params(q, args.cap)
        rp = measured_classical_params(r, args.cap)
        predict = predicted_double_params if args.double else predicted_params
        predicted = predict(qp, rp)
        measured = measured_quantum_params(balanced.code, args.cap)
    except CapExceeded as exc:
        note = f"measurement skipped: {exc}"

    if args.json:
        obj = {"out": str(args.out), "n": balanced.n, "nX": balanced.n_x, "nZ": balanced.n_z}
        if predicted is not None and measured is not None:
            obj["predicted"] = {
                "n": predicted.n, "K": predicted.dimension,
                "dX": distance_obj(predicted.d_x), "dZ": distance_obj(predicted.d_z),
            }
            obj["measured"] = {
                "n": measured.n, "K": measured.dimension,
                "dX": distance_obj(measured.d_x), "dZ": distance_obj(measured.d_z),
            }
        if note:
            obj["note"] = note
        print(json.dumps(obj))
        return EXIT_OK

    print(f"wrote {args.out}  (n={balanced.n}, nX={balanced.n_x}, nZ={balanced.n_z})")
    if predicted is not None and measured is not None:
        print(f"{'':<12}{'predicted':>12}{'measured':>12}")
        for name, p, m in (
            ("n", predicted.n, measured.n),
            ("K", predicted.dimension, measured.dimension),
            ("dX", predicted.d_x, measured.d_x),
            ("dZ", predicted.d_z, measured.d_z),
        ):
            mark = "" if p == m else "   MISMATCH"
            print(f"{name:<12}{_fmt(p):>12}{_fmt(m):>12}{mark}")
    if note:
        print(note)
    return EXIT_OK


def cmd_boundcheck(args) -> int:
    q, r = _load_pair(args)
    result = bound_check(q, r, args.cap, assume_rho=args.assume_rho)
    rho, rho_cap = args.assume_rho, result.rho_cap
    if rho is not None and rho_cap is not None and rho > rho_cap:
        print(f"warning: assumed soundness {rho} exceeds min(2n/nZ, 2n/nX) = {rho_cap}; "
              "bounds use the min(.,1) clamp", file=sys.stderr)
    if args.json:
        print(json.dumps(result.to_obj()))
    else:
        for side in result.sides:
            verdict = "holds" if side.holds else "VIOLATED"
            print(f"side {side.side}: measured {side.measured} >= bound {side.bound}: {verdict}")
        print(f"input component soundness: rhoX={result.rho_x} rhoZ={result.rho_z}")
        if result.rho_cap is not None:
            within = "within" if result.hypothesis_ok else "outside"
            print(f"soundness {within} min(2n/nZ, 2n/nX) = {result.rho_cap}")
    return EXIT_OK if result.all_hold else 1


SWEEP_HEADER = [
    "seed", "n", "K", "dX", "dZ", "locality",
    "rhoX_num", "rhoX_den", "rhoZ_num", "rhoZ_den",
    "boundX_num", "boundX_den", "boundZ_num", "boundZ_den",
    "holdsX", "holdsZ", "ms",
]


def _sweep_row(label: str, quantum_spec: CodeSpec, classical_spec: CodeSpec, seed: int,
               cap: int, timing: bool, done: dict) -> list[str]:
    """One CSV row. A spec that cannot be built is a ValueError naming the
    pair and the seed; a random generator that finds no valid draw gives an
    all-NA row. `done` maps each pair this sweep has computed, keyed by its
    lengths and check rows, to its fields other than seed and ms; a pair
    already in it reuses those fields."""
    start = time.monotonic()
    row: dict[str, str] = {k: "NA" for k in SWEEP_HEADER}
    row["seed"] = str(seed)
    try:
        q = quantum_spec.with_seed(seed).build()
        r = classical_spec.with_seed(seed).build()
        if not isinstance(q, CssCode) or not isinstance(r, ClassicalCode):
            raise ValueError("a pair needs a quantum spec and a classical spec")
    except RuntimeError:
        q = r = None
    except (KeyError, TypeError, ValueError) as exc:
        what = f"missing parameter {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"sweep pair {label}, seed {seed}: {what}") from None
    if q is not None:
        key = (q.n, q.h_x.row_ints(), q.h_z.row_ints(), r.t, r.h.row_ints())
        if key not in done:
            _fill_sweep_row(row, q, r, cap)
            done[key] = {k: row[k] for k in SWEEP_HEADER[1:-1]}
        row.update(done[key])
    row["ms"] = str(int((time.monotonic() - start) * 1000)) if timing else "0"
    return [row[k] for k in SWEEP_HEADER]


def _fill_sweep_row(row: dict[str, str], q: CssCode, r: ClassicalCode, cap: int) -> None:
    """The row's balanced parameters; those that fail to compute stay NA."""
    try:
        balanced = distance_balance(q, r)
        row["n"] = str(balanced.n)
        row["K"] = str(quantum_dimension(balanced.code))
        row["locality"] = str(locality(balanced.code))
        try:
            row["dX"] = str(distance_obj(quantum_distance_x(balanced.code, cap)))
            row["dZ"] = str(distance_obj(quantum_distance_z(balanced.code, cap)))
        except CapExceeded:
            pass
        try:
            result = _check_balanced(q, r, balanced, cap)
            x_side, z_side = result.sides
            row["rhoX_num"], row["rhoX_den"] = (
                str(x_side.measured.numerator), str(x_side.measured.denominator))
            row["rhoZ_num"], row["rhoZ_den"] = (
                str(z_side.measured.numerator), str(z_side.measured.denominator))
            row["boundX_num"], row["boundX_den"] = (
                str(x_side.bound.numerator), str(x_side.bound.denominator))
            row["boundZ_num"], row["boundZ_den"] = (
                str(z_side.bound.numerator), str(z_side.bound.denominator))
            row["holdsX"] = "true" if x_side.holds else "false"
            row["holdsZ"] = "true" if z_side.holds else "false"
        except (CapExceeded, UndefinedSoundnessError):
            pass
    except (CapExceeded, ValueError, RuntimeError):
        pass


def _pair_specs(index: int, pair: dict) -> tuple[CodeSpec, CodeSpec]:
    """A pair's quantum and classical specs; ValueError naming the pair when
    either is missing or malformed."""
    try:
        return as_spec(pair["quantum"]), as_spec(pair["classical"])
    except KeyError as exc:
        raise ValueError(f"sweep pair {index} has no {exc} spec") from None
    except ValueError as exc:
        raise ValueError(f"sweep pair {index}: {exc}") from None


def _pair_seeds(pair: dict) -> Sequence[int]:
    """A pair's seeds: a list of ints, or {start, count} with int values as
    a range, so a huge count costs nothing until its rows run."""
    seeds = pair.get("seeds", [0])
    if _list_of(seeds, int):
        return seeds
    if (isinstance(seeds, dict) and set(seeds) == {"start", "count"}
            and _list_of(list(seeds.values()), int)):
        return range(seeds["start"], seeds["start"] + seeds["count"])
    raise ValueError(
        "sweep 'seeds' must be a list of ints or an object of int 'start' and 'count'"
    )


def cmd_sweep(args) -> int:
    try:
        job = json.loads(Path(args.job).read_text())
    except RecursionError:
        raise ValueError("sweep job JSON is nested too deeply") from None
    pairs = job.get("pairs", []) if isinstance(job, dict) else None
    if not isinstance(pairs, list) or not all(isinstance(p, dict) for p in pairs):
        raise ValueError("a sweep job must be an object whose 'pairs' is a list of objects")
    specs = [_pair_specs(i, pair) for i, pair in enumerate(pairs, 1)]
    seed_lists = [_pair_seeds(pair) for pair in pairs]
    rows = []
    done: dict = {}
    for i, ((q_spec, r_spec), seeds) in enumerate(zip(specs, seed_lists), 1):
        label = f"{i} ({q_spec.describe()} x {r_spec.describe()})"
        for seed in seeds:
            rows.append(_sweep_row(label, q_spec, r_spec, seed, args.cap, args.timing,
                                   done))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)
        writer.writerows(rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def cmd_table(args) -> int:
    record = param_table(args.scenario, n=args.n, t=args.t, l=args.l, alpha=args.alpha)
    if args.json:
        print(json.dumps(record))
        return EXIT_OK
    width = max(len(r) for r in record["rows"]) + 2
    for col in record["columns"]:
        print(f"## {col['label']}")
        for name in record["rows"]:
            cell = col["cells"].get(name)
            if cell is None:
                continue
            text = cell["formula"]
            if "value" in cell:
                text += f"  [= {cell['value']}]"
            if "exponent" in cell:
                text += f"  [exponent = {cell['exponent']}]"
            if cell["symbolic"]:
                text += "  (formula)"
            print(f"  {name:<{width}} {text}")
    return EXIT_OK


COMMANDS = {
    "gen": cmd_gen,
    "analyze": cmd_analyze,
    "balance": cmd_balance,
    "boundcheck": cmd_boundcheck,
    "sweep": cmd_sweep,
    "table": cmd_table,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cap < MIN_CAP:
        print(f"error: --cap must be at least {MIN_CAP}", file=sys.stderr)
        return EXIT_PARSE
    try:
        return COMMANDS[args.command](args)
    except DependentChecksError as exc:
        print(f"error: {exc} (pass --reduce-checks to row reduce first)", file=sys.stderr)
        return EXIT_DEPENDENT
    except UndefinedSoundnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
