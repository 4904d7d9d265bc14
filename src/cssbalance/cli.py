"""Command-line interface.

Commands: gen, analyze, balance, boundcheck, sweep, table. Exit codes are
a stable contract: 0 success (and, for boundcheck, all bounds hold),
2 parse or usage error, 3 enumeration cap exceeded, 4 dependent classical
checks without --reduce-checks, 5 undefined soundness.

A sweep row draws its two codes (``CodeSpec.sampler``; a code that does
not depend on the seed draws None) and looks each draw up in its pair's
store: only a new draw builds its code and takes its normal form, only a
pair class the run has not met is balanced and measured, and each check
matrix's soundness is measured once per run.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import re
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
from .chain import ClassicalCode, CssCode, _list_of, _normal_form
from .constructions import GENERATORS, CodeSpec, as_spec, param_table
from .gf2 import row_basis
from .io import load_code, save_classical, save_complex
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
MAX_DIGITS = 4300  # the most digits str() gives an int by default


def _fraction_arg(text: str) -> Fraction:
    """Fraction(text), refused when its numerator or denominator has more
    than MAX_DIGITS digits; a huge exponent is refused before it is applied."""
    exp = re.search(r"(?<=[eE])[-+]?\d+(?:_\d+)*(?=\s*\Z)", text)
    try:  # text with exponent 0 has the same syntax
        value = Fraction(text if exp is None else f"{text[:exp.start()]}0{text[exp.end():]}")
        e = int(exp.group()) if exp is not None and value else 0
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")
    # The terms of the nonzero mantissa have at most len(text) digits.
    if abs(e) <= MAX_DIGITS + len(text):
        value *= Fraction(10) ** e
        if max(abs(value.numerator), value.denominator) < 10 ** MAX_DIGITS:
            return value
    raise argparse.ArgumentTypeError(
        f"{text!r} has a numerator or denominator of more than {MAX_DIGITS} digits")


# gen's names for the families whose spec name is longer; gen also has q
# for q_complex from an --hhat file.
GEN_ALIASES = {"repmod": "rep_modified", "ldpc": "random_ldpc", "randomcss": "random_css"}
# The GENERATORS parameters gen fills from its options, not from its sizes,
# and the value each takes when it is not given. gen refuses an option the
# family does not read, --hhat included.
GEN_OPTIONS = {"row_w": 3, "col_w": 2, "seed": 0}


def build_parser() -> argparse.ArgumentParser:
    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument(
        "--cap", type=int, default=DEFAULT_CAP,
        help=f"enumeration budget per exhaustive scan (default 2^24, min {MIN_CAP})",
    )
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, help="seed for randomized families (default 0)")
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true", help="machine-readable output")
    alias = {family: name for name, family in GEN_ALIASES.items()}
    sizes = {alias.get(family, family): [n for n in names if n not in GEN_OPTIONS]
             for family, (_, names) in GENERATORS.items()}

    parser = argparse.ArgumentParser(
        prog="cssbalance",
        description="construct, balance and exactly analyze CSS codes over GF(2)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[cap, seed, as_json],
                       help="generate a code and write it to a file")
    p.add_argument("family", choices=[*sizes, "q"])
    p.add_argument("numbers", nargs="*", type=int, help="family sizes: " + "; ".join(
        " ".join([name, *names]) for name, names in sizes.items() if names))
    p.add_argument("--hhat", help="classical code file for the q family: a parity-check "
                                  "matrix or a 2-term complex JSON")
    p.add_argument("--row-w", type=int, help="ldpc row weight (default 3)")
    p.add_argument("--col-w", type=int, help="ldpc column weight cap (default 2)")
    p.add_argument("-o", "--out", required=True, help="output path")

    p = sub.add_parser("analyze", parents=[cap, as_json],
                       help="exact parameter report for a code file")
    p.add_argument("path")

    p = sub.add_parser("balance", parents=[cap, as_json],
                       help="balance a quantum code against a classical one")
    p.add_argument("quantum", help="CSS code file: a 3-term complex JSON")
    p.add_argument("classical",
                   help="classical code file: a parity-check matrix or a 2-term complex JSON")
    p.add_argument("-o", "--out", required=True, help="output path for the balanced complex")
    p.add_argument("--double", action="store_true", help="balance twice with an X/Z swap between")
    p.add_argument("--reduce-checks", action="store_true",
                   help="drop dependent classical checks instead of refusing them")

    p = sub.add_parser("boundcheck", parents=[cap, as_json],
                       help="verify the soundness lower bounds on a balanced pair")
    p.add_argument("quantum", help="CSS code file: a 3-term complex JSON")
    p.add_argument("classical",
                   help="classical code file: a parity-check matrix or a 2-term complex JSON")
    p.add_argument("--assume-rho", type=_fraction_arg, default=None,
                   help="use this soundness for both components instead of measuring")
    p.add_argument("--reduce-checks", action="store_true")

    p = sub.add_parser("sweep", parents=[cap], help="run a batch of balance+boundcheck instances")
    p.add_argument("job", help="JSON job file listing code spec pairs and seeds")
    p.add_argument("-o", "--out", required=True, help="output CSV path")
    p.add_argument("--timing", action="store_true",
                   help="fill the ms column with each row's wall time (makes output "
                        "nondeterministic); a row whose pair is isomorphic to one "
                        "that already ran in this sweep reuses that row's fields, "
                        "and a code drawn before in its pair is not built again, "
                        "so its ms is short")

    p = sub.add_parser("table", parents=[as_json], help="print a parameter formula sheet")
    p.add_argument("scenario")
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--alpha", type=_fraction_arg)
    return parser


def _spec_from_gen_args(args) -> CodeSpec:
    family = GEN_ALIASES.get(args.family, args.family)
    names = ("hhat",) if family == "q" else GENERATORS[family][1]
    given = {o: getattr(args, o) for o in (*GEN_OPTIONS, "hhat") if getattr(args, o) is not None}
    for option in given:
        if option not in names:
            raise ValueError(f"gen {args.family} does not take --{option.replace('_', '-')}")
    sizes = [n for n in names if n not in GEN_OPTIONS and n != "hhat"]
    if len(args.numbers) != len(sizes):
        counted = f"{len(sizes)} size{'s' if len(sizes) > 1 else ''}: {' '.join(sizes)}"
        raise ValueError(f"{args.family} takes {counted if sizes else 'no sizes'}")
    if family == "q":
        if not args.hhat:
            raise ValueError("the q family needs --hhat <matrix file>")
        return CodeSpec("q_complex", {"path": args.hhat})
    values = iter(args.numbers)
    return CodeSpec(family, {n: given.get(n, GEN_OPTIONS[n]) if n in GEN_OPTIONS else next(values)
                             for n in names})


def _report(code, cap: int, provenance: str, as_json: bool) -> CodeReport:
    """Analyze a classical or CSS code and print its report."""
    analyze = analyze_classical if isinstance(code, ClassicalCode) else analyze_quantum
    report = analyze(code, cap, provenance=provenance)
    print(json.dumps(report.to_obj()) if as_json else report.to_text())
    return report


def cmd_gen(args) -> int:
    spec = _spec_from_gen_args(args)
    try:
        code = spec.build()
    except RuntimeError as exc:  # a random generator found no valid draw
        raise ValueError(str(exc)) from None
    out = Path(args.out)
    if isinstance(code, ClassicalCode):
        save_classical(code, out)
    else:
        save_complex(code.complex, out)
    _report(code, args.cap, spec.describe(), args.json)
    return EXIT_OK


def cmd_analyze(args) -> int:
    code = load_code(Path(args.path))
    report = _report(code, args.cap, f"file:{args.path}", args.json)
    return EXIT_CAP if report.incomplete else EXIT_OK


def _load_pair(args) -> tuple[CssCode, ClassicalCode]:
    """The quantum and classical arguments, each read as analyze reads a
    file; ValueError naming the argument that holds the other kind."""
    q = load_code(Path(args.quantum))
    if not isinstance(q, CssCode):
        raise ValueError(f"the quantum argument {args.quantum} holds a classical code, "
                         "not a CSS code (a 3-term complex)")
    r = load_code(Path(args.classical))
    if not isinstance(r, ClassicalCode):
        raise ValueError(f"the classical argument {args.classical} holds a CSS code, "
                         "not a classical code (a matrix or a 2-term complex)")
    if args.reduce_checks and not r.independent_checks:
        r = ClassicalCode(row_basis(r.h))
    return q, r


def _params_obj(p) -> dict:
    return {"n": p.n, "K": p.dimension, "dX": distance_obj(p.d_x), "dZ": distance_obj(p.d_z)}


def cmd_balance(args) -> int:
    q, r = _load_pair(args)
    balanced = (double_balance if args.double else distance_balance)(q, r)
    code = balanced.code
    save_complex(code.complex, Path(args.out), balanced.block_layout)

    obj = {"out": str(args.out), "n": code.n, "nX": code.n_x, "nZ": code.n_z}
    try:
        qp = measured_quantum_params(q, args.cap)
        rp = measured_classical_params(r, args.cap)
        predict = predicted_double_params if args.double else predicted_params
        obj["predicted"], obj["measured"] = (
            _params_obj(predict(qp, rp)),
            _params_obj(measured_quantum_params(code, args.cap)))
    except CapExceeded as exc:
        obj["note"] = f"measurement skipped: {exc}"

    if args.json:
        print(json.dumps(obj))
        return EXIT_OK
    print(f"wrote {args.out}  (n={code.n}, nX={code.n_x}, nZ={code.n_z})")
    if "measured" in obj:
        predicted, measured = obj["predicted"], obj["measured"]
        print(f"{'':<12}{'predicted':>12}{'measured':>12}")
        for name, p in predicted.items():
            mark = "" if p == measured[name] else "   MISMATCH"
            print(f"{name:<12}{p:>12}{measured[name]:>12}{mark}")
    if "note" in obj:
        print(obj["note"])
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
        print(f"input component soundness: H_X code {result.rho_x}, H_Z code {result.rho_z}")
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
# The fields of a row other than seed and ms when none could be computed.
_NA_FIELDS = ("NA",) * (len(SWEEP_HEADER) - 2)


class _SweepCode:
    """One spec of a sweep pair and what the pair keeps of it: the normal
    form of the code of each draw seen so far, and the kind of code the
    spec builds. Its draw and build come from its sampler, taken at its
    first row: a spec that does not depend on the seed is built there,
    once, and its one draw is None."""

    __slots__ = ("spec", "draw", "build", "forms", "kind")

    def __init__(self, spec: CodeSpec):
        self.spec = spec
        self.draw = self.build = self.kind = None
        self.forms: dict = {}

    def at(self, seed: int) -> tuple:
        """The draw at seed, the normal form of its code, and the code when
        this call built it: None when the draw was seen before."""
        if self.draw is None:
            self.draw, self.build = self.spec.sampler()
        drawn = self.draw(seed)
        form = self.forms.get(drawn)
        if form is not None:
            return drawn, form, None
        code = self.build(drawn)
        self.kind = type(code)
        form = self.forms[drawn] = _normal_form(code)
        return drawn, form, code


def _sweep_row(label: str, sides: tuple[_SweepCode, _SweepCode], seed: int, cap: int,
               timing: bool, done: dict, memo: dict) -> list[str]:
    """One CSV row. A spec that cannot be built, an unreadable file
    included, is a ValueError naming the pair and the seed; a random
    generator that finds no valid draw gives an all-NA row. `done` maps
    each pair this sweep has computed, keyed by the normal forms of its two
    codes, to the list of its fields other than seed and ms; a pair
    isomorphic to one in it reuses that list. So only a draw the pair has
    not seen builds its code, and only a new class builds both codes and
    fills its fields, with the soundness memo of the sweep."""
    start = time.monotonic()
    try:
        drawn = [side.at(seed) for side in sides]
        if not (issubclass(sides[0].kind, CssCode) and issubclass(sides[1].kind, ClassicalCode)):
            raise ValueError("a pair needs a quantum spec and a classical spec")
    except RuntimeError:
        fields = _NA_FIELDS
    except (KeyError, TypeError, ValueError, OSError) as exc:
        what = f"missing parameter {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"sweep pair {label}, seed {seed}: {what}") from None
    else:
        key = (drawn[0][1], drawn[1][1])
        fields = done.get(key)
        if fields is None:
            q, r = (side.build(d) if code is None else code
                    for side, (d, _, code) in zip(sides, drawn))
            row = dict.fromkeys(SWEEP_HEADER[1:-1], "NA")
            _fill_sweep_row(row, q, r, cap, memo)
            fields = done[key] = list(row.values())
    ms = str(int((time.monotonic() - start) * 1000)) if timing else "0"
    return [str(seed), *fields, ms]


def _fill_sweep_row(row: dict[str, str], q: CssCode, r: ClassicalCode, cap: int,
                    memo: Optional[dict] = None) -> None:
    """The row's balanced parameters; those that fail to compute stay NA,
    and all of them when the pair cannot be balanced. memo, when given, is
    the soundness memo of _check_balanced."""
    try:
        balanced = distance_balance(q, r)
    except ValueError:
        return
    row["n"] = str(balanced.code.n)
    row["K"] = str(quantum_dimension(balanced.code))
    row["locality"] = str(locality(balanced.code))
    try:  # both distances need the same two scans, so the cap refuses both or neither
        row["dX"] = str(distance_obj(quantum_distance_x(balanced.code, cap)))
        row["dZ"] = str(distance_obj(quantum_distance_z(balanced.code, cap)))
    except CapExceeded:
        pass
    try:
        result = _check_balanced(q, r, balanced, cap, memo=memo)
        for side in result.sides:  # the row's keys, and so its order, are SWEEP_HEADER's
            for name, value in (("rho", side.measured), ("bound", side.bound)):
                row[f"{name}{side.side}_num"] = str(value.numerator)
                row[f"{name}{side.side}_den"] = str(value.denominator)
            row[f"holds{side.side}"] = "true" if side.holds else "false"
    except (CapExceeded, UndefinedSoundnessError):
        pass


def _pair_specs(index: int, pair: dict) -> tuple[CodeSpec, CodeSpec]:
    """A pair's quantum and classical specs; ValueError naming the pair when
    either is missing or malformed, or when it or an hhat spec nested in it
    sets a seed, which the pair's seeds give instead."""
    try:
        specs = as_spec(pair["quantum"]), as_spec(pair["classical"])
    except KeyError as exc:
        raise ValueError(f"sweep pair {index} has no {exc} spec") from None
    except ValueError as exc:
        raise ValueError(f"sweep pair {index}: {exc}") from None
    for spec in (pair["quantum"], pair["classical"]):
        while isinstance(spec, dict) and isinstance(spec.get("params"), dict):
            if "seed" in spec["params"]:  # the spec, then each nested hhat
                raise ValueError(f"sweep pair {index}: {spec.get('family')} sets 'seed'; "
                                 "a sweep takes each seed from the pair's 'seeds'")
            spec = spec["params"].get("hhat")
    return specs


def _pair_seeds(index: int, pair: dict) -> Sequence[int]:
    """A pair's seeds: a list of ints, or {start, count} with int values as
    a range, so a huge count costs nothing until its rows run. ValueError
    on anything else, naming the pair for a negative seed."""
    seeds = pair.get("seeds", [0])
    if (isinstance(seeds, dict) and set(seeds) == {"start", "count"}
            and _list_of(list(seeds.values()), int)):
        seeds = range(seeds["start"], seeds["start"] + seeds["count"])
    elif not _list_of(seeds, int):
        raise ValueError(
            "sweep 'seeds' must be a list of ints or an object of int 'start' and 'count'"
        )
    low = seeds.start if isinstance(seeds, range) else min(seeds, default=0)
    if low < 0:  # CPython would seed with its absolute value
        raise ValueError(f"sweep pair {index}: seed {low} is negative")
    return seeds


def cmd_sweep(args) -> int:
    try:
        job = json.loads(Path(args.job).read_text())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ValueError(f"sweep job {args.job} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError("sweep job JSON is nested too deeply") from None
    pairs = job.get("pairs", []) if isinstance(job, dict) else None
    if not isinstance(pairs, list) or not all(isinstance(p, dict) for p in pairs):
        raise ValueError("a sweep job must be an object whose 'pairs' is a list of objects")
    specs = [_pair_specs(i, pair) for i, pair in enumerate(pairs, 1)]
    seed_lists = [_pair_seeds(i, pair) for i, pair in enumerate(pairs, 1)]
    if Path(args.out).is_dir():  # "" names the current directory
        raise ValueError(f"cannot write {args.out!r}: it is a directory")
    if not Path(args.out).parent.is_dir():
        raise ValueError(f"cannot write {args.out}: its directory does not exist")
    rows = []
    # Both live for this call only: a later sweep in the same process
    # measures everything again.
    done: dict = {}
    memo: dict = {}
    for i, (pair_specs, seeds) in enumerate(zip(specs, seed_lists), 1):
        label = f"{i} ({pair_specs[0].describe()} x {pair_specs[1].describe()})"
        sides = (_SweepCode(pair_specs[0]), _SweepCode(pair_specs[1]))
        for seed in seeds:
            rows.append(_sweep_row(label, sides, seed, args.cap, args.timing, done, memo))
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
        for name, cell in col["cells"].items():
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: building one costs
    milliseconds, mostly argparse's per-argument set-up."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args, extra = _parser().parse_known_args(argv)
    flag = next((a for a in extra if a.startswith("-")), None)
    if flag is not None:  # named here: parse_args would also list the values after it
        print(f"error: {args.command} does not take {flag.split('=')[0]}", file=sys.stderr)
        return EXIT_PARSE
    if extra:
        _parser().error(f"unrecognized arguments: {' '.join(extra)}")
    if getattr(args, "cap", MIN_CAP) < MIN_CAP:
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
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
