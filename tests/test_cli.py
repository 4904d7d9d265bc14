import dataclasses
import hashlib
import json
import time

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from cssbalance import (
    BitMatrix, ChainComplex, ClassicalCode, CssCode, balance, cli, complex_to_json,
    constructions, double_balance, q_complex, rep_standard, write_pcm,
)
from cssbalance.cli import SWEEP_HEADER, main
from cssbalance.constructions import as_spec, random_css, random_ldpc
from cssbalance.oracle import DEFAULT_CAP
from naive import naive_complex_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_rep_writes_exact_pcm(tmp_path, capsys):
    out = tmp_path / "h3.pcm"
    code, stdout, _ = run(capsys, "gen", "rep", "3", "-o", str(out))
    assert code == 0
    assert out.read_text() == "2 3\n110\n011\n"
    assert "soundness" in stdout


def test_gen_q_complex_reports_dimension(tmp_path, capsys):
    pcm = tmp_path / "h3.pcm"
    run(capsys, "gen", "rep", "3", "-o", str(pcm))
    out = tmp_path / "q.json"
    code, stdout, _ = run(capsys, "gen", "q", "--hhat", str(pcm), "-o", str(out), "--json")
    assert code == 0
    report = json.loads(stdout)
    assert report["kind"] == "quantum"
    assert report["K"] == 1
    obj = json.loads(out.read_text())
    assert obj["spaces"] == [3, 6, 2]


def test_gen_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "rep", "1", "-o", str(tmp_path / "x"))
    assert code == 2
    assert "error" in err


def test_gen_oversized_code_is_a_parse_error(tmp_path, capsys):
    # 19999 x 20000 checks exceed the 2^28-entry limit: refused before the
    # matrix is built, and nothing is written.
    out = tmp_path / "x"
    code, _, err = run(capsys, "gen", "rep", "20000", "-o", str(out))
    assert code == 2
    assert "exceeds the generator limit of 268435456 entries" in err
    assert not out.exists()


def test_nonzero_composite_file_is_a_parse_error(tmp_path, capsys):
    h = BitMatrix.from_strings(["10"])
    bad, rep2, out = tmp_path / "bad.json", tmp_path / "rep2.pcm", tmp_path / "out.json"
    bad.write_text(complex_to_json(ChainComplex((1, 2, 1), (h.transpose(), h))))
    rep2.write_text(write_pcm(rep_standard(2).h))
    for argv in (["analyze", bad], ["balance", bad, rep2, "-o", out], ["boundcheck", bad, rep2]):
        code, _, err = run(capsys, *map(str, argv))
        assert (code, err) == (2, "error: invalid complex: nonzero composite at pair (d2, d1)\n")
    assert not out.exists()


def test_analyze_classical_json(tmp_path, capsys):
    pcm = tmp_path / "h3.pcm"
    run(capsys, "gen", "rep", "3", "-o", str(pcm))
    code, stdout, _ = run(capsys, "analyze", str(pcm), "--json")
    assert code == 0
    report = json.loads(stdout)
    assert report["kind"] == "classical"
    assert report["n"] == 3 and report["K"] == 1 and report["d"] == 3
    assert report["soundness"] == {"num": 3, "den": 2}


def test_analyze_quantum(tmp_path, capsys):
    pcm = tmp_path / "h3.pcm"
    run(capsys, "gen", "rep", "3", "-o", str(pcm))
    qfile = tmp_path / "q.json"
    run(capsys, "gen", "q", "--hhat", str(pcm), "-o", str(qfile))
    code, stdout, _ = run(capsys, "analyze", str(qfile), "--json")
    assert code == 0
    report = json.loads(stdout)
    assert report["dX"] == 2 and report["dZ"] == 3


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/file.pcm")
    assert code == 2


def test_analyze_cap_exceeded_partial_report(tmp_path, capsys):
    wide = tmp_path / "wide.pcm"
    wide.write_text("1 30\n" + "1" * 30 + "\n")
    code, stdout, _ = run(capsys, "analyze", str(wide), "--json", "--cap", "4096")
    assert code == 3
    report = json.loads(stdout)
    assert report["K"] == 29
    assert report["d"] == "cap-exceeded"


def test_main_calls_do_not_share_options(tmp_path, capsys):
    """main parses every call with one parser; what one call sets does not
    carry over to the next."""
    pcm = tmp_path / "rep13.pcm"
    assert run(capsys, "gen", "rep", "13", "-o", str(pcm))[0] == 0
    code, stdout, _ = run(capsys, "analyze", "--json", "--cap", "2048", str(pcm))
    assert code == 3 and json.loads(stdout)["soundness"] == "cap-exceeded"
    code, stdout, _ = run(capsys, "analyze", str(pcm))
    assert code == 0
    assert stdout.startswith("kind") and "13/72" in stdout
    assert cli.build_parser() is not cli.build_parser()


def test_round_trip_gen_analyze_identical_reports(tmp_path, capsys):
    pcm = tmp_path / "c.pcm"
    code, gen_out, _ = run(capsys, "gen", "ldpc", "6", "3", "--row-w", "3",
                           "--col-w", "2", "--seed", "5", "-o", str(pcm), "--json")
    assert code == 0
    code, an_out, _ = run(capsys, "analyze", str(pcm), "--json")
    assert code == 0
    gen_report = json.loads(gen_out)
    an_report = json.loads(an_out)
    gen_report.pop("provenance")
    an_report.pop("provenance")
    assert gen_report == an_report


def test_balance_end_to_end(tmp_path, capsys):
    pcm = tmp_path / "h3.pcm"
    run(capsys, "gen", "rep", "3", "-o", str(pcm))
    qfile = tmp_path / "q.json"
    run(capsys, "gen", "q", "--hhat", str(pcm), "-o", str(qfile))
    rep2 = tmp_path / "rep2.pcm"
    run(capsys, "gen", "rep", "2", "-o", str(rep2))
    out = tmp_path / "balanced.json"
    code, stdout, _ = run(capsys, "balance", str(qfile), str(rep2), "-o", str(out), "--json")
    assert code == 0
    record = json.loads(stdout)
    assert record["predicted"] == {"n": 14, "K": 1, "dX": 4, "dZ": 3}
    assert record["measured"] == record["predicted"]
    written = json.loads(out.read_text())
    assert "block_layout" in written
    code, stdout, _ = run(capsys, "analyze", str(out), "--json")
    assert code == 0
    assert json.loads(stdout)["dX"] == 4


def test_balance_double(tmp_path, capsys):
    pcm = tmp_path / "h3.pcm"
    run(capsys, "gen", "rep", "3", "-o", str(pcm))
    qfile = tmp_path / "q.json"
    run(capsys, "gen", "q", "--hhat", str(pcm), "-o", str(qfile))
    rep2 = tmp_path / "rep2.pcm"
    run(capsys, "gen", "rep", "2", "-o", str(rep2))
    out = tmp_path / "double.json"
    code, stdout, _ = run(capsys, "balance", str(qfile), str(rep2), "-o", str(out),
                          "--double", "--json")
    assert code == 0
    record = json.loads(stdout)
    assert record["measured"] == {"n": 40, "K": 1, "dX": 4, "dZ": 6}
    assert record["measured"] == record["predicted"]
    # Listed highest grade first, like every other complex the CLI writes.
    assert json.loads(out.read_text())["labels"] == ["C2", "C1", "C0"]


def test_balance_double_then_analyze_at_moderate_size(tmp_path, capsys):
    # A few hundred columns: the pcm blocks are written, parsed back and
    # eliminated, and every distance and soundness scan is over the cap.
    pcm = tmp_path / "rep4.pcm"
    assert run(capsys, "gen", "rep", "4", "-o", str(pcm))[0] == 0
    qfile = tmp_path / "q.json"
    assert run(capsys, "gen", "q", "--hhat", str(pcm), "-o", str(qfile))[0] == 0
    out = tmp_path / "double.json"
    code, stdout, _ = run(capsys, "balance", str(qfile), str(pcm), "-o", str(out),
                          "--double", "--json")
    assert code == 0
    record = json.loads(stdout)
    assert (record["n"], record["nX"], record["nZ"]) == (284, 171, 160)
    assert record["note"].startswith("measurement skipped")
    assert record["note"].endswith("cap is 2^24")
    # The file holds the bytes json.dumps(obj, indent=1) writes, plus a newline.
    balanced = double_balance(q_complex(rep_standard(4).h), rep_standard(4))
    reference = naive_complex_json(balanced.code.complex, balanced.block_layout) + "\n"
    assert out.read_bytes() == reference.encode()
    code, stdout, _ = run(capsys, "analyze", str(out), "--json")
    assert code == 3
    report = json.loads(stdout)
    assert (report["n"], report["K"], report["locality"]) == (284, 1, 6)
    assert report["dX"] == report["dZ"] == "cap-exceeded"
    assert report["soundness"] == "cap-exceeded"


def test_balance_dependent_checks_exit_4(tmp_path, capsys):
    pcm = tmp_path / "h3.pcm"
    run(capsys, "gen", "rep", "3", "-o", str(pcm))
    qfile = tmp_path / "q.json"
    run(capsys, "gen", "q", "--hhat", str(pcm), "-o", str(qfile))
    dup = tmp_path / "dup.pcm"
    dup.write_text("2 3\n110\n110\n")
    out = tmp_path / "b.json"
    code, _, err = run(capsys, "balance", str(qfile), str(dup), "-o", str(out))
    assert code == 4
    assert "dependent" in err
    code, _, _ = run(capsys, "balance", str(qfile), str(dup), "-o", str(out),
                     "--reduce-checks")
    assert code == 0


def test_boundcheck_holds_exit_0(tmp_path, capsys):
    pcm = tmp_path / "h3.pcm"
    run(capsys, "gen", "rep", "3", "-o", str(pcm))
    qfile = tmp_path / "q.json"
    run(capsys, "gen", "q", "--hhat", str(pcm), "-o", str(qfile))
    rep2 = tmp_path / "rep2.pcm"
    run(capsys, "gen", "rep", "2", "-o", str(rep2))
    code, stdout, _ = run(capsys, "boundcheck", str(qfile), str(rep2), "--json")
    assert code == 0
    sides = json.loads(stdout)
    assert [s["side"] for s in sides] == ["X", "Z"]
    assert all(s["holds"] for s in sides)
    assert sides[0]["measured"] == {"num": 7, "den": 6}
    assert sides[0]["bound"] == {"num": 7, "den": 12}


def _pair_files(tmp_path, capsys):
    """q(rep3) as complex JSON, rep2 as a matrix file and as a 2-term
    complex JSON."""
    pcm, qfile = tmp_path / "h3.pcm", tmp_path / "q.json"
    run(capsys, "gen", "rep", "3", "-o", str(pcm))
    run(capsys, "gen", "q", "--hhat", str(pcm), "-o", str(qfile))
    rep2, rep2_json = tmp_path / "rep2.pcm", tmp_path / "rep2.json"
    run(capsys, "gen", "rep", "2", "-o", str(rep2))
    rep2_json.write_text(complex_to_json(rep_standard(2).complex))
    return qfile, rep2, rep2_json


@pytest.mark.parametrize("command", ["balance", "boundcheck"])
def test_pair_commands_read_files_as_analyze_does(tmp_path, capsys, command):
    """A 2-term complex JSON is a classical code for balance and
    boundcheck, as it is for analyze: same output as its matrix file."""
    qfile, rep2, rep2_json = _pair_files(tmp_path, capsys)
    outputs = []
    for classical in (rep2, rep2_json):
        out = tmp_path / f"{classical.stem}-{classical.suffix[1:]}.out.json"
        extra = ["-o", str(out)] if command == "balance" else []
        code, stdout, err = run(capsys, command, "--json", str(qfile), str(classical), *extra)
        assert (code, err) == (0, "")
        record = json.loads(stdout)
        if extra:  # balance names its output file
            assert record.pop("out") == str(out)
        outputs.append((record, out.read_text() if extra else None))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["balance", "boundcheck"])
def test_pair_commands_name_an_argument_of_the_wrong_kind(tmp_path, capsys, command):
    qfile, rep2, rep2_json = _pair_files(tmp_path, capsys)
    out = tmp_path / "out.json"
    extra = ["-o", str(out)] if command == "balance" else []
    cases = [
        ((rep2, rep2), f"error: the quantum argument {rep2} holds a classical code, "
                       "not a CSS code (a 3-term complex)\n"),
        ((rep2_json, rep2), f"error: the quantum argument {rep2_json} holds a classical "
                            "code, not a CSS code (a 3-term complex)\n"),
        ((qfile, qfile), f"error: the classical argument {qfile} holds a CSS code, "
                         "not a classical code (a matrix or a 2-term complex)\n"),
    ]
    for (quantum, classical), message in cases:
        code, stdout, err = run(capsys, command, str(quantum), str(classical), *extra)
        assert (code, stdout, err) == (2, "", message)
    assert not out.exists()


def test_boundcheck_assume_rho_warning(tmp_path, capsys):
    pcm = tmp_path / "h3.pcm"
    run(capsys, "gen", "rep", "3", "-o", str(pcm))
    qfile = tmp_path / "q.json"
    run(capsys, "gen", "q", "--hhat", str(pcm), "-o", str(qfile))
    rep2 = tmp_path / "rep2.pcm"
    run(capsys, "gen", "rep", "2", "-o", str(rep2))
    code, stdout, err = run(capsys, "boundcheck", str(qfile), str(rep2),
                            "--assume-rho", "5/1", "--json")
    assert "warning" in err and "min(2n/nZ, 2n/nX)" in err
    sides = json.loads(stdout)
    assert sides[0]["bound"] == {"num": 7, "den": 12}  # clamp saturates
    # A defined soundness is positive: both bounds would come out negative.
    for rho in ("-1", "0"):
        code, stdout, err = run(capsys, "boundcheck", str(qfile), str(rep2),
                                "--assume-rho", rho)
        assert code == 2 and stdout == ""
        assert err.startswith("error:") and "must be positive" in err


def test_huge_exponents_are_refused_at_parse_time(tmp_path, capsys, monkeypatch):
    """A numerator or denominator past 4300 digits could not be printed,
    and a huge exponent would take unbounded time to apply: both are usage
    errors before any file is read or any work is done."""
    pcm = tmp_path / "h3.pcm"
    run(capsys, "gen", "rep", "3", "-o", str(pcm))
    qfile = tmp_path / "q.json"
    run(capsys, "gen", "q", "--hhat", str(pcm), "-o", str(qfile))
    rep2 = tmp_path / "rep2.pcm"
    run(capsys, "gen", "rep", "2", "-o", str(rep2))
    calls = []
    bound_check = cli.bound_check
    monkeypatch.setattr(cli, "bound_check", lambda *a, **k: (calls.append(a), bound_check(*a, **k))[1])
    for argv in (["boundcheck", str(qfile), str(rep2), "--assume-rho", "1e999999999"],
                 ["table", "exampleParams", "--alpha", "1e-999999999"],
                 ["boundcheck", str(qfile), str(rep2), "--assume-rho", "1e5000"]):
        start = time.monotonic()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and time.monotonic() - start < 2
        err = capsys.readouterr().err
        assert "more than 4300 digits" in err and "Traceback" not in err
    assert calls == []
    decimal, ratio = (run(capsys, "boundcheck", str(qfile), str(rep2), "--assume-rho", rho)
                      for rho in ("5e-1", "1/2"))
    assert decimal == ratio and decimal[0] == 0 and len(calls) == 2


def test_boundcheck_undefined_soundness_exit_5(tmp_path, capsys):
    # A quantum code with no X checks has no X-component soundness.
    qfile = tmp_path / "q.json"
    qfile.write_text(json.dumps({
        "spaces": [1, 2, 0],
        "diffs": ["2 1\n1\n1\n", "0 2\n"],
        "labels": ["C2", "C1", "C0"],
    }))
    rep2 = tmp_path / "rep2.pcm"
    run(capsys, "gen", "rep", "2", "-o", str(rep2))
    code, _, err = run(capsys, "boundcheck", str(qfile), str(rep2))
    assert code == 5
    assert "side" in err
    # Undefined input soundness is reported before dependent checks are.
    dependent = tmp_path / "dependent.pcm"
    dependent.write_text("2 2\n11\n11\n")
    code, _, err = run(capsys, "boundcheck", str(qfile), str(dependent))
    assert code == 5
    assert "side" in err


def test_sweep_deterministic_and_empty(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "pairs": [{
            "quantum": {"family": "random_css", "params": {"n": 4, "n_x": 1, "n_z": 1}},
            "classical": {"family": "random_ldpc",
                          "params": {"t": 4, "s": 2, "row_w": 2, "col_w": 2}},
            "seeds": {"start": 0, "count": 4},
        }]
    }))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run(capsys, "sweep", str(job), "-o", str(out1))[0] == 0
    assert run(capsys, "sweep", str(job), "-o", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().split("\n")
    assert lines[0] == ",".join(SWEEP_HEADER)
    assert len(lines) == 5
    assert all(line.split(",")[14] == "true" for line in lines[1:])  # holdsX

    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"pairs": []}))
    out3 = tmp_path / "c.csv"
    assert run(capsys, "sweep", str(empty), "-o", str(out3))[0] == 0
    assert out3.read_text().strip() == ",".join(SWEEP_HEADER)


def test_sweep_into_a_missing_directory_runs_no_row(tmp_path, capsys, monkeypatch):
    """A missing directory, an existing one and the empty path (the current
    directory) are all refused before any row runs, and nothing is made."""
    monkeypatch.chdir(tmp_path)
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"pairs": [{
        "quantum": {"family": "random_css", "params": {"n": 4, "n_x": 1, "n_z": 1}},
        "classical": {"family": "rep", "params": {"l": 2}},
    }]}))
    calls = counted_fills(monkeypatch)
    missing = str(tmp_path / "no_such_dir" / "out.csv")
    for out, named in ((missing, missing), (".", "'.'"), (str(tmp_path), repr(str(tmp_path))),
                       ("", "''")):
        code, stdout, err = run(capsys, "sweep", str(job), "-o", out)
        assert (code, stdout, calls) == (2, "", [])
        assert err.startswith("error:") and named in err
        assert list(tmp_path.iterdir()) == [job]


def test_sweep_timing_fills_only_the_ms_column(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"pairs": [{
        "quantum": {"family": "random_css", "params": {"n": 4, "n_x": 1, "n_z": 1}},
        "classical": {"family": "random_ldpc",
                      "params": {"t": 4, "s": 2, "row_w": 2, "col_w": 2}},
        "seeds": [0, 1, 2, 1],
    }]}))
    plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
    assert run(capsys, "sweep", str(job), "-o", str(plain))[0] == 0
    assert run(capsys, "sweep", str(job), "-o", str(timed), "--timing")[0] == 0
    plain_rows = [line.split(",") for line in plain.read_text().splitlines()]
    timed_rows = [line.split(",") for line in timed.read_text().splitlines()]
    ms = SWEEP_HEADER.index("ms")
    assert plain_rows[0] == timed_rows[0] == SWEEP_HEADER
    assert len(timed_rows) == 5
    for p, t in zip(plain_rows[1:], timed_rows[1:]):
        assert p[:ms] + p[ms + 1:] == t[:ms] + t[ms + 1:]
        assert t[ms].isdigit(), t  # a non-negative integer


def sweep_lines(capsys, tmp_path, pairs):
    """The data lines of the CSV a sweep over pairs writes."""
    job = tmp_path / "job.json"
    out = tmp_path / "out.csv"
    job.write_text(json.dumps({"pairs": pairs}))
    assert run(capsys, "sweep", str(job), "-o", str(out))[0] == 0
    return out.read_text().split("\n")[1:-1]


def test_sweep_computes_each_distinct_pair_once(tmp_path, capsys, monkeypatch):
    """A sweep computes each pair once per isomorphism class: seeds that
    draw a pair isomorphic to one this sweep already ran reuse that row's
    fields, and each row is still the row a one-seed job gives. The two
    codes drawn here are not isomorphic."""
    quantum = {"family": "random_css", "params": {"n": 4, "n_x": 1, "n_z": 1}}
    classical = {"family": "rep", "params": {"l": 2}}
    seeds = [1, 1, 2, 1, 2]
    distinct = {random_css(4, 1, 1, seed) for seed in seeds}
    assert len(distinct) == 2
    calls = []
    fill = cli._fill_sweep_row
    monkeypatch.setattr(cli, "_fill_sweep_row", lambda *a: (calls.append(a), fill(*a)))
    lines = sweep_lines(capsys, tmp_path, [
        {"quantum": quantum, "classical": classical, "seeds": seeds}])
    assert len(calls) == len(distinct)
    for seed, line in zip(seeds, lines):
        alone = sweep_lines(capsys, tmp_path, [
            {"quantum": quantum, "classical": classical, "seeds": [seed]}])
        assert [line] == alone, seed


def test_sweep_of_a_seeded_q_complex_is_its_one_seed_jobs(tmp_path, capsys):
    """Both codes of the pair are drawn per seed, the quantum one through a
    q_complex hhat: the sweep's rows are the rows of its one-seed jobs."""
    def ldpc(s):
        return {"family": "random_ldpc", "params": {"t": 3, "s": s, "row_w": 2, "col_w": 2}}

    pair = {"quantum": {"family": "q_complex", "params": {"hhat": ldpc(1)}}, "classical": ldpc(2)}
    seeds = [0, 3, 1, 3, 2, 5, 0, 4]
    lines = sweep_lines(capsys, tmp_path, [{**pair, "seeds": seeds}])
    assert len({line.split(",", 1)[1] for line in lines}) > 2  # classes, not just seeds
    alone = [line for seed in seeds
             for line in sweep_lines(capsys, tmp_path, [{**pair, "seeds": [seed]}])]
    assert lines == alone


def test_balance_builds_each_kernel_basis_once(tmp_path, capsys, monkeypatch):
    """One balance of q(rep3) x rep4 builds no kernel basis twice: the
    X-distance's kernel scan and the Z-distance's syndrome search both ask
    for the balanced H_Z's, and the second gets the kept one."""
    qfile, rfile = tmp_path / "q.json", tmp_path / "r.pcm"
    qfile.write_text(complex_to_json(q_complex(rep_standard(3).h).complex))
    rfile.write_text(write_pcm(rep_standard(4).h))
    asked = []
    kernel_basis = BitMatrix.kernel_basis

    def spy(m):
        built = m._echelon is None or len(m._echelon) < 4
        asked.append((m, built))
        return kernel_basis(m)

    monkeypatch.setattr(BitMatrix, "kernel_basis", spy)
    code, out, _ = run(capsys, "balance", str(qfile), str(rfile), "-o", str(tmp_path / "b.json"))
    assert code == 0 and "MISMATCH" not in out
    built = [id(m) for m, fresh in asked if fresh]
    assert len(built) == len(set(built)) == len({id(m) for m, _ in asked})
    assert len(asked) > len(built)


def test_sweep_builds_a_seed_independent_quantum_spec_once(tmp_path, capsys, monkeypatch):
    """A q_complex spec over a seed-independent inner spec is built once per
    pair; over a random inner spec, once per seed."""
    builds = []
    build = constructions.q_complex
    monkeypatch.setattr(constructions, "q_complex", lambda h: (builds.append(h), build(h))[1])
    ldpc = {"t": 4, "s": 2, "row_w": 2, "col_w": 2}
    for hhat, count in (({"family": "rep", "params": {"l": 3}}, 1),
                        ({"family": "random_ldpc", "params": ldpc}, 3)):
        builds.clear()
        lines = sweep_lines(capsys, tmp_path, [
            {"quantum": {"family": "q_complex", "params": {"hhat": hhat}},
             "classical": {"family": "rep", "params": {"l": 2}}, "seeds": [0, 1, 2]}])
        assert len(lines) == 3 and "NA" not in ",".join(lines)
        assert len(builds) == count, hhat


def test_sweep_pairs_differ_by_length_as_well_as_check_rows(tmp_path, capsys):
    """An appended all-zero column keeps every packed check row the same,
    but the pair is another code: its rows differ in n and K."""
    h_x = BitMatrix(1, 4, [0b1111])
    h_z = BitMatrix(2, 4, [0b0011, 0b1100])
    for name, cols in (("q4.json", 4), ("q5.json", 5)):
        code = CssCode.from_check_matrices(BitMatrix(1, cols, h_x.row_ints()),
                                           BitMatrix(2, cols, h_z.row_ints()))
        (tmp_path / name).write_text(complex_to_json(code.complex))
    (tmp_path / "r3.pcm").write_text("2 3\n110\n011\n")
    (tmp_path / "r4.pcm").write_text("2 4\n1100\n0110\n")

    def pair(quantum, classical):
        return {"quantum": {"family": "from_file", "params": {"path": str(tmp_path / quantum)}},
                "classical": {"family": "from_file",
                              "params": {"path": str(tmp_path / classical)}}}

    lines = sweep_lines(capsys, tmp_path, [
        pair("q4.json", "r3.pcm"), pair("q5.json", "r3.pcm"), pair("q4.json", "r4.pcm")])
    n_k = [tuple(line.split(",")[1:3]) for line in lines]
    assert n_k == [("14", "1"), ("17", "2"), ("18", "2")]


def permuted(m, rows, cols):
    """m with row rows[i] moved to row i and column c moved to column cols[c]."""
    return BitMatrix(m.rows, m.cols, [
        sum((m.row_ints()[r] >> c & 1) << cols[c] for c in range(m.cols)) for r in rows])


def filled(q, r):
    """The fields _fill_sweep_row fills for the pair."""
    row = {k: "NA" for k in SWEEP_HEADER}
    cli._fill_sweep_row(row, q, r, DEFAULT_CAP)
    return row


@st.composite
def permuted_pairs(draw):
    """A small random pair and a copy with its qubits and bits relabelled
    and the rows of H_X, H_Z and H reordered. Both balanced check ranks
    stay at most 14, so every soundness scan is small."""
    n, t = draw(st.integers(3, 4)), draw(st.integers(2, 3))
    s = draw(st.integers(1, min(t - 1, (14 - t) // n)))
    n_z = draw(st.integers(1, min(n - 1, (14 - n * s) // t)))
    n_x = draw(st.integers(1, n - n_z))
    col_w = draw(st.integers(1, s))
    row_w = draw(st.integers(1, min(t, t * col_w // s)))
    try:
        q = random_css(n, n_x, n_z, seed=draw(st.integers(0, 1 << 16)))
        r = random_ldpc(t, s, row_w, col_w, seed=draw(st.integers(0, 1 << 16)))
    except RuntimeError:  # no valid draw with these sizes
        reject()
    qubits = draw(st.permutations(range(n)))
    q2 = CssCode.from_check_matrices(
        permuted(q.h_x, draw(st.permutations(range(n_x))), qubits),
        permuted(q.h_z, draw(st.permutations(range(n_z))), qubits))
    r2 = ClassicalCode(permuted(r.h, draw(st.permutations(range(s))),
                                draw(st.permutations(range(t)))))
    return (q, r), (q2, r2)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(permuted_pairs())
def test_sweep_fields_are_invariant_under_isomorphism(pairs):
    """Every field of a sweep row is a function of the pair up to a
    permutation of the bits of either code and of the rows within each
    check block, which is what lets isomorphic pairs share a row."""
    (q, r), (q2, r2) = pairs
    assert filled(q, r) == filled(q2, r2)


def file_pair(tmp_path, name, q, r):
    """A sweep pair of from_file specs for q and r, written under name."""
    (tmp_path / f"{name}.json").write_text(complex_to_json(q.complex))
    (tmp_path / f"{name}.pcm").write_text(write_pcm(r.h))
    return {"quantum": {"family": "from_file",
                        "params": {"path": str(tmp_path / f"{name}.json")}},
            "classical": {"family": "from_file",
                          "params": {"path": str(tmp_path / f"{name}.pcm")}}}


def counted_fills(monkeypatch):
    calls = []
    fill = cli._fill_sweep_row
    monkeypatch.setattr(cli, "_fill_sweep_row", lambda *a: (calls.append(a), fill(*a)))
    return calls


def test_sweep_isomorphic_pairs_share_a_computation(tmp_path, capsys, monkeypatch):
    """A pair and a copy with relabelled bits and reordered check rows have
    other check rows but one isomorphism class: one computation, and the
    same row apart from the seed."""
    q, r = random_css(5, 1, 2, seed=7), random_ldpc(4, 2, 2, 2, seed=1)
    q2 = CssCode.from_check_matrices(permuted(q.h_x, [0], [4, 2, 0, 1, 3]),
                                     permuted(q.h_z, [1, 0], [4, 2, 0, 1, 3]))
    r2 = ClassicalCode(permuted(r.h, [1, 0], [3, 0, 2, 1]))
    assert q2 != q and r2 != r
    calls = counted_fills(monkeypatch)
    lines = sweep_lines(capsys, tmp_path, [
        {**file_pair(tmp_path, "a", q, r), "seeds": [0]},
        {**file_pair(tmp_path, "b", q2, r2), "seeds": [1]}])
    assert len(calls) == 1
    assert lines[0].split(",")[0] == "0" and lines[1].split(",")[0] == "1"
    assert lines[0].split(",")[1:] == lines[1].split(",")[1:]
    assert "NA" not in lines[0]


def test_sweep_zero_check_row_keeps_codes_apart(tmp_path, capsys, monkeypatch):
    """An all-zero check row changes no column, but the code has one more
    check: an extra zero H_Z row changes the measured soundness, and an
    extra zero H row on a checkless classical code makes its checks
    dependent. Each pair gets its own computation and its own row."""
    h_x = BitMatrix(1, 4, [0b1111])
    q = CssCode.from_check_matrices(h_x, BitMatrix(2, 4, [0b0011, 0b1100]))
    q0 = CssCode.from_check_matrices(h_x, BitMatrix(3, 4, [0b0011, 0b1100, 0]))
    rep2 = ClassicalCode(BitMatrix(1, 2, [0b11]))
    none, zero = ClassicalCode(BitMatrix(0, 2)), ClassicalCode(BitMatrix(1, 2, [0]))
    calls = counted_fills(monkeypatch)
    lines = sweep_lines(capsys, tmp_path, [
        file_pair(tmp_path, "q", q, rep2), file_pair(tmp_path, "q0", q0, rep2),
        file_pair(tmp_path, "none", q, none), file_pair(tmp_path, "zero", q, zero)])
    assert len(calls) == 4
    assert lines[0] != lines[1]
    assert "NA" not in lines[2]
    assert lines[3] == ",".join(["0"] + ["NA"] * 15 + ["0"])


def test_sweep_xz_swap_keeps_codes_apart(tmp_path, capsys, monkeypatch):
    """A code and its X/Z swap have the same check rows in other roles;
    with n_X != n_Z they are different codes with different rows."""
    h_x, h_z = BitMatrix(1, 4, [0b1111]), BitMatrix(2, 4, [0b0011, 0b1100])
    rep3 = ClassicalCode(BitMatrix(2, 3, [0b011, 0b110]))
    calls = counted_fills(monkeypatch)
    lines = sweep_lines(capsys, tmp_path, [
        file_pair(tmp_path, "xz", CssCode.from_check_matrices(h_x, h_z), rep3),
        file_pair(tmp_path, "zx", CssCode.from_check_matrices(h_z, h_x), rep3)])
    assert len(calls) == 2
    assert lines[0].split(",")[1] == "14" and lines[1].split(",")[1] == "16"


def counted_soundness(monkeypatch):
    """The codes whose soundness the balance module measures from now on."""
    calls = []
    measure = balance.classical_soundness
    monkeypatch.setattr(balance, "classical_soundness",
                        lambda code, cap: (calls.append(code), measure(code, cap))[1])
    return calls


# Pairs whose rows share check matrices but not classes: the input codes
# of a quantum spec against two classical codes. The rows of (4, 1, 1)
# codes all have one soundness per classical code, those of (5, 1, 2)
# codes do not, so a memo that mixed up matrices would change a row.
MEMO_SHAPES = [(4, 1, 1), (5, 1, 2)]
MEMO_PAIRS = [{"quantum": {"family": "random_css", "params": {"n": n, "n_x": n_x, "n_z": n_z}},
               "classical": {"family": "rep", "params": {"l": l}},
               "seeds": {"start": 0, "count": 40}}
              for n, n_x, n_z in MEMO_SHAPES for l in (2, 3)]


def test_sweep_soundness_memo_keeps_every_row(tmp_path, capsys, monkeypatch):
    """With the soundness memo a sweep writes, row by row, what a memo-free
    fill of each row's pair gives, and makes fewer soundness scans than
    the four each filled class would make without it."""
    want = []
    for shape in MEMO_SHAPES:
        for l in (2, 3):
            for seed in range(40):
                row = dict.fromkeys(SWEEP_HEADER[1:-1], "NA")
                cli._fill_sweep_row(row, random_css(*shape, seed), rep_standard(l), DEFAULT_CAP)
                want.append(",".join([str(seed), *row.values(), "0"]))
    fills, measured = counted_fills(monkeypatch), counted_soundness(monkeypatch)
    assert sweep_lines(capsys, tmp_path, MEMO_PAIRS) == want
    assert "NA" not in ",".join(want)
    assert 0 < len(measured) < 4 * len(fills)


def test_sweep_soundness_memo_lives_for_one_run(tmp_path, capsys, monkeypatch):
    """Nothing outlives a sweep: a second run of the job in this process
    measures as many soundnesses as the first."""
    measured = counted_soundness(monkeypatch)
    first = sweep_lines(capsys, tmp_path, MEMO_PAIRS)
    count = len(measured)
    measured.clear()
    assert sweep_lines(capsys, tmp_path, MEMO_PAIRS) == first
    assert len(measured) == count > 0


def test_sweep_builds_each_draw_once(tmp_path, capsys, monkeypatch):
    """A pair builds the code of each distinct quantum draw once: repeated
    seeds, and seeds that draw what an earlier seed drew, cost only the
    draw."""
    built = []
    sampler = constructions.CodeSpec.sampler
    quantum = as_spec(MEMO_PAIRS[0]["quantum"])

    def counted(spec):
        draw, build = sampler(spec)
        if spec != quantum:
            return draw, build
        return draw, lambda drawn: (built.append(drawn), build(drawn))[1]

    monkeypatch.setattr(constructions.CodeSpec, "sampler", counted)
    seeds = [*range(40), 3, 0, 3]
    draws = {quantum.sampler()[0](seed) for seed in seeds}
    built.clear()
    lines = sweep_lines(capsys, tmp_path, [{**MEMO_PAIRS[0], "seeds": seeds}])
    assert len(lines) == len(seeds) and len(built) == len(set(built)) == len(draws) < 40


def test_sweep_malformed_job_is_a_parse_error(tmp_path, capsys):
    job = tmp_path / "job.json"
    out = tmp_path / "out.csv"
    spec = {"quantum": {"family": "random_css", "params": {"n": 4, "n_x": 1, "n_z": 1}},
            "classical": {"family": "rep", "params": {"l": 2}}}
    bad_seeds = (3, "0", None, [0, "1"], [True], [1.0], {"start": 0},
                 {"start": 0, "count": 2.0}, {"start": False, "count": 1},
                 {"start": 0, "count": 1, "step": 2})
    bad_pairs = ({"classical": spec["classical"]}, {"quantum": spec["quantum"]},
                 {**spec, "quantum": {"family": "nope"}},
                 {**spec, "quantum": {"params": {"n": 4, "n_x": 1, "n_z": 1}}},
                 {**spec, "quantum": "random_css"},
                 {**spec, "classical": {"family": "rep", "params": [["l", 2]]}})
    for bad in ([], {"pairs": {}}, {"pairs": [[]]}, {"pairs": ["x"]},
                *({"pairs": [{**spec, "seeds": [0]}, {**spec, "seeds": seeds}]}
                  for seeds in bad_seeds),
                *({"pairs": [{**spec, "seeds": [0]}, pair]} for pair in bad_pairs)):
        job.write_text(json.dumps(bad))
        code, _, err = run(capsys, "sweep", str(job), "-o", str(out))
        assert code == 2, bad
        assert "error" in err
    assert not out.exists()


def test_gen_refuses_a_negative_seed(tmp_path, capsys):
    """CPython seeds with |seed|: --seed -4 would write the file of --seed 4."""
    out = tmp_path / "h.pcm"
    code, _, err = run(capsys, "gen", "ldpc", "6", "3", "--seed", "-4", "-o", str(out))
    assert code == 2
    assert err == "error: seed must be >= 0, got -4\n"
    assert not out.exists()
    assert run(capsys, "gen", "ldpc", "6", "3", "--seed", "4", "-o", str(out))[0] == 0


def test_sweep_refuses_before_any_row_runs(tmp_path, capsys, monkeypatch):
    """A negative seed, from a list or the start of a range, a spec
    parameter the family does not read, and a seed set in a spec, a nested
    hhat spec included, which the pair's seeds would silently override,
    are each exit 2 naming the pair, with no row run and no CSV written."""
    job = tmp_path / "job.json"
    out = tmp_path / "out.csv"
    css = {"family": "random_css", "params": {"n": 4, "n_x": 1, "n_z": 1}}
    rep = {"family": "rep", "params": {"l": 2}}
    good = {"quantum": css, "classical": rep, "seeds": [0, 1]}
    monkeypatch.setattr(cli, "_sweep_row", lambda *a: pytest.fail("a row ran"))
    for pair, message in (
            ({**good, "seeds": [3, -3]}, "sweep pair 2: seed -3 is negative"),
            ({**good, "seeds": {"start": -1, "count": 3}}, "sweep pair 2: seed -1 is negative"),
            ({**good, "quantum": {**css, "params": {**css["params"], "nx": 3}}},
             "sweep pair 2: random_css does not take parameter 'nx'"),
            ({**good, "classical": {**rep, "params": {"l": 2, "seed": 5}}},
             "sweep pair 2: rep does not take parameter 'seed'"),
            ({**good, "classical": {"family": "hamming74", "params": {"l": 9}}},
             "sweep pair 2: hamming74 does not take parameter 'l'"),
            ({**good, "quantum": {"family": "q_complex", "params": {"hhat": rep, "path": "h.pcm"}}},
             "sweep pair 2: q_complex does not take parameter 'path' with 'hhat'"),
            ({**good, "quantum": {**css, "params": {**css["params"], "seed": 5}}},
             "sweep pair 2: random_css sets 'seed'; a sweep takes each seed from the pair's 'seeds'"),
            ({**good, "quantum": {"family": "q_complex", "params": {"hhat": {
                "family": "random_ldpc",
                "params": {"t": 4, "s": 2, "row_w": 2, "col_w": 2, "seed": 0}}}}},
             "sweep pair 2: random_ldpc sets 'seed'; a sweep takes each seed from the pair's 'seeds'")):
        job.write_text(json.dumps({"pairs": [good, pair]}))
        code, _, err = run(capsys, "sweep", str(job), "-o", str(out))
        assert (code, err) == (2, f"error: {message}\n"), pair
        assert not out.exists()


def test_sweep_job_that_does_not_parse_names_its_file(tmp_path, capsys):
    """A truncated job and one that is not UTF-8 are both reported with the
    job's path, and no CSV is written."""
    job = tmp_path / "job.json"
    out = tmp_path / "out.csv"
    for text in (b'{"pairs": [', b'{"pairs": "\xff"}'):
        job.write_bytes(text)
        code, _, err = run(capsys, "sweep", str(job), "-o", str(out))
        assert code == 2
        assert err.startswith(f"error: sweep job {job} is not valid JSON: "), err
    assert not out.exists()


def test_sweep_huge_seed_count_is_not_materialized(tmp_path, capsys):
    """A pair of 2^62 seeds is a range until its rows run, so the bad
    seeds of the next pair are still a parse error and no CSV is written."""
    job = tmp_path / "job.json"
    out = tmp_path / "out.csv"
    spec = {"quantum": {"family": "random_css", "params": {"n": 4, "n_x": 1, "n_z": 1}},
            "classical": {"family": "rep", "params": {"l": 2}}}
    job.write_text(json.dumps({"pairs": [{**spec, "seeds": {"start": 0, "count": 2**62}},
                                         {**spec, "seeds": 3}]}))
    code, _, err = run(capsys, "sweep", str(job), "-o", str(out))
    assert code == 2
    assert "sweep 'seeds' must be" in err
    assert not out.exists()


def test_sweep_spec_that_cannot_be_built_is_a_parse_error(tmp_path, capsys):
    """A spec that does not build ends the run before any CSV is written,
    and the message names the pair and the seed."""
    job = tmp_path / "job.json"
    out = tmp_path / "out.csv"
    rep = {"family": "rep", "params": {"l": 2}}
    good = {"quantum": {"family": "random_css", "params": {"n": 4, "n_x": 1, "n_z": 1}},
            "classical": rep, "seeds": [0]}

    def css(params):
        return {"family": "random_css", "params": params}

    def q_of_rep(l):
        return {"family": "q_complex", "params": {"hhat": {"family": "rep", "params": {"l": l}}}}

    # A size that is not an int is refused by name, not truncated or parsed.
    for bad in (css({"n": 4, "n_x": 3, "n_z": 3}), css({"n": 4, "n_x": 1}),
                css({"n": [4], "n_x": 1, "n_z": 1}), css({"n": True, "n_x": 0, "n_z": 0}),
                q_of_rep(2.7), q_of_rep("3"),
                {"family": "from_file", "params": {"path": str(tmp_path / "nope.json")}},
                {"family": "q_complex", "params": {"path": str(tmp_path / "nope.pcm")}}):
        pair = {"quantum": bad, "classical": rep, "seeds": [5]}
        job.write_text(json.dumps({"pairs": [good, pair]}))
        code, _, err = run(capsys, "sweep", str(job), "-o", str(out))
        assert code == 2, bad
        assert "pair 2" in err and "seed 5" in err, err
        assert "Traceback" not in err
        if bad in (q_of_rep(2.7), q_of_rep("3")):
            assert "parameter 'l' must be an integer" in err, err
    job.write_text(json.dumps({"pairs": [{"quantum": rep, "classical": rep}]}))
    code, _, err = run(capsys, "sweep", str(job), "-o", str(out))
    assert code == 2
    assert "quantum spec and a classical spec" in err
    assert not out.exists()


def test_sweep_generator_without_a_draw_gives_na_row(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(constructions, "MAX_RESAMPLES", 0)
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"pairs": [{
        "quantum": {"family": "random_css", "params": {"n": 4, "n_x": 1, "n_z": 1}},
        "classical": {"family": "rep", "params": {"l": 2}},
    }]}))
    out = tmp_path / "na.csv"
    assert run(capsys, "sweep", str(job), "-o", str(out))[0] == 0
    assert out.read_text().split("\n")[1] == ",".join(["0"] + ["NA"] * 15 + ["0"])


def test_gen_generator_without_a_draw_is_a_parse_error(tmp_path, capsys, monkeypatch):
    """A random generator that finds no valid draw ends gen with exit 2 and
    an error line, and writes nothing."""
    monkeypatch.setattr(constructions, "MAX_RESAMPLES", 0)
    for argv in (["ldpc", "4", "2"], ["randomcss", "4", "1", "1"]):
        out = tmp_path / "x"
        code, _, err = run(capsys, "gen", *argv, "-o", str(out))
        assert code == 2, argv
        assert err.startswith("error: "), err
        assert not out.exists()


def test_sweep_cap_exceeding_instance_flagged(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "pairs": [{
            "quantum": {"family": "random_css", "params": {"n": 4, "n_x": 1, "n_z": 1}},
            "classical": {"family": "hamming74", "params": {}},
            "seeds": [0],
        }]
    }))
    out = tmp_path / "flagged.csv"
    code, _, _ = run(capsys, "sweep", str(job), "-o", str(out), "--cap", str(1 << 10))
    assert code == 0
    row = out.read_text().strip().split("\n")[1].split(",")
    assert row[0] == "0"
    assert "NA" in row


def test_table_scenarios(capsys):
    code, stdout, _ = run(capsys, "table", "table4")
    assert code == 0
    assert "Theta(n*t)" in stdout
    code, stdout, _ = run(capsys, "table", "exampleParams", "--alpha", "1/4", "--json")
    assert code == 0
    record = json.loads(stdout)
    assert record["columns"][1]["cells"]["dimension"]["exponent"] == "1/3"
    code, _, err = run(capsys, "table", "bogus")
    assert code == 2
    for bad in (["exampleParams", "--alpha=-1/2"], ["table4", "--n=-3", "--l=2"]):
        code, stdout, err = run(capsys, "table", *bad)
        assert code == 2 and stdout == ""
        assert err.startswith("error:") and "must be positive" in err


def test_table_text_is_pinned(capsys):
    """The text renders of every sheet, with and without the inputs it reads."""
    text = ""
    for argv in (["table1"], ["table4"], ["table4", "--n", "10", "--t", "5", "--l", "3"],
                 ["genParams"], ["exampleParams"], ["exampleParams", "--alpha", "1/4"]):
        code, stdout, err = run(capsys, "table", *argv)
        assert (code, err) == (0, ""), argv
        text += stdout
    assert "  physical_qubits   Theta(n*l)  [= 30]  (formula)\n" in text
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d839f8c94308b05bc6723a03415ccd426a31295325c6063c08fbb401f3335ef6")


def test_table_refuses_an_input_its_sheet_does_not_read(capsys):
    for argv, flag in ((["table1", "--n", "5"], "--n"),
                       (["genParams", "--alpha", "1/4"], "--alpha"),
                       (["exampleParams", "--n=3"], "--n"),
                       (["table4", "--l", "2", "--alpha", "2"], "--alpha")):
        code, stdout, err = run(capsys, "table", *argv)
        assert (code, stdout) == (2, ""), argv
        assert err == f"error: table {argv[0]} does not take {flag}\n"
    for argv in (["table4", "--n", "3", "--t", "2", "--l", "4"], ["exampleParams", "--alpha", "2"]):
        code, stdout, err = run(capsys, "table", *argv, "--json")
        assert (code, err) == (0, ""), argv
        assert json.loads(stdout)["scenario"] == argv[0]


def test_cap_floor_rejected(capsys):
    code, _, err = run(capsys, "analyze", "x.pcm", "--cap", "10")
    assert code == 2
    assert "cap" in err


def test_analyze_two_term_complex_json(tmp_path, capsys):
    from cssbalance import complex_to_json, rep_standard

    path = tmp_path / "rep3.json"
    path.write_text(complex_to_json(rep_standard(3).complex))
    code, stdout, _ = run(capsys, "analyze", str(path), "--json")
    assert code == 0
    report = json.loads(stdout)
    assert report["kind"] == "classical" and report["d"] == 3


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"spaces":' + "[" * 100000)
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "error" in err
    path.write_text('{"pairs":' + "[" * 100000)
    out = tmp_path / "out.csv"
    code, _, err = run(capsys, "sweep", str(path), "-o", str(out))
    assert code == 2
    assert "error" in err
    assert not out.exists()


def test_analyze_malformed_complex_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for bad in (
        {"spaces": [1, 1], "diffs": [1]},
        {"spaces": "11", "diffs": []},
        {"spaces": [1, True], "diffs": ["1 1\n1\n"]},
        {"spaces": [1, 1], "diffs": "1 1\n1\n"},
        {"spaces": [1, 1], "diffs": ["1 1\n1\n"], "labels": 5},
    ):
        path.write_text(json.dumps(bad))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2, bad
        assert "error" in err


def text_report(*rows) -> str:
    """The lines of a text report or table: each (key, value) row padded as
    the CLI pads it; a plain string is a line as it stands."""
    return "".join(
        (row if isinstance(row, str) else f"{row[0]:<22} {row[1]}") + "\n" for row in rows)


def test_analyze_text_report_of_rep3(tmp_path, capsys):
    pcm = tmp_path / "h3.pcm"
    pcm.write_text("2 3\n110\n011\n")
    assert run(capsys, "analyze", str(pcm)) == (0, text_report(
        ("kind", "classical"), ("n", 3), ("K", 1), ("d", 3), ("locality", 2),
        ("soundness", "3/2"), ("s", 2), ("provenance", f"file:{pcm}"),
    ), "")


def test_analyze_text_report_of_q_rep3(tmp_path, capsys):
    qfile = tmp_path / "q.json"
    qfile.write_text(complex_to_json(q_complex(rep_standard(3).h).complex))
    assert run(capsys, "analyze", str(qfile)) == (0, text_report(
        ("kind", "quantum"), ("n", 6), ("K", 1), ("dX", 2), ("dZ", 3), ("locality", 4),
        ("soundness (component)", 2), ("nX", 2), ("nZ", 3), ("provenance", f"file:{qfile}"),
    ), "")


def test_analyze_text_report_with_a_capped_distance(tmp_path, capsys):
    zero = tmp_path / "zero.pcm"
    zero.write_text("1 30\n" + "0" * 30 + "\n")
    assert run(capsys, "analyze", "--cap", "4096", str(zero)) == (3, text_report(
        ("kind", "classical"), ("n", 30), ("K", 30), ("d", "cap-exceeded"), ("locality", 0),
        ("soundness", "undefined"), ("s", 1), ("provenance", f"file:{zero}"),
    ), "")


def test_analyze_text_report_names_the_undefined_soundness_side(tmp_path, capsys):
    # H_X = [1111] and no Z checks: the Z component has no checks.
    h_x = BitMatrix.from_strings(["1111"])
    qfile = tmp_path / "q.json"
    qfile.write_text(complex_to_json(ChainComplex((0, 4, 1), (BitMatrix.zeros(4, 0), h_x))))
    assert run(capsys, "analyze", str(qfile)) == (0, text_report(
        ("kind", "quantum"), ("n", 4), ("K", 3), ("dX", 1), ("dZ", 2), ("locality", 4),
        ("soundness (component)", "undefined (H_Z code)"), ("nX", 1), ("nZ", 0),
        ("provenance", f"file:{qfile}"),
    ), "")


def balance_files(tmp_path, l: int, m: int):
    """q(rep l) as a complex file and rep m as a pcm file."""
    qfile, rfile = tmp_path / f"q{l}.json", tmp_path / f"rep{m}.pcm"
    qfile.write_text(complex_to_json(q_complex(rep_standard(l).h).complex))
    rfile.write_text(write_pcm(rep_standard(m).h))
    return str(qfile), str(rfile)


def test_analyze_text_report_names_both_undefined_components(tmp_path, capsys):
    qfile = tmp_path / "q.json"
    qfile.write_text(complex_to_json(
        ChainComplex((0, 4, 0), (BitMatrix.zeros(4, 0), BitMatrix.zeros(0, 4)))))
    _, stdout, _ = run(capsys, "analyze", str(qfile))
    assert text_report(("soundness (component)", "undefined (H_X/H_Z code)")) in stdout


def test_boundcheck_text_names_input_components_by_check_matrix(tmp_path, capsys):
    """Sides X and Z are the balanced code's; the input's component codes
    are named by their check matrices."""
    assert run(capsys, "boundcheck", *balance_files(tmp_path, 3, 2)) == (0, text_report(
        "side X: measured 7/6 >= bound 7/12: holds",
        "side Z: measured 7/2 >= bound 7/4: holds",
        "input component soundness: H_X code 3, H_Z code 2",
        "soundness within min(2n/nZ, 2n/nX) = 4",
    ), "")


def test_oversized_balanced_code_is_refused_before_it_is_built(tmp_path, capsys, monkeypatch):
    """balance and boundcheck exit 2 with gen's size message and write
    nothing; a sweep row of the pair reads NA."""
    monkeypatch.setattr(constructions, "MAX_MATRIX_ENTRIES", 100)
    qfile, rfile = balance_files(tmp_path, 3, 2)  # H_Z' would be 12 x 14
    message = "error: a 12 x 14 matrix exceeds the generator limit of 100 entries\n"
    out = tmp_path / "b.json"
    for extra in (["--double"], []):
        assert run(capsys, "balance", *extra, qfile, rfile, "-o", str(out)) == (2, "", message)
    assert not out.exists()
    assert run(capsys, "boundcheck", qfile, rfile) == (2, "", message)
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"pairs": [{
        "quantum": {"family": "from_file", "params": {"path": qfile}},
        "classical": {"family": "from_file", "params": {"path": rfile}},
    }]}))
    csv_out = tmp_path / "na.csv"
    assert run(capsys, "sweep", str(job), "-o", str(csv_out))[0] == 0
    assert csv_out.read_text().split("\n")[1] == ",".join(["0"] + ["NA"] * 15 + ["0"])


def test_balance_text_table(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert run(capsys, "balance", *balance_files(tmp_path, 3, 2), "-o", str(out)) == (
        0, text_report(
            f"wrote {out}  (n=14, nX=4, nZ=12)",
            "               predicted    measured",
            "n                     14          14",
            "K                      1           1",
            "dX                     4           4",
            "dZ                     3           3",
        ), "")


def test_balance_double_text_notes_a_skipped_measurement(tmp_path, capsys):
    out = tmp_path / "d.json"
    argv = ("balance", "--double", *balance_files(tmp_path, 4, 4), "-o", str(out))
    assert run(capsys, *argv) == (0, text_report(
        f"wrote {out}  (n=284, nX=171, nZ=160)",
        "measurement skipped: X-distance needs 2^136 words (kernel scan) or 2^149 "
        "syndromes (syndrome scan), cap is 2^24",
    ), "")


def test_balance_text_table_marks_a_mismatch(tmp_path, capsys, monkeypatch):
    predict = cli.predicted_params

    def one_qubit_too_many(qp, rp):
        predicted = predict(qp, rp)
        return dataclasses.replace(predicted, n=predicted.n + 1)

    monkeypatch.setattr(cli, "predicted_params", one_qubit_too_many)
    out = tmp_path / "b.json"
    assert run(capsys, "balance", *balance_files(tmp_path, 3, 2), "-o", str(out)) == (
        0, text_report(
            f"wrote {out}  (n=14, nX=4, nZ=12)",
            "               predicted    measured",
            "n                     15          14   MISMATCH",
            "K                      1           1",
            "dX                     4           4",
            "dZ                     3           3",
        ), "")


# gen argv, then the spec it stands for: every gen family but q, each
# seeded one with and without --seed.
GEN_CASES = [
    (["rep", "4"], "rep", {"l": 4}),
    (["repmod", "4"], "rep_modified", {"l": 4}),
    (["hamming74"], "hamming74", {}),
    (["ldpc", "6", "3"], "random_ldpc", {"t": 6, "s": 3, "row_w": 3, "col_w": 2, "seed": 0}),
    (["ldpc", "6", "3", "--row-w", "2", "--col-w", "3", "--seed", "5"], "random_ldpc",
     {"t": 6, "s": 3, "row_w": 2, "col_w": 3, "seed": 5}),
    (["randomcss", "5", "1", "2"], "random_css", {"n": 5, "n_x": 1, "n_z": 2, "seed": 0}),
    (["randomcss", "5", "1", "2", "--seed", "3"], "random_css",
     {"n": 5, "n_x": 1, "n_z": 2, "seed": 3}),
]


def test_gen_cases_cover_every_generator():
    families = {family for _, family, _ in GEN_CASES}
    aliases = {argv[0] for argv, _, _ in GEN_CASES}
    assert families == set(constructions.GENERATORS)
    assert aliases == set(cli.GEN_ALIASES) | (families - set(cli.GEN_ALIASES.values()))


@pytest.mark.parametrize("argv, family, params", GEN_CASES)
def test_gen_alias_matches_its_spec(tmp_path, capsys, argv, family, params):
    """gen of an alias writes the bytes that io saves for the spec it names,
    and reports that spec as its provenance."""
    from cssbalance import io

    out = tmp_path / "gen.out"
    code, stdout, _ = run(capsys, "gen", *argv, "-o", str(out), "--json")
    assert code == 0
    spec = constructions.CodeSpec(family, params)
    built = spec.build()
    want = tmp_path / "spec.out"
    if isinstance(built, ClassicalCode):
        io.save_classical(built, want)
    else:
        io.save_complex(built.complex, want)
    assert out.read_bytes() == want.read_bytes()
    assert json.loads(stdout)["provenance"] == spec.describe()
    unseeded = {k: v for k, v in params.items() if k != "seed"}
    if params.get("seed") == 0:  # a spec without a seed reads 0
        assert constructions.CodeSpec(family, unseeded).build() == built


@pytest.mark.parametrize("alias, message", [
    ("rep", "rep takes 1 size: l"),
    ("repmod", "repmod takes 1 size: l"),
    ("hamming74", "hamming74 takes no sizes"),
    ("ldpc", "ldpc takes 2 sizes: t s"),
    ("randomcss", "randomcss takes 3 sizes: n n_x n_z"),
])
def test_gen_wrong_size_count_names_the_sizes(tmp_path, capsys, alias, message):
    count = len(message.split(":")[1].split()) if ":" in message else 0
    out = tmp_path / "x"
    for wrong in {max(count - 1, 0), count + 1} - {count}:
        code, stdout, err = run(capsys, "gen", alias, *["4"] * wrong, "-o", str(out))
        assert (code, stdout, err) == (2, "", f"error: {message}\n")
        assert not out.exists()


def test_gen_q_reads_a_two_term_complex(tmp_path, capsys):
    """--hhat and a q_complex path read a classical code as analyze does:
    a matrix file or a 2-term complex JSON give the same code; a CSS code
    is refused by name."""
    pcm, js = tmp_path / "rep3.pcm", tmp_path / "rep3.json"
    pcm.write_text(write_pcm(rep_standard(3).h))
    js.write_text(complex_to_json(rep_standard(3).complex))
    outs = {}
    for hhat in (pcm, js):
        outs[hhat] = tmp_path / f"q_{hhat.suffix[1:]}.json"
        code, _, err = run(capsys, "gen", "q", "--hhat", str(hhat), "-o", str(outs[hhat]))
        assert code == 0, err
    assert outs[pcm].read_bytes() == outs[js].read_bytes()

    csvs = {}
    for hhat in (pcm, js):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"pairs": [{
            "quantum": {"family": "q_complex", "params": {"path": str(hhat)}},
            "classical": {"family": "rep", "params": {"l": 2}}, "seeds": [0, 1]}]}))
        csvs[hhat] = tmp_path / f"{hhat.suffix[1:]}.csv"
        assert run(capsys, "sweep", str(job), "-o", str(csvs[hhat]))[0] == 0
    assert csvs[pcm].read_text() == csvs[js].read_text()

    css = outs[pcm]
    out = tmp_path / "qq.json"
    code, stdout, err = run(capsys, "gen", "q", "--hhat", str(css), "-o", str(out))
    assert (code, stdout) == (2, "")
    assert err == "error: q_complex needs a classical inner code\n"
    assert not out.exists()
    job.write_text(json.dumps({"pairs": [{
        "quantum": {"family": "q_complex", "params": {"path": str(css)}},
        "classical": {"family": "rep", "params": {"l": 2}}}]}))
    code, _, err = run(capsys, "sweep", str(job), "-o", str(out))
    assert code == 2 and "q_complex needs a classical inner code" in err, err
    assert "Traceback" not in err and not out.exists()


def test_options_a_subcommand_does_not_read_are_usage_errors(tmp_path, capsys):
    """--seed belongs to gen only, --json to every command but sweep, and
    --cap to every command but table; any other is refused by its name,
    not by the file or value that follows it."""
    pcm = tmp_path / "h3.pcm"
    pcm.write_text(write_pcm(rep_standard(3).h))
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"pairs": [{"quantum": {"family": "random_css", "params": {
        "n": 4, "n_x": 1, "n_z": 1}}, "classical": {"family": "rep", "params": {"l": 2}}}]}))
    qfile = tmp_path / "q.json"
    run(capsys, "gen", "q", "--hhat", str(pcm), "-o", str(qfile))
    out = tmp_path / "x.csv"
    for argv, flag in ((["analyze", "--seed", "1", str(pcm)], "--seed"),
                       (["balance", "--seed", "1", str(qfile), str(pcm), "-o", str(out)],
                        "--seed"),
                       (["boundcheck", str(qfile), str(pcm), "--seed=1"], "--seed"),
                       (["sweep", str(job), "-o", str(out), "--json"], "--json"),
                       (["table", "table4", "--cap", "4096"], "--cap"),
                       (["table", "table4", "--cap", "5"], "--cap"),
                       (["table", "table4", "--cap=5"], "--cap")):
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (2, ""), argv
        assert err == f"error: {argv[0]} does not take {flag}\n"
        assert not out.exists()
    with pytest.raises(SystemExit) as exc:  # a leftover positional is argparse's to refuse
        main(["analyze", str(pcm), str(pcm)])
    assert exc.value.code == 2 and f"unrecognized arguments: {pcm}" in capsys.readouterr().err
    for argv in (["gen", "rep", "3", "-o", str(tmp_path / "r.pcm"), "--cap", "5"],
                 ["sweep", str(job), "-o", str(out), "--cap", "5"]):
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (2, "") and "cap" in err
        assert not out.exists() and not (tmp_path / "r.pcm").exists()


@pytest.mark.parametrize("argv, message", [
    (["rep", "3", "--seed", "9"], "gen rep does not take --seed"),
    (["repmod", "4", "--seed", "0"], "gen repmod does not take --seed"),
    (["hamming74", "--col-w", "0"], "gen hamming74 does not take --col-w"),
    (["rep", "3", "--row-w", "7", "--hhat", "nothing"], "gen rep does not take --row-w"),
    (["randomcss", "5", "1", "2", "--row-w", "3"], "gen randomcss does not take --row-w"),
    (["ldpc", "6", "3", "--hhat", "{pcm}"], "gen ldpc does not take --hhat"),
    (["q", "--hhat", "{pcm}", "--seed", "0"], "gen q does not take --seed"),
    (["q", "3", "4", "--hhat", "{pcm}"], "q takes no sizes"),
])
def test_gen_refuses_what_the_family_does_not_read(tmp_path, capsys, argv, message):
    """An option the family does not read, or a size given to q, is a usage
    error named in full, even at the value it would default to; nothing is
    written."""
    pcm = tmp_path / "h3.pcm"
    pcm.write_text(write_pcm(rep_standard(3).h))
    out = tmp_path / "x.out"
    argv = [a.format(pcm=pcm) for a in argv]
    code, stdout, err = run(capsys, "gen", *argv, "-o", str(out))
    assert (code, stdout, err) == (2, "", f"error: {message}\n")
    assert not out.exists()
