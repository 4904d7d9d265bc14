import json

from cssbalance import BitMatrix, CssCode, cli, complex_to_json, constructions
from cssbalance.cli import SWEEP_HEADER, main
from cssbalance.constructions import as_spec


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


def sweep_lines(capsys, tmp_path, pairs):
    """The data lines of the CSV a sweep over pairs writes."""
    job = tmp_path / "job.json"
    out = tmp_path / "out.csv"
    job.write_text(json.dumps({"pairs": pairs}))
    assert run(capsys, "sweep", str(job), "-o", str(out))[0] == 0
    return out.read_text().split("\n")[1:-1]


def test_sweep_computes_each_distinct_pair_once(tmp_path, capsys, monkeypatch):
    """Seeds that draw a pair this sweep already ran reuse that row's
    fields, and each row is still the row a one-seed job gives."""
    quantum = {"family": "random_css", "params": {"n": 4, "n_x": 1, "n_z": 1}}
    classical = {"family": "rep", "params": {"l": 2}}
    seeds = [1, 1, 2, 1, 2]
    distinct = {as_spec(quantum).with_seed(seed).build() for seed in seeds}
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
    for bad in ({"n": 4, "n_x": 3, "n_z": 3}, {"n": 4, "n_x": 1}, {"n": [4], "n_x": 1, "n_z": 1}):
        pair = {"quantum": {"family": "random_css", "params": bad}, "classical": rep,
                "seeds": [5]}
        job.write_text(json.dumps({"pairs": [good, pair]}))
        code, _, err = run(capsys, "sweep", str(job), "-o", str(out))
        assert code == 2, bad
        assert "pair 2" in err and "seed 5" in err, err
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
