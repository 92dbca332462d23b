import json

import pytest

from qtransmute import report
from qtransmute.cli import main
from qtransmute.stabilizer import load_file


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "table1-7q" in out and "toric" in out


def test_catalog_emit_and_reload(tmp_path, capsys):
    path = tmp_path / "t1.code"
    code, out, _ = run(capsys, "catalog", "emit", "table1-7q", "--out", str(path))
    assert code == 0
    loaded = load_file(path)
    assert (loaded.n, loaded.k) == (7, 2)


def test_catalog_selftest_single(capsys):
    code, out, _ = run(capsys, "catalog", "selftest", "table2-6q")
    assert code == 0
    assert "effective distance 3: ok" in out


def test_deff_table1(capsys):
    code, out, _ = run(capsys, "deff", "--code", "table1-7q",
                       "--admissible", "ZI", "--cap", "3")
    assert code == 0
    assert "d_eff = 3" in out


def test_verify_qet_table2(capsys):
    code, out, _ = run(capsys, "verify", "qet", "--code", "table2-6q",
                       "--admissible", "ZI,IZ", "--max-weight", "1")
    assert code == 0
    assert "PASS" in out


def test_verify_failure_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "qec", "--code", "table1-7q",
                       "--max-weight", "1")
    assert code == 1
    assert "witness" in out


def test_verify_report_round_trip(tmp_path, capsys):
    rpt = tmp_path / "verify.report"
    code, _, _ = run(capsys, "verify", "qec", "--code", "table1-7q",
                     "--max-weight", "1", "--report", str(rpt))
    assert code == 1
    parsed = report.parse(rpt.read_text())
    assert parsed["verdict"] == "fail"
    assert set(parsed) >= {"verdict", "witness_a", "witness_b", "max_weight"}
    assert report.parse(report.emit(parsed)) == parsed


def test_deff_report_keys_round_trip(tmp_path, capsys):
    rpt = tmp_path / "deff.report"
    code, _, _ = run(capsys, "deff", "--code", "table2-6q",
                     "--admissible", "ZI,IZ", "--cap", "2",
                     "--report", str(rpt))
    assert code == 0
    parsed = report.parse(rpt.read_text())
    assert parsed["d_eff"] == "3"
    assert set(parsed) >= {"d_eff", "exact", "cap", "excluded_min"}
    assert report.parse(report.emit(parsed)) == parsed


def test_emitted_admissible_file_round_trips(tmp_path, capsys):
    code_path = tmp_path / "t2.code"
    adm_path = tmp_path / "t2.adm"
    code, _, _ = run(capsys, "catalog", "emit", "table2-6q",
                     "--out", str(code_path), "--admissible-out", str(adm_path))
    assert code == 0
    assert adm_path.read_text().split() == ["ZI", "IZ"]
    code, out, _ = run(capsys, "verify", "qet", "--code", str(code_path),
                       "--admissible", str(adm_path), "--max-weight", "1")
    assert code == 0 and "PASS" in out


def test_toric_class_distance(capsys):
    code, out, _ = run(capsys, "distance", "--code", "toric:3",
                       "--class", "Z1Z2", "--pure", "z", "--cap", "6")
    assert code == 0
    assert "= 6" in out


def test_distance_cap_exit_code(capsys):
    code, out, _ = run(capsys, "distance", "--code", "toric:3",
                       "--class", "Z1Z2", "--pure", "z", "--cap", "4",
                       "--require-exact")
    assert code == 3
    assert "cap" in out


def test_distance_logical_string_class(capsys):
    code, out, _ = run(capsys, "distance", "--code", "toric:3",
                       "--class", "ZZ", "--pure", "z", "--cap", "6")
    assert code == 0
    assert "= 6" in out


def test_verify_relabel(capsys, tmp_path):
    # strip the logical sections so the file loads with a completed basis,
    # then ask the relabeling search to recover the transmutation property
    code, out, _ = run(capsys, "catalog", "emit", "table1-7q")
    stripped = out[:out.index("XL")]
    path = tmp_path / "gens.code"
    path.write_text(stripped)
    code, out, _ = run(capsys, "verify", "qet", "--code", str(path),
                       "--admissible", "ZI", "--max-weight", "1", "--relabel")
    assert code == 0
    assert "after relabeling" in out


def test_css_build_cyclic_specs(tmp_path, capsys):
    out_path = tmp_path / "steane.code"
    code, out, _ = run(capsys, "css", "build",
                       "--c1", "cyclic:7:1+x+x^3", "--c2", "cyclic:7:1+x+x^3",
                       "--cap", "4", "--out", str(out_path))
    assert code == 0
    assert "[7,1]" in out
    assert load_file(out_path).n == 7


def test_classical_distance(capsys):
    code, out, _ = run(capsys, "classical", "distance",
                       "--code", "cyclic:17:1+x^3+x^4+x^5+x^8", "--cap", "17")
    assert code == 0
    assert "distance = 5" in out


def test_lattice_check_and_torus(tmp_path, capsys):
    code, out, _ = run(capsys, "lattice", "check", "--cell", "eq16")
    assert code == 0 and "unit cell ok" in out
    out_path = tmp_path / "eq20.code"
    code, out, _ = run(capsys, "lattice", "torus", "--cell", "eq20",
                       "--L", "4,4", "--out", str(out_path))
    assert code == 0
    assert "k=16" in out
    assert load_file(out_path).n == 32


def test_lattice_check_refuses_repeated_block(tmp_path, capsys):
    cell = tmp_path / "repeated.cell"
    cell.write_text("n 1 s 1\n0\n1\nA1:\n0\n1\nB1:\n1\n0\nA1:\n1\n1\n")
    code, out, err = run(capsys, "lattice", "check", "--cell", str(cell))
    assert code == 2
    assert out == ""
    assert "parse error: repeated logical block 'A1:' at line 10" in err


def test_concat_scan(capsys):
    code, out, _ = run(capsys, "concat", "--outer", "table1-7q",
                       "--inner", "inner-5q", "--admissible", "ZI",
                       "--scan-cap", "3")
    assert code == 0
    assert "[35,2]" in out
    assert "bound" in out


def test_search_cli(capsys):
    code, out, _ = run(capsys, "search", "--n", "6", "--k", "2",
                       "--pattern", "ZI,IZ", "--mode", "random",
                       "--seed", "7", "--budget", "2000", "--limit", "1")
    assert code == 0
    assert "passed" in out


EXHAUSTIVE_N4 = ("search", "--n", "4", "--k", "2", "--pattern", "ZI,IZ",
                 "--mode", "exhaustive", "--expect-empty")


def test_search_checkpoint(tmp_path, capsys):
    ckpt = tmp_path / "scan.json"
    code, out, _ = run(capsys, *EXHAUSTIVE_N4, "--budget", "100", "--checkpoint", str(ckpt))
    assert code == 0
    assert json.loads(ckpt.read_text()) == {
        "n": 4, "k": 2, "pattern": [0, 4, 8], "error_weight": 1, "mode": "exhaustive",
        "next_index": 100, "exhausted": False}
    assert [p.name for p in tmp_path.iterdir()] == ["scan.json"]  # no temp file left
    code, out, _ = run(capsys, *EXHAUSTIVE_N4, "--budget", "10000", "--checkpoint", str(ckpt))
    assert code == 0
    assert "resuming exhaustive scan at index 100\n" in out
    assert "examined 2476 candidates" in out
    assert "exhausted" in out
    assert json.loads(ckpt.read_text())["next_index"] == 2576


@pytest.mark.parametrize("argv,field", [
    (("search", "--n", "5", "--k", "2", "--pattern", "ZI", "--mode", "exhaustive"),
     "n is 4 there, 5 here"),
    (("search", "--n", "4", "--k", "1", "--pattern", "Z", "--mode", "exhaustive"),
     "k is 2 there, 1 here"),
    (("search", "--n", "4", "--k", "2", "--pattern", "ZI", "--mode", "exhaustive"),
     "pattern is [0, 4, 8] there, [0, 4] here"),
    (("search", "--n", "4", "--k", "2", "--pattern", "ZI,IZ", "--mode", "exhaustive",
      "--error-weight", "2"), "error_weight is 1 there, 2 here"),
])
def test_search_checkpoint_refuses_other_spec(tmp_path, capsys, argv, field):
    ckpt = tmp_path / "scan.json"
    code, _, _ = run(capsys, *EXHAUSTIVE_N4, "--budget", "100", "--checkpoint", str(ckpt))
    assert code == 0
    before = ckpt.read_bytes()
    code, out, err = run(capsys, *argv, "--budget", "100", "--expect-empty",
                         "--checkpoint", str(ckpt))
    assert code == 2
    assert "resuming" not in out
    assert f"is for another search: {field}" in err
    assert ckpt.read_bytes() == before


def test_search_checkpoint_refuses_random_mode(tmp_path, capsys):
    # A random scan has no resume index, so it neither reads nor writes a checkpoint.
    old, new = tmp_path / "scan.json", tmp_path / "new.json"
    code, _, _ = run(capsys, *EXHAUSTIVE_N4, "--budget", "100", "--checkpoint", str(old))
    assert code == 0
    before = old.read_bytes()
    for path in (old, new):
        code, out, err = run(capsys, "search", "--n", "4", "--k", "2", "--pattern", "ZI,IZ",
                             "--mode", "random", "--seed", "3", "--budget", "5",
                             "--expect-empty", "--checkpoint", str(path))
        assert code == 2
        assert out == ""
        assert "checkpoints resume exhaustive scans only" in err
    assert old.read_bytes() == before
    assert not new.exists()


@pytest.mark.parametrize("text,message", [
    ('{"next_index": 100, "exhausted": false}', "n is None there, 4 here"),
    ("[100]", "n is None there, 4 here"),
    ('{"n": 4, "k": 2, "pattern": [0, 4, 8], "error_weight": 1, "mode": "exhaustive", '
     '"next_index": -1}', "next_index must be an integer >= 0"),
    ('{"n": 4, "k": 2, "pattern": [0, 4, 8], "error_weight": 1, "mode": "exhaustive", '
     '"next_index": true}', "next_index must be an integer >= 0"),
])
def test_search_checkpoint_refuses_specless_file(tmp_path, capsys, text, message):
    ckpt = tmp_path / "old.json"
    ckpt.write_text(text)
    code, out, err = run(capsys, *EXHAUSTIVE_N4, "--budget", "100", "--checkpoint", str(ckpt))
    assert code == 2
    assert message in err
    assert ckpt.read_text() == text


def test_simulate(tmp_path, capsys):
    rpt = tmp_path / "sim.report"
    code, out, _ = run(capsys, "simulate", "--code", "table2-6q",
                       "--admissible", "ZI,IZ", "--model", "uniform1",
                       "--trials", "2000", "--seed", "5", "--threads", "1",
                       "--report", str(rpt))
    assert code == 0
    assert "admissible rate = 1.0" in out
    parsed = report.parse(rpt.read_text())
    assert parsed["uncovered"] == "0"
    assert parsed["seed"] == "5"


SEEDED_CHANNEL = "XIIIIII 0.1\nIZIIIII 0.2\nIIYIIII 0.05\nXXIIIII 0.05\n"


@pytest.mark.parametrize("argv,stdout", [
    (("--code", "css17", "--model", "depol:0.02", "--max-weight", "2"),
     "trials = 20000\nseed = 5\nuncovered = 92\nclass II = 6819\nclass XI = 6741\n"
     "class IX = 6348\nadmissible rate = 0.9954\n"),
    (("--code", "eq16-lattice:4x4", "--model", "uniform1"),
     "trials = 20000\nseed = 5\nuncovered = 0\n"
     "class IIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII = 3254\n"
     "class ZIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII = 1066\n"
     "class IIZIIIIIIIIIIIIIIIIIIIIIIIIIIIII = 1075\n"
     "class IIIIZIIIIIIIIIIIIIIIIIIIIIIIIIII = 1025\n"
     "class IIIIIIZIIIIIIIIIIIIIIIIIIIIIIIII = 1035\n"
     "class IIIIIIIIZIIIIIIIIIIIIIIIIIIIIIII = 1028\n"
     "class IIIIIIIIIIZIIIIIIIIIIIIIIIIIIIII = 1033\n"
     "class IIIIIIIIIIIIZIIIIIIIIIIIIIIIIIII = 1049\n"
     "class IIIIIIIIIIIIIIZIIIIIIIIIIIIIIIII = 1034\n"
     "class IIIIIIIIIIIIIIIIZIIIIIIIIIIIIIII = 977\n"
     "class IIIIIIIIIIIIIIIIIIZIIIIIIIIIIIII = 1088\n"
     "class IIIIIIIIIIIIIIIIIIIIZIIIIIIIIIII = 1100\n"
     "class IIIIIIIIIIIIIIIIIIIIIIZIIIIIIIII = 1060\n"
     "class IIIIIIIIIIIIIIIIIIIIIIIIZIIIIIII = 1027\n"
     "class IIIIIIIIIIIIIIIIIIIIIIIIIIZIIIII = 1058\n"
     "class IIIIIIIIIIIIIIIIIIIIIIIIIIIIZIII = 1056\n"
     "class IIIIIIIIIIIIIIIIIIIIIIIIIIIIIIZI = 1035\n"
     "admissible rate = 1.0\n"),
    (("--code", "table1-7q", "--model", "CHANNEL"),
     "trials = 20000\nseed = 5\nuncovered = 1006\nclass II = 9498\nclass ZI = 9496\n"
     "admissible rate = 0.9497\n"),
])
def test_simulate_seeded_output_is_pinned(tmp_path, capsys, argv, stdout):
    # css17 at weight 2 and table1-7q draw among several options per
    # syndrome, so these pin the option draw as well as the error sampling.
    channel = tmp_path / "channel.txt"
    channel.write_text(SEEDED_CHANNEL)
    argv = [str(channel) if a == "CHANNEL" else a for a in argv]
    code, out, err = run(capsys, "simulate", *argv, "--trials", "20000", "--seed", "5",
                         "--threads", "1")
    assert (code, out, err) == (0, stdout, "")


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.code"
    bad.write_text("7 2\nXQ\n")
    code, _, err = run(capsys, "verify", "qec", "--code", str(bad),
                       "--max-weight", "1")
    assert code == 2
    assert "parse error" in err


def test_unknown_catalog_entry_exit_code(capsys):
    code, _, err = run(capsys, "distance", "--code", "nope", "--cap", "2")
    assert code == 2


@pytest.mark.parametrize("argv,message", [
    (("distance", "--code", "toric:3", "--cap", "-2"), "argument --cap: a cap must be >= 0"),
    (("distance", "--code", "toric:3", "--cap", "two"), "argument --cap: invalid nonnegative_int value: 'two'"),
    (("deff", "--code", "table1-7q", "--admissible", "ZI", "--cap", "-1"),
     "argument --cap: a cap must be >= 0"),
    (("concat", "--outer", "table1-7q", "--inner", "inner-5q", "--admissible", "ZI",
      "--scan-cap", "-3"), "argument --scan-cap: a cap must be >= 0"),
    (("css", "build", "--c1", "cyclic:7:1+x+x^3", "--c2", "cyclic:7:1+x+x^3", "--cap", "-1"),
     "argument --cap: a cap must be >= 0"),
    (("classical", "distance", "--code", "cyclic:7:1+x+x^3", "--cap", "-1"),
     "argument --cap: a cap must be >= 0"),
    (("lattice", "torus", "--cell", "eq16", "--L", "4"), "argument --L: expected A,B"),
    (("lattice", "torus", "--cell", "eq16", "--L", "4,4,4"), "argument --L: expected A,B"),
    (("simulate", "--code", "table1-7q", "--admissible", "ZI", "--model", "uniform1",
      "--trials", "-5", "--seed", "1", "--threads", "1"),
     "argument --trials: a count must be >= 1, got -5"),
    (("simulate", "--code", "table1-7q", "--admissible", "ZI", "--model", "uniform1",
      "--trials", "0", "--seed", "1", "--threads", "1"),
     "argument --trials: a count must be >= 1, got 0"),
    (("search", "--n", "6", "--k", "2", "--pattern", "ZI,IZ", "--budget", "-3"),
     "argument --budget: a count must be >= 1, got -3"),
    (("search", "--n", "6", "--k", "2", "--pattern", "ZI,IZ", "--limit", "0"),
     "argument --limit: a count must be >= 1, got 0"),
    (("search", "--n", "6", "--k", "2", "--pattern", "ZI,IZ", "--limit", "one"),
     "argument --limit: invalid positive_int value: 'one'"),
    (("simulate", "--code", "table1-7q", "--admissible", "ZI", "--model", "uniform1",
      "--trials", "10", "--seed", "1", "--threads", "0"),
     "argument --threads: a count must be >= 1, got 0"),
    (("simulate", "--code", "table1-7q", "--admissible", "ZI", "--model", "uniform1",
      "--trials", "10", "--seed", "1", "--threads", "-3"),
     "argument --threads: a count must be >= 1, got -3"),
    (("verify", "qet", "--code", "table1-7q", "--admissible", "ZI", "--max-weight", "-1"),
     "argument --max-weight: a cap must be >= 0, got -1"),
    (("simulate", "--code", "table1-7q", "--admissible", "ZI", "--model", "uniform1",
      "--trials", "10", "--seed", "1", "--max-weight", "-2"),
     "argument --max-weight: a cap must be >= 0, got -2"),
    (("search", "--n", "6", "--k", "2", "--pattern", "ZI,IZ", "--error-weight", "-1"),
     "argument --error-weight: a cap must be >= 0, got -1"),
    (("verify", "qet", "--code", "table1-7q", "--admissible", "ZI", "--max-weight", "9"),
     "error: --max-weight 9 exceeds the qubit count n = 7"),
    (("simulate", "--code", "table1-7q", "--admissible", "ZI", "--model", "uniform1",
      "--trials", "10", "--seed", "1", "--max-weight", "8"),
     "error: --max-weight 8 exceeds the qubit count n = 7"),
    (("search", "--n", "4", "--k", "2", "--pattern", "ZI,IZ", "--error-weight", "7",
      "--budget", "3"),
     "error: --error-weight 7 exceeds the qubit count n = 4"),
    (("verify", "qet", "--code", "eq20-lattice:4x4", "--relabel"),
     "error: relabeling is limited to k <= 3, code has k=16"),
    (("distance", "--code", "rep:abc", "--cap", "2"),
     "error: catalog entry 'rep' needs an integer parameter, got 'abc'"),
    (("distance", "--code", "eq16-lattice:3x", "--cap", "2"),
     "error: catalog entry 'eq16-lattice' needs a size L or AxB (integers), got '3x'"),
    (("classical", "distance", "--code", "cyclic:x:1+x"),
     "error: cyclic code spec cyclic:<n>:<poly> needs an integer n, got 'x'"),
    (("simulate", "--code", "table1-7q", "--admissible", "ZI", "--model", "depol:x",
      "--trials", "10", "--seed", "1", "--threads", "1"),
     "error: model depol:<p> needs a number p, got 'x'"),
    (("classical", "distance", "--code", "cyclic:3:1+x^3"),
     "error: the [3,0] code has no nonzero codeword, so no distance"),
    (("classical", "distance", "--code", "cyclic:0:1"),
     "error: cyclic code length must be >= 1, got 0"),
    (("classical", "distance", "--code", "cyclic:-5:1"),
     "error: cyclic code length must be >= 1, got -5"),
])
def test_bad_numeric_input_exit_code(capsys, argv, message):
    # argparse rejects by SystemExit; a weight above the code's n, a bad spec
    # parameter or the relabeling limit is known only once the command runs,
    # and main returns the usage exit code for it.
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ("distance", "--cap", "3"),
    ("verify", "qet", "--admissible", "Z", "--max-weight", "1"),
])
def test_invalid_code_file_exit_code(tmp_path, capsys, argv):
    bad = tmp_path / "anticommuting.code"
    bad.write_text("3 1\nXII\nZII\nXL\nIXI\nZL\nIZI\n")
    code, out, err = run(capsys, *argv, "--code", str(bad))
    assert code == 2
    assert out == ""
    assert "parse error: invalid code: generators 0 and 1 anticommute" in err


@pytest.mark.parametrize("argv", [
    ("verify", "qet", "--code", "table2-6q", "--admissible"),
    ("search", "--n", "4", "--k", "2", "--budget", "3", "--pattern"),
])
def test_bad_admissible_file_names_the_line(tmp_path, capsys, argv):
    bad = tmp_path / "bad.adm"
    bad.write_text("ZI\n# comment\n\nIQ\n")
    code, out, err = run(capsys, *argv, str(bad))
    assert code == 2
    assert out == ""
    assert "parse error: invalid Pauli letter 'Q' at line 4, position 1" in err


@pytest.mark.parametrize("argv, message", [
    (("verify", "qet", "--code", "table2-6q", "--admissible", "ZI,IQ"),
     "parse error: admissible item 2 'IQ': invalid Pauli letter 'Q' at position 1"),
    (("search", "--n", "4", "--k", "2", "--budget", "3", "--pattern", "ZI,IZI"),
     "parse error: admissible item 2 'IZI': logical string has 3 letters, expected 2"),
])
def test_bad_inline_admissible_names_the_item(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("value", ["nan", "-0.1", "x"])
def test_bad_channel_probability_names_the_line(tmp_path, capsys, value):
    channel = tmp_path / "bad.channel"
    channel.write_text(f"# weights\nXIIIIII 0.1\nZIIIIII {value}\n")
    code, out, err = run(capsys, "simulate", "--code", "table1-7q", "--admissible", "ZI",
                         "--model", str(channel), "--trials", "100", "--seed", "1",
                         "--threads", "1")
    assert code == 2
    assert out == ""
    assert (f"parse error: probability must be a number >= 0, got {value!r} at line 3"
            in err)


def test_channel_error_of_wrong_length_names_the_line(tmp_path, capsys):
    channel = tmp_path / "short.channel"
    channel.write_text("XIIIIII 0.1\n\nXII 0.1\n")
    code, out, err = run(capsys, "simulate", "--code", "table1-7q", "--admissible", "ZI",
                         "--model", str(channel), "--trials", "10", "--seed", "1",
                         "--threads", "1")
    assert code == 2
    assert out == ""
    assert "parse error: channel error has 3 letters, expected 7 at line 3" in err


@pytest.mark.parametrize("cap, printed, exit_code", [
    ("3", "[31,26] distance = 3\n", 0),
    ("2", "[31,26] distance = >=3 (cap 2)\n", 3),
])
def test_classical_distance_beyond_k25_is_exact_or_capped(capsys, cap, printed, exit_code):
    code, out, _ = run(capsys, "classical", "distance", "--code", "cyclic:31:1+x^2+x^5",
                       "--cap", cap, "--require-exact")
    assert code == exit_code
    assert out == printed
