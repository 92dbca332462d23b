import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qtransmute import catalog, cli, lattice, report
from qtransmute.channel import ExplicitChannel, class_distribution, uniform_single_error_channel
from qtransmute.cli import main
from qtransmute.errors import content_lines
from qtransmute.pauli import ErrorBall, PauliOp, parse_pauli
from qtransmute.qet import build_recovery, check_general_qet
from qtransmute.stabilizer import class_bits_from_string, load_file


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


@pytest.mark.parametrize("argv,message", [
    (("catalog", "emit", "rep:3", "css17"),
     "error: catalog emit takes one entry name; extra: css17"),
    (("catalog", "emit", "rep:3", "css17", "toric"),
     "error: catalog emit takes one entry name; extra: css17 toric"),
    (("catalog", "list", "toric"), "error: catalog list takes no entry names; extra: toric"),
])
def test_catalog_refuses_entry_names_it_would_ignore(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == message + "\n"


# Every claim of `catalog selftest`, as (check, ok, info), taken from the
# implementation in which each entry had its own self-test function.
PINNED_CLAIMS = {
    "table1-7q": [("validates", True, ""), ("weight-1 errors all detected", True, ""),
                  ("effective distance 3", True, "3")],
    "table2-6q": [("validates", True, ""), ("general conditions pass at weight 1", True, ""),
                  ("strong conditions fail (non-group separation)", True, ""),
                  ("effective distance 3", True, "3")],
    "css17": [("validates", True, ""), ("[17,2] parameters", True, ""),
              ("asymmetric distances 3/5", True, "3/5"), ("effective distance 5", True, "5")],
    "eq16-lattice": [("validates", True, ""), ("two logical qubits per cell", True, "k=32"),
                     ("effective distance 3", True, "3")],
    "eq20-lattice": [("validates", True, ""), ("distance 3", True, "3")],
    "compact": [("validates", True, ""), ("vertex dephasing undetected", True, ""),
                ("effective distance 3", True, "3")],
    "toric": [("validates", True, ""), ("k = 2", True, ""),
              ("pure-Z weight of first cycle = L", True, "3")],
    "rep": [("validates", True, ""), ("effective distance n", True, "3")],
    "inner-5q": [("validates", True, ""), ("distance 3", True, "3"),
                 ("corrects single errors", True, "")],
    "rep:4": [("validates", True, "")],
    "rep:9": [("validates", True, ""), ("effective distance n", True, "9")],
    "toric:5": [("validates", True, ""), ("k = 2", True, ""),
                ("pure-Z weight of first cycle = L", True, "5")],
    "compact:6": [("validates", True, ""), ("vertex dephasing undetected", True, ""),
                  ("effective distance 3", True, "3")],
    "eq16-lattice:3x5": [("validates", True, ""), ("two logical qubits per cell", True, "k=30"),
                         ("effective distance 3", True, "3")],
    "eq20-lattice:6x6": [("validates", True, ""), ("distance 3", True, "3")],
}


def test_catalog_selftest_claims_are_pinned(capsys):
    assert {spec: catalog.selftest(spec) for spec in PINNED_CLAIMS} == PINNED_CLAIMS
    code, out, _ = run(capsys, "catalog", "selftest", *PINNED_CLAIMS)
    assert code == 0
    assert out.splitlines() == [f"{spec}: {check}: ok"
                                for spec, claims in PINNED_CLAIMS.items()
                                for check, _, _ in claims]


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


def test_text_formats_skip_blank_and_comment_lines():
    # every text format reads through this: an indented '#' is a comment, and
    # line numbers count the skipped lines, so parse errors name file lines
    lines = ["# header", "", "  a b  ", "   # indented", "\t", "c\r\n"]
    assert list(content_lines(lines)) == [(3, "a b"), (6, "c")]
    assert report.parse("# note\n\nkey = 1 2\n") == {"key": "1 2"}


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


@pytest.mark.parametrize("argv,exit_code,stdout,report_text", [
    (("verify", "qec", "--code", "table1-7q", "--max-weight", "1"), 1,
     "verdict: FAIL witness pair (ZIIIIII, IZIIIII)\n",
     "verdict = fail\nmax_weight = 1\nerrors = 22\nwitness_a = ZIIIIII\nwitness_b = IZIIIII\n"),
    (("verify", "qet", "--code", "table2-6q", "--admissible", "ZI,IZ", "--max-weight", "1"), 0,
     "verdict: PASS (19 errors, 14 occupied syndromes)\n",
     "verdict = pass\nmax_weight = 1\nerrors = 19\noccupied = 14\nvisited = 19\n"),
    (("verify", "qet", "--code", "GENS", "--admissible", "ZI", "--max-weight", "1",
      "--relabel"), 0,
     "verdict: PASS (after relabeling)\n"
     "  X1 = IXXIXII   Z1 = ZZIIIII\n"
     "  X2 = IIIIXXX   Z2 = YYIIZII\n"
     "verdict: PASS (22 errors, 18 occupied syndromes)\n",
     "verdict = pass\nmax_weight = 1\nerrors = 22\noccupied = 18\nvisited = 22\n"),
])
def test_verify_output_is_pinned(tmp_path, capsys, argv, exit_code, stdout, report_text):
    # GENS is table1-7q's generators alone, as in test_verify_relabel
    _, emitted, _ = run(capsys, "catalog", "emit", "table1-7q")
    gens = tmp_path / "gens.code"
    gens.write_text(emitted[:emitted.index("XL")])
    rpt = tmp_path / "verify.report"
    argv = [str(gens) if a == "GENS" else a for a in argv]
    assert run(capsys, *argv, "--report", str(rpt)) == (exit_code, stdout, "")
    assert rpt.read_text() == report_text


def test_search_output_is_pinned(capsys):
    assert run(capsys, "search", "--n", "6", "--k", "2", "--pattern", "ZI,IZ",
               "--mode", "random", "--seed", "7", "--budget", "2000", "--limit", "2") == (
        0,
        "examined 352 candidates (seed 7); 53 detected all single errors; 2 passed\n"
        "6 2\nXZZIXX\nIXZZXZ\nZIXIYZ\nZZIXIZ\nXL\nZXIXXX\nIXXIXX\nZL\nXIIXIX\nXZIIIX\n"
        "6 2\nYZIZXX\nZXZXZX\nIZXXXZ\nZIZZIZ\nXL\nXIIXXI\nIXIXIX\nZL\nYIXIII\nIZIIXI\n",
        "")


@pytest.mark.parametrize("mode", ["random", "exhaustive"])
def test_search_refuses_k_above_three_before_scanning(mode, capsys):
    # before, a scan ran first: exhaustive mode examined 528 candidates and exited 1
    assert run(capsys, "search", "--n", "5", "--k", "4", "--pattern", "ZIII",
               "--mode", mode, "--budget", "3000") == (
        2, "", "error: relabeling is limited to k <= 3, got k=4\n")


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


def test_torus_of_a_cell_without_generator_columns(tmp_path, capsys):
    cell = tmp_path / "empty.cell"
    cell.write_text("n 1 s 0\n")
    code, out, _ = run(capsys, "lattice", "check", "--cell", str(cell))
    assert code == 0 and "unit cell ok" in out
    out_path = tmp_path / "empty.code"
    code, out, _ = run(capsys, "lattice", "torus", "--cell", str(cell),
                       "--L", "2,2", "--out", str(out_path))
    assert code == 0
    assert out.splitlines()[0] == "2x2 torus: n=4 k=4 (dropped 0 dependent rows)"
    code, out, _ = run(capsys, "verify", "qec", "--code", str(out_path), "--max-weight", "0")
    assert code == 0 and out.startswith("verdict: PASS")


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


@pytest.mark.parametrize("cap, line", [
    (["--scan-cap", "0"], "min excluded weight: >=1 (cap 0) [bound]"),
    ([], None),
])
def test_concat_scan_cap_zero_is_a_scan(capsys, cap, line):
    # An explicit 0 scans no weight and prints its bound, as `deff --cap 0`
    # does; with no flag there is no scan and no line.
    code, out, _ = run(capsys, "concat", "--outer", "table1-7q", "--inner", "inner-5q",
                       "--admissible", "ZI", *cap)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "concatenated code: [35,2]"
    assert [l for l in lines if l.startswith("min excluded weight")] == ([line] if line else [])


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


@pytest.mark.parametrize("field", ["k", "error_weight"])
@pytest.mark.parametrize("text", ["true", "1.0", '"1"'])
def test_search_checkpoint_refuses_a_spec_field_of_another_json_type(tmp_path, capsys, field,
                                                                     text):
    # each of these equals the integer 1 under ==, and so used to resume the scan
    argv = ("search", "--n", "4", "--k", "1", "--pattern", "Z", "--mode", "exhaustive",
            "--expect-empty", "--budget", "100")
    ckpt = tmp_path / "scan.json"
    code, _, _ = run(capsys, *argv, "--checkpoint", str(ckpt))
    assert code == 0
    saved = json.loads(ckpt.read_text())
    assert saved[field] == 1 and saved["next_index"] == 100
    ckpt.write_text(json.dumps(saved).replace(f'"{field}": 1', f'"{field}": {text}'))
    before = ckpt.read_bytes()
    code, out, err = run(capsys, *argv, "--checkpoint", str(ckpt))
    assert code == 2
    assert "resuming" not in out
    assert f"is for another search: {field} is {json.loads(text)!r} there, 1 here" in err
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


def wilson_interval(hits, total, zscore=3.2905):
    """99.9% Wilson score interval for a binomial proportion hits / total."""
    centre = (hits + zscore ** 2 / 2) / (total + zscore ** 2)
    half = zscore * math.sqrt(hits * (total - hits) / total + zscore ** 2 / 4) / (total + zscore ** 2)
    return centre - half, centre + half


def exact_rates(code_name, model, max_weight):
    """Each residual class's exact probability per trial, and "uncovered"'s."""
    cc = catalog.resolve(code_name)
    code, n = cc.code, cc.code.n
    table = build_recovery(check_general_qet(code, cc.admissible, ErrorBall(n, max_weight)))
    if model == "uniform1":
        return exact_with_uncovered(code, table, uniform_single_error_channel(n))
    if model == "CHANNEL":
        return exact_with_uncovered(code, table, ExplicitChannel(n, tuple(
            (parse_pauli(e), float(p)) for e, p in map(str.split, SEEDED_CHANNEL.splitlines()))))
    # depol:p, written out as an explicit channel over the support, normalised
    # to the covered mass
    p = float(model.removeprefix("depol:"))
    covered = sum(math.comb(n, w) * p ** w * (1 - p) ** (n - w) for w in range(max_weight + 1))
    rates = exact_with_uncovered(code, table, ExplicitChannel(n, tuple(
        (PauliOp(n, x, z), (p / 3) ** (x | z).bit_count() * (1 - p) ** (n - (x | z).bit_count())
         / covered) for x, z in table.support)))
    return {c: v * covered for c, v in rates.items()} | {"uncovered": 1 - covered}


def exact_with_uncovered(code, table, model):
    rates, uncovered = class_distribution(code, table, model)
    return rates | {"uncovered": uncovered}


# The pinned bytes were derived by running each command below with the
# one-multinomial draw from the exact distribution (classes in sorted order,
# then "uncovered") seeded with 5, and copying its stdout. Each pinned tally
# is checked to lie in its 99.9% Wilson interval around the exact rate, so a
# pin records one draw of the right distribution, not just any output.
@pytest.mark.parametrize("argv,stdout", [
    (("--code", "css17", "--model", "depol:0.02", "--max-weight", "2"),
     "trials = 20000\nseed = 5\nuncovered = 108\nclass II = 6819\nclass XI = 6717\n"
     "class IX = 6356\nadmissible rate = 0.9946\n"),
    (("--code", "eq16-lattice:4x4", "--model", "uniform1"),
     "trials = 20000\nseed = 5\nuncovered = 0\n"
     "class IIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII = 3155\n"
     "class ZIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII = 1119\n"
     "class IIZIIIIIIIIIIIIIIIIIIIIIIIIIIIII = 1096\n"
     "class IIIIZIIIIIIIIIIIIIIIIIIIIIIIIIII = 1042\n"
     "class IIIIIIZIIIIIIIIIIIIIIIIIIIIIIIII = 1049\n"
     "class IIIIIIIIZIIIIIIIIIIIIIIIIIIIIIII = 1024\n"
     "class IIIIIIIIIIZIIIIIIIIIIIIIIIIIIIII = 1072\n"
     "class IIIIIIIIIIIIZIIIIIIIIIIIIIIIIIII = 1073\n"
     "class IIIIIIIIIIIIIIZIIIIIIIIIIIIIIIII = 1051\n"
     "class IIIIIIIIIIIIIIIIZIIIIIIIIIIIIIII = 1079\n"
     "class IIIIIIIIIIIIIIIIIIZIIIIIIIIIIIII = 1073\n"
     "class IIIIIIIIIIIIIIIIIIIIZIIIIIIIIIII = 1043\n"
     "class IIIIIIIIIIIIIIIIIIIIIIZIIIIIIIII = 1083\n"
     "class IIIIIIIIIIIIIIIIIIIIIIIIZIIIIIII = 994\n"
     "class IIIIIIIIIIIIIIIIIIIIIIIIIIZIIIII = 987\n"
     "class IIIIIIIIIIIIIIIIIIIIIIIIIIIIZIII = 1074\n"
     "class IIIIIIIIIIIIIIIIIIIIIIIIIIIIIIZI = 986\n"
     "admissible rate = 1.0\n"),
    (("--code", "table1-7q", "--model", "CHANNEL"),
     "trials = 20000\nseed = 5\nuncovered = 1060\nclass II = 9525\nclass ZI = 9415\n"
     "admissible rate = 0.947\n"),
], ids=["css17-depol", "eq16-uniform1", "table1-channel"])
def test_simulate_seeded_output_is_pinned(tmp_path, capsys, argv, stdout):
    # css17 at weight 2 and table1-7q spread among several options per
    # syndrome, so these pin the options' share of each class as well.
    channel = tmp_path / "channel.txt"
    channel.write_text(SEEDED_CHANNEL)
    opts = dict(zip(argv[::2], argv[1::2]))
    argv = [str(channel) if a == "CHANNEL" else a for a in argv]
    code, out, err = run(capsys, "simulate", *argv, "--trials", "20000", "--seed", "5",
                         "--threads", "1")
    assert (code, out, err) == (0, stdout, "")
    cc = catalog.resolve(opts["--code"])
    rates = exact_rates(opts["--code"], opts["--model"], int(opts.get("--max-weight", 1)))
    tallies = {"uncovered": int(re.search(r"^uncovered = (\d+)$", out, re.M)[1])}
    for logical, hits in re.findall(r"^class (\S+) = (\d+)$", out, re.M):
        tallies[class_bits_from_string(logical, cc.code.k)] = int(hits)
    assert tallies.keys() <= rates.keys()
    for key, rate in rates.items():
        low, high = wilson_interval(tallies.get(key, 0), 20_000)
        assert low <= rate <= high, (key, tallies.get(key, 0), rate)


def test_simulate_at_a_subnormal_depolarizing_rate(capsys):
    # At p = 1e-320 the gap log(1 - u) / log1p(-p) overflows to infinity; it
    # is compared with the qubits left before int() could raise
    code, out, err = run(capsys, "simulate", "--code", "table1-7q", "--admissible", "ZI",
                         "--model", "depol:1e-320", "--trials", "1000", "--seed", "1",
                         "--threads", "1")
    assert (code, err) == (0, "")
    assert "uncovered = 0\n" in out


def test_simulate_cost_does_not_grow_with_trials(capsys):
    # 10^12 trials are one draw of a few binomials; in 20,000-trial chunks
    # they were 5·10^7 chunks
    trials = 10 ** 12
    code, out, err = run(capsys, "simulate", "--code", "table1-7q", "--admissible", "ZI",
                         "--model", "depol:0.01", "--trials", str(trials), "--seed", "3")
    assert (code, err) == (0, "")
    uncovered = int(re.search(r"^uncovered = (\d+)$", out, re.M)[1])
    classes = [int(v) for v in re.findall(r"^class \S+ = (\d+)$", out, re.M)]
    assert sum(classes) + uncovered == trials
    low, high = wilson_interval(uncovered, trials)
    assert low <= 1 - 0.99 ** 7 - 7 * 0.01 * 0.99 ** 6 <= high, (uncovered, out)


@pytest.mark.parametrize("name,max_weight", [
    ("table2-6q", 1), ("css17", 2), ("rep:9", 4), ("toric:5", 2), ("toric:7", 2),
    ("compact:8", 1), ("eq16-lattice:8x8", 1), ("eq20-lattice:6x6", 1)])
def test_uniform1_never_draws_an_outcome_of_mass_zero(capsys, name, max_weight):
    # Every single-qubit error is supported, so the uncovered mass is exactly
    # 0 and the chain's rest goes to the last class: no trial is uncovered or
    # inadmissible even at 10^12 trials. These are the catalog codes and
    # weights of perfbench's verify-simulate requests, whose check requires
    # both lines.
    code, out, err = run(capsys, "simulate", "--code", name, "--model", "uniform1",
                         "--trials", str(10 ** 12), "--seed", "11",
                         "--max-weight", str(max_weight))
    assert (code, err) == (0, "")
    assert "uncovered = 0\n" in out and "admissible rate = 1.0\n" in out, out


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
    (("css", "build", "--c1", "cyclic:3:1+x", "--c2", "cyclic:3:1+x+x^2"),
     "error: k = 0: the [[3,0]] code has no logical operator, so no distance"),
    (("catalog", "selftest", "toric:"),
     "error: catalog entry 'toric' has an empty parameter after ':'; use 'toric' for the default"),
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


@pytest.mark.parametrize("argv,what", [
    (("verify", "qet", "--code", "toric:3000", "--max-weight", "0"),
     "a 3000x3000 toric code would have 18000000 qubits"),
    (("verify", "qet", "--code", "eq16-lattice:2000x2000", "--max-weight", "0"),
     "a 2000x2000 torus of 3-qubit cells would have 12000000 qubits"),
    (("verify", "qet", "--code", "eq20-lattice:2000x2000", "--max-weight", "0"),
     "a 2000x2000 torus of 2-qubit cells would have 8000000 qubits"),
    (("verify", "qet", "--code", "compact:3000", "--max-weight", "0"),
     "a 3000x3000 compact encoding would have 13500000 qubits"),
    (("lattice", "torus", "--cell", "eq16", "--L", "100000,100000"),
     "a 100000x100000 torus of 3-qubit cells would have 30000000000 qubits"),
], ids=["toric", "eq16-lattice", "eq20-lattice", "compact", "lattice-torus"])
def test_an_oversized_torus_is_refused_before_any_row_is_built(capsys, monkeypatch, argv, what):
    def no_rows(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(lattice, "PauliOp", no_rows)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {what}, above the limit of {lattice.MAX_TORUS_QUBITS}\n"


def test_distance_of_a_code_without_logical_qubits_is_refused(tmp_path, capsys):
    k0 = tmp_path / "k0.code"
    k0.write_text("1 0\nZ\n")
    code, out, err = run(capsys, "distance", "--code", str(k0), "--cap", "1")
    assert code == 2
    assert out == ""
    assert "error: k = 0: the [[1,0]] code has no logical operator, so no distance" in err


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


def test_consecutive_calls_share_one_parser_and_no_options(tmp_path, capsys):
    # main() parses with one parser per process; each call must act as it
    # would in a fresh process, whatever options the calls before it set.
    rpt = tmp_path / "first.report"
    calls = [
        ("simulate", "--code", "table1-7q", "--model", "uniform1", "--trials", "300",
         "--seed", "3", "--threads", "1", "--report", str(rpt)),
        ("simulate", "--code", "table1-7q", "--model", "uniform1", "--trials", "300",
         "--seed", "3"),
        ("verify", "qet", "--code", "table2-6q", "--relabel"),
        ("verify", "qet", "--code", "table2-6q"),
        ("distance", "--code", "toric:3", "--pure", "x", "--cap", "3"),
        ("distance", "--code", "toric:3"),  # --cap is required: usage error
        ("distance", "--code", "toric:3", "--cap", "3"),
        ("catalog", "emit", "inner-5q"),
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for i, argv in enumerate(calls):
        fresh = subprocess.run([sys.executable, "-m", "qtransmute.cli", *argv],
                               capture_output=True, text=True, env=env, timeout=120)
        if i == 1:
            rpt.unlink()  # the second call names no report, so writes none
        try:
            got = run(capsys, *argv)
        except SystemExit as exc:
            got = (exc.code, *capsys.readouterr())
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert rpt.exists() == (i == 0)
        # the shared parser reads each argv as a newly built one does
        if i != 5:
            assert vars(cli.build_parser().parse_args(argv)) == vars(
                cli.build_parser.__wrapped__().parse_args(argv))
