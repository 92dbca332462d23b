"""The benchmark's workloads: request lists made from a seed, and the checks
that decide whether each answer is right.

A request is the call sequence of one `qtransmute` subcommand, run in-process
through `qtransmute.cli.main(argv)` with its output captured. The one
exception is a piece of the exhaustive n=5 window, which calls
`qtransmute.search.run_search(spec, start_index=...)` directly, so that the
checkpoint file format stays out of the benchmark.

Answers are checked after the pass that produced them, outside the timed
region and with tracing removed. Where the input is fixed the check compares
with the exact known value; where the seed picks the input the check
re-derives the answer another way. A fast but wrong answer counts as failed.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from qtransmute import cli, search
from qtransmute.errors import CodeConstructionError
from qtransmute.pauli import enumerate_paulis, errors_up_to_weight
from qtransmute.qet import AdmissibleSet, check_general_qet, symplectic_transforms
from qtransmute.stabilizer import StabilizerCode, complete_logical_basis, loads, validate_code

# Generator rows (bit i = character i) of the classical code whose parity
# checks give the Z side of the [17,2,3/5] CSS code; the X side is the
# [17,9,5] quadratic-residue code (README, "Background").
CSS17_C1_ROWS = (
    "10010001000000000", "01111010100000000", "10011110010000000",
    "11011110001000000", "11001100000100000", "01100110000010000",
    "10100010000001000", "11110010000000100", "11101000000000010",
    "01000110000000001",
)
QR17 = "cyclic:17:1+x^3+x^4+x^5+x^8"

N5_SPACE = 401_472  # standard-form candidates for n=5, k=2
N5_PIECES = 8
N5_PIECE = 8
N6_REQUESTS = 16  # per pattern
N6_BUDGET = 125
# Fixed random-search seeds for {I,Z1,Z2} at n=6, budget 125, with their
# exact (detected all single errors, hits). A brute-force relabeling over all
# 720 symplectic transforms (`brute_force_search`) gives the same counts, so
# a search that misses hits fails here whatever the workload seed.
N6_FIXED = {2: (29, 1), 8: (26, 2), 20: (19, 2), 33: (22, 2)}
TRIALS_BELOW_CHUNK = 10_000  # one 20,000-trial chunk: no process pool
TRIALS_ABOVE_CHUNK = 30_000  # two chunks: the default pool runs

# (code, qubits, verified weight, occupied syndromes, excluded-weight bound
# at that cap)
VERIFY_CODES = (
    ("table2-6q", 6, 1, 14, ">=2 (cap 1)"),
    ("css17", 17, 2, 1213, ">=3 (cap 2)"),
    ("rep:9", 9, 4, 256, ">=5 (cap 4)"),
    ("toric:5", 50, 2, 11026, ">=3 (cap 2)"),
    ("toric:7", 98, 2, 42778, ">=3 (cap 2)"),
    ("compact:8", 96, 1, 161, ">=2 (cap 1)"),
    ("eq16-lattice:8x8", 192, 1, 513, ">=2 (cap 1)"),
    ("eq20-lattice:6x6", 72, 1, 217, ">=2 (cap 1)"),
)
SELFTEST_CHECKS = 27


@dataclass(frozen=True)
class CliAnswer:
    rc: int
    out: str
    err: str


@dataclass(frozen=True)
class Request:
    """One request. `argv` is a CLI call; `piece` is (start_index, budget)
    of the n=5 window. `check(answer)` returns None or what is wrong."""

    name: str
    check: Callable[[object], str | None]
    argv: tuple[str, ...] = ()
    piece: tuple[int, int] | None = None
    replay: bool = False  # re-run once after the pass; output must repeat
    same_as: str = ""  # requests sharing this key must print the same output


@dataclass(frozen=True)
class Workload:
    nominal_pass_s: float  # one pass on the reference machine (see README.md)
    build: Callable[[int, Path], list[Request]]


def execute(req: Request):
    """Run one request in-process and return its answer."""
    if req.piece is not None:
        start, budget = req.piece
        spec = search.SearchSpec(n=5, k=2, pattern=AdmissibleSet.from_strings(2, ["ZI", "IZ"]),
                                 mode="exhaustive", budget=budget, limit=1)
        return search.run_search(spec, start_index=start)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(req.argv))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return CliAnswer(rc, out.getvalue(), err.getvalue())


def check_pass(requests: list[Request], answers: list) -> dict[int, str]:
    """Check every answer of one pass; returns request index -> reason."""
    failures = {}
    groups: dict[str, tuple[int, str]] = {}
    for i, (req, ans) in enumerate(zip(requests, answers)):
        if isinstance(ans, BaseException):
            failures[i] = f"raised {type(ans).__name__}: {ans}"
            continue
        reason = req.check(ans)
        if reason is None and req.same_as:
            first = groups.setdefault(req.same_as, (i, ans.out))
            if first[1] != ans.out:
                reason = f"output differs from {requests[first[0]].name}"
        if reason is None and req.replay:
            again = execute(req)
            if again != ans:
                reason = "replay with the same seed gave a different answer"
        if reason is not None:
            failures[i] = reason
    return failures


# -- checks ---------------------------------------------------------------


def expect_lines(*expected: tuple[str, tuple]):
    """Exit code 0, and for each (pattern, groups) some output line must
    match the pattern with exactly these groups."""
    compiled = [(re.compile(p), tuple(g)) for p, g in expected]

    def check(ans: CliAnswer) -> str | None:
        if ans.rc != 0:
            return f"exit code {ans.rc}: {ans.err.strip()[:200]}"
        lines = ans.out.splitlines()
        for pat, groups in compiled:
            found = [m.groups() for m in map(pat.match, lines) if m]
            if not found:
                return f"no output line matches {pat.pattern!r}"
            if groups not in found:
                return f"{pat.pattern!r} gave {found[0]}, expected {groups}"
        return None

    return check


def errors_up_to(n: int, w: int) -> int:
    """Number of Paulis of weight <= w on n qubits, identity included."""
    return 1 + sum(math.comb(n, v) * 3 ** v for v in range(1, w + 1))


def check_simulate(trials: int, uniform: bool):
    def check(ans: CliAnswer) -> str | None:
        if ans.rc != 0:
            return f"exit code {ans.rc}: {ans.err.strip()[:200]}"
        fields = dict(re.findall(r"^(trials|uncovered|admissible rate) = (\S+)$",
                                 ans.out, re.M))
        tallies = [int(v) for v in re.findall(r"^class \S+ = (\d+)$", ans.out, re.M)]
        if set(fields) != {"trials", "uncovered", "admissible rate"}:
            return "report lines missing"
        if int(fields["trials"]) != trials:
            return f"ran {fields['trials']} trials, asked for {trials}"
        if sum(tallies) + int(fields["uncovered"]) != trials:
            return "class tallies and uncovered do not add up to the trials"
        rate = float(fields["admissible rate"])
        if uniform and (fields["admissible rate"] != "1.0" or fields["uncovered"] != "0"):
            return f"uniform1 admissible rate {rate}, uncovered {fields['uncovered']}"
        if not 0.0 < rate <= 1.0:
            return f"admissible rate {rate} out of range"
        return None

    return check


def _detects_single_errors(gens, n: int) -> bool:
    """Every weight-1 Pauli anticommutes with some generator (computed here,
    not with the search module's column test)."""
    return all(any((bin(g.x & z).count("1") + bin(g.z & x).count("1")) & 1 for g in gens)
               for q in range(n) for x, z in ((1 << q, 0), (0, 1 << q), (1 << q, 1 << q)))


def brute_force_search(n: int, k: int, pattern: tuple[str, ...], budget: int,
                       seed: int, relabel: bool) -> tuple[int, int]:
    """(detected, hits) of a random search, re-derived by replaying its
    sampler and, when `relabel`, trying every symplectic relabeling with
    check_general_qet instead of the pruned relabel search."""
    rng = random.Random(seed)
    adm = AdmissibleSet.from_strings(k, list(pattern))
    errors = list(errors_up_to_weight(n, 1))
    transforms = list(symplectic_transforms(k)) if relabel else []
    detected = hits = 0
    for _ in range(budget):
        gens = search.sample_generators(n, k, rng)
        if not _detects_single_errors(gens, n):
            continue
        detected += 1
        if not relabel:
            continue
        try:
            code = StabilizerCode(gens, *complete_logical_basis(gens))
        except CodeConstructionError:
            continue
        for cols in transforms:
            relabeled = code.with_logicals(
                [code.class_representative(cols[i]) for i in range(k)],
                [code.class_representative(cols[k + i]) for i in range(k)])
            if check_general_qet(relabeled, adm, errors).passed:
                hits += 1
                break
    return detected, hits


def check_random_search(n: int, k: int, pattern: tuple[str, ...], budget: int, seed: int,
                        expected: tuple[int, int] | None = None, brute_force: bool = False):
    """Re-derive the single-error detection count by replaying the sampler;
    compare (detected, hits) with `expected` when given, or with a brute-force
    relabeling when `brute_force`; re-verify every hit with check_general_qet
    on the code as printed."""
    head = re.compile(rf"^examined (\d+) candidates \(seed {seed}\); (\d+) detected all "
                      r"single errors; (\d+) passed$")

    def check(ans: CliAnswer) -> str | None:
        if ans.rc != 0:
            return f"exit code {ans.rc}: {ans.err.strip()[:200]}"
        lines = ans.out.splitlines()
        summary = [m for m in map(head.match, lines) if m]
        if len(summary) != 1:
            return "no summary line"
        examined, detected, passed = (int(g) for g in summary[0].groups())
        if examined != budget:
            return f"examined {examined}, budget {budget}"
        want = expected or brute_force_search(n, k, pattern, budget, seed, brute_force)
        if detected != want[0]:
            return f"{detected} detected all single errors, replay gives {want[0]}"
        if (expected or brute_force) and passed != want[1]:
            return f"{passed} hits, expected {want[1]}"
        block = 1 + (n - k) + 2 * (k + 1)
        starts = [i for i, ln in enumerate(lines) if ln == f"{n} {k}"]
        if len(starts) != passed:
            return f"{len(starts)} codes printed, {passed} reported"
        adm = AdmissibleSet.from_strings(k, list(pattern))
        errors = errors_up_to_weight(n, 1)
        for s in starts:
            code = loads("\n".join(lines[s:s + block]))
            if not validate_code(code).ok:
                return "a printed hit is not a valid code"
            if any(code.syndrome_bits(p.x, p.z) == 0 for p in enumerate_paulis(n, 1)):
                return "a printed hit misses a single-qubit error"
            if not check_general_qet(code, adm, errors).passed:
                return "a printed hit fails check_general_qet"
        return None

    return check


def check_piece(start: int, budget: int):
    def check(out) -> str | None:
        if out.found:
            return f"{len(out.found)} hits in the n=5 window; none exist"
        if out.examined != budget or out.next_index != start + budget or out.exhausted:
            return (f"piece at {start}: examined {out.examined}, next index "
                    f"{out.next_index}, exhausted {out.exhausted}")
        return None

    return check


# -- workloads ------------------------------------------------------------


def _distance_requests(seed: int, workdir: Path) -> list[Request]:
    c1 = workdir / "css17-c1.txt"
    c1.write_text("\n".join(CSS17_C1_ROWS) + "\n", encoding="utf-8")
    reqs = []

    def cls_distance(code, cls, pure, cap, want):
        reqs.append(Request(
            f"distance/{code}/{cls}", argv=("distance", "--code", code, "--class", cls,
                                            "--pure", pure, "--cap", str(cap)),
            check=expect_lines((rf"^min weight in class {cls} = (.+)$", (str(want),)))))

    for cls, pure in (("Z1", "z"), ("Z2", "z"), ("Z1Z2", "z"),
                      ("X1", "x"), ("X2", "x"), ("X1X2", "x")):
        cls_distance("toric:3", cls, pure, 6, 6 if len(cls) == 4 else 3)
    cls_distance("toric:4", "Z1", "z", 4, 4)
    cls_distance("toric:4", "X1", "x", 4, 4)
    cls_distance("toric:5", "Z1", "z", 5, 5)
    for cap in (3, 4, 5):
        # The weight<=cap scan finds nothing, so the answer is the bound cap+1.
        reqs.append(Request(
            f"concat/table1-7q*inner-5q/scan-cap={cap}",
            argv=("concat", "--outer", "table1-7q", "--inner", "inner-5q",
                  "--admissible", "ZI", "--scan-cap", str(cap)),
            check=expect_lines((r"^concatenated code: \[(\d+),(\d+)\]$", ("35", "2")),
                               (r"^min excluded weight: (.+) \[(exact|bound)\]$",
                                (f">={cap + 1} (cap {cap})", "bound")))))
    reqs.append(Request(
        "css/css17", argv=("css", "build", "--c1", str(c1), "--c2", QR17, "--cap", "6"),
        check=expect_lines((r"^\[(\d+),(\d+)\] CSS code; validate: (.+)$", ("17", "2", "ok")),
                           (r"^asymmetric distances: X (\S+), Z (\S+)$", ("3", "5")))))
    reqs.append(Request(
        "classical/qr17", argv=("classical", "distance", "--code", QR17, "--cap", "17"),
        check=expect_lines((r"^\[(\d+),(\d+)\] distance = (.+)$", ("17", "9", "5")))))
    for code, cap in (("inner-5q", 5), ("eq20-lattice:4x4", 3)):
        reqs.append(Request(
            f"distance/{code}", argv=("distance", "--code", code, "--cap", str(cap)),
            check=expect_lines((r"^distance = (.+)$", ("3",)))))
    # The css17 and toric:4 excluded weights are exact and found by the
    # zero-syndrome scan at weight 5 and 4; min_weight_in_class agrees (5 is
    # its least weight over the excluded css17 classes; it finds weight-4
    # members in excluded toric:4 classes).
    for code, cap, deff, bound in (("table1-7q", 2, 3, ">=3 (cap 2)"),
                                   ("table2-6q", 2, 3, "2"),
                                   ("css17", 5, 5, "5"),
                                   ("toric:4", 4, 3, "4"),
                                   ("compact:4", 2, 3, "2")):
        reqs.append(Request(
            f"deff/{code}", argv=("deff", "--code", code, "--admissible", "catalog",
                                  "--cap", str(cap)),
            check=expect_lines((r"^d_eff = (.+)$", (str(deff),)),
                               (r"^excluded-weight lower bound: (.+)$", (bound,)))))
    # Inputs are fixed; the seed only orders them, so an effect of one request
    # on the next shows as spread rather than as a fixed bias.
    random.Random(f"distance:{seed}").shuffle(reqs)
    return reqs


def _search_requests(seed: int, workdir: Path) -> list[Request]:
    rng = random.Random(f"search:{seed}")
    reqs = [Request(
        "search/n4-exhaustive",
        argv=("search", "--n", "4", "--k", "2", "--pattern", "ZI,IZ", "--mode", "exhaustive",
              "--budget", "1000000", "--expect-empty"),
        check=expect_lines((r"^examined (\d+) candidates \(seed 0\); (\d+) detected all "
                            r"single errors; (\d+) passed$", ("2576", "160", "0")),
                           (r"^parameter space (exhausted)$", ("exhausted",))))]
    start = rng.randrange(N5_SPACE - N5_PIECES * N5_PIECE + 1)
    for i in range(N5_PIECES):
        at = start + i * N5_PIECE
        reqs.append(Request(f"search/n5-window/{at}", piece=(at, N5_PIECE),
                            check=check_piece(at, N5_PIECE)))

    def n6(pattern, s, **check):
        reqs.append(Request(
            f"search/n6-random/{','.join(pattern)}/seed={s}",
            argv=("search", "--n", "6", "--k", "2", "--pattern", ",".join(pattern),
                  "--mode", "random", "--seed", str(s), "--budget", str(N6_BUDGET),
                  "--limit", str(N6_BUDGET), "--expect-empty"),
            check=check_random_search(6, 2, pattern, N6_BUDGET, s, **check)))

    for s, expected in N6_FIXED.items():
        n6(("ZI", "IZ"), s, expected=expected)
    picked = []
    for pattern, count in ((("ZI", "IZ"), N6_REQUESTS - len(N6_FIXED)), (("ZI",), N6_REQUESTS)):
        for _ in range(count):
            picked.append((pattern, rng.randrange(1, 10 ** 9)))
    # One seed-picked search has its hits re-derived by brute force (about a
    # second, outside the timed region); the others have their detection count.
    brute = rng.randrange(len(picked))
    for i, (pattern, s) in enumerate(picked):
        n6(pattern, s, brute_force=i == brute)
    return reqs


def _verify_simulate_requests(seed: int, workdir: Path) -> list[Request]:
    rng = random.Random(f"verify-simulate:{seed}")
    reqs = []
    simulate_small = []
    for i, (code, n, w, occupied, bound) in enumerate(VERIFY_CODES):
        errors = errors_up_to(n, w)
        reqs.append(Request(
            f"verify/{code}/w={w}", argv=("verify", "qet", "--code", code,
                                          "--max-weight", str(w)),
            check=expect_lines((r"^verdict: PASS \((\d+) errors, (\d+) occupied syndromes\)$",
                                (str(errors), str(occupied))))))
        if code == "table2-6q":
            reqs.append(Request(
                f"verify-relabel/{code}/w={w}",
                argv=("verify", "qet", "--code", code, "--max-weight", str(w), "--relabel"),
                check=expect_lines((r"^verdict: PASS \((after relabeling)\)$",
                                    ("after relabeling",)))))
        reqs.append(Request(
            f"deff/{code}/cap={w}", argv=("deff", "--code", code, "--admissible", "catalog",
                                          "--cap", str(w)),
            check=expect_lines((r"^d_eff (.+)$", (f">= {2 * w + 1} (cap {w} binding)",)),
                               (r"^excluded-weight lower bound: (.+)$", (bound,)))))
        # Alternate which model gets the pool-sized trial count.
        counts = ((TRIALS_BELOW_CHUNK, TRIALS_ABOVE_CHUNK) if i % 2 == 0
                  else (TRIALS_ABOVE_CHUNK, TRIALS_BELOW_CHUNK))
        for model, trials in zip(("uniform1", "depol:0.01"), counts):
            req = Request(
                f"simulate/{code}/{model}/{trials}",
                argv=("simulate", "--code", code, "--model", model, "--trials", str(trials),
                      "--seed", str(rng.randrange(10 ** 6)), "--max-weight", str(w)),
                check=check_simulate(trials, model == "uniform1"))
            reqs.append(req)
            if n <= 17:
                simulate_small.append(len(reqs) - 1)
    # The ROADMAP orientation row: 100k uniform1 trials, one process and the
    # default pool. Chunk seeding makes the two tallies identical.
    s = str(rng.randrange(10 ** 6))
    for threads in ("1", "default"):
        extra = ("--threads", "1") if threads == "1" else ()
        reqs.append(Request(
            f"simulate/table2-6q/uniform1/100000/threads={threads}",
            argv=("simulate", "--code", "table2-6q", "--model", "uniform1",
                  "--trials", "100000", "--seed", s) + extra,
            check=check_simulate(100_000, True), same_as="table2-6q-100k"))
    reqs.append(Request("catalog/selftest", argv=("catalog", "selftest"),
                        check=_check_selftest))
    pick = rng.choice(simulate_small)
    reqs[pick] = replace(reqs[pick], replay=True)
    return reqs


def _check_selftest(ans: CliAnswer) -> str | None:
    if ans.rc != 0:
        return f"exit code {ans.rc}"
    lines = ans.out.splitlines()
    ok = [ln for ln in lines if ln.endswith(": ok")]
    if len(ok) != SELFTEST_CHECKS or len(lines) != SELFTEST_CHECKS:
        return f"{len(ok)} of {len(lines)} self-checks ok, expected {SELFTEST_CHECKS}"
    return None


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    "distance": Workload(17.5, _distance_requests),
    "search": Workload(15.0, _search_requests),
    "verify-simulate": Workload(14.0, _verify_simulate_requests),
}
