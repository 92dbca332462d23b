"""Self-tests of the benchmark: python3 -m pytest perfbench -q

They use the cheap requests of each workload, so they finish in seconds.
"""
from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import qtransmute  # noqa: E402
from bench_trace import PER_LAYER_UNITS, Tracer  # noqa: E402
from bench_workloads import (WORKLOADS, CliAnswer, check_pass, check_random_search,  # noqa: E402
                             execute)
from run import tail  # noqa: E402

# Requests that each take well under a second.
CHEAP = {
    "distance": lambda r: r.name.startswith(("distance/toric:3", "deff/", "css/",
                                             "classical/", "concat/table1-7q*inner-5q/scan-cap=3")),
    "search": lambda r: r.piece is not None or r.name.startswith("search/n6-random/ZI,IZ"),
    "verify-simulate": lambda r: any(code in r.name for code in ("table2-6q/", "css17/", "rep:9/"))
    and "100000" not in r.name,
}


def cheap_requests(workload: str, seed: int, tmp_path: Path):
    reqs = [r for r in WORKLOADS[workload].build(seed, tmp_path) if CHEAP[workload](r)]
    if workload == "search":  # keep the pieces and two random searches
        reqs = [r for r in reqs if r.piece is not None][:2] + \
               [r for r in reqs if r.piece is None][:2]
    return reqs


def _key(req):
    return req.name, req.argv, req.piece, req.replay, req.same_as


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_request_generation_is_deterministic(workload, tmp_path):
    first = [_key(r) for r in WORKLOADS[workload].build(7, tmp_path)]
    again = [_key(r) for r in WORKLOADS[workload].build(7, tmp_path)]
    other = [_key(r) for r in WORKLOADS[workload].build(8, tmp_path)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_cheap_requests_pass_their_checks(workload, tmp_path):
    reqs = cheap_requests(workload, 3, tmp_path)
    assert reqs
    assert check_pass(reqs, [execute(r) for r in reqs]) == {}


def test_corrupted_answers_count_as_failed(tmp_path):
    reqs = {r.name: r for r in WORKLOADS["distance"].build(1, tmp_path)}
    req = reqs["distance/toric:3/Z1Z2"]
    good = execute(req)
    assert check_pass([req], [good]) == {}
    wrong = replace(good, out=good.out.replace("= 6", "= 5"))
    assert list(check_pass([req], [wrong])) == [0]
    assert list(check_pass([req], [replace(good, rc=1)])) == [0]
    assert list(check_pass([req], [RuntimeError("boom")])) == [0]

    sims = {r.name: r for r in WORKLOADS["verify-simulate"].build(1, tmp_path)}
    sim = sims["simulate/table2-6q/uniform1/10000"]
    ans = execute(sim)
    assert check_pass([sim], [ans]) == {}
    lines = ans.out.splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith("class "))
    name, count = lines[i].rsplit(" = ", 1)
    lines[i] = f"{name} = {int(count) - 1}"
    assert list(check_pass([sim], [replace(ans, out="\n".join(lines))])) == [0]

    piece = next(r for r in WORKLOADS["search"].build(1, tmp_path) if r.piece)
    outcome = execute(piece)
    assert check_pass([piece], [outcome]) == {}
    outcome.found.append(("fake code", "fake verdict"))
    assert list(check_pass([piece], [outcome])) == [0]


def test_a_search_that_misses_hits_counts_as_failed(tmp_path, monkeypatch):
    import qtransmute.search
    reqs = {r.name: r for r in WORKLOADS["search"].build(1, tmp_path)}
    fixed = reqs["search/n6-random/ZI,IZ/seed=8"]
    good = execute(fixed)
    assert check_pass([fixed], [good]) == {}
    brute = check_random_search(6, 2, ("ZI", "IZ"), 125, 8, brute_force=True)
    assert brute(good) is None
    monkeypatch.setattr(qtransmute.search, "relabel_search", lambda *args: None)
    missed = execute(fixed)
    assert list(check_pass([fixed], [missed])) == [0]
    assert brute(missed) is not None


def test_a_scan_that_skips_high_weights_counts_as_failed(tmp_path, monkeypatch):
    import qtransmute.qet
    reqs = {r.name: r for r in WORKLOADS["distance"].build(1, tmp_path)}
    exact = [reqs["deff/css17"], reqs["deff/toric:4"]]
    assert check_pass(exact, [execute(r) for r in exact]) == {}
    scan = qtransmute.qet.scan_zero_syndrome
    monkeypatch.setattr(qtransmute.qet, "scan_zero_syndrome",
                        lambda code, w, visit, pure=None: scan(code, w, visit, pure) if w < 4
                        else None)
    assert list(check_pass(exact, [execute(r) for r in exact])) == [0, 1]


def test_replay_and_pair_checks_catch_differences(tmp_path):
    reqs = WORKLOADS["verify-simulate"].build(1, tmp_path)
    pair = [r for r in reqs if r.same_as]
    assert len(pair) == 2
    answers = [execute(r) for r in pair]
    assert check_pass(pair, answers) == {}
    changed = replace(answers[1], out=answers[1].out.replace("seed = ", "seed = 1"))
    assert list(check_pass(pair, [answers[0], changed])) == [1]
    replayed = next(r for r in reqs if r.replay)
    ans = execute(replayed)
    assert check_pass([replayed], [ans]) == {}
    assert list(check_pass([replayed], [replace(ans, err="x")])) == [0]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_answers_equal_untraced_and_counts_repeat(workload, tmp_path):
    reqs = cheap_requests(workload, 5, tmp_path)
    plain = [execute(r) for r in reqs]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            traced = []
            for i, r in enumerate(reqs):
                tracer.request = i
                traced.append(execute(r))
        assert [_answer(a) for a in traced] == [_answer(a) for a in plain]
        counts.append(tracer.work_counts())
        assert tracer.spans
    assert counts[0] == counts[1]


def _answer(ans):
    if isinstance(ans, CliAnswer):
        return ans
    return ans.examined, ans.detection_passed, ans.next_index, len(ans.found)


def test_wrappers_are_removed_after_the_traced_run(tmp_path):
    from qtransmute.stabilizer import StabilizerCode

    def wrapped_names():
        return [f"{name}.{attr}" for name, mod in sys.modules.items()
                if mod is qtransmute or name.startswith("qtransmute.")
                for attr, value in vars(mod).items()
                if getattr(value, "__perfbench_wrapper__", False)] + \
               [m for m in ("syndrome_bits", "class_bits")
                if getattr(StabilizerCode.__dict__[m], "__perfbench_wrapper__", False)]

    req = cheap_requests("distance", 1, tmp_path)[0]
    tracer = Tracer()
    with tracer:
        assert len(wrapped_names()) > 30
        execute(req)
    assert wrapped_names() == []
    with pytest.raises(RuntimeError):  # the context manager removes on error too
        with Tracer():
            raise RuntimeError("inside a traced run")
    assert wrapped_names() == []


def test_layer_metrics_cover_every_per_layer_name(tmp_path):
    reqs = cheap_requests("verify-simulate", 2, tmp_path)
    tracer = Tracer()
    with tracer:
        for i, r in enumerate(reqs):
            tracer.request = i
            execute(r)
    m = tracer.layer_metrics({i: 1.0 for i in range(len(reqs))}, 1.0, 0.5)
    assert m.keys() == PER_LAYER_UNITS.keys()
    assert m["trace.overhead_s"] == 0.5
    assert m["qet.check_errors"] > 0 and m["channel.trials"] > 0 and m["f2.calls"] > 0


def test_tail_leaves_ten_requests_above_it():
    lat = [float(i) for i in range(100)]
    assert tail(lat) == (89.0, 90.0)
    assert tail(lat[:5]) == (4.0, 100.0)
