"""qtransmute benchmark: run one workload at one seed and print its metrics.

    python3 perfbench/run.py --workload distance --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. One client sends one request at a time (a closed loop). `--seconds`
sets how many passes over the seed's fixed request list are made, from each
workload's nominal pass time, so two commits always do the same work.

With `--trace 0` the end-to-end metrics are printed: wall_s (median pass
time), setup_s (fastest of 7 fresh processes) and peak_rss_mb, and beside
them the request latency percentiles req_p50_s and req_tail_s, which the
result line leaves out (see README.md). With `--trace 1` one untraced pass
and one traced pass are made and the per-layer metrics are printed. Every
answer is checked; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. A record of the run (machine, commit,
latencies, spans) goes to `.perfbench/`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 7
TAIL_BEYOND = 10  # requests a tail percentile must leave above it

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _add_source_path():
    if not (SRC / "qtransmute" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'qtransmute'} not found; run from a qtransmute checkout")
    sys.path.insert(0, str(SRC))


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) of the highest percentile that still has
    TAIL_BEYOND requests above it; the maximum when there are fewer."""
    ordered = sorted(latencies)
    i = len(ordered) - TAIL_BEYOND - 1
    if i < 0:
        i = len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def run_pass(requests, tracer=None):
    """Send every request once, in order; answers are checked afterwards."""
    from bench_workloads import execute
    latencies, answers = [], []
    begin = perf_counter()
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        start = perf_counter()
        try:
            answers.append(execute(req))
        except Exception as exc:  # one bad request must not stop the run
            answers.append(exc)
        latencies.append(perf_counter() - start)
    return perf_counter() - begin, latencies, answers


def measure_setup(workload: str, seed: int) -> list[float]:
    """Time fresh processes from start until their request list is ready."""
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--setup-probe"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = perf_counter()
            proc.stdout.read()
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {line!r}, exit {proc.returncode}")
        times.append(ready - start)
    return times


def git_commit() -> str:
    """HEAD of the checkout; 'unknown' outside a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "commit": git_commit()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _add_source_path()
    # Imports qtransmute and its CLI, so the first request pays no import.
    from bench_workloads import WORKLOADS, check_pass
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    requests = workload.build(args.seed, OUT)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    passes = 1 if args.trace else max(1, round(args.seconds / workload.nominal_pass_s))
    walls, latencies, failures = [], [], {}
    for p in range(passes):
        wall, lat, answers = run_pass(requests)
        walls.append(wall)
        latencies += lat
        failures.update({(p, i): r for i, r in check_pass(requests, answers).items()})

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "passes": passes, **machine(),
              "requests": [r.name for r in requests], "pass_wall_s": walls,
              "latencies_s": latencies, "setup_probes_s": setup}
    if args.trace:
        from bench_trace import PER_LAYER_UNITS, Tracer
        tracer = Tracer()
        with tracer:
            wall, lat, answers = run_pass(requests, tracer)
        failures.update({(passes, i): r for i, r in check_pass(requests, answers).items()})
        metrics = tracer.layer_metrics(dict(enumerate(lat)), wall, walls[0])
        units = PER_LAYER_UNITS
        record.update(traced_wall_s=wall, traced_latencies_s=lat,
                      work_counts=tracer.work_counts(),
                      spans_fields=["id", "name", "start", "end", "parent", "request", "self_s"],
                      spans=tracer.spans)
        attempted = (passes + 1) * len(requests)
    else:
        tail_s, tail_pct = tail(latencies)
        metrics = {"wall_s": statistics.median(walls),
                   "setup_s": min(setup),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END_UNITS
        record.update(req_p50_s=statistics.median(latencies), req_tail_s=tail_s,
                      tail_percentile=tail_pct, tail_requests=len(latencies))
        attempted = passes * len(requests)

    failed = len(failures)
    record.update(metrics=metrics, attempted=attempted, failed=failed,
                  failures={f"pass {p} {requests[i].name}": r
                            for (p, i), r in sorted(failures.items())})
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}: {passes} pass(es) of "
          f"{len(requests)} requests; python {record['python']}, nproc {record['nproc']}, "
          f"cpu {record['cpu']}, commit {record['commit']}")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    if not args.trace:
        print(f"req_p50_s = {record['req_p50_s']:.6g} s; req_tail_s = {tail_s:.6g} s, "
              f"p{tail_pct:.1f} of {len(latencies)} requests (not in the result line)")
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for where, reason in record["failures"].items():
        print(f"FAILED {where}: {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
