"""Per-layer tracing of qtransmute, installed from the benchmark's side.

`Tracer.install` replaces each public function named in `LAYER_OF` in every
`qtransmute.*` module namespace that holds it, so a call is seen whichever
module made it. Every call becomes a span (id, name, start, end, parent,
request, self time), kept in memory until the run ends. The hot
`StabilizerCode.syndrome_bits`/`class_bits` methods run millions of times
per request, so they are only counted, never spanned. `Tracer.remove` puts
every original back. No file of the package changes.

A span's self time is its duration minus the time of the spans it caused.
`enumerate_paulis` is a generator: its span charges only the time spent
producing items, and that time is taken out of the consumer's self time.
"""
from __future__ import annotations

import functools
import importlib
import math
import sys
from collections import defaultdict
from time import perf_counter

# span name ("module.function") -> layer that its self time is booked to
LAYER_OF = {
    "f2.rref": "f2",
    "f2.kernel_basis": "f2",
    "f2.solve": "f2",
    "pauli.errors_up_to_weight": "pauli",
    "pauli.enumerate_paulis": "pauli",
    "stabilizer.min_weight_in_class": "stabilizer.minw",
    "stabilizer.code_distance": "stabilizer.minw",
    "stabilizer.complete_logical_basis": "stabilizer.basis",
    "stabilizer.standard_form": "stabilizer.basis",
    "stabilizer.validate_code": "stabilizer.validate",
    "qet.scan_zero_syndrome": "qet.scan",
    "qet.deff_lower_bound": "qet.scan",
    "qet.check_general_qet": "qet.check",
    "qet.check_group_qet": "qet.check",
    "qet.strong_conditions_hold": "qet.check",
    "qet.effective_distance": "qet.effdist",
    "qet.relabel_search": "qet.relabel",
    "qet.build_recovery": "qet.recovery",
    "search.run_search": "search",
    "channel.run_trials": "channel",
    "lattice.toric_code": "lattice",
    "lattice.instantiate_torus": "lattice",
    "lattice.compact_encoding": "lattice",
    "classical.classical_distance": "classical",
    "classical.css_build": "classical",
    "classical.asymmetric_distances": "classical",
    "classical.cyclic_code": "classical",
    "transforms.concatenate": "transforms",
    "catalog.resolve": "catalog.resolve",
}
GENERATORS = {"pauli.enumerate_paulis"}
COUNTED_METHODS = ("syndrome_bits", "class_bits")

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS = {
    "f2.calls": "count",
    "f2.self_s": "s",
    "pauli.errors_enumerated": "count",
    "pauli.enum_s": "s",
    "stabilizer.syndrome_calls": "count",
    "stabilizer.minw_s": "s",
    "stabilizer.minw_candidates": "count",
    "stabilizer.minw_candidates_per_s": "1/s",
    "stabilizer.basis_s": "s",
    "stabilizer.basis_calls": "count",
    "stabilizer.validate_s": "s",
    "qet.scan_s": "s",
    "qet.scan_candidates": "count",
    "qet.scan_candidates_per_s": "1/s",
    "qet.scan_hits": "count",
    "qet.check_s": "s",
    "qet.check_errors": "count",
    "qet.check_errors_per_s": "1/s",
    "qet.buckets": "count",
    "qet.effdist_s": "s",
    "qet.relabel_s": "s",
    "qet.relabel_calls": "count",
    "qet.relabel_us_per_code": "us",
    "qet.relabel_hits": "count",
    "qet.recovery_s": "s",
    "qet.recovery_entries": "count",
    "search.examined": "count",
    "search.detection_passed": "count",
    "search.useful_ratio": "ratio",
    "search.self_s": "s",
    "search.candidates_per_s": "1/s",
    "channel.trials": "count",
    "channel.trials_per_s": "1/s",
    "channel.self_s": "s",
    "channel.uncovered_ratio": "ratio",
    "lattice.build_s": "s",
    "lattice.qubits_built": "count",
    "classical.self_s": "s",
    "transforms.self_s": "s",
    "catalog.resolve_s": "s",
    "catalog.resolve_calls": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def candidates_at_weight(n: int, w: int, pure) -> int:
    """Paulis of exact weight w on n qubits, with one letter per qubit when
    `pure` restricts to X-only or Z-only, three otherwise."""
    if not 1 <= w <= n:
        return 0
    return math.comb(n, w) * (1 if pure else 3) ** w


def _count_minw(counts, args, kwargs, result):
    # Computed, not observed: every weight layer up to the one reached. The
    # last layer can stop at the first hit, so this is an upper bound.
    code = args[0]
    target = _arg(args, kwargs, 1, "target")
    if getattr(target, "bits", target) == 0:
        return
    pure = _arg(args, kwargs, 3, "pure")
    reached = result.value if result.exact else result.cap
    counts["stabilizer.minw_candidates"] += sum(
        candidates_at_weight(code.n, w, pure) for w in range(1, reached + 1))


def _count_scan(counts, args, kwargs, result):
    # Computed: the depth-first scan visits every support of weight w.
    counts["qet.scan_candidates"] += candidates_at_weight(
        args[0].n, _arg(args, kwargs, 1, "w"), _arg(args, kwargs, 3, "pure"))


def _count_check(counts, args, kwargs, result):
    if isinstance(result, bool):  # strong_conditions_hold
        errors = _arg(args, kwargs, 2, "errors")
        counts["qet.check_errors"] += len(errors) if hasattr(errors, "__len__") else 0
        return
    counts["qet.check_errors"] += len(result.checked)
    if result.passed:
        counts["qet.buckets"] += len(result.pi_maps)


def _count_relabel(counts, args, kwargs, result):
    counts["qet.relabel_hits"] += result is not None


def _count_recovery(counts, args, kwargs, result):
    counts["qet.recovery_entries"] += len(result.entries)


def _count_search(counts, args, kwargs, result):
    counts["search.examined"] += result.examined
    counts["search.detection_passed"] += result.detection_passed


def _count_trials(counts, args, kwargs, result):
    counts["channel.trials"] += result.trials
    counts["channel.uncovered"] += result.uncovered


def _count_lattice(counts, args, kwargs, result):
    code = getattr(result, "code", result)
    counts["lattice.qubits_built"] += code.n


COUNT_HOOKS = {
    "stabilizer.min_weight_in_class": _count_minw,
    "qet.scan_zero_syndrome": _count_scan,
    "qet.check_general_qet": _count_check,
    "qet.check_group_qet": _count_check,
    "qet.strong_conditions_hold": _count_check,
    "qet.relabel_search": _count_relabel,
    "qet.build_recovery": _count_recovery,
    "search.run_search": _count_search,
    "channel.run_trials": _count_trials,
    "lattice.toric_code": _count_lattice,
    "lattice.instantiate_torus": _count_lattice,
    "lattice.compact_encoding": _count_lattice,
}


class _TimedIterator:
    """Wraps a generator so only the time spent producing items is charged
    to its span, and taken out of whichever span consumes the items."""

    def __init__(self, tracer: "Tracer", span: list, it):
        self._tracer = tracer
        self._span = span
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        start = perf_counter()
        try:
            item = next(self._it)
        finally:
            self._tracer._charge_generator(self._span, perf_counter() - start)
        self._tracer.counts["pauli.errors_enumerated"] += 1
        return item


class Tracer:
    """Spans and counts for one traced pass. Install, run, then remove."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent, request, self_s]
        self.counts: dict[str, int] = defaultdict(int)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.layer_calls: dict[str, int] = defaultdict(int)
        self.root_s: dict[object, float] = defaultdict(float)  # per request
        self.request = None
        self._stack: list[list] = []  # [span id, child time]
        self._method_calls = [0]
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("qtransmute")
        for sub in {name.split(".")[0] for name in LAYER_OF}:
            importlib.import_module(f"qtransmute.{sub}")
        modules = [m for name, m in sys.modules.items()
                   if m is package or name.startswith("qtransmute.")]
        for span_name in LAYER_OF:
            sub, func = span_name.split(".")
            original = getattr(sys.modules[f"qtransmute.{sub}"], func)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))
        from qtransmute.stabilizer import StabilizerCode
        for method in COUNTED_METHODS:
            original = StabilizerCode.__dict__[method]
            setattr(StabilizerCode, method, self._count_method(original))
            self._patches.append((StabilizerCode, method, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def _count_method(self, original):
        cell = self._method_calls

        @functools.wraps(original)
        def counted(code, x, z):
            cell[0] += 1
            return original(code, x, z)

        counted.__perfbench_wrapper__ = True
        return counted

    def _wrap(self, span_name: str, original):
        hook = COUNT_HOOKS.get(span_name)
        if span_name in GENERATORS:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span = self._open_generator(span_name)
                return _TimedIterator(self, span, original(*args, **kwargs))
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if span_name == "qet.scan_zero_syndrome":
                    args, kwargs = self._count_visits(args, kwargs)
                result = self._call(span_name, original, args, kwargs)
                if hook is not None:
                    hook(self.counts, args, kwargs, result)
                return result
        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def _count_visits(self, args, kwargs):
        counts = self.counts
        visit = _arg(args, kwargs, 2, "visit")

        def counting_visit(x, z):
            counts["qet.scan_hits"] += 1
            return visit(x, z)

        if len(args) > 2:
            args = args[:2] + (counting_visit,) + args[3:]
        else:
            kwargs = dict(kwargs, visit=counting_visit)
        return args, kwargs

    # -- spans ------------------------------------------------------------

    def _call(self, name: str, fn, args, kwargs):
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        span = [sid, name, 0.0, 0.0, parent, self.request, 0.0]
        self.spans.append(span)
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            self_s = duration - frame[1]
            span[2], span[3], span[6] = start, end, self_s
            if self._stack:
                self._stack[-1][1] += duration
            else:
                self.root_s[self.request] += duration
            self.layer_self[LAYER_OF[name]] += self_s
            self.layer_calls[LAYER_OF[name]] += 1
            self.inclusive[name] += duration

    def _open_generator(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        now = perf_counter()
        span = [len(self.spans), name, now, now, parent, self.request, 0.0]
        self.spans.append(span)
        return span

    def _charge_generator(self, span: list, busy: float) -> None:
        span[3] = perf_counter()
        span[6] += busy
        self.layer_self[LAYER_OF[span[1]]] += busy
        if self._stack:
            self._stack[-1][1] += busy
        else:
            self.root_s[self.request] += busy

    @property
    def method_calls(self) -> int:
        return self._method_calls[0]

    # -- results ----------------------------------------------------------

    def layer_metrics(self, request_latencies: dict, traced_wall_s: float,
                      untraced_wall_s: float) -> dict[str, float]:
        """Every metric of PER_LAYER_UNITS from this tracer's spans and counts.

        `request_latencies` maps each traced request id to its latency;
        cli.self_s is what those requests spent outside every layer span.
        """
        c, s, calls = self.counts, self.layer_self, self.layer_calls

        def rate(num, den):
            return num / den if den > 0 else 0.0

        search_s = self.inclusive["search.run_search"]
        trials_s = self.inclusive["channel.run_trials"]
        cli_s = sum(lat - self.root_s.get(rid, 0.0) for rid, lat in request_latencies.items())
        out = {
            "f2.calls": calls["f2"],
            "f2.self_s": s["f2"],
            "pauli.errors_enumerated": c["pauli.errors_enumerated"],
            "pauli.enum_s": s["pauli"],
            "stabilizer.syndrome_calls": self.method_calls,
            "stabilizer.minw_s": s["stabilizer.minw"],
            "stabilizer.minw_candidates": c["stabilizer.minw_candidates"],
            "stabilizer.minw_candidates_per_s": rate(c["stabilizer.minw_candidates"],
                                                     s["stabilizer.minw"]),
            "stabilizer.basis_s": s["stabilizer.basis"],
            "stabilizer.basis_calls": calls["stabilizer.basis"],
            "stabilizer.validate_s": s["stabilizer.validate"],
            "qet.scan_s": s["qet.scan"],
            "qet.scan_candidates": c["qet.scan_candidates"],
            "qet.scan_candidates_per_s": rate(c["qet.scan_candidates"], s["qet.scan"]),
            "qet.scan_hits": c["qet.scan_hits"],
            "qet.check_s": s["qet.check"],
            "qet.check_errors": c["qet.check_errors"],
            "qet.check_errors_per_s": rate(c["qet.check_errors"], s["qet.check"]),
            "qet.buckets": c["qet.buckets"],
            "qet.effdist_s": s["qet.effdist"],
            "qet.relabel_s": s["qet.relabel"],
            "qet.relabel_calls": calls["qet.relabel"],
            "qet.relabel_us_per_code": 1e6 * rate(s["qet.relabel"], calls["qet.relabel"]),
            "qet.relabel_hits": c["qet.relabel_hits"],
            "qet.recovery_s": s["qet.recovery"],
            "qet.recovery_entries": c["qet.recovery_entries"],
            "search.examined": c["search.examined"],
            "search.detection_passed": c["search.detection_passed"],
            "search.useful_ratio": rate(c["search.detection_passed"], c["search.examined"]),
            "search.self_s": s["search"],
            "search.candidates_per_s": rate(c["search.examined"], search_s),
            "channel.trials": c["channel.trials"],
            "channel.trials_per_s": rate(c["channel.trials"], trials_s),
            "channel.self_s": s["channel"],
            "channel.uncovered_ratio": rate(c["channel.uncovered"], c["channel.trials"]),
            "lattice.build_s": s["lattice"],
            "lattice.qubits_built": c["lattice.qubits_built"],
            "classical.self_s": s["classical"],
            "transforms.self_s": s["transforms"],
            "catalog.resolve_s": s["catalog.resolve"],
            "catalog.resolve_calls": calls["catalog.resolve"],
            "cli.self_s": cli_s,
            "trace.overhead_s": traced_wall_s - untraced_wall_s,
        }
        return out

    def work_counts(self) -> dict[str, int]:
        """The counts of one traced pass; they repeat exactly for one seed."""
        out = dict(self.counts)
        out["stabilizer.syndrome_calls"] = self.method_calls
        out.update((f"calls.{layer}", n) for layer, n in self.layer_calls.items())
        return out
