"""Monte Carlo validation of recovery at the symplectic level.

Trials sample a Pauli error, look up its syndrome's entry in a recovery
table, draw one of its admissible options uniformly, and tally the residual
logical class option ^ class(reference·error); no correction operator is
built. Everything happens on symplectic bit masks; no state vectors are
involved. Chunked seeding makes reports independent of worker count. Pool
workers receive the code, table and model once, when they start, and each
chunk only its size and seed.
"""
from __future__ import annotations

import random
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import accumulate

from .pauli import PauliOp, enumerate_paulis
from .qet import AdmissibleSet, RecoveryTable
from .stabilizer import StabilizerCode, class_bits_to_string

_CHUNK = 20_000


@dataclass(frozen=True)
class ExplicitChannel:
    """Weighted Pauli errors; leftover probability is the identity."""

    n: int
    errors: tuple[tuple[PauliOp, float], ...]

    def __post_init__(self):
        total = 0.0
        for e, p in self.errors:
            if e.n != self.n:
                raise ValueError("channel error acts on the wrong number of qubits")
            if not p >= 0:
                raise ValueError(f"probability must be a number >= 0, got {p}")
            total += p
        if total > 1.0 + 1e-9:
            raise ValueError(f"probabilities sum to {total} > 1")

    @property
    def identity_probability(self) -> float:
        return max(0.0, 1.0 - sum(p for _, p in self.errors))


@dataclass(frozen=True)
class DepolarizingChannel:
    """Independent per-qubit depolarizing noise: X, Y, Z each with rate p/3."""

    n: int
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("depolarizing rate must be in [0, 1]")


ChannelModel = ExplicitChannel | DepolarizingChannel


def uniform_single_error_channel(n: int) -> ExplicitChannel:
    """Exactly one single-qubit error, uniform over all 3n choices."""
    return ExplicitChannel(n, tuple((p, 1.0 / (3 * n)) for p in enumerate_paulis(n, 1)))


@dataclass
class TrialReport:
    trials: int = 0
    seed: str = ""
    class_counts: dict[int, int] = field(default_factory=dict)
    uncovered: int = 0

    def merge(self, other: "TrialReport") -> None:
        self.trials += other.trials
        self.uncovered += other.uncovered
        for c, v in other.class_counts.items():
            self.class_counts[c] = self.class_counts.get(c, 0) + v

    def admissible_rate(self, adm: AdmissibleSet) -> float:
        if self.trials == 0:
            return 0.0
        good = sum(v for c, v in self.class_counts.items() if c in adm.classes)
        return good / self.trials

    def class_distribution(self) -> dict[int, float]:
        covered = self.trials - self.uncovered
        if covered == 0:
            return {}
        return {c: v / covered for c, v in self.class_counts.items()}

    def render(self, k: int) -> str:
        lines = [f"trials = {self.trials}", f"seed = {self.seed}",
                 f"uncovered = {self.uncovered}"]
        for c in sorted(self.class_counts):
            lines.append(f"class {class_bits_to_string(k, c)} = {self.class_counts[c]}")
        return "\n".join(lines)


def _sample_error(model: ChannelModel, rng: random.Random,
                  cumulative: list[float] | None) -> tuple[int, int]:
    if isinstance(model, ExplicitChannel):
        u = rng.random()
        i = bisect_right(cumulative, u)
        if i >= len(model.errors):
            return 0, 0  # identity remainder
        e = model.errors[i][0]
        return e.x, e.z
    x = z = 0
    for q in range(model.n):
        u = rng.random()
        if u < model.p:
            letter = min(2, int(3 * u / model.p))  # 0,1,2 equally likely given u < p
            if letter != 2:
                x |= 1 << q
            if letter != 0:
                z |= 1 << q
    return x, z


def _run_chunk(code: StabilizerCode, table: RecoveryTable, model: ChannelModel,
               count: int, chunk_seed: str) -> TrialReport:
    rng = random.Random(chunk_seed)
    cumulative = None
    if isinstance(model, ExplicitChannel):
        cumulative = list(accumulate(p for _, p in model.errors))
    report = TrialReport(trials=count, seed=chunk_seed)
    classes = report.class_counts
    for _ in range(count):
        ex, ez = _sample_error(model, rng, cumulative)
        if (ex, ez) not in table.support:
            report.uncovered += 1
            continue
        entry = table.entries[code.syndrome_bits(ex, ez)]
        options = entry.options
        image = options[-1]  # the only option, or the walk's fallback
        if len(options) > 1:
            # A walk over the equal weights 1/m rather than int(u * m): the
            # float boundaries can differ in the last bit, and seeded
            # tallies depend on them.
            u = rng.random()
            wgt = 1.0 / len(options)
            acc = 0.0
            for cand in options:
                acc += wgt
                if u < acc:
                    image = cand
                    break
        rx, rz = entry.reference.x ^ ex, entry.reference.z ^ ez
        if code.syndrome_bits(rx, rz):
            raise AssertionError("reference left a nonzero syndrome; table is corrupt")
        cls = image ^ code.class_bits(rx, rz)
        classes[cls] = classes.get(cls, 0) + 1
    return report


# Set only inside a pool worker, once, by the pool's initializer.
_worker_args: tuple[StabilizerCode, RecoveryTable, ChannelModel] | None = None


def _init_worker(code: StabilizerCode, table: RecoveryTable, model: ChannelModel) -> None:
    global _worker_args
    _worker_args = (code, table, model)


def _run_worker_chunk(count: int, chunk_seed: str) -> TrialReport:
    return _run_chunk(*_worker_args, count, chunk_seed)


def run_trials(code: StabilizerCode, table: RecoveryTable, model: ChannelModel,
               trials: int, seed: int, threads: int = 1) -> TrialReport:
    """Sample, correct, and tally. Chunks carry derived seeds, so the merged
    report does not depend on the worker count."""
    chunks = []
    remaining = trials
    idx = 0
    while remaining > 0:
        size = min(_CHUNK, remaining)
        chunks.append((size, f"{seed}:{idx}"))
        remaining -= size
        idx += 1
    total = TrialReport(seed=str(seed))
    if threads > 1 and len(chunks) > 1:
        # The pool may start every worker at the first submit, so it is
        # never sized past the number of chunks.
        with ProcessPoolExecutor(max_workers=min(threads, len(chunks)),
                                 initializer=_init_worker,
                                 initargs=(code, table, model)) as pool:
            futures = [pool.submit(_run_worker_chunk, size, cs) for size, cs in chunks]
            for fut in futures:
                total.merge(fut.result())
    else:
        for size, cs in chunks:
            total.merge(_run_chunk(code, table, model, size, cs))
    total.seed = str(seed)
    return total


def exact_class_distribution(code: StabilizerCode, table: RecoveryTable,
                             model: ExplicitChannel) -> tuple[dict[int, float], float]:
    """Closed-form residual-class distribution for an explicit channel.

    Returns (class -> probability, uncovered probability); class masses are
    conditioned on nothing (they sum to 1 - uncovered).
    """
    dist: dict[int, float] = {}
    uncovered = 0.0
    pairs = list(model.errors)
    pid = model.identity_probability
    if pid > 0:
        pairs.append((PauliOp(model.n, 0, 0), pid))
    for e, p in pairs:
        if (e.x, e.z) not in table.support:
            uncovered += p
            continue
        entry = table.entries[code.syndrome_bits(e.x, e.z)]
        residual = code.class_bits(entry.reference.x ^ e.x, entry.reference.z ^ e.z)
        wgt = 1.0 / len(entry.options)
        for image in entry.options:
            res = image ^ residual
            dist[res] = dist.get(res, 0.0) + p * wgt
    return dist, uncovered


def total_variation(a: dict[int, float], b: dict[int, float]) -> float:
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)
