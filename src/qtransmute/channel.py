"""Monte Carlo validation of recovery at the symplectic level.

Trials sample a Pauli error, look up its syndrome's entry in a recovery
table, draw one of its admissible options uniformly, and tally the residual
logical class option ^ class(reference·error); no correction operator is
built. A depolarizing error is drawn from one failing qubit to the next: the
number of qubits that do not fail before the next one that does is
geometric, drawn by inversion from one uniform, and each failing qubit draws
one more uniform for its letter (X, Y or Z). A trial takes about one uniform
plus two per failing qubit, not one per qubit. Each chunk works out an
error's outcome (its entry's options and class(reference·error)) once: for
an explicit channel, every channel error's before the first trial; for
depolarizing noise, each supported error's when it is first drawn.
Everything happens on symplectic bit masks; no state vectors are involved.
Chunked seeding makes reports independent of worker count. Pool workers
receive the code, table and model once, when they start, and each chunk only
its size and seed.
"""
from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from math import inf, log, log1p

from .errors import DimensionMismatch
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


@lru_cache(maxsize=128)
def _cuts(m: int) -> tuple[float, ...]:
    """Boundaries of a uniform draw over m options: the running sums of the
    equal weights 1/m. Seeded tallies depend on these floats, and int(u * m)
    rounds differently at some of them. The m-th sum is left out: a draw at
    or above the (m-1)-th sum takes the last option, both below the m-th sum
    and in any rounding gap between it and 1."""
    return tuple(accumulate([1.0 / m] * m))[:-1]


def _outcome(code: StabilizerCode, table: RecoveryTable, x: int, z: int):
    """(options, boundaries, class(reference·error)) of a supported error;
    None for an uncovered one. A trial draws one option, uniformly, when
    there are several, and leaves the class option ^ class(reference·error)."""
    if (x, z) not in table.support:
        return None
    entry = table.entries[code.syndrome_bits(x, z)]
    rx, rz = entry.reference[0] ^ x, entry.reference[1] ^ z
    if code.syndrome_bits(rx, rz):
        raise AssertionError("reference left a nonzero syndrome; table is corrupt")
    return entry.options, _cuts(len(entry.options)), code.class_bits(rx, rz)


def _run_chunk(code: StabilizerCode, table: RecoveryTable, model: ChannelModel,
               count: int, chunk_seed: str) -> TrialReport:
    rng = random.Random(chunk_seed)
    random_ = rng.random
    if isinstance(model, ExplicitChannel):
        cumulative = list(accumulate(p for _, p in model.errors))
        # Index len(model.errors) is the identity remainder.
        outcomes = [_outcome(code, table, e.x, e.z) for e, _ in model.errors]
        outcomes.append(_outcome(code, table, 0, 0))

        def draw():
            return outcomes[bisect_right(cumulative, random_())]
    else:
        # Memoised for supported errors only, so never larger than the table.
        memo = {}
        p = model.p
        # A gap int(log(1 - u) / log(1 - p)) is the number of qubits that do
        # not fail before the next one that does. Rate 0 leaves no qubit to
        # draw; rate 1 makes every gap 0 (log1p(-1) would raise). The float
        # gap is compared with the qubits left before int(): at a subnormal
        # rate it can be infinite.
        span = model.n if p else 0
        log_q = log1p(-p) if p < 1.0 else -inf

        def draw():
            x = z = 0
            q = 0
            while q < span:
                gap = log(1.0 - random_()) / log_q
                if gap >= span - q:
                    break
                q += int(gap)
                bit = 1 << q
                letter = int(3.0 * random_())  # 0, 1, 2: X, Y, Z
                if letter != 2:
                    x |= bit
                if letter != 0:
                    z |= bit
                q += 1
            outcome = memo.get((x, z))
            if outcome is None:
                outcome = _outcome(code, table, x, z)
                if outcome is not None:
                    memo[x, z] = outcome
            return outcome

    report = TrialReport(trials=count, seed=chunk_seed)
    classes = report.class_counts
    for _ in range(count):
        outcome = draw()
        if outcome is None:
            report.uncovered += 1
            continue
        options, cuts, base = outcome
        # A one-option entry draws no random number; seeded tallies rely on it.
        cls = base ^ (options[bisect_right(cuts, random_())] if cuts else options[0])
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
    if model.n != code.n:
        raise DimensionMismatch(f"channel acts on {model.n} qubits, code on {code.n}")
    if trials < 1 or threads < 1:
        raise ValueError(f"trials and threads must be >= 1, got {trials} and {threads}")
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
        # Imported here so that unpooled runs never load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

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
    if model.n != code.n:
        raise DimensionMismatch(f"channel acts on {model.n} qubits, code on {code.n}")
    dist: dict[int, float] = {}
    uncovered = 0.0
    pairs = [((e.x, e.z), p) for e, p in model.errors]
    pid = model.identity_probability
    if pid > 0:
        pairs.append(((0, 0), pid))
    for (x, z), p in pairs:
        outcome = _outcome(code, table, x, z)
        if outcome is None:
            uncovered += p
            continue
        options, _, residual = outcome
        for image in options:
            res = image ^ residual
            dist[res] = dist.get(res, 0.0) + p * (1.0 / len(options))
    return dist, uncovered


def total_variation(a: dict[int, float], b: dict[int, float]) -> float:
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)
