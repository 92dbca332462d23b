"""Monte Carlo validation of recovery at the symplectic level.

A run draws its tallies, not its trials one by one. Every trial is an
independent draw from a distribution the run already knows, so `run_trials`
samples, in one draw in the calling process, how many of its trials land on
each outcome, one conditional binomial per outcome (`_binomial`: inversion
when the mean is small, Hörmann's BTRS otherwise). A draw's cost grows with
the number of distinct outcomes, not with the number of trials, so no run
is split or spread over processes; the CLI's `simulate --threads` is still
accepted and has no effect.

For an explicit channel one chain over the listed probabilities gives each
error's count, and the rest goes to the identity. For depolarizing noise one
chain over the Binomial(n, p) weight law gives how many trials have each
weight up to the support's highest; heavier trials are uncovered and draw no
error. A weight layer's trials are spread uniformly over its C(n, j)·3^j
errors, and each drawn index is unranked to its (x, z) masks. Each distinct
drawn error then looks up its syndrome's entry in the recovery table once,
and its count is spread uniformly over the entry's admissible options: an
option o leaves the residual logical class o ^ class(reference·error). No
correction operator is built and no state vector is involved.
"""
from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from math import comb, fabs, floor, lgamma, log, log2, sqrt

from .errors import DimensionMismatch
from .pauli import ErrorBall, PauliOp, enumerate_paulis
from .qet import AdmissibleSet, RecoveryTable
from .stabilizer import StabilizerCode, class_bits_to_string


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


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """A Binomial(n, p) variate: CPython 3.12's `random.binomialvariate`
    (which 3.11 lacks) taking the generator as an argument. Inversion by
    geometric gaps (Devroye's BG) when n·p < 10, else Hörmann's BTRS
    (transformed rejection with squeeze); p > 0.5 draws n - Bin(n, 1 - p).
    A generator in a given state yields what the 3.12 method would."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if p <= 0.0 or p >= 1.0:
        if p == 0.0:
            return 0
        if p == 1.0:
            return n
        raise ValueError("p must be in the range 0.0 <= p <= 1.0")
    random_ = rng.random
    if n == 1:
        return int(random_() < p)
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)
    if n * p < 10.0:
        x = y = 0
        c = log2(1.0 - p)
        if not c:  # p below the rounding of 1.0 - p
            return x
        while True:
            y += floor(log2(random_()) / c) + 1
            if y > n:
                return x
            x += 1
    spq = sqrt(n * p * (1.0 - p))  # standard deviation
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    vr = 0.92 - 4.2 / b
    alpha = None  # the acceptance test's constants, set at its first use
    while True:
        u = random_() - 0.5
        us = 0.5 - fabs(u)
        k = floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = random_()
        if us >= 0.07 and v <= vr:  # the squeeze: most draws stop here
            return k
        if alpha is None:
            alpha = (2.83 + 5.1 / b) * spq
            lpq = log(p / (1.0 - p))
            m = floor((n + 1) * p)  # the mode
            h = lgamma(m + 1) + lgamma(n - m + 1)
        v *= alpha / (a / (us * us) + b)
        if log(v) <= h - lgamma(k + 1) - lgamma(n - k + 1) + (k - m) * lpq:
            return k


def _chain(rng: random.Random, c: int, probs) -> list[int]:
    """Multinomial counts of c trials over outcomes of the given
    probabilities, one conditional binomial each; the last count is the
    rest, whose probability is 1 - sum(probs)."""
    counts = []
    mass = 1.0  # what the outcomes not yet drawn have left
    for p in probs:
        k = 0
        if c and p > 0.0:
            # Rounding can leave the mass at or below the last probabilities.
            k = _binomial(rng, c, p / mass if p < mass else 1.0)
        counts.append(k)
        c -= k
        mass -= p
    counts.append(c)
    return counts


def _split(rng: random.Random, c: int, m: int) -> dict[int, int]:
    """c trials spread uniformly over m outcomes, as {index: count} of the
    indices drawn: a chain of m - 1 conditional binomials when c >= m, else c
    index draws, so a split costs about min(c, m) draws."""
    counts = {}
    if c >= m:
        for i in range(m - 1):
            k = _binomial(rng, c, 1.0 / (m - i))
            if k:
                counts[i] = k
                c -= k
                if not c:
                    return counts
        counts[m - 1] = c
    else:
        randrange = rng.randrange  # exact for any m, unlike int(random() * m)
        for _ in range(c):
            i = randrange(m)
            counts[i] = counts.get(i, 0) + 1
    return counts


def _unrank(rows: list[list[int]], j: int, i: int) -> tuple[int, int]:
    """The i-th error of weight j, for 0 <= i < C(n, j)·3^j, where rows[t][q]
    is C(q, t) for q < n. i // 3^j ranks the support in the combinatorial
    number system: its highest qubit q is the last whose C(q, j) does not
    exceed the rank, and the rank less C(q, j) ranks the other j - 1. The
    base-3 digits of i % 3^j give the support qubits' letters."""
    rank, letters = divmod(i, 3 ** j)
    x = z = 0
    for t in range(j, 0, -1):
        row = rows[t]
        q = bisect_right(row, rank) - 1
        rank -= row[q]
        letters, letter = divmod(letters, 3)  # 0, 1, 2: X, Y, Z
        if letter != 2:
            x |= 1 << q
        if letter != 0:
            z |= 1 << q
    return x, z


def _top_weight(support) -> int:
    """The highest weight in a recovery table's support."""
    if isinstance(support, ErrorBall):
        return support.w
    return max(((x | z).bit_count() for x, z in support), default=0)


def _outcome(code: StabilizerCode, table: RecoveryTable, x: int, z: int):
    """(options, class(reference·error)) of a supported error; None for an
    uncovered one. Each option is equally likely, and option o leaves the
    class o ^ class(reference·error)."""
    if (x, z) not in table.support:
        return None
    entry = table.entries[code.syndrome_bits(x, z)]
    rx, rz = entry.reference[0] ^ x, entry.reference[1] ^ z
    if code.syndrome_bits(rx, rz):
        raise AssertionError("reference left a nonzero syndrome; table is corrupt")
    return entry.options, code.class_bits(rx, rz)


def _run_chunk(code: StabilizerCode, table: RecoveryTable, model: ChannelModel,
               count: int, chunk_seed: str) -> TrialReport:
    rng = random.Random(chunk_seed)
    report = TrialReport(trials=count, seed=chunk_seed)
    drawn: dict[tuple[int, int], int] = {}  # distinct error -> its trials
    if isinstance(model, ExplicitChannel):
        *counts, rest = _chain(rng, count, [p for _, p in model.errors])
        for (e, _), k in zip(model.errors, counts):
            if k:
                drawn[e.x, e.z] = drawn.get((e.x, e.z), 0) + k
        if rest:
            drawn[0, 0] = drawn.get((0, 0), 0) + rest
    else:
        n, p = model.n, model.p
        top = _top_weight(table.support)
        *layers, report.uncovered = _chain(
            rng, count, [comb(n, j) * p ** j * (1.0 - p) ** (n - j) for j in range(top + 1)])
        rows = [[comb(q, t) for q in range(n)] for t in range(top + 1)]
        for j, c in enumerate(layers):
            if c:
                for i, k in _split(rng, c, comb(n, j) * 3 ** j).items():
                    drawn[_unrank(rows, j, i)] = k
    classes = report.class_counts
    for (x, z), k in drawn.items():
        outcome = _outcome(code, table, x, z)
        if outcome is None:
            report.uncovered += k
            continue
        options, base = outcome
        for i, kk in _split(rng, k, len(options)).items():
            cls = base ^ options[i]
            classes[cls] = classes.get(cls, 0) + kk
    return report


def run_trials(code: StabilizerCode, table: RecoveryTable, model: ChannelModel,
               trials: int, seed: int) -> TrialReport:
    """Sample, correct, and tally all the trials in one draw."""
    if model.n != code.n:
        raise DimensionMismatch(f"channel acts on {model.n} qubits, code on {code.n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    # The old first 20,000-trial chunk's seed: runs up to that size keep their tallies.
    report = _run_chunk(code, table, model, trials, f"{seed}:0")
    report.seed = str(seed)
    return report


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
        options, residual = outcome
        for image in options:
            res = image ^ residual
            dist[res] = dist.get(res, 0.0) + p * (1.0 / len(options))
    return dist, uncovered


def total_variation(a: dict[int, float], b: dict[int, float]) -> float:
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)
