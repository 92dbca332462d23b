"""The logical channel a code and its recovery induce, computed exactly, and
Monte Carlo trials drawn from it.

A trial draws a physical Pauli error from a channel model. An error outside
the recovery table's support is uncovered. A supported error gets its
syndrome's reference and one of the entry's admissible options, drawn
uniformly: option o leaves the residual logical class o ^ class(reference·
error). No correction operator is built and no state vector is involved.

`class_distribution` gives the exact distribution of that outcome, as
floats. For an explicit channel it sums over the listed errors and the
identity remainder. For depolarizing noise the covered mass is the closed
form sum over j <= w of C(n, j) p^j (1 - p)^(n - j) for a weight-w ball, and
the sum of the errors' probabilities (p/3)^w (1 - p)^(n - w) over any other
support. Only the buckets of two or more supported errors, which the check
kept as members, are summed error by error, from an integer tally of the
members by (syndrome, class difference, weight); every other supported error
is its bucket's reference, and the rest of the covered mass goes uniformly
over the admissible classes. Each class's probability, the uncovered mass
and that rest are each one `math.fsum` of their terms, a mass counted c
times being c terms, so their rounding does not grow with the support and
does not depend on how the terms are grouped.

`run_trials` draws a run's tallies, not its trials: one multinomial over the
distribution's classes and "uncovered", a chain of conditional binomials
(`_binomial`: inversion when the mean is small, Hörmann's BTRS otherwise).
Its cost grows with the number of outcomes, not of trials, and an outcome of
mass 0 never gets a trial. The CLI's `simulate --threads` is still accepted
and has no effect.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, groupby, repeat
from math import comb, fabs, floor, fsum, lgamma, log, log2, sqrt
from operator import itemgetter

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
        return max(0.0, 1.0 - fsum(p for _, p in self.errors))


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


def _outcome(code: StabilizerCode, table: RecoveryTable, x: int, z: int):
    """(options, class(reference·error)) of a supported error; None for an
    uncovered one. Each option is equally likely, and option o leaves the
    class o ^ class(reference·error)."""
    if (x, z) not in table.support:
        return None
    entry = table.entries.bucket(code.syndrome_bits(x, z), x, z)
    rx, rz = entry.reference[0] ^ x, entry.reference[1] ^ z
    if code.syndrome_bits(rx, rz):
        raise AssertionError("reference left a nonzero syndrome; table is corrupt")
    return entry.options, code.class_bits(rx, rz)


def _spread(terms: dict[int, list[float]], masses: list[float], options, base: int) -> None:
    """Spread each of `masses` uniformly over the classes o ^ base of the
    options o: one more term per mass in each class's sum."""
    inv = 1.0 / len(options)
    shares = [m * inv for m in masses]
    for o in options:
        terms.setdefault(o ^ base, []).extend(shares)


def _fsum_tally(tally) -> float:
    """The exact sum, rounded once, of each (mass, count) pair's mass taken
    count times."""
    return fsum(chain.from_iterable(repeat(m, c) for m, c in tally))


def _depolarizing(code: StabilizerCode, table: RecoveryTable, model: DepolarizingChannel,
                  terms: dict[int, list[float]]) -> float:
    """Add the covered depolarizing mass to terms; return the uncovered mass.
    Only a bucket of two or more supported errors, named by the check's kept
    members, is summed error by error, one syndrome at a time from the
    members' tally by (syndrome, class difference, weight): errors of one
    weight have one mass, so each sum is over (mass, count) pairs. Every
    other bucket's lone error is its own reference and leaves each of the
    shared `every` options alike, so the rest of the covered mass, less the
    errors summed by bucket, is spread over them at once."""
    n, p = model.n, model.p
    by_weight = [(p / 3) ** w * (1.0 - p) ** (n - w) for w in range(n + 1)]  # one error's
    support, entries = table.support, table.entries
    if isinstance(support, ErrorBall):
        rest = [(comb(n, j) * p ** j * (1.0 - p) ** (n - j), 1) for j in range(support.w + 1)]
    else:
        weights = Counter((x | z).bit_count() for x, z in support)
        rest = [(by_weight[w], c) for w, c in weights.items()]
    uncovered = 0.0 if len(support) == 4 ** n else max(0.0, 1.0 - _fsum_tally(rest))
    tally = entries.member_tally()
    summed = Counter()  # weight -> errors summed bucket by bucket
    shared = 0  # buckets summed
    # sorted, a syndrome's keys are adjacent: one bucket's sums are held at a time
    for syn, keys in groupby(sorted(tally), itemgetter(0)):
        shared += 1
        entry = entries[syn]
        rx, rz = entry.reference
        if code.syndrome_bits(rx, rz) != syn:
            raise AssertionError("reference left a nonzero syndrome; table is corrupt")
        ref_weight = (rx | rz).bit_count()
        summed[ref_weight] += 1
        diffs = {0: [(by_weight[ref_weight], 1)]}  # class difference -> (mass, count)
        for key in keys:
            _, diff, weight = key
            count = tally[key]
            diffs.setdefault(diff, []).append((by_weight[weight], count))
            summed[weight] += count
        for diff, masses in diffs.items():
            _spread(terms, [_fsum_tally(masses)], entry.options, diff)
    if shared < len(entries):
        rest += [(-by_weight[w], c) for w, c in summed.items()]
        _spread(terms, [_fsum_tally(rest)], entries.every, 0)
    return uncovered


def class_distribution(code: StabilizerCode, table: RecoveryTable,
                       model: ChannelModel) -> tuple[dict[int, float], float]:
    """The exact logical channel of one trial: (class -> probability,
    uncovered probability). The class masses sum to 1 - uncovered; a class of
    mass 0 is left out. An explicit channel's errors are grouped by outcome,
    and each group's masses are spread at once."""
    if model.n != code.n:
        raise DimensionMismatch(f"channel acts on {model.n} qubits, code on {code.n}")
    terms: dict[int, list[float]] = {}  # class -> the masses that sum to its probability
    if isinstance(model, DepolarizingChannel):
        uncovered = _depolarizing(code, table, model, terms)
    else:
        groups: dict[tuple | None, list[float]] = {}  # outcome -> its errors' masses
        pairs = [((e.x, e.z), p) for e, p in model.errors]
        pairs.append(((0, 0), model.identity_probability))
        for (x, z), p in pairs:
            groups.setdefault(_outcome(code, table, x, z), []).append(p)
        uncovered = fsum(groups.pop(None, ()))
        for outcome, masses in groups.items():
            _spread(terms, masses, *outcome)
    dist = {c: fsum(masses) for c, masses in terms.items()}
    return {c: v for c, v in dist.items() if v > 0.0}, uncovered


def run_trials(code: StabilizerCode, table: RecoveryTable, model: ChannelModel,
               trials: int, seed: int) -> TrialReport:
    """Tally `trials` trials in one multinomial draw from `class_distribution`
    over its classes, in sorted order, and "uncovered". When no trial can be
    uncovered, the last class takes the chain's rest."""
    dist, uncovered = class_distribution(code, table, model)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    outcomes: list[int | None] = sorted(dist)
    if uncovered or not outcomes:
        outcomes.append(None)  # uncovered
    counts = _chain(random.Random(seed), trials, [dist[c] for c in outcomes[:-1]])
    report = TrialReport(trials=trials, seed=str(seed))
    for c, k in zip(outcomes, counts):
        if c is None:
            report.uncovered = k
        elif k:
            report.class_counts[c] = k
    return report
