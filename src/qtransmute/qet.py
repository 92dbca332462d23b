"""Error-transmutation condition checkers and recovery-table construction.

An admissible set is a collection of logical classes (always containing the
identity class) that recovery is allowed to leave behind. The group-case
check requires every same-syndrome error pair's product class to be
admissible. The general-case check asks, per syndrome bucket, for an
assignment of admissible classes to errors that reproduces every pair
product; fixing the assignment of the bucket reference forces all others,
so feasibility reduces to scanning candidate reference assignments.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations

from .errors import DimensionMismatch
from .f2 import symplectic
from .pauli import PauliOp, enumerate_paulis, render, weight as pauli_weight
from .stabilizer import (DistanceResult, StabilizerCode,
                         class_bits_from_string, class_bits_to_string,
                         scan_zero_syndrome)


@dataclass(frozen=True)
class AdmissibleSet:
    """A set of logical classes the code may leave uncorrected."""

    k: int
    classes: frozenset[int]

    def __post_init__(self):
        if 0 not in self.classes:
            raise ValueError("the identity class must be admissible")
        if any(c >> (2 * self.k) or c < 0 for c in self.classes):
            raise ValueError("class bits exceed 2k")

    @property
    def is_group(self) -> bool:
        cl = self.classes
        return all(a ^ b in cl for a, b in combinations(cl, 2))

    @classmethod
    def from_strings(cls, k: int, strings) -> "AdmissibleSet":
        bits = {0}
        for s in strings:
            bits.add(class_bits_from_string(s.strip(), k))
        return cls(k, frozenset(bits))

    @classmethod
    def from_operators(cls, code: StabilizerCode, ops) -> "AdmissibleSet":
        """Admissible classes realized by explicit N(S) operators."""
        bits = {0}
        for op in ops:
            if code.syndrome_bits(op.x, op.z):
                raise ValueError(f"{render(op)} is not in N(S)")
            bits.add(code.class_bits(op.x, op.z))
        return cls(code.k, frozenset(bits))

    @classmethod
    def group_generated(cls, k: int, strings) -> "AdmissibleSet":
        """XOR-closure of the given logical Pauli strings."""
        gens = [class_bits_from_string(s.strip(), k) for s in strings]
        closed = {0}
        frontier = [0]
        while frontier:
            base = frontier.pop()
            for g in gens:
                nxt = base ^ g
                if nxt not in closed:
                    closed.add(nxt)
                    frontier.append(nxt)
        return cls(k, frozenset(closed))

    @classmethod
    def full(cls, k: int) -> "AdmissibleSet":
        return cls(k, frozenset(range(1 << (2 * k))))

    @classmethod
    def trivial(cls, k: int) -> "AdmissibleSet":
        return cls(k, frozenset([0]))

    def strings(self) -> list[str]:
        return [class_bits_to_string(self.k, c) for c in sorted(self.classes)]


def dumps_admissible(adm: AdmissibleSet) -> str:
    """One logical Pauli string per line; the identity line is omitted."""
    return "".join(s + "\n" for s in adm.strings() if set(s) != {"I"})


def loads_admissible(text: str, k: int) -> AdmissibleSet:
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    return AdmissibleSet.from_strings(k, lines)


@dataclass(frozen=True)
class PiBucket:
    """Feasible reference assignments for one occupied syndrome."""

    reference: PauliOp
    options: tuple[int, ...]  # admissible classes usable as the reference image


@dataclass(frozen=True)
class Verdict:
    passed: bool
    witness: tuple[PauliOp, PauliOp] | None = None
    pi_maps: dict[int, PiBucket] | None = None
    checked: tuple[PauliOp, ...] = ()


def _check_k(code: StabilizerCode, adm: AdmissibleSet) -> None:
    if adm.k != code.k:
        raise ValueError(f"admissible set has k={adm.k}, code has k={code.k}")


def _dedupe(code: StabilizerCode, errors) -> list[PauliOp]:
    seen: set[tuple[int, int]] = set()
    out = []
    for e in errors:
        if e.n != code.n:
            raise DimensionMismatch(f"error on {e.n} qubits, code on {code.n}")
        key = (e.x, e.z)
        if key not in seen:
            seen.add(key)
            out.append(e)
    return out


def _bucket_pairs(code: StabilizerCode, errors, refs: dict[int, PauliOp]):
    """Bucket errors by syndrome in input order. The first error of each
    syndrome becomes its reference in `refs`; every later error is yielded as
    (syndrome, error, class of reference·error)."""
    for e in errors:
        syn = code.syndrome_bits(e.x, e.z)
        ref = refs.setdefault(syn, e)
        if ref is not e:
            yield syn, e, code.class_bits(ref.x ^ e.x, ref.z ^ e.z)


def _narrow(classes: frozenset[int], pairs, options: dict[int, set[int]]):
    """Keep, per syndrome, the reference images o with o ^ diff admissible for
    every class difference seen; return the first pair that leaves none, or
    None. A syndrome with no pair keeps every image and gets no entry."""
    for pair in pairs:
        syn, _, diff = pair
        opts = options[syn] = {o for o in options.get(syn, classes)
                               if o ^ diff in classes}
        if not opts:
            return pair
    return None


def check_group_qet(code: StabilizerCode, adm: AdmissibleSet,
                    errors) -> Verdict:
    """Group-case conditions: every same-syndrome pair product class admissible.

    For a closed admissible set this is the general check: a class difference
    inside the set keeps every reference option, one outside empties them all
    at once, so the first violating pair is always (reference, offender).
    """
    if not adm.is_group:
        raise ValueError("admissible set is not a group; use check_general_qet")
    return check_general_qet(code, adm, errors)


def check_general_qet(code: StabilizerCode, adm: AdmissibleSet,
                      errors) -> Verdict:
    """General-case conditions: per bucket, some admissible reference image
    keeps every forced assignment admissible."""
    _check_k(code, adm)
    errs = _dedupe(code, errors)
    refs, options = {}, {}
    hit = _narrow(adm.classes, _bucket_pairs(code, errs, refs), options)
    if hit is not None:
        return Verdict(False, witness=(refs[hit[0]], hit[1]), checked=tuple(errs))
    pi = {syn: PiBucket(ref, tuple(sorted(options.get(syn, adm.classes))))
          for syn, ref in refs.items()}
    return Verdict(True, pi_maps=pi, checked=tuple(errs))


def strong_conditions_hold(code: StabilizerCode, adm: AdmissibleSet,
                           errors) -> bool:
    """Every same-syndrome pair product class admissible, with no relabeling
    of references: sufficient for the general conditions, necessary only for
    closed admissible sets."""
    _check_k(code, adm)
    classes = adm.classes
    diffs: dict[int, list[int]] = {}
    for syn, _, d in _bucket_pairs(code, _dedupe(code, errors), {}):
        # A pair (i, j) has product class diff_i ^ diff_j (the reference has 0),
        # so checking each new diff against the stored ones covers each pair once.
        seen = diffs.setdefault(syn, [0])
        if any(other ^ d not in classes for other in seen):
            return False
        seen.append(d)
    return True


def effective_distance(code: StabilizerCode, adm: AdmissibleSet,
                       cap: int) -> DistanceResult:
    """2w+1 for the largest w <= cap with all weight <= w errors transmutable."""
    _check_k(code, adm)
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    cap = min(cap, code.n)
    errors = chain([PauliOp(code.n, 0, 0)], enumerate_paulis(code.n, cap))
    hit = _narrow(adm.classes, _bucket_pairs(code, errors, {}), {})
    if hit is not None:
        return DistanceResult(2 * pauli_weight(hit[1]) - 1, True, cap)
    return DistanceResult(2 * cap + 1, cap >= code.n, cap)


def deff_lower_bound(code: StabilizerCode, adm: AdmissibleSet,
                     cap: int) -> DistanceResult:
    """Minimum weight of an N(S) element whose class is not admissible."""
    _check_k(code, adm)
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    cap = min(cap, code.n)
    classes = adm.classes

    def excluded(x: int, z: int) -> bool:
        return code.class_bits(x, z) not in classes

    for w in range(1, cap + 1):
        if scan_zero_syndrome(code, w, excluded):
            return DistanceResult(w, True, cap)
    return DistanceResult(cap + 1, False, cap)


# -- logical relabeling ---------------------------------------------------------


def symplectic_transforms(k: int):
    """All symplectic 2k x 2k matrices over GF(2), as column tuples.

    Columns 0..k-1 are the new X-class vectors, k..2k-1 the new Z-class
    vectors, expressed in the old basis. The identity comes first.
    """
    dim = 2 * k

    def rec(pairs: list[tuple[int, int]]):
        if len(pairs) == k:
            cols = tuple(p[0] for p in pairs) + tuple(p[1] for p in pairs)
            yield cols
            return
        chosen = [c for p in pairs for c in p]
        for u in range(1, 1 << dim):
            if any(symplectic(u, c, k) for c in chosen):
                continue
            for v in range(1, 1 << dim):
                if symplectic(u, v, k) != 1:
                    continue
                if any(symplectic(v, c, k) for c in chosen):
                    continue
                yield from rec(pairs + [(u, v)])

    yield from rec([])


def apply_transform(cols: tuple[int, ...], bits: int) -> int:
    """Image of a class vector under the column-tuple transform."""
    out = 0
    i = 0
    while bits:
        if bits & 1:
            out ^= cols[i]
        bits >>= 1
        i += 1
    return out


def relabel_search(code: StabilizerCode, pattern: AdmissibleSet, errors,
                   user_basis: tuple[list[PauliOp], list[PauliOp]] | None = None,
                   ) -> tuple[StabilizerCode, Verdict] | None:
    """Search logical relabelings for one under which the pattern passes.

    Exhausts the symplectic group for k <= 3; beyond that a caller-supplied
    basis is required. Returns the relabeled code and its verdict, or None.
    """
    _check_k(code, pattern)
    if user_basis is not None:
        candidate = code.with_logicals(*user_basis)
        verdict = check_general_qet(candidate, pattern, errors)
        return (candidate, verdict) if verdict.passed else None
    if code.k > 3:
        raise ValueError("exhaustive relabeling is limited to k <= 3; "
                         "supply user_basis for larger codes")

    errs = _dedupe(code, errors)
    pairs = list(_bucket_pairs(code, errs, {}))
    for cols in symplectic_transforms(code.k):
        mapped = frozenset(apply_transform(cols, p) for p in pattern.classes)
        if _narrow(mapped, pairs, {}) is None:
            new_x = [code.class_representative(cols[i]) for i in range(code.k)]
            new_z = [code.class_representative(cols[code.k + i]) for i in range(code.k)]
            candidate = code.with_logicals(new_x, new_z)
            verdict = check_general_qet(candidate, pattern, errs)
            if not verdict.passed:
                raise AssertionError("relabel replay disagrees with direct check")
            return candidate, verdict
    return None


# -- recovery -------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryEntry:
    reference: PauliOp
    components: tuple[tuple[int, float, PauliOp], ...]  # (class, weight, correction)


@dataclass(frozen=True)
class RecoveryTable:
    k: int
    entries: dict[int, RecoveryEntry] = field(default_factory=dict)
    support: frozenset[tuple[int, int]] = frozenset()

    def covers(self, e: PauliOp) -> bool:
        return (e.x, e.z) in self.support


def build_recovery(code: StabilizerCode, adm: AdmissibleSet, verdict: Verdict,
                   mixtures: dict[int, list[float]] | None = None,
                   default_mixture: str = "uniform") -> RecoveryTable:
    """Per-syndrome corrections: apply the reference, then one admissible class
    drawn from the mixture. The default spreads weight uniformly over the
    feasible assignments; "first" puts all weight on the lowest-sorted one
    (the identity assignment whenever it is feasible)."""
    if not verdict.passed:
        raise ValueError("cannot build a recovery table from a failed verdict")
    if default_mixture not in ("uniform", "first"):
        raise ValueError("default_mixture must be 'uniform' or 'first'")
    entries = {}
    for syn, bucket in verdict.pi_maps.items():
        opts = bucket.options
        if mixtures and syn in mixtures:
            weights = list(mixtures[syn])
            if len(weights) != len(opts):
                raise ValueError(f"syndrome {syn}: {len(weights)} weights for "
                                 f"{len(opts)} feasible assignments")
            if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
                raise ValueError(f"syndrome {syn}: mixture weights must be a distribution")
        elif default_mixture == "first":
            weights = [1.0] + [0.0] * (len(opts) - 1)
        else:
            weights = [1.0 / len(opts)] * len(opts)
        ref = bucket.reference
        comps = []
        for cls, wgt in zip(opts, weights):
            rep = code.class_representative(cls)
            correction = PauliOp(code.n, rep.x ^ ref.x, rep.z ^ ref.z)
            comps.append((cls, wgt, correction))
        entries[syn] = RecoveryEntry(ref, tuple(comps))
    support = frozenset((e.x, e.z) for e in verdict.checked)
    return RecoveryTable(code.k, entries, support)
