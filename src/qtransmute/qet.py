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

from copy import copy
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, tee

from .errors import DimensionMismatch, ParseError
from .f2 import symplectic
from .pauli import PauliOp, enumerate_paulis, render, weight as pauli_weight
from .stabilizer import (DistanceResult, StabilizerCode, _min_weight,
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
        return cls(k, frozenset([0, *_item_bits(k, strings)]))

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
        gens = _item_bits(k, strings)
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


def _item_bits(k: int, strings) -> list[int]:
    """Class bits of each logical string; a parse error names the 1-based item."""
    out = []
    for i, s in enumerate((s.strip() for s in strings), start=1):
        try:
            out.append(class_bits_from_string(s, k))
        except ParseError as exc:
            raise ParseError(f"admissible item {i} {s!r}: {exc}") from None
    return out


def dumps_admissible(adm: AdmissibleSet) -> str:
    """One logical Pauli string per line; the identity line is omitted."""
    return "".join(s + "\n" for s in adm.strings() if set(s) != {"I"})


def loads_admissible(text: str, k: int) -> AdmissibleSet:
    """Parse `dumps_admissible` output; blank and '#' lines are skipped, and a
    parse error names its line."""
    bits = {0}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if s and not s.startswith("#"):
            bits.add(class_bits_from_string(s, k, line=lineno))
    return AdmissibleSet(k, frozenset(bits))


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
    classes = adm.classes
    return _min_weight(scan_zero_syndrome, code, cap,
                       lambda x, z: code.class_bits(x, z) not in classes)


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


def _breadth_first_orbit(k: int, classes: frozenset[int]):
    """The distinct images of `classes` under Sp(2k,2), breadth-first from the
    identity under the transvections (u -> u ^ v when u and v anticommute),
    which generate the group. Each image comes with the column-tuple transform
    that first reaches it."""
    try:
        size = 1 << (2 * k)
        moves = [[u ^ v if symplectic(u, v, k) else u for u in range(size)]
                 for v in range(1, size)]
        queue = [(classes, tuple(1 << i for i in range(2 * k)))]
        seen = {classes}
        for image, cols in queue:
            yield image, cols
            for move in moves:
                nxt = frozenset(move[u] for u in image)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append((nxt, tuple(move[c] for c in cols)))
    except (Exception, KeyboardInterrupt):
        _orbit.cache_clear()  # a dead generator would replay a truncated orbit
        raise


@lru_cache(maxsize=8)
def _orbit(k: int, classes: frozenset[int]):
    """The replay cache for (k, classes): a tee that is never advanced, so it
    keeps every image found so far."""
    return tee(_breadth_first_orbit(k, classes), 1)[0]


def _pattern_images(k: int, classes: frozenset[int]):
    """(image, transform) pairs in `_breadth_first_orbit` order. Replays the
    images found by earlier calls and extends the search only as far as the
    caller reads."""
    return copy(_orbit(k, classes))


def relabel_search(code: StabilizerCode, pattern: AdmissibleSet, errors,
                   ) -> tuple[StabilizerCode, Verdict] | None:
    """Search logical relabelings for one under which the pattern passes.

    For k <= 3, tries each distinct image of the pattern under Sp(2k,2) once,
    in `_pattern_images` order, and relabels with the transform stored for the
    first image under which the pattern passes. Returns the relabeled code and
    its verdict, or None.
    """
    _check_k(code, pattern)
    if code.k > 3:
        raise ValueError(f"relabeling is limited to k <= 3, code has k={code.k}")

    errs = _dedupe(code, errors)
    pairs = list(_bucket_pairs(code, errs, {}))
    for mapped, cols in _pattern_images(code.k, pattern.classes):
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
class RecoveryTable:
    entries: dict[int, PiBucket]  # syndrome -> the verdict's bucket
    support: frozenset[tuple[int, int]]  # (x, z) of every verified error


def build_recovery(verdict: Verdict) -> RecoveryTable:
    """Per-syndrome recovery: apply the bucket's reference, then one of its
    admissible options, drawn uniformly. The class map is linear, so error e
    leaves the class option ^ class(reference·e) and no correction operator
    is built. The entries are the verdict's own buckets."""
    if not verdict.passed:
        raise ValueError("cannot build a recovery table from a failed verdict")
    return RecoveryTable(entries=verdict.pi_maps,
                         support=frozenset((e.x, e.z) for e in verdict.checked))
