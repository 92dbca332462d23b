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

from collections import Counter
from collections.abc import Collection, Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, islice

from .classical import is_css
from .errors import DimensionMismatch, ParseError, content_lines
from .f2 import F2Span, fold, symplectic
from .pauli import (ErrorBall, PauliOp, _field_bits, render, support_code, support_weight,
                    support_xz)
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

    @cached_property
    def is_group(self) -> bool:
        """True iff the set is XOR-closed. It holds the identity, so it is
        closed iff it is its own span: iff it has 2^rank elements."""
        return len(self.classes) == 1 << F2Span(self.classes).rank

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
        closed = {0}
        for g in _item_bits(k, strings):
            closed |= {c ^ g for c in closed}
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
    for lineno, s in content_lines(text.splitlines()):
        bits.add(class_bits_from_string(s, k, line=lineno))
    return AdmissibleSet(k, frozenset(bits))


@dataclass(frozen=True)
class PiBucket:
    """Feasible reference assignments for one occupied syndrome."""

    reference: tuple[int, int]  # (x, z) of the bucket's first error
    options: tuple[int, ...]  # admissible classes usable as the reference image


def _member_fields(n: int, k: int) -> tuple[int, int, int]:
    """(r, syndrome mask, class mask) of a member int m of an [n, k] code:
    its syndrome is m & syndrome mask, its class difference m >> r & class
    mask, and its support code m >> (n + k)."""
    return n - k, (1 << (n - k)) - 1, (1 << 2 * k) - 1


class PiMaps(Mapping):
    """Syndrome -> PiBucket of a passing check on an [n, k] code, built on
    lookup from the check's own maps: `refs` (syndrome -> reference, in
    reference order, each an int class | support code << 2k) and `narrowed`
    (sorted options of the syndromes a class difference narrowed; none for an
    XOR-closed set). Every other syndrome keeps `every` admissible class.
    `members` keeps, in input order, one int syndrome | d << (n - k) | support
    code << (n + k) for every error after its bucket's first, d the class of
    reference·error: it names the buckets of two or more errors, for a set
    that is not closed exactly the narrowed ones.

    When the check left out errors alone in their bucket, `lone` is (ball,
    code) (`_narrowed`): `bucket` gives such an error's bucket with no walk,
    and iteration or a lookup by its syndrome walks the ball once.
    `visited` counts the errors the check bucketed; the length is the
    occupied count."""

    __slots__ = ("_refs", "_narrowed", "every", "members", "n", "k", "_lone", "visited")

    def __init__(self, refs: dict[int, int], narrowed: dict[int, tuple[int, ...]],
                 every: tuple[int, ...], members: list[int], n: int, k: int, lone=None):
        self._refs, self._narrowed, self.every, self.members = refs, narrowed, every, members
        self.n, self.k, self._lone = n, k, lone
        self.visited = len(refs) + len(members)

    def _every_ref(self) -> dict[int, int]:
        if self._lone is not None:
            (ball, code), refs = self._lone, {}
            for _ in _bucket_pairs(self.n, self.k, _labelled(code, ball)[1], refs):
                pass
            self._refs, self._lone = refs, None
        return self._refs

    def __getitem__(self, syn: int) -> PiBucket:
        ref = self._refs[syn] if syn in self._refs else self._every_ref()[syn]
        return PiBucket(support_xz(self.n, ref >> 2 * self.k), self._narrowed.get(syn, self.every))

    def bucket(self, syn: int, x: int, z: int) -> PiBucket:
        """The bucket of the checked error (x, z) of syndrome syn."""
        if self._lone is None or syn in self._refs:
            return self[syn]
        return PiBucket((x, z), self.every)

    def member_tally(self) -> Counter:
        """How many members share each (syndrome, class difference, weight),
        in the order of each triple's first member. A support code's weight
        is its field count: its bit length over the field width, rounded up."""
        n, k, b = self.n, self.k, _field_bits(self.n)
        r, mask, class_mask = _member_fields(n, k)
        return Counter((m & mask, m >> r & class_mask, -(-(m >> (n + k)).bit_length() // b))
                       for m in self.members)

    def __iter__(self):
        return iter(self._every_ref())

    def __len__(self) -> int:
        return len(self._lone[0]) - len(self.members) if self._lone else len(self._refs)


@dataclass(frozen=True)
class Verdict:
    passed: bool
    witness: tuple[PauliOp, PauliOp] | None = None  # the only PauliOps a check builds
    pi_maps: PiMaps | None = None
    # The distinct (x, z) errors in input order: the ball itself, or the check's dedupe dict.
    checked: Collection[tuple[int, int]] = field(default_factory=dict)


def _check_k(code: StabilizerCode, adm: AdmissibleSet) -> None:
    if adm.k != code.k:
        raise ValueError(f"admissible set has k={adm.k}, code has k={code.k}")


def _labelled(code: StabilizerCode, errors):
    """(checked, labelled): the distinct (x, z) errors, and each of them in
    input order as one int, its label syndrome | class << (n - k) with its
    support code above it, from bit n + k. A ball is its own checked set and
    is walked with the code's label columns; any other iterable is deduped
    into a dict, the checked set, and each distinct (x, z) labelled with one
    fold and encoded."""
    n, width = code.n, code.n + code.k
    if isinstance(errors, ErrorBall):
        if errors.n != n:
            raise DimensionMismatch(f"the error ball acts on {errors.n} qubits, the code on {n}")
        return errors, chain.from_iterable(errors.labelled(code._labels, width))
    errs = dict.fromkeys(errors)
    if any((x | z) >> n for x, z in errs):  # also nonzero for a negative mask
        raise DimensionMismatch(f"an error acts outside the code's {n} qubits")
    rows = code._labels
    return errs, (fold(rows, x | z << n) | support_code(n, x, z) << width for x, z in errs)


def _bucket_pairs(n: int, k: int, labelled, refs: dict[int, int]):
    """Bucket the labelled errors of an [n, k] code by syndrome in order. The
    first error of each syndrome becomes its reference in `refs`, kept as its
    label with the syndrome shifted out: class | support code << 2k. Every
    later error is yielded as one member int, syndrome | d << (n - k) |
    support code << (n + k), where d is the class of reference·error. The class map is
    linear, so d is the error's class XOR the reference's: one XOR against
    the stored reference."""
    r, mask, class_mask = _member_fields(n, k)
    class_mask <<= r
    for v in labelled:
        syn = v & mask
        ref = refs.get(syn)
        if ref is None:
            refs[syn] = v >> r
        else:
            yield v ^ (ref << r & class_mask)


def _narrow(code: StabilizerCode, classes: frozenset[int], members,
            options: dict[int, set[int]], kept: list | None = None, group: bool = False):
    """Keep, per syndrome, the reference images o with o ^ d admissible for
    every class difference d of its members; return the first member that
    leaves none, or None. A syndrome with no member keeps every image and
    gets no entry. Each member read is appended to `kept` when it is given,
    so a pass keeps them all and a failure stops at its first bad member.

    For an XOR-closed set (`group`) a difference inside the set keeps every
    image and one outside keeps none, so only the difference is tested and no
    syndrome gets an entry in `options`."""
    r, mask, class_mask = _member_fields(code.n, code.k)
    if group:
        for m in members:
            if kept is not None:
                kept.append(m)
            if m >> r & class_mask not in classes:
                return m
        return None
    for m in members:
        if kept is not None:
            kept.append(m)
        syn, diff = m & mask, m >> r & class_mask
        opts = options[syn] = {o for o in options.get(syn, classes)
                               if o ^ diff in classes}
        if not opts:
            return m
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


def _narrowed(code: StabilizerCode, adm: AdmissibleSet, errors, refs, options, kept=None):
    """(checked, hit, lone): `_narrow` over `_bucket_pairs` of the errors. A
    ball of radius w >= 2 on a CSS code is walked below weight w, then only
    its `colliding` errors, unless too many collide: an error alone in its
    bucket keeps every option and cannot fail, so leaving it out changes no
    verdict, option or member, and lone = (ball, code) says it did."""
    n, k, cols, mask = code.n, code.k, code._labels, code._syn_mask

    def narrow(labelled):
        return _narrow(code, adm.classes, _bucket_pairs(n, k, labelled, refs), options, kept,
                       adm.is_group)
    if not (isinstance(errors, ErrorBall) and errors.w >= 2 and is_css(code)):
        checked, labelled = _labelled(code, errors)
        return checked, narrow(labelled), None
    hit = narrow(_labelled(code, ErrorBall(errors.n, errors.w - 1))[1])
    if hit is not None:
        return errors, hit, None
    top = errors.colliding(cols, mask, n + k)
    if top is None:
        return errors, narrow(chain.from_iterable(errors.labelled(cols, n + k, errors.w))), None
    return errors, narrow(top), (errors, code)


def check_general_qet(code: StabilizerCode, adm: AdmissibleSet,
                      errors) -> Verdict:
    """General-case conditions over (x, z) errors: per bucket, some admissible
    reference image keeps every forced assignment admissible."""
    _check_k(code, adm)
    n, k, refs, options, members = code.n, code.k, {}, {}, []
    checked, hit, lone = _narrowed(code, adm, errors, refs, options, members)
    if hit is not None:
        ref = refs[hit & code._syn_mask]
        witness = (PauliOp(n, *support_xz(n, ref >> 2 * k)),
                   PauliOp(n, *support_xz(n, hit >> (n + k))))
        return Verdict(False, witness=witness, checked=checked)
    for syn, opts in options.items():
        options[syn] = tuple(sorted(opts))
    return Verdict(True, pi_maps=PiMaps(refs, options, tuple(sorted(adm.classes)), members,
                                        n, k, lone), checked=checked)


def strong_conditions_hold(code: StabilizerCode, adm: AdmissibleSet,
                           errors) -> bool:
    """Every same-syndrome pair product class admissible, with no relabeling
    of references: sufficient for the general conditions, necessary only for
    closed admissible sets."""
    _check_k(code, adm)
    classes = adm.classes
    r, mask, class_mask = _member_fields(code.n, code.k)
    diffs: dict[int, list[int]] = {}
    for m in _bucket_pairs(code.n, code.k, _labelled(code, errors)[1], {}):
        syn, d = m & mask, m >> r & class_mask
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
    n, k = code.n, code.k
    cap = min(cap, n)
    hit = _narrowed(code, adm, ErrorBall(n, cap), {}, {})[1]
    if hit is not None:
        return DistanceResult(2 * support_weight(n, hit >> (n + k)) - 1, True, cap)
    return DistanceResult(2 * cap + 1, cap >= n, cap)


def deff_lower_bound(code: StabilizerCode, adm: AdmissibleSet,
                     cap: int) -> DistanceResult:
    """Minimum weight of an N(S) element whose class is not admissible."""
    _check_k(code, adm)
    classes = adm.classes
    return _min_weight(scan_zero_syndrome, code, cap, lambda c: c not in classes)


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


_MAX_SHAPES = 1024  # fit masks one orbit keeps before it drops them all


class _Orbit:
    """One pattern's orbit, found lazily in `_breadth_first_orbit` order: the
    transforms found so far, per class a bitmask of the images that hold it,
    and per class-difference set S (0 included, kept as a bitmask with bit d
    set for each d in S) a fit mask over the images, whose bit i is set iff
    some o in image i has o ^ S inside image i. A bucket with difference set S
    keeps a reference image exactly when such an o exists, so an image passes
    iff its bit is set in the mask of every bucket's S."""

    __slots__ = ("_rest", "transforms", "_holding", "_masks")

    def __init__(self, k: int, classes: frozenset[int]):
        self._rest = _breadth_first_orbit(k, classes)
        self.transforms: list[tuple[int, ...]] = []
        self._holding = [0] * (1 << 2 * k)  # class c -> bit i set iff image i holds c
        self._masks: dict[int, tuple[int, int]] = {}  # S -> (mask, images covered)

    def grow(self, count: int) -> bool:
        """Find up to `count` more images; False iff the orbit was already whole."""
        found = len(self.transforms)
        try:
            for image, cols in islice(self._rest, count):
                bit = 1 << len(self.transforms)
                for c in image:
                    self._holding[c] |= bit
                self.transforms.append(cols)
        except (Exception, KeyboardInterrupt):
            _orbit.cache_clear()  # a dead generator would replay a truncated orbit
            raise
        return len(self.transforms) > found

    def _fit_mask(self, shape: int) -> int:
        mask, covered = self._masks.get(shape, (0, 0))
        if covered < len(self.transforms):
            # the images holding o ^ S are those holding every o ^ d, d in S
            holding = self._holding
            diffs = [d for d in range(1, shape.bit_length()) if shape >> d & 1]
            mask = 0
            for o, fits in enumerate(holding):
                for d in diffs:
                    fits &= holding[o ^ d]
                mask |= fits
            if len(self._masks) >= _MAX_SHAPES:
                self._masks.clear()
            self._masks[shape] = mask, len(self.transforms)
        return mask

    def first_fit(self, shapes: Collection[int]) -> tuple[int, ...] | None:
        """Transform of the first image that every shape fits, or None. The
        images found so far are tried first; the orbit is doubled only while
        none of them fits."""
        while True:
            fits = (1 << len(self.transforms)) - 1
            for shape in shapes:
                fits &= self._fit_mask(shape)
                if not fits:
                    break
            if fits:
                return self.transforms[(fits & -fits).bit_length() - 1]
            if not self.grow(max(1, len(self.transforms))):
                return None


@lru_cache(maxsize=8)
def _orbit(k: int, classes: frozenset[int]) -> _Orbit:
    """The orbit of (k, classes), kept with its fit masks for later calls."""
    return _Orbit(k, classes)


def _shapes(n: int, k: int, labelled) -> set[int]:
    """The class-difference set of every bucket of the labelled errors that
    holds two classes, as a bitmask: bit d is set for each member's difference
    d from the bucket's first class, and bit 0 for the first."""
    r, mask, class_mask = _member_fields(n, k)
    first: dict[int, int] = {}
    diffs: dict[int, int] = {}
    for v in labelled:
        syn, c = v & mask, v >> r & class_mask
        c0 = first.setdefault(syn, c)
        if c0 != c:
            diffs[syn] = diffs.get(syn, 1) | 1 << (c ^ c0)
    return set(diffs.values())


def first_relabeling(n: int, k: int, pattern: AdmissibleSet, labelled) -> tuple[int, ...] | None:
    """Transform of the first image of `pattern`, in `_breadth_first_orbit`
    order, under which errors of an [n, k] code pass the general check, or None.
    `labelled` holds each error as `_labelled` yields it: its label syndrome |
    class << (n - k), with any bits from n + k up ignored. So a caller that
    holds only a label table decides relabeling with no code built."""
    return _orbit(k, pattern.classes).first_fit(_shapes(n, k, labelled))


def relabel_search(code: StabilizerCode, pattern: AdmissibleSet, errors,
                   ) -> tuple[StabilizerCode, Verdict] | None:
    """Search logical relabelings for one under which the pattern passes.

    For k <= 3, relabels with the transform of the first image of the
    pattern under Sp(2k,2), in `_breadth_first_orbit` order, under which the
    pattern passes (`first_relabeling`).
    Returns the relabeled code and its verdict, or None.
    """
    _check_k(code, pattern)
    if code.k > 3:
        raise ValueError(f"relabeling is limited to k <= 3, code has k={code.k}")

    checked, labelled = _labelled(code, errors)
    cols = first_relabeling(code.n, code.k, pattern, labelled)
    if cols is None:
        return None
    new_x = [code.class_representative(cols[i]) for i in range(code.k)]
    new_z = [code.class_representative(cols[code.k + i]) for i in range(code.k)]
    candidate = code.with_logicals(new_x, new_z)
    verdict = check_general_qet(candidate, pattern, checked)
    if not verdict.passed:
        raise AssertionError("relabel replay disagrees with direct check")
    return candidate, verdict


# -- recovery -------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryTable:
    entries: Mapping[int, PiBucket]  # syndrome -> the verdict's bucket
    support: Collection[tuple[int, int]]  # the verdict's checked set: a ball or a dict


def build_recovery(verdict: Verdict) -> RecoveryTable:
    """Per-syndrome recovery: apply the bucket's reference, then one of its
    admissible options, drawn uniformly. The class map is linear, so error e
    leaves the class option ^ class(reference·e) and no correction operator
    is built. The entries are the verdict's own buckets."""
    if not verdict.passed:
        raise ValueError("cannot build a recovery table from a failed verdict")
    return RecoveryTable(entries=verdict.pi_maps, support=verdict.checked)
