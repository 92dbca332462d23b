"""Stabilizer codes over the phase-blind Pauli group.

A code is n qubits, n-k commuting independent generators, and a chosen
logical basis (one X/Z pair per logical qubit). The logical basis fixes the
identification of N(S)/S with the logical Pauli group: the class of an
element of N(S) is its anticommutation pattern against (Z_1..Z_k, X_1..X_k),
so the class of logical X_i has a 1 in slot i and the class of logical Z_i
has a 1 in slot k+i. Generator signs are not modeled.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, dropwhile

from .errors import CodeConstructionError, ParseError, content_lines
from .f2 import (BitMatrix, F2Span, fold, kernel_basis, mul_bt, rref, solve, symplectic,
                 transpose_rows)
from .pauli import PauliOp, parse_pauli, render, symplectic_product

_PURE_LETTERS = {None: ("X", "Y", "Z"), "x": ("X",), "z": ("Z",)}


def class_bits_to_string(k: int, bits: int) -> str:
    """Render class bits as a logical Pauli string over k qubits."""
    return render(PauliOp(k, bits & ((1 << k) - 1), bits >> k))


def class_bits_from_string(s: str, k: int, *, line: int | None = None) -> int:
    """Parse a logical Pauli string over k qubits into class bits."""
    p = parse_pauli(s, line=line)
    if p.n != k:
        raise ParseError(f"logical string has {p.n} letters, expected {k}", line=line)
    return p.x | (p.z << k)


@dataclass(frozen=True)
class DistanceResult:
    """Minimum-weight search outcome; `exact=False` means only `value = cap+1` as a bound."""

    value: int
    exact: bool
    cap: int

    def __str__(self) -> str:
        return str(self.value) if self.exact else f">={self.value} (cap {self.cap})"


@dataclass
class Diagnostics:
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def add(self, msg: str) -> None:
        self.problems.append(msg)


def _sym_vec(p: PauliOp) -> int:
    """Pack a Pauli as a 2n-bit row: x-part in low bits, z-part in high bits."""
    return p.x | (p.z << p.n)


def _unpack(v: int, n: int) -> PauliOp:
    return PauliOp(n, v & ((1 << n) - 1), v >> n)


class StabilizerCode:
    """An [n, k] stabilizer code with a fixed logical basis."""

    def __init__(self, generators: list[PauliOp], logical_x: list[PauliOp],
                 logical_z: list[PauliOp]):
        if not generators and not logical_x:
            raise CodeConstructionError("a code needs at least one generator or logical pair")
        ops = list(generators) + list(logical_x) + list(logical_z)
        n = ops[0].n
        if any(op.n != n for op in ops):
            raise CodeConstructionError("all operators must act on the same number of qubits")
        self.n = n
        self.k = n - len(generators)
        if len(logical_x) != self.k or len(logical_z) != self.k:
            raise CodeConstructionError(
                f"need exactly k={self.k} logical X and Z operators, "
                f"got {len(logical_x)}/{len(logical_z)}")
        self.generators = list(generators)
        self.logical_x = list(logical_x)
        self.logical_z = list(logical_z)
        self._init_tables()

    def _init_tables(self) -> None:
        self._labels = label_table(
            self.n, [_sym_vec(p) for p in self.generators + self.logical_z + self.logical_x])
        self._syn_mask = (1 << len(self.generators)) - 1
        self._span = F2Span(_sym_vec(g) for g in self.generators)

    # -- the maps on packed (x, z) Paulis -------------------------------------

    def syndrome_bits(self, x: int, z: int) -> int:
        """Anticommutation pattern against the generators (bit l = generator l)."""
        return fold(self._labels, x | z << self.n) & self._syn_mask

    def class_bits(self, x: int, z: int) -> int:
        """Logical class bits; meaningful for a zero-syndrome Pauli."""
        return fold(self._labels, x | z << self.n) >> len(self.generators)

    def in_stabilizer_bits(self, x: int, z: int) -> bool:
        """True iff the Pauli is a product of generators (phase-blind)."""
        return self._span.contains(x | z << self.n)

    # -- logical basis ---------------------------------------------------------

    def class_representative(self, bits: int) -> PauliOp:
        """A physical Pauli realizing the given class: the basis-op product."""
        if not 0 <= bits < 1 << (2 * self.k):
            raise ValueError(f"class bits {bits} exceed 2k = {2 * self.k}")
        return _unpack(fold([_sym_vec(p) for p in self.logical_x + self.logical_z], bits),
                       self.n)

    def with_logicals(self, logical_x: list[PauliOp], logical_z: list[PauliOp]) -> "StabilizerCode":
        return StabilizerCode(self.generators, logical_x, logical_z)


def validate_code(code: StabilizerCode) -> Diagnostics:
    """Check commutation, independence, and the logical pairing relations."""
    diag = Diagnostics()
    gens = code.generators
    for i, j in combinations(range(len(gens)), 2):
        if symplectic_product(gens[i], gens[j]):
            diag.add(f"generators {i} and {j} anticommute")
    if code._span.rank < len(gens):
        diag.add(f"generators dependent: rank {code._span.rank} < {len(gens)}")
    for name, ops in (("X", code.logical_x), ("Z", code.logical_z)):
        for i, op in enumerate(ops):
            s = code.syndrome_bits(op.x, op.z)
            if s:
                diag.add(f"logical {name}{i + 1} anticommutes with generator "
                         f"{(s & -s).bit_length() - 1}")
    for i in range(code.k):
        for j in range(code.k):
            want = 1 if i == j else 0
            if symplectic_product(code.logical_x[i], code.logical_z[j]) != want:
                diag.add(f"bad pairing: X{i + 1} vs Z{j + 1} (expected "
                         f"{'anti' if want else ''}commuting)")
            if j > i:
                if symplectic_product(code.logical_x[i], code.logical_x[j]):
                    diag.add(f"logical X{i + 1} and X{j + 1} anticommute")
                if symplectic_product(code.logical_z[i], code.logical_z[j]):
                    diag.add(f"logical Z{i + 1} and Z{j + 1} anticommute")
    return diag


# -- symplectic basis completion ----------------------------------------------


def complete_logical_basis(
    generators: list[PauliOp],
    seed_x: list[PauliOp] | None = None,
    n: int | None = None,
) -> tuple[list[PauliOp], list[PauliOp]]:
    """Extend seed X operators to a full logical basis (X_i, Z_i) for the stabilizer.

    The generators must commute with each other. That is not checked here:
    anticommuting generators still get a basis, which is meaningless.
    `standard_form` checks it before completing, and `validate_code` reports
    it. Seeds must commute with the generators and among themselves, and be
    independent modulo the stabilizer. Deterministic for fixed inputs.
    """
    seed_x = list(seed_x or [])
    if n is None:
        if not generators and not seed_x:
            raise CodeConstructionError("cannot infer the qubit count: pass n")
        n = (generators or seed_x)[0].n
    k = n - len(generators)
    if len(seed_x) > k:
        raise CodeConstructionError(f"more seeds than logical qubits (k={k})")

    gen_rows = [_sym_vec(g) for g in generators]
    seed_span = F2Span(gen_rows)
    if seed_span.rank < len(generators):
        raise CodeConstructionError("generators are dependent")
    kern = kernel_basis(BitMatrix(tuple(_twist(v, n) for v in gen_rows), 2 * n))

    xs = [_sym_vec(p) for p in seed_x]
    for v in xs:
        if any(symplectic(g, v, n) for g in gen_rows):
            raise CodeConstructionError("seed operator is outside N(S)")
    for i, j in combinations(range(len(xs)), 2):
        if symplectic(xs[i], xs[j], n):
            raise CodeConstructionError(f"seed X operators {i} and {j} anticommute")
    for v in xs:
        if not seed_span.insert(v):
            raise CodeConstructionError("seed operators are dependent modulo the stabilizer")

    # Solve for the Z partners: symplectic(x_j, z_i) = delta_ij over the
    # kernel, then Gram-Schmidt z_i against earlier partners. Row j of the
    # constraints holds x_j's symplectic form with each kernel row.
    constraints = BitMatrix(tuple(mul_bt([_twist(v, n) for v in xs], kern.rows)),
                            kern.nrows)
    zs: list[int] = []
    for i in range(len(xs)):
        coeffs = solve(constraints, 1 << i)
        if coeffs is None:
            raise CodeConstructionError("no symplectic partner for seed operator "
                                        f"{i}: seeds not independent in N(S)/S")
        z = fold(kern.rows, coeffs)
        for l in range(i):
            if symplectic(z, zs[l], n):
                z ^= xs[l]
        zs.append(z)

    # Remaining hyperbolic pairs, greedily from the kernel basis. Each pair
    # corrects the rows left once, in pair order, into its symplectic
    # complement; independence mod S then implies independence mod S+pairs.
    # A row in S commutes with every kernel vector, so no correction moves it
    # and it is never chosen: it is dropped for good, and each row is tested
    # for membership once. Every row tested has been corrected against the
    # seed pairs, and in their complement a vector lies in S plus the seeds
    # iff it lies in S, so `seed_span` serves as the span of S.
    rows = list(kern.rows)
    done = 0
    while len(xs) < k:
        for x, z in zip(xs[done:], zs[done:]):
            rows = _correct(rows, x, z, n)
        done = len(xs)
        left = dropwhile(seed_span.contains, rows)
        a = next(left, None)
        if a is None:
            raise CodeConstructionError("cannot complete basis: kernel exhausted")
        rows = list(left)
        # S and every row before the partner commute with a (a row that
        # anticommutes would be the partner), so the first row that
        # anticommutes with a lies outside their span: no span is needed.
        ta = _twist(a, n)
        j = next((j for j, v in enumerate(rows) if (v & ta).bit_count() & 1), None)
        if j is None:
            raise CodeConstructionError("degenerate symplectic form on the quotient")
        b = rows.pop(j)
        xs.append(a)
        zs.append(b)

    return [_unpack(v, n) for v in xs], [_unpack(v, n) for v in zs]


def label_table(n: int, rows) -> list[int]:
    """The label table of packed x | z << n rows: the generators, then logical
    Z, then logical X. It is their twisted rows transposed, so row j is the
    label (syndrome | class << (n - k), class bits Z block first) of the unit
    vector 1 << j, and folding the rows an error's x | z << n selects gives
    its label."""
    return transpose_rows([_twist(v, n) for v in rows], 2 * n)


def _twist(v: int, n: int) -> int:
    """Row whose dot with a packed vector gives the symplectic product with v."""
    return v >> n | (v & ((1 << n) - 1)) << n


def _correct(rows: list[int], x: int, z: int, n: int) -> list[int]:
    """Each row moved into the symplectic complement of the hyperbolic pair
    (x, z): plus x if it anticommutes with z, plus z if with x. Adding x
    leaves the product with x unchanged, so both parities read the row as given."""
    tx, tz = _twist(x, n), _twist(z, n)
    return [v ^ (x if (v & tz).bit_count() & 1 else 0) ^ (z if (v & tx).bit_count() & 1 else 0)
            for v in rows]


def standard_form(generators: list[PauliOp]) -> StabilizerCode:
    """Canonicalize generators (RREF of the symplectic check matrix) and
    complete a valid logical basis. Deterministic for fixed input order."""
    if not generators:
        raise CodeConstructionError("no generators")
    n = generators[0].n
    for i, j in combinations(range(len(generators)), 2):
        if symplectic_product(generators[i], generators[j]):
            raise CodeConstructionError(f"generators {i} and {j} anticommute")
    red = rref(BitMatrix(tuple(_sym_vec(g) for g in generators), 2 * n))
    if red.rank < len(generators):
        raise CodeConstructionError("generators are dependent")
    canon = [_unpack(v, n) for v in red.reduced.rows[: red.rank]]
    xs, zs = complete_logical_basis(canon)
    return StabilizerCode(canon, xs, zs)


# -- minimum-weight searches ---------------------------------------------------


def scan_zero_syndrome(code: StabilizerCode, w: int, visit,
                       pure: str | None = None) -> bool:
    """Call visit(x, z) for zero-syndrome Paulis of exact weight w until a
    call returns a truthy value; True iff the scan stopped that way.

    The visit order is lexicographic in the (qubit, letter) sequence, letters
    X, Y, Z, so a pure scan visits supports in itertools.combinations order.
    `pure` restricts to X-only or Z-only errors.

    Meet in the middle (the split step of Leon's and Stern's low-weight
    codeword searches): a Pauli of weight w splits one way into its a = w - w//2
    lowest-qubit letters (the prefix) and its b = w//2 highest (the suffix),
    and it has zero syndrome iff both halves have the same syndrome. One table
    holds every weight-b suffix keyed by syndrome, each packed as x | z << n
    (a list only where syndromes collide), in scan order. A depth-first walk
    over the prefixes carries the syndrome and, at each full prefix, visits
    the suffixes stored under it whose lowest qubit lies above the prefix's
    last. The order is prefix-major, so the prefix walk in scan order with
    each bucket in scan order gives exactly the order above; the work is
    about C(n,a)·3^a lookups rather than C(n,w)·3^w candidates.

    Both halves close checks as a trellis search does (Wolf 1978): letters
    are placed in increasing qubit order, so a syndrome bit on a generator
    that no letter still to be placed can flip is final. The walk drops a
    prefix with such a bit, and the table drops a suffix with a bit on a
    generator that no letter below its lowest qubit flips, since no prefix
    could cancel it. Only Paulis of nonzero syndrome are dropped, so the
    visits and their order are those of the scan without it.
    """
    if pure not in _PURE_LETTERS:
        raise ValueError("pure must be None, 'x', or 'z'")
    n = code.n
    if not 1 <= w <= n:
        return False
    a, b = w - w // 2, w // 2
    steps, closed, above, at_or_below = _scan_tables(code, pure)
    # At w = 1 the suffix is empty. A longer one follows at least a prefix
    # qubits, so its lowest qubit is >= a.
    table: dict[int, int | list[int]] = {} if b else {0: 0}
    if b:
        _tabulate(table, steps, closed, above, None, a, b, 0, 0)
    return _join(table, steps, closed, at_or_below, b, visit, 0, a, 0, 0)


def _scan_tables(code: StabilizerCode, pure: str | None) -> tuple:
    """The scan's tables for `code` in one `pure` mode, built by the code's
    first scan in that mode and kept on the code. Over qubits q:
    - steps[q]: (syndrome, packed x | z << n) of each allowed letter at q;
    - closed[q]: the generators that no allowed letter at q or above flips,
      for q = 0..n, so closed[n] holds every generator;
    - above[q]: the generators that no allowed letter below q flips;
    - at_or_below[q]: support bits at or below q, in both halves of a packed
      Pauli."""
    try:
        cache = code._scan_tables
    except AttributeError:
        cache = code._scan_tables = {}
    if pure in cache:
        return cache[pure]
    n, labels, mask = code.n, code._labels, code._syn_mask
    steps, flips = [], []
    for q in range(n):
        sx, sz, bit = labels[q] & mask, labels[n + q] & mask, 1 << q
        row = {"X": (sx, bit), "Y": (sx ^ sz, bit | bit << n), "Z": (sz, bit << n)}
        steps.append([row[letter] for letter in _PURE_LETTERS[pure]])
        # the generators some allowed letter at q flips; Y flips none that X and Z miss
        flips.append({None: sx | sz, "x": sx, "z": sz}[pure])
    closed, above = [mask] * (n + 1), [mask] * (n + 1)
    for q in range(n):
        above[q + 1] = above[q] & ~flips[q]
    for q in reversed(range(n)):
        closed[q] = closed[q + 1] & ~flips[q]
    at_or_below = [((2 << q) - 1) * (1 | 1 << n) for q in range(n)]
    cache[pure] = tables = steps, closed, above, at_or_below
    return tables


def _tabulate(table, steps, closed, above, drop: int | None, start: int, left: int,
              syn: int, v: int) -> None:
    """Store every extension of (syn, v) by `left` more letters on qubits from
    `start` on in `table`, keyed by syndrome, in scan order, except those
    whose syndrome has a bit of `drop` set: above[q1] for the suffix's lowest
    qubit q1, the generators that no prefix flips (None before the suffix's
    first letter). Not nested, so a scan leaves no cycle."""
    for q in range(start, len(steps) - left + 1):
        d = above[q] if drop is None else drop
        if left > 1:
            # Bits that no later letter of the suffix flips are final.
            dead = d & closed[q + 1]
            for dsyn, dv in steps[q]:
                nsyn = syn ^ dsyn
                if not nsyn & dead:
                    _tabulate(table, steps, closed, above, d, q + 1, left - 1, nsyn, v | dv)
            continue
        for dsyn, dv in steps[q]:
            key = syn ^ dsyn
            if key & d:
                continue
            old = table.get(key)
            if old is None:
                table[key] = v | dv
            elif type(old) is int:
                table[key] = [old, v | dv]
            else:
                old.append(v | dv)


def _join(table, steps, closed, at_or_below, b: int, visit, start: int, left: int,
          syn: int, v: int) -> bool:
    """Extend the prefix (syn, v) by `left` more letters from `start` on and
    visit each full prefix's matching suffixes (those of `b` letters above
    its last qubit), in scan order; True once a visit returns truthy. A
    prefix whose syndrome has a bit of closed[q + 1] after its letter at q
    is dropped, and the loop stops once the carried syndrome has a bit of
    closed[q]."""
    n = len(steps)
    if left == 1:
        xmask = (1 << n) - 1
        for q in range(start, n - b):
            if syn & closed[q]:
                break
            dead, low = closed[q + 1], at_or_below[q]
            for dsyn, dv in steps[q]:
                key = syn ^ dsyn
                if key & dead:
                    continue
                hit = table.get(key)
                if hit is None:
                    continue
                for s in ((hit,) if type(hit) is int else hit):
                    if not s & low:
                        u = v | dv | s
                        if visit(u & xmask, u >> n):
                            return True
        return False
    for q in range(start, n - b - left + 1):
        if syn & closed[q]:
            break
        dead = closed[q + 1]
        for dsyn, dv in steps[q]:
            nsyn = syn ^ dsyn
            if not nsyn & dead and _join(table, steps, closed, at_or_below, b, visit,
                                         q + 1, left - 1, nsyn, v | dv):
                return True
    return False


def min_weight_in_class(
    code: StabilizerCode,
    target: int | None,
    cap: int,
    pure: str | None = None,
) -> DistanceResult:
    """Minimum weight over N(S) elements of the given class, or over all of
    N(S)\\S when target is None, which a code with k = 0 does not have.
    `pure` restricts to X-only or Z-only errors."""
    if pure not in _PURE_LETTERS:
        raise ValueError("pure must be None, 'x', or 'z'")
    if target is None and code.k == 0:
        raise ValueError(f"k = 0: the [[{code.n},0]] code has no logical operator, "
                         "so no distance")
    if target is not None and not 0 <= target < 1 << (2 * code.k):
        raise ValueError(f"class bits {target} exceed 2k = {2 * code.k}")
    accept = (lambda c: c != 0) if target is None else (lambda c: c == target)
    return _min_weight(scan_zero_syndrome, code, cap, accept, pure)


def _min_weight(scan, code: StabilizerCode, cap: int, accept,
                pure: str | None = None) -> DistanceResult:
    """Least weight w <= min(cap, n) of a zero-syndrome Pauli whose class c
    accept(c) accepts (class 0 is S's, the identity's at w = 0); cap + 1, not
    exact, when there is none. Each caller passes the `scan_zero_syndrome`
    that its own module names, so replacing that name, as the benchmark's
    truncated-scan check does in `qet`, reaches the caller's scans."""
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    cap = min(cap, code.n)
    if accept(0):
        return DistanceResult(0, True, cap)
    found = lambda x, z: accept(code.class_bits(x, z))
    for w in range(1, cap + 1):
        if scan(code, w, found, pure):
            return DistanceResult(w, True, cap)
    return DistanceResult(cap + 1, False, cap)


def code_distance(code: StabilizerCode, cap: int) -> DistanceResult:
    """Minimum weight of an element of N(S)\\S, exact when <= cap."""
    return min_weight_in_class(code, None, cap)


# -- text format ----------------------------------------------------------------


def dumps(code: StabilizerCode) -> str:
    lines = [f"{code.n} {code.k}"]
    lines += [render(g) for g in code.generators]
    if code.k:
        lines.append("XL")
        lines += [render(p) for p in code.logical_x]
        lines.append("ZL")
        lines += [render(p) for p in code.logical_z]
    return "\n".join(lines) + "\n"


def loads(text: str) -> StabilizerCode:
    """Parse the code file format: 'n k', n-k generator lines, then optional
    XL / ZL sections of k lines each. '#' starts a comment line. A code that
    fails validate_code raises ParseError naming its first problem."""
    entries = list(content_lines(text.splitlines()))
    if not entries:
        raise ParseError("empty code file")
    lineno, header = entries[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError("header must be 'n k'", line=lineno)
    try:
        n, k = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("header must contain two integers", line=lineno) from None
    if not 0 <= k <= n or n <= 0:
        raise ParseError(f"invalid parameters n={n}, k={k}", line=lineno)

    idx = 1

    def take(count: int, what: str) -> list[PauliOp]:
        """The next `count` lines as n-qubit Paulis; fewer where the file ends."""
        nonlocal idx
        ops: list[PauliOp] = []
        while len(ops) < count and idx < len(entries):
            lineno, s = entries[idx]
            idx += 1
            p = parse_pauli(s, line=lineno)
            if p.n != n:
                raise ParseError(f"{what} has {p.n} letters, expected {n}", line=lineno)
            ops.append(p)
        return ops

    gens = take(n - k, "generator")
    if len(gens) < n - k:
        raise ParseError(f"expected {n - k} generator lines, found {len(gens)}")
    sections: dict[str, list[PauliOp]] = {}
    for tag in ("XL", "ZL"):
        if idx < len(entries) and entries[idx][1].upper() == tag:
            idx += 1
            sections[tag] = take(k, "operator")
            if len(sections[tag]) < k:
                raise ParseError(f"{tag} section needs {k} lines")
    xl, zl = sections.get("XL"), sections.get("ZL")
    if idx < len(entries):
        raise ParseError("unexpected trailing content", line=entries[idx][0])

    try:
        if xl is not None and zl is not None:
            code = StabilizerCode(gens, xl, zl)
        elif zl is not None:
            # complete partners for the given Z operators, then swap roles back
            partners, seeds = complete_logical_basis(gens, seed_x=zl)
            code = StabilizerCode(gens, seeds, partners)
        else:
            code = StabilizerCode(gens, *complete_logical_basis(gens, seed_x=xl or []))
    except CodeConstructionError as exc:
        raise ParseError(f"invalid code: {exc}") from None
    problems = validate_code(code).problems
    if problems:
        raise ParseError(f"invalid code: {problems[0]}")
    return code


def load_file(path) -> StabilizerCode:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
