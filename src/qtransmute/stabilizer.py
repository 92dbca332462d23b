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
from itertools import combinations

from .errors import CodeConstructionError, DimensionMismatch, ParseError
from .f2 import (BitMatrix, F2Span, fold, kernel_basis, mul_bt, reduce_against, rref, solve,
                 symplectic, transpose_rows)
from .pauli import PauliOp, parse_pauli, render, symplectic_product

_PURE_LETTERS = {None: ("X", "Y", "Z"), "x": ("X",), "z": ("Z",)}


def class_bits_to_string(k: int, bits: int) -> str:
    """Render class bits as a logical Pauli string over k qubits."""
    return "".join("IXZY"[((bits >> i) & 1) + 2 * ((bits >> (k + i)) & 1)]
                   for i in range(k))


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


def _sym_twist(p: PauliOp) -> int:
    """Row whose dot with a packed vector gives the symplectic product with p."""
    return p.z | (p.x << p.n)


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
        n = self.n
        # Transposed symplectic check matrices: row j is the syndrome (class)
        # of the packed unit vector 1 << j, so folding the rows an error's
        # x | z << n selects gives its syndrome (class).
        self._syn = transpose_rows([_sym_twist(g) for g in self.generators], 2 * n)
        # Class bit order: the Z block, then the X block.
        self._cls = transpose_rows([_sym_twist(p) for p in self.logical_z + self.logical_x],
                                   2 * n)
        self._gen_rref = rref(BitMatrix(tuple(_sym_vec(g) for g in self.generators), 2 * n))

    # -- raw-int fast paths -------------------------------------------------

    def syndrome_bits(self, x: int, z: int) -> int:
        return fold(self._syn, x | z << self.n)

    def class_bits(self, x: int, z: int) -> int:
        return fold(self._cls, x | z << self.n)

    def in_stabilizer_bits(self, x: int, z: int) -> bool:
        return reduce_against(self._gen_rref.reduced.rows, x | (z << self.n)) == 0

    # -- public operator-level API -------------------------------------------

    def contains_stabilizer(self, p: PauliOp) -> bool:
        """True iff p is a product of generators (phase-blind S membership)."""
        if p.n != self.n:
            raise DimensionMismatch(f"operator on {p.n} qubits, code on {self.n}")
        return self.in_stabilizer_bits(p.x, p.z)

    def class_representative(self, bits: int) -> PauliOp:
        """A physical Pauli realizing the given class: the basis-op product."""
        if not 0 <= bits < 1 << (2 * self.k):
            raise ValueError(f"class bits {bits} exceed 2k = {2 * self.k}")
        return _unpack(fold([_sym_vec(p) for p in self.logical_x + self.logical_z], bits),
                       self.n)

    def with_logicals(self, logical_x: list[PauliOp], logical_z: list[PauliOp]) -> "StabilizerCode":
        return StabilizerCode(self.generators, logical_x, logical_z)


def syndrome(code: StabilizerCode, p: PauliOp) -> int:
    """Anticommutation pattern of p against the generators, packed (bit l = generator l)."""
    if p.n != code.n:
        raise DimensionMismatch(f"operator on {p.n} qubits, code on {code.n}")
    return code.syndrome_bits(p.x, p.z)


def logical_class(code: StabilizerCode, p: PauliOp) -> int:
    """Class bits of an N(S) element; raises if p has a nonzero syndrome."""
    if p.n != code.n:
        raise DimensionMismatch(f"operator on {p.n} qubits, code on {code.n}")
    if code.syndrome_bits(p.x, p.z):
        raise ValueError(f"{render(p)} is not in N(S): nonzero syndrome")
    return code.class_bits(p.x, p.z)


def validate_code(code: StabilizerCode) -> Diagnostics:
    """Check commutation, independence, and the logical pairing relations."""
    diag = Diagnostics()
    gens = code.generators
    for i, j in combinations(range(len(gens)), 2):
        if symplectic_product(gens[i], gens[j]):
            diag.add(f"generators {i} and {j} anticommute")
    if code._gen_rref.rank < len(gens):
        diag.add(f"generators dependent: rank {code._gen_rref.rank} < {len(gens)}")
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

    Seeds must commute with the generators and among themselves, and be
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

    gen_rows = rref(BitMatrix(tuple(_sym_vec(g) for g in generators), 2 * n))
    if gen_rows.rank < len(generators):
        raise CodeConstructionError("generators are dependent")
    kern = kernel_basis(BitMatrix(tuple(_sym_twist(g) for g in generators), 2 * n))

    xs = [_sym_vec(p) for p in seed_x]
    for v in xs:
        if any(symplectic(_sym_vec(g), v, n) for g in generators):
            raise CodeConstructionError("seed operator is outside N(S)")
    for i, j in combinations(range(len(xs)), 2):
        if symplectic(xs[i], xs[j], n):
            raise CodeConstructionError(f"seed X operators {i} and {j} anticommute")
    seed_span = F2Span(gen_rows.reduced.rows)
    for v in xs:
        if not seed_span.insert(v):
            raise CodeConstructionError("seed operators are dependent modulo the stabilizer")

    # Solve for the Z partners: symplectic(x_j, z_i) = delta_ij over the
    # kernel, then Gram-Schmidt z_i against earlier partners. Row j of the
    # constraints holds x_j's symplectic form with each kernel row.
    constraints = BitMatrix(tuple(mul_bt([_sym_twist(p) for p in seed_x], kern.rows)),
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

    # Remaining hyperbolic pairs, greedily from the kernel basis. Correcting a
    # candidate against the chosen pairs keeps it in their symplectic
    # complement; independence mod S then implies independence mod S+pairs.
    # The corrections are sequential in pair order, so `rows` keeps the kernel
    # rows corrected against the first `done` pairs and each pair is applied
    # once.
    rows = list(kern.rows)
    done = 0
    while len(xs) < k:
        for x, z in zip(xs[done:], zs[done:]):
            for i, v in enumerate(rows):
                if symplectic(v, z, n):
                    v ^= x
                if symplectic(v, x, n):
                    v ^= z
                rows[i] = v
        done = len(xs)
        span = F2Span(gen_rows.reduced.rows)
        pool = [v for v in rows if span.insert(v)]
        if not pool:
            raise CodeConstructionError("cannot complete basis: kernel exhausted")
        a = pool[0]
        b = next((c for c in pool[1:] if symplectic(a, c, n)), None)
        if b is None:
            raise CodeConstructionError("degenerate symplectic form on the quotient")
        xs.append(a)
        zs.append(b)

    return [_unpack(v, n) for v in xs], [_unpack(v, n) for v in zs]


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
    """
    if pure not in _PURE_LETTERS:
        raise ValueError("pure must be None, 'x', or 'z'")
    n = code.n
    if not 1 <= w <= n:
        return False
    a, b = w - w // 2, w // 2
    steps = []
    for q in range(n):
        sx, sz, bit = code._syn[q], code._syn[n + q], 1 << q
        row = {"X": (sx, bit), "Y": (sx ^ sz, bit | bit << n), "Z": (sz, bit << n)}
        steps.append([row[letter] for letter in _PURE_LETTERS[pure]])

    table: dict[int, int | list[int]] = {}

    def tabulate(start: int, left: int, syn: int, v: int) -> None:
        if left == 0:
            old = table.get(syn)
            if old is None:
                table[syn] = v
            elif type(old) is int:
                table[syn] = [old, v]
            else:
                old.append(v)
            return
        for q in range(start, n - left + 1):
            for dsyn, dv in steps[q]:
                tabulate(q + 1, left - 1, syn ^ dsyn, v | dv)

    # A suffix follows at least a prefix qubits, so its lowest qubit is >= a.
    tabulate(a, b, 0, 0)
    xmask = (1 << n) - 1
    # Support bits at or below qubit q, in both halves of a packed Pauli.
    at_or_below = [((2 << q) - 1) * (1 | 1 << n) for q in range(n)]

    def join(start: int, left: int, syn: int, v: int) -> bool:
        if left == 1:
            for q in range(start, n - b):
                low = at_or_below[q]
                for dsyn, dv in steps[q]:
                    hit = table.get(syn ^ dsyn)
                    if hit is None:
                        continue
                    for s in ((hit,) if type(hit) is int else hit):
                        if not s & low:
                            u = v | dv | s
                            if visit(u & xmask, u >> n):
                                return True
            return False
        for q in range(start, n - b - left + 1):
            for dsyn, dv in steps[q]:
                if join(q + 1, left - 1, syn ^ dsyn, v | dv):
                    return True
        return False

    return join(0, a, 0, 0)


def min_weight_in_class(
    code: StabilizerCode,
    target: int | None,
    cap: int,
    pure: str | None = None,
) -> DistanceResult:
    """Minimum weight over N(S) elements of the given class, or over all of
    N(S)\\S when target is None. `pure` restricts to X-only or Z-only errors."""
    if pure not in _PURE_LETTERS:
        raise ValueError("pure must be None, 'x', or 'z'")
    if target is not None and not 0 <= target < 1 << (2 * code.k):
        raise ValueError(f"class bits {target} exceed 2k = {2 * code.k}")
    found = ((lambda x, z: not code.in_stabilizer_bits(x, z)) if target is None
             else (lambda x, z: code.class_bits(x, z) == target))
    return _min_weight(scan_zero_syndrome, code, cap, found, pure)


def _min_weight(scan, code: StabilizerCode, cap: int, found,
                pure: str | None = None) -> DistanceResult:
    """Least weight w <= min(cap, n) of a zero-syndrome Pauli that
    found(x, z) accepts, the identity (w = 0) included; cap + 1, not exact,
    when there is none. Each caller passes the `scan_zero_syndrome` that its
    own module names, so replacing that name, as the benchmark's
    truncated-scan check does in `qet`, reaches the caller's scans."""
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    cap = min(cap, code.n)
    if found(0, 0):
        return DistanceResult(0, True, cap)
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
    entries: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if s and not s.startswith("#"):
            entries.append((lineno, s))
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
    gens: list[PauliOp] = []
    for _ in range(n - k):
        if idx >= len(entries):
            raise ParseError(f"expected {n - k} generator lines, found {len(gens)}")
        lineno, s = entries[idx]
        idx += 1
        p = parse_pauli(s, line=lineno)
        if p.n != n:
            raise ParseError(f"generator has {p.n} letters, expected {n}", line=lineno)
        gens.append(p)

    def read_section(tag: str) -> list[PauliOp] | None:
        nonlocal idx
        if idx < len(entries) and entries[idx][1].upper() == tag:
            idx += 1
            ops = []
            for _ in range(k):
                if idx >= len(entries):
                    raise ParseError(f"{tag} section needs {k} lines")
                lineno, s = entries[idx]
                idx += 1
                p = parse_pauli(s, line=lineno)
                if p.n != n:
                    raise ParseError(f"operator has {p.n} letters, expected {n}", line=lineno)
                ops.append(p)
            return ops
        return None

    xl = read_section("XL")
    zl = read_section("ZL")
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
