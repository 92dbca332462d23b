"""Translation-invariant codes on 2D lattices via F2 Laurent polynomials.

A unit cell with n qubits is described by 2n-vectors of polynomials in
x, y (X block then Z block); multiplying by x^a y^b translates the
operator by (a, b) cells. The torus instantiation reduces exponents mod
(Lx, Ly) and lays qubits out cell-major: (cell_y*Lx + cell_x)*n + q.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import CodeConstructionError, ParseError, content_lines
from .pauli import PauliOp
from .stabilizer import (Diagnostics, StabilizerCode, complete_logical_basis)
from .f2 import F2Span

# The most qubits a torus may have. Building one costs time that grows as a
# power of its qubit count (compact:52, 4,056 qubits, builds in ~9 s), and
# the tests, catalog and benchmark build none above 192 qubits.
MAX_TORUS_QUBITS = 4096


def _refuse_oversized(what: str, n: int) -> None:
    """Refuse a torus of n qubits above `MAX_TORUS_QUBITS`, before any row is built."""
    if n > MAX_TORUS_QUBITS:
        raise CodeConstructionError(f"{what} would have {n} qubits, above the limit of "
                                    f"{MAX_TORUS_QUBITS}")


@dataclass(frozen=True)
class LPoly:
    """F2 Laurent polynomial in x, y: a finite set of exponent pairs."""

    terms: frozenset[tuple[int, int]] = frozenset()

    @classmethod
    def zero(cls) -> "LPoly":
        return cls(frozenset())

    @classmethod
    def one(cls) -> "LPoly":
        return cls(frozenset([(0, 0)]))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LPoly") -> "LPoly":
        return LPoly(self.terms ^ other.terms)

    def __mul__(self, other: "LPoly") -> "LPoly":
        acc: set[tuple[int, int]] = set()
        for (a1, b1) in self.terms:
            for (a2, b2) in other.terms:
                acc.symmetric_difference_update([(a1 + a2, b1 + b2)])
        return LPoly(frozenset(acc))

    def conjugate(self) -> "LPoly":
        return LPoly(frozenset((-a, -b) for (a, b) in self.terms))

    @classmethod
    def parse(cls, s: str, *, line: int | None = None) -> "LPoly":
        s = s.replace(" ", "")
        if not s:
            raise ParseError("empty polynomial", line=line)
        acc: set[tuple[int, int]] = set()
        for term in s.split("+"):
            if term == "0":
                continue
            ex = ey = 0
            if term != "1":
                for factor in term.split("*"):
                    if factor == "1":
                        continue
                    if not factor:
                        raise ParseError(f"empty factor in term {term!r}", line=line)
                    var = factor[0]
                    if var not in ("x", "y"):
                        raise ParseError(f"bad factor {factor!r} in {s!r}", line=line)
                    if factor == var:
                        e = 1
                    elif factor[1] == "^":
                        try:
                            e = int(factor[2:])
                        except ValueError:
                            raise ParseError(f"bad exponent in {factor!r}", line=line) from None
                    else:
                        raise ParseError(f"bad factor {factor!r} in {s!r}", line=line)
                    if var == "x":
                        ex += e
                    else:
                        ey += e
            acc.symmetric_difference_update([(ex, ey)])
        return cls(frozenset(acc))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        out = []
        for (a, b) in sorted(self.terms):
            factors = []
            if a:
                factors.append("x" if a == 1 else f"x^{a}")
            if b:
                factors.append("y" if b == 1 else f"y^{b}")
            out.append("*".join(factors) if factors else "1")
        return "+".join(out)


@dataclass(frozen=True)
class LaurentVec:
    """A 2n-vector of polynomials: X block (entries 0..n-1), then Z block."""

    entries: tuple[LPoly, ...]

    def __post_init__(self):
        if len(self.entries) == 0 or len(self.entries) % 2:
            raise ValueError("a lattice operator needs 2n polynomial entries")

    @property
    def n(self) -> int:
        return len(self.entries) // 2

    @classmethod
    def parse(cls, lines) -> "LaurentVec":
        return cls(tuple(LPoly.parse(s) for s in lines))


def symplectic_form(a: LaurentVec, b: LaurentVec) -> LPoly:
    """Full commutation polynomial: the (k1, k2) coefficient is the
    anticommutation bit of the first operator with the (k1, k2)-translate of
    the second; the constant term is the plain symplectic product."""
    if a.n != b.n:
        raise ValueError("operators have different unit-cell sizes")
    n = a.n
    acc = LPoly.zero()
    for i in range(n):
        acc = acc + a.entries[i].conjugate() * b.entries[n + i]
        acc = acc + a.entries[n + i].conjugate() * b.entries[i]
    return acc


@dataclass(frozen=True)
class UnitCellCode:
    """n qubits and s stabilizer generator columns per cell, plus optional
    per-cell logical vectors (logical_z[i] pairs with logical_x[i])."""

    n: int
    columns: tuple[LaurentVec, ...]
    logical_z: tuple[LaurentVec, ...] = ()
    logical_x: tuple[LaurentVec, ...] = ()

    def __post_init__(self):
        for v in self.columns + self.logical_z + self.logical_x:
            if v.n != self.n:
                raise ValueError("entry count inconsistent with cell size")
        if len(self.logical_z) != len(self.logical_x):
            raise ValueError("logical vectors must come in Z/X pairs")

    @property
    def s(self) -> int:
        return len(self.columns)


def validate_unit_cell(cell: UnitCellCode) -> Diagnostics:
    """Symbolic checks: generator columns pairwise commute with all
    translates; logicals commute with the stabilizer and realize the
    delta-pairing as full polynomials."""
    diag = Diagnostics()
    for i, gi in enumerate(cell.columns):
        for j in range(i, cell.s):
            w = symplectic_form(gi, cell.columns[j])
            if not w.is_zero():
                diag.add(f"sigma columns {i},{j}: nonzero commutation polynomial {w}")
    named = [(f"a{i + 1}", v) for i, v in enumerate(cell.logical_z)]
    named += [(f"b{i + 1}", v) for i, v in enumerate(cell.logical_x)]
    for name, v in named:
        for l, g in enumerate(cell.columns):
            w = symplectic_form(g, v)
            if not w.is_zero():
                diag.add(f"{name} vs sigma column {l}: nonzero commutation polynomial {w}")
    kk = len(cell.logical_z)
    for i in range(kk):
        for j in range(kk):
            w = symplectic_form(cell.logical_z[i], cell.logical_x[j])
            want = LPoly.one() if i == j else LPoly.zero()
            if w + want != LPoly.zero():
                diag.add(f"a{i + 1} vs b{j + 1}: pairing polynomial {w}, expected {want}")
            if j > i:
                wa = symplectic_form(cell.logical_z[i], cell.logical_z[j])
                if not wa.is_zero():
                    diag.add(f"a{i + 1} vs a{j + 1}: nonzero commutation polynomial {wa}")
                wb = symplectic_form(cell.logical_x[i], cell.logical_x[j])
                if not wb.is_zero():
                    diag.add(f"b{i + 1} vs b{j + 1}: nonzero commutation polynomial {wb}")
    return diag


@dataclass(frozen=True)
class TorusCode:
    """A unit-cell code instantiated on an Lx x Ly torus."""

    code: StabilizerCode
    lx: int
    ly: int
    cell_qubits: int
    dropped_rows: int

    def place(self, vec: LaurentVec, cx: int, cy: int) -> PauliOp:
        """The (cx, cy)-translate of a unit-cell operator on this torus."""
        return _instantiate_vec(vec, self.lx, self.ly, cx, cy, self.cell_qubits)

    def translates(self, vec: LaurentVec) -> list[PauliOp]:
        return [self.place(vec, cx, cy) for cy in range(self.ly) for cx in range(self.lx)]


def _instantiate_vec(vec: LaurentVec, lx: int, ly: int, cx: int, cy: int,
                     n: int) -> PauliOp:
    total = n * lx * ly
    packed = 0  # x | z << total
    for i, poly in enumerate(vec.entries):
        block, q = divmod(i, n)  # block 0 is X, block 1 is Z
        for (ex, ey) in poly.terms:
            cell = ((cy + ey) % ly) * lx + ((cx + ex) % lx)
            bit = 1 << (block * total + cell * n + q)
            if packed & bit:
                raise CodeConstructionError(
                    f"degenerate overlap: {'XZ'[block]} entry {q} folds onto cell "
                    f"({(cx + ex) % lx},{(cy + ey) % ly}) twice on a {lx}x{ly} torus")
            packed |= bit
    return PauliOp(total, packed & ((1 << total) - 1), packed >> total)


def _independent_rows(rows: list[PauliOp]) -> list[PauliOp]:
    """The rows independent of the rows before them, in order."""
    span = F2Span()
    return [p for p in rows if span.insert(p.x | (p.z << p.n))]


def instantiate_torus(cell: UnitCellCode, lx: int, ly: int) -> TorusCode:
    """Tile the unit cell on the torus; dependent wrapped generator rows are
    dropped (later rows first) and counted."""
    if lx < 2 or ly < 2:
        raise CodeConstructionError("torus needs Lx, Ly >= 2")
    n = cell.n
    _refuse_oversized(f"a {lx}x{ly} torus of {n}-qubit cells", n * lx * ly)
    placed = [_instantiate_vec(col, lx, ly, cx, cy, n)
              for cy in range(ly) for cx in range(lx) for col in cell.columns]
    rows = _independent_rows(placed)
    total = n * lx * ly
    k = total - len(rows)
    if cell.logical_z:
        pairs = [(_instantiate_vec(az, lx, ly, cx, cy, n), _instantiate_vec(bx, lx, ly, cx, cy, n))
                 for cy in range(ly) for cx in range(lx)
                 for az, bx in zip(cell.logical_z, cell.logical_x)]
        if len(pairs) != k:
            raise CodeConstructionError(
                f"cell logicals instantiate to {len(pairs)} pairs but the torus code "
                f"has k={k}; wrapped dependencies changed the count")
        zs, xs = [z for z, _ in pairs], [x for _, x in pairs]
    else:
        xs, zs = complete_logical_basis(rows, n=total)
    return TorusCode(StabilizerCode(rows, xs, zs), lx, ly, n, len(placed) - len(rows))


# -- catalog lattice cells -------------------------------------------------------


def rate_two_thirds_cell() -> UnitCellCode:
    """Three qubits, one generator per cell, two logical qubits per cell;
    transmutes single-qubit errors to the translates of the weight-2 phase
    logical carried by a1."""
    g = LaurentVec.parse(["x*y", "y+x*y", "x+x*y", "x+y", "1+x+x*y", "1+y+x*y"])
    a1 = LaurentVec.parse(["0", "1", "1", "0", "1", "1"])
    a2 = LaurentVec.parse(["0", "1", "0", "x*y", "0", "1"])
    b1 = LaurentVec.parse(["0", "0", "0", "1+y", "0", "1"])
    b2 = LaurentVec.parse(["0", "1", "0", "x+y+x*y", "1", "0"])
    return UnitCellCode(3, (g,), (a1, a2), (b1, b2))


def rate_half_cell() -> UnitCellCode:
    """Two qubits and one generator per cell; a single-error-correcting code."""
    g = LaurentVec.parse(["x*y", "x*y+y", "1+x+y", "1+x*y"])
    return UnitCellCode(2, (g,))


# -- compact fermionic encoding ---------------------------------------------------


@dataclass(frozen=True)
class CompactEncoding:
    """Vertex + odd-face qubit layout for the fermion encoding on an LxL torus."""

    code: StabilizerCode
    length: int
    vertex_qubits: tuple[int, ...]
    face_qubits: tuple[int, ...]


def compact_encoding(length: int) -> CompactEncoding:
    """Fermion-to-qubit encoding on a periodic length x length square lattice.

    One qubit per vertex, one per odd face ((x+y) odd). Each lattice edge
    carries an encoded hopping operator: X on its tail vertex, Y on its head,
    and X (vertical) or Y (horizontal) on the unique odd face beside it, with
    arrows circulating around the odd faces. Any closed loop of edge
    operators represents the fermionic identity, so the stabilizer group is
    generated by the loops around even faces plus, on the torus, the two
    non-contractible loops; omitting the latter would leave distinct face
    qubits with colliding syndromes. Z on any vertex qubit has zero
    syndrome: it is the encoded single-site dephasing operator.
    """
    if length % 2 or length < 4:
        raise CodeConstructionError("compact encoding needs even L >= 4")
    lsize = length
    n_vertex = lsize * lsize
    _refuse_oversized(f"a {lsize}x{lsize} compact encoding", n_vertex + n_vertex // 2)
    odd_faces = [(x, y) for y in range(lsize) for x in range(lsize) if (x + y) % 2 == 1]
    face_index = {f: n_vertex + i for i, f in enumerate(odd_faces)}
    n = n_vertex + len(odd_faces)

    def vidx(x: int, y: int) -> int:
        return (y % lsize) * lsize + (x % lsize)

    def fidx(x: int, y: int) -> int:
        return face_index[(x % lsize, y % lsize)]

    def h_edge(x: int, y: int) -> PauliOp:
        """Edge operator for the horizontal edge (x,y)-(x+1,y)."""
        if (x + y) % 2:
            # odd face above; its bottom edge runs against the x direction
            tail, head, face = (x + 1, y), (x, y), fidx(x, y)
        else:
            # odd face below; its top edge runs along the x direction
            tail, head, face = (x, y), (x + 1, y), fidx(x, y - 1)
        xm = (1 << vidx(*tail)) | (1 << vidx(*head)) | (1 << face)
        zm = (1 << vidx(*head)) | (1 << face)
        return PauliOp(n, xm, zm)

    def v_edge(x: int, y: int) -> PauliOp:
        """Edge operator for the vertical edge (x,y)-(x,y+1)."""
        if (x + y) % 2:
            # odd face to the right; its left edge runs up
            tail, head, face = (x, y), (x, y + 1), fidx(x, y)
        else:
            # odd face to the left; its right edge runs down
            tail, head, face = (x, y + 1), (x, y), fidx(x - 1, y)
        xm = (1 << vidx(*tail)) | (1 << vidx(*head)) | (1 << face)
        zm = (1 << vidx(*head))
        return PauliOp(n, xm, zm)

    def product(ops) -> PauliOp:
        xm = zm = 0
        for p in ops:
            xm ^= p.x
            zm ^= p.z
        return PauliOp(n, xm, zm)

    # a loop around each even face, then the non-contractible torus loops:
    # one horizontal, one vertical
    loops = [product([h_edge(x, y), v_edge(x + 1, y), h_edge(x, y + 1), v_edge(x, y)])
             for y in range(lsize) for x in range(lsize) if (x + y) % 2 == 0]
    loops.append(product([h_edge(x, 0) for x in range(lsize)]))
    loops.append(product([v_edge(0, y) for y in range(lsize)]))
    rows = _independent_rows(loops)

    xs, zs = complete_logical_basis(rows)
    code = StabilizerCode(rows, xs, zs)
    return CompactEncoding(code, lsize, tuple(range(n_vertex)),
                           tuple(range(n_vertex, n)))


# -- toric code -------------------------------------------------------------------


def toric_code(length: int) -> StabilizerCode:
    """Standard toric code on an L x L periodic square lattice.

    Qubits on edges: horizontal edge (x, y) at index y*L+x, vertical at
    L^2 + y*L + x. The dependent last plaquette and last vertex star are
    omitted; the logical basis is the usual homology cycles.
    """
    if length < 2:
        raise CodeConstructionError("toric code needs L >= 2")
    lsize = length
    n = 2 * lsize * lsize
    _refuse_oversized(f"a {lsize}x{lsize} toric code", n)

    def h(x: int, y: int) -> int:
        return (y % lsize) * lsize + (x % lsize)

    def v(x: int, y: int) -> int:
        return lsize * lsize + (y % lsize) * lsize + (x % lsize)

    plaquettes = [PauliOp(n, 0, (1 << h(x, y)) | (1 << h(x, y + 1)) | (1 << v(x, y))
                          | (1 << v(x + 1, y)))
                  for y in range(lsize) for x in range(lsize)]
    stars = [PauliOp(n, (1 << h(x, y)) | (1 << h(x - 1, y)) | (1 << v(x, y))
                     | (1 << v(x, y - 1)), 0)
             for y in range(lsize) for x in range(lsize)]
    # the product of all plaquettes and that of all stars are the identity:
    # the last of each is dropped
    gens = _independent_rows(plaquettes + stars)

    logical_z = [PauliOp(n, 0, sum(1 << v(0, y) for y in range(lsize))),
                 PauliOp(n, 0, sum(1 << h(x, 0) for x in range(lsize)))]
    logical_x = [PauliOp(n, sum(1 << v(x, 0) for x in range(lsize)), 0),
                 PauliOp(n, sum(1 << h(0, y) for y in range(lsize)), 0)]
    return StabilizerCode(gens, logical_x, logical_z)


# -- unit-cell text format --------------------------------------------------------


def dumps_cell(cell: UnitCellCode) -> str:
    lines = [f"n {cell.n} s {cell.s}"]
    for col in cell.columns:
        lines += [str(p) for p in col.entries]
    for i, (az, bx) in enumerate(zip(cell.logical_z, cell.logical_x), start=1):
        lines.append(f"A{i}:")
        lines += [str(p) for p in az.entries]
        lines.append(f"B{i}:")
        lines += [str(p) for p in bx.entries]
    return "\n".join(lines) + "\n"


def loads_cell(text: str) -> UnitCellCode:
    """Parse the unit-cell format: header 'n <n> s <s>', then per generator
    column 2n polynomial lines, then optional 'A1:'/'B1:'/... logical blocks."""
    entries = list(content_lines(text.splitlines()))
    if not entries:
        raise ParseError("empty unit-cell file")
    lineno, header = entries[0]
    parts = header.split()
    if len(parts) != 4 or parts[0] != "n" or parts[2] != "s":
        raise ParseError("header must be 'n <qubits> s <generators>'", line=lineno)
    try:
        n, s = int(parts[1]), int(parts[3])
    except ValueError:
        raise ParseError("header counts must be integers", line=lineno) from None
    if n < 1 or s < 0:
        raise ParseError(f"invalid cell parameters n={n}, s={s}", line=lineno)

    idx = 1

    def read_vec(what: str) -> LaurentVec:
        nonlocal idx
        polys = []
        for _ in range(2 * n):
            if idx >= len(entries):
                raise ParseError(f"{what} needs {2 * n} polynomial lines")
            ln, txt = entries[idx]
            idx += 1
            polys.append(LPoly.parse(txt, line=ln))
        return LaurentVec(tuple(polys))

    columns = tuple(read_vec(f"generator column {i + 1}") for i in range(s))
    blocks: dict[tuple[str, int], LaurentVec] = {}
    while idx < len(entries):
        ln, tag = entries[idx]
        num = tag[1:-1]
        if not (tag[0] in "AB" and tag.endswith(":") and num.isascii() and num.isdigit()):
            raise ParseError(f"expected a logical block tag like 'A1:', got {tag!r}", line=ln)
        key = (tag[0], int(num))
        if key in blocks:
            raise ParseError(f"repeated logical block {tag!r}", line=ln)
        idx += 1
        blocks[key] = read_vec(f"logical block {tag}")
    pairs = sorted({i for _, i in blocks})
    if pairs != list(range(1, len(pairs) + 1)):
        raise ParseError("logical blocks must be numbered A1/B1, A2/B2, ...")
    logical_z, logical_x = [], []
    for i in pairs:
        if ("A", i) not in blocks or ("B", i) not in blocks:
            raise ParseError(f"logical pair {i} needs both A{i}: and B{i}: blocks")
        logical_z.append(blocks["A", i])
        logical_x.append(blocks["B", i])
    return UnitCellCode(n, columns, tuple(logical_z), tuple(logical_x))
