"""Dense bit-packed linear algebra over GF(2).

Vectors and matrix rows are Python ints used as bit masks (bit i = entry i),
so a row operation is a single XOR regardless of width. All arithmetic is
mod 2; values are immutable after construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


def parity(x: int) -> int:
    """Parity (mod-2 popcount) of a nonnegative int."""
    return x.bit_count() & 1


def transpose_rows(rows: Sequence[int], width: int) -> list[int]:
    """Transpose of packed rows that are `width` bits wide."""
    out = [0] * width
    for i, r in enumerate(rows):
        while r:
            j = (r & -r).bit_length() - 1
            out[j] |= 1 << i
            r &= r - 1
    return out


@dataclass(frozen=True)
class BitVec:
    """A length-`n` vector over GF(2), packed into an int (bit i = entry i)."""

    n: int
    bits: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("length must be nonnegative")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError("payload has bits set beyond the stated length")

    @classmethod
    def from_ints(cls, entries: Iterable[int]) -> "BitVec":
        entries = list(entries)
        bits = 0
        for i, e in enumerate(entries):
            if e & 1:
                bits |= 1 << i
        return cls(len(entries), bits)

    @classmethod
    def from_string(cls, s: str) -> "BitVec":
        return cls.from_ints(int(c) for c in s)

    def get(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return BitVec(self.n, self.bits ^ other.bits)

    def dot(self, other: "BitVec") -> int:
        if self.n != other.n:
            raise ValueError("length mismatch")
        return parity(self.bits & other.bits)

    def weight(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0

    def to01(self) -> str:
        return "".join(str((self.bits >> i) & 1) for i in range(self.n))


@dataclass(frozen=True)
class BitMatrix:
    """A rows x cols matrix over GF(2); each row is a packed int."""

    rows: tuple[int, ...]
    cols: int

    def __post_init__(self):
        if self.cols < 0:
            raise ValueError("cols must be nonnegative")
        for r in self.rows:
            if r < 0 or r >> self.cols:
                raise ValueError("row has bits set beyond the stated width")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "BitMatrix":
        packed, cols = [], 0
        for row in rows:
            v = BitVec.from_ints(row)
            packed.append(v.bits)
            cols = max(cols, v.n)
        return cls(tuple(packed), cols)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "BitMatrix":
        return cls((0,) * nrows, ncols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(tuple(1 << i for i in range(n)), n)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def get(self, i: int, j: int) -> int:
        if not 0 <= j < self.cols:
            raise IndexError(j)
        return (self.rows[i] >> j) & 1

    def row(self, i: int) -> BitVec:
        return BitVec(self.cols, self.rows[i])

    def matvec(self, v: BitVec) -> BitVec:
        if v.n != self.cols:
            raise ValueError("dimension mismatch")
        out = 0
        for i, r in enumerate(self.rows):
            out |= parity(r & v.bits) << i
        return BitVec(self.nrows, out)

    def transpose(self) -> "BitMatrix":
        return BitMatrix(tuple(transpose_rows(self.rows, self.cols)), self.nrows)

    def vstack(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.cols:
            raise ValueError("width mismatch")
        return BitMatrix(self.rows + other.rows, self.cols)


@dataclass(frozen=True)
class RrefResult:
    reduced: BitMatrix
    rank: int
    pivots: tuple[int, ...]


def rref(m: BitMatrix) -> RrefResult:
    """Reduced row-echelon form over GF(2); preserves the row space."""
    rows = list(m.rows)
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        if r >= nrows:
            break
        bit = 1 << c
        pivot = next((i for i in range(r, nrows) if rows[i] & bit), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(nrows):
            if i != r and rows[i] & bit:
                rows[i] ^= rows[r]
        pivots.append(c)
        r += 1
    return RrefResult(BitMatrix(tuple(rows), m.cols), r, tuple(pivots))


def kernel_basis(m: BitMatrix) -> BitMatrix:
    """Basis of {v : m v = 0}, one row per free column, ascending free-column order."""
    red = rref(m)
    pivot_set = set(red.pivots)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        v = 1 << f
        bit_f = 1 << f
        for row, pcol in zip(red.reduced.rows, red.pivots):
            if row & bit_f:
                v |= 1 << pcol
        basis.append(v)
    return BitMatrix(tuple(basis), m.cols)


def solve(m: BitMatrix, b: BitVec) -> BitVec | None:
    """One solution x of m x = b, or None if the system is inconsistent."""
    if b.n != m.nrows:
        raise ValueError("right-hand side length must equal the row count")
    # Augment with b as an extra column and reduce.
    aug_rows = [m.rows[i] | (((b.bits >> i) & 1) << m.cols) for i in range(m.nrows)]
    red = rref(BitMatrix(tuple(aug_rows), m.cols + 1))
    x = 0
    for row, pcol in zip(red.reduced.rows, red.pivots):
        if pcol == m.cols:
            return None  # pivot in the augmented column: inconsistent
        if (row >> m.cols) & 1:
            x |= 1 << pcol
    return BitVec(m.cols, x)


def reduce_against(rref_rows: Sequence[int], v: int) -> int:
    """Reduce a packed row against rows already in RREF; zero iff v is in their span."""
    for row in rref_rows:
        low = row & -row
        if v & low:
            v ^= row
    return v


def in_row_space(m: BitMatrix, v: BitVec) -> bool:
    """True iff v lies in the row space of m."""
    if v.n != m.cols:
        raise ValueError("dimension mismatch")
    return reduce_against(rref(m).reduced.rows, v.bits) == 0


class F2Span:
    """Incrementally built row space; rows keyed by lowest set bit.

    reduce() strictly increases the lowest set bit at each step, so a vector
    reduces to zero iff it lies in the span.
    """

    def __init__(self, rows: Iterable[int] = ()):
        self._by_pivot: dict[int, int] = {}
        for r in rows:
            self.insert(r)

    def reduce(self, v: int) -> int:
        while v:
            row = self._by_pivot.get(v & -v)
            if row is None:
                return v
            v ^= row
        return 0

    def insert(self, v: int) -> int:
        """Add v to the span; returns the nonzero residual, or 0 if dependent."""
        v = self.reduce(v)
        if v:
            self._by_pivot[v & -v] = v
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def rank(self) -> int:
        return len(self._by_pivot)
