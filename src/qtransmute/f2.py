"""Dense bit-packed linear algebra over GF(2), and the symplectic form.

Vectors and matrix rows are Python ints used as bit masks (bit i = entry i),
so a row operation is a single XOR regardless of width. A Pauli operator on
n qubits packs as the 2n-bit vector `x | z << n`. All arithmetic is mod 2;
values are immutable after construction.
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


def symplectic(u: int, v: int, half: int) -> int:
    """Symplectic form of two packed `x | z << half` vectors: 1 iff they anticommute.

    Both vectors must fit in 2 * half bits.
    """
    return parity((u & (v >> half)) ^ ((u >> half) & v))


def mul_bt(a_rows: Sequence[int], b_rows: Sequence[int]) -> list[int]:
    """A B^T over GF(2): entry (i, j) is the dot product of a_rows[i] and b_rows[j]."""
    return [sum(parity(a & b) << j for j, b in enumerate(b_rows)) for a in a_rows]


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

    @property
    def nrows(self) -> int:
        return len(self.rows)


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


def solve(m: BitMatrix, b: int) -> int | None:
    """One solution x of m x = b, or None if the system is inconsistent.

    b holds one bit per row of m; x holds one bit per column.
    """
    if b < 0 or b >> m.nrows:
        raise ValueError("right-hand side has bits set beyond the row count")
    # Augment with b as an extra column and reduce.
    aug_rows = [m.rows[i] | (((b >> i) & 1) << m.cols) for i in range(m.nrows)]
    red = rref(BitMatrix(tuple(aug_rows), m.cols + 1))
    x = 0
    for row, pcol in zip(red.reduced.rows, red.pivots):
        if pcol == m.cols:
            return None  # pivot in the augmented column: inconsistent
        if (row >> m.cols) & 1:
            x |= 1 << pcol
    return x


def reduce_against(rref_rows: Sequence[int], v: int) -> int:
    """Reduce a packed row against rows already in RREF; zero iff v is in their span."""
    for row in rref_rows:
        low = row & -row
        if v & low:
            v ^= row
    return v


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
