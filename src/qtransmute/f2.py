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


def fold(rows: Sequence[int], bits: int) -> int:
    """XOR of rows[i] over the set bits i of `bits`: the product bits · rows.

    `bits` must be nonnegative and below 1 << len(rows).
    """
    out = 0
    while bits:
        i = bits.bit_length() - 1
        out ^= rows[i]
        bits ^= 1 << i
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
    """Reduced row-echelon form over GF(2); preserves the row space.

    The rows' `F2Span` keeps one row per lowest set bit. Back-substitution,
    from the highest pivot down, then clears every other pivot bit of each
    kept row: its higher pivots' rows are final by then and hold no other
    pivot bit. The RREF of a matrix is unique, so this is the column-by-column
    elimination's result."""
    by_pivot = F2Span(m.rows)._by_pivot
    pivot_bits = sorted(by_pivot)
    all_pivots = sum(pivot_bits)
    for p in reversed(pivot_bits):
        v = by_pivot[p]
        others = v & all_pivots ^ p
        while others:
            q = others & -others
            v ^= by_pivot[q]
            others ^= q
        by_pivot[p] = v
    rows = [by_pivot[p] for p in pivot_bits]
    rows += [0] * (len(m.rows) - len(rows))
    return RrefResult(BitMatrix(tuple(rows), m.cols), len(pivot_bits),
                      tuple(p.bit_length() - 1 for p in pivot_bits))


def kernel_basis(m: BitMatrix) -> BitMatrix:
    """Basis of {v : m v = 0}, one row per free column, ascending free-column order.

    The basis vector of free column f is f plus the pivot column of each
    reduced row holding f: one fold of the pivot bits by the transposed
    reduced rows' column f."""
    red = rref(m)
    pivots = set(red.pivots)
    holders = transpose_rows(red.reduced.rows[:red.rank], m.cols)
    pivot_bits = [1 << p for p in red.pivots]
    return BitMatrix(tuple(1 << f | fold(pivot_bits, holders[f])
                           for f in range(m.cols) if f not in pivots), m.cols)


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
