"""The n-qubit Pauli group modulo global phase, in symplectic representation.

A Pauli is a pair of n-bit masks (x, z): qubit i carries I/X/Z/Y according to
(x_i, z_i) = (0,0)/(1,0)/(0,1)/(1,1). Global phases {+-1, +-i} are never
tracked; products and commutators are phase-blind throughout.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import DimensionMismatch, ParseError
from .f2 import parity

_LETTER_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_XZ_TO_LETTER = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


@dataclass(frozen=True)
class PauliOp:
    """An n-qubit Pauli modulo phase; equality and hashing are phase-blind."""

    n: int
    x: int = 0
    z: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("qubit count must be nonnegative")
        if self.x >> self.n or self.z >> self.n or self.x < 0 or self.z < 0:
            raise ValueError("support extends beyond the qubit count")

    def letter(self, q: int) -> str:
        return _XZ_TO_LETTER[((self.x >> q) & 1, (self.z >> q) & 1)]

    def __str__(self) -> str:
        return render(self)


def parse_pauli(s: str, *, line: int | None = None) -> PauliOp:
    """Parse a string over I/X/Y/Z, qubit 0 leftmost."""
    if not s:
        raise ParseError("empty Pauli string", line=line)
    x = z = 0
    for i, ch in enumerate(s):
        try:
            xb, zb = _LETTER_TO_XZ[ch]
        except KeyError:
            raise ParseError(f"invalid Pauli letter {ch!r}", line=line, column=i) from None
        x |= xb << i
        z |= zb << i
    return PauliOp(len(s), x, z)


def render(p: PauliOp) -> str:
    return "".join(p.letter(q) for q in range(p.n))


def symplectic_product(a: PauliOp, b: PauliOp) -> int:
    """1 iff a and b anticommute."""
    if a.n != b.n:
        raise DimensionMismatch(f"operators act on {a.n} vs {b.n} qubits")
    return parity(a.x & b.z) ^ parity(a.z & b.x)


def walk_paulis(n: int, max_weight: int) -> Iterator[tuple[int, int]]:
    """The (x, z) masks of `enumerate_paulis(n, max_weight)`, in its order.

    Supports are walked depth first in lexicographic order; each step
    extends the prefix's list of masks by the next qubit's X, Y and Z, so
    the last support qubit's letter varies fastest.
    """
    if not 0 <= max_weight <= n:
        raise ValueError("need 0 <= max_weight <= n")

    def extend(prefix: list[tuple[int, int]], start: int, left: int):
        for q in range(start, n - left + 1):
            bit = 1 << q
            grown = [xz for x, z in prefix
                     for xz in ((x | bit, z), (x | bit, z | bit), (x, z | bit))]
            if left == 1:
                yield from grown
            else:
                yield from extend(grown, q + 1, left - 1)

    for w in range(1, max_weight + 1):
        yield from extend([(0, 0)], 0, w)


def enumerate_paulis(n: int, max_weight: int) -> Iterator[PauliOp]:
    """Every non-identity Pauli of weight <= max_weight, exactly once.

    Order: ascending weight, then lexicographic support, then letters in
    X < Y < Z order per support qubit. The order is part of the contract:
    search witnesses and references are reported against it.
    """
    for x, z in walk_paulis(n, max_weight):
        yield PauliOp(n, x, z)


def errors_up_to_weight(n: int, max_weight: int) -> list[tuple[int, int]]:
    """The physical error set 'all Paulis of weight <= w' as (x, z) masks."""
    return [(0, 0), *walk_paulis(n, max_weight)]
