"""The n-qubit Pauli group modulo global phase, in symplectic representation.

A Pauli is a pair of n-bit masks (x, z): qubit i carries I/X/Z/Y according to
(x_i, z_i) = (0,0)/(1,0)/(0,1)/(1,1). Global phases {+-1, +-i} are never
tracked; products and commutators are phase-blind throughout.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from math import comb
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


class ErrorBall:
    """Every Pauli of weight <= w on n qubits, identity included, as (x, z)
    masks: the physical error set 'all Paulis of weight <= w'.

    Iteration order: the identity, then ascending weight, then lexicographic
    support, then letters in X < Y < Z order per support qubit, the last
    support qubit's letter varying fastest. Length is the closed form and
    membership a popcount, so the ball is never stored.
    """

    __slots__ = ("n", "w")

    def __init__(self, n: int, w: int):
        if not 0 <= w <= n:
            raise ValueError("need 0 <= max_weight <= n")
        self.n, self.w = n, w

    def __len__(self) -> int:
        return sum(comb(self.n, j) * 3 ** j for j in range(self.w + 1))

    def __contains__(self, e) -> bool:
        x, z = e
        return not (x | z) >> self.n and (x | z).bit_count() <= self.w  # refuses negatives

    def __iter__(self) -> Iterator[tuple[int, int]]:
        # The walk with x as the value and z as the label: its pairs are (x, z).
        return chain.from_iterable(self._walk(
            [((1 << q, 0), (1 << q, 1 << q), (0, 1 << q)) for q in range(self.n)]))

    def labelled(self, cols) -> Iterator[list[tuple[int, int]]]:
        """Batches of (v, s) in iteration order, where v = x | z << n packs the
        error and s is the XOR of cols[q] over the X bits q and cols[n + q]
        over the Z bits: the fold of cols by v, carried by one XOR per
        (qubit, letter) step."""
        n = self.n
        return self._walk([((1 << q, cols[q]), (1 << q | 1 << (n + q), cols[q] ^ cols[n + q]),
                            (1 << (n + q), cols[n + q])) for q in range(n)])

    def _walk(self, steps):
        """Batches of (v, s) pairs, each the OR of its qubits' step values v
        and the XOR of their labels s, from steps[q] = one (v, s) per letter."""
        identity = [(0, 0)]
        yield identity
        for w in range(1, self.w + 1):
            yield from _extend(steps, identity, 0, w)


def _extend(steps, prefix, start: int, left: int):
    """Depth first, the batches that extend `prefix` by `left` more qubits from
    `start` on, one per last-qubit range. Not nested, so a walk leaves no cycle."""
    n = len(steps)
    if left == 1:
        yield [(v | dv, s ^ ds) for q in range(start, n)
               for v, s in prefix for dv, ds in steps[q]]
        return
    for q in range(start, n - left + 1):
        yield from _extend(steps, [(v | dv, s ^ ds) for v, s in prefix
                                   for dv, ds in steps[q]], q + 1, left - 1)


def enumerate_paulis(n: int, max_weight: int) -> Iterator[PauliOp]:
    """Every non-identity Pauli of weight <= max_weight, exactly once.

    Order: `ErrorBall`'s, identity left out. The order is part of the
    contract: search witnesses and references are reported against it.
    """
    for x, z in islice(ErrorBall(n, max_weight), 1, None):
        yield PauliOp(n, x, z)


def errors_up_to_weight(n: int, max_weight: int) -> list[tuple[int, int]]:
    """The physical error set 'all Paulis of weight <= w' as a list of (x, z) masks."""
    return list(ErrorBall(n, max_weight))
