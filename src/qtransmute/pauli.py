"""The n-qubit Pauli group modulo global phase, in symplectic representation.

A Pauli is a pair of n-bit masks (x, z): qubit i carries I/X/Z/Y according to
(x_i, z_i) = (0,0)/(1,0)/(0,1)/(1,1). Global phases {+-1, +-i} are never
tracked; products and commutators are phase-blind throughout.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, repeat
from math import comb
from typing import Iterator

from .errors import DimensionMismatch, ParseError
from .f2 import parity

_LETTER_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
# (x bit, z bit) of one qubit, as binary digits, to its letter
_XZ_TO_LETTER = {("0", "0"): "I", ("1", "0"): "X", ("1", "1"): "Y", ("0", "1"): "Z"}


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
    """The string over I/X/Y/Z, qubit 0 leftmost."""
    # A 1 at bit n keeps each mask's n binary digits (none when n = 0); the
    # digits are read lowest first, without it.
    top = 1 << p.n
    return "".join(map(_XZ_TO_LETTER.__getitem__,
                       zip(format(p.x | top, "b")[:0:-1], format(p.z | top, "b")[:0:-1])))


def symplectic_product(a: PauliOp, b: PauliOp) -> int:
    """1 iff a and b anticommute."""
    if a.n != b.n:
        raise DimensionMismatch(f"operators act on {a.n} vs {b.n} qubits")
    return parity(a.x & b.z) ^ parity(a.z & b.x)


def _field_bits(n: int) -> int:
    """The width of a support code's field on n qubits: (3n).bit_length(),
    the bits of its largest field value 3n, and 1 on no qubits."""
    return (3 * n | 1).bit_length()


def support_code(n: int, x: int, z: int) -> int:
    """The support code of the Pauli (x, z) on n qubits: one b-bit field per
    support qubit q, ascending from the low bits, holding 3q + letter + 1
    with letters X, Y, Z = 0, 1, 2 and b = `_field_bits(n)`. Every field is
    nonzero, so the field count is the weight."""
    b, code, shift = _field_bits(n), 0, 0
    s = x | z
    while s:
        low = s & -s
        letter = (1 if z & low else 0) if x & low else 2
        code |= (3 * (low.bit_length() - 1) + letter + 1) << shift
        shift += b
        s ^= low
    return code


def support_xz(n: int, code: int) -> tuple[int, int]:
    """The (x, z) of a support code on n qubits."""
    b = _field_bits(n)
    field = (1 << b) - 1
    x = z = 0
    while code:
        q, letter = divmod((code & field) - 1, 3)
        if letter < 2:
            x |= 1 << q
        if letter:
            z |= 1 << q
        code >>= b
    return x, z


def support_weight(n: int, code: int) -> int:
    """The weight of the Pauli a support code on n qubits names: its field count."""
    return -(-code.bit_length() // _field_bits(n))


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
        # The walk over z | x << n, which divmod by 1 << n splits into (x, z).
        n = self.n
        steps = [(1 << (n + q), 1 << (n + q) | 1 << q, 1 << q) for q in range(n)]
        return map(divmod, chain.from_iterable(self._walk([steps] * self.w)), repeat(1 << n))

    def labelled(self, cols, width: int) -> Iterator[list[int]]:
        """Batches of ints in iteration order, each an error's label s below
        its support code shifted up by `width`. s is the XOR of cols[q] over
        the X bits q and cols[n + q] over the Z bits: the fold of cols by
        x | z << n, which must fit in `width` bits. The i-th support qubit's
        step values carry its label and its field at depth i, so labels and
        code both arrive by one XOR per (qubit, letter) step."""
        n, b = self.n, _field_bits(self.n)
        return self._walk([[(cols[q] ^ (3 * q + 1) << f, cols[q] ^ cols[n + q] ^ (3 * q + 2) << f,
                             cols[n + q] ^ (3 * q + 3) << f) for q in range(n)]
                           for f in (width + b * d for d in range(self.w))])

    def _walk(self, steps):
        """Batches of ints, each the XOR of one step value per support qubit:
        the i-th support qubit q's from steps[i][q], one per letter."""
        identity = [0]
        yield identity
        for w in range(1, self.w + 1):
            yield from _extend(steps, identity, 0, 0, w)


def _extend(steps, prefix, depth: int, start: int, left: int):
    """Depth first, the batches that extend `prefix` by `left` more qubits from
    `start` on, the next at `depth`, one batch per last-qubit range. Not
    nested, so a walk leaves no cycle."""
    row = steps[depth]
    n = len(row)
    if left == 1:
        yield [v ^ dv for q in range(start, n) for v in prefix for dv in row[q]]
        return
    for q in range(start, n - left + 1):
        yield from _extend(steps, [v ^ dv for v in prefix for dv in row[q]],
                           depth + 1, q + 1, left - 1)


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
