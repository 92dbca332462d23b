"""The n-qubit Pauli group modulo global phase, in symplectic representation.

A Pauli is a pair of n-bit masks (x, z): qubit i carries I/X/Z/Y according to
(x_i, z_i) = (0,0)/(1,0)/(0,1)/(1,1). Global phases {+-1, +-i} are never
tracked; products and commutators are phase-blind throughout.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice, repeat
from math import comb
from typing import Iterator

from .errors import DimensionMismatch, ParseError
from .f2 import fold, parity

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
        return map(divmod, chain.from_iterable(self.walk(steps)), repeat(1 << n))

    def labelled(self, cols, width: int, lo: int = 0) -> Iterator[list[int]]:
        """Batches of ints in iteration order, each an error's label s below
        its support code shifted up by `width`, over the errors of weight lo
        and up. s is the XOR of cols[q] over the X bits q and cols[n + q] over
        the Z bits: the fold of cols by x | z << n, which must fit in `width`
        bits. The i-th support qubit's step values carry its label and its
        field at depth i, so labels and code both arrive by one XOR per
        (qubit, letter) step."""
        n, b = self.n, _field_bits(self.n)
        return self._walk([[(cols[q] ^ (3 * q + 1) << f, cols[q] ^ cols[n + q] ^ (3 * q + 2) << f,
                             cols[n + q] ^ (3 * q + 3) << f) for q in range(n)]
                           for f in (width + b * d for d in range(self.w))], lo)

    def walk(self, rows) -> Iterator[list[int]]:
        """Batches of ints in iteration order, over the errors whose letters
        `rows` offers: rows[q] holds one step value per letter of qubit q, and
        an error's int is the XOR of its letters' values. Three letters per
        qubit walk the ball; one letter walks the pure half-ball of it."""
        return self._walk([rows] * self.w)

    def colliding(self, cols, mask: int, width: int) -> list[int] | None:
        """The ball's errors of weight w >= 1 that share a syndrome with
        another error of the ball, in iteration order, each labelled as
        `labelled` labels it; None once they are more than `_DENSE_SHARE` of
        the ball, or finding them takes four times as many pairs of colliding
        halves and halves b' tried. A syndrome is a label's bits in `mask`.

        The X columns cols[:n] and the Z columns cols[n:] must set disjoint
        syndrome bits (a CSS code), so two errors collide exactly when their X
        halves collide or are equal, and so do their Z halves. Each half of a
        ball error lies in the pure half-ball of radius w, so every colliding
        pair is found from two distinct halves a, a' of one letter that
        collide in their half-ball, |a| <= |a'|: every b' of the other letter
        with |a' | b'| <= w, then every b colliding with or equal to b', with
        |a | b| <= w."""
        n, w = self.n, self.w
        limit = _DENSE_SHARE * len(self)
        syns = [c & mask for c in cols[:n]], [c & mask for c in cols[n:]]
        halves, steps = [], 0
        for syn in syns:  # syndrome -> the masks of two or more errors of one letter
            seen, groups = {}, {}
            for v in chain.from_iterable(self.walk([(t | 1 << (width + q),)
                                                    for q, t in enumerate(syn)])):
                first = seen.setdefault(v & mask, v)
                if first != v:
                    group = groups.setdefault(v & mask, [first >> width])
                    steps += len(group)
                    if steps > 4 * limit:
                        return None
                    group.append(v >> width)
            halves.append(groups)
        found = set()  # x | z << n of each colliding error of weight w
        for swap in (0, 1):
            own, groups, syn = halves[swap], halves[1 - swap], syns[1 - swap]
            light = [[] for _ in range(w)]  # (mask, syndrome) of the other letter by weight < w
            for v in chain.from_iterable(ErrorBall(n, w - 1).walk(
                    [(1 << q | t << n,) for q, t in enumerate(syn)])):
                light[(v & ~(-1 << n)).bit_count()].append((v & ~(-1 << n), v >> n))
            for a, a2 in chain.from_iterable(map(combinations, own.values(), repeat(2))):
                if a.bit_count() > a2.bit_count():
                    a, a2 = a2, a
                heavy = a2.bit_count()
                steps += sum(comb(n - heavy, j) for j in range(w - heavy + 1)) << heavy
                if steps > 4 * limit:
                    return None
                subs, rest = [(0, 0)], a2
                while rest:
                    q = rest.bit_length() - 1
                    subs += [(m | 1 << q, t ^ syn[q]) for m, t in subs]
                    rest ^= 1 << q
                for out, t in chain.from_iterable(light[:w - heavy + 1]):
                    if out & a2:
                        continue
                    for m, u in subs:
                        b2 = m | out
                        for b in groups.get(t ^ u, (b2,)):
                            if (a | b).bit_count() <= w:  # (a, b) collides with (a2, b2)
                                for c, d in ((a, b), (a2, b2)):
                                    if (c | d).bit_count() == w:
                                        found.add(d | c << n if swap else c | d << n)
                if len(found) > limit:
                    return None
        fb = _field_bits(n)
        return sorted((fold(cols, p) | support_code(n, p & ~(-1 << n), p >> n) << width
                       for p in found), key=lambda v: _ball_key(v >> width, fb, w))

    def _walk(self, steps, lo: int = 0):
        """Batches of ints, each the XOR of one step value per support qubit:
        the i-th support qubit q's from steps[i][q], one per letter, over the
        errors of weight lo and up."""
        identity = [0]
        if lo == 0:
            yield identity
        for w in range(max(lo, 1), self.w + 1):
            yield from _extend(steps, identity, 0, 0, w)


# The share of a ball that `colliding` may find: an error it finds costs
# about as much as ten walked ones (toric:5 and toric:7 at w <= 3), so past
# it walking is as fast. It tries about four pairs of halves per error found.
_DENSE_SHARE = 1 / 16


def _ball_key(code: int, b: int, w: int) -> int:
    """The ball's iteration order among errors of weight w, from a support
    code of b-bit fields: the support qubits, then their letters, each read
    first qubit first."""
    qubits = letters = 0
    while code:
        q, letter = divmod((code & ~(-1 << b)) - 1, 3)
        qubits, letters = qubits << b | q, letters << 2 | letter
        code >>= b
    return qubits << 2 * w | letters


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
