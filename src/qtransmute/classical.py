"""Classical binary linear codes and the CSS construction.

Codewords and matrix rows are bit-packed ints (coefficient of x^i at bit i,
qubit i). A LinearCode always carries both a full-rank generator and a
full-rank parity-check matrix with G P^T = 0.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import CodeConstructionError, ParseError
from .f2 import BitMatrix, kernel_basis, parity, rref
from .pauli import PauliOp
from .stabilizer import (DistanceResult, StabilizerCode, complete_logical_basis,
                         min_weight_in_class)


@dataclass(frozen=True)
class Poly2:
    """Binary polynomial; coefficient of x^i is bit i. Zero is bits == 0."""

    bits: int

    def __post_init__(self):
        if self.bits < 0:
            raise ValueError("negative coefficient mask")

    @property
    def degree(self) -> int:
        if self.bits == 0:
            raise ValueError("zero polynomial has no degree")
        return self.bits.bit_length() - 1

    def is_zero(self) -> bool:
        return self.bits == 0

    def __add__(self, other: "Poly2") -> "Poly2":
        return Poly2(self.bits ^ other.bits)

    def __mul__(self, other: "Poly2") -> "Poly2":
        a, b, out = self.bits, other.bits, 0
        while a:
            if a & 1:
                out ^= b
            a >>= 1
            b <<= 1
        return Poly2(out)

    def divmod(self, other: "Poly2") -> tuple["Poly2", "Poly2"]:
        if other.bits == 0:
            raise ZeroDivisionError("polynomial division by zero")
        rem, quo = self.bits, 0
        d = other.degree
        while rem and rem.bit_length() - 1 >= d:
            shift = rem.bit_length() - 1 - d
            quo ^= 1 << shift
            rem ^= other.bits << shift
        return Poly2(quo), Poly2(rem)

    def divides(self, other: "Poly2") -> bool:
        return other.divmod(self)[1].is_zero()

    @classmethod
    def parse(cls, s: str) -> "Poly2":
        """Parse forms like '1+x^3+x^4+x^5+x^8'; duplicate terms cancel."""
        bits = 0
        for idx, term in enumerate(s.replace(" ", "").split("+")):
            if term == "0":
                continue
            if term == "1":
                bits ^= 1
            elif term == "x":
                bits ^= 2
            elif term.startswith("x^"):
                try:
                    e = int(term[2:])
                except ValueError:
                    raise ParseError(f"bad exponent in term {term!r}", column=idx) from None
                if e < 0:
                    raise ParseError(f"negative exponent in term {term!r}", column=idx)
                bits ^= 1 << e
            else:
                raise ParseError(f"bad polynomial term {term!r}", column=idx)
        return cls(bits)

    def __str__(self) -> str:
        if self.bits == 0:
            return "0"
        terms = []
        for i in range(self.bits.bit_length()):
            if (self.bits >> i) & 1:
                terms.append("1" if i == 0 else "x" if i == 1 else f"x^{i}")
        return "+".join(terms)


def x_power_minus_one(n: int) -> Poly2:
    return Poly2((1 << n) | 1)


@dataclass(frozen=True)
class LinearCode:
    """An [n, k] binary linear code with generator and parity-check rows."""

    n: int
    generator: tuple[int, ...]
    parity_check: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.generator)

    @classmethod
    def from_generator_rows(cls, n: int, rows) -> "LinearCode":
        rows = tuple(rows)
        gmat = BitMatrix(rows, n)
        if rref(gmat).rank < len(rows):
            raise CodeConstructionError("generator rows are dependent")
        pc = kernel_basis(gmat).rows
        return cls(n, rows, tuple(pc))

    def contains(self, word: int) -> bool:
        return all(parity(row & word) == 0 for row in self.parity_check)


def cyclic_code(n: int, g: Poly2) -> LinearCode:
    """Cyclic code of length n from a generator polynomial dividing x^n + 1."""
    if n < 1:
        raise CodeConstructionError(f"cyclic code length must be >= 1, got {n}")
    if g.is_zero():
        raise CodeConstructionError("zero generator polynomial")
    if not g.divides(x_power_minus_one(n)):
        raise CodeConstructionError(f"{g} does not divide x^{n}+1")
    rows = tuple((g.bits << i) for i in range(n - g.degree))
    return LinearCode.from_generator_rows(n, rows)


def subcode_from_rows(code: LinearCode, rows: list[int]) -> LinearCode:
    """Code generated by the selected generator rows."""
    if not rows:
        raise CodeConstructionError("empty row selection")
    picked = tuple(code.generator[i] for i in rows)
    return LinearCode.from_generator_rows(code.n, picked)


def dual(code: LinearCode) -> LinearCode:
    return LinearCode(code.n, code.parity_check, code.generator)


_EXHAUSTIVE_K_LIMIT = 25


def classical_distance(code: LinearCode, cap: int) -> DistanceResult:
    """Minimum Hamming weight of a nonzero codeword.

    Exhaustive (Gray-code walk over all 2^k codewords) for k <= 25; beyond
    that, the capped zero-syndrome scan, which is exact up to `cap` and
    otherwise reports cap+1 as a non-exact bound.
    """
    k = code.k
    if k == 0:
        raise ValueError(f"the [{code.n},0] code has no nonzero codeword, so no distance")
    if k > _EXHAUSTIVE_K_LIMIT:
        return _capped_distance(code, cap)
    best = code.n + 1
    word = 0
    prev = 0
    for t in range(1, 1 << k):
        gray = t ^ (t >> 1)
        idx = (gray ^ prev).bit_length() - 1
        word ^= code.generator[idx]
        prev = gray
        w = word.bit_count()
        if w < best:
            best = w
    return DistanceResult(best, True, cap)


def _capped_distance(code: LinearCode, cap: int) -> DistanceResult:
    """Minimum codeword weight up to `cap`: the pure-X distance of the parity checks' Z code."""
    gens = [PauliOp(code.n, 0, row) for row in code.parity_check]
    z_code = StabilizerCode(gens, *complete_logical_basis(gens, n=code.n))
    return min_weight_in_class(z_code, None, cap, pure="x")


def css_build(c1: LinearCode, c2: LinearCode) -> StabilizerCode:
    """CSS code: Z-type generators from c1's parity check, X-type from c2's.

    Requires each dual contained in the other, i.e. every pair of parity
    rows orthogonal; a violating row pair is reported otherwise.
    """
    if c1.n != c2.n:
        raise CodeConstructionError("classical codes have different lengths")
    n = c1.n
    for i, p1 in enumerate(c1.parity_check):
        for j, p2 in enumerate(c2.parity_check):
            if parity(p1 & p2):
                raise CodeConstructionError(
                    f"dual containment violated: Z row {i} and X row {j} anticommute")
    gens = [PauliOp(n, 0, row) for row in c1.parity_check]
    gens += [PauliOp(n, row, 0) for row in c2.parity_check]
    xs, zs = complete_logical_basis(gens, n=n)
    return StabilizerCode(gens, xs, zs)


def is_css(code: StabilizerCode) -> bool:
    return all(g.x == 0 or g.z == 0 for g in code.generators)


def asymmetric_distances(code: StabilizerCode, cap: int) -> tuple[DistanceResult, DistanceResult]:
    """(min pure-X logical weight, min pure-Z logical weight) outside S."""
    if not is_css(code):
        raise CodeConstructionError("asymmetric distances require a CSS code")
    dx = min_weight_in_class(code, None, cap, pure="x")
    dz = min_weight_in_class(code, None, cap, pure="z")
    return dx, dz


def qr17_code() -> LinearCode:
    """The [17, 9, 5] quadratic-residue code."""
    return cyclic_code(17, Poly2.parse("1+x^3+x^4+x^5+x^8"))


def css17_classical_pair() -> tuple[LinearCode, LinearCode]:
    """The two classical codes behind the 17-qubit construction.

    Returns (ca, cb) such that css_build(ca, cb) puts the distance-3 code on
    the X side: ca's parity check is the 7-row generator set of the chosen
    self-orthogonal subcode of the QR code, cb is the QR code itself.
    """
    qr = qr17_code()
    gt = Poly2.parse("1+x^5") * Poly2.parse("1+x^3+x^4+x^5+x^8")
    modulus = x_power_minus_one(17)
    shifts = tuple((Poly2(gt.bits << i).divmod(modulus))[1].bits for i in range(8))
    even_sub = LinearCode.from_generator_rows(17, shifts)
    c2_perp = subcode_from_rows(even_sub, list(range(7)))
    c2 = dual(c2_perp)
    return c2, qr
