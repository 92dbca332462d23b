"""Code-building transforms: concatenation with an [n2, 1] inner code."""
from __future__ import annotations

from .errors import CodeConstructionError
from .pauli import PauliOp
from .stabilizer import StabilizerCode, validate_code


def _embed(p: PauliOp, block: int, block_size: int, total: int) -> PauliOp:
    shift = block * block_size
    return PauliOp(total, p.x << shift, p.z << shift)


def _lift(op: PauliOp, inner: StabilizerCode, total: int) -> PauliOp:
    """Replace each single-qubit letter of an outer operator by the inner
    code's corresponding logical operator on that block."""
    xm = zm = 0
    for q in range(op.n):
        xb = (op.x >> q) & 1
        zb = (op.z >> q) & 1
        shift = q * inner.n
        if xb:
            xm ^= inner.logical_x[0].x << shift
            zm ^= inner.logical_x[0].z << shift
        if zb:
            xm ^= inner.logical_z[0].x << shift
            zm ^= inner.logical_z[0].z << shift
    return PauliOp(total, xm, zm)


def concatenate(outer: StabilizerCode, inner: StabilizerCode) -> StabilizerCode:
    """Encode each physical qubit of `outer` as the logical qubit of `inner`.

    The result is an [n1*n2, k1] code whose stabilizer is the per-block inner
    generators plus the lifted outer generators; the lifted logical basis
    preserves all symplectic pairings, so admissible class vectors carry over
    unchanged.
    """
    if inner.k != 1:
        raise CodeConstructionError(f"inner code must encode one qubit, has k={inner.k}")
    for name, c in (("outer", outer), ("inner", inner)):
        diag = validate_code(c)
        if not diag.ok:
            raise CodeConstructionError(f"{name} code invalid: {diag.problems[0]}")
    total = outer.n * inner.n
    gens: list[PauliOp] = []
    for block in range(outer.n):
        for g in inner.generators:
            gens.append(_embed(g, block, inner.n, total))
    for g in outer.generators:
        gens.append(_lift(g, inner, total))
    logical_x = [_lift(p, inner, total) for p in outer.logical_x]
    logical_z = [_lift(p, inner, total) for p in outer.logical_z]
    return StabilizerCode(gens, logical_x, logical_z)
