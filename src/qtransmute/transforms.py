"""Code-building transforms: concatenation with an [n2, 1] inner code."""
from __future__ import annotations

from .errors import CodeConstructionError
from .f2 import fold
from .pauli import PauliOp
from .stabilizer import StabilizerCode, _sym_vec, _unpack, validate_code


def _embed(p: PauliOp, block: int, block_size: int, total: int) -> PauliOp:
    shift = block * block_size
    return PauliOp(total, p.x << shift, p.z << shift)


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
    # Row q (n1 + q) is the inner logical X (Z) on block q, packed as
    # x | z << total, so an outer operator's lift folds the rows its own
    # packed x | z << n1 selects.
    rows = [(p.x | p.z << total) << q * inner.n
            for p in (inner.logical_x[0], inner.logical_z[0]) for q in range(outer.n)]

    def lift(ops: list[PauliOp]) -> list[PauliOp]:
        return [_unpack(fold(rows, _sym_vec(p)), total) for p in ops]

    return StabilizerCode(gens + lift(outer.generators), lift(outer.logical_x),
                          lift(outer.logical_z))
