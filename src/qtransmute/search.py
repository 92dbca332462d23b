"""Randomized and exhaustive searches over standard-form stabilizer codes.

The sample space is the free submatrix entries of the canonical check-matrix
form

    [ I  A1  A2 | B   C1  C2 ]
    [ 0  0   0  | D   I   E  ]

with the dependent blocks solved from the commutation constraints:
D^T = A1 + A2 E^T and B = (A1 C1^T + A2 C2^T)^T + S0 with S0 symmetric.
Every stabilizer code equals a standard-form code up to a qubit
permutation, and the predicates used here (weight-1 detection, relabeled
transmutation) are permutation-invariant, so exhausting the free entries
exhausts the property space.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

from .errors import CodeConstructionError, QTError
from .f2 import mul_bt, transpose_rows
from .pauli import PauliOp, errors_up_to_weight
from .qet import AdmissibleSet, Verdict, relabel_search
from .stabilizer import StabilizerCode, complete_logical_basis

_EXHAUSTIVE_N_LIMIT = 12
_PROGRESS_EVERY = 50_000  # candidates between run_search progress callbacks


@dataclass(frozen=True)
class SearchSpec:
    n: int
    k: int
    pattern: AdmissibleSet
    error_weight: int = 1
    mode: str = "random"  # "random" | "exhaustive"
    seed: int = 0
    budget: int = 10_000
    limit: int = 1

    def __post_init__(self):
        if self.mode not in ("random", "exhaustive"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0 < self.k < self.n:
            raise ValueError("need 0 < k < n")
        if not 0 <= self.error_weight <= self.n:
            raise ValueError(f"error_weight must be in 0..{self.n}, got {self.error_weight}")
        if self.mode == "exhaustive" and self.n > _EXHAUSTIVE_N_LIMIT:
            raise ValueError(f"exhaustive mode is limited to n <= {_EXHAUSTIVE_N_LIMIT}")


@dataclass
class SearchOutcome:
    found: list[tuple[StabilizerCode, Verdict]] = field(default_factory=list)
    examined: int = 0
    detection_passed: int = 0
    next_index: int = 0  # resume point for exhaustive mode
    exhausted: bool = False


def _index_fields(spec: SearchSpec) -> dict:
    """The spec fields that fix what a stored scan index means."""
    return {"n": spec.n, "k": spec.k, "pattern": sorted(spec.pattern.classes),
            "error_weight": spec.error_weight, "mode": spec.mode}


def read_checkpoint(path: str, spec: SearchSpec) -> int:
    """The resume index stored at `path`; refuses a file written for another spec."""
    with open(path, "r", encoding="utf-8") as fh:
        saved = json.load(fh)
    saved = saved if isinstance(saved, dict) else {}
    for name, value in _index_fields(spec).items():
        if saved.get(name) != value:
            raise QTError(f"checkpoint {path} is for another search: "
                          f"{name} is {saved.get(name)!r} there, {value!r} here")
    index = saved.get("next_index")
    if not isinstance(index, int) or index < 0:
        raise QTError(f"checkpoint {path}: next_index must be an integer >= 0")
    return index


def write_checkpoint(path: str, spec: SearchSpec, outcome: SearchOutcome) -> None:
    """Replace `path` atomically, so an interrupted write keeps the old file."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({**_index_fields(spec), "next_index": outcome.next_index,
                   "exhausted": outcome.exhausted}, fh)
    os.replace(tmp, path)


def _xor_rows(a: list[int], b: list[int]) -> list[int]:
    return [x ^ y for x, y in zip(a, b)]


def standard_form_generators(n: int, k: int, r: int, a1: list[int], a2: list[int],
                             e: list[int], c1: list[int], c2: list[int],
                             s0: list[int]) -> list[PauliOp]:
    """Assemble generators from the free blocks of the standard form."""
    m = n - k
    w = m - r
    dt = _xor_rows(a1, mul_bt(a2, e)) if r else []  # r x w
    d = transpose_rows(dt, w)  # w x r
    nmat = _xor_rows(mul_bt(a1, c1), mul_bt(a2, c2)) if r else []
    b = _xor_rows(transpose_rows(nmat, r), s0) if r else []
    gens = []
    for i in range(r):
        x = (1 << i) | (a1[i] << r) | (a2[i] << m)
        z = b[i] | (c1[i] << r) | (c2[i] << m)
        gens.append(PauliOp(n, x, z))
    for j in range(w):
        z = d[j] | (1 << (r + j)) | (e[j] << m)
        gens.append(PauliOp(n, 0, z))
    return gens


def _free_bits(n: int, k: int, r: int) -> int:
    m = n - k
    w = m - r
    return r * w + r * k + w * k + r * w + r * k + r * (r + 1) // 2


def parameter_space_size(n: int, k: int) -> int:
    return sum(1 << _free_bits(n, k, r) for r in range(n - k + 1))


class _BitReader:
    def __init__(self, value: int):
        self.value = value

    def take_rows(self, nrows: int, width: int) -> list[int]:
        rows = []
        mask = (1 << width) - 1
        for _ in range(nrows):
            rows.append(self.value & mask)
            self.value >>= width
        return rows

    def take_symmetric(self, size: int) -> list[int]:
        rows = [0] * size
        for i in range(size):
            for j in range(i + 1):
                if self.value & 1:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                self.value >>= 1
        return rows


def generators_from_index(n: int, k: int, index: int) -> list[PauliOp]:
    """Decode a linear index over the whole parameter space (all r blocks)."""
    m = n - k
    for r in range(m + 1):
        block = 1 << _free_bits(n, k, r)
        if index < block:
            return _decode(n, k, r, index)
        index -= block
    raise IndexError("index beyond the parameter space")


def _decode(n: int, k: int, r: int, value: int) -> list[PauliOp]:
    m = n - k
    w = m - r
    reader = _BitReader(value)
    a1 = reader.take_rows(r, w)
    a2 = reader.take_rows(r, k)
    e = reader.take_rows(w, k)
    c1 = reader.take_rows(r, w)
    c2 = reader.take_rows(r, k)
    s0 = reader.take_symmetric(r)
    return standard_form_generators(n, k, r, a1, a2, e, c1, c2, s0)


def sample_generators(n: int, k: int, rng: random.Random) -> list[PauliOp]:
    m = n - k
    r = rng.randrange(m + 1)
    return _decode(n, k, r, rng.getrandbits(_free_bits(n, k, r)) if _free_bits(n, k, r) else 0)


def detects_single_errors(generators: list[PauliOp], n: int) -> bool:
    """True iff every weight-1 Pauli anticommutes with some generator."""
    need = (1 << n) - 1
    col_x = col_z = col_y = 0
    for g in generators:
        col_x |= g.z
        col_z |= g.x
        col_y |= g.x ^ g.z
    return (col_x & col_z & col_y) == need


def run_search(spec: SearchSpec, start_index: int = 0, progress=None) -> SearchOutcome:
    """Hunt for codes whose weight-1 errors detect and whose classes admit the
    pattern under some relabeling. Replay-deterministic under a fixed seed;
    `progress(examined, index)` fires every `_PROGRESS_EVERY` candidates."""
    outcome = SearchOutcome(next_index=start_index)
    errors = errors_up_to_weight(spec.n, spec.error_weight)
    space = parameter_space_size(spec.n, spec.k) if spec.mode == "exhaustive" else None
    rng = random.Random(spec.seed) if spec.mode == "random" else None

    index = start_index
    while outcome.examined < spec.budget:
        if spec.mode == "exhaustive":
            if index >= space:
                outcome.exhausted = True
                break
            gens = generators_from_index(spec.n, spec.k, index)
            index += 1
        else:
            gens = sample_generators(spec.n, spec.k, rng)
        outcome.examined += 1
        if progress and outcome.examined % _PROGRESS_EVERY == 0:
            progress(outcome.examined, index)
        if not detects_single_errors(gens, spec.n):
            continue
        outcome.detection_passed += 1
        try:
            xs, zs = complete_logical_basis(gens)
        except CodeConstructionError:
            continue
        code = StabilizerCode(gens, xs, zs)
        hit = relabel_search(code, spec.pattern, errors)
        if hit is not None:
            outcome.found.append(hit)
            if len(outcome.found) >= spec.limit:
                break
    outcome.next_index = index
    return outcome
