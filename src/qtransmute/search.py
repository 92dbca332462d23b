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

The logical operators have a closed form (Gottesman's thesis, 1997, §4.1;
Nielsen and Chuang, §10.5.7), here with the C1 block kept:

    X = [ 0  E^T  I | C^T   0  0 ]      with C = C2 + C1 E
    Z = [ 0  0    0 | A2^T  0  I ]

A candidate stays packed (x, z) ints until it detects every weight-1
error and its packed label table admits a relabeling; only then are
`PauliOp`s and a `StabilizerCode` built.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from itertools import chain

from .errors import QTError
from .f2 import fold, transpose_rows
from .pauli import ErrorBall, PauliOp
from .qet import AdmissibleSet, Verdict, first_relabeling, relabel_search
from .stabilizer import StabilizerCode, complete_logical_basis, label_table

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
        if self.k > 3:
            raise ValueError(f"relabeling is limited to k <= 3, got k={self.k}")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.limit < 1:
            raise ValueError(f"limit must be >= 1, got {self.limit}")
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
    if type(index) is not int or index < 0:  # a JSON true/false is a bool, not an index
        raise QTError(f"checkpoint {path}: next_index must be an integer >= 0")
    return index


def write_checkpoint(path: str, spec: SearchSpec, outcome: SearchOutcome) -> None:
    """Replace `path` atomically, so an interrupted write keeps the old file."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({**_index_fields(spec), "next_index": outcome.next_index,
                   "exhausted": outcome.exhausted}, fh)
    os.replace(tmp, path)


def _free_bits(n: int, k: int, r: int) -> int:
    m = n - k
    w = m - r
    return r * w + r * k + w * k + r * w + r * k + r * (r + 1) // 2


def _take(bits: int, nrows: int, width: int) -> list[int]:
    """`nrows` rows of `width` bits from the low end of `bits`, row 0 lowest."""
    mask = (1 << width) - 1
    return [bits >> (i * width) & mask for i in range(nrows)]


def _detects(rows: list[tuple[int, int]], n: int) -> bool:
    """True iff every weight-1 Pauli anticommutes with some (x, z) row."""
    col_x = col_z = col_y = 0
    for x, z in rows:
        col_x |= z
        col_z |= x
        col_y |= x ^ z
    return (col_x & col_z & col_y) == (1 << n) - 1


def _decode(n: int, k: int, r: int, value: int, detect: bool = False):
    """Candidate `value` of the r block as packed (x, z) rows: the generators
    in standard-form row order, then the closed-form logical X and Z rows.

    The free blocks are read from the low bits of `value` in the order A1,
    A2, E, C1, C2 (each row by row, row 0 lowest), then the lower triangle of
    S0 row by row. With `detect`, None as soon as some weight-1 error is seen
    to commute with every generator: Z errors need only A1 and A2, so they
    are tested before any dependent block is built.
    """
    m = n - k
    w = m - r
    a1 = _take(value, r, w)
    value >>= r * w
    a2 = _take(value, r, k)
    value >>= r * k
    xs = [1 << i | a1[i] << r | a2[i] << m for i in range(r)]
    if detect:
        cover = 0
        for x in xs:
            cover |= x
        if cover != (1 << n) - 1:
            return None
    e = _take(value, w, k)
    value >>= w * k
    c1 = _take(value, r, w)
    value >>= r * w
    c2 = _take(value, r, k)
    value >>= r * k
    low = []
    for i in range(r):
        low.append(value & ((2 << i) - 1))
        value >>= i + 1
    s0 = [lo | up for lo, up in zip(low, transpose_rows(low, r))]
    # B = C1 A1^T + C2 A2^T + S0 and D = A1^T + E A2^T, row by row.
    a1t = transpose_rows(a1, w)
    a2t = transpose_rows(a2, k)
    gens = [(x, (fold(a1t, c1[i]) ^ fold(a2t, c2[i]) ^ s0[i]) | c1[i] << r | c2[i] << m)
            for i, x in enumerate(xs)]
    gens += [(0, (a1t[j] ^ fold(a2t, e[j])) | 1 << (r + j) | e[j] << m) for j in range(w)]
    if detect and not _detects(gens, n):
        return None
    et = transpose_rows(e, k)
    ct = transpose_rows([c2[i] ^ fold(e, c1[i]) for i in range(r)], k)  # C = C2 + C1 E
    logical_x = [(et[l] << r | 1 << (m + l), ct[l]) for l in range(k)]
    logical_z = [(0, a2t[l] | 1 << (m + l)) for l in range(k)]
    return gens, logical_x, logical_z


def _ops(n: int, rows: list[tuple[int, int]]) -> list[PauliOp]:
    return [PauliOp(n, x, z) for x, z in rows]


def _draw(n: int, k: int, rng: random.Random) -> tuple[int, int]:
    """(r, value) of one random candidate: r uniform, then the r block's free bits."""
    r = rng.randrange(n - k + 1)
    bits = _free_bits(n, k, r)
    return r, rng.getrandbits(bits) if bits else 0


def sample_generators(n: int, k: int, rng: random.Random) -> list[PauliOp]:
    return _ops(n, _decode(n, k, *_draw(n, k, rng))[0])


def _candidates(spec: SearchSpec, start_index: int):
    """(r, value) of every candidate in scan order: random draws without end,
    or each exhaustive index from `start_index` on."""
    n, k = spec.n, spec.k
    if spec.mode == "random":
        rng = random.Random(spec.seed)
        while True:
            yield _draw(n, k, rng)
    offset = start_index
    for r in range(n - k + 1):
        block = 1 << _free_bits(n, k, r)
        for value in range(offset, block):
            yield r, value
        offset = max(0, offset - block)


def _relabels(n: int, k: int, decoded, pattern: AdmissibleSet, errors: ErrorBall) -> bool:
    """Whether relabel_search finds a hit on the decoded candidate under its
    closed-form basis, decided from the candidate's packed label table with
    no code built."""
    gens, xs, zs = decoded
    labels = label_table(n, [x | z << n for x, z in chain(gens, zs, xs)])
    return first_relabeling(n, k, pattern,
                            chain.from_iterable(errors.labelled(labels, n + k))) is not None


def run_search(spec: SearchSpec, start_index: int = 0, progress=None) -> SearchOutcome:
    """Hunt for codes whose weight-1 errors detect and whose classes admit the
    pattern under some relabeling. Replay-deterministic under a fixed seed;
    `progress(examined, index)` fires every `_PROGRESS_EVERY` candidates."""
    if start_index < 0:
        raise ValueError(f"start_index must be >= 0, got {start_index}")
    n = spec.n
    outcome = SearchOutcome(next_index=start_index)
    errors = ErrorBall(n, spec.error_weight)
    stride = 1 if spec.mode == "exhaustive" else 0  # random draws leave the index put
    candidates = _candidates(spec, start_index)
    while outcome.examined < spec.budget:
        candidate = next(candidates, None)
        if candidate is None:
            outcome.exhausted = True
            break
        outcome.examined += 1
        if progress and outcome.examined % _PROGRESS_EVERY == 0:
            progress(outcome.examined, start_index + stride * outcome.examined)
        decoded = _decode(n, spec.k, *candidate, detect=True)
        if decoded is None:
            continue
        outcome.detection_passed += 1
        if not _relabels(n, spec.k, decoded, spec.pattern, errors):
            continue
        gens, xs, zs = (_ops(n, rows) for rows in decoded)
        # relabel_search tries every image of the pattern under Sp(2k,2), so
        # whether a hit exists does not depend on the logical basis. The hit
        # is replayed under the closed-form basis, then reported under the
        # completed basis, which fixes its logicals.
        if relabel_search(StabilizerCode(gens, xs, zs), spec.pattern, errors) is None:
            continue
        code = StabilizerCode(gens, *complete_logical_basis(gens))
        hit = relabel_search(code, spec.pattern, errors)
        if hit is None:
            raise AssertionError("relabeling passes under the closed-form basis only")
        outcome.found.append(hit)
        if len(outcome.found) >= spec.limit:
            break
    outcome.next_index = start_index + stride * outcome.examined
    return outcome
