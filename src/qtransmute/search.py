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

A candidate is decoded by columns, straight into its label table: the label
of X_q or Z_q is the syndrome and logical classes that the q-th column pair
of the check matrix gives. Detection comes first, cheapest check first: Z
errors on qubits r.. from one mask per A1 and A2 column of the candidate's
bits, then X and Y errors on the last k qubits from its E, C2 and A2 column
masks. Only a candidate that passes both reads its blocks, to check X and Y
errors on qubits i < r. The label table of a detecting candidate labels the
error ball and decides relabeling; only a hit is transposed back into
generator rows and built into `PauliOp`s and a `StabilizerCode`.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain

from .errors import QTError
from .f2 import fold, transpose_rows
from .pauli import ErrorBall, PauliOp
from .qet import AdmissibleSet, Verdict, first_relabeling, relabel_search
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
        # compared as JSON text, so a true, 1.0 or "1" is not the integer 1
        if json.dumps(saved.get(name)) != json.dumps(value):
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


def _take(value: int, fields: list[tuple[int, int]]) -> list[int]:
    """The field `value >> shift & mask` of each (shift, mask) in `fields`."""
    return [value >> shift & mask for shift, mask in fields]


class _Layout:
    """Where the r block's free entries sit in a candidate's bits, and the
    column masks that decide detection. The blocks are read from the low bits
    in the order A1, A2, E, C1, C2 (each row by row, row 0 lowest), then the
    lower triangle of S0 row by row; `fields` holds each row's (shift, mask)
    in that order. `columns` holds one mask per A1 and A2 column, `tail` one
    (E, C2, A2) column-mask triple per qubit m + l, and C2 sits `shift` bits
    above A2 in the same r x k shape."""

    __slots__ = ("n", "k", "r", "fields", "columns", "tail", "shift")

    def __init__(self, n: int, k: int, r: int):
        w = n - k - r
        self.n, self.k, self.r = n, k, r
        widths = [w] * r + [k] * r + [k] * w + [w] * r + [k] * r + list(range(1, r + 1))
        self.fields = [(at, (1 << width) - 1)
                       for at, width in zip(accumulate(widths, initial=0), widths)]
        # column 0 of A1, A2, E and C2; column j is that mask shifted up by j
        a1, a2, e, c2 = (sum(1 << at for at, _ in self.fields[start:stop])
                         for start, stop in ((0, r), (r, 2 * r), (2 * r, 2 * r + w),
                                             (3 * r + w, 4 * r + w)))
        self.columns = [a1 << j for j in range(w)] + [a2 << l for l in range(k)]
        self.tail = [(e << l, c2 << l, a2 << l) for l in range(k)]
        self.shift = r * k + w * k + r * w  # past A2, E and C1


@lru_cache(maxsize=16)
def _layouts(n: int, k: int) -> tuple[_Layout, ...]:
    """The `_Layout` of each r = 0..n - k, built once per (n, k) and never
    changed."""
    return tuple(_Layout(n, k, r) for r in range(n - k + 1))


def _labels(layout: _Layout, value: int, detect: bool = False) -> list[int] | None:
    """The label table of candidate `value`, as `stabilizer.label_table` gives
    it for (generators, Z̄, X̄) in the closed-form basis: X_q at q, Z_q at
    n + q, each syndrome | Z̄-class << (n - k) | X̄-class << n.

    With `detect`, None once some weight-1 error is seen to have syndrome 0,
    cheapest check first: Z errors on qubits r.. from the A1 and A2 column
    masks; X and Y errors on qubits m.. from the E, C2 and A2 masks (those on
    qubits r..m-1 are always detected); then X and Y errors on qubits i < r,
    the first check that reads the blocks. X_i's syndrome is
    B^T row i | D^T row i << r, and Y_i's is that plus 1 << i.
    """
    n, k, r = layout.n, layout.k, layout.r
    if detect:
        for col in layout.columns:
            if not value & col:
                return None
        moved = value ^ value >> layout.shift  # C2 + A2 at A2's bits
        for e_col, c2_col, a2_col in layout.tail:
            if not value & e_col and not (value & c2_col and moved & a2_col):
                return None
    m = n - k
    w = m - r
    rows = _take(value, layout.fields)
    a1, a2, e = rows[:r], rows[r:2 * r], rows[2 * r:2 * r + w]
    c1, c2, low = rows[2 * r + w:3 * r + w], rows[3 * r + w:4 * r + w], rows[4 * r + w:]
    et, c1t, c2t = transpose_rows(e, k), transpose_rows(c1, w), transpose_rows(c2, k)
    labels = []
    # B^T = A1 C1^T + A2 C2^T + S0 and D^T = A1 + A2 E^T, row by row; C = C2 + C1 E
    for i, up in enumerate(transpose_rows(low, r)):
        syndrome = (fold(c1t, a1[i]) ^ fold(c2t, a2[i]) ^ (low[i] | up)
                    | (a1[i] ^ fold(et, a2[i])) << r)
        if detect and (syndrome == 0 or syndrome == 1 << i):
            return None
        labels.append(syndrome | a2[i] << m | (c2[i] ^ fold(e, c1[i])) << n)
    a1t, a2t = transpose_rows(a1, w), transpose_rows(a2, k)
    return (labels + [c1t[j] | 1 << (r + j) for j in range(w)]
            + [c2t[l] | et[l] << r | 1 << (m + l) for l in range(k)]
            + [1 << i for i in range(r)]
            + [a1t[j] | e[j] << n for j in range(w)]
            + [a2t[l] | 1 << (n + l) for l in range(k)])


def _rows(n: int, k: int, labels: list[int]):
    """(generators, X̄, Z̄) as packed (x, z) rows, from a label table: its
    transpose is the twisted rows z | x << n, generators then Z̄ then X̄."""
    z_mask = (1 << n) - 1
    rows = [(t >> n, t & z_mask) for t in transpose_rows(labels, n + k)]
    return rows[:n - k], rows[n:], rows[n - k:n]


def _ops(n: int, rows: list[tuple[int, int]]) -> list[PauliOp]:
    return [PauliOp(n, x, z) for x, z in rows]


def _draw(n: int, k: int, rng: random.Random) -> tuple[int, int]:
    """(r, value) of one random candidate: r uniform, then the r block's free bits."""
    r = rng.randrange(n - k + 1)
    bits = _free_bits(n, k, r)
    return r, rng.getrandbits(bits) if bits else 0


def sample_generators(n: int, k: int, rng: random.Random) -> list[PauliOp]:
    r, value = _draw(n, k, rng)
    return _ops(n, _rows(n, k, _labels(_layouts(n, k)[r], value))[0])


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


def _relabels(n: int, k: int, labels: list[int], pattern: AdmissibleSet,
              errors: ErrorBall) -> bool:
    """Whether relabel_search finds a hit on the candidate with label table
    `labels` under its closed-form basis, decided with no code built."""
    rows = [(x, x ^ z, z) for x, z in zip(labels[:n], labels[n:])]
    return first_relabeling(n, k, pattern, chain.from_iterable(errors.walk(rows))) is not None


def run_search(spec: SearchSpec, start_index: int = 0, progress=None) -> SearchOutcome:
    """Hunt for codes whose weight-1 errors detect and whose classes admit the
    pattern under some relabeling. Replay-deterministic under a fixed seed;
    `progress(examined, index)` fires every `_PROGRESS_EVERY` candidates."""
    if start_index < 0:
        raise ValueError(f"start_index must be >= 0, got {start_index}")
    n, k = spec.n, spec.k
    layouts = _layouts(n, k)
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
        r, value = candidate
        labels = _labels(layouts[r], value, detect=True)
        if labels is None:
            continue
        outcome.detection_passed += 1
        if not _relabels(n, k, labels, spec.pattern, errors):
            continue
        gens, xs, zs = (_ops(n, rows) for rows in _rows(n, k, labels))
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
