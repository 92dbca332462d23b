"""Named code constructions with their canonical admissible sets.

Entries are addressed as "name" or "name:params" (e.g. toric:3, compact:4,
rep:5, eq16-lattice:4x4). Every entry states its claims; `catalog selftest`
checks that the code validates and then each claim, so the whole golden suite
is reachable from it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .classical import asymmetric_distances, css17_classical_pair, css_build
from .errors import QTError
from .lattice import (CompactEncoding, TorusCode, compact_encoding, instantiate_torus,
                      rate_half_cell, rate_two_thirds_cell, toric_code)
from .pauli import ErrorBall, PauliOp, enumerate_paulis, parse_pauli
from .qet import (AdmissibleSet, check_general_qet, effective_distance,
                  strong_conditions_hold)
from .stabilizer import (DistanceResult, StabilizerCode, code_distance,
                         complete_logical_basis, min_weight_in_class, scan_zero_syndrome,
                         validate_code)

TABLE1_GENERATORS = ["XXYYZIZ", "IZXYYXY", "IIIIIZZ", "ZZIIZIZ", "ZZZZIII"]
TABLE1_LOGICAL_X = ["IXXIXII", "IIXXIIZ"]
TABLE1_LOGICAL_Z = ["ZZIIIII", "ZIIZIIZ"]

TABLE2_GENERATORS = ["YXZIXX", "ZIXXXX", "ZZZZII", "ZZIIZZ"]
TABLE2_LOGICAL_X = ["IXIXXI", "ZIZIIZ"]
TABLE2_LOGICAL_Z = ["ZZIIII", "IIIIXX"]

FIVE_QUBIT_GENERATORS = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]

Claim = tuple[str, bool, str]  # (check, ok, info shown when it fails)


@dataclass(frozen=True)
class CatalogCode:
    """A built entry: its code and admissible set, and what its claims read
    besides the code: the torus of a lattice entry, the qubit layout of a
    compact encoding, the side length of a toric code."""

    name: str
    code: StabilizerCode
    admissible: AdmissibleSet | None = None
    torus: TorusCode | None = None
    encoding: CompactEncoding | None = None
    length: int | None = None


@dataclass(frozen=True)
class CatalogEntry:
    """A buildable code and the claims its self-test checks beyond "validates"."""

    summary: str
    build: Callable[..., CatalogCode]
    claims: Callable[[CatalogCode], list[Claim]]


def _paulis(strings: list[str]) -> list[PauliOp]:
    return [parse_pauli(s) for s in strings]


def table1_code() -> StabilizerCode:
    return StabilizerCode(_paulis(TABLE1_GENERATORS), _paulis(TABLE1_LOGICAL_X),
                          _paulis(TABLE1_LOGICAL_Z))


def table2_code() -> StabilizerCode:
    return StabilizerCode(_paulis(TABLE2_GENERATORS), _paulis(TABLE2_LOGICAL_X),
                          _paulis(TABLE2_LOGICAL_Z))


def five_qubit_code() -> StabilizerCode:
    return StabilizerCode(_paulis(FIVE_QUBIT_GENERATORS),
                          [parse_pauli("XXXXX")], [parse_pauli("ZZZZZ")])


def repetition_code(n: int) -> StabilizerCode:
    gens = []
    for i in range(n - 1):
        z = (1 << i) | (1 << (i + 1))
        gens.append(PauliOp(n, 0, z))
    return StabilizerCode(gens, [PauliOp(n, (1 << n) - 1, 0)], [PauliOp(n, 0, 1)])


def css17_code() -> StabilizerCode:
    """The [17,2] code, with the logical basis seeded so that logical X1 and
    X2 realize the weight-3 and weight-4 pure-X classes."""
    ca, cb = css17_classical_pair()
    base = css_build(ca, cb)

    def first_x_logical(wt: int) -> PauliOp:
        found: list[PauliOp] = []

        def visit(x: int, z: int) -> bool:
            if not base.in_stabilizer_bits(x, z):
                found.append(PauliOp(17, x, z))
            return bool(found)

        if not scan_zero_syndrome(base, wt, visit, pure="x"):
            raise QTError(f"no weight-{wt} pure-X logical found")
        return found[0]

    seeds = [first_x_logical(3), first_x_logical(4)]
    xs, zs = complete_logical_basis(base.generators, seed_x=seeds)
    return base.with_logicals(xs, zs)


def _exact(check: str, d: DistanceResult, want: int) -> Claim:
    return check, d.value == want and d.exact, str(d)


def _effective_distance(cc: CatalogCode, cap: int, want: int,
                        check: str | None = None) -> Claim:
    d = effective_distance(cc.code, cc.admissible, cap)
    return _exact(check or f"effective distance {want}", d, want)


def _distance(cc: CatalogCode, cap: int, want: int) -> Claim:
    return _exact(f"distance {want}", code_distance(cc.code, cap), want)


def _build_table1(*_args) -> CatalogCode:
    return CatalogCode("table1-7q", table1_code(), AdmissibleSet.group_generated(2, ["ZI"]))


def _claims_table1(cc: CatalogCode) -> list[Claim]:
    code = cc.code
    return [("weight-1 errors all detected",
             all(code.syndrome_bits(p.x, p.z) for p in enumerate_paulis(7, 1)), ""),
            _effective_distance(cc, 2, 3)]


def _build_table2(*_args) -> CatalogCode:
    return CatalogCode("table2-6q", table2_code(), AdmissibleSet.from_strings(2, ["ZI", "IZ"]))


def _claims_table2(cc: CatalogCode) -> list[Claim]:
    errs = ErrorBall(6, 1)
    return [("general conditions pass at weight 1",
             check_general_qet(cc.code, cc.admissible, errs).passed, ""),
            ("strong conditions fail (non-group separation)",
             not strong_conditions_hold(cc.code, cc.admissible, errs), ""),
            _effective_distance(cc, 2, 3)]


def _build_css17(*_args) -> CatalogCode:
    return CatalogCode("css17", css17_code(), AdmissibleSet.from_strings(2, ["XI", "IX"]))


def _claims_css17(cc: CatalogCode) -> list[Claim]:
    dx, dz = asymmetric_distances(cc.code, 6)
    return [("[17,2] parameters", (cc.code.n, cc.code.k) == (17, 2), ""),
            ("asymmetric distances 3/5",
             (dx.value, dz.value) == (3, 5) and dx.exact and dz.exact, f"{dx}/{dz}"),
            _effective_distance(cc, 3, 5)]


def _build_eq16(arg: str | None = None) -> CatalogCode:
    lx, ly = _parse_dims("eq16-lattice", arg, default=(4, 4))
    cell = rate_two_thirds_cell()
    torus = instantiate_torus(cell, lx, ly)
    adm = AdmissibleSet.from_operators(torus.code, torus.translates(cell.logical_z[0]))
    return CatalogCode(f"eq16-lattice:{lx}x{ly}", torus.code, adm, torus=torus)


def _claims_eq16(cc: CatalogCode) -> list[Claim]:
    torus, k = cc.torus, cc.code.k
    return [("two logical qubits per cell", k == 2 * torus.lx * torus.ly, f"k={k}"),
            _effective_distance(cc, 2, 3)]


def _build_eq20(arg: str | None = None) -> CatalogCode:
    lx, ly = _parse_dims("eq20-lattice", arg, default=(4, 4))
    torus = instantiate_torus(rate_half_cell(), lx, ly)
    return CatalogCode(f"eq20-lattice:{lx}x{ly}", torus.code, AdmissibleSet.trivial(torus.code.k))


def _claims_eq20(cc: CatalogCode) -> list[Claim]:
    return [_distance(cc, 3, 3)]


def _build_compact(arg: str | None = None) -> CatalogCode:
    length = _int_param("compact", arg) if arg else 4
    enc = compact_encoding(length)
    adm = AdmissibleSet.from_operators(
        enc.code, [PauliOp(enc.code.n, 0, 1 << q) for q in enc.vertex_qubits])
    return CatalogCode(f"compact:{length}", enc.code, adm, encoding=enc)


def _claims_compact(cc: CatalogCode) -> list[Claim]:
    vertices = cc.encoding.vertex_qubits
    return [("vertex dephasing undetected",
             all(cc.code.syndrome_bits(0, 1 << q) == 0 for q in vertices), ""),
            _effective_distance(cc, 2, 3)]


def _build_toric(arg: str | None = None) -> CatalogCode:
    length = _int_param("toric", arg) if arg else 3
    return CatalogCode(f"toric:{length}", toric_code(length), AdmissibleSet.trivial(2),
                       length=length)


def _claims_toric(cc: CatalogCode) -> list[Claim]:
    code, length = cc.code, cc.length
    z1 = code.class_bits(code.logical_z[0].x, code.logical_z[0].z)
    return [("k = 2", code.k == 2, ""),
            _exact("pure-Z weight of first cycle = L",
                   min_weight_in_class(code, z1, length, pure="z"), length)]


def _build_rep(arg: str | None = None) -> CatalogCode:
    n = _int_param("rep", arg) if arg else 3
    if n < 2:
        raise QTError("repetition code needs n >= 2")
    return CatalogCode(f"rep:{n}", repetition_code(n),
                       AdmissibleSet.group_generated(1, ["Z"]))


def _claims_rep(cc: CatalogCode) -> list[Claim]:
    n = cc.code.n
    return [_effective_distance(cc, (n + 1) // 2, n, "effective distance n")] if n % 2 else []


def _build_inner5(*_args) -> CatalogCode:
    return CatalogCode("inner-5q", five_qubit_code(), AdmissibleSet.trivial(1))


def _claims_inner5(cc: CatalogCode) -> list[Claim]:
    return [_distance(cc, 5, 3),
            ("corrects single errors",
             check_general_qet(cc.code, cc.admissible, ErrorBall(5, 1)).passed, "")]


def _int_param(entry: str, arg: str) -> int:
    try:
        return int(arg)
    except ValueError:
        raise QTError(f"catalog entry {entry!r} needs an integer parameter, "
                      f"got {arg!r}") from None


def _parse_dims(entry: str, arg: str | None,
                default: tuple[int, int]) -> tuple[int, int]:
    """Torus size from 'L', 'AxB' or 'A,B'."""
    if not arg:
        return default
    try:
        dims = [int(v) for v in arg.split("x" if "x" in arg else ",")]
    except ValueError:
        dims = []
    if len(dims) not in (1, 2):
        raise QTError(f"catalog entry {entry!r} needs a size L or AxB (integers), got {arg!r}")
    return dims[0], dims[-1]


ENTRIES: dict[str, CatalogEntry] = {
    "table1-7q": CatalogEntry(
        "[7,2] code transmuting single-qubit errors to the phase group on one logical qubit",
        _build_table1, _claims_table1),
    "table2-6q": CatalogEntry(
        "[6,2] code with the non-group admissible set {I, Z1, Z2}",
        _build_table2, _claims_table2),
    "css17": CatalogEntry(
        "[17,2,3/5] CSS code from the [17,9,5] QR code; weight-2 errors become single phase flips",
        _build_css17, _claims_css17),
    "eq16-lattice": CatalogEntry(
        "rate-2/3 translation-invariant code (params LxL, default 4x4)",
        _build_eq16, _claims_eq16),
    "eq20-lattice": CatalogEntry(
        "rate-1/2 single-error-correcting translation-invariant code (default 4x4)",
        _build_eq20, _claims_eq20),
    "compact": CatalogEntry(
        "compact fermionic encoding on an LxL torus (param L, default 4)",
        _build_compact, _claims_compact),
    "toric": CatalogEntry(
        "toric code on an LxL torus (param L, default 3)",
        _build_toric, _claims_toric),
    "rep": CatalogEntry(
        "n-qubit repetition code with the phase-error admissible group (param n, default 3)",
        _build_rep, _claims_rep),
    "inner-5q": CatalogEntry(
        "the perfect [5,1,3] code (concatenation inner code)",
        _build_inner5, _claims_inner5),
}


def names() -> list[str]:
    return list(ENTRIES)


def resolve(spec: str) -> CatalogCode:
    """Build a catalog code from 'name' or 'name:params'."""
    name, colon, arg = spec.partition(":")
    if name not in ENTRIES:
        raise QTError(f"unknown catalog entry {name!r}; available: {', '.join(ENTRIES)}")
    if colon and not arg:
        raise QTError(f"catalog entry {name!r} has an empty parameter after ':'; "
                      f"use {name!r} for the default")
    return ENTRIES[name].build(arg or None)


def selftest(spec: str) -> list[Claim]:
    """(check, ok, info) for "validates" and then each of the entry's claims."""
    cc = resolve(spec)
    claims = [("validates", validate_code(cc.code).ok, "")]
    claims += ENTRIES[spec.partition(":")[0]].claims(cc)
    return [(check, bool(ok), info) for check, ok, info in claims]
