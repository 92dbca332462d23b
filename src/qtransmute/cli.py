"""Command-line surface.

Exit codes: 0 success/pass, 1 verification failure, 2 usage or parse error,
3 a cap-limited result where exactness was requested.
"""
from __future__ import annotations

import argparse
import os
import re
import sys
from functools import cache

from . import catalog, report
from .catalog import CatalogCode
from .channel import (DepolarizingChannel, ExplicitChannel,
                      uniform_single_error_channel, run_trials)
from .classical import (LinearCode, Poly2, asymmetric_distances,
                        classical_distance, css_build, cyclic_code)
from .errors import QTError, ParseError, content_lines
from .lattice import (instantiate_torus, loads_cell, rate_half_cell,
                      rate_two_thirds_cell, validate_unit_cell)
from .pauli import ErrorBall, parse_pauli, render
from .qet import (AdmissibleSet, build_recovery, check_general_qet,
                  deff_lower_bound, dumps_admissible, effective_distance,
                  loads_admissible, relabel_search)
from .search import SearchSpec, read_checkpoint, run_search, write_checkpoint
from .stabilizer import (class_bits_from_string, dumps as dump_code,
                         load_file as load_code_file, min_weight_in_class, validate_code)
from .transforms import concatenate

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPPED = 3


def nonnegative_int(text: str) -> int:
    """argparse type of --cap/--scan-cap/--max-weight/--error-weight: a weight cap, at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"a cap must be >= 0, got {value}")
    return value


def positive_int(text: str) -> int:
    """argparse type of --trials/--threads/--budget/--limit: a count, at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"a count must be >= 1, got {value}")
    return value


def _within_qubits(flag: str, weight: int, n: int) -> int:
    """An error weight from `flag`, refused (exit 2) above the qubit count n."""
    if weight > n:
        raise QTError(f"{flag} {weight} exceeds the qubit count n = {n}")
    return weight


def _torus_size(text: str) -> tuple[int, int]:
    """argparse type of --L: the torus size as A,B."""
    try:
        lx, ly = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A,B (two integers), got {text!r}") from None
    return lx, ly


def _load_catalog_code(spec: str) -> CatalogCode:
    if os.path.exists(spec):
        return CatalogCode(spec, load_code_file(spec))
    return catalog.resolve(spec)


def _load_admissible(spec: str, cc: CatalogCode) -> AdmissibleSet:
    if spec == "catalog":
        if cc.admissible is None:
            raise QTError(f"{cc.name} has no canonical admissible set")
        return cc.admissible
    return _read_admissible(spec, cc.code.k)


def _read_admissible(spec: str, k: int) -> AdmissibleSet:
    """An admissible set over k logical qubits from a file or inline 'ZI,IZ'."""
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return loads_admissible(fh.read(), k)
    return AdmissibleSet.from_strings(k, [s for s in spec.split(",") if s])


_NAMED_CLASS = re.compile(r"^([XZ]\d+)+$")


def _parse_class(spec: str, code) -> int:
    """Either a product of named basis operators (Z1Z2, X1) or a logical
    Pauli string over the k logical qubits."""
    if _NAMED_CLASS.match(spec):
        bits = 0
        for letter, idx in re.findall(r"([XZ])(\d+)", spec):
            i = int(idx) - 1
            if not 0 <= i < code.k:
                raise QTError(f"logical qubit {idx} out of range (k={code.k})")
            bits ^= (1 << i) if letter == "X" else (1 << (code.k + i))
        return bits
    return class_bits_from_string(spec, code.k)


def _load_classical(spec: str) -> LinearCode:
    if spec.startswith("cyclic:"):
        parts = spec.split(":", 2)
        if len(parts) != 3:
            raise QTError("cyclic code spec is cyclic:<n>:<poly>")
        try:
            n = int(parts[1])
        except ValueError:
            raise QTError(f"cyclic code spec cyclic:<n>:<poly> needs an integer n, "
                          f"got {parts[1]!r}") from None
        return cyclic_code(n, Poly2.parse(parts[2]))
    with open(spec, "r", encoding="utf-8") as fh:
        rows = []
        n = None
        for lineno, s in content_lines(fh):
            if not set(s) <= {"0", "1"}:
                raise ParseError("generator rows must be 0/1 strings", line=lineno)
            if n is None:
                n = len(s)
            elif len(s) != n:
                raise ParseError(f"row length {len(s)} != {n}", line=lineno)
            rows.append(int(s[::-1], 2))
    if n is None:
        raise QTError(f"{spec}: no generator rows")
    return LinearCode.from_generator_rows(n, rows)


def _load_cell(spec: str):
    if spec == "eq16":
        return rate_two_thirds_cell()
    if spec == "eq20":
        return rate_half_cell()
    with open(spec, "r", encoding="utf-8") as fh:
        return loads_cell(fh.read())


def _write_report(path: str | None, fields: dict) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.emit(fields))


def _emit_code(code, out: str | None) -> None:
    text = dump_code(code)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _cmd_catalog(args) -> int:
    names = args.names
    extra = {"list": names, "emit": names[1:]}.get(args.action, [])
    if extra:
        wanted = "one entry name" if args.action == "emit" else "no entry names"
        print(f"error: catalog {args.action} takes {wanted}; extra: {' '.join(extra)}",
              file=sys.stderr)
        return EXIT_USAGE
    if args.action == "list":
        for name in catalog.names():
            print(f"{name:14s} {catalog.ENTRIES[name].summary}")
        return EXIT_PASS
    if args.action == "emit":
        if not names:
            print("error: catalog emit needs an entry name", file=sys.stderr)
            return EXIT_USAGE
        cc = catalog.resolve(names[0])
        _emit_code(cc.code, args.out)
        if args.admissible_out and cc.admissible is not None:
            with open(args.admissible_out, "w", encoding="utf-8") as fh:
                fh.write(dumps_admissible(cc.admissible))
            print(f"wrote {args.admissible_out}")
        return EXIT_PASS
    # selftest
    failures = 0
    for name in names or catalog.names():
        for check, ok, info in catalog.selftest(name):
            mark = "ok" if ok else "FAIL"
            print(f"{name}: {check}: {mark}" + (f" ({info})" if info and not ok else ""))
            failures += 0 if ok else 1
    return EXIT_PASS if failures == 0 else EXIT_FAIL


def _cmd_verify(args) -> int:
    cc = _load_catalog_code(args.code)
    code = cc.code
    if args.kind == "qec":
        adm = AdmissibleSet.trivial(code.k)
    else:
        adm = _load_admissible(args.admissible, cc)
    errors = ErrorBall(code.n, _within_qubits("--max-weight", args.max_weight, code.n))
    if args.relabel:
        hit = relabel_search(code, adm, errors)
        if hit is None:
            print(f"verdict: FAIL (no relabeling of {len(errors)} errors works)")
            _write_report(args.report, {"verdict": "fail", "relabel": "exhausted"})
            return EXIT_FAIL
        code, verdict = hit
        print("verdict: PASS (after relabeling)")
        for i, (x, z) in enumerate(zip(code.logical_x, code.logical_z), start=1):
            print(f"  X{i} = {render(x)}   Z{i} = {render(z)}")
    else:
        verdict = check_general_qet(code, adm, errors)
    fields = {"verdict": "pass" if verdict.passed else "fail",
              "max_weight": args.max_weight, "errors": len(verdict.checked)}
    if verdict.passed:
        print(f"verdict: PASS ({len(verdict.checked)} errors, "
              f"{len(verdict.pi_maps)} occupied syndromes)")
        fields.update(occupied=len(verdict.pi_maps), visited=verdict.pi_maps.visited)
    else:
        a, b = verdict.witness
        print(f"verdict: FAIL witness pair ({render(a)}, {render(b)})")
        fields["witness_a"] = render(a)
        fields["witness_b"] = render(b)
    _write_report(args.report, fields)
    return EXIT_PASS if verdict.passed else EXIT_FAIL


def _distance_exit(result, require_exact: bool) -> int:
    if result.exact:
        return EXIT_PASS
    return EXIT_CAPPED if require_exact else EXIT_PASS


def _cmd_distance(args) -> int:
    code = _load_catalog_code(args.code).code
    target = None if args.cls is None else _parse_class(args.cls, code)
    result = min_weight_in_class(code, target, args.cap, pure=args.pure)
    label = "distance" if args.cls is None else f"min weight in class {args.cls}"
    print(f"{label} = {result}")
    _write_report(args.report, {"d": result.value, "exact": result.exact, "cap": result.cap})
    return _distance_exit(result, args.require_exact)


def _cmd_deff(args) -> int:
    cc = _load_catalog_code(args.code)
    adm = _load_admissible(args.admissible, cc)
    result = effective_distance(cc.code, adm, args.cap)
    bound = deff_lower_bound(cc.code, adm, args.cap)
    if result.exact:
        print(f"d_eff = {result.value}")
    else:
        print(f"d_eff >= {result.value} (cap {result.cap} binding)")
    print(f"excluded-weight lower bound: {bound}")
    _write_report(args.report, {"d_eff": result.value, "exact": result.exact,
                                "cap": result.cap, "excluded_min": bound.value})
    return _distance_exit(result, args.require_exact)


def _cmd_css(args) -> int:
    c1 = _load_classical(args.c1)
    c2 = _load_classical(args.c2)
    code = css_build(c1, c2)
    diag = validate_code(code)
    dx, dz = asymmetric_distances(code, args.cap)
    print(f"[{code.n},{code.k}] CSS code; validate: {'ok' if diag.ok else diag.problems}")
    print(f"asymmetric distances: X {dx}, Z {dz}")
    _emit_code(code, args.out)
    return EXIT_PASS


def _cmd_classical(args) -> int:
    code = _load_classical(args.code)
    result = classical_distance(code, args.cap)
    print(f"[{code.n},{code.k}] distance = {result}")
    _write_report(args.report, {"d": result.value, "exact": result.exact, "cap": result.cap})
    return _distance_exit(result, args.require_exact)


def _cmd_lattice(args) -> int:
    cell = _load_cell(args.cell)
    if args.action == "check":
        diag = validate_unit_cell(cell)
        if diag.ok:
            print(f"unit cell ok: n={cell.n} s={cell.s}, "
                  f"{len(cell.logical_z)} logical pairs")
            return EXIT_PASS
        for p in diag.problems:
            print(f"problem: {p}")
        return EXIT_FAIL
    lx, ly = args.size
    torus = instantiate_torus(cell, lx, ly)
    print(f"{lx}x{ly} torus: n={torus.code.n} k={torus.code.k} "
          f"(dropped {torus.dropped_rows} dependent rows)")
    _emit_code(torus.code, args.out)
    return EXIT_PASS


def _cmd_concat(args) -> int:
    outer = _load_catalog_code(args.outer)
    inner = _load_catalog_code(args.inner)
    code = concatenate(outer.code, inner.code)
    print(f"concatenated code: [{code.n},{code.k}]")
    if args.scan_cap is not None:
        adm = _load_admissible(args.admissible, outer) if args.admissible else outer.admissible
        if adm is None:
            raise QTError("concat scan needs an admissible set (--admissible)")
        bound = deff_lower_bound(code, adm, args.scan_cap)
        kind = "exact" if bound.exact else "bound"
        print(f"min excluded weight: {bound} [{kind}]")
    _emit_code(code, args.out)
    return EXIT_PASS


def _cmd_search(args) -> int:
    if args.checkpoint and args.mode == "random":
        raise QTError("checkpoints resume exhaustive scans only: "
                      "drop --checkpoint or use --mode exhaustive")
    spec = SearchSpec(n=args.n, k=args.k, pattern=_read_admissible(args.pattern, args.k),
                      error_weight=_within_qubits("--error-weight", args.error_weight, args.n),
                      mode=args.mode,
                      seed=args.seed, budget=args.budget, limit=args.limit)
    start = 0
    if args.checkpoint and os.path.exists(args.checkpoint):
        start = read_checkpoint(args.checkpoint, spec)
        print(f"resuming exhaustive scan at index {start}")

    def progress(examined, index):
        print(f"... {examined} candidates examined (at index {index})", flush=True)

    out = run_search(spec, start_index=start, progress=progress)
    print(f"examined {out.examined} candidates (seed {args.seed}); "
          f"{out.detection_passed} detected all single errors; "
          f"{len(out.found)} passed")
    if args.checkpoint:
        write_checkpoint(args.checkpoint, spec, out)
    for code, verdict in out.found:
        sys.stdout.write(dump_code(code))
    if args.mode == "exhaustive" and out.exhausted:
        print("parameter space exhausted")
    return EXIT_PASS if out.found or args.expect_empty else EXIT_FAIL


def _cmd_simulate(args) -> int:
    cc = _load_catalog_code(args.code)
    code = cc.code
    adm = _load_admissible(args.admissible, cc)
    if args.model == "uniform1":
        model = uniform_single_error_channel(code.n)
    elif args.model.startswith("depol:"):
        rate = args.model.split(":", 1)[1]
        try:
            p = float(rate)
        except ValueError:
            raise QTError(f"model depol:<p> needs a number p, got {rate!r}") from None
        model = DepolarizingChannel(code.n, p)
    else:
        with open(args.model, "r", encoding="utf-8") as fh:
            pairs = []
            for lineno, s in content_lines(fh):
                parts = s.split()
                if len(parts) != 2:
                    raise ParseError("channel lines are '<pauli> <probability>'",
                                     line=lineno)
                try:
                    p = float(parts[1])
                except ValueError:
                    p = None
                if p is None or not p >= 0:
                    raise ParseError(f"probability must be a number >= 0, got {parts[1]!r}",
                                     line=lineno)
                if p > 1:
                    raise ParseError(f"probability must be at most 1, got {parts[1]!r}",
                                     line=lineno)
                err = parse_pauli(parts[0], line=lineno)
                if err.n != code.n:
                    raise ParseError(f"channel error has {err.n} letters, expected {code.n}",
                                     line=lineno)
                pairs.append((err, p))
        model = ExplicitChannel(code.n, tuple(pairs))
    errors = ErrorBall(code.n, _within_qubits("--max-weight", args.max_weight, code.n))
    verdict = check_general_qet(code, adm, errors)
    if not verdict.passed:
        a, b = verdict.witness
        print(f"cannot simulate: verification failed on ({render(a)}, {render(b)})")
        return EXIT_FAIL
    table = build_recovery(verdict)
    rep = run_trials(code, table, model, args.trials, args.seed)
    print(rep.render(code.k))
    rate = rep.admissible_rate(adm)
    print(f"admissible rate = {rate}")
    fields = {"verdict": "pass", "trials": rep.trials, "seed": rep.seed,
              "uncovered": rep.uncovered, "admissible_rate": rate}
    _write_report(args.report, fields)
    return EXIT_PASS


@cache  # one parser per process: each parse fills a new namespace
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qtransmute",
        description="stabilizer codes and exact error-transmutation verification")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list, emit, or self-test the built-in codes")
    p.add_argument("action", choices=["list", "emit", "selftest"])
    p.add_argument("names", nargs="*", help="entry names: one for emit, any for selftest")
    p.add_argument("--out", help="write the code file here instead of stdout")
    p.add_argument("--admissible-out", help="also write the canonical admissible set")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("verify", help="check error-correction/transmutation conditions")
    p.add_argument("kind", choices=["qec", "qet"])
    p.add_argument("--code", required=True)
    p.add_argument("--admissible", default="catalog",
                   help="file, inline 'ZI,IZ', or 'catalog' (default)")
    p.add_argument("--max-weight", type=nonnegative_int, default=1)
    p.add_argument("--relabel", action="store_true",
                   help="search logical relabelings (k <= 3): each distinct image of the "
                        "pattern under the symplectic group is tried once")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("distance", help="minimum-weight logical searches")
    p.add_argument("--code", required=True)
    p.add_argument("--class", dest="cls", help="target class (Z1Z2 or logical string)")
    p.add_argument("--pure", choices=["x", "z"])
    p.add_argument("--cap", type=nonnegative_int, required=True)
    p.add_argument("--require-exact", action="store_true")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("deff", help="effective distance for an admissible set")
    p.add_argument("--code", required=True)
    p.add_argument("--admissible", required=True)
    p.add_argument("--cap", type=nonnegative_int, required=True)
    p.add_argument("--require-exact", action="store_true")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_deff)

    p = sub.add_parser("css", help="CSS construction from classical codes")
    p.add_argument("action", choices=["build"])
    p.add_argument("--c1", required=True, help="cyclic:<n>:<poly> or generator file")
    p.add_argument("--c2", required=True)
    p.add_argument("--cap", type=nonnegative_int, default=6, help="asymmetric distance cap")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_css)

    p = sub.add_parser("classical", help="classical code utilities")
    p.add_argument("action", choices=["distance"])
    p.add_argument("--code", required=True)
    p.add_argument("--cap", type=nonnegative_int, default=0,
                   help="largest codeword weight scanned when k > 25 (k <= 25 is exhaustive)")
    p.add_argument("--require-exact", action="store_true")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_classical)

    p = sub.add_parser("lattice", help="unit-cell validation and torus instantiation")
    p.add_argument("action", choices=["check", "torus"])
    p.add_argument("--cell", required=True, help="cell file, or builtin eq16/eq20")
    p.add_argument("--L", dest="size", type=_torus_size, default="4,4",
                   help="torus size A,B")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("concat", help="concatenate an outer code with an [n,1] inner code")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", required=True)
    p.add_argument("--admissible", help="admissible set for the excluded-weight scan")
    p.add_argument("--scan-cap", type=nonnegative_int,
                   help="scan for the least excluded weight up to this weight (no scan if absent)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_concat)

    p = sub.add_parser("search", help="search standard-form codes for transmutation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--pattern", required=True, help="admissible pattern (inline or file)")
    p.add_argument("--mode", choices=["random", "exhaustive"], default="random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=positive_int, default=10000)
    p.add_argument("--limit", type=positive_int, default=1)
    p.add_argument("--error-weight", type=nonnegative_int, default=1)
    p.add_argument("--checkpoint", help="resume/progress file for exhaustive scans")
    p.add_argument("--expect-empty", action="store_true",
                   help="exit 0 even when nothing is found")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("simulate", help="Monte Carlo recovery validation")
    p.add_argument("--code", required=True)
    p.add_argument("--admissible", default="catalog")
    p.add_argument("--model", required=True,
                   help="uniform1, depol:<p>, or a channel file")
    p.add_argument("--trials", type=positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-weight", type=nonnegative_int, default=1,
                   help="verified error-support weight")
    p.add_argument("--threads", type=positive_int, default=1,
                   help="accepted for older scripts; has no effect")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_simulate)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QTError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
