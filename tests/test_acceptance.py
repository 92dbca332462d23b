"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run `pytest tests/test_acceptance.py -v -s` for the full report. The
long-running negative search (criterion 11) is marked slow and excluded from
the default run; include it with `-m slow`.
"""
import math
import random
import time
from itertools import combinations

import pytest

from qtransmute.catalog import (css17_code, five_qubit_code, table1_code,
                                table2_code)
from qtransmute.channel import (exact_class_distribution, run_trials,
                                total_variation, uniform_single_error_channel)
from qtransmute.classical import (asymmetric_distances, classical_distance,
                                  css17_classical_pair, css_build)
from qtransmute.f2 import fold
from qtransmute.lattice import (compact_encoding, instantiate_torus,
                                rate_half_cell, rate_two_thirds_cell,
                                symplectic_form, toric_code, validate_unit_cell)
from qtransmute.pauli import (PauliOp, enumerate_paulis, errors_up_to_weight,
                              multiply, parse_pauli, render, weight)
from qtransmute.qet import (AdmissibleSet, build_recovery,
                            check_general_qet, check_group_qet,
                            deff_lower_bound, effective_distance,
                            scan_zero_syndrome, strong_conditions_hold,
                            symplectic_transforms)
from qtransmute.search import SearchSpec, run_search, sample_generators
from qtransmute.stabilizer import (StabilizerCode, code_distance,
                                   complete_logical_basis, logical_class,
                                   min_weight_in_class, standard_form,
                                   validate_code)
from qtransmute.transforms import concatenate

PHASE1 = AdmissibleSet.group_generated(2, ["ZI"])
BOTH_PHASES = AdmissibleSet.from_strings(2, ["ZI", "IZ"])


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, f"runtime {elapsed:.1f}s exceeds {self.seconds}s"
        return elapsed


def announce(num, text, elapsed):
    print(f"ACCEPTANCE {num}: PASS ({elapsed:.2f}s) {text}")


def test_criterion_01_table1_reproduction():
    budget = Budget(1.0)
    code = table1_code()
    assert validate_code(code).ok

    singles = list(enumerate_paulis(7, 1))
    assert len(singles) == 21
    assert all(code.syndrome_bits(p.x, p.z) for p in singles)

    doubles = [p for p in enumerate_paulis(7, 2) if weight(p) == 2]
    assert len(doubles) == 189
    logicals = sorted(render(p) for p in doubles
                      if code.syndrome_bits(p.x, p.z) == 0
                      and not code.contains_stabilizer(p))
    assert logicals == sorted(["ZZIIIII", "IIZZIII", "IIIIZZI", "IIIIZIZ"])

    z1 = logical_class(code, code.logical_z[0])
    assert all(logical_class(code, parse_pauli(s)) == z1 for s in logicals)

    deff = effective_distance(code, PHASE1, 2)
    assert deff.exact and deff.value == 3
    elapsed = budget.check()
    announce(1, "table-1 code: detection, the four phase-pair logicals, d_eff=3", elapsed)


def test_criterion_02_table1_adjoined_distance():
    budget = Budget(1.0)
    code = table1_code()
    adjoined = standard_form(code.generators + [code.logical_z[0]])
    assert adjoined.k == 1
    d = code_distance(adjoined, 7)
    assert d.exact and d.value == 3
    elapsed = budget.check()
    announce(2, "adjoining the phase logical yields a [7,1,3] code", elapsed)


def test_criterion_03_table2_reproduction():
    budget = Budget(1.0)
    code = table2_code()
    assert validate_code(code).ok

    logicals = sorted(render(p) for p in enumerate_paulis(6, 2)
                      if weight(p) == 2 and code.syndrome_bits(p.x, p.z) == 0
                      and not code.contains_stabilizer(p))
    assert logicals == sorted(["ZZIIII", "IIZZII", "IIIIZZ", "IIIIXX", "IIIIYY"])

    z1 = logical_class(code, code.logical_z[0])
    z2 = logical_class(code, code.logical_z[1])
    assert logical_class(code, parse_pauli("ZZIIII")) == z1
    assert logical_class(code, parse_pauli("IIZZII")) == z1
    assert logical_class(code, parse_pauli("IIIIZZ")) == z1
    assert logical_class(code, parse_pauli("IIIIXX")) == z2
    assert logical_class(code, parse_pauli("IIIIYY")) == z1 ^ z2

    errs = errors_up_to_weight(6, 1)
    assert check_general_qet(code, BOTH_PHASES, errs).passed
    assert not strong_conditions_hold(code, BOTH_PHASES, errs)

    deff = effective_distance(code, BOTH_PHASES, 2)
    assert deff.exact and deff.value == 3
    elapsed = budget.check()
    announce(3, "table-2 code: product identities, general/strong split, d_eff=3", elapsed)


def test_criterion_04_seventeen_qubit_css():
    budget = Budget(30.0)
    c2, qr = css17_classical_pair()
    dqr = classical_distance(qr, 17)
    assert dqr.exact and dqr.value == 5
    dc2 = classical_distance(c2, 17)
    assert dc2.exact and dc2.value == 3

    css = css_build(c2, qr)
    assert (css.n, css.k) == (17, 2)
    assert validate_code(css).ok

    dx, dz = asymmetric_distances(css, 6)
    assert (dx.value, dz.value) == (3, 5) and dx.exact and dz.exact

    classes3, classes4 = set(), set()
    for w, bag in ((3, classes3), (4, classes4)):
        for support in combinations(range(17), w):
            x = 0
            for q in support:
                x |= 1 << q
            if css.syndrome_bits(x, 0) == 0 and not css.in_stabilizer_bits(x, 0):
                bag.add(css.class_bits(x, 0))
    assert len(classes3) == 1 and len(classes4) == 1 and classes3 != classes4
    c3, c4 = classes3.pop(), classes4.pop()
    k = css.k
    commuting = ((bin((c3 & 0b11) & (c4 >> k)).count("1")
                  + bin((c3 >> k) & (c4 & 0b11)).count("1")) % 2 == 0)
    assert commuting

    code = css17_code()  # logical basis seeded on those two classes
    adm = AdmissibleSet.from_strings(2, ["XI", "IX"])
    assert len(list(enumerate_paulis(17, 2))) == 1275
    deff = effective_distance(code, adm, 3)
    assert deff.exact and deff.value == 5
    elapsed = budget.check()
    announce(4, "17-qubit CSS: [17,9,5] QR, C2 d=3, [17,2,3/5], unique X-classes, d_eff=5",
             elapsed)


def test_criterion_05_lattice_rate_two_thirds():
    budget = Budget(10.0)
    cell = rate_two_thirds_cell()
    assert validate_unit_cell(cell).ok
    g = cell.columns[0]
    assert symplectic_form(g, g).is_zero()

    torus = instantiate_torus(cell, 4, 4)
    code = torus.code
    assert all(code.syndrome_bits(p.x, p.z) for p in enumerate_paulis(code.n, 1))
    hits = []
    scan_zero_syndrome(code, 2, lambda x, z: hits.append((x, z)))
    translates = {(p.x, p.z) for p in torus.translates(cell.logical_z[0])}
    assert set(hits) == translates and len(hits) == 16

    adm = AdmissibleSet.from_operators(code, torus.translates(cell.logical_z[0]))
    deff = effective_distance(code, adm, 2)
    assert deff.exact and deff.value == 3
    elapsed = budget.check()
    announce(5, "rate-2/3 lattice code: symbolic relations, 16 weight-2 logicals, d_eff=3",
             elapsed)


def test_criterion_06_lattice_rate_half_distance():
    budget = Budget(10.0)
    torus = instantiate_torus(rate_half_cell(), 4, 4)
    d = code_distance(torus.code, 3)
    assert d.exact and d.value == 3
    elapsed = budget.check()
    announce(6, "rate-1/2 lattice code: 4x4 torus distance 3", elapsed)


def test_criterion_07_compact_encoding():
    budget = Budget(10.0)
    enc = compact_encoding(4)
    code = enc.code

    for q in enc.vertex_qubits:
        assert code.syndrome_bits(0, 1 << q) == 0  # dephasing undetected

    seen = {}
    for p in enumerate_paulis(code.n, 1):
        seen.setdefault(code.syndrome_bits(p.x, p.z), []).append(p)
    for syn, errs in seen.items():
        if syn == 0:
            assert all((p.x | p.z).bit_length() - 1 in enc.vertex_qubits
                       and p.x == 0 for p in errs)
        elif len(errs) == 2:
            a, b = errs
            assert (a.x | a.z) == (b.x | b.z)  # the X/Y pair on one qubit
            assert (a.x | a.z).bit_length() - 1 in enc.vertex_qubits
        else:
            assert len(errs) == 1  # unique syndromes across cells

    adm = AdmissibleSet.from_operators(
        code, [PauliOp(code.n, 0, 1 << q) for q in enc.vertex_qubits])
    deff = effective_distance(code, adm, 2)
    assert deff.exact and deff.value == 3
    elapsed = budget.check()
    announce(7, "compact encoding L=4: coset structure and d_eff=3", elapsed)


def test_criterion_08_toric_class_distances():
    budget = Budget(60.0)
    code = toric_code(3)
    z1 = logical_class(code, code.logical_z[0])
    z2 = logical_class(code, code.logical_z[1])
    x1 = logical_class(code, code.logical_x[0])
    x2 = logical_class(code, code.logical_x[1])
    for cls, pure, expected in ((z1, "z", 3), (z2, "z", 3), (z1 ^ z2, "z", 6),
                                (x1, "x", 3), (x2, "x", 3), (x1 ^ x2, "x", 6)):
        result = min_weight_in_class(code, cls, 6, pure=pure)
        assert result.exact and result.value == expected
    elapsed = budget.check()
    announce(8, "toric L=3: per-class minimum weights L, L, 2L in both sectors", elapsed)


@pytest.mark.parametrize("length, pure, seconds", [(5, None, 5.0), (7, "z", 15.0)])
def test_toric_first_cycle_weight_at_scale(length, pure, seconds):
    # The zero-syndrome scan's meet-in-the-middle join keeps these exact
    # class distances (n = 50 with all letters, n = 98 with Z only) in tier 1.
    budget = Budget(seconds)
    code = toric_code(length)
    result = min_weight_in_class(code, logical_class(code, code.logical_z[0]), length, pure=pure)
    assert result.exact and result.value == length
    budget.check()


def test_criterion_09_concatenation_bound():
    budget = Budget(600.0)
    cc = concatenate(table1_code(), five_qubit_code())
    assert (cc.n, cc.k) == (35, 2)
    assert validate_code(cc).ok
    bound = deff_lower_bound(cc, PHASE1, 5)
    assert not bound.exact  # explicitly a bound, not an exact value
    assert bound.value == 6  # nothing outside the lifted set at weight <= 5
    elapsed = budget.check()
    announce(9, "concatenated [35,2]: weight<=5 scan clean, consistent with d_eff >= 9",
             elapsed)


def _random_code(rng, n, k):
    gens = sample_generators(n, k, rng)
    xs, zs = complete_logical_basis(gens)
    return StabilizerCode(gens, xs, zs)


def _random_group(rng, k):
    gens = [rng.randrange(1 << (2 * k)) for _ in range(rng.randrange(1, 3))]
    classes = {0}
    frontier = [0]
    while frontier:
        base = frontier.pop()
        for g in gens:
            nxt = base ^ g
            if nxt not in classes:
                classes.add(nxt)
                frontier.append(nxt)
    return AdmissibleSet(k, frozenset(classes))


def test_criterion_10_property_suites():
    budget = Budget(120.0)
    rng = random.Random(20240817)

    # syndrome / class homomorphism laws
    code = table1_code()
    for _ in range(300):
        a = PauliOp(7, rng.getrandbits(7), rng.getrandbits(7))
        b = PauliOp(7, rng.getrandbits(7), rng.getrandbits(7))
        ab = multiply(a, b)
        assert code.syndrome_bits(ab.x, ab.z) \
            == code.syndrome_bits(a.x, a.z) ^ code.syndrome_bits(b.x, b.z)
        if code.syndrome_bits(a.x, a.z) == 0 and code.syndrome_bits(b.x, b.z) == 0:
            assert code.class_bits(ab.x, ab.z) \
                == code.class_bits(a.x, a.z) ^ code.class_bits(b.x, b.z)

    # group vs general agreement on 200 seeded random codes
    agree = 0
    for _ in range(200):
        n = rng.randrange(3, 7)
        k = rng.randrange(1, 3)
        cand = _random_code(rng, n, k)
        adm = _random_group(rng, k)
        errs = errors_up_to_weight(n, 2)
        assert (check_group_qet(cand, adm, errs).passed
                == check_general_qet(cand, adm, errs).passed)
        agree += 1
    assert agree == 200

    # QEC specialization equals the pairwise textbook condition
    for _ in range(40):
        n = rng.randrange(3, 6)
        k = rng.randrange(1, min(3, n))
        cand = _random_code(rng, n, k)
        errs = errors_up_to_weight(n, 1)
        brute = all(
            code_ok for a, b in combinations(errs, 2)
            for prod in [multiply(a, b)]
            for code_ok in [cand.syndrome_bits(prod.x, prod.z) != 0
                            or cand.contains_stabilizer(prod)])
        assert check_group_qet(cand, AdmissibleSet.trivial(k), errs).passed == brute

    # relabeling invariance on the six-qubit code
    t2 = table2_code()
    transforms = list(symplectic_transforms(2))
    errs6 = errors_up_to_weight(6, 1)
    base = check_general_qet(t2, BOTH_PHASES, errs6).passed
    for _ in range(20):
        cols = transforms[rng.randrange(len(transforms))]
        relabeled = t2.with_logicals(
            [t2.class_representative(cols[i]) for i in range(2)],
            [t2.class_representative(cols[2 + i]) for i in range(2)])
        mapped = AdmissibleSet(2, frozenset(
            w for w in range(16) if fold(cols, w) in BOTH_PHASES.classes))
        assert check_general_qet(relabeled, mapped, errs6).passed == base

    # simulator exact admissibility: 1e5 trials per catalog code, zero violations
    from qtransmute import catalog as cat
    for name in ("table1-7q", "table2-6q", "css17", "eq16-lattice",
                 "eq20-lattice", "compact", "toric", "rep", "inner-5q"):
        cc = cat.resolve(name)
        adm = cc.admissible
        verdict = check_general_qet(cc.code, adm, errors_up_to_weight(cc.code.n, 1))
        assert verdict.passed, name
        table = build_recovery(verdict)
        rep = run_trials(cc.code, table,
                         uniform_single_error_channel(cc.code.n),
                         trials=100_000, seed=1234)
        assert rep.uncovered == 0, name
        assert rep.admissible_rate(adm) == 1.0, name

    # empirical class distribution vs the closed form, total variation < 0.01
    t1 = table1_code()
    verdict = check_general_qet(t1, PHASE1, errors_up_to_weight(7, 1))
    table = build_recovery(verdict)
    model = uniform_single_error_channel(7)
    rep = run_trials(t1, table, model, trials=100_000, seed=99)
    exact, uncovered = exact_class_distribution(t1, table, model)
    assert uncovered == 0.0
    assert total_variation(rep.class_distribution(), exact) < 0.01

    elapsed = budget.check()
    announce(10, "property suites: homomorphisms, 200-code agreement, QEC "
                 "specialization, relabeling invariance, simulator admissibility",
             elapsed)


@pytest.mark.slow
def test_criterion_11_no_small_table2_alternative():
    """Exhaustive standard-form scan: no [n<=5, 2] code detects all single
    errors and transmutes them to {I, Z1, Z2}."""
    budget = Budget(3600.0)
    for n in (3, 4, 5):
        spec = SearchSpec(n=n, k=2, pattern=BOTH_PHASES, error_weight=1,
                          mode="exhaustive", seed=0, budget=10 ** 9, limit=1)
        out = run_search(spec)
        assert out.exhausted
        assert out.found == [], f"unexpected [{n},2] transmuting code"
    elapsed = budget.check()
    announce(11, "no five-or-fewer-qubit code matches the six-qubit predicate", elapsed)
