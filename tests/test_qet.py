import random
from itertools import combinations

import pytest

from qtransmute.errors import CodeConstructionError
from qtransmute.pauli import (PauliOp, enumerate_paulis, errors_up_to_weight,
                              identity, multiply, parse_pauli, render)
from qtransmute.qet import (AdmissibleSet, apply_transform, build_recovery,
                            check_general_qet, check_group_qet,
                            deff_lower_bound, effective_distance,
                            relabel_search, strong_conditions_hold,
                            symplectic_transforms)
from qtransmute.search import sample_generators
from qtransmute.stabilizer import (StabilizerCode, code_distance,
                                   complete_logical_basis, logical_class,
                                   standard_form, validate_code)

PHASE1 = AdmissibleSet.group_generated(2, ["ZI"])
BOTH_PHASES = AdmissibleSet.from_strings(2, ["ZI", "IZ"])


def random_code(rng, n, k):
    gens = sample_generators(n, k, rng)
    xs, zs = complete_logical_basis(gens)
    return StabilizerCode(gens, xs, zs)


def random_admissible(rng, k, group):
    classes = {0}
    if group:
        gens = [rng.randrange(1 << (2 * k)) for _ in range(rng.randrange(1, 3))]
        frontier = [0]
        while frontier:
            base = frontier.pop()
            for g in gens:
                nxt = base ^ g
                if nxt not in classes:
                    classes.add(nxt)
                    frontier.append(nxt)
    else:
        for _ in range(rng.randrange(1, 4)):
            classes.add(rng.randrange(1 << (2 * k)))
    return AdmissibleSet(k, frozenset(classes))


def brute_force_qec_ok(code, errors):
    """Textbook stabilizer condition, checked pair by pair: every product of
    two errors either anticommutes with some generator or lies in S."""
    ok = True
    for a, b in combinations(errors, 2):
        prod = multiply(a, b)
        detected = code.syndrome_bits(prod.x, prod.z) != 0
        if not detected and not code.contains_stabilizer(prod):
            ok = False
    return ok


def brute_force_group_witness(code, adm, errors):
    """Group-case condition, pair by pair: the first error whose product with
    an earlier same-syndrome error has an inadmissible class, paired with the
    first error of its syndrome; None when every pair is admissible."""
    for j, b in enumerate(errors):
        same = [a for a in errors[:j]
                if code.syndrome_bits(a.x, a.z) == code.syndrome_bits(b.x, b.z)]
        if any(code.class_bits(a.x ^ b.x, a.z ^ b.z) not in adm.classes for a in same):
            return same[0], b
    return None


# -- admissible sets --------------------------------------------------------------


def test_admissible_group_flag():
    assert PHASE1.is_group
    assert not BOTH_PHASES.is_group
    assert AdmissibleSet.full(2).is_group


def test_admissible_requires_identity():
    with pytest.raises(ValueError):
        AdmissibleSet(1, frozenset([1]))


def test_admissible_from_operators(table1):
    adm = AdmissibleSet.from_operators(table1, [table1.logical_z[0]])
    assert adm.classes == PHASE1.classes
    with pytest.raises(ValueError):
        AdmissibleSet.from_operators(table1, [parse_pauli("XIIIIII")])


def test_admissible_strings_round_trip():
    strings = BOTH_PHASES.strings()
    assert AdmissibleSet.from_strings(2, strings).classes == BOTH_PHASES.classes


def test_admissible_file_format_round_trip():
    from qtransmute.qet import dumps_admissible, loads_admissible
    text = dumps_admissible(BOTH_PHASES)
    assert loads_admissible(text, 2).classes == BOTH_PHASES.classes
    assert loads_admissible("# identity implied\n", 2).classes == frozenset([0])


# -- the paper's worked examples ---------------------------------------------------


def test_table1_transmutes_single_errors(table1):
    errs = errors_up_to_weight(7, 1)
    assert check_group_qet(table1, PHASE1, errs).passed
    assert check_general_qet(table1, PHASE1, errs).passed


def test_table1_fails_plain_qec(table1):
    verdict = check_group_qet(table1, AdmissibleSet.trivial(2), errors_up_to_weight(7, 1))
    assert not verdict.passed
    a, b = verdict.witness
    assert {render(a), render(b)} == {"ZIIIIII", "IZIIIII"}
    # the witness is recheckable: same syndrome, product class inadmissible
    assert (table1.syndrome_bits(a.x, a.z) == table1.syndrome_bits(b.x, b.z))
    assert not logical_class(table1, multiply(a, b)).is_trivial()


def test_identity_only_error_set_passes(table1):
    assert check_group_qet(table1, AdmissibleSet.trivial(2), [identity(7)]).passed


def test_group_checker_rejects_non_group(table1):
    with pytest.raises(ValueError):
        check_group_qet(table1, BOTH_PHASES, errors_up_to_weight(7, 1))


def test_table2_general_vs_strong(table2):
    errs = errors_up_to_weight(6, 1)
    verdict = check_general_qet(table2, BOTH_PHASES, errs)
    assert verdict.passed
    assert not strong_conditions_hold(table2, BOTH_PHASES, errs)
    # dropping one phase class breaks it
    assert not check_general_qet(table2, AdmissibleSet.from_strings(2, ["IZ"]), errs).passed


def test_strong_trivially_true_for_full_group(table1):
    errs = errors_up_to_weight(7, 2)
    assert strong_conditions_hold(table1, AdmissibleSet.full(2), errs)


def test_table2_pi_map_realizes_products(table2):
    errs = errors_up_to_weight(6, 1)
    verdict = check_general_qet(table2, BOTH_PHASES, errs)
    y5 = parse_pauli("IIIIYI")
    y6 = parse_pauli("IIIIIY")
    syn = table2.syndrome_bits(y5.x, y5.z)
    assert syn == table2.syndrome_bits(y6.x, y6.z)
    bucket = verdict.pi_maps[syn]
    z1 = logical_class(table2, table2.logical_z[0]).bits
    z2 = logical_class(table2, table2.logical_z[1]).bits
    for option in bucket.options:
        img5 = verdict.pi_assignment(table2, syn, option, y5)
        img6 = verdict.pi_assignment(table2, syn, option, y6)
        assert img5 ^ img6 == z1 ^ z2  # products of assignments match Y5.Y6
        assert {img5, img6} <= BOTH_PHASES.classes


def test_pi_count_matches_group_size(table1):
    verdict = check_general_qet(table1, PHASE1, errors_up_to_weight(7, 1))
    assert all(len(b.options) == len(PHASE1.classes)
               for b in verdict.pi_maps.values())


# -- randomized law checks ----------------------------------------------------------


def test_group_and_general_agree_on_groups():
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randrange(3, 7)
        k = rng.randrange(1, 3)
        if k >= n:
            continue
        code = random_code(rng, n, k)
        adm = random_admissible(rng, k, group=True)
        errs = errors_up_to_weight(n, 2)
        a = check_group_qet(code, adm, errs)
        b = check_general_qet(code, adm, errs)
        assert a.passed == b.passed
        assert a.witness == b.witness == brute_force_group_witness(code, adm, errs)


def test_strong_implies_general():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randrange(3, 7)
        k = rng.randrange(1, 3)
        code = random_code(rng, n, k)
        adm = random_admissible(rng, k, group=False)
        errs = errors_up_to_weight(n, 2)
        if strong_conditions_hold(code, adm, errs):
            assert check_general_qet(code, adm, errs).passed


def test_qec_specialization_matches_brute_force():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randrange(3, 6)
        k = rng.randrange(1, min(3, n))
        code = random_code(rng, n, k)
        errs = errors_up_to_weight(n, 1)
        fast = check_group_qet(code, AdmissibleSet.trivial(k), errs).passed
        assert fast == brute_force_qec_ok(code, errs)


def test_relabeling_invariance(table2):
    rng = random.Random(5)
    transforms = list(symplectic_transforms(2))
    errs = errors_up_to_weight(6, 1)
    base = check_general_qet(table2, BOTH_PHASES, errs).passed
    for _ in range(10):
        cols = transforms[rng.randrange(len(transforms))]
        new_x = [table2.class_representative(cols[i]) for i in range(2)]
        new_z = [table2.class_representative(cols[2 + i]) for i in range(2)]
        relabeled = table2.with_logicals(new_x, new_z)
        assert validate_code(relabeled).ok
        mapped = AdmissibleSet(2, frozenset(
            w for w in range(16) if apply_transform(cols, w) in BOTH_PHASES.classes))
        assert check_general_qet(relabeled, mapped, errs).passed == base


# -- effective distance ---------------------------------------------------------------


def test_effective_distances(table1, table2):
    assert effective_distance(table1, PHASE1, 3).value == 3
    assert effective_distance(table2, BOTH_PHASES, 3).value == 3


def test_effective_distance_cap_marker(table1):
    result = effective_distance(table1, PHASE1, 1)
    assert not result.exact and result.value == 3  # all of weight 1 passed


def test_effective_distance_monotone_in_admissible(table1):
    small = effective_distance(table1, AdmissibleSet.trivial(2), 3).value
    mid = effective_distance(table1, PHASE1, 3).value
    big = effective_distance(table1, AdmissibleSet.full(2), 3).value
    assert small <= mid <= big


def test_deff_at_least_code_distance(table1, table2):
    assert effective_distance(table1, PHASE1, 3).value >= code_distance(table1, 7).value
    assert effective_distance(table2, BOTH_PHASES, 3).value >= code_distance(table2, 6).value


def test_deff_lower_bound_golden(table1):
    assert deff_lower_bound(table1, PHASE1, 7).value == 3
    capped = deff_lower_bound(table1, AdmissibleSet.full(2), 7)
    assert not capped.exact  # nothing is excluded
    trivial = deff_lower_bound(table1, AdmissibleSet.trivial(2), 7)
    assert trivial.value == code_distance(table1, 7).value


def test_deff_lower_bound_rejects_negative_cap(table1):
    with pytest.raises(ValueError, match="cap"):
        deff_lower_bound(table1, PHASE1, -1)


def test_deff_lower_bound_matches_brute_force():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(2, 7)
        k = rng.randrange(1, min(3, n))
        code = random_code(rng, n, k)
        adm = random_admissible(rng, k, group=rng.random() < 0.5)
        weights = [(x | z).bit_count() for x in range(1 << n) for z in range(1 << n)
                   if code.syndrome_bits(x, z) == 0
                   and code.class_bits(x, z) not in adm.classes]
        got = deff_lower_bound(code, adm, n)
        if weights:
            assert (got.value, got.exact) == (min(weights), True)
        else:
            assert (got.value, got.exact) == (n + 1, False)


def test_strong_conditions_below_lower_bound(table1, table2):
    # the excluded-weight bound restated: strong conditions hold for all
    # errors up to (bound-1)/2
    for code, adm, n in ((table1, PHASE1, 7), (table2, BOTH_PHASES, 6)):
        bound = deff_lower_bound(code, adm, n).value
        w = (bound - 1) // 2
        assert strong_conditions_hold(code, adm, errors_up_to_weight(n, w))


# -- relabeling search -----------------------------------------------------------------


def test_relabel_search_table1(table1):
    sf = standard_form(table1.generators)
    hit = relabel_search(sf, PHASE1, errors_up_to_weight(7, 1))
    assert hit is not None
    code, verdict = hit
    assert verdict.passed
    assert validate_code(code).ok


def test_relabel_search_k1_full_group(five_qubit):
    hit = relabel_search(five_qubit, AdmissibleSet.full(1), errors_up_to_weight(5, 1))
    assert hit is not None


def test_relabel_search_table2(table2):
    sf = standard_form(table2.generators)
    hit = relabel_search(sf, BOTH_PHASES, errors_up_to_weight(6, 1))
    assert hit is not None


def test_relabel_search_user_basis(table2):
    sf = standard_form(table2.generators)
    hit = relabel_search(sf, BOTH_PHASES, errors_up_to_weight(6, 1),
                         user_basis=(table2.logical_x, table2.logical_z))
    assert hit is not None


def test_symplectic_group_sizes():
    assert sum(1 for _ in symplectic_transforms(1)) == 6
    assert sum(1 for _ in symplectic_transforms(2)) == 720


# -- recovery ---------------------------------------------------------------------------


def test_recovery_soundness(table1, table2):
    for code, adm, n in ((table1, PHASE1, 7), (table2, BOTH_PHASES, 6)):
        errs = errors_up_to_weight(n, 1)
        verdict = check_general_qet(code, adm, errs)
        table = build_recovery(code, adm, verdict)
        for e in errs:
            syn = code.syndrome_bits(e.x, e.z)
            for _cls, _wgt, corr in table.entries[syn].components:
                rx, rz = corr.x ^ e.x, corr.z ^ e.z
                assert code.syndrome_bits(rx, rz) == 0
                assert code.class_bits(rx, rz) in adm.classes


def test_recovery_qec_case_deterministic(five_qubit):
    adm = AdmissibleSet.trivial(1)
    verdict = check_general_qet(five_qubit, adm, errors_up_to_weight(5, 1))
    table = build_recovery(five_qubit, adm, verdict)
    for entry in table.entries.values():
        assert len(entry.components) == 1
        cls, wgt, corr = entry.components[0]
        assert cls == 0 and wgt == 1.0
        # correcting with the reference itself: residual is a stabilizer
        assert five_qubit.contains_stabilizer(
            PauliOp(5, corr.x ^ entry.reference.x, corr.z ^ entry.reference.z))


def test_recovery_requires_pass(table1):
    bad = check_group_qet(table1, AdmissibleSet.trivial(2), errors_up_to_weight(7, 1))
    with pytest.raises(ValueError):
        build_recovery(table1, AdmissibleSet.trivial(2), bad)


def test_recovery_mixture_validation(table1):
    errs = errors_up_to_weight(7, 1)
    verdict = check_general_qet(table1, PHASE1, errs)
    syn = next(iter(verdict.pi_maps))
    with pytest.raises(ValueError):
        build_recovery(table1, PHASE1, verdict, mixtures={syn: [0.5]})
    n_opts = len(verdict.pi_maps[syn].options)
    with pytest.raises(ValueError):
        build_recovery(table1, PHASE1, verdict, mixtures={syn: [2.0] * n_opts})


def test_duplicate_errors_deduplicated(table1):
    errs = errors_up_to_weight(7, 1)
    verdict = check_general_qet(table1, PHASE1, errs + errs)
    assert len(verdict.checked) == len(errs)
