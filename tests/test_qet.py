import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtransmute import qet
from qtransmute.errors import CodeConstructionError
from qtransmute.f2 import fold, symplectic
from qtransmute.pauli import (PauliOp, enumerate_paulis, errors_up_to_weight,
                              identity, multiply, parse_pauli, render)
from qtransmute.qet import (AdmissibleSet, _pattern_images, build_recovery,
                            check_general_qet, check_group_qet,
                            deff_lower_bound, effective_distance,
                            relabel_search, strong_conditions_hold,
                            symplectic_transforms)
from qtransmute.search import sample_generators
from qtransmute.stabilizer import (StabilizerCode, class_bits_to_string,
                                   code_distance, complete_logical_basis, loads,
                                   logical_class, standard_form, validate_code)

PHASE1 = AdmissibleSet.group_generated(2, ["ZI"])
BOTH_PHASES = AdmissibleSet.from_strings(2, ["ZI", "IZ"])
PHASES3 = AdmissibleSet.from_strings(3, ["ZII", "IZI", "IIZ"])


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


def relabeled(code, cols):
    """`code` with the logical basis that the column-tuple transform names."""
    return code.with_logicals([code.class_representative(c) for c in cols[:code.k]],
                              [code.class_representative(c) for c in cols[code.k:]])


def image_of(cols, pattern):
    return frozenset(fold(cols, c) for c in pattern.classes)


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


def brute_force_general(code, adm, errors):
    """General-case condition straight from its definition, bucket by bucket:
    the witness is the first error, in input order, whose bucket prefix has no
    reference image o with o ^ class(ref.e) admissible for every e in it; the
    pi-maps are each bucket's images computed over the whole bucket."""
    buckets = {}
    for e in errors:
        members = buckets.setdefault(code.syndrome_bits(e.x, e.z), [])
        if (e.x, e.z) in {(f.x, f.z) for f in members}:
            continue
        members.append(e)
        if not reference_images(code, adm, members):
            return (members[0], e), None
    return None, {syn: (m[0], reference_images(code, adm, m)) for syn, m in buckets.items()}


def reference_images(code, adm, members):
    ref = members[0]
    return tuple(o for o in sorted(adm.classes)
                 if all(o ^ code.class_bits(ref.x ^ e.x, ref.z ^ e.z) in adm.classes
                        for e in members))


def spread_admissible(rng, k, group):
    """A set whose size is spread over the whole range, so that passing
    verdicts and partly narrowed pi-maps are common: each class is drawn with
    a random density, then closed under XOR when `group`."""
    density = rng.random()
    classes = {0} | {c for c in range(1, 1 << (2 * k)) if rng.random() < density}
    while group and any(a ^ b not in classes for a in classes for b in classes):
        classes |= {a ^ b for a in classes for b in classes}
    return AdmissibleSet(k, frozenset(classes))


def shuffled_errors(rng, n, w):
    errs = errors_up_to_weight(n, w)
    rng.shuffle(errs)
    return errs + errs[:rng.randrange(3)]


random_instances = given(n=st.integers(2, 6), k=st.integers(1, 2), group=st.booleans(),
                         seed=st.integers(0, 2 ** 32 - 1))


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
    assert logical_class(table1, multiply(a, b)) != 0


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
    z1 = logical_class(table2, table2.logical_z[0])
    z2 = logical_class(table2, table2.logical_z[1])
    ref = bucket.reference
    for option in bucket.options:
        # fixing the reference image forces every other assignment
        img5 = option ^ table2.class_bits(ref.x ^ y5.x, ref.z ^ y5.z)
        img6 = option ^ table2.class_bits(ref.x ^ y6.x, ref.z ^ y6.z)
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


@settings(max_examples=100, deadline=None)
@random_instances
def test_general_check_matches_definition(n, k, group, seed):
    assume(k < n)
    rng = random.Random(seed)
    code = random_code(rng, n, k)
    adm = spread_admissible(rng, k, group)
    errs = shuffled_errors(rng, n, rng.choice([1, 2]))
    witness, pi = brute_force_general(code, adm, errs)
    verdict = check_general_qet(code, adm, errs)
    assert verdict.witness == witness
    assert verdict.passed == (witness is None)
    if pi is not None:
        assert {syn: (b.reference, b.options) for syn, b in verdict.pi_maps.items()} == pi
        assert list(verdict.pi_maps) == list(pi)


@settings(max_examples=60, deadline=None)
@random_instances
def test_strong_conditions_match_definition(n, k, group, seed):
    assume(k < n)
    rng = random.Random(seed)
    code = random_code(rng, n, k)
    adm = spread_admissible(rng, k, group)
    errs = shuffled_errors(rng, n, rng.choice([1, 2]))
    want = all(code.class_bits(a.x ^ b.x, a.z ^ b.z) in adm.classes
               for a, b in combinations(errs, 2)
               if code.syndrome_bits(a.x, a.z) == code.syndrome_bits(b.x, b.z))
    assert strong_conditions_hold(code, adm, errs) == want


@settings(max_examples=40, deadline=None)
@random_instances
def test_effective_distance_matches_layered_checks(n, k, group, seed):
    assume(k < n)
    rng = random.Random(seed)
    code = random_code(rng, n, k)
    adm = spread_admissible(rng, k, group)
    cap = rng.randrange(n + 1)
    want = (2 * cap + 1, cap >= n)
    for w in range(1, cap + 1):
        if not check_general_qet(code, adm, errors_up_to_weight(n, w)).passed:
            want = (2 * w - 1, True)
            break
    got = effective_distance(code, adm, cap)
    assert (got.value, got.exact, got.cap) == (*want, cap)


@settings(max_examples=60, deadline=None)
@random_instances
def test_relabel_search_returns_first_passing_transform(n, k, group, seed):
    # a hit exists iff brute force over all of Sp(2k,2) finds a passing
    # relabeling, and it is the one stored for the first passing image
    assume(k < n)
    rng = random.Random(seed)
    code = random_code(rng, n, k)
    adm = spread_admissible(rng, k, group)
    errs = shuffled_errors(rng, n, 1)

    def passes(cols):
        return brute_force_general(relabeled(code, cols), adm, errs)[0] is None

    exists = any(passes(cols) for cols in symplectic_transforms(k))
    first = next((cols for _, cols in _pattern_images(k, adm.classes) if passes(cols)), None)
    hit = relabel_search(code, adm, errs)
    assert (hit is not None) == exists == (first is not None)
    if hit is not None:
        got, verdict = hit
        want = relabeled(code, first)
        assert (got.logical_x, got.logical_z) == (want.logical_x, want.logical_z)
        assert validate_code(got).ok
        assert verdict.passed


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
            w for w in range(16) if fold(cols, w) in BOTH_PHASES.classes))
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


def test_effective_distance_identity_is_zero_bucket_reference():
    # Single Z errors are undetectable here, with classes ZI, ZZ and IZ
    # relative to the identity; no admissible image of the identity keeps all
    # three admissible, while the detectable single errors pass.
    code = loads("3 2\nZZZ\nXL\nXXI\nIXX\nZL\nZII\nZZI\n")
    adm = AdmissibleSet.from_strings(2, ["XI", "ZI", "YI", "ZX", "IZ", "XZ", "IY", "ZY"])
    result = effective_distance(code, adm, 2)
    assert (result.value, result.exact) == (1, True)
    assert not check_general_qet(code, adm, errors_up_to_weight(3, 1)).passed


def test_effective_distance_rejects_negative_cap(table1):
    with pytest.raises(ValueError, match="cap must be >= 0, got -1"):
        effective_distance(table1, PHASE1, -1)


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


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 2), group=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_pattern_images_are_the_orbit(k, group, seed):
    pattern = spread_admissible(random.Random(seed), k, group)
    transforms = set(symplectic_transforms(k))
    images = list(_pattern_images(k, pattern.classes))
    got = [image for image, _ in images]
    assert len(set(got)) == len(got)
    for image, cols in images:
        assert cols in transforms
        assert image_of(cols, pattern) == image
    assert set(got) == {image_of(cols, pattern) for cols in transforms}


def test_pattern_image_counts():
    for k, pattern, size in ((2, BOTH_PHASES, 45), (2, PHASE1, 15),
                             (2, AdmissibleSet.full(2), 1), (3, PHASES3, 3780),
                             (3, AdmissibleSet.group_generated(3, ["ZII", "IZI"]), 315),
                             (3, AdmissibleSet.full(3), 1)):
        assert sum(1 for _ in _pattern_images(k, pattern.classes)) == size


def test_relabel_search_k3_stops_at_the_first_passing_transform(monkeypatch):
    # the orbit is read lazily: a pass early in the 3,780 images of
    # {I,Z1,Z2,Z3} returns before the rest are found
    pulled = []
    search_orbit = qet._breadth_first_orbit

    def counted(k, classes):
        for item in search_orbit(k, classes):
            pulled.append(item)
            yield item

    monkeypatch.setattr(qet, "_breadth_first_orbit", counted)
    qet._orbit.cache_clear()
    code = random_code(random.Random(0), 6, 3)
    errs = [e for e in errors_up_to_weight(6, 1) if (e.x | e.z) < 8]  # on qubits 0-2
    hit = relabel_search(code, PHASES3, errs)
    qet._orbit.cache_clear()
    assert hit is not None and hit[1].passed
    assert 1 < len(pulled) < 3780


def test_an_interrupted_orbit_search_starts_again(monkeypatch):
    # a generator stopped by an exception is dead; replaying its cache
    # would give a truncated orbit
    def interrupt(*args):
        raise KeyboardInterrupt

    qet._orbit.cache_clear()
    monkeypatch.setattr(qet, "symplectic", interrupt)
    with pytest.raises(KeyboardInterrupt):
        next(_pattern_images(2, BOTH_PHASES.classes))
    monkeypatch.undo()
    assert sum(1 for _ in _pattern_images(2, BOTH_PHASES.classes)) == 45


@settings(max_examples=25, deadline=None)
@given(n=st.integers(4, 6), kind=st.sampled_from(["few", "all but one", "group"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_relabel_search_k3_finds_sampled_relabelings(n, kind, seed):
    # Sp(6,2) elements sampled as products of transvections: each maps the
    # pattern into its orbit, and a passing one means relabel_search has a hit.
    # The patterns are kinds whose orbits are small enough to read whole.
    rng = random.Random(seed)
    code = random_code(rng, n, 3)
    picks = [rng.randrange(1, 64) for _ in range(rng.randrange(1, 3))]
    pattern = {"few": AdmissibleSet(3, frozenset([0, *picks])),
               "all but one": AdmissibleSet(3, frozenset(range(64)) - {picks[0]}),
               "group": AdmissibleSet.group_generated(
                   3, [class_bits_to_string(3, c) for c in picks])}[kind]
    errs = rng.sample(errors_up_to_weight(n, 1), rng.randrange(1, 3 * n + 2))
    orbit = {image for image, _ in _pattern_images(3, pattern.classes)}
    hit = relabel_search(code, pattern, errs)
    for _ in range(10):
        cols = tuple(1 << i for i in range(6))
        for _ in range(rng.randrange(12)):
            v = rng.randrange(1, 64)
            cols = tuple(c ^ v if symplectic(c, v, 3) else c for c in cols)
        assert image_of(cols, pattern) in orbit
        if check_general_qet(relabeled(code, cols), pattern, errs).passed:
            assert hit is not None


def test_symplectic_group_sizes():
    assert sum(1 for _ in symplectic_transforms(1)) == 6
    assert sum(1 for _ in symplectic_transforms(2)) == 720


# -- recovery ---------------------------------------------------------------------------


def test_recovery_soundness(table1, table2):
    for code, adm, n in ((table1, PHASE1, 7), (table2, BOTH_PHASES, 6)):
        errs = errors_up_to_weight(n, 1)
        verdict = check_general_qet(code, adm, errs)
        table = build_recovery(verdict)
        for e in errs:
            entry = table.entries[code.syndrome_bits(e.x, e.z)]
            for cls in entry.options:
                corr = multiply(entry.reference, code.class_representative(cls))
                rx, rz = corr.x ^ e.x, corr.z ^ e.z
                assert code.syndrome_bits(rx, rz) == 0
                assert code.class_bits(rx, rz) in adm.classes


def test_recovery_qec_case_deterministic(five_qubit):
    adm = AdmissibleSet.trivial(1)
    verdict = check_general_qet(five_qubit, adm, errors_up_to_weight(5, 1))
    table = build_recovery(verdict)
    for entry in table.entries.values():
        assert entry.options == (0,)
        corr = multiply(entry.reference, five_qubit.class_representative(0))
        # correcting with the reference itself: residual is a stabilizer
        assert five_qubit.contains_stabilizer(
            PauliOp(5, corr.x ^ entry.reference.x, corr.z ^ entry.reference.z))
    for e in verdict.checked:
        entry = table.entries[five_qubit.syndrome_bits(e.x, e.z)]
        assert five_qubit.contains_stabilizer(multiply(entry.reference, e))


@settings(max_examples=60, deadline=None)
@random_instances
def test_residual_class_is_image_plus_reference_class(n, k, group, seed):
    # the table stores classes, not corrections: for every option c of e's
    # entry, c ^ class(ref·e) is the class that the materialised correction
    # ref·rep(c) leaves on e, and that residual is in N(S)
    assume(k < n)
    rng = random.Random(seed)
    code = standard_form(sample_generators(n, k, rng))
    adm = spread_admissible(rng, k, group)
    errs = shuffled_errors(rng, n, rng.choice([1, 2]))
    verdict = check_general_qet(code, adm, errs)
    assume(verdict.passed)
    table = build_recovery(verdict)
    for e in verdict.checked:
        entry = table.entries[code.syndrome_bits(e.x, e.z)]
        ref = entry.reference
        base = code.class_bits(ref.x ^ e.x, ref.z ^ e.z)
        for c in entry.options:
            assert c in adm.classes
            r = multiply(multiply(code.class_representative(c), ref), e)
            assert code.syndrome_bits(r.x, r.z) == 0
            assert c ^ base == code.class_bits(r.x, r.z)


def test_recovery_requires_pass(table1):
    bad = check_group_qet(table1, AdmissibleSet.trivial(2), errors_up_to_weight(7, 1))
    with pytest.raises(ValueError):
        build_recovery(bad)


def test_duplicate_errors_deduplicated(table1):
    errs = errors_up_to_weight(7, 1)
    verdict = check_general_qet(table1, PHASE1, errs + errs)
    assert len(verdict.checked) == len(errs)
