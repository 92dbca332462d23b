import gc
import random
import tracemalloc
from collections import namedtuple
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtransmute import catalog, pauli, qet
from qtransmute.classical import is_css
from qtransmute.errors import DimensionMismatch
from qtransmute.f2 import F2Span, fold, symplectic
from qtransmute.pauli import (ErrorBall, PauliOp, errors_up_to_weight, parse_pauli, render,
                              support_xz)
from qtransmute.qet import (AdmissibleSet, PiBucket, _breadth_first_orbit,
                            build_recovery, check_general_qet, check_group_qet,
                            deff_lower_bound, effective_distance,
                            relabel_search, strong_conditions_hold,
                            symplectic_transforms)
from qtransmute.search import sample_generators
from qtransmute.stabilizer import (DistanceResult, StabilizerCode, class_bits_to_string,
                                   code_distance, complete_logical_basis, loads,
                                   standard_form, validate_code)

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


def as_ops(n, errors):
    """The (x, z) errors as PauliOps, for the references below."""
    return [PauliOp(n, x, z) for x, z in errors]


def image_of(cols, pattern):
    return frozenset(fold(cols, c) for c in pattern.classes)


def grow_whole(orbit):
    """Find the rest of a cached orbit."""
    while orbit.grow(4096):
        pass


def brute_force_qec_ok(code, errors):
    """Textbook stabilizer condition, checked pair by pair: every product of
    two errors either anticommutes with some generator or lies in S."""
    ok = True
    for a, b in combinations(errors, 2):
        px, pz = a.x ^ b.x, a.z ^ b.z
        detected = code.syndrome_bits(px, pz) != 0
        if not detected and not code.in_stabilizer_bits(px, pz):
            ok = False
    return ok


Definition = namedtuple("Definition", "checked witness buckets members")


def brute_force_general(code, adm, errors):
    """The general-case condition straight from its definition, over (x, z)
    errors, with only `syndrome_bits` and `class_bits`. The distinct errors
    are bucketed by syndrome in input order, each bucket's first error its
    reference; an image o of the reference stays while o ^ class(ref.e) is
    admissible for every member e of the bucket so far. `checked` holds the
    distinct errors in input order, and `witness` the (reference, error) pair
    of the first error that leaves its bucket no image, or None. On a pass,
    `buckets` maps each syndrome, in reference order, to its reference and
    its images, and `members` holds every error after its bucket's first, in
    input order, as (syndrome, (x, z), class of reference.error)."""
    checked = list(dict.fromkeys(errors))
    buckets, members = {}, []
    for x, z in checked:
        syn = code.syndrome_bits(x, z)
        if syn not in buckets:
            buckets[syn] = (x, z), tuple(sorted(adm.classes))
            continue
        ref, images = buckets[syn]
        diff = code.class_bits(ref[0] ^ x, ref[1] ^ z)
        images = tuple(o for o in images if o ^ diff in adm.classes)
        if not images:
            return Definition(checked, (PauliOp(code.n, *ref), PauliOp(code.n, x, z)), None, None)
        buckets[syn] = ref, images
        members.append((syn, (x, z), diff))
    return Definition(checked, None, buckets, members)


def brute_force_relabeling(code, pattern, errors):
    """The first `_breadth_first_orbit` transform whose image of the pattern
    the definition passes on the errors, or None."""
    return next((cols for image, cols in _breadth_first_orbit(code.k, pattern.classes)
                 if brute_force_general(code, AdmissibleSet(code.k, image), errors).witness
                 is None), None)


def brute_force_effective_distance(code, adm, cap):
    """2w - 1 at the first ball weight w <= cap on which the definition fails;
    else 2 cap + 1, exact iff the cap reaches n."""
    cap = min(cap, code.n)
    for w in range(1, cap + 1):
        if brute_force_general(code, adm, ErrorBall(code.n, w)).witness is not None:
            return DistanceResult(2 * w - 1, True, cap)
    return DistanceResult(2 * cap + 1, cap >= code.n, cap)


def decoded(code, members):
    """Each member int as the (syndrome, (x, z), class of reference.error)
    tuple that the definition gives."""
    n, k, r = code.n, code.k, len(code.generators)
    for m in members:
        yield m & code._syn_mask, support_xz(n, m >> (n + k)), m >> r & ((1 << 2 * k) - 1)


def assert_verdict_is(code, verdict, want):
    """The verdict is the definition's: witness, checked order and, on a
    pass, every bucket and member in order, and no bucket at a syndrome that
    no error has."""
    assert (verdict.passed, verdict.witness) == (want.witness is None, want.witness)
    assert list(verdict.checked) == want.checked
    if want.witness is not None:
        assert verdict.pi_maps is None
        return
    pi = verdict.pi_maps
    assert len(pi) == len(want.buckets)
    assert list(pi.items()) == [(syn, PiBucket(*b)) for syn, b in want.buckets.items()]
    assert list(decoded(code, pi.members)) == want.members
    unoccupied = next((s for s in range(1 << (code.n - code.k)) if s not in want.buckets),
                      1 << (code.n - code.k))
    assert unoccupied not in pi
    assert pi.get(unoccupied) is None
    assert pi.get(unoccupied, "absent") == "absent"
    with pytest.raises(KeyError):
        pi[unoccupied]


def assert_relabeling_is(code, pattern, errors, hit):
    """The relabel hit is the definition's: the first passing orbit
    transform's logicals, and the definition's verdict on them."""
    cols = brute_force_relabeling(code, pattern, errors)
    assert (hit is None) == (cols is None)
    if hit is not None:
        got, verdict = hit
        want = relabeled(code, cols)
        assert (got.logical_x, got.logical_z) == (want.logical_x, want.logical_z)
        assert validate_code(got).ok
        assert_verdict_is(got, verdict, brute_force_general(got, pattern, errors))


def assert_check_matches_definition(code, adm, errors):
    assert_verdict_is(code, check_general_qet(code, adm, errors),
                      brute_force_general(code, adm, errors))
    assert_relabeling_is(code, adm, errors, relabel_search(code, adm, errors))


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
    """The errors of weight <= w shuffled, with up to five of them repeated anywhere."""
    errs = errors_up_to_weight(n, w)
    rng.shuffle(errs)
    for _ in range(rng.randrange(6)):
        errs.insert(rng.randrange(len(errs) + 1), rng.choice(errs))
    return errs


random_instances = given(n=st.integers(2, 6), k=st.integers(1, 2), group=st.booleans(),
                         seed=st.integers(0, 2 ** 32 - 1))


# -- admissible sets --------------------------------------------------------------


def test_admissible_group_flag():
    assert PHASE1.is_group
    assert not BOTH_PHASES.is_group
    assert AdmissibleSet.full(2).is_group


@settings(max_examples=200, deadline=None)
@given(k=st.integers(0, 3), closed=st.booleans(), data=st.data())
def test_group_flag_matches_pairwise_closure(k, closed, data):
    drawn = data.draw(st.sets(st.integers(0, (1 << (2 * k)) - 1), max_size=12))
    classes = {0} | drawn
    if closed:
        classes = {fold(sorted(drawn), m) for m in range(1 << len(drawn))} | {0}
    pairwise = all(a ^ b in classes for a, b in combinations(classes, 2))
    assert AdmissibleSet(k, frozenset(classes)).is_group == pairwise
    assert pairwise or not closed


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
    assert table1.class_bits(a.x ^ b.x, a.z ^ b.z) != 0


def test_identity_only_error_set_passes(table1):
    assert check_group_qet(table1, AdmissibleSet.trivial(2), [(0, 0)]).passed


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
    z1, z2 = (table2.class_bits(p.x, p.z) for p in table2.logical_z)
    ref = PauliOp(6, *bucket.reference)
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
        assert a.witness == b.witness == brute_force_general(code, adm, errs).witness


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
        assert fast == brute_force_qec_ok(code, as_ops(n, errs))


@settings(max_examples=150, deadline=None)
@random_instances
def test_general_check_matches_definition(n, k, group, seed):
    # on a shuffled list with repeats anywhere and on a ball, the check and
    # the relabel search give the definition's answers, on a code with a
    # completed basis or in standard form
    assume(k < n)
    rng = random.Random(seed)
    code = random_code(rng, n, k) if rng.random() < 0.5 else standard_form(
        sample_generators(n, k, rng))
    adm = spread_admissible(rng, k, group)
    w = rng.choice([1, 2])
    for errors in (shuffled_errors(rng, n, w), ErrorBall(n, w)):
        assert_check_matches_definition(code, adm, errors)


@settings(max_examples=60, deadline=None)
@random_instances
def test_strong_conditions_match_definition(n, k, group, seed):
    assume(k < n)
    rng = random.Random(seed)
    code = random_code(rng, n, k)
    adm = spread_admissible(rng, k, group)
    errs = shuffled_errors(rng, n, rng.choice([1, 2]))
    want = all(code.class_bits(a.x ^ b.x, a.z ^ b.z) in adm.classes
               for a, b in combinations(as_ops(n, errs), 2)
               if code.syndrome_bits(a.x, a.z) == code.syndrome_bits(b.x, b.z))
    assert strong_conditions_hold(code, adm, errs) == want


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), k=st.integers(1, 3), group=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_effective_distance_matches_layered_checks(n, k, group, seed):
    assume(k < n)
    rng = random.Random(seed)
    code = random_code(rng, n, k)
    adm = spread_admissible(rng, k, group)
    cap = rng.randrange(n + 2)
    assert effective_distance(code, adm, cap) == brute_force_effective_distance(code, adm, cap)


@settings(max_examples=60, deadline=None)
@random_instances
def test_relabel_search_returns_first_passing_transform(n, k, group, seed):
    # a hit exists iff brute force over all of Sp(2k,2) finds a passing
    # relabeling, and it is the definition's first passing orbit transform,
    # from a fresh orbit found as far as it needs and from a whole one
    assume(k < n)
    rng = random.Random(seed)
    code = random_code(rng, n, k)
    adm = spread_admissible(rng, k, group)
    errs = shuffled_errors(rng, n, 1)
    exists = any(brute_force_general(relabeled(code, cols), adm, errs).witness is None
                 for cols in symplectic_transforms(k))
    qet._orbit.cache_clear()
    hit = relabel_search(code, adm, errs)
    assert_relabeling_is(code, adm, errs, hit)
    assert (hit is not None) == exists
    grow_whole(qet._orbit(k, adm.classes))
    assert_relabeling_is(code, adm, errs, relabel_search(code, adm, errs))


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


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), k=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_group_check_passes_iff_no_excluded_element_up_to_twice_the_weight(n, k, seed):
    # A same-syndrome pair of weight <= w errors multiplies to an N(S)
    # element of weight <= 2w, and every such element splits into two halves
    # of weight <= w with one syndrome. On an XOR-closed set the check fails
    # exactly on an excluded product.
    assume(k < n)
    rng = random.Random(seed)
    code = random_code(rng, n, k)
    adm = spread_admissible(rng, k, group=True)
    for w in range(1, n + 1):
        passed = check_general_qet(code, adm, errors_up_to_weight(n, w)).passed
        assert passed == (not deff_lower_bound(code, adm, min(2 * w, n)).exact), w


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
    images = list(_breadth_first_orbit(k, pattern.classes))
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
        assert sum(1 for _ in _breadth_first_orbit(k, pattern.classes)) == size
        orbit = qet._orbit(k, pattern.classes)
        grow_whole(orbit)
        assert len(orbit.transforms) == size


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 2), group=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_orbit_cache_grows_in_breadth_first_order(k, group, seed):
    # grown in steps of any size, the cache keeps the definitional orbit's
    # transforms in order, and per class the images that hold it
    rng = random.Random(seed)
    pattern = spread_admissible(rng, k, group)
    qet._orbit.cache_clear()
    orbit = qet._orbit(k, pattern.classes)
    while orbit.grow(rng.randrange(1, 8)):
        pass
    want = list(_breadth_first_orbit(k, pattern.classes))
    assert orbit.transforms == [cols for _, cols in want]
    for c, holding in enumerate(orbit._holding):
        assert holding == sum(1 << i for i, (image, _) in enumerate(want) if c in image)


@settings(max_examples=60, deadline=None)
@random_instances
def test_first_relabeling_is_the_first_fitting_orbit_transform(n, k, group, seed):
    # from the labels alone, with a fresh orbit and with a whole one, the
    # decision names the definition's first passing orbit transform
    assume(k < n)
    rng = random.Random(seed)
    code = random_code(rng, n, k)
    pattern = spread_admissible(rng, k, group)
    errs = shuffled_errors(rng, n, rng.randrange(1, 3))
    labelled = list(qet._labelled(code, errs)[1])
    want = brute_force_relabeling(code, pattern, errs)
    qet._orbit.cache_clear()
    assert qet.first_relabeling(n, k, pattern, labelled) == want
    grow_whole(qet._orbit(k, pattern.classes))
    assert qet.first_relabeling(n, k, pattern, labelled) == want


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
    errs = [(x, z) for x, z in errors_up_to_weight(6, 1) if (x | z) < 8]  # on qubits 0-2
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
        qet._orbit(2, BOTH_PHASES.classes).grow(1)
    monkeypatch.undo()
    orbit = qet._orbit(2, BOTH_PHASES.classes)
    grow_whole(orbit)
    assert orbit.transforms == [cols for _, cols in _breadth_first_orbit(2, BOTH_PHASES.classes)]
    assert len(orbit.transforms) == 45


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
    orbit = {image for image, _ in _breadth_first_orbit(3, pattern.classes)}
    hit = relabel_search(code, pattern, errs)
    for _ in range(10):
        cols = tuple(1 << i for i in range(6))
        for _ in range(rng.randrange(12)):
            v = rng.randrange(1, 64)
            cols = tuple(c ^ v if symplectic(c, v, 3) else c for c in cols)
        assert image_of(cols, pattern) in orbit
        if check_general_qet(relabeled(code, cols), pattern, errs).passed:
            assert hit is not None


# -- the ball's walk against the list path ------------------------------------------


@settings(max_examples=60, deadline=None)
@random_instances
def test_walked_ball_matches_its_list(n, k, group, seed):
    # every checker gives the same answer on a ball as on its list, and a
    # ball verdict's checked set holds the same errors as the list's
    assume(k < n)
    rng = random.Random(seed)
    code = standard_form(sample_generators(n, k, rng))
    adm = spread_admissible(rng, k, group)
    first_failure = None
    for w in range(n + 1):
        ball, errs = ErrorBall(n, w), errors_up_to_weight(n, w)
        new, old = check_general_qet(code, adm, ball), check_general_qet(code, adm, errs)
        assert new.checked is ball
        assert (new.passed, new.witness) == (old.passed, old.witness)
        assert len(new.checked) == len(old.checked)
        assert all(e in new.checked for e in old.checked)
        assert (1 << n, 0) not in new.checked
        if old.passed:
            assert list(new.pi_maps.items()) == list(old.pi_maps.items())
            assert new.pi_maps.members == old.pi_maps.members
        elif first_failure is None:
            first_failure = w
        assert strong_conditions_hold(code, adm, ball) == strong_conditions_hold(code, adm, errs)
        hit, want = relabel_search(code, adm, ball), relabel_search(code, adm, errs)
        assert (hit is None) == (want is None)
        if hit is not None:
            assert (hit[0].logical_x, hit[0].logical_z) == (want[0].logical_x, want[0].logical_z)
            assert hit[1].checked is ball
            assert list(hit[1].pi_maps.items()) == list(want[1].pi_maps.items())
            assert hit[1].pi_maps.members == want[1].pi_maps.members
    cap = rng.randrange(n + 1)
    want = ((2 * first_failure - 1, True) if first_failure is not None and first_failure <= cap
            else (2 * cap + 1, cap >= n))
    got = effective_distance(code, adm, cap)
    assert (got.value, got.exact) == want


@settings(max_examples=60, deadline=None)
@random_instances
def test_walk_labels_are_syndrome_and_class(n, k, group, seed):
    assume(k < n)
    rng = random.Random(seed)
    code = random_code(rng, n, k)
    w = rng.randrange(n + 1)
    walked = []
    for batch in ErrorBall(n, w).labelled(code._labels, n + k):
        for v in batch:
            x, z = support_xz(n, v >> (n + k))
            assert v & ((1 << (n + k)) - 1) == (code.syndrome_bits(x, z)
                                                 | code.class_bits(x, z) << (n - k))
            walked.append((x, z))
    assert walked == errors_up_to_weight(n, w)


# -- closed sets: narrowing by the difference alone ----------------------------------
#
# For an XOR-closed set the check tests each class difference for membership
# and keeps no options; the definition narrows every bucket's images member
# by member, whatever the set.


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 6), k=st.integers(1, 3), kind=st.sampled_from(["trivial", "full", "closed"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_group_narrowing_matches_per_pair_narrowing(n, k, kind, seed):
    assume(k < n)
    rng = random.Random(seed)
    code = random_code(rng, n, k)
    adm = {"trivial": AdmissibleSet.trivial(k), "full": AdmissibleSet.full(k),
           "closed": random_admissible(rng, k, True)}[kind]
    assert adm.is_group
    w = rng.choice([1, 2])
    for errors in (shuffled_errors(rng, n, w), ErrorBall(n, w)):
        assert_check_matches_definition(code, adm, errors)


@pytest.mark.parametrize("kind", ["catalog", "trivial", "full"])
def test_group_narrowing_matches_per_pair_narrowing_on_rep9(kind):
    cc = catalog.resolve("rep:9")
    adm = {"catalog": cc.admissible, "trivial": AdmissibleSet.trivial(1),
           "full": AdmissibleSet.full(1)}[kind]
    assert adm.is_group
    assert_check_matches_definition(cc.code, adm, ErrorBall(9, 4))


# -- CSS balls: the colliding errors against the whole walk ----------------------------
#
# The definition buckets every error of the ball in walk order; a CSS ball of
# weight w >= 2 whose lower weights pass buckets only its colliding errors.


def random_css_code(rng, n, k, kinds):
    """A random [n, k] CSS code: independent Z-type checks, then independent
    X-type checks that commute with them. kinds "x" or "z" keeps checks of
    that type alone."""
    r = n - k
    rz = {"x": 0, "z": r}.get(kinds, rng.randrange(r + 1))
    zs, span = [], F2Span()
    while len(zs) < rz:
        v = rng.randrange(1, 1 << n)
        if span.insert(v):
            zs.append(v)
    kernel = [v for v in range(1, 1 << n) if not any((v & z).bit_count() & 1 for z in zs)]
    xs, span = [], F2Span()
    while len(xs) < r - rz:
        v = rng.choice(kernel)
        if span.insert(v):
            xs.append(v)
    gens = [PauliOp(n, x=v) for v in xs] + [PauliOp(n, z=v) for v in zs]
    return StabilizerCode(gens, *complete_logical_basis(gens))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 8), k=st.integers(0, 2), kinds=st.sampled_from(["x", "z", "both"]),
       mix=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_is_css_matches_the_generator_test(n, k, kinds, mix, seed):
    # A random CSS code; with `mix`, one generator times one of the other
    # type, the same group under one mixed generator. Then a random code,
    # which is seldom CSS.
    assume(k < n)
    rng = random.Random(seed)
    code = random_css_code(rng, n, k, kinds)
    gens = list(code.generators)
    xs, zs = [g for g in gens if g.x], [g for g in gens if g.z]
    if mix and xs and zs:
        a, b = rng.choice(xs), rng.choice(zs)
        gens[gens.index(a)] = PauliOp(n, a.x ^ b.x, a.z ^ b.z)
        code = StabilizerCode(gens, code.logical_x, code.logical_z)
        assert validate_code(code).ok
    codes = [code, random_code(rng, n, k)] if k else [code]
    for c in codes:
        assert is_css(c) == all(g.x == 0 or g.z == 0 for g in c.generators)


@settings(max_examples=120, deadline=None)
@given(n=st.integers(2, 8), k=st.integers(1, 2), kinds=st.sampled_from(["x", "z", "both"]),
       adm_kind=st.sampled_from(["trivial", "group", "other"]), every_share=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_css_ball_check_matches_the_whole_walk(n, k, kinds, adm_kind, every_share, seed):
    # every_share lets `colliding` find any share of the ball, so every ball
    # of weight >= 2 whose lower weights pass is checked over its colliding
    # errors alone; otherwise dense balls are walked as the code chooses.
    assume(k < n)
    rng = random.Random(seed)
    code = random_css_code(rng, n, k, kinds)
    adm = (AdmissibleSet.trivial(k) if adm_kind == "trivial"
           else spread_admissible(rng, k, adm_kind == "group"))
    share = pauli._DENSE_SHARE
    pauli._DENSE_SHARE = float("inf") if every_share else share
    try:
        for w in range(min(n, 3) + 1):
            ball = ErrorBall(n, w)
            verdict, want = check_general_qet(code, adm, ball), brute_force_general(code, adm, ball)
            assert verdict.checked is ball
            pi = verdict.pi_maps
            if want.witness is None:
                if every_share:
                    assert (pi._lone is not None) == (w >= 2)
                assert len(want.buckets) + len(pi.members) == len(ball)
                assert pi.visited <= len(ball)
                # the channel's lookup by error needs no walk of the ball
                lone = pi._lone
                for x, z in ball:
                    syn = code.syndrome_bits(x, z)
                    assert pi.bucket(syn, x, z) == PiBucket(*want.buckets[syn])
                assert pi._lone is lone
            assert_verdict_is(code, verdict, want)
            if want.witness is None:
                assert pi._lone is None and len(pi) == len(want.buckets)
            got = effective_distance(code, adm, w)
            assert got == brute_force_effective_distance(code, adm, w)
    finally:
        pauli._DENSE_SHARE = share


def test_toric_ball_visits_its_colliding_errors_alone():
    # toric:7 at w <= 2: the 295 errors of weight <= 1, then the 588 pure
    # weight-2 errors that share a syndrome: half a plaquette or a star
    cc = catalog.resolve("toric:7")
    ball = ErrorBall(cc.code.n, 2)
    pi = check_general_qet(cc.code, cc.admissible, ball).pi_maps
    assert (len(pi), pi.visited, len(pi.members)) == (42_778, 295 + 588, 294)
    assert pi._lone == (ball, cc.code)
    assert effective_distance(cc.code, cc.admissible, 2) == DistanceResult(5, False, 2)


@pytest.mark.parametrize("name,cap,want", [("toric:4", 4, 3), ("css17", 5, 5), ("rep:9", 4, 9)])
def test_ball_checks_walk_a_half_ball_only_when_the_lower_weights_pass(
        monkeypatch, name, cap, want):
    # toric:4 and css17 fail below their cap, so no half-ball is walked; on
    # rep:9 every Z error has syndrome 0, so the pairs of colliding Z halves
    # alone pass the share and the weight-4 errors are walked
    calls = []
    colliding = ErrorBall.colliding
    monkeypatch.setattr(ErrorBall, "colliding",
                        lambda *args: calls.append(args) or colliding(*args))
    cc = catalog.resolve(name)
    got = effective_distance(cc.code, cc.admissible, cap)
    assert (got.value, got.exact) == (want, want < 2 * cap + 1)
    assert len(calls) == (name == "rep:9")
    if calls:
        assert colliding(*calls[0]) is None


def test_check_peak_memory_per_checked_error():
    # A passing verdict keeps the check's own reference map, narrowed options
    # and dedupe dict. One PiBucket per occupied syndrome plus a frozenset copy
    # of the errors peaked at 266 B per checked error here (Python 3.11).
    cc = catalog.resolve("toric:7")
    errs = errors_up_to_weight(cc.code.n, 2)
    check_general_qet(cc.code, cc.admissible, errs[:100])  # fill the code's caches
    tracemalloc.start()
    try:
        verdict = check_general_qet(cc.code, cc.admissible, errs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.passed
    assert (len(verdict.checked), len(verdict.pi_maps)) == (43_072, 42_778)
    assert peak / len(verdict.checked) <= 140
    # A ball is its own checked set, so no dedupe dict is kept; the walk
    # runs inside the traced region. The list path, with the list built in
    # the traced region, peaked at 210 B per checked error here, the ball
    # with an (x, z) tuple as each reference at 185 B, and with a packed
    # x | z << n as each reference at 115 B. A reference is now its class
    # and support code, at most 22 bits here. toric:7 is a CSS code, so only
    # the errors of weight <= 1 and the 588 colliding ones of weight 2 get a
    # reference: 18.5 B per checked error, bounded here with a third more.
    del verdict, errs
    tracemalloc.start()
    try:
        verdict = check_general_qet(cc.code, cc.admissible, ErrorBall(cc.code.n, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.passed
    assert (len(verdict.checked), len(verdict.pi_maps)) == (43_072, 42_778)
    assert peak / len(verdict.checked) <= 24
    # Its references are packed ints, so the cyclic GC never walks the map.
    assert not gc.is_tracked(verdict.pi_maps._refs)


@pytest.mark.slow
def test_check_peak_memory_per_checked_error_at_weight_three():
    # toric:7 at w <= 3: every error but 89,082 has a syndrome of its own.
    # The peak was 112.0 B per checked error here (Python 3.11) while every
    # error got a reference. Now a weight-3 error is bucketed only when it
    # shares a syndrome: 15.4 B per checked error, bounded here with a third
    # more.
    cc = catalog.resolve("toric:7")
    check_general_qet(cc.code, cc.admissible, ErrorBall(cc.code.n, 1))  # fill the code's caches
    tracemalloc.start()
    try:
        verdict = check_general_qet(cc.code, cc.admissible, ErrorBall(cc.code.n, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.passed
    assert (len(verdict.checked), len(verdict.pi_maps)) == (4_149_664, 4_060_582)
    assert peak / len(verdict.checked) <= 20


@pytest.mark.parametrize("check", [check_general_qet, strong_conditions_hold, relabel_search])
@pytest.mark.parametrize("error", [(1 << 7, 0), (0, 1 << 7), (-1, 0), (0, -2), "ball"])
def test_errors_outside_the_code_are_refused(table1, check, error):
    # a bit at qubit n, or a negative mask, names no Pauli on the code's qubits;
    # nor does a ball on another qubit count
    if error == "ball":
        with pytest.raises(DimensionMismatch, match="ball acts on 8 qubits, the code on 7"):
            check(table1, PHASE1, ErrorBall(8, 1))
        return
    with pytest.raises(DimensionMismatch, match="outside the code's 7 qubits"):
        check(table1, PHASE1, [(0, 0), (1, 0), error])


def test_symplectic_group_sizes():
    assert sum(1 for _ in symplectic_transforms(1)) == 6
    assert sum(1 for _ in symplectic_transforms(2)) == 720


# -- recovery ---------------------------------------------------------------------------


def test_recovery_soundness(table1, table2):
    for code, adm, n in ((table1, PHASE1, 7), (table2, BOTH_PHASES, 6)):
        errs = errors_up_to_weight(n, 1)
        verdict = check_general_qet(code, adm, errs)
        table = build_recovery(verdict)
        for e in as_ops(n, errs):
            entry = table.entries[code.syndrome_bits(e.x, e.z)]
            for cls in entry.options:
                rep = code.class_representative(cls)
                rx = entry.reference[0] ^ rep.x ^ e.x
                rz = entry.reference[1] ^ rep.z ^ e.z
                assert code.syndrome_bits(rx, rz) == 0
                assert code.class_bits(rx, rz) in adm.classes


def test_recovery_qec_case_deterministic(five_qubit):
    adm = AdmissibleSet.trivial(1)
    verdict = check_general_qet(five_qubit, adm, errors_up_to_weight(5, 1))
    table = build_recovery(verdict)
    assert table.support is verdict.checked  # the verdict's own set, not a rebuilt one
    for entry in table.entries.values():
        assert entry.options == (0,)
        rep = five_qubit.class_representative(0)
        # correcting with the reference itself: residual is a stabilizer
        assert five_qubit.in_stabilizer_bits(rep.x, rep.z)
    for e in as_ops(5, verdict.checked):
        rx, rz = table.entries[five_qubit.syndrome_bits(e.x, e.z)].reference
        assert five_qubit.in_stabilizer_bits(rx ^ e.x, rz ^ e.z)


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
    for e in as_ops(n, verdict.checked):
        entry = table.entries[code.syndrome_bits(e.x, e.z)]
        ref = PauliOp(n, *entry.reference)
        base = code.class_bits(ref.x ^ e.x, ref.z ^ e.z)
        for c in entry.options:
            assert c in adm.classes
            rep = code.class_representative(c)
            rx, rz = rep.x ^ ref.x ^ e.x, rep.z ^ ref.z ^ e.z
            assert code.syndrome_bits(rx, rz) == 0
            assert c ^ base == code.class_bits(rx, rz)


def test_recovery_requires_pass(table1):
    bad = check_group_qet(table1, AdmissibleSet.trivial(2), errors_up_to_weight(7, 1))
    with pytest.raises(ValueError):
        build_recovery(bad)


def test_duplicate_errors_deduplicated(table1):
    errs = errors_up_to_weight(7, 1)
    verdict = check_general_qet(table1, PHASE1, errs + errs)
    assert len(verdict.checked) == len(errs)


def bfs_group_generated(k, strings):
    """AdmissibleSet.group_generated as it was before the closure doubled:
    a breadth-first walk over products of the generators."""
    gens = qet._item_bits(k, strings)
    closed = {0}
    frontier = [0]
    while frontier:
        base = frontier.pop()
        for g in gens:
            nxt = base ^ g
            if nxt not in closed:
                closed.add(nxt)
                frontier.append(nxt)
    return AdmissibleSet(k, frozenset(closed))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=st.integers(1, 3))
def test_group_generated_matches_breadth_first_closure(data, k):
    # repeats and the identity are drawn often: a letter alphabet of four
    # and lists of up to eight strings
    word = st.text("IXYZ", min_size=k, max_size=k)
    strings = data.draw(st.lists(st.one_of(word, st.just("I" * k)), max_size=8))
    strings += data.draw(st.lists(st.sampled_from(strings), max_size=3)) if strings else []
    assert AdmissibleSet.group_generated(k, strings) == bfs_group_generated(k, strings)
