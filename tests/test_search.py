import random
from collections import Counter
from itertools import combinations

import pytest

import qtransmute.search
from qtransmute.f2 import mul_bt, transpose_rows
from qtransmute.pauli import (ErrorBall, PauliOp, enumerate_paulis, errors_up_to_weight,
                              symplectic_product)
from qtransmute.qet import AdmissibleSet, check_general_qet, relabel_search
from qtransmute.search import (SearchOutcome, SearchSpec, _candidates, _free_bits, _labels,
                               _Layout, _layouts, _relabels, _rows, read_checkpoint, run_search,
                               sample_generators, write_checkpoint)
from qtransmute.stabilizer import (StabilizerCode, complete_logical_basis, label_table,
                                   validate_code)

PHASE1 = AdmissibleSet.group_generated(2, ["ZI"])
BOTH_PHASES = AdmissibleSet.from_strings(2, ["ZI", "IZ"])


def labels_of(n: int, k: int, r: int, value: int, detect: bool = False):
    return _labels(_Layout(n, k, r), value, detect)


def rows_of(n: int, k: int, r: int, value: int):
    """(generators, logical X, logical Z) of a candidate as packed (x, z) rows."""
    return _rows(n, k, labels_of(n, k, r, value))


def test_sampled_generators_always_valid():
    rng = random.Random(123)
    for _ in range(100):
        n = rng.randrange(3, 9)
        k = rng.randrange(1, min(4, n))
        gens = sample_generators(n, k, rng)
        assert len(gens) == n - k
        for a, b in combinations(gens, 2):
            assert symplectic_product(a, b) == 0
        xs, zs = complete_logical_basis(gens)
        assert validate_code(StabilizerCode(gens, xs, zs)).ok


def test_exhaustive_enumeration_is_complete_and_valid():
    n, k = 4, 2
    spec = SearchSpec(n=n, k=k, pattern=BOTH_PHASES, mode="exhaustive")
    size = 0
    seen = set()
    for r, value in _candidates(spec, 0):
        gens = [PauliOp(n, x, z) for x, z in rows_of(n, k, r, value)[0]]
        for a, b in combinations(gens, 2):
            assert symplectic_product(a, b) == 0
        seen.add(tuple((g.x, g.z) for g in gens))
        size += 1
    assert size == sum(1 << _free_bits(n, k, r) for r in range(n - k + 1))
    assert len(seen) == size  # distinct parameters give distinct codes


def test_detection_filter_matches_direct_check():
    for r, value in reference_candidates(6, 2, random.Random(5), 50):
        gens = reference_decode(6, 2, r, value)
        code_check = all(
            any(symplectic_product(p, g) for g in gens)
            for p in enumerate_paulis(6, 1))
        assert (labels_of(6, 2, r, value, detect=True) is not None) == code_check


def test_finds_seven_qubit_phase_transmuter():
    spec = SearchSpec(n=7, k=2, pattern=PHASE1, error_weight=1,
                      mode="random", seed=11, budget=5000, limit=1)
    out = run_search(spec)
    assert out.found, f"no code within {out.examined} candidates"
    code, verdict = out.found[0]
    assert verdict.passed
    assert validate_code(code).ok
    # soundness: re-run the checker from scratch
    assert check_general_qet(code, PHASE1, errors_up_to_weight(7, 1)).passed


def test_finds_six_qubit_nongroup_transmuter():
    spec = SearchSpec(n=6, k=2, pattern=BOTH_PHASES, error_weight=1,
                      mode="random", seed=7, budget=5000, limit=1)
    out = run_search(spec)
    assert out.found
    code, verdict = out.found[0]
    assert check_general_qet(code, BOTH_PHASES, errors_up_to_weight(6, 1)).passed


def test_replay_determinism():
    spec = SearchSpec(n=6, k=2, pattern=BOTH_PHASES, mode="random",
                      seed=2718, budget=500, limit=2)
    a = run_search(spec)
    b = run_search(spec)
    assert a.examined == b.examined
    assert [(c.generators, v.passed) for c, v in a.found] \
        == [(c.generators, v.passed) for c, v in b.found]


def test_layouts_are_built_once_per_shape_and_left_unchanged():
    # Two searches share one tuple of layouts, whose fields stay those of a
    # freshly built layout, and find what a search with new layouts finds.
    spec = SearchSpec(n=6, k=2, pattern=BOTH_PHASES, mode="random",
                      seed=20, budget=1000, limit=2)
    _layouts.cache_clear()
    first = run_search(spec)
    layouts = _layouts(6, 2)
    second = run_search(spec)
    assert _layouts(6, 2) is layouts
    assert len(first.found) == 2
    assert [layout.r for layout in layouts] == [0, 1, 2, 3, 4]
    for layout in layouts:
        fresh = _Layout(6, 2, layout.r)
        assert all(getattr(layout, name) == getattr(fresh, name) for name in _Layout.__slots__)
    assert [(c.generators, c.logical_x, c.logical_z) for c, _ in first.found] \
        == [(c.generators, c.logical_x, c.logical_z) for c, _ in second.found]
    assert ((first.examined, first.detection_passed, first.next_index, first.exhausted)
            == (second.examined, second.detection_passed, second.next_index, second.exhausted))


def test_budget_exhaustion_returns_statistics():
    # an impossible pattern at high weight: budget runs out with nothing found
    spec = SearchSpec(n=4, k=2, pattern=AdmissibleSet.trivial(2),
                      error_weight=2, mode="random", seed=1, budget=50, limit=1)
    out = run_search(spec)
    assert out.found == []
    assert out.examined == 50


def test_exhaustive_resume_splits_cleanly():
    pattern = AdmissibleSet.trivial(2)
    spec_all = SearchSpec(n=4, k=2, pattern=pattern, error_weight=1,
                          mode="exhaustive", seed=0, budget=10 ** 9, limit=10 ** 9)
    full = run_search(spec_all)
    assert full.exhausted
    spec_half = SearchSpec(n=4, k=2, pattern=pattern, error_weight=1,
                           mode="exhaustive", seed=0, budget=1000, limit=10 ** 9)
    first = run_search(spec_half)
    second = run_search(spec_all, start_index=first.next_index)
    assert first.examined + second.examined == full.examined
    assert len(first.found) + len(second.found) == len(full.found)


def test_exhaustive_guard():
    with pytest.raises(ValueError):
        SearchSpec(n=13, k=2, pattern=AdmissibleSet.trivial(2), mode="exhaustive")


@pytest.mark.parametrize("weight", [-1, 5])
def test_spec_refuses_error_weight_outside_qubit_range(weight):
    with pytest.raises(ValueError, match=f"error_weight must be in 0..4, got {weight}"):
        SearchSpec(n=4, k=2, pattern=BOTH_PHASES, error_weight=weight)


@pytest.mark.parametrize("field", ["budget", "limit"])
@pytest.mark.parametrize("value", [0, -5])
def test_spec_refuses_counts_below_one(field, value):
    # budget=-5 used to examine nothing and report an empty, unexhausted scan
    with pytest.raises(ValueError, match=f"{field} must be >= 1, got {value}"):
        SearchSpec(n=4, k=2, pattern=BOTH_PHASES, **{field: value})


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_run_search_refuses_a_negative_start_index(mode):
    # start_index=-3 used to decode indices -3..-1 as candidates
    spec = SearchSpec(n=4, k=2, pattern=BOTH_PHASES, mode=mode, budget=5)
    with pytest.raises(ValueError, match="start_index must be >= 0, got -3"):
        run_search(spec, start_index=-3)


def test_exhaustive_n4_finds_no_table2_predicate_match():
    # the n=4 slice of the nonexistence scan; n=5 runs in the slow acceptance test
    spec = SearchSpec(n=4, k=2, pattern=BOTH_PHASES, error_weight=1,
                      mode="exhaustive", seed=0, budget=10 ** 9, limit=1)
    out = run_search(spec)
    assert out.exhausted
    assert out.found == []


# -- the packed decode against the block-product decode it replaced ------------


class _ReferenceBitReader:
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


def _xor_rows(a, b):
    return [x ^ y for x, y in zip(a, b)]


def reference_blocks(n: int, k: int, r: int, value: int):
    """The free blocks A1, A2, E, C1, C2 and S0 read from `value` bit by bit."""
    reader = _ReferenceBitReader(value)
    w = n - k - r
    return (reader.take_rows(r, w), reader.take_rows(r, k), reader.take_rows(w, k),
            reader.take_rows(r, w), reader.take_rows(r, k), reader.take_symmetric(r))


def reference_decode(n: int, k: int, r: int, value: int) -> list[PauliOp]:
    """Bit reader and `mul_bt` parities: D^T = A1 + A2 E^T and
    B = (A1 C1^T + A2 C2^T)^T + S0, assembled into generators."""
    m = n - k
    w = m - r
    a1, a2, e, c1, c2, s0 = reference_blocks(n, k, r, value)
    dt = _xor_rows(a1, mul_bt(a2, e)) if r else []
    d = transpose_rows(dt, w)
    nmat = _xor_rows(mul_bt(a1, c1), mul_bt(a2, c2)) if r else []
    b = _xor_rows(transpose_rows(nmat, r), s0) if r else []
    gens = [PauliOp(n, (1 << i) | (a1[i] << r) | (a2[i] << m), b[i] | (c1[i] << r) | (c2[i] << m))
            for i in range(r)]
    gens += [PauliOp(n, 0, d[j] | (1 << (r + j)) | (e[j] << m)) for j in range(w)]
    return gens


def reference_logicals(n: int, k: int, r: int, value: int) -> tuple[list[PauliOp], list[PauliOp]]:
    """The closed-form logicals X = [0 E^T I | C^T 0 0] and Z = [0 0 0 | A2^T 0 I]
    with C = C2 + C1 E, from `mul_bt` products."""
    m = n - k
    _, a2, e, c1, c2, _ = reference_blocks(n, k, r, value)
    et = transpose_rows(e, k)
    ct = transpose_rows(_xor_rows(c2, mul_bt(c1, et)), k)
    a2t = transpose_rows(a2, k)
    xs = [PauliOp(n, et[l] << r | 1 << (m + l), ct[l]) for l in range(k)]
    zs = [PauliOp(n, 0, a2t[l] | 1 << (m + l)) for l in range(k)]
    return xs, zs


def reference_candidates(n: int, k: int, rng: random.Random, count: int):
    """(r, value) of `count` draws, drawn as the sampler draws them."""
    for _ in range(count):
        r = rng.randrange(n - k + 1)
        bits = _free_bits(n, k, r)
        yield r, rng.getrandbits(bits) if bits else 0


def all_candidates(n: int, k: int):
    for r in range(n - k + 1):
        for value in range(1 << _free_bits(n, k, r)):
            yield r, value


def undetected(gens: list[PauliOp], n: int) -> list[PauliOp]:
    """The weight-1 Paulis that commute with every generator."""
    return [p for p in enumerate_paulis(n, 1) if not any(symplectic_product(p, g) for g in gens)]


def detects_directly(gens: list[PauliOp], n: int) -> bool:
    return not undetected(gens, n)


SMALL_SPACES = [(n, k) for n in (3, 4) for k in range(1, n) if k <= 3]
SAMPLED = [(n, k) for n in (5, 6, 7) for k in (1, 2, 3)]


def _check_candidate(n: int, k: int, r: int, value: int) -> None:
    """Label table, rows, detection and the closed-form basis of one candidate."""
    want = reference_decode(n, k, r, value)
    want_xs, want_zs = reference_logicals(n, k, r, value)
    labels = labels_of(n, k, r, value)
    assert labels == label_table(n, [p.x | p.z << n for p in want + want_zs + want_xs])
    gens, xs, zs = _rows(n, k, labels)
    assert gens == [(g.x, g.z) for g in want]
    assert (xs, zs) == ([(p.x, p.z) for p in want_xs], [(p.x, p.z) for p in want_zs])
    detected = labels_of(n, k, r, value, detect=True)
    assert (detected is not None) == detects_directly(want, n)
    if detected is not None:
        assert detected == labels
    code = StabilizerCode(want, [PauliOp(n, x, z) for x, z in xs],
                          [PauliOp(n, x, z) for x, z in zs])
    assert validate_code(code).ok


@pytest.mark.parametrize("n,k", SMALL_SPACES)
def test_packed_decode_matches_reference_on_every_index(n, k):
    for r, value in all_candidates(n, k):
        _check_candidate(n, k, r, value)


# The 8,712-candidate n=4, k=1 space takes ~7 s: 38 million candidates in all.
@pytest.mark.parametrize("n,k", [pytest.param(n, k, marks=pytest.mark.slow) if (n, k) == (4, 1)
                                 else (n, k) for n, k in SMALL_SPACES])
def test_exhaustive_walk_resumes_at_every_index(n, k):
    # what run_search resumes from: the walk from index i is the tail of the
    # whole scan from i, and an index past the end yields nothing
    everything = list(all_candidates(n, k))
    spec = SearchSpec(n=n, k=k, pattern=AdmissibleSet.trivial(k), mode="exhaustive")
    for i in range(len(everything) + 1):
        assert list(_candidates(spec, i)) == everything[i:]


@pytest.mark.parametrize("n,k", SAMPLED)
def test_packed_decode_matches_reference_on_sampled_indices(n, k):
    ours, ref = random.Random(n * 10 + k), random.Random(n * 10 + k)
    for r, value in reference_candidates(n, k, ref, 300):
        assert sample_generators(n, k, ours) == reference_decode(n, k, r, value)
        _check_candidate(n, k, r, value)
    assert ours.getstate() == ref.getstate()  # the sampler draws exactly as before


def test_labels_match_reference_on_draws_up_to_twelve_qubits():
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randrange(3, 13)
        k = rng.randrange(1, min(4, n))
        for r, value in reference_candidates(n, k, rng, 1):
            _check_candidate(n, k, r, value)


def _hit_under_both_bases(n, k, r, value, pattern, errors):
    """(hit under the closed-form basis, hit under the completed basis)."""
    gens, xs, zs = ([PauliOp(n, x, z) for x, z in rows] for rows in rows_of(n, k, r, value))
    closed = relabel_search(StabilizerCode(gens, xs, zs), pattern, errors)
    completed = relabel_search(StabilizerCode(gens, *complete_logical_basis(gens)),
                               pattern, errors)
    return closed is not None, completed is not None


def _patterns(k: int) -> list[AdmissibleSet]:
    z1, z2 = "Z" + "I" * (k - 1), "IZ" + "I" * (k - 2)
    return [AdmissibleSet.group_generated(k, [z1]),
            AdmissibleSet.from_strings(k, [z1, z2] if k > 1 else [z1, "X"])]


def test_hit_existence_does_not_depend_on_the_logical_basis():
    hits = checked = 0
    cases = [(n, k, all_candidates(n, k)) for n, k in SMALL_SPACES]
    cases += [(n, k, reference_candidates(n, k, random.Random(n + 7 * k), 150))
              for n, k in SAMPLED if n < 7]
    for n, k, candidates in cases:
        errors = errors_up_to_weight(n, 1)
        for r, value in candidates:
            if labels_of(n, k, r, value, detect=True) is None:
                continue
            for pattern in _patterns(k):
                closed, completed = _hit_under_both_bases(n, k, r, value, pattern, errors)
                assert closed == completed
                hits += closed
                checked += 1
    assert checked > 500 and hits > 20


def test_packed_relabel_decision_matches_relabel_search():
    # run_search decides relabeling from the candidate's packed label table;
    # relabel_search decides it on the code built under the closed-form basis
    hits = checked = 0
    cases = [(n, k, all_candidates(n, k)) for n, k in SMALL_SPACES]
    cases += [(n, k, reference_candidates(n, k, random.Random(n + 7 * k), 150))
              for n, k in SAMPLED if n < 7]
    for n, k, candidates in cases:
        errors = ErrorBall(n, 1)
        for r, value in candidates:
            labels = labels_of(n, k, r, value, detect=True)
            if labels is None:
                continue
            gens, xs, zs = ([PauliOp(n, x, z) for x, z in rows] for rows in _rows(n, k, labels))
            for pattern in _patterns(k):
                want = relabel_search(StabilizerCode(gens, xs, zs), pattern, errors) is not None
                assert _relabels(n, k, labels, pattern, errors) == want
                hits += want
                checked += 1
    assert checked > 500 and hits > 20


@pytest.mark.parametrize("seed,want", [(2, (29, 1)), (8, (26, 2)), (20, (19, 2)),
                                       (33, (22, 2))])
def test_fixed_n6_seeds_find_their_hits_under_both_bases(seed, want):
    pattern = AdmissibleSet.from_strings(2, ["ZI", "IZ"])
    errors = errors_up_to_weight(6, 1)
    detected = hits = 0
    for r, value in reference_candidates(6, 2, random.Random(seed), 125):
        if labels_of(6, 2, r, value, detect=True) is None:
            continue
        detected += 1
        closed, completed = _hit_under_both_bases(6, 2, r, value, pattern, errors)
        assert closed == completed
        hits += closed
    assert (detected, hits) == want
    spec = SearchSpec(n=6, k=2, pattern=pattern, seed=seed, budget=125, limit=125)
    out = run_search(spec)
    assert (out.detection_passed, len(out.found)) == want


def test_masks_refuse_before_any_block_is_read_and_hits_alone_build_rows(monkeypatch):
    # A candidate that misses a Z error, or an X or Y error on qubits m.., is
    # refused from column masks alone; only X and Y errors on qubits i < r
    # need the blocks. Only a hit is turned back into generator rows.
    calls = Counter()

    def counted(name):
        inner = getattr(qtransmute.search, name)

        def call(*args):
            calls[name] += 1
            return inner(*args)
        return call

    for name in ("_take", "transpose_rows", "_rows"):
        monkeypatch.setattr(qtransmute.search, name, counted(name))
    early = late = 0
    cases = [(4, 2, all_candidates(4, 2)), (6, 2, reference_candidates(6, 2, random.Random(8), 300))]
    for n, k, candidates in cases:
        for r, value in candidates:
            missed = undetected(reference_decode(n, k, r, value), n)
            calls.clear()
            labels = labels_of(n, k, r, value, detect=True)
            assert (labels is None) == bool(missed)
            if any(p.z >> r or p.x >> (n - k) for p in missed):
                assert calls["_take"] == calls["transpose_rows"] == 0
                early += 1
            elif missed:
                late += 1
    assert early > 1000 and late > 100
    calls.clear()
    spec = SearchSpec(n=6, k=2, pattern=BOTH_PHASES, seed=8, budget=125, limit=125)
    out = run_search(spec)
    assert (out.detection_passed, len(out.found)) == (26, 2)
    assert calls["_rows"] == 2


def test_basis_completion_runs_once_per_hit(monkeypatch):
    calls = []

    def counted(generators):
        calls.append(generators)
        return complete_logical_basis(generators)

    monkeypatch.setattr(qtransmute.search, "complete_logical_basis", counted)
    spec = SearchSpec(n=6, k=2, pattern=BOTH_PHASES, seed=8, budget=125, limit=125)
    out = run_search(spec)
    assert out.detection_passed == 26
    assert len(out.found) == len(calls) == 2
    assert [c.generators for c, _ in out.found] == calls


def test_codes_are_built_for_hits_only(monkeypatch):
    built = []

    def counted(generators, logical_x, logical_z):
        built.append(generators)
        return StabilizerCode(generators, logical_x, logical_z)

    monkeypatch.setattr(qtransmute.search, "StabilizerCode", counted)
    spec = SearchSpec(n=6, k=2, pattern=BOTH_PHASES, seed=8, budget=125, limit=125)
    out = run_search(spec)
    assert (out.detection_passed, len(out.found)) == (26, 2)
    hits = [c.generators for c, _ in out.found]
    # each hit is replayed under its closed-form basis, then built under the completed one
    assert built == [hits[0], hits[0], hits[1], hits[1]]


def test_a_hit_under_one_basis_only_is_refused(monkeypatch):
    completed = []  # relabeling finds nothing once the basis has been completed

    def complete(generators):
        completed.append(generators)
        return complete_logical_basis(generators)

    monkeypatch.setattr(qtransmute.search, "complete_logical_basis", complete)
    monkeypatch.setattr(qtransmute.search, "relabel_search",
                        lambda *args: None if completed else relabel_search(*args))
    spec = SearchSpec(n=6, k=2, pattern=BOTH_PHASES, seed=8, budget=125, limit=125)
    with pytest.raises(AssertionError, match="closed-form basis only"):
        run_search(spec)
    assert len(completed) == 1


def test_spec_refuses_k_above_three_before_any_candidate():
    with pytest.raises(ValueError, match="relabeling is limited to k <= 3, got k=4"):
        SearchSpec(n=8, k=4, pattern=AdmissibleSet.from_strings(4, ["ZIII"]), budget=3000)


# -- scan positions across the r blocks: n=5, k=2 blocks start at 0, 64, 8,256
# and 139,328, and the space ends at 401,472 -----------------------------------


@pytest.mark.parametrize("pattern", [PHASE1, BOTH_PHASES], ids=["ZI", "ZI,IZ"])
@pytest.mark.parametrize("start,budget,want", [
    (8_156, 200, (200, 5, 8_356, False)),
    (139_228, 200, (200, 32, 139_428, False)),
    (401_400, 100, (72, 6, 401_472, True)),
])
def test_exhaustive_window_across_block_starts(pattern, start, budget, want):
    spec = SearchSpec(n=5, k=2, pattern=pattern, mode="exhaustive", budget=budget, limit=10 ** 9)
    out = run_search(spec, start_index=start)
    assert (out.examined, out.detection_passed, out.next_index, out.exhausted) == want
    assert out.found == []


def test_resume_from_a_checkpoint_inside_a_block(tmp_path):
    spec = SearchSpec(n=5, k=2, pattern=PHASE1, mode="exhaustive", budget=300, limit=10 ** 9)
    path = str(tmp_path / "scan.json")
    write_checkpoint(path, spec, SearchOutcome(next_index=70_000))  # inside the r = 2 block
    out = run_search(spec, start_index=read_checkpoint(path, spec))
    assert (out.examined, out.detection_passed, out.next_index, out.exhausted) == \
        (300, 51, 70_300, False)
    assert out.found == []
    write_checkpoint(path, spec, out)
    assert read_checkpoint(path, spec) == 70_300
