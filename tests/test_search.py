import random
from itertools import combinations

import pytest

from qtransmute.pauli import enumerate_paulis, errors_up_to_weight, symplectic_product
from qtransmute.qet import AdmissibleSet, check_general_qet
from qtransmute.search import (SearchSpec, detects_single_errors,
                               generators_from_index, parameter_space_size,
                               run_search, sample_generators)
from qtransmute.stabilizer import StabilizerCode, complete_logical_basis, validate_code

PHASE1 = AdmissibleSet.group_generated(2, ["ZI"])
BOTH_PHASES = AdmissibleSet.from_strings(2, ["ZI", "IZ"])


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
    size = parameter_space_size(n, k)
    seen = set()
    for idx in range(size):
        gens = generators_from_index(n, k, idx)
        for a, b in combinations(gens, 2):
            assert symplectic_product(a, b) == 0
        seen.add(tuple((g.x, g.z) for g in gens))
    assert len(seen) == size  # distinct parameters give distinct codes


def test_detection_filter_matches_direct_check():
    rng = random.Random(5)
    for _ in range(50):
        gens = sample_generators(6, 2, rng)
        code_check = all(
            any(symplectic_product(p, g) for g in gens)
            for p in enumerate_paulis(6, 1))
        assert detects_single_errors(gens, 6) == code_check


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


def test_exhaustive_n4_finds_no_table2_predicate_match():
    # the n=4 slice of the nonexistence scan; n=5 runs in the slow acceptance test
    spec = SearchSpec(n=4, k=2, pattern=BOTH_PHASES, error_weight=1,
                      mode="exhaustive", seed=0, budget=10 ** 9, limit=1)
    out = run_search(spec)
    assert out.exhausted
    assert out.found == []
