import random
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtransmute.catalog import table1_code
from qtransmute.errors import CodeConstructionError, DimensionMismatch, ParseError
from qtransmute.pauli import (PauliOp, enumerate_paulis, identity, multiply,
                              parse_pauli, render, weight)
from qtransmute.search import sample_generators
from qtransmute.stabilizer import (LogicalClass, StabilizerCode, code_distance,
                                   complete_logical_basis, dumps, loads,
                                   logical_class, min_weight_in_class,
                                   scan_zero_syndrome, standard_form, syndrome,
                                   validate_code)


def all_paulis(n):
    for letters in product("IXYZ", repeat=n):
        yield parse_pauli("".join(letters))


def stabilizer_elements(code):
    """Every product of generators, by explicit subgroup enumeration."""
    elems = {(0, 0)}
    for g in code.generators:
        elems |= {(x ^ g.x, z ^ g.z) for (x, z) in elems}
    return elems


def test_table_codes_validate(table1, table2):
    assert validate_code(table1).ok
    assert validate_code(table2).ok


def test_duplicated_generator_fails_rank(table1):
    gens = table1.generators[:4] + [table1.generators[0]]
    bad = StabilizerCode(gens, table1.logical_x, table1.logical_z)
    diag = validate_code(bad)
    assert not diag.ok
    assert any("dependent" in p for p in diag.problems)


def test_syndrome_identity_zero(table1):
    assert syndrome(table1, identity(7)) == 0


def test_syndrome_rejects_other_qubit_count(table1):
    with pytest.raises(DimensionMismatch):
        syndrome(table1, identity(6))


def test_single_errors_detected(table1, table2):
    assert all(syndrome(table1, p) for p in enumerate_paulis(7, 1))
    assert all(syndrome(table2, p) for p in enumerate_paulis(6, 1))


def test_syndrome_homomorphism(table1):
    rng = random.Random(3)
    for _ in range(200):
        a = PauliOp(7, rng.getrandbits(7), rng.getrandbits(7))
        b = PauliOp(7, rng.getrandbits(7), rng.getrandbits(7))
        assert (syndrome(table1, multiply(a, b))
                == syndrome(table1, a) ^ syndrome(table1, b))
        assert syndrome(table1, a) == table1.syndrome_bits(a.x, a.z)


def test_logical_class_golden(table1, table2):
    # the four weight-2 undetected errors all realize the first logical phase flip
    z1 = logical_class(table1, table1.logical_z[0])
    for s in ("ZZIIIII", "IIZZIII", "IIIIZZI", "IIIIZIZ"):
        assert logical_class(table1, parse_pauli(s)) == z1
    # six-qubit code: the paired products from the low-qubit example
    z1b = logical_class(table2, table2.logical_z[0])
    z2b = logical_class(table2, table2.logical_z[1])
    assert logical_class(table2, parse_pauli("ZZIIII")) == z1b
    assert logical_class(table2, parse_pauli("IIZZII")) == z1b
    assert logical_class(table2, parse_pauli("IIIIZZ")) == z1b
    assert logical_class(table2, parse_pauli("IIIIXX")) == z2b
    assert logical_class(table2, parse_pauli("IIIIYY")) == z1b ^ z2b


def test_generators_have_zero_class(table1):
    for g in table1.generators:
        assert logical_class(table1, g).is_trivial()


def test_logical_class_rejects_detected_errors(table1):
    with pytest.raises(ValueError):
        logical_class(table1, parse_pauli("XIIIIII"))


def test_class_vanishes_exactly_on_stabilizer(table1):
    elems = stabilizer_elements(table1)
    seen = 0
    for p in all_paulis(7):
        if syndrome(table1, p):
            continue
        seen += 1
        cls = logical_class(table1, p)
        assert cls.is_trivial() == ((p.x, p.z) in elems)
    assert seen == 2 ** 5 * 2 ** 4  # |S| * |logical group|


def test_weight2_normalizer_elements(table1, table2):
    w2_t1 = sorted(render(p) for p in enumerate_paulis(7, 2)
                   if weight(p) == 2 and syndrome(table1, p) == 0
                   and not table1.contains_stabilizer(p))
    assert w2_t1 == sorted(["ZZIIIII", "IIZZIII", "IIIIZZI", "IIIIZIZ"])
    w2_t2 = sorted(render(p) for p in enumerate_paulis(6, 2)
                   if weight(p) == 2 and syndrome(table2, p) == 0
                   and not table2.contains_stabilizer(p))
    assert w2_t2 == sorted(["ZZIIII", "IIZZII", "IIIIZZ", "IIIIXX", "IIIIYY"])


def test_standard_form_table1(table1):
    sf = standard_form(table1.generators)
    assert sf.k == 2
    assert validate_code(sf).ok
    again = standard_form(table1.generators)
    assert again.generators == sf.generators
    assert again.logical_x == sf.logical_x


def test_standard_form_k0():
    sf = standard_form([parse_pauli("Z")])
    assert sf.k == 0
    assert validate_code(sf).ok


def test_standard_form_five_qubit(five_qubit):
    sf = standard_form(five_qubit.generators)
    assert sf.k == 1
    assert validate_code(sf).ok


def test_standard_form_rejects_bad_input(table1):
    with pytest.raises(CodeConstructionError):
        standard_form([parse_pauli("X"), parse_pauli("Z")])
    with pytest.raises(CodeConstructionError):
        standard_form(table1.generators + [table1.generators[0]])


def test_code_distance_tables(table1, table2):
    assert code_distance(table1, 7).value == 2
    assert code_distance(table2, 6).value == 2


def test_adjoined_code_distance(table1):
    adj = standard_form(table1.generators + [table1.logical_z[0]])
    assert adj.k == 1
    assert code_distance(adj, 7).value == 3


def _brute_force_distance(code):
    elems = stabilizer_elements(code)
    best = None
    for p in all_paulis(code.n):
        if p.is_identity() or syndrome(code, p):
            continue
        if (p.x, p.z) in elems:
            continue
        w = weight(p)
        best = w if best is None else min(best, w)
    return best


def test_distance_matches_brute_force(five_qubit, table2):
    result = code_distance(five_qubit, 5)
    assert result.exact and result.value == _brute_force_distance(five_qubit) == 3
    result = code_distance(table2, 6)
    assert result.exact and result.value == _brute_force_distance(table2) == 2


def test_distance_cap_marker(five_qubit):
    result = code_distance(five_qubit, 2)
    assert not result.exact
    assert result.value == 3  # cap + 1 as a lower bound


def test_min_weight_in_trivial_class(table1):
    assert min_weight_in_class(table1, LogicalClass(2, 0), 7).value == 0


def test_min_weight_pure_restriction(table1):
    z1 = logical_class(table1, table1.logical_z[0])
    pure = min_weight_in_class(table1, z1, 7, pure="z")
    assert pure.exact and pure.value == 2


def test_file_round_trip(table1):
    text = dumps(table1)
    back = loads(text)
    assert back.generators == table1.generators
    assert back.logical_x == table1.logical_x
    assert back.logical_z == table1.logical_z


def test_file_without_logicals_completes(table1):
    text = "7 2\n" + "\n".join(render(g) for g in table1.generators) + "\n"
    code = loads(text)
    assert code.generators == table1.generators
    assert validate_code(code).ok


def test_file_with_single_section_seeds_completion(table1):
    base = "7 2\n" + "\n".join(render(g) for g in table1.generators) + "\n"
    xl_only = base + "XL\n" + "\n".join(render(p) for p in table1.logical_x) + "\n"
    code = loads(xl_only)
    assert code.logical_x == table1.logical_x
    assert validate_code(code).ok
    zl_only = base + "ZL\n" + "\n".join(render(p) for p in table1.logical_z) + "\n"
    code = loads(zl_only)
    assert code.logical_z == table1.logical_z
    assert validate_code(code).ok


def test_file_comments_ignored(table1):
    text = "# a table code\n" + dumps(table1)
    assert loads(text).generators == table1.generators


@pytest.mark.parametrize("text,fragment", [
    ("", "empty"),
    ("7\nXX\n", "n k"),
    ("2 1\nXXX\n", "expected 2"),
    ("2 0\nXX\nZZ\nXY\n", "trailing"),
    ("2 1\nXQ\n", "invalid Pauli"),
    ("3 1\nXII\nZII\n", "generators 0 and 1 anticommute"),
    ("3 1\nXII\nZII\nXL\nIXI\nZL\nIZI\n", "generators 0 and 1 anticommute"),
    ("3 1\nXII\nXII\n", "dependent"),
    ("3 1\nXII\nXII\nXL\nIXI\nZL\nIZI\n", "dependent"),
    ("2 1\nZZ\nXL\nXI\n", "outside N(S)"),
    ("2 1\nZZ\nXL\nXI\nZL\nZZ\n", "logical X1 anticommutes with generator 0"),
    ("3 1\nZZI\nIZZ\nXL\nXXX\nZL\nXXX\n", "bad pairing: X1 vs Z1"),
])
def test_file_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        loads(text)
    assert fragment in str(err.value)


def test_seeded_completion_rejects_bad_seeds(table1):
    with pytest.raises(CodeConstructionError):
        complete_logical_basis(table1.generators,
                               seed_x=[parse_pauli("XIIIIII")])  # outside N(S)
    with pytest.raises(CodeConstructionError):
        complete_logical_basis(table1.generators,
                               seed_x=[table1.generators[0]])  # in S


def test_seeded_completion_keeps_seed(table1):
    seed = table1.logical_x[0]
    xs, zs = complete_logical_basis(table1.generators, seed_x=[seed])
    assert xs[0] == seed
    assert validate_code(StabilizerCode(table1.generators, xs, zs)).ok


# -- the zero-syndrome enumerator -------------------------------------------------


def test_min_weight_rejects_negative_cap(table1):
    with pytest.raises(ValueError, match="cap"):
        min_weight_in_class(table1, None, -1)


def test_scan_rejects_unknown_pure(table1):
    with pytest.raises(ValueError, match="pure"):
        scan_zero_syndrome(table1, 2, lambda x, z: None, pure="X")
    with pytest.raises(ValueError, match="pure"):
        min_weight_in_class(table1, None, 3, pure="X")


def _in_scan_order(n, w, pure):
    """Every Pauli of exact weight w, ordered by its (qubit, letter) sequence."""
    letters = {None: "XYZ", "x": "X", "z": "Z"}[pure]
    out = []
    for support in combinations(range(n), w):
        for assign in product(letters, repeat=w):
            x = sum(1 << q for q, a in zip(support, assign) if a != "Z")
            z = sum(1 << q for q, a in zip(support, assign) if a != "X")
            out.append((tuple(zip(support, assign)), (x, z)))
    return [xz for _, xz in sorted(out)]


def _free_code(n):
    """k = n: no generators, so every Pauli has zero syndrome."""
    return StabilizerCode([], [PauliOp(n, 1 << q, 0) for q in range(n)],
                          [PauliOp(n, 0, 1 << q) for q in range(n)])


@pytest.mark.parametrize("pure", [None, "x", "z"])
@pytest.mark.parametrize("w", [1, 2, 3, 7])
@pytest.mark.parametrize("code", [table1_code(), _free_code(5)], ids=["table1", "free5"])
def test_scan_visits_every_zero_syndrome_pauli_in_order(code, w, pure):
    seen = []
    assert scan_zero_syndrome(code, w, lambda x, z: seen.append((x, z)), pure) is False
    assert seen == [(x, z) for x, z in _in_scan_order(code.n, w, pure)
                    if code.syndrome_bits(x, z) == 0]


def test_scan_stops_at_first_truthy_visit(table1):
    everything = []
    scan_zero_syndrome(table1, 3, lambda x, z: everything.append((x, z)))
    assert len(everything) > 3
    seen = []

    def visit(x, z):
        seen.append((x, z))
        return len(seen) == 3

    assert scan_zero_syndrome(table1, 3, visit) is True
    assert seen == everything[:3]
    assert scan_zero_syndrome(table1, 0, visit) is False
    assert scan_zero_syndrome(table1, 8, visit) is False


def _random_small_code(rng, n, k):
    """standard_form of sampled standard-form generators on shuffled qubits."""
    perm = list(range(n))
    rng.shuffle(perm)

    def shuffle(bits):
        return sum(1 << perm[q] for q in range(n) if (bits >> q) & 1)

    gens = [PauliOp(n, shuffle(g.x), shuffle(g.z)) for g in sample_generators(n, k, rng)]
    return standard_form(gens)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), k=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_seeded_completion_on_random_codes(n, k, seed):
    # Seeds are logical X operators mixed with later ones and with random
    # stabilizer elements, so solving for their Z partners uses the kernel.
    assume(k < n)
    rng = random.Random(seed)
    code = _random_small_code(rng, n, k)
    seeds = []
    for i in range(rng.randint(1, k)):
        x = z = 0
        for op in [code.logical_x[i]] + [g for g in code.logical_x[i + 1:] + code.generators
                                         if rng.random() < 0.5]:
            x, z = x ^ op.x, z ^ op.z
        seeds.append(PauliOp(n, x, z))
    xs, zs = complete_logical_basis(code.generators, seed_x=seeds)
    assert xs[:len(seeds)] == seeds
    assert validate_code(StabilizerCode(code.generators, xs, zs)).ok
    assert complete_logical_basis(code.generators, seed_x=seeds) == (xs, zs)


def _brute_minima(code):
    """Least weights over all 4^n Paulis, keyed by (pure, class) for class
    targets and (pure, None) for N(S) minus S."""
    best = {}
    n = code.n
    for x in range(1 << n):
        for z in range(1 << n):
            if (x, z) == (0, 0) or code.syndrome_bits(x, z):
                continue
            w = (x | z).bit_count()
            keys = [code.class_bits(x, z)]
            if not code.in_stabilizer_bits(x, z):
                keys.append(None)
            pures = [None] + (["x"] if z == 0 else []) + (["z"] if x == 0 else [])
            for pure in pures:
                for key in keys:
                    best[pure, key] = min(w, best.get((pure, key), w))
    return best


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), k=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_min_weight_matches_brute_force_on_random_codes(n, k, seed):
    assume(k < n)
    code = _random_small_code(random.Random(seed), n, k)
    best = _brute_minima(code)
    for pure in (None, "x", "z"):
        for target in [None] + list(range(1, 1 << (2 * k))):
            result = min_weight_in_class(code, target, n, pure=pure)
            want = best.get((pure, target))
            if want is None:
                assert (result.value, result.exact) == (n + 1, False)
            else:
                assert (result.value, result.exact) == (want, True)
            capped = min_weight_in_class(code, target, n - 1, pure=pure)
            assert capped.exact == (want is not None and want <= n - 1)
