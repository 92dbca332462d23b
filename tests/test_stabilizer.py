import gc
import random
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtransmute import stabilizer
from qtransmute.catalog import resolve, table1_code
from qtransmute.errors import CodeConstructionError, ParseError
from qtransmute.f2 import (BitMatrix, F2Span, fold, kernel_basis, mul_bt, rref, solve,
                           symplectic)
from qtransmute.pauli import (PauliOp, enumerate_paulis, parse_pauli, render,
                              symplectic_product)
from qtransmute.qet import deff_lower_bound
from qtransmute.search import sample_generators
from qtransmute.transforms import concatenate
from qtransmute.stabilizer import (_PURE_LETTERS, StabilizerCode, _sym_vec, _unpack,
                                   class_bits_to_string, code_distance, complete_logical_basis,
                                   dumps, loads, min_weight_in_class, scan_zero_syndrome,
                                   standard_form, validate_code)


def all_paulis(n):
    for letters in product("IXYZ", repeat=n):
        yield parse_pauli("".join(letters))


def stabilizer_elements(code):
    """Every product of generators, by explicit subgroup enumeration."""
    elems = {(0, 0)}
    for g in code.generators:
        elems |= {(x ^ g.x, z ^ g.z) for (x, z) in elems}
    return elems


def per_letter_class_string(k, bits):
    """class_bits_to_string as it was: one letter per logical qubit."""
    return "".join("IXZY"[((bits >> i) & 1) + 2 * ((bits >> (k + i)) & 1)] for i in range(k))


@settings(max_examples=300, deadline=None)
@given(k=st.integers(0, 130), data=st.data())
def test_class_bits_render_as_the_per_letter_reference(k, data):
    bits = data.draw(st.integers(0, (1 << 2 * k) - 1))
    assert class_bits_to_string(k, bits) == per_letter_class_string(k, bits)


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
    assert table1.syndrome_bits(0, 0) == 0


def test_single_errors_detected(table1, table2):
    assert all(table1.syndrome_bits(p.x, p.z) for p in enumerate_paulis(7, 1))
    assert all(table2.syndrome_bits(p.x, p.z) for p in enumerate_paulis(6, 1))


def test_syndrome_homomorphism(table1):
    rng = random.Random(3)
    for _ in range(200):
        ax, az, bx, bz = (rng.getrandbits(7) for _ in range(4))
        assert (table1.syndrome_bits(ax ^ bx, az ^ bz)
                == table1.syndrome_bits(ax, az) ^ table1.syndrome_bits(bx, bz))


def class_of_logical(code, s):
    """Class bits of a Pauli string, which must have zero syndrome."""
    p = parse_pauli(s)
    assert code.syndrome_bits(p.x, p.z) == 0
    return code.class_bits(p.x, p.z)


def test_logical_class_golden(table1, table2):
    # the four weight-2 undetected errors all realize the first logical phase flip
    z1 = table1.class_bits(table1.logical_z[0].x, table1.logical_z[0].z)
    for s in ("ZZIIIII", "IIZZIII", "IIIIZZI", "IIIIZIZ"):
        assert class_of_logical(table1, s) == z1
    # six-qubit code: the paired products from the low-qubit example
    z1b, z2b = (table2.class_bits(p.x, p.z) for p in table2.logical_z)
    assert class_of_logical(table2, "ZZIIII") == z1b
    assert class_of_logical(table2, "IIZZII") == z1b
    assert class_of_logical(table2, "IIIIZZ") == z1b
    assert class_of_logical(table2, "IIIIXX") == z2b
    assert class_of_logical(table2, "IIIIYY") == z1b ^ z2b


def test_generators_have_zero_class(table1):
    for g in table1.generators:
        assert table1.syndrome_bits(g.x, g.z) == 0
        assert table1.class_bits(g.x, g.z) == 0


def test_class_vanishes_exactly_on_stabilizer(table1):
    elems = stabilizer_elements(table1)
    seen = 0
    for p in all_paulis(7):
        if table1.syndrome_bits(p.x, p.z):
            continue
        seen += 1
        cls = table1.class_bits(p.x, p.z)
        assert (cls == 0) == ((p.x, p.z) in elems)
    assert seen == 2 ** 5 * 2 ** 4  # |S| * |logical group|


def test_weight2_normalizer_elements(table1, table2):
    w2_t1 = sorted(render(p) for p in enumerate_paulis(7, 2)
                   if (p.x | p.z).bit_count() == 2 and table1.syndrome_bits(p.x, p.z) == 0
                   and not table1.in_stabilizer_bits(p.x, p.z))
    assert w2_t1 == sorted(["ZZIIIII", "IIZZIII", "IIIIZZI", "IIIIZIZ"])
    w2_t2 = sorted(render(p) for p in enumerate_paulis(6, 2)
                   if (p.x | p.z).bit_count() == 2 and table2.syndrome_bits(p.x, p.z) == 0
                   and not table2.in_stabilizer_bits(p.x, p.z))
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
        if not (p.x | p.z) or code.syndrome_bits(p.x, p.z):
            continue
        if (p.x, p.z) in elems:
            continue
        w = (p.x | p.z).bit_count()
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
    assert min_weight_in_class(table1, 0, 7).value == 0


@pytest.mark.parametrize("target", [-1, 16, 99])
def test_min_weight_rejects_class_bits_beyond_2k(table1, target):
    with pytest.raises(ValueError, match="exceed 2k = 4"):
        min_weight_in_class(table1, target, 7)


@pytest.mark.parametrize("bits", [-1, 1 << 4, 99])
def test_class_representative_rejects_class_bits_beyond_2k(table1, bits):
    with pytest.raises(ValueError, match="exceed 2k = 4"):
        table1.class_representative(bits)


def test_min_weight_pure_restriction(table1):
    z1 = table1.class_bits(table1.logical_z[0].x, table1.logical_z[0].z)
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


@pytest.mark.parametrize("text,message", [
    ("", "empty code file"),
    ("7\nXX\n", "header must be 'n k' at line 1"),
    ("a b\n", "header must contain two integers at line 1"),
    ("2 3\n", "invalid parameters n=2, k=3 at line 1"),
    ("0 0\n", "invalid parameters n=0, k=0 at line 1"),
    ("2 1\n", "expected 1 generator lines, found 0"),
    ("3 1\nXII\n", "expected 2 generator lines, found 1"),
    ("2 1\nXXX\n", "generator has 3 letters, expected 2 at line 2"),
    ("# a comment\n\n2 1\nXXX\n", "generator has 3 letters, expected 2 at line 4"),
    ("2 1\nZZ\nXL\n", "XL section needs 1 lines"),
    ("2 1\nZZ\nZL\n", "ZL section needs 1 lines"),
    ("2 1\nZZ\nXL\nXX\nZL\n", "ZL section needs 1 lines"),
    ("2 1\nZZ\nXL\nXXX\n", "operator has 3 letters, expected 2 at line 4"),
    ("2 1\nZZ\nXL\nXX\nZL\nZ\n", "operator has 1 letters, expected 2 at line 6"),
    ("2 0\nXX\nZZ\nXY\n", "unexpected trailing content at line 4"),
    ("2 1\nZZ\nZL\nZZ\nXL\nXX\n", "unexpected trailing content at line 5"),
    ("2 1\nZZ\nXL\nXX\nXL\nXX\n", "unexpected trailing content at line 5"),
    ("2 1\nXQ\n", "invalid Pauli letter 'Q' at line 2, position 1"),
    ("3 1\nXII\nZII\n", "invalid code: generators 0 and 1 anticommute"),
    ("3 1\nXII\nZII\nXL\nIXI\nZL\nIZI\n", "invalid code: generators 0 and 1 anticommute"),
    ("3 1\nXII\nXII\n", "invalid code: generators are dependent"),
    ("3 1\nXII\nXII\nXL\nIXI\nZL\nIZI\n", "invalid code: generators dependent: rank 1 < 2"),
    ("2 1\nZZ\nXL\nXI\n", "invalid code: seed operator is outside N(S)"),
    ("2 1\nZZ\nXL\nXI\nZL\nZZ\n", "invalid code: logical X1 anticommutes with generator 0"),
    ("3 1\nZZI\nIZZ\nXL\nXXX\nZL\nXXX\n",
     "invalid code: bad pairing: X1 vs Z1 (expected anticommuting)"),
])
def test_file_parse_error_messages(text, message):
    # every message loads raises, word for word, line numbers included
    with pytest.raises(ParseError) as err:
        loads(text)
    assert str(err.value) == message


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


def test_scan_leaves_no_cycle_behind():
    # The scan's recursion is module-level, so its suffix table and frames are
    # freed when it returns, not when the cyclic collector next runs.
    cc = resolve("toric:4")
    deff_lower_bound(cc.code, cc.admissible, 4)  # builds the code's lazy tables
    gc.collect()
    gc.disable()
    try:
        assert deff_lower_bound(cc.code, cc.admissible, 4).value == 4
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.slow
def test_toric7_class_distance_over_all_letters_is_exact_under_a_memory_bound():
    # With all three letters, the weight-6 and weight-7 scans each hold one
    # table of weight-3 suffixes; only the 641,726 of them that some prefix
    # could cancel are kept. The whole search ran 92 s in a 567 MB process
    # when every suffix was kept; it now runs ~12 s. Tracing it all would take
    # ~3 min, so the peak is read from a weight-7 scan stopped at its first
    # visit, which has built the same table: 73.1 MiB here (Python 3.11).
    code = resolve("toric:7").code
    z1 = 1 << code.k
    result = min_weight_in_class(code, z1, 7)
    assert (result.value, result.exact) == (7, True)
    scan_zero_syndrome(code, 7, lambda x, z: True)  # build the code's scan tables
    tracemalloc.start()
    try:
        assert scan_zero_syndrome(code, 7, lambda x, z: True) is True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100 * 2 ** 20


def _random_small_code(rng, n, k):
    """standard_form of sampled standard-form generators on shuffled qubits."""
    perm = list(range(n))
    rng.shuffle(perm)

    def shuffle(bits):
        return sum(1 << perm[q] for q in range(n) if (bits >> q) & 1)

    gens = [PauliOp(n, shuffle(g.x), shuffle(g.z)) for g in sample_generators(n, k, rng)]
    return standard_form(gens)


def _random_seeds(rng, code):
    """1..k valid seeds: logical X operators mixed with later ones and with
    random stabilizer elements, so solving for their Z partners uses the kernel."""
    seeds = []
    for i in range(rng.randint(1, code.k)):
        x = z = 0
        for op in [code.logical_x[i]] + [g for g in code.logical_x[i + 1:] + code.generators
                                         if rng.random() < 0.5]:
            x, z = x ^ op.x, z ^ op.z
        seeds.append(PauliOp(code.n, x, z))
    return seeds


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), k=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_seeded_completion_on_random_codes(n, k, seed):
    assume(k < n)
    rng = random.Random(seed)
    code = _random_small_code(rng, n, k)
    seeds = _random_seeds(rng, code)
    xs, zs = complete_logical_basis(code.generators, seed_x=seeds)
    assert xs[:len(seeds)] == seeds
    assert validate_code(StabilizerCode(code.generators, xs, zs)).ok
    assert complete_logical_basis(code.generators, seed_x=seeds) == (xs, zs)


def _sym_twist(p: PauliOp) -> int:
    """Row whose dot with a packed vector gives the symplectic product with p:
    the helper that the reference copies below were written against."""
    return p.z | (p.x << p.n)


def _reference_basis(generators, seed_x, n):
    """complete_logical_basis for valid inputs as it was written before the
    corrected kernel rows were kept: every round corrects every kernel row
    against every pair chosen so far."""
    k = n - len(generators)
    gen_rows = rref(BitMatrix(tuple(_sym_vec(g) for g in generators), 2 * n))
    kern = kernel_basis(BitMatrix(tuple(_sym_twist(g) for g in generators), 2 * n))
    xs = [_sym_vec(p) for p in seed_x]
    constraints = BitMatrix(tuple(mul_bt([_sym_twist(p) for p in seed_x], kern.rows)),
                            kern.nrows)
    zs = []
    for i in range(len(xs)):
        z = fold(kern.rows, solve(constraints, 1 << i))
        for l in range(i):
            if symplectic(z, zs[l], n):
                z ^= xs[l]
        zs.append(z)
    while len(xs) < k:
        span = F2Span(gen_rows.reduced.rows)
        pool = []
        for v in kern.rows:
            for x, z in zip(xs, zs):
                if symplectic(v, z, n):
                    v ^= x
                if symplectic(v, x, n):
                    v ^= z
            if span.insert(v):
                pool.append(v)
        a = pool[0]
        b = next(c for c in pool[1:] if symplectic(a, c, n))
        xs.append(a)
        zs.append(b)
    return [_unpack(v, n) for v in xs], [_unpack(v, n) for v in zs]


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 8), k=st.integers(1, 4), seeded=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_completion_matches_reference_on_random_codes(n, k, seeded, seed):
    assume(k < n)
    rng = random.Random(seed)
    code = _random_small_code(rng, n, k)
    seeds = _random_seeds(rng, code) if seeded else []
    assert (complete_logical_basis(code.generators, seed_x=seeds, n=n)
            == _reference_basis(code.generators, seeds, n))


@pytest.mark.parametrize("spec", ["compact:8", "eq20-lattice:6x6"])
def test_completion_matches_reference_on_catalog_codes(spec):
    code = resolve(spec).code
    for seeds in ([], code.logical_x[:3]):
        assert (complete_logical_basis(code.generators, seed_x=seeds)
                == _reference_basis(code.generators, seeds, code.n))


# -- basis completion as it was when each pair rebuilt the span ------------------
#
# Copied verbatim from stabilizer.complete_logical_basis as it was when every
# logical pair it added built a new span of the generator rows and re-inserted
# the kernel rows up to the pair's partner. The one-pass completion must give
# the same operators, or raise the same message, on every input.


def span_per_pair_completion(
    generators: list[PauliOp],
    seed_x: list[PauliOp] | None = None,
    n: int | None = None,
) -> tuple[list[PauliOp], list[PauliOp]]:
    """Extend seed X operators to a full logical basis (X_i, Z_i) for the stabilizer.

    Seeds must commute with the generators and among themselves, and be
    independent modulo the stabilizer. Deterministic for fixed inputs.
    """
    seed_x = list(seed_x or [])
    if n is None:
        if not generators and not seed_x:
            raise CodeConstructionError("cannot infer the qubit count: pass n")
        n = (generators or seed_x)[0].n
    k = n - len(generators)
    if len(seed_x) > k:
        raise CodeConstructionError(f"more seeds than logical qubits (k={k})")

    gen_rows = rref(BitMatrix(tuple(_sym_vec(g) for g in generators), 2 * n))
    if gen_rows.rank < len(generators):
        raise CodeConstructionError("generators are dependent")
    kern = kernel_basis(BitMatrix(tuple(_sym_twist(g) for g in generators), 2 * n))

    xs = [_sym_vec(p) for p in seed_x]
    for v in xs:
        if any(symplectic(_sym_vec(g), v, n) for g in generators):
            raise CodeConstructionError("seed operator is outside N(S)")
    for i, j in combinations(range(len(xs)), 2):
        if symplectic(xs[i], xs[j], n):
            raise CodeConstructionError(f"seed X operators {i} and {j} anticommute")
    seed_span = F2Span(gen_rows.reduced.rows)
    for v in xs:
        if not seed_span.insert(v):
            raise CodeConstructionError("seed operators are dependent modulo the stabilizer")

    # Solve for the Z partners: symplectic(x_j, z_i) = delta_ij over the
    # kernel, then Gram-Schmidt z_i against earlier partners. Row j of the
    # constraints holds x_j's symplectic form with each kernel row.
    constraints = BitMatrix(tuple(mul_bt([_sym_twist(p) for p in seed_x], kern.rows)),
                            kern.nrows)
    zs: list[int] = []
    for i in range(len(xs)):
        coeffs = solve(constraints, 1 << i)
        if coeffs is None:
            raise CodeConstructionError("no symplectic partner for seed operator "
                                        f"{i}: seeds not independent in N(S)/S")
        z = fold(kern.rows, coeffs)
        for l in range(i):
            if symplectic(z, zs[l], n):
                z ^= xs[l]
        zs.append(z)

    # Remaining hyperbolic pairs, greedily from the kernel basis. Correcting a
    # candidate against the chosen pairs keeps it in their symplectic
    # complement; independence mod S then implies independence mod S+pairs.
    # The corrections are sequential in pair order, so `rows` keeps the kernel
    # rows corrected against the first `done` pairs and each pair is applied
    # once.
    rows = list(kern.rows)
    done = 0
    while len(xs) < k:
        for x, z in zip(xs[done:], zs[done:]):
            for i, v in enumerate(rows):
                if symplectic(v, z, n):
                    v ^= x
                if symplectic(v, x, n):
                    v ^= z
                rows[i] = v
        done = len(xs)
        # The pool is read only up to the first partner of its first row.
        span = F2Span(gen_rows.reduced.rows)
        pool = (v for v in rows if span.insert(v))
        a = next(pool, None)
        if a is None:
            raise CodeConstructionError("cannot complete basis: kernel exhausted")
        b = next((c for c in pool if symplectic(a, c, n)), None)
        if b is None:
            raise CodeConstructionError("degenerate symplectic form on the quotient")
        xs.append(a)
        zs.append(b)

    return [_unpack(v, n) for v in xs], [_unpack(v, n) for v in zs]


def _drawn_generator_list(rng, n):
    """(generators, seeds): a valid code's generators, often made dependent,
    anticommuting, short or reordered, with no seeds, valid seeds or random ones."""
    code = _random_small_code(rng, n, rng.randrange(n))
    gens = list(code.generators)
    change = rng.randrange(5)
    if change == 1 and gens:  # dependent: a product of generators
        picked = [g for g in gens if rng.random() < 0.5] or gens[:1]
        gens.insert(rng.randrange(len(gens) + 1),
                    PauliOp(n, fold([g.x for g in picked], (1 << len(picked)) - 1),
                            fold([g.z for g in picked], (1 << len(picked)) - 1)))
    elif change == 2 and gens:  # most likely anticommuting
        gens[rng.randrange(len(gens))] = PauliOp(n, rng.randrange(1 << n), rng.randrange(1 << n))
    elif change == 3 and gens:  # one logical qubit more
        del gens[rng.randrange(len(gens))]
    rng.shuffle(gens)
    how = rng.randrange(3)
    if how == 1 and code.k:
        seeds = _random_seeds(rng, code)
    elif how == 2:
        seeds = [PauliOp(n, rng.randrange(1 << n), rng.randrange(1 << n))
                 for _ in range(rng.randrange(3))]
    else:
        seeds = []
    return gens, seeds


def _completion_outcome(complete, generators, seed_x):
    try:
        return complete(generators, seed_x=seed_x)
    except CodeConstructionError as exc:
        return f"CodeConstructionError: {exc}"


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 7), seed=st.integers(0, 2 ** 32 - 1))
def test_completion_matches_span_per_pair_on_drawn_generator_lists(n, seed):
    gens, seeds = _drawn_generator_list(random.Random(seed), n)
    assert (_completion_outcome(complete_logical_basis, gens, seeds)
            == _completion_outcome(span_per_pair_completion, gens, seeds))


@pytest.mark.parametrize("spec", ["compact:4", "compact:6", "compact:8", "eq20-lattice:4x4",
                                  "eq20-lattice:6x6", "eq16-lattice:8x8", "css17"])
def test_completion_matches_span_per_pair_on_catalog_codes(spec):
    code = resolve(spec).code
    # css17's basis is completed from two seeds, its first logical X operators.
    seeds = code.logical_x[:2] if spec == "css17" else []
    assert (complete_logical_basis(code.generators, seed_x=seeds)
            == span_per_pair_completion(code.generators, seed_x=seeds))


class _CountingSpan(F2Span):
    inserts = membership_tests = 0

    def insert(self, v):
        _CountingSpan.inserts += 1
        return super().insert(v)

    def contains(self, v):
        _CountingSpan.membership_tests += 1
        return super().contains(v)


def test_completion_builds_one_span_and_tests_each_row_once(monkeypatch):
    # The span of S is built once (r inserts), and each of the n + k kernel
    # rows is tested for membership at most once. Building a new span for
    # every pair took 8,202 inserts here.
    code = resolve("compact:8").code
    monkeypatch.setattr(stabilizer, "F2Span", _CountingSpan)
    monkeypatch.setattr(_CountingSpan, "inserts", 0)
    monkeypatch.setattr(_CountingSpan, "membership_tests", 0)
    xs, zs = complete_logical_basis(code.generators)
    assert (code.n, code.k) == (96, 63)
    assert len(xs) == len(zs) == code.k
    assert _CountingSpan.inserts <= code.n - code.k
    assert _CountingSpan.membership_tests <= code.n + code.k


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
            if target is None and k == 0:  # no logical operator, so no distance
                with pytest.raises(ValueError, match="k = 0"):
                    min_weight_in_class(code, target, n, pure=pure)
                continue
            result = min_weight_in_class(code, target, n, pure=pure)
            want = best.get((pure, target))
            if want is None:
                assert (result.value, result.exact) == (n + 1, False)
            else:
                assert (result.value, result.exact) == (want, True)
            capped = min_weight_in_class(code, target, n - 1, pure=pure)
            assert capped.exact == (want is not None and want <= n - 1)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 7), k=st.integers(0, 2), pure=st.sampled_from([None, "x", "z"]),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_scan_matches_brute_force_order_on_random_codes(n, k, pure, seed, data):
    # With at most 7 syndrome bits, many suffix halves share a syndrome, so
    # the join must skip the stored halves that start at or below the prefix.
    assume(k < n)
    code = _random_small_code(random.Random(seed), n, k)
    for w in range(1, n + 1):
        want = [(x, z) for x, z in _in_scan_order(n, w, pure) if code.syndrome_bits(x, z) == 0]
        seen = []
        assert scan_zero_syndrome(code, w, lambda x, z: seen.append((x, z)), pure) is False
        assert seen == want
        if not want:
            continue
        j = data.draw(st.integers(1, len(want)), label=f"stop at visit (w={w})")
        stopped = []

        def visit(x, z):
            stopped.append((x, z))
            return len(stopped) == j

        assert scan_zero_syndrome(code, w, visit, pure) is True
        assert stopped == want[:j]


# -- the zero-syndrome scan as it was before it closed checks ----------------------
#
# Copied verbatim, the scan renamed, from stabilizer.scan_zero_syndrome,
# _tabulate and _join as they were before the walk dropped prefixes and the
# table dropped suffixes that no later letter can repair. The pruned scan must
# visit the same Paulis in the same order, and stop at the same visit, on codes
# whose generators close early: block-local concatenations, banded codes and
# toric codes, and on a code with no generators.


def parent_scan_zero_syndrome(code: StabilizerCode, w: int, visit,
                              pure: str | None = None) -> bool:
    """Call visit(x, z) for zero-syndrome Paulis of exact weight w until a
    call returns a truthy value; True iff the scan stopped that way.

    The visit order is lexicographic in the (qubit, letter) sequence, letters
    X, Y, Z, so a pure scan visits supports in itertools.combinations order.
    `pure` restricts to X-only or Z-only errors.

    Meet in the middle (the split step of Leon's and Stern's low-weight
    codeword searches): a Pauli of weight w splits one way into its a = w - w//2
    lowest-qubit letters (the prefix) and its b = w//2 highest (the suffix),
    and it has zero syndrome iff both halves have the same syndrome. One table
    holds every weight-b suffix keyed by syndrome, each packed as x | z << n
    (a list only where syndromes collide), in scan order. A depth-first walk
    over the prefixes carries the syndrome and, at each full prefix, visits
    the suffixes stored under it whose lowest qubit lies above the prefix's
    last. The order is prefix-major, so the prefix walk in scan order with
    each bucket in scan order gives exactly the order above; the work is
    about C(n,a)·3^a lookups rather than C(n,w)·3^w candidates.
    """
    if pure not in _PURE_LETTERS:
        raise ValueError("pure must be None, 'x', or 'z'")
    n = code.n
    if not 1 <= w <= n:
        return False
    a, b = w - w // 2, w // 2
    labels, mask = code._labels, code._syn_mask
    steps = []
    for q in range(n):
        sx, sz, bit = labels[q] & mask, labels[n + q] & mask, 1 << q
        row = {"X": (sx, bit), "Y": (sx ^ sz, bit | bit << n), "Z": (sz, bit << n)}
        steps.append([row[letter] for letter in _PURE_LETTERS[pure]])

    table: dict[int, int | list[int]] = {}
    # A suffix follows at least a prefix qubits, so its lowest qubit is >= a.
    _tabulate(table, steps, a, b, 0, 0)
    # Support bits at or below qubit q, in both halves of a packed Pauli.
    at_or_below = [((2 << q) - 1) * (1 | 1 << n) for q in range(n)]
    return _join(table, steps, at_or_below, b, visit, 0, a, 0, 0)


def _tabulate(table, steps, start: int, left: int, syn: int, v: int) -> None:
    """Store every extension of (syn, v) by `left` more letters on qubits from
    `start` on in `table`, keyed by syndrome, in scan order. Not nested, so a
    scan leaves no cycle."""
    if left == 0:
        old = table.get(syn)
        if old is None:
            table[syn] = v
        elif type(old) is int:
            table[syn] = [old, v]
        else:
            old.append(v)
        return
    for q in range(start, len(steps) - left + 1):
        for dsyn, dv in steps[q]:
            _tabulate(table, steps, q + 1, left - 1, syn ^ dsyn, v | dv)


def _join(table, steps, at_or_below, b: int, visit, start: int, left: int, syn: int,
          v: int) -> bool:
    """Extend the prefix (syn, v) by `left` more letters from `start` on and
    visit each full prefix's matching suffixes (those of `b` letters above
    its last qubit), in scan order; True once a visit returns truthy."""
    n = len(steps)
    if left == 1:
        xmask = (1 << n) - 1
        for q in range(start, n - b):
            low = at_or_below[q]
            for dsyn, dv in steps[q]:
                hit = table.get(syn ^ dsyn)
                if hit is None:
                    continue
                for s in ((hit,) if type(hit) is int else hit):
                    if not s & low:
                        u = v | dv | s
                        if visit(u & xmask, u >> n):
                            return True
        return False
    for q in range(start, n - b - left + 1):
        for dsyn, dv in steps[q]:
            if _join(table, steps, at_or_below, b, visit, q + 1, left - 1, syn ^ dsyn, v | dv):
                return True
    return False


def assert_scan_matches_parent(code, w, pure, stops):
    want = []
    assert parent_scan_zero_syndrome(code, w, lambda x, z: want.append((x, z)), pure) is False
    seen = []
    assert scan_zero_syndrome(code, w, lambda x, z: seen.append((x, z)), pure) is False
    assert seen == want
    for j in stops(len(want)):
        stopped = []

        def visit(x, z):
            stopped.append((x, z))
            return len(stopped) == j

        assert scan_zero_syndrome(code, w, visit, pure) is True
        assert stopped == want[:j]


def _rng_stops(rng):
    """Three stop indices drawn from 1..count, none when nothing is visited."""
    return lambda count: [rng.randint(1, count) for _ in range(3)] if count else []


def _concatenated(outer, inner="inner-5q"):
    return concatenate(resolve(outer).code, resolve(inner).code)


# (code, largest w of a scan over all three letters, of a pure scan): every w
# where the parent's walk takes well under a second.
_CLOSING_CODES = {
    "rep:3*inner-5q": (lambda: _concatenated("rep:3"), 15, 15),
    "table2-6q*inner-5q": (lambda: _concatenated("table2-6q"), 6, 8),
    "toric:2": (lambda: resolve("toric:2").code, 8, 8),
    "toric:3": (lambda: resolve("toric:3").code, 8, 18),
    "toric:4": (lambda: resolve("toric:4").code, 6, 10),
    "no generators": (lambda: _free_code(6), 6, 6),
}


@pytest.mark.parametrize("name", _CLOSING_CODES)
def test_scan_matches_parent_on_codes_whose_checks_close(name):
    build, cap, pure_cap = _CLOSING_CODES[name]
    code = build()
    rng = random.Random(name)
    for pure in (None, "x", "z"):
        for w in range(1, (pure_cap if pure else cap) + 1):
            assert_scan_matches_parent(code, w, pure, _rng_stops(rng))


def _banded_code(rng, n):
    """Commuting independent generators, each inside a window of at most 4
    consecutive qubits, with a completed logical basis."""
    gens, span = [], F2Span()
    for _ in range(4 * n):
        width = rng.randint(1, min(4, n))
        window = ((1 << width) - 1) << rng.randrange(n - width + 1)
        g = PauliOp(n, rng.getrandbits(n) & window, rng.getrandbits(n) & window)
        if not any(symplectic_product(g, h) for h in gens) and span.insert(_sym_vec(g)):
            gens.append(g)
    return StabilizerCode(gens, *complete_logical_basis(gens, n=n))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_scan_matches_parent_on_banded_codes(n, seed, data):
    code = _banded_code(random.Random(seed), n)
    for pure in (None, "x", "z"):
        for w in range(1, n + 1):
            assert_scan_matches_parent(
                code, w, pure,
                lambda count: [data.draw(st.integers(1, count), label=f"stop (w={w})")]
                if count else [])


def _in_row_space(rows, v, width):
    """Row-space membership by rank: v adds nothing to the RREF of rows."""
    return (rref(BitMatrix(tuple(rows) + (v,), width)).rank
            == rref(BitMatrix(tuple(rows), width)).rank)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), k=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_tables_fold_symplectic_products_on_random_codes(n, k, seed, data):
    # one label table and one span answer syndrome, class and membership; k = n
    # is the code with no generators, and k = 0 has no logical operator
    k = min(k, n)
    code = _free_code(n) if k == n else _random_small_code(random.Random(seed), n, k)
    m = len(code.generators)
    rows = [_sym_vec(g) for g in code.generators]
    paulis = st.builds(PauliOp, st.just(n), st.integers(0, (1 << n) - 1),
                       st.integers(0, (1 << n) - 1))
    for e in data.draw(st.lists(paulis, min_size=1, max_size=8)):
        syn, cls = code.syndrome_bits(e.x, e.z), code.class_bits(e.x, e.z)
        for l, g in enumerate(code.generators):
            assert (syn >> l) & 1 == symplectic_product(g, e)
        assert syn >> m == 0
        for i in range(k):
            assert (cls >> i) & 1 == symplectic_product(code.logical_z[i], e)
            assert (cls >> (k + i)) & 1 == symplectic_product(code.logical_x[i], e)
        assert cls >> (2 * k) == 0
        # a product of generators, alone and times e, is in the span or not
        # as the rank of the generator rows says
        s = _unpack(fold(rows, data.draw(st.integers(0, (1 << m) - 1))), n)
        for v in (s, _unpack(_sym_vec(s) ^ _sym_vec(e), n)):
            assert code.in_stabilizer_bits(v.x, v.z) == _in_row_space(rows, _sym_vec(v), 2 * n)
        assert code.in_stabilizer_bits(s.x, s.z)
    for c in range(1 << (2 * k)):
        rep = code.class_representative(c)
        assert code.syndrome_bits(rep.x, rep.z) == 0
        assert code.class_bits(rep.x, rep.z) == c
    if m and k:  # one more generator, a product of the others, for one logical pair
        extra = _unpack(fold(rows, data.draw(st.integers(1, (1 << m) - 1))), n)
        dependent = StabilizerCode(code.generators + [extra], code.logical_x[1:],
                                   code.logical_z[1:])
        assert f"generators dependent: rank {m} < {m + 1}" in validate_code(dependent).problems
        assert dependent.in_stabilizer_bits(extra.x, extra.z)
