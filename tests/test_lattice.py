import re

import pytest

from qtransmute.errors import CodeConstructionError, ParseError
from qtransmute.lattice import (CompactEncoding, LPoly, LaurentVec, UnitCellCode,
                                compact_encoding, dumps_cell, instantiate_torus,
                                loads_cell, rate_half_cell, rate_two_thirds_cell,
                                symplectic_form, toric_code, validate_unit_cell)
from qtransmute.pauli import PauliOp, enumerate_paulis
from qtransmute.qet import AdmissibleSet, effective_distance, scan_zero_syndrome
from qtransmute.stabilizer import code_distance, min_weight_in_class, validate_code


def lp(s):
    return LPoly.parse(s)


# -- polynomial ring ---------------------------------------------------------------


def test_characteristic_two():
    assert (lp("1+x") + lp("1+x")).is_zero()


def test_frobenius_square():
    assert lp("1+x") * lp("1+x") == lp("1+x^2")


def test_conjugate_negates_exponents():
    assert lp("x*y").conjugate() == lp("x^-1*y^-1")
    assert lp("1+x").conjugate() == lp("1+x^-1")


def test_parse_render_round_trip():
    # render orders terms by exponent pair, so these are all canonical
    for s in ("0", "1", "x", "y", "x*y", "1+x+x*y", "x^-1*y^2", "y+x^2"):
        assert str(lp(s)) == s
    assert str(lp("x^2+y")) == "y+x^2"


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        lp("x**y")
    with pytest.raises(ParseError):
        lp("z")


def test_multiplication_distributes():
    a, b, c = lp("1+x"), lp("y+x*y"), lp("1+x+y")
    assert a * (b + c) == a * b + a * c


# -- symplectic form ----------------------------------------------------------------


def test_form_same_x_operator_is_zero():
    a = LaurentVec.parse(["1", "0"])  # single X on a 1-qubit cell
    assert symplectic_form(a, a).is_zero()


def test_form_x_against_z_same_qubit():
    x_op = LaurentVec.parse(["1", "0"])
    z_op = LaurentVec.parse(["0", "1"])
    assert symplectic_form(x_op, z_op) == lp("1")


def test_form_generator_self_commutes():
    cell = rate_two_thirds_cell()
    g = cell.columns[0]
    assert symplectic_form(g, g).is_zero()


def test_form_detects_translated_anticommutation():
    # X at cell (0,0) vs Z at cell (1,0) on one qubit: they anticommute only
    # after translating the second by (-1, 0)
    x_op = LaurentVec.parse(["1", "0"])
    z_shift = LaurentVec.parse(["0", "x"])
    w = symplectic_form(x_op, z_shift)
    assert w == lp("x")


# -- unit-cell validation --------------------------------------------------------------


def test_rate_two_thirds_cell_valid():
    assert validate_unit_cell(rate_two_thirds_cell()).ok


def test_rate_half_cell_valid():
    assert validate_unit_cell(rate_half_cell()).ok


def test_broken_logical_reported():
    cell = rate_two_thirds_cell()
    b1 = cell.logical_x[0]
    # delete one term from b1's fourth entry
    entries = list(b1.entries)
    entries[3] = entries[3] + lp("y")
    broken = UnitCellCode(cell.n, cell.columns, cell.logical_z,
                          (LaurentVec(tuple(entries)), cell.logical_x[1]))
    diag = validate_unit_cell(broken)
    assert not diag.ok
    assert any("b1" in p for p in diag.problems)


# -- torus instantiation ----------------------------------------------------------------


def test_eq16_torus_4x4():
    torus = instantiate_torus(rate_two_thirds_cell(), 4, 4)
    code = torus.code
    assert code.n == 48
    assert len(code.generators) == 16
    assert torus.dropped_rows == 0
    assert code.k == 32
    assert validate_code(code).ok


@pytest.mark.parametrize("lx,ly", [(2, 2), (3, 3), (4, 4), (3, 4)])
def test_eq16_two_logical_qubits_per_cell(lx, ly):
    torus = instantiate_torus(rate_two_thirds_cell(), lx, ly)
    assert torus.code.k == 2 * lx * ly


def test_eq16_weight1_detected_weight2_kernel_is_translates():
    cell = rate_two_thirds_cell()
    torus = instantiate_torus(cell, 4, 4)
    code = torus.code
    assert all(code.syndrome_bits(p.x, p.z) for p in enumerate_paulis(code.n, 1))
    hits = []
    scan_zero_syndrome(code, 2, lambda x, z: hits.append((x, z)))
    translates = {(p.x, p.z) for p in torus.translates(cell.logical_z[0])}
    assert set(hits) == translates
    assert len(hits) == 16


def test_eq16_effective_distance_three():
    cell = rate_two_thirds_cell()
    torus = instantiate_torus(cell, 4, 4)
    adm = AdmissibleSet.from_operators(torus.code,
                                       torus.translates(cell.logical_z[0]))
    assert not adm.is_group
    result = effective_distance(torus.code, adm, 2)
    assert result.exact and result.value == 3


def test_eq20_distance_three():
    torus = instantiate_torus(rate_half_cell(), 4, 4)
    assert validate_code(torus.code).ok
    d = code_distance(torus.code, 3)
    assert d.exact and d.value == 3


def test_single_qubit_cell_trivial_product():
    cell = UnitCellCode(1, (LaurentVec.parse(["0", "1"]),))
    torus = instantiate_torus(cell, 2, 3)
    assert torus.code.k == 0
    assert all(g.x == 0 and g.z.bit_count() == 1 for g in torus.code.generators)


def test_translation_covariance_of_syndromes():
    cell = rate_two_thirds_cell()
    lx = ly = 3
    torus = instantiate_torus(cell, lx, ly)
    code = torus.code
    assert torus.dropped_rows == 0
    n_cell = cell.n

    def translate(p, tx, ty):
        x = z = 0
        for q in range(code.n):
            cell_idx, inner = divmod(q, n_cell)
            cy, cx = divmod(cell_idx, lx)
            q2 = (((cy + ty) % ly) * lx + (cx + tx) % lx) * n_cell + inner
            if (p.x >> q) & 1:
                x |= 1 << q2
            if (p.z >> q) & 1:
                z |= 1 << q2
        return PauliOp(code.n, x, z)

    def permute_syndrome(syn, tx, ty):
        out = 0
        s = cell.s
        for l in range(len(code.generators)):
            cell_idx, col = divmod(l, s)
            cy, cx = divmod(cell_idx, lx)
            l2 = (((cy + ty) % ly) * lx + (cx + tx) % lx) * s + col
            if (syn >> l) & 1:
                out |= 1 << l2
        return out

    for p in enumerate_paulis(code.n, 2):
        if (p.x | p.z).bit_count() == 2 and (p.x | p.z).bit_length() > 2 * n_cell:
            continue  # sampling supports near the origin keeps this quick
        syn = code.syndrome_bits(p.x, p.z)
        for (tx, ty) in ((1, 0), (0, 1), (2, 1)):
            moved = translate(p, tx, ty)
            assert code.syndrome_bits(moved.x, moved.z) == permute_syndrome(syn, tx, ty)


def test_symbolic_form_matches_instantiation():
    cell = rate_two_thirds_cell()
    torus = instantiate_torus(cell, 6, 6)
    g = cell.columns[0]
    for other in (cell.logical_z[0], cell.logical_x[1], cell.columns[0]):
        w = symplectic_form(g, other)
        placed = torus.place(g, 0, 0)
        for k1 in range(-2, 3):
            for k2 in range(-2, 3):
                shifted = torus.place(other, k1, k2)
                anti = (bin(placed.x & shifted.z).count("1")
                        + bin(placed.z & shifted.x).count("1")) % 2
                assert anti == (1 if (k1, k2) in w.terms else 0)


def test_degenerate_overlap_rejected():
    cell = UnitCellCode(1, (LaurentVec.parse(["0", "1+x^2"]),))
    with pytest.raises(CodeConstructionError):
        instantiate_torus(cell, 2, 2)
    torus = instantiate_torus(cell, 3, 2)  # x^2 stays distinct mod 3
    assert torus.code.n == 6


@pytest.mark.parametrize("entries,message", [
    (["0", "1+x^2"], "Z entry 0 folds onto cell (0,0)"),
    (["1+x^2", "0"], "X entry 0 folds onto cell (0,0)"),
    (["0", "0", "0", "1+y^2"], "Z entry 1 folds onto cell (0,0)"),
    (["0", "x+x^3", "0", "0"], "X entry 1 folds onto cell (1,0)"),
])
def test_degenerate_overlap_names_the_entry(entries, message):
    cell = UnitCellCode(len(entries) // 2, (LaurentVec.parse(entries),))
    with pytest.raises(CodeConstructionError) as err:
        instantiate_torus(cell, 2, 2)
    assert str(err.value) == f"degenerate overlap: {message} twice on a 2x2 torus"
    torus = instantiate_torus(cell, 3, 3)  # x^2 and y^2 stay distinct mod 3
    assert torus.code.n == 9 * cell.n


# -- toric code ---------------------------------------------------------------------------


def test_toric_code_basics():
    code = toric_code(3)
    assert (code.n, code.k) == (18, 2)
    assert validate_code(code).ok


def test_toric_class_distances():
    code = toric_code(3)
    z1, z2 = (code.class_bits(p.x, p.z) for p in code.logical_z)
    assert min_weight_in_class(code, z1, 6, pure="z").value == 3
    assert min_weight_in_class(code, z2, 6, pure="z").value == 3
    assert min_weight_in_class(code, z1 ^ z2, 6, pure="z").value == 6
    x1, x2 = (code.class_bits(p.x, p.z) for p in code.logical_x)
    assert min_weight_in_class(code, x1, 6, pure="x").value == 3
    assert min_weight_in_class(code, x1 ^ x2, 6, pure="x").value == 6


# -- compact encoding ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def compact4() -> CompactEncoding:
    return compact_encoding(4)


def test_compact_requires_even_l():
    with pytest.raises(CodeConstructionError):
        compact_encoding(5)
    with pytest.raises(CodeConstructionError):
        compact_encoding(2)


def test_compact_shape(compact4):
    code = compact4.code
    assert code.n == 24  # 16 vertices + 8 odd faces
    assert code.k == 15  # one encoded qubit per fermion mode, minus parity
    assert validate_code(code).ok


def test_compact_vertex_dephasing_undetected(compact4):
    code = compact4.code
    for q in compact4.vertex_qubits:
        assert code.syndrome_bits(0, 1 << q) == 0
        assert not code.in_stabilizer_bits(0, 1 << q)


def test_compact_syndrome_coset_structure(compact4):
    code = compact4.code
    buckets = {}
    for p in enumerate_paulis(code.n, 1):
        buckets.setdefault(code.syndrome_bits(p.x, p.z), []).append(p)
    nonzero = {syn: errs for syn, errs in buckets.items() if syn}
    # vertex X/Y pair up on their own qubit; everything else is unique
    for syn, errs in nonzero.items():
        if len(errs) == 2:
            a, b = errs
            assert (a.x | a.z) == (b.x | b.z)
            assert ((a.x | a.z).bit_length() - 1) in compact4.vertex_qubits
        else:
            assert len(errs) == 1
    # face qubits: X, Y, Z all detected, all distinct
    for q in compact4.face_qubits:
        syns = {code.syndrome_bits(1 << q, 0), code.syndrome_bits(1 << q, 1 << q),
                code.syndrome_bits(0, 1 << q)}
        assert len(syns) == 3 and 0 not in syns


def test_compact_effective_distance(compact4):
    code = compact4.code
    adm = AdmissibleSet.from_operators(
        code, [PauliOp(code.n, 0, 1 << q) for q in compact4.vertex_qubits])
    result = effective_distance(code, adm, 2)
    assert result.exact and result.value == 3


# -- cell file format ----------------------------------------------------------------------


def test_cell_round_trip():
    cell = rate_two_thirds_cell()
    back = loads_cell(dumps_cell(cell))
    assert back == cell


def test_cell_parse_errors():
    with pytest.raises(ParseError):
        loads_cell("")
    with pytest.raises(ParseError):
        loads_cell("n 2 s 1\n1\n0\n0\n")  # missing a polynomial line
    with pytest.raises(ParseError):
        loads_cell("n 1 s 1\n0\n1\nA2:\n0\n1\n")  # pair numbering gap
    for blocks, message in [
        ("A1:\n0\n1\nB1:\n1\n0\nA1:\n1\n1\n", "repeated logical block 'A1:' at line 10"),
        ("Ax:\n0\n1\n", "expected a logical block tag like 'A1:', got 'Ax:' at line 4"),
        ("A:\n0\n1\n", "expected a logical block tag like 'A1:', got 'A:' at line 4"),
    ]:
        with pytest.raises(ParseError, match=re.escape(message)):
            loads_cell("n 1 s 1\n0\n1\n" + blocks)
