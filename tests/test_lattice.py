import re

import pytest

from qtransmute.errors import CodeConstructionError, ParseError
from qtransmute.f2 import F2Span
from qtransmute.lattice import (MAX_TORUS_QUBITS, CompactEncoding, LPoly, LaurentVec,
                                TorusCode, UnitCellCode, _instantiate_vec, compact_encoding,
                                dumps_cell, instantiate_torus, loads_cell, rate_half_cell,
                                rate_two_thirds_cell, symplectic_form, toric_code,
                                validate_unit_cell)
from qtransmute.pauli import PauliOp, enumerate_paulis
from qtransmute.qet import AdmissibleSet, effective_distance, scan_zero_syndrome
from qtransmute.stabilizer import (StabilizerCode, code_distance, complete_logical_basis,
                                   min_weight_in_class, validate_code)


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


def test_every_torus_builder_refuses_past_the_qubit_limit():
    # 2*46^2 = 4232, 54^2 * 3/2 = 4374 and 2*46*45 = 4140 qubits: each just past the limit
    assert MAX_TORUS_QUBITS == 4096
    for build, qubits in ((lambda: toric_code(46), 4232), (lambda: compact_encoding(54), 4374),
                          (lambda: instantiate_torus(rate_half_cell(), 46, 45), 4140)):
        with pytest.raises(CodeConstructionError, match=f"would have {qubits} qubits"):
            build()
    assert toric_code(45).n == 4050


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


# -- tori as they were when each builder dropped dependent rows its own way -------------
#
# Copied verbatim, less two docstrings, from lattice.toric_code,
# lattice.compact_encoding and lattice.instantiate_torus as they were before
# one filter kept the rows independent of the rows before them: the toric
# code skipped its last plaquette and last star by hand, the compact encoding
# kept rows through a closure, and the torus counted drops in an inline span
# loop. Each builder must give the same generators, logicals and
# dropped-row count.


def parent_instantiate_torus(cell: UnitCellCode, lx: int, ly: int) -> TorusCode:
    """Tile the unit cell on the torus; dependent wrapped generator rows are
    dropped (later rows first) and counted."""
    if lx < 2 or ly < 2:
        raise CodeConstructionError("torus needs Lx, Ly >= 2")
    n = cell.n
    rows: list[PauliOp] = []
    span = F2Span()
    dropped = 0
    for cy in range(ly):
        for cx in range(lx):
            for col in cell.columns:
                p = _instantiate_vec(col, lx, ly, cx, cy, n)
                if span.insert(p.x | (p.z << p.n)):
                    rows.append(p)
                else:
                    dropped += 1
    total = n * lx * ly
    k = total - len(rows)
    if cell.logical_z:
        zs: list[PauliOp] = []
        xs: list[PauliOp] = []
        for cy in range(ly):
            for cx in range(lx):
                for az, bx in zip(cell.logical_z, cell.logical_x):
                    zs.append(_instantiate_vec(az, lx, ly, cx, cy, n))
                    xs.append(_instantiate_vec(bx, lx, ly, cx, cy, n))
        if len(zs) != k:
            raise CodeConstructionError(
                f"cell logicals instantiate to {len(zs)} pairs but the torus code "
                f"has k={k}; wrapped dependencies changed the count")
        code = StabilizerCode(rows, xs, zs)
    else:
        xs, zs = complete_logical_basis(rows)
        code = StabilizerCode(rows, xs, zs)
    return TorusCode(code, lx, ly, n, dropped)


def parent_compact_encoding(length: int) -> CompactEncoding:
    if length % 2 or length < 4:
        raise CodeConstructionError("compact encoding needs even L >= 4")
    lsize = length
    n_vertex = lsize * lsize
    odd_faces = [(x, y) for y in range(lsize) for x in range(lsize) if (x + y) % 2 == 1]
    face_index = {f: n_vertex + i for i, f in enumerate(odd_faces)}
    n = n_vertex + len(odd_faces)

    def vidx(x: int, y: int) -> int:
        return (y % lsize) * lsize + (x % lsize)

    def fidx(x: int, y: int) -> int:
        return face_index[(x % lsize, y % lsize)]

    def h_edge(x: int, y: int) -> PauliOp:
        """Edge operator for the horizontal edge (x,y)-(x+1,y)."""
        if (x + y) % 2:
            # odd face above; its bottom edge runs against the x direction
            tail, head, face = (x + 1, y), (x, y), fidx(x, y)
        else:
            # odd face below; its top edge runs along the x direction
            tail, head, face = (x, y), (x + 1, y), fidx(x, y - 1)
        xm = (1 << vidx(*tail)) | (1 << vidx(*head)) | (1 << face)
        zm = (1 << vidx(*head)) | (1 << face)
        return PauliOp(n, xm, zm)

    def v_edge(x: int, y: int) -> PauliOp:
        """Edge operator for the vertical edge (x,y)-(x,y+1)."""
        if (x + y) % 2:
            # odd face to the right; its left edge runs up
            tail, head, face = (x, y), (x, y + 1), fidx(x, y)
        else:
            # odd face to the left; its right edge runs down
            tail, head, face = (x, y + 1), (x, y), fidx(x - 1, y)
        xm = (1 << vidx(*tail)) | (1 << vidx(*head)) | (1 << face)
        zm = (1 << vidx(*head))
        return PauliOp(n, xm, zm)

    def product(ops) -> PauliOp:
        xm = zm = 0
        for p in ops:
            xm ^= p.x
            zm ^= p.z
        return PauliOp(n, xm, zm)

    rows = []
    span = F2Span()

    def keep(p: PauliOp) -> None:
        if span.insert(p.x | (p.z << n)):
            rows.append(p)

    for y in range(lsize):
        for x in range(lsize):
            if (x + y) % 2 == 0:  # loop around each even face
                keep(product([h_edge(x, y), v_edge(x + 1, y),
                              h_edge(x, y + 1), v_edge(x, y)]))
    # non-contractible torus loops: one horizontal, one vertical
    keep(product([h_edge(x, 0) for x in range(lsize)]))
    keep(product([v_edge(0, y) for y in range(lsize)]))

    xs, zs = complete_logical_basis(rows)
    code = StabilizerCode(rows, xs, zs)
    return CompactEncoding(code, lsize, tuple(range(n_vertex)),
                           tuple(range(n_vertex, n)))


def parent_toric_code(length: int) -> StabilizerCode:
    if length < 2:
        raise CodeConstructionError("toric code needs L >= 2")
    lsize = length
    n = 2 * lsize * lsize

    def h(x: int, y: int) -> int:
        return (y % lsize) * lsize + (x % lsize)

    def v(x: int, y: int) -> int:
        return lsize * lsize + (y % lsize) * lsize + (x % lsize)

    gens = []
    for y in range(lsize):
        for x in range(lsize):
            if (x, y) == (lsize - 1, lsize - 1):
                continue  # product of all plaquettes is the identity
            zm = (1 << h(x, y)) | (1 << h(x, y + 1)) | (1 << v(x, y)) | (1 << v(x + 1, y))
            gens.append(PauliOp(n, 0, zm))
    for y in range(lsize):
        for x in range(lsize):
            if (x, y) == (lsize - 1, lsize - 1):
                continue  # product of all vertex stars is the identity
            xm = (1 << h(x, y)) | (1 << h(x - 1, y)) | (1 << v(x, y)) | (1 << v(x, y - 1))
            gens.append(PauliOp(n, xm, 0))

    z1 = 0
    for y in range(lsize):
        z1 |= 1 << v(0, y)
    z2 = 0
    for x in range(lsize):
        z2 |= 1 << h(x, 0)
    x1 = 0
    for x in range(lsize):
        x1 |= 1 << v(x, 0)
    x2 = 0
    for y in range(lsize):
        x2 |= 1 << h(0, y)
    logical_z = [PauliOp(n, 0, z1), PauliOp(n, 0, z2)]
    logical_x = [PauliOp(n, x1, 0), PauliOp(n, x2, 0)]
    return StabilizerCode(gens, logical_x, logical_z)


def operators(code: StabilizerCode):
    return code.generators, code.logical_x, code.logical_z


# Z-type plaquettes (1+y on the horizontal edge, 1+x on the vertical one)
# and X-type stars as a two-qubit cell: each torus has two relations, the
# product of all plaquettes and that of all stars.
TORIC_CELL = UnitCellCode(2, (LaurentVec.parse(["0", "0", "1+y", "1+x"]),
                              LaurentVec.parse(["1+x^-1", "1+y^-1", "0", "0"])))


@pytest.mark.parametrize("length", range(2, 8))
def test_toric_code_matches_hand_skipped_rows(length):
    assert operators(toric_code(length)) == operators(parent_toric_code(length))


@pytest.mark.parametrize("length", [4, 6, 8])
def test_compact_encoding_matches_closure_filter(length):
    new, old = compact_encoding(length), parent_compact_encoding(length)
    assert operators(new.code) == operators(old.code)
    assert (new.vertex_qubits, new.face_qubits) == (old.vertex_qubits, old.face_qubits)


@pytest.mark.parametrize("cell", [rate_two_thirds_cell(), rate_half_cell(), TORIC_CELL],
                         ids=["eq16", "eq20", "toric-cell"])
@pytest.mark.parametrize("lx,ly", [(2, 2), (3, 5), (4, 4), (6, 6), (3, 4), (5, 5)])
def test_torus_matches_inline_span_loop(cell, lx, ly):
    new, old = instantiate_torus(cell, lx, ly), parent_instantiate_torus(cell, lx, ly)
    assert operators(new.code) == operators(old.code)
    assert new.dropped_rows == old.dropped_rows
    assert new.dropped_rows == (2 if cell is TORIC_CELL else 0)


def test_toric_cell_drops_the_two_dependent_rows():
    torus = instantiate_torus(TORIC_CELL, 3, 4)
    assert validate_unit_cell(TORIC_CELL).ok
    assert (torus.code.n, torus.code.k, torus.dropped_rows) == (24, 2, 2)
    assert validate_code(torus.code).ok
