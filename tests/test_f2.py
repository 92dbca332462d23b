import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtransmute.f2 import (BitMatrix, F2Span, kernel_basis, mul_bt, parity, rref, solve,
                           symplectic)
from qtransmute.pauli import PauliOp, symplectic_product


def mat(rows):
    """Matrix from rows of 0/1 entries (entry j of a row is bit j)."""
    return BitMatrix(tuple(sum(e << j for j, e in enumerate(row)) for row in rows),
                     len(rows[0]))


def identity(n):
    return BitMatrix(tuple(1 << i for i in range(n)), n)


def zeros(nrows, ncols):
    return BitMatrix((0,) * nrows, ncols)


@st.composite
def matrices(draw, max_dim=8):
    nrows = draw(st.integers(0, max_dim))
    ncols = draw(st.integers(1, max_dim))
    rows = tuple(draw(st.integers(0, (1 << ncols) - 1)) for _ in range(nrows))
    return BitMatrix(rows, ncols)


def test_rref_identity():
    res = rref(identity(2))
    assert res.reduced == identity(2)
    assert res.rank == 2
    assert res.pivots == (0, 1)


def test_rref_zero():
    res = rref(zeros(3, 4))
    assert res.reduced == zeros(3, 4)
    assert res.rank == 0
    assert res.pivots == ()


def test_rref_dependent_rows():
    # third row is the sum of the first two
    res = rref(mat([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
    assert res.rank == 2


@given(matrices())
@settings(max_examples=200)
def test_rref_idempotent(m):
    once = rref(m)
    twice = rref(once.reduced)
    assert twice.reduced == once.reduced
    assert twice.rank == once.rank


def test_kernel_identity_empty():
    assert kernel_basis(identity(3)).nrows == 0


def test_kernel_zero_matrix_full():
    assert kernel_basis(zeros(2, 3)).nrows == 3


def test_kernel_hand_example():
    # enumerate all 8 vectors: only 111 is in the kernel
    m = mat([[1, 1, 0], [0, 1, 1]])
    expected = [v for v in range(8)
                if all(bin(row & v).count("1") % 2 == 0 for row in m.rows)]
    assert expected == [0, 0b111]
    basis = kernel_basis(m)
    assert basis.rows == (0b111,)


@given(matrices())
@settings(max_examples=200)
def test_kernel_rows_annihilate_and_are_independent(m):
    basis = kernel_basis(m)
    assert mul_bt(m.rows, basis.rows) == [0] * m.nrows
    assert rref(basis).rank == basis.nrows
    assert basis.nrows == m.cols - rref(m).rank


def test_solve_identity():
    assert solve(identity(3), 0b101) == 0b101


def test_solve_inconsistent():
    assert solve(zeros(2, 3), 0b01) is None


def test_solve_hand_example():
    # m = [1 1; 0 1]; the expected solution is fixed by scanning all 4 candidates
    m = mat([[1, 1], [0, 1]])
    b = 0b01
    sols = [x for x in range(4) if all(
        bin(row & x).count("1") % 2 == (b >> i) & 1
        for i, row in enumerate(m.rows))]
    assert len(sols) == 1
    assert solve(m, b) == sols[0]
    # the mirrored right-hand side has the mirrored unique solution
    b2 = 0b10
    sols2 = [x for x in range(4) if all(
        bin(row & x).count("1") % 2 == (b2 >> i) & 1
        for i, row in enumerate(m.rows))]
    assert sols2 == [0b11]
    assert solve(m, b2) == 0b11


@given(matrices(), st.integers(0, 255))
@settings(max_examples=200)
def test_solve_soundness(m, bbits):
    b = bbits & ((1 << m.nrows) - 1)
    x = solve(m, b)
    if x is not None:
        assert x >> m.cols == 0
        assert mul_bt([x], m.rows) == [b]


def test_span_membership():
    span = F2Span([0b110, 0b011])
    assert span.contains(0b101)
    assert not span.contains(0b001)
    assert span.insert(0b101) == 0
    assert span.rank == 2


def test_bitmatrix_rejects_overflow():
    with pytest.raises(ValueError):
        BitMatrix((0b100,), 2)
    with pytest.raises(ValueError):
        BitMatrix((-1,), 2)


def test_solve_rejects_bits_beyond_row_count():
    with pytest.raises(ValueError):
        solve(identity(2), 0b100)


@given(st.integers(1, 8), st.data())
@settings(max_examples=200)
def test_symplectic_and_mul_bt_match_references(n, data):
    ops = st.builds(PauliOp, st.just(n), st.integers(0, (1 << n) - 1),
                    st.integers(0, (1 << n) - 1))
    a, b = data.draw(ops), data.draw(ops)
    assert symplectic(a.x | a.z << n, b.x | b.z << n, n) == symplectic_product(a, b)
    rows = st.lists(st.integers(0, (1 << n) - 1), max_size=6)
    a_rows, b_rows = data.draw(rows), data.draw(rows)
    product = mul_bt(a_rows, b_rows)
    assert len(product) == len(a_rows)
    for i, ar in enumerate(a_rows):
        for j, br in enumerate(b_rows):
            assert (product[i] >> j) & 1 == parity(ar & br)
        assert product[i] >> len(b_rows) == 0
