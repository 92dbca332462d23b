from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtransmute.classical import (LinearCode, Poly2, _capped_distance,
                                  asymmetric_distances, classical_distance, css17_classical_pair,
                                  css_build, cyclic_code, dual, qr17_code,
                                  subcode_from_rows, x_power_minus_one)
from qtransmute.errors import CodeConstructionError
from qtransmute.f2 import fold, parity
from qtransmute.lattice import toric_code
from qtransmute.stabilizer import validate_code


def codeword_set(code):
    return {fold(code.generator, m) for m in range(1 << code.k)}


def contains(code, word):
    """Whether `word` is a codeword: it passes every parity check."""
    return all(parity(row & word) == 0 for row in code.parity_check)


def test_poly_parse_render_round_trip():
    for text in ("1+x^3+x^4+x^5+x^8", "1", "x", "0", "1+x"):
        assert str(Poly2.parse(text)) == text


def test_poly_duplicate_terms_cancel():
    assert Poly2.parse("x+x").is_zero()
    assert Poly2.parse("1+x^2+1") == Poly2.parse("x^2")


def test_poly_product():
    gt = Poly2.parse("1+x^5") * Poly2.parse("1+x^3+x^4+x^5+x^8")
    assert gt.degree == 13


def test_qr_code_shape_and_distance():
    qr = qr17_code()
    assert (qr.n, qr.k) == (17, 9)
    d = classical_distance(qr, 17)
    assert d.exact and d.value == 5


def test_cyclic_even_weight_code():
    c = cyclic_code(3, Poly2.parse("1+x"))
    assert (c.n, c.k) == (3, 2)
    assert all(w.bit_count() % 2 == 0 for w in codeword_set(c))


def test_parity_code_distance_matches_brute_force():
    c = cyclic_code(7, Poly2.parse("1+x"))
    assert (c.n, c.k) == (7, 6)
    best = min(w.bit_count() for w in codeword_set(c) if w)
    d = classical_distance(c, 7)
    assert d.exact and d.value == best == 2


def test_cyclic_requires_divisor():
    with pytest.raises(CodeConstructionError):
        cyclic_code(7, Poly2.parse("1+x^2"))


def test_cyclic_shift_closure():
    qr = qr17_code()
    n = qr.n
    mask = (1 << n) - 1
    for m in range(0, 1 << qr.k, 37):
        w = fold(qr.generator, m)
        shifted = ((w << 1) | (w >> (n - 1))) & mask
        assert contains(qr, shifted)


def test_dual_involution():
    qr = qr17_code()
    dd = dual(dual(qr))
    assert codeword_set(dd) == codeword_set(qr)


def test_dual_orthogonality():
    qr = qr17_code()
    d = dual(qr)
    for a in qr.generator:
        for b in d.generator:
            assert bin(a & b).count("1") % 2 == 0


def test_subcode_rows():
    qr = qr17_code()
    sub = subcode_from_rows(qr, [0, 1, 2])
    assert sub.k == 3
    assert codeword_set(sub) <= codeword_set(qr)
    assert subcode_from_rows(qr, list(range(qr.k))).k == qr.k
    with pytest.raises(CodeConstructionError):
        subcode_from_rows(qr, [])


def test_classical_distance_odometer_oracle():
    # independent oracle: walk messages in plain counter order
    for gen_rows, n in (((0b111,), 3), ((0b0111, 0b1110), 4)):
        code = LinearCode.from_generator_rows(n, gen_rows)
        best = n + 1
        for m in range(1, 1 << code.k):
            word = 0
            mm = m
            i = 0
            while mm:
                if mm & 1:
                    word ^= code.generator[i]
                mm >>= 1
                i += 1
            best = min(best, word.bit_count())
        assert classical_distance(code, n).value == best


def test_hamming31_beyond_k25_is_exact_or_capped():
    # k = 26 > 25 takes the capped scan; d = 3
    code = cyclic_code(31, Poly2.parse("1+x^2+x^5"))
    assert code.k == 26
    exact = classical_distance(code, 3)
    assert (exact.value, exact.exact) == (3, True)
    capped = classical_distance(code, 2)
    assert (capped.value, capped.exact, capped.cap) == (3, False, 2)
    assert str(capped) == ">=3 (cap 2)"


@st.composite
def generator_matrices(draw):
    n = draw(st.integers(1, 10))
    rows = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=n))
    independent = []
    span = {0}
    for row in rows:
        if row not in span:
            independent.append(row)
            span |= {v ^ row for v in span}
    return LinearCode.from_generator_rows(n, independent)


@given(generator_matrices())
@settings(max_examples=200, deadline=None)
def test_capped_scan_matches_gray_walk(code):
    scanned = _capped_distance(code, code.n)
    walked = classical_distance(code, code.n)
    assert (scanned.value, scanned.exact) == (walked.value, walked.exact)


@given(n=st.integers(1, 8), rows=st.lists(st.integers(0, 255), min_size=1, max_size=9))
@settings(max_examples=200, deadline=None)
def test_generator_rows_are_refused_iff_dependent(n, rows):
    # independent rows get n - rank independent parity checks, each
    # orthogonal to every row; dependent rows are refused
    rows = [row & ((1 << n) - 1) for row in rows]
    span = {0}
    for row in rows:
        span |= {v ^ row for v in span}
    rank = len(span).bit_length() - 1
    if rank < len(rows):
        with pytest.raises(CodeConstructionError):
            LinearCode.from_generator_rows(n, rows)
        return
    code = LinearCode.from_generator_rows(n, rows)
    checks = {0}
    for row in code.parity_check:
        checks |= {v ^ row for v in checks}
    assert len(code.parity_check) == n - rank and len(checks) == 1 << (n - rank)
    assert all(contains(code, row) for row in rows)


def test_repetition_distance():
    rep = LinearCode.from_generator_rows(3, (0b111,))
    assert classical_distance(rep, 3).value == 3


def test_css17_pair_properties():
    c2, qr = css17_classical_pair()
    assert (c2.n, c2.k) == (17, 10)
    assert classical_distance(c2, 17).value == 3
    # mutual dual containment
    assert all(contains(c2, row) for row in dual(qr).generator)
    assert all(contains(qr, row) for row in dual(c2).generator)


def test_css_build_17():
    c2, qr = css17_classical_pair()
    css = css_build(c2, qr)
    assert (css.n, css.k) == (17, 2)
    assert validate_code(css).ok
    dx, dz = asymmetric_distances(css, 6)
    assert (dx.value, dz.value) == (3, 5)
    assert dx.exact and dz.exact


def test_css_self_dual_containing():
    # Hamming [7,4] contains its dual: the Steane-style construction
    hamming = cyclic_code(7, Poly2.parse("1+x+x^3"))
    assert all(contains(hamming, row) for row in hamming.parity_check)
    css = css_build(hamming, hamming)
    assert (css.n, css.k) == (7, 1)
    assert validate_code(css).ok
    dx, dz = asymmetric_distances(css, 7)
    assert dx.value == dz.value == 3


def test_css_containment_violation_reports_witness():
    rep = LinearCode.from_generator_rows(3, (0b111,))
    full = LinearCode.from_generator_rows(3, (0b001, 0b010, 0b100))
    # dual(full) is trivial, so (full, full) works; (rep, rep) must not
    with pytest.raises(CodeConstructionError) as err:
        css_build(rep, rep)
    assert "anticommute" in str(err.value)
    assert css_build(full, full).n == 3


def test_css_orthogonality_criterion_is_sharp():
    c2, qr = css17_classical_pair()
    ok = all(bin(a & b).count("1") % 2 == 0
             for a in c2.parity_check for b in qr.parity_check)
    assert ok


def test_asymmetric_distance_toric_self_dual():
    code = toric_code(3)
    dx, dz = asymmetric_distances(code, 4)
    assert dx.value == dz.value == 3


def test_weight3_and_weight4_x_logical_classes():
    c2, qr = css17_classical_pair()
    css = css_build(c2, qr)
    classes3, classes4 = set(), set()
    for w, bag in ((3, classes3), (4, classes4)):
        for support in combinations(range(17), w):
            x = 0
            for q in support:
                x |= 1 << q
            if css.syndrome_bits(x, 0) == 0 and not css.in_stabilizer_bits(x, 0):
                bag.add(css.class_bits(x, 0))
    assert len(classes3) == 1 and len(classes4) == 1
    assert classes3 != classes4
    # the literal polynomial coset representatives land in these classes
    lit3 = (1 << 0) | (1 << 3) | (1 << 7)
    lit4 = (1 << 3) | (1 << 6) | (1 << 10) | (1 << 11)
    assert css.syndrome_bits(lit3, 0) == 0
    assert css.class_bits(lit3, 0) in classes3
    assert css.syndrome_bits(lit4, 0) == 0
    assert css.class_bits(lit4, 0) in classes4


def test_x_power_minus_one():
    assert str(x_power_minus_one(3)) == "1+x^3"
