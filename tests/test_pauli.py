import random
from collections import Counter
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtransmute import pauli
from qtransmute.errors import DimensionMismatch, ParseError
from qtransmute.pauli import (ErrorBall, PauliOp, enumerate_paulis, errors_up_to_weight,
                              parse_pauli, render, support_code, support_weight, support_xz,
                              symplectic_product)

pauli_strings = st.text(alphabet="IXYZ", min_size=1, max_size=12)


@st.composite
def paulis(draw, n=None):
    if n is None:
        n = draw(st.integers(1, 10))
    x = draw(st.integers(0, (1 << n) - 1))
    z = draw(st.integers(0, (1 << n) - 1))
    return PauliOp(n, x, z)


def test_parse_table_row():
    p = parse_pauli("XXYYZIZ")
    assert p.x == 0b0001111 and p.z == 0b1011100
    assert render(p) == "XXYYZIZ"


def test_parse_identity():
    assert parse_pauli("IIII") == PauliOp(4)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_pauli("ZQ")
    assert "position 1" in str(err.value)


@given(pauli_strings)
def test_parse_render_round_trip(s):
    assert render(parse_pauli(s)) == s


@settings(max_examples=200)
@given(data=st.data(), n=st.integers(0, 256))
def test_render_matches_a_letter_per_qubit(data, n):
    x = data.draw(st.integers(0, (1 << n) - 1), label="x")
    z = data.draw(st.integers(0, (1 << n) - 1), label="z")
    want = "".join("IXZY"[(x >> q & 1) + 2 * (z >> q & 1)] for q in range(n))
    assert render(PauliOp(n, x, z)) == want


def test_multiply_single_qubit():
    # the phase-blind product is the XOR of the masks: X·Z = Y
    x, z = parse_pauli("X"), parse_pauli("Z")
    assert PauliOp(1, x.x ^ z.x, x.z ^ z.z) == parse_pauli("Y")


def test_multiply_disjoint_support():
    a, b = parse_pauli("ZIIIIII"), parse_pauli("IZIIIII")
    assert render(PauliOp(7, a.x ^ b.x, a.z ^ b.z)) == "ZZIIIII"


def test_symplectic_product_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        symplectic_product(PauliOp(2), PauliOp(3))


def test_commutes_basics():
    assert symplectic_product(parse_pauli("X"), parse_pauli("Z"))
    assert not symplectic_product(parse_pauli("XYZ"), PauliOp(3))


def test_table1_generators_commute(table1):
    gens = table1.generators
    assert not any(symplectic_product(a, b) for i, a in enumerate(gens) for b in gens[i + 1:])


@given(paulis(n=6), paulis(n=6), paulis(n=6))
def test_symplectic_product_bilinear(a, b, c):
    assert symplectic_product(a, b) == symplectic_product(b, a)
    assert (symplectic_product(a, PauliOp(6, b.x ^ c.x, b.z ^ c.z))
            == symplectic_product(a, b) ^ symplectic_product(a, c))


def test_weight():
    # a Pauli's weight, (x | z).bit_count(), counts its non-I letters
    for s, w in (("IIIII", 0), ("ZZIIIII", 2), ("XXYYZIZ", 6)):
        p = parse_pauli(s)
        assert (p.x | p.z).bit_count() == w


def test_enumeration_counts():
    assert len(list(enumerate_paulis(2, 1))) == 6
    assert len(list(enumerate_paulis(17, 2))) == 17 * 3 + (17 * 16 // 2) * 9 == 1275
    assert list(enumerate_paulis(4, 0)) == []


@given(st.integers(1, 12), st.data())
@settings(max_examples=25)
def test_enumeration_matches_closed_form(n, data):
    w = data.draw(st.integers(0, min(n, 3)))
    ops = list(enumerate_paulis(n, w))
    assert len(ops) == len(errors_up_to_weight(n, w)) - 1 \
        == sum(comb(n, v) * 3**v for v in range(1, w + 1))
    assert len(set(ops)) == len(ops)


def test_enumeration_order():
    ops = list(enumerate_paulis(3, 2))
    weights = [(p.x | p.z).bit_count() for p in ops]
    assert weights == sorted(weights)
    # first few: weight-1 on qubit 0 in X, Y, Z order
    assert [render(p) for p in ops[:4]] == ["XII", "YII", "ZII", "IXI"]


def reference_walk(n, max_weight):
    """The enumeration loop as it was before the walk: support by support,
    letters by itertools.product, masks built letter by letter."""
    letter_bits = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
    for w in range(1, max_weight + 1):
        for support in combinations(range(n), w):
            for letters in product("XYZ", repeat=w):
                x = z = 0
                for q, letter in zip(support, letters):
                    xb, zb = letter_bits[letter]
                    x |= xb << q
                    z |= zb << q
                yield x, z


def test_walk_matches_reference_enumeration():
    for n in range(8):
        for w in range(n + 1):
            walked = list(ErrorBall(n, w))
            assert walked == [(0, 0), *reference_walk(n, w)], (n, w)
            assert [(p.x, p.z) for p in enumerate_paulis(n, w)] == walked[1:]
            assert errors_up_to_weight(n, w) == walked


def test_walk_refuses_weights_outside_the_qubit_count():
    for n, w in ((3, 4), (3, -1)):
        with pytest.raises(ValueError, match="need 0 <= max_weight <= n"):
            ErrorBall(n, w)
        with pytest.raises(ValueError, match="need 0 <= max_weight <= n"):
            list(enumerate_paulis(n, w))


def test_errors_up_to_weight_includes_identity():
    errs = errors_up_to_weight(3, 1)
    assert errs[0] == (0, 0)
    assert errs[1:] == list(reference_walk(3, 1))
    assert len(errs) == 1 + 9


def test_ball_length_and_membership_match_its_walk():
    for n in range(6):
        for w in range(n + 1):
            ball = ErrorBall(n, w)
            walked = list(ball)
            assert len(ball) == len(walked) == len(set(walked))
            members = set(walked)
            for x in range(-1, 1 << (n + 1)):
                for z in (0, 1, x, 1 << n, -2):
                    assert ((x, z) in ball) == ((x, z) in members), (n, w, x, z)



def test_support_codes_round_trip_in_walk_order():
    # With unit label columns a labelled error's label is x | z << n, so the
    # walk's (x, z) can be read off its label as well as decoded from its code.
    for n in range(7):
        cols = [1 << j for j in range(2 * n)]
        for w in range(n + 1):
            walked = []
            for batch in ErrorBall(n, w).labelled(cols, 2 * n):
                for v in batch:
                    code = v >> 2 * n
                    x, z = support_xz(n, code)
                    assert v & ((1 << 2 * n) - 1) == x | z << n
                    assert support_weight(n, code) == (x | z).bit_count()
                    assert support_code(n, x, z) == code
                    walked.append((x, z))
            assert walked == errors_up_to_weight(n, w), (n, w)


def test_walk_from_a_weight_is_the_tail_of_the_whole_walk():
    for n in range(6):
        cols = [1 << j for j in range(2 * n)]
        for w in range(n + 1):
            ball = ErrorBall(n, w)
            whole = [v for batch in ball.labelled(cols, 2 * n) for v in batch]
            for lo in range(w + 1):
                tail = [v for batch in ball.labelled(cols, 2 * n, lo) for v in batch]
                assert tail == [v for v in whole if support_weight(n, v >> 2 * n) >= lo], (n, w, lo)


def test_one_letter_rows_walk_the_pure_half_ball():
    # rows[q] offers each letter's XOR value; one letter per qubit walks the
    # errors of that letter alone, in the ball's order
    for n in range(7):
        for w in range(n + 1):
            ball = ErrorBall(n, w)
            for letter, (xb, zb) in (("X", (1, 0)), ("Y", (1, 1)), ("Z", (0, 1))):
                rows = [((xb << q) | (zb << q) << n,) for q in range(n)]
                walked = [divmod(v, 1 << n)[::-1] for batch in ball.walk(rows) for v in batch]
                assert walked == [(x, z) for x, z in ball
                                  if x == (x | z if xb else 0) and z == (x | z if zb else 0)]
            three = [(1 << q, 1 << q | 1 << (n + q), 1 << (n + q)) for q in range(n)]
            assert [divmod(v, 1 << n)[::-1] for batch in ball.walk(three) for v in batch] == list(ball)


@pytest.mark.parametrize("seed", range(40))
def test_colliding_errors_are_those_of_shared_syndromes(monkeypatch, seed):
    # Random CSS-shaped label columns: the X columns' syndromes in the low
    # bits, the Z columns' above them, and random bits above the syndromes.
    # The colliding weight-w errors are those whose syndrome some other ball
    # error shares, in walk order and labelled as the walk labels them.
    rng = random.Random(seed)
    n = rng.randrange(2, 8)
    w = rng.randrange(1, min(n, 3) + 1)
    sx, sz, extra = rng.randrange(0, 5), rng.randrange(0, 5), rng.randrange(0, 3)
    mask, width = (1 << (sx + sz)) - 1, sx + sz + extra
    cols = ([rng.randrange(1 << sx) | rng.randrange(1 << extra) << (sx + sz) for _ in range(n)]
            + [rng.randrange(1 << sz) << sx | rng.randrange(1 << extra) << (sx + sz)
               for _ in range(n)])
    ball = ErrorBall(n, w)
    walked = [v for batch in ball.labelled(cols, width) for v in batch]
    count = Counter(v & mask for v in walked)
    want = [v for v in walked if count[v & mask] > 1 and support_weight(n, v >> width) == w]
    monkeypatch.setattr(pauli, "_DENSE_SHARE", float("inf"))
    assert ball.colliding(cols, mask, width) == want
    monkeypatch.setattr(pauli, "_DENSE_SHARE", len(want) / len(ball))
    assert ball.colliding(cols, mask, width) in (want, None)
    if want:
        monkeypatch.setattr(pauli, "_DENSE_SHARE", (len(want) - 1) / len(ball))
        assert ball.colliding(cols, mask, width) is None
