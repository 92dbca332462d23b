import pytest

from qtransmute.errors import CodeConstructionError
from qtransmute.pauli import parse_pauli, symplectic_product
from qtransmute.qet import AdmissibleSet, deff_lower_bound
from qtransmute.stabilizer import StabilizerCode, validate_code
from qtransmute.transforms import concatenate


def trivial_inner():
    return StabilizerCode([], [parse_pauli("X")], [parse_pauli("Z")])


def test_concatenate_shape(table1, five_qubit):
    cc = concatenate(table1, five_qubit)
    assert (cc.n, cc.k) == (35, 2)
    assert len(cc.generators) == 33
    assert validate_code(cc).ok


def test_trivial_inner_returns_original(table1):
    cc = concatenate(table1, trivial_inner())
    assert cc.generators == table1.generators
    assert cc.logical_x == table1.logical_x
    assert cc.logical_z == table1.logical_z


def test_inner_must_encode_one_qubit(table1, table2):
    with pytest.raises(CodeConstructionError):
        concatenate(table1, table2)


def test_lifted_logicals_preserve_pairings(table1, five_qubit):
    cc = concatenate(table1, five_qubit)
    outer, result = table1, cc
    ops_outer = outer.logical_x + outer.logical_z
    ops_lifted = result.logical_x + result.logical_z
    for i, a in enumerate(ops_outer):
        for j, b in enumerate(ops_outer):
            assert (symplectic_product(a, b)
                    == symplectic_product(ops_lifted[i], ops_lifted[j]))


def test_lifted_classes_carry_over(table1, five_qubit):
    cc = concatenate(table1, five_qubit)
    # the lift of an outer logical has the same class bits in the new code
    for i, op in enumerate(table1.logical_z):
        lifted = cc.logical_z[i]
        assert cc.syndrome_bits(lifted.x, lifted.z) == 0
        assert cc.class_bits(lifted.x, lifted.z) \
            == table1.class_bits(op.x, op.z)


def test_capped_scan_respects_block_bound(table1, five_qubit):
    # quick version of the weight bound: nothing outside the lifted
    # admissible set below weight 4 (the full weight-5 scan runs in the
    # acceptance suite)
    cc = concatenate(table1, five_qubit)
    adm = AdmissibleSet.group_generated(2, ["ZI"])
    bound = deff_lower_bound(cc, adm, 3)
    assert not bound.exact
    assert bound.value == 4
