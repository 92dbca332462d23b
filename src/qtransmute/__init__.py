"""Stabilizer codes with exact verification of error transmutation over GF(2)."""

from .pauli import PauliOp, commutes, enumerate_paulis, errors_up_to_weight, \
    multiply, parse_pauli, render, weight
from .stabilizer import (DistanceResult, StabilizerCode, code_distance,
                         complete_logical_basis, logical_class,
                         min_weight_in_class, standard_form, syndrome,
                         validate_code)
from .stabilizer import dumps as dumps_code, loads as loads_code, \
    load_file as load_code_file
from .qet import (AdmissibleSet, RecoveryTable, Verdict, build_recovery,
                  check_general_qet, check_group_qet, deff_lower_bound,
                  dumps_admissible, effective_distance, loads_admissible,
                  relabel_search, strong_conditions_hold)
from .classical import (LinearCode, Poly2, asymmetric_distances, classical_distance,
                        css_build, cyclic_code, dual, subcode_from_rows)
from .lattice import (LPoly, LaurentVec, UnitCellCode, compact_encoding,
                      instantiate_torus, symplectic_form, toric_code,
                      validate_unit_cell)
from .transforms import concatenate
from .channel import (DepolarizingChannel, ExplicitChannel, TrialReport,
                      run_trials, uniform_single_error_channel)
from .search import SearchSpec, run_search

__all__ = [name for name in dir() if not name.startswith("_")]
