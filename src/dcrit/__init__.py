"""Exact Koszul complexes, derived critical loci, and their graded structures.

Everything is computed over the rationals with exact arithmetic; there is no
floating point anywhere in the package.  The main entry points:

- Poly, parse_poly: sparse multivariate polynomials over Q
- build_koszul, build_tautological_koszul: Koszul complexes of sections
- hilbert_table, is_regular_sequence, resolution_certificate: weight-slice
  cohomology, and the verdicts read off it
- buchberger: the Groebner oracle; a basis is also its quotient R/I
- schouten, bv_delta, vol_contract: the odd bracket and its generator
- minus_one_pairing, intersect_graph_lagrangians: shifted pairings
- comultiply, counit, antipode: the exterior coalgebra, which coacts on every
  Koszul complex, its tensors exterior elements on copies of the generators
  (tensor_ambient)
- CheckReport: every pass/fail verdict, from base_change_compare and the
  certificates to the identity suites, run_all (acceptance) and cli.main
"""

__version__ = "0.1.0"

from .poly import (ANY_DEGREE, INHOMOGENEOUS, Poly, UnknownVariableError, gradient,
                   monomials_of_weight, normalize_weights)
from .exterior import Ambient, ExtElt, Section, algebra_map, contract, merge_sign, wedge
from .parsing import (ParseError, parse_one_form, parse_poly, parse_polyvector,
                      parse_section)
from .groebner import INFINITE, GroebnerBasis, buchberger, normal_form, standard_monomials
from .koszul import (KoszulComplex, TautologicalKoszul, base_change_compare, build_koszul,
                     build_tautological_koszul, check_d_squared)
from .cohomology import (HilbertTable, InhomogeneousSectionError, hilbert_table,
                         is_regular_sequence, resolution_certificate, slice_cohomology)
from .polyvec import (VolumeForm, alpha_of_vector, apply_vector, bv_delta,
                      check_bracket_compat, check_bv, check_gerstenhaber,
                      closedness_witness, de_rham, exact_form, form_str,
                      schouten, vol_contract)
from .symplectic import (NotClosedError, ObstructionReport, PairingReport,
                         intersect_graph_lagrangians, minus_one_pairing,
                         obstruction_theory)
from .coalgebra import antipode, comultiply, counit, tensor_ambient
from .checks import CheckReport
from .acceptance import run_all

__all__ = [
    "__version__",
    "ANY_DEGREE", "INHOMOGENEOUS", "Poly", "UnknownVariableError", "gradient",
    "monomials_of_weight", "normalize_weights",
    "Ambient", "ExtElt", "Section", "algebra_map", "contract", "merge_sign", "wedge",
    "ParseError", "parse_one_form", "parse_poly", "parse_polyvector",
    "parse_section",
    "INFINITE", "GroebnerBasis", "buchberger", "normal_form", "standard_monomials",
    "KoszulComplex", "TautologicalKoszul", "base_change_compare", "build_koszul",
    "build_tautological_koszul", "check_d_squared",
    "HilbertTable", "InhomogeneousSectionError", "hilbert_table",
    "is_regular_sequence", "resolution_certificate", "slice_cohomology",
    "VolumeForm", "alpha_of_vector", "apply_vector", "bv_delta",
    "check_bracket_compat", "check_bv", "check_gerstenhaber",
    "closedness_witness", "de_rham", "exact_form", "form_str", "schouten",
    "vol_contract",
    "NotClosedError", "ObstructionReport", "PairingReport",
    "intersect_graph_lagrangians", "minus_one_pairing", "obstruction_theory",
    "antipode", "comultiply", "counit", "tensor_ambient",
    "CheckReport", "run_all",
]
