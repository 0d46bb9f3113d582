"""strainkit: exact rational tensor calculus for linear elasticity.

Polynomial vector and matrix fields on R^3 with exact rational coefficients,
the first-order differential operators of small-strain elasticity, the
Saint-Venant compatibility operator and its integration, the matching
Riemann-curvature linearization, and finite-degree chain-complex
machinery that derives the elasticity complex by Schur reduction.
"""

from .calculus import (curl, curl_col, curl_curl, curl_curl_direct, curl_row,
                       div, div_sym, grad, homotopy_antiderivative, sym_grad)
from .complexes import (ChainComplex, ComplexReport, DerivationResult,
                        GradedSpace, LinOpMatrix, OPERATOR_IDS, SkewMat4, Slot,
                        build_elasticity_complex, build_grad_curl_div_complex,
                        build_w_complex, derive_elasticity, interior_product,
                        lambda2_split, matrix_of, random_skew4, random_vec4,
                        schur_reduce, verify_complex, wedge_with_vector)
from .connection import (WField, WOneForm, flat_sections_basis, normalize_rigid,
                         random_w_field, random_w_one_form, rigid_motion,
                         saint_venant_reconstruct, w_curl, w_div, w_grad,
                         w_poincare)
from .errors import (CompatibilityError, FieldFormatError, SingularBlockError,
                     SingularMetricError, StrainkitError)
from .fields import (AXES, Mat3Field, SYM_INDEX_PAIRS, SymField, VecField,
                     axial_vector, delta, eps, random_field, random_point,
                     skew_from_axial)
from .fieldio import (dumps, field_from_doc, field_to_doc, load, loads, save)
from .poly import Poly3, grlex_key, monomials_up_to
from .riemannian import (ChristoffelJet, CurvatureJet, CurvatureValues,
                         JetPoly, MetricJet, PolyMetric, bianchi_check,
                         christoffel_jet, jet_inverse, linearized_einstein,
                         pointwise_curvature, ricci_jet)

__version__ = "0.1.0"

__all__ = [
    "AXES", "ChainComplex", "ChristoffelJet", "CompatibilityError",
    "ComplexReport", "CurvatureJet", "CurvatureValues", "DerivationResult",
    "FieldFormatError", "GradedSpace", "JetPoly", "LinOpMatrix",
    "Mat3Field", "MetricJet", "OPERATOR_IDS", "Poly3", "PolyMetric",
    "SYM_INDEX_PAIRS", "SingularBlockError", "SingularMetricError",
    "SkewMat4", "Slot", "StrainkitError", "SymField", "VecField", "WField",
    "WOneForm", "axial_vector", "bianchi_check", "build_elasticity_complex",
    "build_grad_curl_div_complex", "build_w_complex", "christoffel_jet",
    "curl", "curl_col", "curl_curl", "curl_curl_direct", "curl_row",
    "delta", "derive_elasticity", "div", "div_sym", "dumps", "eps",
    "field_from_doc", "field_to_doc", "flat_sections_basis", "grad",
    "grlex_key", "homotopy_antiderivative", "interior_product",
    "jet_inverse", "lambda2_split", "linearized_einstein", "load", "loads",
    "matrix_of", "monomials_up_to", "normalize_rigid", "pointwise_curvature",
    "random_field", "random_point", "random_skew4", "random_vec4",
    "random_w_field", "random_w_one_form", "ricci_jet", "rigid_motion",
    "saint_venant_reconstruct", "save", "schur_reduce", "skew_from_axial",
    "sym_grad", "verify_complex", "w_curl", "w_div", "w_grad", "w_poincare",
    "wedge_with_vector",
]
