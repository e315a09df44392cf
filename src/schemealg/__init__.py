"""Exact algebraic analysis of commutative association schemes.

The pipeline: a scheme's intersection numbers define a structure ideal whose
degree-order Groebner basis is free; FGLM-style linear algebra converts it to
lex orders; solving the lex systems exactly (rational and real-algebraic
arithmetic, no floating point) yields the character table, P-polynomial
recognition, expressibility of classes in each other, and generic elements.
"""

from .errors import (
    AttemptsExhausted,
    DimensionMismatch,
    InternalInvariantViolation,
    InvalidRadix,
    NotAPartition,
    NotCommutative,
    NotConstantIntersectionNumber,
    NotExpressible,
    NotSymmetric,
    NotTriangularEnough,
    ParseError,
    SchemeAlgError,
    SearchTooLarge,
    SingularMatrix,
    ZeroPolynomial,
)
from .exactmath import (
    DEFAULT_PRECISION,
    Interval,
    QMatrix,
    RealRoot,
    UniPoly,
    format_decimal,
    real_roots,
)
from .polyring import Monomial, MonomialOrder, MPoly, PolyBasis, is_groebner, normal_form
from .scheme import (
    IntersectionTensor,
    RelationPartition,
    Scheme,
    intersection_matrices,
    orbit_scheme,
    scheme_from_relations,
)
from .structure_ideal import (
    StructureBasis,
    idempotent_equations,
    multiplication_matrix,
    structure_basis,
    verify_radical,
)
from .fglm import (
    ReducedGB,
    VarietyPoint,
    fglm_convert,
    fglm_from_matrices,
    moller_stetter_check,
    solve_triangular,
)
from .analysis import (
    CharacterTable,
    GenericElement,
    PPolyReport,
    character_table,
    check_p_polynomial,
    express_in_terms_of,
    find_generic_element,
    minimal_generating_sets,
    variety_points,
)

__version__ = "0.1.0"

__all__ = [
    "AttemptsExhausted",
    "CharacterTable",
    "DEFAULT_PRECISION",
    "DimensionMismatch",
    "GenericElement",
    "InternalInvariantViolation",
    "IntersectionTensor",
    "Interval",
    "InvalidRadix",
    "Monomial",
    "MonomialOrder",
    "MPoly",
    "NotAPartition",
    "NotCommutative",
    "NotConstantIntersectionNumber",
    "NotExpressible",
    "NotSymmetric",
    "NotTriangularEnough",
    "ParseError",
    "PolyBasis",
    "PPolyReport",
    "QMatrix",
    "RealRoot",
    "ReducedGB",
    "RelationPartition",
    "Scheme",
    "SchemeAlgError",
    "SearchTooLarge",
    "SingularMatrix",
    "StructureBasis",
    "UniPoly",
    "VarietyPoint",
    "ZeroPolynomial",
    "character_table",
    "check_p_polynomial",
    "express_in_terms_of",
    "fglm_convert",
    "fglm_from_matrices",
    "find_generic_element",
    "format_decimal",
    "idempotent_equations",
    "intersection_matrices",
    "is_groebner",
    "minimal_generating_sets",
    "moller_stetter_check",
    "multiplication_matrix",
    "normal_form",
    "orbit_scheme",
    "real_roots",
    "scheme_from_relations",
    "solve_triangular",
    "structure_basis",
    "variety_points",
    "verify_radical",
]
