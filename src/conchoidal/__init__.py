"""Exact conchoidal transforms of projective plane curves.

Curves are given by homogeneous equations in x, y, z over Q or Q(i); the
frame is fixed (A = [0:0:1], line at infinity z = 0).  The transform is a
resultant-type determinant, decomposable into exceptional components plus
the proper conchoid; the classical circle case adds a splitting criterion,
iterated conchoids, and recognition procedures.
"""

from .curves import Divisor, DivisorComponent, PlaneCurve, ProjPoint, Scene, recenter
from .errors import (
    ConchoidError,
    CyclicTangentError,
    DecompositionMismatchError,
    DegenerateConicError,
    DegenerateMembershipError,
    DegreeBoundError,
    EliminationDegenerateError,
    IdenticallyZeroError,
    InternalError,
    InvalidSceneError,
    NotHomogeneousError,
    NotSquarefreeError,
    ParseError,
)
from .fields import FIELD_Q, FIELD_QI, GaussianRational, Rational
from .gcd import poly_gcd, squarefree_part
from .grammar import parse_poly, poly_to_text
from .multipoly import MultiPoly, homogeneous_decompose, poly_exact_div
from .plotting import PlotSpec, render_svg
from .recognize import (
    Candidate,
    CheckRecord,
    CircleSpec,
    RecognitionReport,
    candidate_radii,
    iterated_conchoid,
    recognize_complete,
    recognize_proper,
)
from .resultant import conchoid_coefficients, phi_forms, poly_matrix_det, sylvester_resultant
from .roots import factor_binary_form, formal_square_root, rational_roots
from .splitting import (
    SplitResult,
    SplitWitness,
    conic_focus_split,
    cyclic_tangent_pair,
    split_test,
    witness_components,
)
from .transform import (
    Membership,
    conchoidal_transform,
    degree_genus_predict,
    elimination_crosscheck,
    extract_known_components,
    infinity_restriction,
    membership_value,
    multiplicity_at,
    tangent_cone_at,
)

__all__ = [
    "CircleSpec", "Candidate", "CheckRecord", "ConchoidError", "CyclicTangentError",
    "Divisor", "DivisorComponent", "DecompositionMismatchError", "DegenerateConicError",
    "DegenerateMembershipError", "DegreeBoundError", "EliminationDegenerateError",
    "FIELD_Q", "FIELD_QI", "GaussianRational", "IdenticallyZeroError",
    "InternalError", "InvalidSceneError", "Membership", "MultiPoly", "NotHomogeneousError",
    "NotSquarefreeError", "ParseError", "PlaneCurve", "PlotSpec",
    "ProjPoint", "Rational", "RecognitionReport", "Scene", "SplitResult",
    "SplitWitness", "candidate_radii", "conchoid_coefficients",
    "conchoidal_transform", "conic_focus_split", "cyclic_tangent_pair",
    "degree_genus_predict", "elimination_crosscheck", "extract_known_components",
    "factor_binary_form", "formal_square_root", "homogeneous_decompose",
    "infinity_restriction", "iterated_conchoid", "membership_value",
    "multiplicity_at", "parse_poly", "phi_forms", "poly_exact_div", "poly_gcd",
    "poly_matrix_det", "poly_to_text", "rational_roots", "recenter",
    "recognize_complete", "recognize_proper", "render_svg", "split_test",
    "squarefree_part", "sylvester_resultant", "tangent_cone_at",
    "witness_components",
]

__version__ = "0.1.0"
